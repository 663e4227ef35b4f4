#include "cck/ir.hpp"

#include <stdexcept>

namespace kop::cck {

double Loop::est_iter_cost_ns() const {
  double sum = 0.0;
  for (const auto& s : body) sum += s.est_cost_ns;
  return sum;
}

Item Item::make_loop(Loop l) {
  Item it;
  it.kind = Kind::kLoop;
  it.loop = std::move(l);
  return it;
}

Item Item::make_serial(double ns) {
  Item it;
  it.kind = Kind::kSerial;
  it.serial_ns = ns;
  return it;
}

Item Item::make_call(std::string callee) {
  Item it;
  it.kind = Kind::kCall;
  it.callee = std::move(callee);
  return it;
}

const Var* Function::find_var(const std::string& n) const {
  auto it = vars.find(n);
  return it == vars.end() ? nullptr : &it->second;
}

Function& Module::entry() {
  auto it = functions.find("main");
  if (it == functions.end()) throw std::logic_error("Module: no main()");
  return it->second;
}

const Function& Module::entry() const {
  auto it = functions.find("main");
  if (it == functions.end()) throw std::logic_error("Module: no main()");
  return it->second;
}

}  // namespace kop::cck
