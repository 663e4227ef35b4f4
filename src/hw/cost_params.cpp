#include "hw/cost_params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace kop::hw {

namespace {

// Scalable fields of OsCosts.  Booleans, enums and the personality
// string are structural switches, not calibration knobs, so they are
// deliberately not scalable.
struct Field {
  const char* name;
  // Multiplies the field by `scale`, rounding times to whole ns.
  void (*apply)(OsCosts&, double);
};

void scale_time(sim::Time& t, double s) {
  if (t == sim::kTimeNever) return;  // "never" stays never at any scale
  const double v = static_cast<double>(t) * s;
  t = static_cast<sim::Time>(std::llround(v));
}

constexpr Field kFields[] = {
    {"minor_fault_ns", [](OsCosts& c, double s) { scale_time(c.minor_fault_ns, s); }},
    {"thp_2m_fraction", [](OsCosts& c, double s) { c.thp_2m_fraction = std::min(1.0, c.thp_2m_fraction * s); }},
    {"syscall_ns", [](OsCosts& c, double s) { scale_time(c.syscall_ns, s); }},
    {"context_switch_ns", [](OsCosts& c, double s) { scale_time(c.context_switch_ns, s); }},
    {"thread_create_ns", [](OsCosts& c, double s) { scale_time(c.thread_create_ns, s); }},
    {"wake_latency_ns", [](OsCosts& c, double s) { scale_time(c.wake_latency_ns, s); }},
    {"wake_cv", [](OsCosts& c, double s) { c.wake_cv *= s; }},
    {"tick_period_ns", [](OsCosts& c, double s) { scale_time(c.tick_period_ns, s); }},
    {"tick_cost_ns", [](OsCosts& c, double s) { scale_time(c.tick_cost_ns, s); }},
    {"noise_rate_hz", [](OsCosts& c, double s) { c.noise_rate_hz *= s; }},
    {"noise_mean_ns", [](OsCosts& c, double s) { scale_time(c.noise_mean_ns, s); }},
    {"noise_cv", [](OsCosts& c, double s) { c.noise_cv *= s; }},
    {"timeslice_ns", [](OsCosts& c, double s) { scale_time(c.timeslice_ns, s); }},
    {"competing_load", [](OsCosts& c, double s) { c.competing_load *= s; }},
    {"alloc_base_ns", [](OsCosts& c, double s) { scale_time(c.alloc_base_ns, s); }},
    {"compute_inflation", [](OsCosts& c, double s) { c.compute_inflation *= s; }},
};

const Field* find_field(const std::string& name) {
  for (const Field& f : kFields) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

}  // namespace

std::vector<std::string> cost_param_names() {
  std::vector<std::string> names;
  for (const char* p : {"linux", "nautilus"}) {
    for (const Field& f : kFields) {
      names.push_back(std::string(p) + "." + f.name);
    }
  }
  return names;
}

bool is_cost_field(const std::string& field) {
  return find_field(field) != nullptr;
}

void apply_cost_scale(OsCosts& c, const std::string& field, double scale) {
  const Field* f = find_field(field);
  if (f == nullptr)
    throw std::invalid_argument("unknown cost field: " + field);
  if (!(scale > 0.0) || !std::isfinite(scale))
    throw std::invalid_argument("cost scale must be finite and > 0");
  f->apply(c, scale);
}

}  // namespace kop::hw
