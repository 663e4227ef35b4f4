#include "osal/tracer.hpp"

#include <sstream>

namespace kop::osal {

namespace {
void append_escaped(std::ostringstream& oss, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') oss << '\\';
    oss << c;
  }
}

// Virtual nanoseconds as exact microseconds in fixed notation: the
// whole part, then up to three decimals without trailing zeros ("1",
// "0.5", "12345678.901").  A streamed double keeps only 6 significant
// digits, which past 1 s of virtual time switches to exponent form and
// drops whole microseconds.
void append_micros(std::ostringstream& oss, sim::Time ns) {
  oss << ns / 1000;
  sim::Time frac = ns % 1000;
  if (frac == 0) return;
  oss << '.';
  for (sim::Time place = 100; frac != 0; place /= 10) {
    oss << frac / place;
    frac %= place;
  }
}
}  // namespace

std::string Tracer::to_chrome_json() const {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    if (!first) oss << ",";
    first = false;
    oss << "{\"name\":\"";
    append_escaped(oss, e.name);
    oss << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.cpu << ",\"ts\":";
    append_micros(oss, e.start);
    oss << ",\"dur\":";
    append_micros(oss, e.duration);
    oss << "}";
  }
  oss << "],\"displayTimeUnit\":\"ms\"}";
  return oss.str();
}

}  // namespace kop::osal
