#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Continued fraction of the incomplete beta function (modified Lentz).
double beta_cf(double a, double b, double x) {
  constexpr double kTiny = 1e-300, kEps = 1e-13;
  auto clamp = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  const double qab = a + b, qap = a + 1.0, qam = a - 1.0;
  double c = 1.0, d = 1.0 / clamp(1.0 - qab * x / qap), h = d;
  for (int m = 1; m <= 100000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 / clamp(1.0 + aa * d);
    c = clamp(1.0 + aa / c);
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 / clamp(1.0 + aa * d);
    c = clamp(1.0 + aa / c);
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

// Regularized incomplete beta I_x(a, b).
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * beta_cf(a, b, x) / a;
  return 1.0 - front * beta_cf(b, a, 1.0 - x) / b;
}

}  // namespace

// Harrell-Davis: a Beta-weighted average of every order statistic.  On
// the multi-modal samples a sweep produces (cheap and expensive points,
// cache hits and misses) it moves smoothly where the plain sample
// quantile jumps between neighbouring modes.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  double prev = 0.0, sum = 0.0;
  for (std::size_t i = 1; i <= v.size(); ++i) {
    const double cur = incomplete_beta(a, b, static_cast<double>(i) / n);
    sum += (cur - prev) * v[i - 1];
    prev = cur;
  }
  return sum;
}

std::uint64_t Tracer::begin(std::string name, std::uint64_t parent,
                            std::uint64_t request) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), parent, request, t, t});
  return spans_.size();
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = t;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent - 1].push_back({s.start, s.end});
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start);
      hi = std::min(hi, s.end);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[s.name.substr(0, s.name.find('.'))] += (s.end - s.start) - covered;
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"parent\": %llu, \"point\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"dur_us\": %.3f}",
                 i ? ",\n" : "", i + 1,
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name.c_str(),
                 (s.start - t0) * 1e6, (s.end - s.start) * 1e6);
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
