#include "harness/jobs/baseline.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <set>
#include <sstream>

#include "harness/figures.hpp"
#include "harness/jobs/cache.hpp"
#include "sim/stats.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace kop::harness::jobs {

namespace {

namespace fs = std::filesystem;

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%%", v * 100.0);
  return buf;
}

bool loses(double gain) { return gain < 1.0 - kLossMargin; }

}  // namespace

CacheIndex::CacheIndex(const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return;
  std::set<std::string> twice;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file() ||
        !ResultCache::may_hold_entry(e.path().filename().string())) {
      continue;
    }
    std::string text;
    if (!read_file(e.path().string(), &text)) continue;
    telemetry::JsonValue root;
    try {
      root = telemetry::parse_json(text);
    } catch (const telemetry::JsonParseError&) {
      continue;  // corrupt entries are simply not indexed
    }
    const ResultCache::Identity id = ResultCache::identity(root);
    if (id.point == nullptr) continue;
    ++entries_;
    if (!by_canonical_.emplace(*id.point, std::move(text)).second) {
      twice.insert(*id.point);
    }
  }
  // Which of two answers for one point the scan kept depends on the
  // directory order; neither is compared.
  for (const auto& point : twice) by_canonical_.erase(point);
  recorded_twice_ = twice.size();
}

bool CacheIndex::load(const PointSpec& spec, PointResult* out) const {
  const auto it = by_canonical_.find(spec.canonical());
  if (it == by_canonical_.end()) return false;
  // Fingerprint-agnostic on purpose: a baseline captured under an older
  // calibration must still be readable for shape comparison.
  return ResultCache::decode(it->second, spec, out,
                             /*require_fingerprint=*/false);
}

BaselineVerdict compare_shapes(std::vector<ShapeCell> cells,
                               const BaselineOptions& opts) {
  BaselineVerdict verdict;
  verdict.cells = std::move(cells);

  // Partition by (figure, series), preserving first-seen order.
  std::vector<std::pair<std::string, std::vector<const ShapeCell*>>> groups;
  for (const auto& c : verdict.cells) {
    const std::string key = c.figure + "/" + c.series;
    auto it = groups.begin();
    for (; it != groups.end(); ++it) {
      if (it->first == key) break;
    }
    if (it == groups.end()) {
      groups.push_back({key, {}});
      it = groups.end() - 1;
    }
    it->second.push_back(&c);
  }

  for (const auto& [key, members] : groups) {
    SeriesVerdict sv;
    sv.figure = members.front()->figure;
    sv.series = members.front()->series;

    std::vector<double> base_gains, fresh_gains;
    for (const ShapeCell* c : members) {
      if (c->baseline_gain > 0 && c->fresh_gain > 0) {
        base_gains.push_back(c->baseline_gain);
        fresh_gains.push_back(c->fresh_gain);
      }
      if (loses(c->baseline_gain) != loses(c->fresh_gain)) ++sv.flips;
    }
    if (!base_gains.empty()) {
      sv.baseline_geomean = sim::geomean(base_gains);
      sv.fresh_geomean = sim::geomean(fresh_gains);
      sv.drift = std::fabs(sv.fresh_geomean / sv.baseline_geomean - 1.0);
    }

    // Crossover: within each group (one benchmark's CPU sweep, cells
    // in ascending-x order), the first cell where the series loses
    // (gain below 1 by more than kLossMargin).  Moving that position
    // changes where the figure's curves cross the baseline -- a shape
    // change even when the geomean barely moves.
    std::vector<std::pair<std::string, std::pair<int, int>>> first_loss;
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      const ShapeCell* c = members[pos];
      auto it = first_loss.begin();
      for (; it != first_loss.end(); ++it) {
        if (it->first == c->group) break;
      }
      if (it == first_loss.end()) {
        first_loss.push_back({c->group, {-1, -1}});
        it = first_loss.end() - 1;
      }
      if (loses(c->baseline_gain) && it->second.first < 0)
        it->second.first = static_cast<int>(pos);
      if (loses(c->fresh_gain) && it->second.second < 0)
        it->second.second = static_cast<int>(pos);
    }
    for (const auto& [group, positions] : first_loss) {
      (void)group;
      if (positions.first != positions.second) ++sv.crossover_moves;
    }

    sv.ok = sv.drift <= opts.geomean_tolerance && sv.flips == 0 &&
            sv.crossover_moves == 0;
    verdict.series.push_back(std::move(sv));
  }
  return verdict;
}

bool BaselineVerdict::shapes_ok() const {
  for (const auto& s : series) {
    if (!s.ok) return false;
  }
  return true;
}

std::string BaselineVerdict::text(const BaselineOptions& opts) const {
  std::string out;
  out += "compared " + std::to_string(cells.size()) + " cells across " +
         std::to_string(series.size()) + " series (geomean tolerance " +
         pct(opts.geomean_tolerance) + ")\n";
  for (const auto& s : series) {
    std::ostringstream row;
    row << std::fixed << std::setprecision(3) << "  " << s.figure << '/'
        << s.series << ": geomean " << s.baseline_geomean << " -> "
        << s.fresh_geomean << " (drift " << pct(s.drift) << "), flips "
        << s.flips << ", crossover moves " << s.crossover_moves << " -- "
        << (s.ok ? "ok" : "REGRESSION") << '\n';
    out += row.str();
  }
  if (!incomparable.empty()) {
    out += "  missing from baseline (or recorded there twice): " +
           std::to_string(incomparable.size()) + " point(s)\n";
    for (const auto& m : incomparable) out += "    " + m + "\n";
  }
  out += std::string("verdict: ") + (ok() ? "OK" : "REGRESSION") + "\n";
  return out;
}

std::string BaselineVerdict::json(const BaselineOptions& opts) const {
  telemetry::JsonWriter w;
  w.begin_object();
  w.key("tool").value("kop_baseline");
  w.key("ok").value(ok());
  w.key("shapes_ok").value(shapes_ok());
  w.key("geomean_tolerance").value(opts.geomean_tolerance);
  w.key("series").begin_array();
  for (const auto& s : series) {
    w.begin_object();
    w.key("figure").value(s.figure);
    w.key("series").value(s.series);
    w.key("baseline_geomean").value(s.baseline_geomean);
    w.key("fresh_geomean").value(s.fresh_geomean);
    w.key("drift").value(s.drift);
    w.key("flips").value(s.flips);
    w.key("crossover_moves").value(s.crossover_moves);
    w.key("ok").value(s.ok);
    w.end_object();
  }
  w.end_array();
  w.key("cells").begin_array();
  for (const auto& c : cells) {
    w.begin_object();
    w.key("figure").value(c.figure);
    w.key("series").value(c.series);
    w.key("group").value(c.group);
    w.key("x").value(c.x_label);
    w.key("baseline_gain").value(c.baseline_gain);
    w.key("fresh_gain").value(c.fresh_gain);
    w.end_object();
  }
  w.end_array();
  w.key("incomparable").begin_array();
  for (const auto& m : incomparable) w.value(m);
  w.end_array();
  w.end_object();
  return w.str() + "\n";
}

// The shape extractors index results with the figure's own matrix, so
// PointMatrix::add doubles as the result-index lookup here too.
std::vector<ShapeCell> nas_shape_cells(
    const std::string& figure, const std::string& machine,
    const std::vector<core::PathKind>& paths, const std::vector<int>& scales,
    const std::vector<nas::BenchmarkSpec>& suite,
    const std::vector<PointResult>& baseline, const std::vector<bool>& have,
    const std::vector<PointResult>& fresh, std::vector<std::string>* missing) {
  using harness::nas_point;
  PointMatrix mx;
  harness::build_nas_normalized(mx, machine, paths, scales, suite);

  std::vector<ShapeCell> cells;
  for (const auto& spec : suite) {
    for (int n : scales) {
      const std::size_t i_linux =
          mx.add(nas_point(machine, core::PathKind::kLinuxOmp, n, spec));
      for (auto p : paths) {
        const std::size_t i_path = mx.add(nas_point(machine, p, n, spec));
        if (!have[i_linux] || !have[i_path]) {
          if (missing != nullptr) {
            if (!have[i_linux]) missing->push_back(mx.points()[i_linux].label());
            if (!have[i_path]) missing->push_back(mx.points()[i_path].label());
          }
          continue;
        }
        ShapeCell c;
        c.figure = figure;
        c.series = core::path_name(p);
        c.group = spec.full_name();
        c.x_label = std::to_string(n);
        c.baseline_gain = baseline[i_path].metrics.timed_seconds > 0
                              ? baseline[i_linux].metrics.timed_seconds /
                                    baseline[i_path].metrics.timed_seconds
                              : 0.0;
        c.fresh_gain = fresh[i_path].metrics.timed_seconds > 0
                           ? fresh[i_linux].metrics.timed_seconds /
                                 fresh[i_path].metrics.timed_seconds
                           : 0.0;
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<ShapeCell> epcc_shape_cells(
    const std::string& figure, const std::string& machine, int threads,
    const std::vector<core::PathKind>& paths, const epcc::EpccConfig& config,
    const std::vector<PointResult>& baseline, const std::vector<bool>& have,
    const std::vector<PointResult>& fresh, std::vector<std::string>* missing) {
  using harness::epcc_point;
  PointMatrix mx;
  harness::build_epcc_figure(mx, machine, threads, paths, config);

  std::vector<ShapeCell> cells;
  if (paths.empty()) return cells;
  const std::size_t i_ref = mx.add(epcc_point(machine, paths[0], threads,
                                              config));
  for (std::size_t pi = 1; pi < paths.size(); ++pi) {
    const std::size_t i_path =
        mx.add(epcc_point(machine, paths[pi], threads, config));
    if (!have[i_ref] || !have[i_path]) {
      if (missing != nullptr) {
        if (!have[i_ref] && pi == 1)
          missing->push_back(mx.points()[i_ref].label());
        if (!have[i_path]) missing->push_back(mx.points()[i_path].label());
      }
      continue;
    }
    const auto& ref_base = baseline[i_ref].epcc;
    const auto& path_base = baseline[i_path].epcc;
    const auto& ref_fresh = fresh[i_ref].epcc;
    const auto& path_fresh = fresh[i_path].epcc;
    // All paths measure the same construct list in suite order.
    for (std::size_t i = 0; i < ref_fresh.size(); ++i) {
      if (ref_fresh[i].reference) continue;
      if (i >= ref_base.size() || i >= path_base.size() ||
          i >= path_fresh.size()) {
        break;  // baseline recorded under a different EPCC suite shape
      }
      const double rb = ref_base[i].overhead_us.mean();
      const double pb = path_base[i].overhead_us.mean();
      const double rf = ref_fresh[i].overhead_us.mean();
      const double pf = path_fresh[i].overhead_us.mean();
      // Negative overheads (a path beating its own reference) make
      // the gain ratio meaningless; those cells carry no shape.
      if (rb <= 0 || pb <= 0 || rf <= 0 || pf <= 0) continue;
      ShapeCell c;
      c.figure = figure;
      c.series = core::path_name(paths[pi]);
      c.group = ref_fresh[i].group;
      c.x_label = ref_fresh[i].name;
      c.baseline_gain = rb / pb;
      c.fresh_gain = rf / pf;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

}  // namespace kop::harness::jobs
