// Printed figures must match their data: every table a print_*()
// function renders carries one row per construct (EPCC) or per CPU
// count (NAS / CCK) of the points it ran, and every benchmark in the
// results gets its own table.  Tiny configurations keep the runs fast.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/metrics.hpp"

namespace {

using kop::core::PathKind;
using kop::harness::MetricsSink;
using Rows = std::vector<std::vector<std::string>>;

// The table printed right after the first line that starts with
// `heading`: skip its header and rule, then split each row up to the
// blank line that ends the table into whitespace-separated cells.
// Empty when no line starts with `heading`.
Rows table_after(const std::string& text, const std::string& heading) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line) && line.rfind(heading, 0) != 0) {
  }
  Rows rows;
  if (!in) return rows;
  std::getline(in, line);  // header
  std::getline(in, line);  // rule
  while (std::getline(in, line) && !line.empty()) {
    std::istringstream cells(line);
    rows.emplace_back();
    for (std::string cell; cells >> cell;) rows.back().push_back(cell);
  }
  return rows;
}

// Distinct run labels (benchmark names) in the sink, in first-seen order.
std::vector<std::string> labels(const MetricsSink& sink) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto& run : sink.runs()) {
    if (seen.insert(run.label).second) out.push_back(run.label);
  }
  return out;
}

void expect_one_row_per_scale(const Rows& rows, const std::vector<int>& scales,
                              std::size_t cells, const std::string& what) {
  ASSERT_EQ(rows.size(), scales.size()) << what;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].size(), cells) << what << " row " << i;
    EXPECT_EQ(rows[i][0], std::to_string(scales[i])) << what << " row " << i;
  }
}

TEST(FigureRows, EpccTablesHaveOneRowPerConstruct) {
  kop::epcc::EpccConfig cfg;
  cfg.outer_reps = 2;
  cfg.inner_iters = 2;
  cfg.sched_iters_per_thread = 8;
  cfg.tasks_per_thread = 2;
  cfg.tree_depth = 2;
  cfg.array_sizes = {81};
  const std::vector<PathKind> paths = {PathKind::kLinuxOmp, PathKind::kRtk,
                                       PathKind::kPik};
  MetricsSink sink("figures_test");
  const std::string text = kop::harness::print_epcc_figure(
      "EPCC (tiny)", "phi", 4, paths, cfg, &sink);
  ASSERT_EQ(sink.size(), paths.size());

  const std::pair<std::string, std::string> sections[] = {
      {"ARRAY", "(a) ARRAY"},
      {"SCHEDULE", "(b) SCHEDULE"},
      {"SYNCH", "(c) SYNCH"},
      {"TASK", "(d) TASK"}};
  for (const auto& [group, heading] : sections) {
    // Constructs are keyed "<group>.<name>" in the metrics document.
    std::multiset<std::string> want;
    for (const auto& [key, stat] : sink.runs()[0].constructs) {
      if (key.rfind(group + ".", 0) == 0)
        want.insert(key.substr(group.size() + 1));
    }
    ASSERT_FALSE(want.empty()) << group;
    std::multiset<std::string> got;
    for (const auto& row : table_after(text, heading)) {
      EXPECT_EQ(row.size(), 1 + 2 * paths.size()) << heading << " " << row[0];
      got.insert(row[0]);
    }
    EXPECT_EQ(got, want) << heading;
  }
}

TEST(FigureRows, NasNormalizedHasOneTablePerBenchmark) {
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(2);
  const std::vector<int> scales = {1, 2, 4};
  const std::vector<PathKind> paths = {PathKind::kRtk, PathKind::kPik};
  MetricsSink sink("figures_test");
  const std::string text = kop::harness::print_nas_normalized(
      "NAS (tiny)", "phi", paths, scales, suite, &sink);
  const auto benches = labels(sink);
  ASSERT_EQ(benches.size(), suite.size());
  for (const auto& bench : benches) {
    expect_one_row_per_scale(table_after(text, bench + "  (t = "), scales,
                             2 + paths.size(), bench);
  }
  for (auto p : paths) {
    EXPECT_NE(text.find("geomean normalized performance [" +
                        std::string(kop::core::path_name(p)) + "]: "),
              std::string::npos);
  }
}

TEST(FigureRows, CckTablesHaveOneTablePerBenchmark) {
  auto suite = kop::harness::scale_suite(kop::nas::cck_suite(), 0.25, 2);
  suite.resize(2);
  const std::vector<int> scales = {1, 2};
  MetricsSink abs_sink("figures_test");
  const std::string abs = kop::harness::print_cck_absolute(
      "CCK absolute (tiny)", "phi", scales, suite, &abs_sink);
  const auto benches = labels(abs_sink);
  ASSERT_EQ(benches.size(), suite.size());
  for (const auto& bench : benches) {
    expect_one_row_per_scale(table_after(abs, bench), scales, 4, bench);
  }

  MetricsSink rel_sink("figures_test");
  const std::string rel = kop::harness::print_cck_normalized(
      "CCK normalized (tiny)", "phi", scales, suite, &rel_sink);
  ASSERT_EQ(labels(rel_sink), benches);
  for (const auto& bench : benches) {
    expect_one_row_per_scale(table_after(rel, bench + "  (t = "), scales, 3,
                             bench);
  }
}

// parse_fig_options takes the flags every figure shares and nothing
// else.  A flag only one binary reads (abl_numa_firsttouch's
// --numa-sched and --numa-migrate, fig_numa's --bench-json) is that
// binary's to strip first; every other figure rejects it with usage
// instead of silently ignoring it.
TEST(FigOptions, RejectsFlagsOnlyOneBinaryReads) {
  auto parse = [](std::vector<std::string> args) {
    args.insert(args.begin(), "fig09");
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    return kop::harness::parse_fig_options(static_cast<int>(argv.size()),
                                           argv.data());
  };
  const auto shared = parse({"--quick", "--jobs", "2", "--no-cache"});
  EXPECT_TRUE(shared.ok);
  EXPECT_TRUE(shared.quick);
  EXPECT_EQ(shared.jobs.jobs, 2);
  EXPECT_FALSE(parse({"--quick", "--numa-sched", "hier"}).ok);
  EXPECT_FALSE(parse({"--quick", "--numa-migrate"}).ok);
  EXPECT_FALSE(parse({"--quick", "--bench-json", "bench.json"}).ok);
}

}  // namespace
