// Baseline shape-diff: compare_shapes must stay quiet when nothing
// moved, and flag each of the three shape regressions (geomean drift,
// win/loss flips, crossover moves) independently; the end-to-end path
// -- record a cache, index it fingerprint-agnostically, perturb the
// fresh results the way a cost-model edit would -- must produce a
// failing verdict.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/jobs/baseline.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/runner.hpp"

namespace {

namespace fs = std::filesystem;
using kop::core::PathKind;
namespace jobs = kop::harness::jobs;

jobs::ShapeCell cell(const std::string& group, const std::string& x,
                     double baseline, double fresh) {
  jobs::ShapeCell c;
  c.figure = "fig09";
  c.series = "rtk";
  c.group = group;
  c.x_label = x;
  c.baseline_gain = baseline;
  c.fresh_gain = fresh;
  return c;
}

TEST(CompareShapes, QuietWhenNothingMoved) {
  const std::vector<jobs::ShapeCell> cells = {
      cell("BT-B", "1", 1.9, 1.9), cell("BT-B", "8", 1.2, 1.2),
      cell("FT-B", "1", 1.1, 1.1), cell("FT-B", "8", 0.9, 0.9)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_TRUE(v.series[0].ok);
  EXPECT_DOUBLE_EQ(v.series[0].drift, 0.0);
  EXPECT_EQ(v.series[0].flips, 0);
  EXPECT_EQ(v.series[0].crossover_moves, 0);
  EXPECT_TRUE(v.ok());
}

TEST(CompareShapes, SmallDriftWithinToleranceIsOk) {
  // 2% geomean movement under the default 5% tolerance, same side of
  // 1.0 everywhere: benign recalibration.
  const std::vector<jobs::ShapeCell> cells = {
      cell("BT-B", "1", 1.9, 1.9 * 1.02), cell("BT-B", "8", 1.2, 1.2 * 1.02)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_TRUE(v.series[0].ok) << v.text({});
  EXPECT_GT(v.series[0].drift, 0.0);
}

TEST(CompareShapes, FlagsGeomeanDrift) {
  const std::vector<jobs::ShapeCell> cells = {
      cell("BT-B", "1", 1.9, 1.9 * 1.2), cell("BT-B", "8", 1.2, 1.2 * 1.2)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_FALSE(v.series[0].ok);
  EXPECT_NEAR(v.series[0].drift, 0.2, 1e-9);
  EXPECT_FALSE(v.ok());
}

TEST(CompareShapes, FlagsWinLossFlip) {
  // Geomean barely moves but one cell crossed 1.0: a win became a loss.
  const std::vector<jobs::ShapeCell> cells = {
      cell("BT-B", "1", 1.04, 0.97), cell("BT-B", "8", 1.0, 1.06)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_LE(v.series[0].drift, 0.05);
  EXPECT_EQ(v.series[0].flips, 1);
  EXPECT_FALSE(v.series[0].ok);
}

TEST(CompareShapes, FlagsCrossoverMove) {
  // BT-B used to start losing at the third x; now at the second.  Every
  // individual cell stays on the same side of its old value's
  // neighborhood -- the *position* of the crossover is what moved.
  const std::vector<jobs::ShapeCell> cells = {
      cell("BT-B", "1", 1.30, 1.30), cell("BT-B", "4", 1.05, 0.95),
      cell("BT-B", "8", 0.90, 0.90)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_EQ(v.series[0].crossover_moves, 1);
  EXPECT_FALSE(v.series[0].ok);
}

TEST(CompareShapes, RoundingNoiseAtParityIsNeitherFlipNorCrossover) {
  // fig13 --quick PIK TASK_BARRIER: PIK's and Linux's overheads are
  // equal, so the gain is 1.0 up to rounding.  A model change that left
  // the printed row as it was moved it from just above 1.0 to just
  // below; that is not a win turning into a loss.
  const std::vector<jobs::ShapeCell> cells = {
      cell("TASK", "TASK_BARRIER", 1.0000000000000102, 0.9999999999999694)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_EQ(v.series[0].flips, 0);
  EXPECT_EQ(v.series[0].crossover_moves, 0);
  EXPECT_TRUE(v.series[0].ok) << v.text({});
}

TEST(CompareShapes, LossesBeyondTheMarginStillFlip) {
  const std::vector<jobs::ShapeCell> cells = {
      cell("BT-B", "1", 1.02, 0.98), cell("FT-B", "1", 1.0, 0.999)};
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_EQ(v.series[0].flips, 2);
  EXPECT_EQ(v.series[0].crossover_moves, 2);
  EXPECT_FALSE(v.series[0].ok);
}

TEST(CompareShapes, TextPrintsLongSeriesNamesWhole) {
  jobs::ShapeCell c = cell("BT-B", "1", 2.0, 2.0);
  c.series = std::string(200, 'S');
  const auto v = jobs::compare_shapes({c}, {});
  const std::string text = v.text({});
  const std::string row = "  fig09/" + c.series +
                          ": geomean 2.000 -> 2.000 (drift 0.00%), flips 0, "
                          "crossover moves 0 -- ok\n";
  EXPECT_NE(text.find(row), std::string::npos) << text;
  EXPECT_NE(text.find(row + "verdict: OK\n"), std::string::npos);
}

TEST(CompareShapes, SeriesJudgedIndependently) {
  std::vector<jobs::ShapeCell> cells = {cell("BT-B", "1", 1.9, 1.9)};
  jobs::ShapeCell bad = cell("BT-B", "1", 1.9, 0.5);
  bad.series = "pik";
  cells.push_back(bad);
  const auto v = jobs::compare_shapes(cells, {});
  ASSERT_EQ(v.series.size(), 2u);
  EXPECT_TRUE(v.series[0].ok);
  EXPECT_FALSE(v.series[1].ok);
  EXPECT_FALSE(v.shapes_ok());
}

class BaselineEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process + case: ctest -j runs cases concurrently.
    dir_ = (fs::temp_directory_path() /
            ("kop_baseline_cache_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);

    suite_ = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
    suite_.resize(2);
    paths_ = {PathKind::kRtk};
    scales_ = {1, 4};
    points_ = kop::harness::enumerate_nas_normalized("phi", paths_, scales_,
                                                     suite_);

    jobs::JobOptions jopts;
    jopts.cache_dir = dir_;
    jobs::JobRunner runner(jopts);
    results_ = runner.run(points_);
    jobs::require_ok(points_, results_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  jobs::BaselineVerdict verdict(const std::vector<jobs::PointResult>& fresh) {
    const jobs::CacheIndex index(dir_);
    std::vector<jobs::PointResult> base(points_.size());
    std::vector<bool> have(points_.size(), false);
    for (std::size_t i = 0; i < points_.size(); ++i)
      have[i] = index.load(points_[i], &base[i]);
    std::vector<std::string> missing;
    auto cells = jobs::nas_shape_cells("fig09", "phi", paths_, scales_,
                                       suite_, base, have, fresh, &missing);
    auto v = jobs::compare_shapes(std::move(cells), {});
    v.incomparable = std::move(missing);
    return v;
  }

  std::string dir_;
  std::vector<kop::nas::BenchmarkSpec> suite_;
  std::vector<PathKind> paths_;
  std::vector<int> scales_;
  std::vector<jobs::PointSpec> points_;
  std::vector<jobs::PointResult> results_;
};

TEST_F(BaselineEndToEndTest, CacheIndexLoadsEveryRecordedPoint) {
  const jobs::CacheIndex index(dir_);
  EXPECT_EQ(index.size(), points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    jobs::PointResult r;
    ASSERT_TRUE(index.load(points_[i], &r)) << points_[i].label();
    EXPECT_DOUBLE_EQ(r.metrics.timed_seconds,
                     results_[i].metrics.timed_seconds);
  }
  // A point never recorded misses cleanly.
  jobs::PointSpec other = points_[0];
  other.threads = 100;
  jobs::PointResult r;
  EXPECT_FALSE(index.load(other, &r));
}

TEST_F(BaselineEndToEndTest, PointRecordedTwiceIsNotCompared) {
  // A second, different entry for the RTK t4 point -- what a directory
  // holding two calibrations looks like.  Whichever of the two entries
  // the directory lists first, the point is listed as incomparable and
  // the verdict does not change with the order.
  std::size_t dup = 0;
  while (points_[dup].path != PathKind::kRtk || points_[dup].threads != 4) {
    ++dup;
  }
  jobs::PointResult other = results_[dup];
  other.metrics.timed_seconds *= 10;
  const std::string doc = jobs::ResultCache::encode(points_[dup], other);

  std::vector<std::string> texts;
  for (const char* name :
       {"kop-0000000000000000.json", "kop-ffffffffffffffff.json"}) {
    const std::string path = dir_ + "/" + name;
    ASSERT_TRUE(jobs::publish_file(path, doc));
    const jobs::CacheIndex index(dir_);
    EXPECT_EQ(index.size(), points_.size() + 1) << name;
    EXPECT_EQ(index.recorded_twice(), 1u) << name;
    jobs::PointResult r;
    EXPECT_FALSE(index.load(points_[dup], &r)) << name;
    EXPECT_TRUE(index.load(points_[0], &r)) << name;

    const auto v = verdict(results_);
    EXPECT_TRUE(v.shapes_ok()) << v.text({});
    EXPECT_FALSE(v.ok());
    EXPECT_NE(std::find(v.incomparable.begin(), v.incomparable.end(),
                        points_[dup].label()),
              v.incomparable.end())
        << v.text({});
    texts.push_back(v.text({}));
    fs::remove(path);
  }
  EXPECT_EQ(texts[0], texts[1]);
}

TEST_F(BaselineEndToEndTest, CacheIndexToleratesMissingDirectory) {
  const jobs::CacheIndex index(dir_ + "-does-not-exist");
  EXPECT_EQ(index.size(), 0u);
}

TEST_F(BaselineEndToEndTest, CleanRerunPassesQuietly) {
  const auto v = verdict(results_);
  EXPECT_TRUE(v.ok()) << v.text({});
  EXPECT_TRUE(v.incomparable.empty());
  for (const auto& s : v.series) EXPECT_DOUBLE_EQ(s.drift, 0.0);
}

TEST_F(BaselineEndToEndTest, FlagsInjectedCostRegression) {
  // The perturbation a bad hw/cost_params.hpp edit would cause: the RTK
  // path got 30% slower everywhere while Linux stayed put.
  auto fresh = results_;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].path == PathKind::kRtk)
      fresh[i].metrics.timed_seconds *= 1.3;
  }
  const auto v = verdict(fresh);
  EXPECT_FALSE(v.ok());
  ASSERT_EQ(v.series.size(), 1u);
  EXPECT_GT(v.series[0].drift, 0.05);
  const std::string json = v.json({});
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
}

}  // namespace
