// Merging worker caches: the coverage manifest must name every point's
// cache entry, and kop_merge must union the caches of a distributed
// sweep (each worker's directory is a "shard" below) -- tolerating
// empty and overlapping shards, refusing corrupt, foreign and divergent
// entries, and naming every manifest entry no shard produced.  The
// figure-level round trip (two --coord workers, merge, byte-identical
// replay) lives in coord_test.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/figures.hpp"
#include "harness/jobs/cache.hpp"
#include "harness/jobs/merge.hpp"
#include "harness/jobs/runner.hpp"

namespace {

namespace fs = std::filesystem;
using kop::core::PathKind;
namespace jobs = kop::harness::jobs;

std::vector<jobs::PointSpec> reduced_points() {
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(3);
  auto points = kop::harness::enumerate_nas_normalized(
      "phi", {PathKind::kRtk}, {1, 4}, suite);
  kop::epcc::EpccConfig cfg;
  cfg.outer_reps = 2;
  cfg.inner_iters = 4;
  cfg.sched_iters_per_thread = 16;
  cfg.tasks_per_thread = 4;
  cfg.tree_depth = 4;
  const auto epcc = kop::harness::enumerate_epcc_figure(
      "8xeon", 8, {PathKind::kLinuxOmp, PathKind::kRtk, PathKind::kPik}, cfg);
  points.insert(points.end(), epcc.begin(), epcc.end());
  return points;
}

TEST(ShardList, ManifestNamesEveryPointAndEntry) {
  const auto points = reduced_points();
  const std::string text = jobs::manifest_text(points);

  EXPECT_NE(text.find("# kop-shard-list v1"), std::string::npos);
  EXPECT_NE(text.find("points=" + std::to_string(points.size())),
            std::string::npos);
  EXPECT_NE(
      text.find("fingerprint=" +
                jobs::hex16(jobs::cost_model_fingerprint())),
      std::string::npos);
  for (const auto& p : points) {
    EXPECT_NE(text.find("point=" + jobs::hex16(p.content_hash())),
              std::string::npos)
        << p.label();
    EXPECT_NE(text.find("entry=kop-" + jobs::hex16(jobs::ResultCache::key(p)) +
                        ".json"),
              std::string::npos)
        << p.label();
  }
}

class ShardWorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest -j runs each case as its own process; a fixed directory
    // name would collide across concurrently-running cases.
    root_ = fs::temp_directory_path() /
            ("kop_merge_workflow_" + std::to_string(getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string dir(const std::string& name) {
    const fs::path p = root_ / name;
    return p.string();
  }

  fs::path root_;
};

TEST_F(ShardWorkflowTest, MergeToleratesEmptyAndZeroPointShards) {
  // More shards than points: some workers legitimately get nothing to
  // do.  Their (empty) cache directories must merge cleanly and the
  // manifest must still come out covered.
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(1);
  const auto points = kop::harness::enumerate_nas_normalized(
      "phi", {PathKind::kRtk}, {1, 4}, suite);
  const int kShards = 5;
  ASSERT_LT(points.size(), static_cast<std::size_t>(kShards));

  jobs::MergeOptions mopts;
  mopts.dest = dir("merged");
  int zero_point_shards = 0;
  for (int k = 0; k < kShards; ++k) {
    std::vector<jobs::PointSpec> mine;
    for (auto i = static_cast<std::size_t>(k); i < points.size(); i += kShards)
      mine.push_back(points[i]);
    if (mine.empty()) ++zero_point_shards;

    jobs::JobOptions jopts;
    jopts.cache_dir = dir("shard" + std::to_string(k));
    jobs::JobRunner runner(jopts);
    jobs::require_ok(mine, runner.run(mine));
    // Even a worker with nothing claimed leaves a directory behind.
    ASSERT_TRUE(fs::is_directory(jopts.cache_dir));
    mopts.sources.push_back(jopts.cache_dir);
  }
  ASSERT_GT(zero_point_shards, 0) << "partition left no shard empty";

  const std::string manifest_path = dir("manifest.txt");
  std::ofstream(manifest_path) << jobs::manifest_text(points);
  mopts.expect_path = manifest_path;
  const auto report = jobs::merge_caches(mopts);
  EXPECT_TRUE(report.ok()) << report.text();
  EXPECT_EQ(report.merged, points.size());
  EXPECT_EQ(report.expected, points.size());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_EQ(report.scanned, points.size());

  // A *nonexistent* source is a setup error, not an empty shard.
  jobs::MergeOptions bad = mopts;
  bad.sources.push_back(dir("never-created"));
  EXPECT_THROW(jobs::merge_caches(bad), std::runtime_error);
}

TEST_F(ShardWorkflowTest, MergeFailsLoudlyWhenManifestEntriesAreMissing) {
  // One shard never ran: the merge must name the uncovered entries and
  // refuse to call itself OK, rather than hand back a partial sweep.
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(1);
  const auto points = kop::harness::enumerate_nas_normalized(
      "phi", {PathKind::kRtk}, {1, 4}, suite);
  ASSERT_GE(points.size(), 2u);
  const std::vector<jobs::PointSpec> partial(points.begin(),
                                             points.end() - 1);
  jobs::JobOptions jopts;
  jopts.cache_dir = dir("partial");
  jobs::JobRunner runner(jopts);
  jobs::require_ok(partial, runner.run(partial));

  const std::string manifest_path = dir("manifest.txt");
  std::ofstream(manifest_path) << jobs::manifest_text(points);
  jobs::MergeOptions mopts;
  mopts.dest = dir("merged");
  mopts.sources = {dir("partial")};
  mopts.expect_path = manifest_path;
  const auto report = jobs::merge_caches(mopts);
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing.front(),
            "kop-" + jobs::hex16(jobs::ResultCache::key(points.back())) +
                ".json");
  EXPECT_NE(report.text().find("missing"), std::string::npos);
}

TEST_F(ShardWorkflowTest, IdenticalDuplicatesAcrossShardsAreSkipped) {
  // Overlapping shard runs (same point simulated by two workers) are
  // fine exactly when the bytes agree -- determinism guarantees they
  // do, and the merge records the overlap instead of failing.
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(1);
  const auto points = kop::harness::enumerate_nas_normalized(
      "phi", {PathKind::kRtk}, {1}, suite);
  jobs::JobOptions jopts;
  jopts.cache_dir = dir("a");
  jobs::JobRunner runner(jopts);
  jobs::require_ok(points, runner.run(points));
  fs::create_directories(dir("b"));
  for (const auto& e : fs::directory_iterator(dir("a")))
    fs::copy_file(e.path(), fs::path(dir("b")) / e.path().filename());

  jobs::MergeOptions mopts;
  mopts.dest = dir("merged");
  mopts.sources = {dir("a"), dir("b")};
  const auto report = jobs::merge_caches(mopts);
  EXPECT_TRUE(report.ok()) << report.text();
  EXPECT_EQ(report.merged, points.size());
  EXPECT_EQ(report.identical_duplicates, points.size());
}

TEST_F(ShardWorkflowTest, MergeRejectsCorruptAndForeignEntries) {
  // One good shard...
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(1);
  const auto points = kop::harness::enumerate_nas_normalized(
      "phi", {PathKind::kRtk}, {1}, suite);
  jobs::JobOptions jopts;
  jopts.cache_dir = dir("good");
  jobs::JobRunner runner(jopts);
  jobs::require_ok(points, runner.run(points));

  // ...and one shard of junk: a file that is not JSON, and a real entry
  // renamed to a name its identity does not hash to.
  fs::create_directories(dir("bad"));
  std::ofstream(dir("bad") + "/kop-0123456789abcdef.json") << "not json";
  std::string first_entry;
  for (const auto& e : fs::directory_iterator(dir("good"))) {
    first_entry = e.path().string();
    break;
  }
  ASSERT_FALSE(first_entry.empty());
  fs::copy_file(first_entry, dir("bad") + "/kop-00000000deadbeef.json");

  jobs::MergeOptions mopts;
  mopts.dest = dir("merged");
  mopts.sources = {dir("good"), dir("bad")};
  const auto report = jobs::merge_caches(mopts);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.rejected.size(), 2u) << report.text();
  EXPECT_EQ(report.merged, points.size());
}

TEST_F(ShardWorkflowTest, MergeDetectsDivergentDuplicates) {
  auto suite = kop::harness::scale_suite(kop::nas::paper_suite(), 0.25, 2);
  suite.resize(1);
  const auto points = kop::harness::enumerate_nas_normalized(
      "phi", {PathKind::kRtk}, {1}, suite);
  jobs::JobOptions jopts;
  jopts.cache_dir = dir("a");
  jobs::JobRunner runner(jopts);
  jobs::require_ok(points, runner.run(points));

  // Same entries in a second source, one of them with flipped bytes --
  // two simulations of "the same" point that disagreed.
  fs::create_directories(dir("b"));
  bool tampered = false;
  for (const auto& e : fs::directory_iterator(dir("a"))) {
    const auto destp = fs::path(dir("b")) / e.path().filename();
    fs::copy_file(e.path(), destp);
    if (!tampered) {
      std::ifstream in(destp);
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      in.close();
      const auto pos = text.find("\"timed_seconds\":");
      ASSERT_NE(pos, std::string::npos);
      text.insert(pos + 16, "9");
      std::ofstream(destp, std::ios::trunc) << text;
      tampered = true;
    }
  }
  ASSERT_TRUE(tampered);

  jobs::MergeOptions mopts;
  mopts.dest = dir("merged");
  mopts.sources = {dir("a"), dir("b")};
  const auto report = jobs::merge_caches(mopts);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.divergent.size(), 1u) << report.text();
  EXPECT_EQ(report.identical_duplicates, points.size() - 1);
}

// kop_merge --digest: the determinism check CI runs between a
// multi-worker coordinated sweep and a single-worker reference run.
TEST_F(ShardWorkflowTest, CacheDigestTracksContentNotLayout) {
  fs::create_directories(dir("d1"));
  fs::create_directories(dir("d2"));
  const std::string name = "kop-0123456789abcdef.json";
  const std::string other = "kop-fedcba9876543210.json";
  std::ofstream(dir("d1") + "/" + name) << "{\"v\":1}";
  std::ofstream(dir("d2") + "/" + name) << "{\"v\":1}";
  // Same entries in different directories digest identically.
  EXPECT_EQ(jobs::cache_digest(dir("d1")), jobs::cache_digest(dir("d2")));
  // Non-entry files are invisible to the digest...
  std::ofstream(dir("d2") + "/notes.txt") << "scratch";
  EXPECT_EQ(jobs::cache_digest(dir("d1")), jobs::cache_digest(dir("d2")));
  // ...but a differing entry set or differing bytes is a different sweep.
  std::ofstream(dir("d2") + "/" + other) << "{\"v\":2}";
  EXPECT_NE(jobs::cache_digest(dir("d1")), jobs::cache_digest(dir("d2")));
}

}  // namespace
