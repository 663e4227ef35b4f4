// Golden tests for osal::Tracer's Chrome trace-event export: the field
// order (name, ph, pid, tid, ts, dur) is a stable contract -- trace
// viewers and the docs' jq recipes depend on it -- the document must be
// valid JSON, and per-tid timestamps must be monotonic when the trace
// comes from a real run (virtual time never goes backwards on a CPU).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hw/topology.hpp"
#include "linuxmodel/linux_os.hpp"
#include "osal/tracer.hpp"
#include "sim/engine.hpp"
#include "telemetry/json.hpp"

namespace {

using kop::osal::Tracer;
using kop::telemetry::JsonValue;
using kop::telemetry::parse_json;

TEST(Tracer, GoldenExportIsByteStable) {
  Tracer tr;
  tr.enable();
  tr.record("worker-0", 0, 1000, 500);
  tr.record("worker-1", 1, 2500, 1500);

  // The golden string: field order name/ph/pid/tid/ts/dur, timestamps
  // in microseconds.  Any change here is a consumer-visible format
  // break and must bump consumers too.
  EXPECT_EQ(tr.to_chrome_json(),
            "{\"traceEvents\":["
            "{\"name\":\"worker-0\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
            "\"ts\":1,\"dur\":0.5},"
            "{\"name\":\"worker-1\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
            "\"ts\":2.5,\"dur\":1.5}"
            "],\"displayTimeUnit\":\"ms\"}");
}

TEST(Tracer, ExportIsValidJsonWithStableFieldOrder) {
  Tracer tr;
  tr.enable();
  tr.record("a", 0, 0, 10);
  tr.record("b", 2, 1000, 2000);

  const JsonValue root = parse_json(tr.to_chrome_json());
  ASSERT_TRUE(root.is_object());
  ASSERT_EQ(root.object.size(), 2u);
  EXPECT_EQ(root.object[0].first, "traceEvents");
  EXPECT_EQ(root.object[1].first, "displayTimeUnit");
  EXPECT_EQ(root.object[1].second.string, "ms");

  const JsonValue& events = root.object[0].second;
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.array.size(), 2u);
  const char* expect_keys[] = {"name", "ph", "pid", "tid", "ts", "dur"};
  for (const JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    ASSERT_EQ(e.object.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i)
      EXPECT_EQ(e.object[i].first, expect_keys[i]);
    EXPECT_EQ(e.find("ph")->string, "X");
    EXPECT_EQ(e.find("pid")->number, 1.0);
  }
}

TEST(Tracer, EscapesQuotesAndBackslashes) {
  Tracer tr;
  tr.enable();
  tr.record("odd \"name\" with \\ inside", 0, 0, 1);
  const JsonValue root = parse_json(tr.to_chrome_json());
  const JsonValue& ev = root.find("traceEvents")->array.at(0);
  EXPECT_EQ(ev.find("name")->string, "odd \"name\" with \\ inside");
}

TEST(Tracer, RealRunHasMonotonicTimestamps) {
  kop::sim::Engine engine(7);
  kop::linuxmodel::LinuxOs os(engine, kop::hw::machine_by_name("phi"));
  os.tracer().enable();

  for (int t = 0; t < 4; ++t) {
    os.spawn_thread("worker-" + std::to_string(t), [&os]() {
      for (int i = 0; i < 8; ++i) {
        kop::hw::WorkBlock block;
        block.cpu_ns = 5000;
        os.compute(block, /*data_zone=*/-1);
        os.yield();
      }
    }, t % 2);  // two threads per CPU: contended slices
  }
  engine.run();

  const std::string json = os.tracer().to_chrome_json();
  const JsonValue root = parse_json(json);
  const JsonValue& events = *root.find("traceEvents");
  ASSERT_GE(events.array.size(), 8u);

  // Two invariants a real run guarantees.  (Per-tid slices are NOT
  // disjoint: a slice's ts is taken before the thread occupies the
  // CPU, so it includes queueing delay and may overlap the slice that
  // ran while it waited.)
  //
  // 1. Events append in completion order: end times (ts + dur, the
  //    moment record() ran) never decrease across the document.
  // 2. A thread runs one compute at a time: per-name slices are
  //    sequential and non-overlapping.
  double last_doc_end = 0.0;
  std::map<std::string, double> last_end;  // name -> end of prev slice
  for (const JsonValue& e : events.array) {
    const std::string& name = e.find("name")->string;
    const double ts = e.find("ts")->number;
    const double dur = e.find("dur")->number;
    ASSERT_GE(dur, 0.0);
    const double end = ts + dur;
    EXPECT_GE(end, last_doc_end);
    last_doc_end = end;
    auto it = last_end.find(name);
    if (it != last_end.end()) {
      EXPECT_GE(ts, it->second) << "thread " << name;
    }
    last_end[name] = end;
  }
}

}  // namespace
