//===- test_telemetry.cpp - Telemetry subsystem tests ------------------------===//
//
// Covers the telemetry stack bottom-up: the json::Writer every emitted
// JSON string is built on, the Histogram/MetricsRegistry/JsonMetricSink
// export path, the ActionProfiler's sampling and ranking, the
// EventTracer's Chrome trace-event output (matched B/E pairs, monotonic
// timestamps, ring-overflow behaviour), and the integration surface: for
// all three Facile simulators, statsJson() must stay valid JSON that
// retains every pre-v2 key, a registry walk must reproduce it exactly
// (the --metrics path), and a traced memoized run must emit a valid
// Chrome trace containing both slow-record and fast-replay spans.
//
//===----------------------------------------------------------------------===//

#include "src/sims/SimHarness.h"
#include "src/telemetry/Metrics.h"
#include "src/telemetry/Profiler.h"
#include "src/telemetry/Trace.h"
#include "src/workload/Workloads.h"
#include "tests/TestJson.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace facile;
using namespace facile::sims;
using namespace facile::telemetry;
using facile::testjson::hasKey;
using facile::testjson::spanNames;
using facile::testjson::validChromeTrace;
using facile::testjson::validJson;

namespace {

workload::WorkloadSpec testSpec(const char *Name = "compress") {
  workload::WorkloadSpec Spec = *workload::findSpec(Name);
  Spec.DataKWords = 2;
  return Spec;
}

//===----------------------------------------------------------------------===//
// json::Writer
//===----------------------------------------------------------------------===//

TEST(JsonWriter, ObjectsArraysAndCommas) {
  json::Writer W;
  W.beginObject()
      .field("a", uint64_t(1))
      .arrayField("b")
      .value(uint64_t(2))
      .value("x")
      .beginObject()
      .field("c", true)
      .endObject()
      .endArray()
      .field("d", int64_t(-5))
      .endObject();
  EXPECT_TRUE(W.balanced());
  EXPECT_EQ(W.str(), "{\"a\":1,\"b\":[2,\"x\",{\"c\":true}],\"d\":-5}");
  EXPECT_TRUE(validJson(W.str()));
}

TEST(JsonWriter, StringEscaping) {
  json::Writer W;
  W.beginObject().field("k", "a\"b\\c\nd\te\x01" "f").endObject();
  EXPECT_EQ(W.str(), "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f\"}");
  EXPECT_TRUE(validJson(W.str()));
}

TEST(JsonWriter, NumberFormatting) {
  json::Writer W;
  W.beginObject()
      .field("pct", 99.59444756)
      .field("zero", 0.0)
      .field("inf", 1.0 / 0.0) // non-finite clamps to 0: output stays parseable
      .field("neg", int64_t(-9223372036854775807ll))
      .field("big", uint64_t(18446744073709551615ull))
      .endObject();
  EXPECT_TRUE(validJson(W.str()));
  EXPECT_TRUE(hasKey(W.str(), "inf"));
  EXPECT_NE(W.str().find("\"inf\":0"), std::string::npos);
  EXPECT_NE(W.str().find("18446744073709551615"), std::string::npos);
}

TEST(JsonWriter, RawFieldSplicesVerbatim) {
  json::Writer Inner;
  Inner.beginObject().field("x", uint64_t(7)).endObject();
  json::Writer W;
  W.beginObject().rawField("stats", Inner.str()).field("y", false).endObject();
  EXPECT_EQ(W.str(), "{\"stats\":{\"x\":7},\"y\":false}");
  EXPECT_TRUE(validJson(W.str()));
}

TEST(JsonWriter, ClearAllowsReuse) {
  json::Writer W;
  W.beginObject().field("a", uint64_t(1)).endObject();
  W.clear();
  W.beginObject().field("b", uint64_t(2)).endObject();
  EXPECT_EQ(W.str(), "{\"b\":2}");
  EXPECT_TRUE(W.balanced());
}

//===----------------------------------------------------------------------===//
// Histogram + MetricsRegistry + JsonMetricSink
//===----------------------------------------------------------------------===//

TEST(Histogram, Log2Bucketing) {
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);
  EXPECT_EQ(Histogram::bucketLo(0), 0u);
  EXPECT_EQ(Histogram::bucketLo(1), 1u);
  EXPECT_EQ(Histogram::bucketLo(4), 8u);

  Histogram H;
  H.record(0);
  H.record(3);
  H.record(9);
  EXPECT_EQ(H.Count, 3u);
  EXPECT_EQ(H.Sum, 12u);
  EXPECT_EQ(H.Min, 0u);
  EXPECT_EQ(H.Max, 9u);
  EXPECT_DOUBLE_EQ(H.mean(), 4.0);
  EXPECT_EQ(H.Buckets[0], 1u);
  EXPECT_EQ(H.Buckets[2], 1u);
  EXPECT_EQ(H.Buckets[4], 1u);
}

TEST(MetricsRegistry, ExportOrderAndGrouping) {
  MetricsRegistry R;
  R.add("", [](MetricSink &S) { S.counter("top", 1); });
  R.add("grp", [](MetricSink &S) {
    S.counter("a", 2);
    S.flag("b", true);
    S.text("c", "id");
    S.gauge("d", 2.5);
  });
  JsonMetricSink Sink;
  R.exportTo(Sink);
  std::string Json = Sink.finish();
  EXPECT_EQ(Json,
            "{\"top\":1,\"grp\":{\"a\":2,\"b\":true,\"c\":\"id\",\"d\":2.5}}");
}

TEST(MetricsRegistry, HistogramRendering) {
  Histogram H;
  H.record(1);
  H.record(6);
  MetricsRegistry R;
  R.add("", [&](MetricSink &S) { S.histogram("h", H); });
  JsonMetricSink Sink;
  R.exportTo(Sink);
  std::string Json = Sink.finish();
  EXPECT_TRUE(validJson(Json)) << Json;
  for (const char *K : {"count", "sum", "min", "max", "mean", "buckets"})
    EXPECT_TRUE(hasKey(Json, K)) << K << " missing in " << Json;
  // Bucket keys are inclusive lower bounds: 1 → "1", 6 → bucket [4,8) → "4".
  EXPECT_TRUE(hasKey(Json, "1")) << Json;
  EXPECT_TRUE(hasKey(Json, "4")) << Json;
}

//===----------------------------------------------------------------------===//
// ActionProfiler
//===----------------------------------------------------------------------===//

TEST(ActionProfiler, TopRanksByInstrsThenBytesThenId) {
  ActionProfiler P(8);
  P.noteNode(3, 100, 4); // hottest by instrs
  P.noteNode(1, 50, 9);  // ties 2 on instrs, more bytes
  P.noteNode(2, 50, 1);
  P.noteNode(5, 50, 1); // ties 2 on everything: lower id first
  auto Top = P.top(10);
  ASSERT_EQ(Top.size(), 4u);
  EXPECT_EQ(Top[0].ActionId, 3u);
  EXPECT_EQ(Top[1].ActionId, 1u);
  EXPECT_EQ(Top[2].ActionId, 2u);
  EXPECT_EQ(Top[3].ActionId, 5u);
  EXPECT_EQ(Top[0].Instrs, 100u);
  EXPECT_EQ(Top[0].Bytes, 32u); // 4 words * 8
  EXPECT_EQ(P.top(2).size(), 2u);
  // Out-of-range ids are dropped, not UB.
  P.noteNode(999, 1, 1);
  EXPECT_EQ(P.top(10).size(), 4u);
}

TEST(ActionProfiler, SamplingPeriodAndDisable) {
  ActionProfiler P(4, 3);
  unsigned Armed = 0;
  for (int I = 0; I != 9; ++I)
    Armed += P.armStep();
  EXPECT_EQ(Armed, 3u); // every 3rd step
  P.setEnabled(false);
  for (int I = 0; I != 9; ++I)
    EXPECT_FALSE(P.armStep());
  P.setEnabled(true);

  P.noteStep(5, true);
  P.noteStep(2, false);
  EXPECT_EQ(P.sampledSteps(), 2u);
  EXPECT_EQ(P.sampledReplays(), 1u);
  EXPECT_EQ(P.stepNodes().Count, 2u);

  MetricsRegistry R;
  P.registerMetrics(R, "profile", 4);
  JsonMetricSink Sink;
  R.exportTo(Sink);
  std::string Json = Sink.finish();
  EXPECT_TRUE(validJson(Json)) << Json;
  for (const char *K : {"profile", "sample_period", "sampled_steps",
                        "sampled_replays", "step_nodes", "top_actions"})
    EXPECT_TRUE(hasKey(Json, K)) << K << " missing in " << Json;

  P.reset();
  EXPECT_EQ(P.sampledSteps(), 0u);
  EXPECT_TRUE(P.top(10).empty());
}

//===----------------------------------------------------------------------===//
// EventTracer
//===----------------------------------------------------------------------===//

TEST(EventTracer, SpansAndInstantsAreValidChromeTrace) {
  EventTracer T(64);
  T.span("engine", "slow-record", 0, 10, 3);
  T.instantAt("cache", "evict", 12, "bytes", 1024);
  T.span("engine", "fast-replay", 12, 30, 100);
  std::string Json = T.toJson();
  std::string Err;
  EXPECT_TRUE(validChromeTrace(Json, &Err)) << Err << "\n" << Json;
  auto Names = spanNames(Json);
  ASSERT_EQ(Names.size(), 2u);
  EXPECT_EQ(Names[0], "slow-record");
  EXPECT_EQ(Names[1], "fast-replay");
  EXPECT_TRUE(hasKey(Json, "displayTimeUnit"));
  EXPECT_TRUE(hasKey(Json, "droppedEvents"));
  EXPECT_TRUE(hasKey(Json, "steps")); // span arg survived
  EXPECT_TRUE(hasKey(Json, "bytes")); // instant arg survived
}

TEST(EventTracer, RingOverflowDropsOldestButStaysValid) {
  EventTracer T(16); // minimum capacity
  for (uint64_t I = 0; I != 40; ++I)
    T.span("engine", "fast-replay", I * 10, I * 10 + 5);
  EXPECT_EQ(T.size(), 16u);
  EXPECT_EQ(T.dropped(), 24u);
  std::string Err;
  EXPECT_TRUE(validChromeTrace(T.toJson(), &Err)) << Err;
  EXPECT_NE(T.toJson().find("\"droppedEvents\":24"), std::string::npos);
  T.clear();
  EXPECT_EQ(T.size(), 0u);
  EXPECT_TRUE(validChromeTrace(T.toJson(), &Err)) << Err;
}

TEST(EventTracer, DisabledHooksRecordNothing) {
  EventTracer T(64);
  T.setEnabled(false);
  T.span("engine", "slow-record", 0, 10);
  T.instant("cache", "evict");
  EXPECT_EQ(T.size(), 0u);
  T.setEnabled(true);
  T.span("engine", "slow-record", 20, 10); // end < start clamps to empty span
  EXPECT_EQ(T.size(), 1u);
  std::string Err;
  EXPECT_TRUE(validChromeTrace(T.toJson(), &Err)) << Err;
}

//===----------------------------------------------------------------------===//
// Integration: statsJson / --metrics / --trace for all three simulators
//===----------------------------------------------------------------------===//

/// Every key statsJson() emitted before schema_version 2 existed, minus
/// the three schema 3 removed with unguarded replay and LRU-half eviction
/// (guard.enabled, cache.evictions, cache.evicted_entries). The export
/// path must keep all of them.
const char *const PreV2Keys[] = {
    "steps",          "fast_steps",
    "misses",         "retired_total",
    "retired_fast",   "cycles",
    "placeholder_words", "fast_forwarded_pct",
    "fault",          "kind",
    "step",           "pc",
    "detail",         "guard",
    "faults",         "corrupt_dropped",
    "bypass",
    "active",         "activations",
    "bypassed_steps", "cache",
    "lookups",        "hits",
    "entries_created", "keys_interned",
    "clears",         "probe_total",
    "probe_max",      "entries",
    "keys",           "nodes",
    "bytes",          "key_pool_bytes",
    "peak_bytes",     "snapshot",
    "checkpoint_loaded", "cache_loaded",
    "cache_entries_loaded", "cache_nodes_loaded",
    "compat_mismatches", "corrupt_inputs",
    "cold_fallbacks", "bytes_read",
    "bytes_written",  "passes",
    "rounds",         "insts_before",
    "insts_after",    "blocks_before",
    "blocks_after",   "folded",
    "branches_folded", "copies_propagated",
    "dead_removed",   "jumps_threaded",
    "blocks_merged",  "blocks_removed",
};

TEST(TelemetryIntegration, StatsJsonRetainsPreV2KeysForAllSimulators) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    SCOPED_TRACE(int(Kind));
    FacileSim Sim(Kind, Image);
    Sim.run(60'000);
    std::string Json = Sim.statsJson();
    ASSERT_TRUE(validJson(Json)) << Json;
    EXPECT_TRUE(hasKey(Json, "schema_version"));
    for (const char *K : PreV2Keys)
      EXPECT_TRUE(hasKey(Json, K)) << K << " missing in " << Json;
    for (const char *K : {"evictions", "evicted_entries"})
      EXPECT_FALSE(hasKey(Json, K)) << K << " retired in schema 3";
  }
}

TEST(TelemetryIntegration, MetricsExportMatchesStatsJson) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    SCOPED_TRACE(int(Kind));
    FacileSim Sim(Kind, Image);
    Sim.run(60'000);
    // The --metrics file is exactly this walk; statsJson is its thin shim.
    MetricsRegistry R;
    Sim.registerMetrics(R);
    JsonMetricSink Sink;
    R.exportTo(Sink);
    EXPECT_EQ(Sink.finish(), Sim.statsJson());
  }
}

TEST(TelemetryIntegration, TracedRunEmitsRecordAndReplaySpans) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  for (SimKind Kind :
       {SimKind::Functional, SimKind::InOrder, SimKind::OutOfOrder}) {
    SCOPED_TRACE(int(Kind));
    FacileSim Sim(Kind, Image);
    EventTracer Tracer(1u << 12);
    Sim.setTracer(&Tracer);
    Sim.run(60'000);
    Sim.sim().flushTraceSpan();
    std::string Json = Tracer.toJson();
    std::string Err;
    ASSERT_TRUE(validChromeTrace(Json, &Err)) << Err;
    auto Names = spanNames(Json);
    bool SawRecord = false, SawReplay = false;
    for (const std::string &N : Names) {
      SawRecord |= N == "slow-record";
      SawReplay |= N == "fast-replay";
    }
    EXPECT_TRUE(SawRecord) << Json;
    EXPECT_TRUE(SawReplay) << Json;
    // statsJson grows a "telemetry" block while a tracer is attached.
    EXPECT_TRUE(hasKey(Sim.statsJson(), "telemetry"));
    EXPECT_TRUE(hasKey(Sim.statsJson(), "trace_events"));
  }
}

TEST(TelemetryIntegration, ProfiledRunAttributesReplayWork) {
  isa::TargetImage Image = workload::generate(testSpec(), 2);
  FacileSim Sim(SimKind::OutOfOrder, Image);
  ActionProfiler Prof(Sim.sim().actionCount());
  Sim.setProfiler(&Prof);
  Sim.run(60'000);
  EXPECT_GT(Prof.sampledSteps(), 0u);
  EXPECT_GT(Prof.sampledReplays(), 0u);
  auto Top = Prof.top(4);
  ASSERT_FALSE(Top.empty());
  EXPECT_GT(Top[0].Instrs, 0u);
  std::string Json = Sim.statsJson();
  ASSERT_TRUE(validJson(Json)) << Json;
  EXPECT_TRUE(hasKey(Json, "profile"));
  EXPECT_TRUE(hasKey(Json, "top_actions"));

  // Sampled replay totals can't exceed what the run actually replayed.
  EXPECT_LE(Prof.sampledReplays(), Sim.sim().stats().FastSteps);
}

} // namespace
