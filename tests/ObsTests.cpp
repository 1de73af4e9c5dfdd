//===- tests/ObsTests.cpp - Observability layer -------------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The hamband::obs metrics layer: counter/gauge/histogram semantics,
// log2-quantile bounds, snapshot merging and JSON round trips, span
// recording, thread-safety of the hot paths, and the metrics the runtime
// itself reports -- a fault-free run shows zero backup-slot recoveries
// and zero canary retries, a crash-on-stage schedule shows at least one
// recovery, and the counters the oracles read are registered.
//===----------------------------------------------------------------------===//

#include "hamband/obs/Json.h"
#include "hamband/obs/Metrics.h"

#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

using namespace hamband;
using namespace hamband::obs;

namespace {

/// Feeds one value into a hand-built snapshot the way Histogram::record
/// does, so the value-type tests need no registry.
void recordInto(HistogramSnapshot &H, std::uint64_t V) {
  ++H.Buckets[histogramBucketOf(V)];
  ++H.Count;
  H.Sum += V;
  H.Max = std::max(H.Max, V);
}

} // namespace

//===----------------------------------------------------------------------===//
// Bucket mapping and quantile bounds (value types)
//===----------------------------------------------------------------------===//

TEST(ObsHistogram, BucketMappingCoversEdges) {
  EXPECT_EQ(histogramBucketOf(0), 0u);
  EXPECT_EQ(histogramBucketOf(1), 1u);
  EXPECT_EQ(histogramBucketOf(2), 2u);
  EXPECT_EQ(histogramBucketOf(3), 2u);
  EXPECT_EQ(histogramBucketOf(4), 3u);
  EXPECT_EQ(histogramBucketOf(~std::uint64_t{0}), NumHistogramBuckets - 1);
  EXPECT_EQ(histogramBucketUpper(0), 0u);
  EXPECT_EQ(histogramBucketUpper(1), 1u);
  EXPECT_EQ(histogramBucketUpper(2), 3u);
  EXPECT_EQ(histogramBucketUpper(NumHistogramBuckets - 1),
            ~std::uint64_t{0});
  // Every value lands in a bucket whose upper bound is >= the value and
  // < 2x the value (the log2 quantile error bound).
  for (std::uint64_t V : {1ull, 2ull, 3ull, 100ull, 1023ull, 1024ull,
                          999999ull}) {
    std::uint64_t Upper = histogramBucketUpper(histogramBucketOf(V));
    EXPECT_GE(Upper, V);
    EXPECT_LT(Upper, 2 * V);
  }
}

TEST(ObsHistogram, QuantileIsBoundedByBucketAndMax) {
  HistogramSnapshot H;
  EXPECT_EQ(H.quantile(0.5), 0u); // Empty.
  std::vector<std::uint64_t> Samples = {3, 7, 7, 12, 100, 100, 101,
                                        900, 4096, 70000};
  for (std::uint64_t V : Samples)
    recordInto(H, V);
  EXPECT_EQ(H.Count, Samples.size());
  EXPECT_EQ(H.Max, 70000u);
  // The estimate for quantile Q is >= the exact sample at that rank and
  // < 2x it (log2 buckets), clamped to the observed max.
  for (double Q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    std::size_t Rank = static_cast<std::size_t>(
        std::ceil(Q * static_cast<double>(Samples.size())));
    Rank = std::min(std::max<std::size_t>(Rank, 1), Samples.size());
    std::uint64_t Exact = Samples[Rank - 1];
    std::uint64_t Est = H.quantile(Q);
    EXPECT_GE(Est, Exact) << "Q=" << Q;
    EXPECT_LT(Est, 2 * Exact) << "Q=" << Q;
    EXPECT_LE(Est, H.Max);
  }
  EXPECT_EQ(H.quantile(1.0), 70000u); // Clamped to the exact max.
  EXPECT_DOUBLE_EQ(H.mean(), static_cast<double>(H.Sum) /
                                 static_cast<double>(H.Count));
}

TEST(ObsHistogram, MergeAddsBucketwise) {
  HistogramSnapshot A, B;
  recordInto(A, 5);
  recordInto(A, 1000);
  recordInto(B, 5);
  recordInto(B, 1u << 20);
  A.merge(B);
  EXPECT_EQ(A.Count, 4u);
  EXPECT_EQ(A.Sum, 5u + 1000u + 5u + (1u << 20));
  EXPECT_EQ(A.Max, 1u << 20);
  EXPECT_EQ(A.Buckets[histogramBucketOf(5)], 2u);
}

//===----------------------------------------------------------------------===//
// Snapshot merge and JSON round trip (value types)
//===----------------------------------------------------------------------===//

namespace {

StatsSnapshot sampleSnapshot() {
  StatsSnapshot S;
  S.Counters["ring.append"] = 12;
  S.Counters["huge"] = ~std::uint64_t{0}; // Exact uint64 round trip.
  S.Gauges["node.pending_free"] = -3;
  recordInto(S.Histograms["node.resp_ns"], 0);
  recordInto(S.Histograms["node.resp_ns"], 4096);
  recordInto(S.Histograms["node.resp_ns"], ~std::uint64_t{0});
  S.Spans.push_back({"mu.campaign_ns", 100, 350});
  return S;
}

} // namespace

TEST(ObsSnapshot, MergeAddsEveryKind) {
  StatsSnapshot A = sampleSnapshot();
  StatsSnapshot B;
  B.Counters["ring.append"] = 8;
  B.Counters["only.b"] = 1;
  B.Gauges["node.pending_free"] = 5;
  recordInto(B.Histograms["node.resp_ns"], 7);
  recordInto(B.Histograms["only.b_ns"], 9);
  B.Spans.push_back({"s2", 1, 2});
  A.merge(B);
  EXPECT_EQ(A.counter("ring.append"), 20u);
  EXPECT_EQ(A.counter("only.b"), 1u);
  EXPECT_EQ(A.counter("absent"), 0u);
  EXPECT_EQ(A.gauge("node.pending_free"), 2);
  EXPECT_EQ(A.histogram("node.resp_ns")->Count, 4u);
  ASSERT_NE(A.histogram("only.b_ns"), nullptr);
  EXPECT_EQ(A.Spans.size(), 2u);
}

TEST(ObsSnapshot, JsonRoundTripsExactly) {
  StatsSnapshot S = sampleSnapshot();
  std::string Text = S.toJson();
  StatsSnapshot Back;
  ASSERT_TRUE(StatsSnapshot::fromJson(Text, Back));
  EXPECT_EQ(Back, S);
  // And an empty snapshot round-trips too.
  StatsSnapshot Empty, EmptyBack;
  ASSERT_TRUE(StatsSnapshot::fromJson(Empty.toJson(), EmptyBack));
  EXPECT_EQ(EmptyBack, Empty);
  EXPECT_TRUE(EmptyBack.empty());
}

TEST(ObsSnapshot, FromJsonRejectsMalformedDocuments) {
  StatsSnapshot Out;
  EXPECT_FALSE(StatsSnapshot::fromJson("", Out));
  EXPECT_FALSE(StatsSnapshot::fromJson("not json", Out));
  EXPECT_FALSE(StatsSnapshot::fromJson("{}", Out));
  EXPECT_FALSE(
      StatsSnapshot::fromJson("{\"schema\":\"other-v1\"}", Out));
  EXPECT_FALSE(StatsSnapshot::fromJson(
      "{\"schema\":\"hamband-stats-v1\",\"counters\":[]}", Out));
  EXPECT_FALSE(StatsSnapshot::fromJson(
      "{\"schema\":\"hamband-stats-v1\",\"counters\":{\"x\":\"y\"}}",
      Out));
  std::string Valid = sampleSnapshot().toJson();
  EXPECT_FALSE(StatsSnapshot::fromJson(Valid + "trailing", Out));
}

TEST(ObsJson, ValueParserHandlesEscapesAndNumbers) {
  json::Value V;
  ASSERT_TRUE(json::parse(
      "{\"s\":\"a\\n\\\"b\\\"\",\"n\":-2.5,\"u\":18446744073709551615,"
      "\"t\":true,\"z\":null,\"a\":[1,2]}",
      V));
  EXPECT_EQ(V.find("s")->Str, "a\n\"b\"");
  EXPECT_DOUBLE_EQ(V.find("n")->asDouble(), -2.5);
  EXPECT_EQ(V.find("u")->asUInt(), ~std::uint64_t{0});
  EXPECT_TRUE(V.find("t")->B);
  EXPECT_TRUE(V.find("z")->isNull());
  EXPECT_EQ(V.find("a")->Arr.size(), 2u);
  // Writing and reparsing is stable.
  json::Value Again;
  ASSERT_TRUE(json::parse(V.write(), Again));
  EXPECT_EQ(Again.find("u")->asUInt(), ~std::uint64_t{0});
}

//===----------------------------------------------------------------------===//
// Live registry semantics
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, CounterGaugeHistogramSemantics) {
  Registry R;
  Counter &C = R.counter("c");
  EXPECT_EQ(&C, &R.counter("c")); // Stable identity per name.
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  Gauge &G = R.gauge("g");
  G.set(7);
  G.add(-10);
  EXPECT_EQ(G.value(), -3);
  Histogram &H = R.histogram("h");
  H.record(0);
  H.record(5);
  H.record(300);
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.sum(), 305u);
  EXPECT_EQ(H.max(), 300u);
  StatsSnapshot S = R.snapshot();
  EXPECT_EQ(S.counter("c"), 42u);
  EXPECT_EQ(S.gauge("g"), -3);
  EXPECT_EQ(S.histogram("h")->Count, 3u);
  R.reset();
  S = R.snapshot();
  EXPECT_EQ(S.counter("c"), 0u);
  EXPECT_EQ(S.histogram("h")->Count, 0u);
}

TEST(ObsRegistry, SpanFeedsHistogramAndLog) {
  Registry R;
  Span S(R, "mu.campaign_ns", 100);
  S.finish(350);
  S.finish(990); // Idempotent: ignored.
  Span Clamped(R, "mu.campaign_ns", 500);
  Clamped.finish(400); // End before begin clamps to zero length.
  StatsSnapshot Snap = R.snapshot();
  ASSERT_EQ(Snap.Spans.size(), 2u);
  EXPECT_EQ(Snap.Spans[0].EndNs - Snap.Spans[0].BeginNs, 250u);
  const HistogramSnapshot *H = Snap.histogram("mu.campaign_ns");
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Count, 2u);
  EXPECT_EQ(H->Sum, 250u);
}

TEST(ObsRegistry, SpanLogIsBounded) {
  Registry R;
  for (std::size_t I = 0; I < Registry::MaxSpans + 10; ++I)
    R.recordSpan("s", I, I + 1);
  StatsSnapshot S = R.snapshot();
  EXPECT_EQ(S.Spans.size(), Registry::MaxSpans);
  EXPECT_EQ(S.counter("obs.spans_dropped"), 10u);
  EXPECT_EQ(S.histogram("s")->Count, Registry::MaxSpans + 10);
}

TEST(ObsRegistry, ConcurrentMutationIsExact) {
  Registry R;
  Counter &C = R.counter("c");
  Gauge &G = R.gauge("g");
  Histogram &H = R.histogram("h");
  constexpr unsigned Threads = 4;
  constexpr unsigned PerThread = 20000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&, T]() {
      for (unsigned I = 0; I < PerThread; ++I) {
        C.add();
        G.add(1);
        H.record(T * PerThread + I);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
  EXPECT_EQ(G.value(), Threads * PerThread);
  EXPECT_EQ(H.count(), Threads * PerThread);
  EXPECT_EQ(H.max(), Threads * PerThread - 1);
  std::uint64_t BucketSum = 0;
  for (std::uint64_t B : H.snapshot().Buckets)
    BucketSum += B;
  EXPECT_EQ(BucketSum, Threads * PerThread);
}

//===----------------------------------------------------------------------===//
// Runtime-reported metrics (satellite: metrics-based assertions)
//===----------------------------------------------------------------------===//

namespace {

/// Runs a small counter workload on a 4-node cluster, optionally under a
/// fault schedule, and returns the merged stats snapshot.
StatsSnapshot runClusterWorkload(std::uint64_t Seed,
                                 const sim::FaultSpec *Spec,
                                 std::uint64_t *RecoveredAccessorSum) {
  const unsigned Nodes = 4;
  auto T = makeType("counter");
  sim::Simulator Sim;
  runtime::HambandCluster C(Sim, Nodes, *T);
  std::unique_ptr<sim::FaultInjector> FI;
  if (Spec) {
    FI = std::make_unique<sim::FaultInjector>(
        Sim, sim::FaultPlan::generate(Seed, *Spec, Nodes));
    C.attachFaultInjector(*FI);
    FI->arm();
  }
  C.start();

  sim::Rng WR(Seed ^ 0x77);
  MethodId Inc = T->coordination().updateMethods().front();
  for (unsigned I = 0; I < 24; ++I) {
    ProcessId P0 = static_cast<ProcessId>(WR.index(Nodes));
    ProcessId P = P0;
    for (unsigned K = 0; K < Nodes; ++K) {
      ProcessId Q = (P0 + K) % Nodes;
      if (C.isLive(Q) && !C.node(Q).isOutOfService()) {
        P = Q;
        break;
      }
    }
    C.submit(P, T->randomClientCall(Inc, P, 100 + I, WR), nullptr);
    Sim.run(Sim.now() + sim::micros(3));
  }
  if (Spec)
    Sim.run(std::max(Spec->Horizon, Spec->HealBy) + sim::millis(1));
  sim::SimTime Cap = Sim.now() + sim::millis(300);
  while (Sim.now() < Cap && !C.fullyReplicatedLive())
    Sim.run(Sim.now() + sim::micros(20));
  EXPECT_TRUE(C.fullyReplicatedLive());
  EXPECT_TRUE(C.convergedLive());

  if (RecoveredAccessorSum) {
    *RecoveredAccessorSum = 0;
    for (ProcessId P = 0; P < Nodes; ++P)
      *RecoveredAccessorSum += C.node(P).recoveredBroadcasts();
  }
  return C.statsSnapshot();
}

} // namespace

TEST(ObsRuntime, FaultFreeRunReportsNoRecoveriesOrCanaryRetries) {
  StatsSnapshot S = runClusterWorkload(7, nullptr, nullptr);
  // Without faults the backup-slot path and the canary retry path must
  // never fire.
  EXPECT_EQ(S.counter("bcast.recovered"), 0u);
  EXPECT_EQ(S.counter("ring.canary_retry"), 0u);
  EXPECT_EQ(S.counter("ring.full_stall"), 0u);
  // The run did move data through the instrumented paths.
  EXPECT_EQ(S.counter("node.calls.reducible"), 24u);
  EXPECT_GT(S.counter("bcast.stage"), 0u);
  EXPECT_GT(S.counter("rdma.write"), 0u);
  EXPECT_GT(S.counter("rdma.bytes_written"), 0u);
  ASSERT_NE(S.histogram("node.resp_ns"), nullptr);
  EXPECT_EQ(S.histogram("node.resp_ns")->Count, 24u);
}

TEST(ObsRuntime, CrashOnStageScheduleReportsBackupRecovery) {
  sim::FaultSpec Spec;
  Spec.CrashOnStageProb = 1.0; // First staged broadcast kills its source.
  std::uint64_t AccessorSum = 0;
  StatsSnapshot S = runClusterWorkload(14, &Spec, &AccessorSum);
  // The staged-but-unwritten message must be recovered from the crashed
  // source's backup slot. The per-node accessors read each node's
  // counter; the cluster snapshot must merge them without loss.
  EXPECT_GE(AccessorSum, 1u);
  EXPECT_GE(S.counter("bcast.recovered"), 1u);
  EXPECT_EQ(S.counter("bcast.recovered"), AccessorSum);
}

TEST(ObsRuntime, OracleCountersAreRegistered) {
  // StatsSnapshot::counter() reads an unknown name as 0, so an oracle
  // that asserts a counter stays 0 passes vacuously once the counter is
  // renamed. Pin the names the oracles read: the fuzz harness's and
  // ReconfigTests' reconfig.cross_epoch_apply (read per node), the
  // recovery tests' bcast.recovered, and fig_bigstate's
  // rdma.bytes_written (the transport's, read from the cluster snapshot).
  auto T = makeType("counter");
  sim::Simulator Sim;
  runtime::HambandConfig Cfg;
  Cfg.Reconfig.Enabled = true;
  runtime::HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();
  for (ProcessId P = 0; P < 3; ++P) {
    StatsSnapshot S = C.node(P).statsSnapshot();
    EXPECT_EQ(S.Counters.count("reconfig.cross_epoch_apply"), 1u)
        << "node " << P;
    EXPECT_EQ(S.Counters.count("bcast.recovered"), 1u) << "node " << P;
  }
  EXPECT_EQ(C.statsSnapshot().Counters.count("rdma.bytes_written"), 1u);
}
