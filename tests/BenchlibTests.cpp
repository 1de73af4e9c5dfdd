//===- tests/BenchlibTests.cpp - Benchmark harness tests ----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Runner.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/types/Counter.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::benchlib;
using namespace hamband::types;

TEST(Stat, TracksMeanMinMax) {
  Stat S;
  EXPECT_EQ(S.count(), 0u);
  S.add(2.0);
  S.add(4.0);
  S.add(6.0);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
}

TEST(AverageRuns, AveragesScalars) {
  RunResult A, B;
  A.ThroughputOpsPerUs = 2.0;
  B.ThroughputOpsPerUs = 4.0;
  A.MeanResponseUs = 1.0;
  B.MeanResponseUs = 3.0;
  A.DrainUs = 10.0;
  B.DrainUs = 30.0;
  A.Completed = B.Completed = true;
  RunResult Avg = averageRuns({A, B});
  EXPECT_DOUBLE_EQ(Avg.ThroughputOpsPerUs, 3.0);
  EXPECT_DOUBLE_EQ(Avg.MeanResponseUs, 2.0);
  EXPECT_DOUBLE_EQ(Avg.DrainUs, 20.0);
  EXPECT_TRUE(Avg.Completed);
}

TEST(CallGenerator, DeterministicFromSeed) {
  Counter T;
  WorkloadSpec W;
  W.Seed = 5;
  CallGenerator A(T, W, 0), B(T, W, 0);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(A.next(0, I + 1), B.next(0, I + 1));
}

TEST(CallGenerator, RespectsUpdateRatio) {
  Counter T;
  WorkloadSpec W;
  W.UpdateRatio = 0.25;
  CallGenerator G(T, W, 1);
  int Updates = 0;
  const int N = 4000;
  for (int I = 0; I < N; ++I) {
    G.next(0, I + 1);
    Updates += G.lastWasUpdate();
  }
  EXPECT_NEAR(static_cast<double>(Updates) / N, 0.25, 0.03);
}

TEST(CallGenerator, MethodRestrictionsHonoured) {
  auto T = makeType("bank-account");
  WorkloadSpec W;
  W.UpdateRatio = 1.0;
  W.UpdateMethods = {0}; // Deposit only.
  CallGenerator G(*T, W, 0);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(G.next(0, I + 1).Method, 0);
}

namespace {

RunnerOptions quickOpts(RuntimeKind K) {
  RunnerOptions O;
  O.Kind = K;
  O.NumNodes = 3;
  O.Repetitions = 1;
  O.SafetyCap = sim::millis(5000);
  return O;
}

WorkloadSpec quickWorkload() {
  WorkloadSpec W;
  W.NumOps = 600;
  W.UpdateRatio = 0.3;
  W.PipelineDepth = 4;
  return W;
}

} // namespace

TEST(Runner, HambandCompletesCounterWorkload) {
  Counter T;
  RunResult R = runOnce(T, quickWorkload(), quickOpts(RuntimeKind::Hamband),
                        1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 600u);
  EXPECT_GT(R.ThroughputOpsPerUs, 0.0);
  EXPECT_GT(R.MeanResponseUs, 0.0);
}

TEST(Runner, RunEndsAtTheEventThatCompletesIt) {
  // A dozen calls replicate well inside one 20-us backlog sample period;
  // the run's length is not rounded up to it.
  Counter T;
  WorkloadSpec W = quickWorkload();
  W.NumOps = 12;
  RunResult R = runOnce(T, W, quickOpts(RuntimeKind::Hamband), 1);
  ASSERT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 12u);
  EXPECT_GT(R.DurationUs, 0.0);
  EXPECT_LT(R.DurationUs, 20.0);
}

TEST(Runner, DrainReportedSeparately) {
  // Throughput covers the run up to its last issue; the drain after it
  // is part of DurationUs and reported on its own.
  Counter T;
  RunResult R = runOnce(T, quickWorkload(), quickOpts(RuntimeKind::Hamband),
                        1);
  ASSERT_TRUE(R.Completed);
  EXPECT_GT(R.DrainUs, 0.0);
  EXPECT_LT(R.DrainUs, R.DurationUs);
  EXPECT_GT(R.ThroughputOpsPerUs, 0.0);
  EXPECT_LE(R.ThroughputOpsPerUs * (R.DurationUs - R.DrainUs),
            static_cast<double>(R.CompletedOps));
}

TEST(Runner, MsgCompletesCounterWorkload) {
  Counter T;
  RunResult R =
      runOnce(T, quickWorkload(), quickOpts(RuntimeKind::Msg), 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 600u);
}

TEST(Runner, MuCompletesCounterWorkload) {
  Counter T;
  RunResult R =
      runOnce(T, quickWorkload(), quickOpts(RuntimeKind::MuSmr), 1);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 600u);
}

TEST(Runner, HambandBeatsMsgOnThroughput) {
  // The headline claim at miniature scale: Hamband > MSG throughput and
  // far lower update response time.
  Counter T;
  WorkloadSpec W = quickWorkload();
  RunResult H = runOnce(T, W, quickOpts(RuntimeKind::Hamband), 2);
  RunResult M = runOnce(T, W, quickOpts(RuntimeKind::Msg), 2);
  ASSERT_TRUE(H.Completed);
  ASSERT_TRUE(M.Completed);
  EXPECT_GT(H.ThroughputOpsPerUs, 2.0 * M.ThroughputOpsPerUs);
  EXPECT_LT(H.MeanUpdateResponseUs, M.MeanUpdateResponseUs / 3.0);
}

TEST(Runner, PerMethodStatsPopulated) {
  Counter T;
  RunResult R = runOnce(T, quickWorkload(), quickOpts(RuntimeKind::Hamband),
                        3);
  ASSERT_TRUE(R.PerMethod.count("add"));
  ASSERT_TRUE(R.PerMethod.count("read"));
  EXPECT_GT(R.PerMethod.at("add").count(), 0u);
}

TEST(Runner, RunWorkloadAveragesRepetitions) {
  Counter T;
  RunnerOptions O = quickOpts(RuntimeKind::Hamband);
  O.Repetitions = 2;
  WorkloadSpec W = quickWorkload();
  W.NumOps = 300;
  RunResult R = runWorkload(T, W, O);
  EXPECT_TRUE(R.Completed);
  EXPECT_GT(R.ThroughputOpsPerUs, 0.0);
}

TEST(Runner, ReportsReplicationBacklog) {
  Counter T;
  WorkloadSpec W = quickWorkload();
  W.NumOps = 1200;
  W.UpdateRatio = 0.5;
  RunResult R = runOnce(T, W, quickOpts(RuntimeKind::Hamband), 4);
  ASSERT_TRUE(R.Completed);
  // Under load some replica is always momentarily ahead...
  EXPECT_GT(R.MaxBacklogCalls, 0.0);
  EXPECT_GE(R.MaxBacklogCalls, R.MeanBacklogCalls);
}

TEST(Runner, BacklogGrowsWithPollInterval) {
  auto T = makeType("orset");
  WorkloadSpec W = quickWorkload();
  W.NumOps = 1500;
  W.UpdateRatio = 0.5;
  RunnerOptions Fast = quickOpts(RuntimeKind::Hamband);
  Fast.Cfg.PollInterval = sim::micros(0.25);
  RunnerOptions Slow = quickOpts(RuntimeKind::Hamband);
  Slow.Cfg.PollInterval = sim::micros(4.0);
  RunResult RFast = runOnce(*T, W, Fast, 7);
  RunResult RSlow = runOnce(*T, W, Slow, 7);
  ASSERT_TRUE(RFast.Completed);
  ASSERT_TRUE(RSlow.Completed);
  EXPECT_GT(RSlow.MeanBacklogCalls, RFast.MeanBacklogCalls);
}

TEST(AverageRuns, BacklogAveragedAndMaxed) {
  RunResult A, B;
  A.Completed = B.Completed = true;
  A.MeanBacklogCalls = 2.0;
  B.MeanBacklogCalls = 4.0;
  A.MaxBacklogCalls = 10.0;
  B.MaxBacklogCalls = 6.0;
  RunResult Avg = averageRuns({A, B});
  EXPECT_DOUBLE_EQ(Avg.MeanBacklogCalls, 3.0);
  EXPECT_DOUBLE_EQ(Avg.MaxBacklogCalls, 10.0);
}

TEST(RuntimeKindNames, AreStable) {
  EXPECT_STREQ(runtimeKindName(RuntimeKind::Hamband), "hamband");
  EXPECT_STREQ(runtimeKindName(RuntimeKind::Msg), "msg");
  EXPECT_STREQ(runtimeKindName(RuntimeKind::MuSmr), "mu");
}

TEST(Runner, QueriesOnlyWorkloadCompletes) {
  Counter T;
  WorkloadSpec W = quickWorkload();
  W.UpdateRatio = 0.0;
  W.NumOps = 400;
  RunResult R = runOnce(T, W, quickOpts(RuntimeKind::Hamband), 2);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.MeanUpdateResponseUs, 0.0); // No updates issued.
  EXPECT_GT(R.MeanQueryResponseUs, 0.0);
}

TEST(Runner, PureUpdateWorkloadCompletes) {
  Counter T;
  WorkloadSpec W = quickWorkload();
  W.UpdateRatio = 1.0;
  W.NumOps = 400;
  RunResult R = runOnce(T, W, quickOpts(RuntimeKind::Hamband), 2);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.MeanQueryResponseUs, 0.0);
  EXPECT_GT(R.MeanUpdateResponseUs, 0.0);
}

TEST(Runner, ConflictingWorkloadRunsOnAuction) {
  auto T = makeType("auction");
  WorkloadSpec W = quickWorkload();
  W.NumOps = 500;
  W.UpdateRatio = 0.4;
  RunResult R = runOnce(*T, W, quickOpts(RuntimeKind::Hamband), 6);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 500u);
}
