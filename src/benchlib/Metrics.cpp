//===- benchlib/Metrics.cpp - Experiment metrics ------------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Metrics.h"

#include <algorithm>

using namespace hamband::benchlib;

void Stat::add(double X) {
  if (N == 0 || X < Min)
    Min = X;
  if (X > Max)
    Max = X;
  Sum += X;
  ++N;
}

RunResult hamband::benchlib::averageRuns(const std::vector<RunResult> &Runs) {
  RunResult Avg;
  if (Runs.empty())
    return Avg;
  Avg.Completed = true;
  for (const RunResult &R : Runs) {
    Avg.ThroughputOpsPerUs += R.ThroughputOpsPerUs;
    Avg.MeanResponseUs += R.MeanResponseUs;
    Avg.MeanUpdateResponseUs += R.MeanUpdateResponseUs;
    Avg.MeanQueryResponseUs += R.MeanQueryResponseUs;
    Avg.P50ResponseUs += R.P50ResponseUs;
    Avg.P99ResponseUs += R.P99ResponseUs;
    Avg.MaxResponseUs = std::max(Avg.MaxResponseUs, R.MaxResponseUs);
    Avg.CompletedOps += R.CompletedOps;
    Avg.RejectedOps += R.RejectedOps;
    Avg.DurationUs += R.DurationUs;
    Avg.DrainUs += R.DrainUs;
    Avg.MeanBacklogCalls += R.MeanBacklogCalls;
    Avg.MaxBacklogCalls = std::max(Avg.MaxBacklogCalls, R.MaxBacklogCalls);
    Avg.Completed = Avg.Completed && R.Completed;
    Avg.SteadyThroughputOpsPerUs += R.SteadyThroughputOpsPerUs;
    Avg.DuringThroughputOpsPerUs += R.DuringThroughputOpsPerUs;
    Avg.AfterThroughputOpsPerUs += R.AfterThroughputOpsPerUs;
    Avg.TransitionUs += R.TransitionUs;
    // Installed only when EVERY repetition installed (mirrors Completed).
    Avg.ReconfigInstalled = (&R == &Runs.front() || Avg.ReconfigInstalled) &&
                            R.ReconfigInstalled;
    Avg.WrongEpochRetries += R.WrongEpochRetries;
    // Per-method results are reported as a mean of per-run means.
    for (const auto &[Name, S] : R.PerMethod)
      if (S.count())
        Avg.PerMethod[Name].add(S.mean());
    Avg.ClusterStats.merge(R.ClusterStats);
  }
  double K = static_cast<double>(Runs.size());
  Avg.ThroughputOpsPerUs /= K;
  Avg.MeanResponseUs /= K;
  Avg.MeanUpdateResponseUs /= K;
  Avg.MeanQueryResponseUs /= K;
  Avg.P50ResponseUs /= K;
  Avg.P99ResponseUs /= K;
  Avg.DurationUs /= K;
  Avg.DrainUs /= K;
  Avg.MeanBacklogCalls /= K;
  Avg.SteadyThroughputOpsPerUs /= K;
  Avg.DuringThroughputOpsPerUs /= K;
  Avg.AfterThroughputOpsPerUs /= K;
  Avg.TransitionUs /= K;
  Avg.CompletedOps /= Runs.size();
  Avg.RejectedOps /= Runs.size();
  return Avg;
}
