//===- hamband/benchlib/Metrics.h - Experiment metrics ----------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small statistics helpers for the benchmark harness: running mean /
/// max / percentile-ish summaries of per-call response times, and the
/// run-level result record every figure bench prints.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BENCHLIB_METRICS_H
#define HAMBAND_BENCHLIB_METRICS_H

#include "hamband/obs/Metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hamband {
namespace benchlib {

/// Streaming summary of a series of samples (response times in us).
class Stat {
public:
  void add(double X);

  std::uint64_t count() const { return N; }
  double mean() const { return N ? Sum / static_cast<double>(N) : 0.0; }
  double min() const { return N ? Min : 0.0; }
  double max() const { return Max; }

private:
  std::uint64_t N = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;
};

/// The outcome of one workload run (one point in a figure).
struct RunResult {
  /// Calls answered by the moment the last call was issued, divided by
  /// the time from the first issue to that moment, in ops per simulated
  /// us. The drain that follows (DrainUs) is left out.
  double ThroughputOpsPerUs = 0;
  /// Mean response time over all calls, simulated us.
  double MeanResponseUs = 0;
  double MeanUpdateResponseUs = 0;
  double MeanQueryResponseUs = 0;
  /// Exact response-time percentiles over all calls of the run (computed
  /// from the driver's per-call samples, simulated us). averageRuns()
  /// reports the mean of per-run percentiles.
  double P50ResponseUs = 0;
  double P99ResponseUs = 0;
  double MaxResponseUs = 0;
  /// Response-time summary per method name.
  std::map<std::string, Stat> PerMethod;
  std::uint64_t CompletedOps = 0;
  std::uint64_t RejectedOps = 0;
  /// Simulated wall time from first issue until full replication, us.
  double DurationUs = 0;
  /// The end of DurationUs spent after the last call was issued: the
  /// outstanding calls are answered and every update replicated, us.
  double DrainUs = 0;
  /// True when the run reached full replication before the safety cap.
  bool Completed = false;
  /// Staleness: replication backlog (calls applied somewhere but not
  /// everywhere), sampled every 20 simulated us and at the end of the
  /// run. A recency measure in the spirit of Hampa [58].
  double MeanBacklogCalls = 0;
  double MaxBacklogCalls = 0;
  /// Merged runtime metrics captured at the end of the run (empty when the
  /// runtime does not report stats). averageRuns() merges the snapshots of
  /// all repetitions.
  obs::StatsSnapshot ClusterStats;

  // -- Online-reconfiguration runs (RunnerOptions::ReconfigAction) --------
  // Throughput split around the membership transition: before it starts
  // (steady), between start and install/abort (during), and after. All
  // zero on fixed-membership runs.
  double SteadyThroughputOpsPerUs = 0;
  double DuringThroughputOpsPerUs = 0;
  double AfterThroughputOpsPerUs = 0;
  /// Simulated length of the transition window, us.
  double TransitionUs = 0;
  /// True when the transition installed (false = aborted or none ran).
  bool ReconfigInstalled = false;
  /// Client calls that hit the closed-epoch window and were retried.
  std::uint64_t WrongEpochRetries = 0;
};

/// Averages the scalar fields of several runs (the paper reports the
/// average of 3 repetitions).
RunResult averageRuns(const std::vector<RunResult> &Runs);

} // namespace benchlib
} // namespace hamband

#endif // HAMBAND_BENCHLIB_METRICS_H
