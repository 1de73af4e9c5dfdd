//===- hamband/benchlib/Runner.h - Experiment driver ------------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one workload against one runtime (Hamband, MSG, or Mu SMR) on a
/// fresh simulated cluster and reports throughput and response times. A
/// run lasts until every call is answered and every update is replicated
/// on all nodes; on the simulator it ends at the event that completes it.
/// Throughput counts the calls answered up to the moment the last call is
/// issued, over the time to that moment, so the end-of-run drain (reported
/// apart, RunResult::DrainUs) does not dilute it; response time is the
/// mean over all calls. Each experiment is repeated and averaged.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BENCHLIB_RUNNER_H
#define HAMBAND_BENCHLIB_RUNNER_H

#include "hamband/benchlib/Metrics.h"
#include "hamband/benchlib/Workload.h"
#include "hamband/rdma/NetworkModel.h"
#include "hamband/rdma/Transport.h"
#include "hamband/runtime/HambandNode.h"

#include <functional>

namespace hamband {
namespace runtime {
class HambandCluster;
} // namespace runtime

namespace benchlib {

/// Which system to run.
enum class RuntimeKind { Hamband, Msg, MuSmr };

/// Short display name ("hamband", "msg", "mu").
const char *runtimeKindName(RuntimeKind K);

/// Cluster-level options for a run.
struct RunnerOptions {
  RuntimeKind Kind = RuntimeKind::Hamband;
  unsigned NumNodes = 4;
  rdma::NetworkModel Model;
  runtime::HambandConfig Cfg;
  /// Repetitions averaged per data point (the paper uses 3).
  unsigned Repetitions = 3;
  /// Give up (marking the run incomplete) after this much simulated time
  /// (sim backend) or wall-clock time (shm backend).
  sim::SimDuration SafetyCap = sim::millis(30000);
  /// Which transport to deploy on. TransportKind::Sim is the deterministic
  /// default; TransportKind::Shm runs each node on its own OS thread and
  /// measures wall-clock time (Hamband runtime only -- the baselines are
  /// sim-only). On shm the per-call intervals come from
  /// HambandConfig::tunedFor, and a run that cannot finish is cut off by
  /// SafetyCap interpreted as wall-clock nanoseconds.
  rdma::TransportKind Transport = rdma::TransportKind::Sim;
  /// Sharded keyspace deployment: number of shards (0 = the classic
  /// unkeyed single-object cluster). Hamband runtime only. When > 0, the
  /// run deploys a keyed HambandCluster (runtime/HambandCluster.h): the
  /// workload's NumObjects ids ("obj<i>") are registered up front and
  /// every generated call is keyed by its drawn object index, dispatching
  /// to the owning shard.
  unsigned NumShards = 0;
  /// Invoked once per run on the freshly started Hamband cluster, before
  /// any workload call is issued. Lets big-state experiments pre-load
  /// every replica with an agreed summary
  /// (HambandCluster::seedReducibleState) so the measured phase ships
  /// images proportional to a large resident state without paying for
  /// building it call by call.
  std::function<void(runtime::HambandCluster &)> PreSeed;
  /// Online membership transition mid-run (unkeyed Hamband runtime on
  /// the sim transport only; docs/reconfig.md): "" = none, "add" = the
  /// last provisioned node starts as a standby and joins, "remove" = the
  /// last node leaves. Enables Cfg.Reconfig automatically; the run splits
  /// its throughput into steady/during/after phases (RunResult) and
  /// clients retry closed-epoch rejections against the new epoch.
  std::string ReconfigAction;
  /// Fraction of ops issued when the transition starts.
  static constexpr double ReconfigAtFraction = 0.4;
};

/// Runs the workload once with the given seed.
RunResult runOnce(const ObjectType &Type, const WorkloadSpec &Workload,
                  const RunnerOptions &Opts, std::uint64_t Seed);

/// Runs Opts.Repetitions times (seeds derived from Workload.Seed) and
/// averages.
RunResult runWorkload(const ObjectType &Type, const WorkloadSpec &Workload,
                      const RunnerOptions &Opts);

} // namespace benchlib
} // namespace hamband

#endif // HAMBAND_BENCHLIB_RUNNER_H
