//===- hamband/runtime/Runtime.h - Replicated runtime interface -*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface the benchmark harness drives: the Hamband cluster
/// and both baselines (message-passing CRDTs, Mu SMR) implement it, so
/// every figure's experiment is a single parametric loop.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_RUNTIME_H
#define HAMBAND_RUNTIME_RUNTIME_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"
#include "hamband/sim/Simulator.h"

#include <functional>

namespace hamband {
namespace runtime {

/// Completion callback for a submitted call: whether it was accepted
/// (permissible / committed) and, for queries, the result value.
using SubmitCallback = std::function<void(bool Ok, Value Result)>;

/// Distinguished result value accompanying Done(false, WrongEpochValue)
/// when an update arrives while a membership transition has the current
/// epoch closed (docs/reconfig.md). The client contract is retry: resubmit
/// the same call after a short backoff and it completes once the new epoch
/// opens. Queries are never rejected with this value.
inline constexpr Value WrongEpochValue = -0x7EC0;

/// A replicated object runtime over an RDMA transport.
class ReplicaRuntime {
public:
  virtual ~ReplicaRuntime();

  virtual unsigned numNodes() const = 0;

  /// The transport the deployment runs on (sim fabric or shm threads).
  virtual rdma::Transport &transport() = 0;
  const rdma::Transport &transport() const {
    return const_cast<ReplicaRuntime *>(this)->transport();
  }

  /// The driving simulator, or nullptr on a non-simulated transport.
  /// Anything needing determinism (fault schedules, replay) checks this.
  sim::Simulator *simulator() { return transport().simulatorOrNull(); }

  virtual const ObjectType &objectType() const = 0;

  /// Submits a client call at node \p Origin. The runtime routes it
  /// (local execution, one-sided propagation, or leader redirection) and
  /// invokes \p Done when the call completes at the origin.
  virtual void submit(rdma::NodeId Origin, const Call &C,
                      SubmitCallback Done) = 0;

  /// True when every accepted update has been applied on every node.
  virtual bool fullyReplicated() const = 0;

  /// Injects the paper's failure: suspends the node's heartbeat thread so
  /// peers suspect it. The node itself keeps running.
  virtual void injectFailure(rdma::NodeId Node) = 0;

  /// True if \p Node has been failure-injected.
  virtual bool isFailed(rdma::NodeId Node) const = 0;

  /// Leader of synchronization group \p Group as known by \p Observer
  /// (used by the workload driver to route conflicting calls).
  virtual rdma::NodeId leaderOf(unsigned Group,
                                rdma::NodeId Observer) const = 0;

  /// Instantaneous replication backlog: the total number of update calls
  /// some replica has applied but another has not yet (summed over
  /// issuers and methods). Zero when fully replicated; the benchmark
  /// driver samples it to report staleness (a recency measure in the
  /// spirit of Hampa [58]).
  virtual std::uint64_t replicationBacklog() const { return 0; }

  /// Merged metrics across the runtime (per-node registries plus any
  /// cluster-level stats). The default is an empty snapshot so the
  /// baselines can opt out.
  virtual obs::StatsSnapshot statsSnapshot() const { return {}; }
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_RUNTIME_H
