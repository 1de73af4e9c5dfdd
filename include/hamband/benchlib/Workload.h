//===- hamband/benchlib/Workload.h - Workload generation --------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload specification and call generation matching the paper's setup
/// (Section 5, "Platform and setup"): randomly generated method calls,
/// updates uniformly distributed over the update methods, conflicting
/// calls redirected to the group leader, all other calls divided equally
/// between the nodes. Closed-loop clients with a configurable pipeline
/// depth per node.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BENCHLIB_WORKLOAD_H
#define HAMBAND_BENCHLIB_WORKLOAD_H

#include "hamband/core/ObjectType.h"
#include "hamband/sim/Rng.h"

#include <optional>

namespace hamband {
namespace benchlib {

/// Parameters of one workload run.
struct WorkloadSpec {
  /// Total calls across the cluster. Scaled down from the paper's 4M so
  /// that a whole figure sweeps in seconds.
  std::uint64_t NumOps = 60000;
  /// Fraction of calls that are updates.
  double UpdateRatio = 0.25;
  /// Outstanding calls per client node (closed loop).
  unsigned PipelineDepth = 8;
  std::uint64_t Seed = 42;
  /// Restrict updates to these methods (empty = all update methods).
  std::vector<MethodId> UpdateMethods;
  /// Restrict queries to these methods (empty = all query methods).
  std::vector<MethodId> QueryMethods;
  /// Inject a failure into this node when FailAtFraction of ops issued.
  std::optional<unsigned> FailNode;
  double FailAtFraction = 0.4;
  /// Keyed (multi-object) workloads: number of distinct objects the calls
  /// target. 0 = single-object workload (no key dimension); when > 0 the
  /// generator draws an object index per call (see lastObjectIndex()) and
  /// the sharded runner addresses that object's interned key.
  std::uint64_t NumObjects = 0;
  /// Zipfian skew of the object popularity distribution (YCSB's theta):
  /// 0 = uniform; 0.99 = the YCSB default hot-key skew. Only meaningful
  /// with NumObjects > 1.
  double ZipfSkew = 0.0;
};

/// Per-node call generator (deterministic from the seed).
class CallGenerator {
public:
  CallGenerator(const ObjectType &Type, const WorkloadSpec &Spec,
                unsigned NodeIndex);

  /// Draws the next client call for this node's stream; \p Req must be a
  /// globally unique request id.
  Call next(ProcessId Issuer, RequestId Req);

  /// True if the last drawn call was an update.
  bool lastWasUpdate() const { return LastWasUpdate; }

  /// Object index drawn for the last call (uniform or zipfian over
  /// [0, Spec.NumObjects)); 0 when the workload is single-object.
  std::uint64_t lastObjectIndex() const { return LastObject; }

private:
  std::uint64_t drawObjectIndex();

  const ObjectType &Type;
  const WorkloadSpec &Spec;
  sim::Rng Rng;
  std::vector<MethodId> Updates;
  std::vector<MethodId> Queries;
  bool LastWasUpdate = false;
  std::uint64_t LastObject = 0;
  // Zipfian state (Gray et al. / YCSB): precomputed in the constructor so
  // each draw is O(1).
  double Zetan = 0, Zeta2 = 0, Alpha = 0, Eta = 0;
};

} // namespace benchlib
} // namespace hamband

#endif // HAMBAND_BENCHLIB_WORKLOAD_H
