//===- hamband/explore/Harness.h - Shared schedule-execution harness -*-C++-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single source of truth for "run one fault schedule against the live
/// cluster and judge it": `hamband_fuzz` draws its schedules from an RNG,
/// `hamband_mc` enumerates them exhaustively, and both feed the exact same
/// `runSchedule` below so a counterexample found by the explorer replays
/// bit-for-bit under `hamband_fuzz --replay-trace`.
///
/// A run is described by a RunSpec (type, workload seed, fault spec) and
/// executed under one of three decision sources: the fault-plan RNG, an
/// explicit FaultPlan, or a recorded FaultTrace (replay). The explorer
/// additionally steers the run through a ScheduleControl: a choice
/// function consulted at every scheduler tie, a forced crash at one
/// broadcast stage point, and hooks to observe executed events and to
/// fingerprint the cluster state mid-run.
///
/// Oracles checked after quiescence (each failure appends to Failure):
///  - full replication + convergence + per-replica integrity invariant;
///  - agreement on conflicting-call order: every live node applied the
///    same per-group sequence of (issuer, request), and a crashed node
///    applied a prefix of it (recovery atomicity);
///  - per-issuer conflict-free delivery order: equal across live nodes,
///    and a live node's log for any issuer is a prefix of that issuer's
///    own local apply order (ring FIFO integrity);
///  - ring-cursor agreement: at quiescence a live writer/reader pair
///    agrees on the number of consumed cells;
///  - client outcomes: a logged call answered Ok is in the reference
///    replica's apply log, a terminally rejected one in none;
///  - Lemma 3 cross-check against the executable concrete semantics,
///    exact state-for-state for crash-free observation-independent types.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_EXPLORE_HARNESS_H
#define HAMBAND_EXPLORE_HARNESS_H

#include "hamband/obs/Metrics.h"
#include "hamband/sim/EventLabel.h"
#include "hamband/sim/FaultInjector.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace hamband {

class ObjectType;

namespace explore {

/// Everything needed to reproduce one run.
struct RunSpec {
  std::string TypeName;
  /// Optional coordination-spec mutation (see makeMutatedType); empty
  /// runs the registered type unchanged. Serialized into dumped traces
  /// so a counterexample against a corrupted spec stays reproducible.
  std::string Mutation;
  unsigned Nodes = 3;
  unsigned Calls = 30;
  std::uint64_t WorkSeed = 0;  // Workload generator seed.
  std::uint64_t FaultSeed = 0; // Fault-plan seed.
  sim::FaultSpec Spec;
  bool Batched = false; // Enable the call-batching layer.
  /// Enable delta-state summary propagation (docs/deltas.md). A full
  /// image ships only when a receiver finds a gap and asks for it (a
  /// recovered staged frame ahead of its ring predecessor).
  bool Deltas = false;
  /// Run an online membership transition through the middle of the
  /// workload (docs/reconfig.md): the last provisioned node starts as a
  /// standby and is added once half the calls are issued. Clients whose
  /// updates land in the closed-epoch window observe the documented
  /// Done(false, WrongEpochValue) rejection and retry after the
  /// transition terminates. Adds two oracles: no cross-epoch record may
  /// ever reach apply, and (for crash-free observation-independent runs)
  /// the surviving state must equal a static-membership twin cluster fed
  /// the same completed calls.
  bool Reconfig = false;
};

struct RunOutcome {
  bool Ok = true;
  std::string Failure;
  sim::FaultTrace Trace;
  unsigned CompletedOk = 0;
  unsigned Rejected = 0;
  unsigned LostAtCrashed = 0;
  unsigned Skipped = 0;
  bool HadCrash = false;
  /// Final visible state per node (empty string for crashed nodes).
  std::vector<std::string> States;
  /// Canonical fingerprint of the final configuration (cluster state +
  /// outstanding event queue); equal fingerprints = equal futures.
  std::uint64_t Fingerprint = 0;
  /// Scheduler ties consulted during the run (choice points).
  std::uint64_t SchedChoices = 0;
  /// Broadcast stage points observed (candidate crash points).
  std::uint64_t BroadcastStages = 0;
  /// Reconfig runs only: whether the transition installed, the epoch it
  /// left the cluster in, and how many closed-window rejections were
  /// retried.
  bool ReconfigInstalled = false;
  std::uint32_t FinalEpoch = 0;
  unsigned WrongEpochRetries = 0;
};

/// Explorer steering for one run. All fields optional; a default
/// ScheduleControl reproduces the uncontrolled run exactly.
struct ScheduleControl {
  /// Consulted at every scheduler tie (>= 2 events at the earliest
  /// time): maps (choice index, enabled set) to the branch to execute.
  sim::FaultInjector::ScheduleChoiceFn Choose;
  /// Crash the staging node at this broadcast stage index (-1 = never).
  std::int64_t CrashAtStage = -1;
  /// Invoked with the label of every executed event.
  std::function<void(const sim::EventLabel &)> OnExecute;
  /// Filled by runSchedule for the duration of the run: snapshots the
  /// current configuration fingerprint on demand (cluster-visible state
  /// + pending event queue + simulated time). Cleared before return --
  /// do not call it after runSchedule finishes.
  std::function<std::uint64_t()> Fingerprint;
};

/// Instantiates the type a RunSpec runs against: the registered type, or
/// its mutated variant when Spec.Mutation is set. Returns nullptr for an
/// unknown type name or invalid mutation.
std::unique_ptr<ObjectType> makeRunType(const RunSpec &Spec);

/// Types whose prepared effect does not depend on the issuing replica's
/// observations: the final state is a pure function of the call multiset,
/// so exact state agreement -- runtime against semantics, batched or
/// delta against classic -- is only meaningful for them. (An ORSet remove
/// deletes the tags its replica had seen, which varies with propagation
/// timing.)
bool isObservationIndependent(const std::string &TypeName);

/// Executes one run. With \p PlanOverride the given plan is used instead
/// of generating one from the spec; with \p ReplayFrom the injector
/// re-applies the recorded trace instead of drawing decisions from the
/// RNG. \p Ctl (may be null) steers scheduling; see ScheduleControl.
RunOutcome runSchedule(const RunSpec &Spec,
                       const sim::FaultPlan *PlanOverride = nullptr,
                       const sim::FaultTrace *ReplayFrom = nullptr,
                       obs::StatsSnapshot *StatsOut = nullptr,
                       ScheduleControl *Ctl = nullptr);

/// Dumps \p Trace with a reproduction header. The header names the type,
/// node/call counts, workload seed and (when present) the mutation, so
/// `hamband_fuzz --replay-trace` can re-execute the run bit-for-bit.
bool writeTraceFile(const std::string &Path, const RunSpec &Spec,
                    const sim::FaultTrace &Trace);

/// Parses a dumped trace file back into a RunSpec + FaultTrace. The
/// header is a sequence of key=value tokens; legacy 4-field headers
/// (without mutation=/batched=/deltas=/reconfig=) are accepted. False on
/// an unknown key, on a nodes=, calls= or workseed= value that is not a
/// whole decimal number, and on nodes=0 or calls=0.
bool readTraceFile(const std::string &Path, RunSpec &Spec,
                   sim::FaultTrace &Trace);

} // namespace explore
} // namespace hamband

#endif // HAMBAND_EXPLORE_HARNESS_H
