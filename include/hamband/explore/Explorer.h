//===- hamband/explore/Explorer.h - Bounded exhaustive explorer -*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `hamband_mc` engine: a stateless model checker that drives the live
/// cluster through every interleaving of fabric events and crash points up
/// to a bound, judging each explored schedule with the full oracle battery
/// of explore::runSchedule.
///
/// Exploration is depth-first over *choice points* -- simulator steps
/// where two or more events are enabled at the earliest virtual time. A
/// schedule is identified by its decision prefix (the branch picked at
/// each choice point); forking re-executes the run deterministically from
/// scratch with the prefix forced, which keeps the cluster, fabric and
/// fault injector entirely unaware they are being model-checked.
///
/// Three reductions keep the tree tractable:
///
///  - Dynamic partial-order reduction: a branch whose event is pairwise
///    independent of every earlier branch at the same choice point is
///    pruned -- executing it first commutes with some explored order.
///    Independence is per EventLabel: distinct-node events commute
///    because an event only reads and fires callbacks on its own node's
///    state, and swapping adjacent independent events only renames event
///    ids, which affect pop order solely through ties -- themselves
///    choice points (see docs/analysis.md for the argument).
///  - Sleep sets: a branch already explored from an ancestor with no
///    intervening dependent event is skipped.
///  - State dedup: a canonical fingerprint (cluster-visible state +
///    pending event queue + time) is hashed at every branching choice
///    point; revisiting a fingerprint prunes the whole subtree.
///
/// Crash points are an outer enumeration: the schedule tree is explored
/// once with no crash, once per observed broadcast-stage index (backup
/// slot window) and once per (node, time) timed-crash placement, all
/// within the minority budget.
///
/// The first violated oracle stops exploration and yields a *certified
/// counterexample*: the decision prefix is greedily minimized while the
/// failure persists, and the surviving run's FaultTrace (which embeds
/// every schedule choice and crash decision) replays bit-for-bit under
/// `hamband_fuzz --replay-trace`.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_EXPLORE_EXPLORER_H
#define HAMBAND_EXPLORE_EXPLORER_H

#include "hamband/explore/Harness.h"

#include <cstdint>
#include <optional>
#include <string>

namespace hamband {
namespace explore {

/// Exploration bounds.
struct McOptions {
  /// Maximum schedules to execute. The budget is split fairly over the
  /// crash placements (remaining budget / remaining placements, with
  /// early-converging placements donating their slack), so every
  /// enumerated crash point is visited even when one schedule tree alone
  /// would exhaust the budget.
  std::uint64_t MaxRuns = 2000;
  /// Choice points past this index always take branch 0 (depth bound).
  std::uint64_t MaxBranchIdx = 4000;
  /// 0 disables crash-point enumeration entirely.
  unsigned MaxCrashPoints = 1;
  /// Cap on enumerated broadcast-stage crash placements.
  unsigned MaxStagePlacements = 6;
};

/// One certified counterexample.
struct McViolation {
  std::string Failure;
  /// Reproduction recipe: spec + trace replay bit-for-bit via
  /// `hamband_fuzz --replay-trace` (writeTraceFile serializes both).
  RunSpec Spec;
  sim::FaultTrace Trace;
  /// Human-readable crash placement ("none", "stage 2", "crash node 1
  /// at 4000ns").
  std::string Placement;
  /// Forced non-default schedule picks surviving minimization.
  unsigned ForcedPicks = 0;
};

struct McReport {
  RunSpec Base;
  /// The first violated oracle's certified counterexample (exploration
  /// stops there); empty when every explored schedule passed.
  std::optional<McViolation> Violation;
  /// Schedules fully executed.
  std::uint64_t Explored = 0;
  /// Choice points consulted across all runs.
  std::uint64_t ChoicePoints = 0;
  /// Branching choice points (>= 2 mutually dependent enabled events).
  std::uint64_t BranchPoints = 0;
  std::uint64_t PrunedDependence = 0;
  std::uint64_t PrunedSleep = 0;
  std::uint64_t DedupedSubtrees = 0;
  /// Crash placements enumerated (excluding the crash-free tree).
  std::uint64_t CrashPlacements = 0;
  /// log10 of the naive interleaving count: the Knuth path estimator
  /// (product of enabled-set sizes along the first, unforced schedule).
  /// The reported reduction factor is naive / explored, capped at 1e300.
  long double NaiveLog10 = 0;
  /// True when MaxRuns or MaxBranchIdx cut exploration short.
  bool BudgetExhausted = false;
  /// Batched runs: conflicting calls appended behind another call of the
  /// same log entry (node.conf.coalesced), summed over executed runs.
  std::uint64_t CoalescedCalls = 0;

  /// Every explored schedule passed every oracle.
  bool ok() const { return !Violation; }
};

/// Explores every schedule of \p Base up to the bounds in \p Opt.
/// Base.FaultSeed and Base.Spec are ignored: the explorer substitutes its
/// own deterministic crash placements over an otherwise fault-free plan.
McReport exploreType(const RunSpec &Base, const McOptions &Opt);

} // namespace explore
} // namespace hamband

#endif // HAMBAND_EXPLORE_EXPLORER_H
