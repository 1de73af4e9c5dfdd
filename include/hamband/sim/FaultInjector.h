//===- hamband/sim/FaultInjector.h - Deterministic fault injection -*- C++ -*-//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection and replay for the simulated cluster.
///
/// A FaultPlan is generated from a single RNG seed: timed node crashes,
/// heartbeat suspensions with recovery, and link partitions with healing,
/// plus per-operation probabilities for one-sided verb delays and for
/// crashes at reliable-broadcast stages. It models the network the
/// Hamband runtime uses: every byte moves by one-sided verbs over
/// Reliable-Connection queue pairs, which a fault delays but never loses.
/// A FaultInjector executes the plan against a run by plugging into the
/// explicit hook points of the stack:
///
///  - rdma::Fabric consults it (through rdma::FabricFaultHook, declared in
///    rdma/NetworkModel.h) for every one-sided verb that reaches the wire;
///    a delay or an active partition adds wire latency;
///  - sim::Simulator carries its timed fault events (crash / suspend /
///    recover / partition) at exact virtual times;
///  - runtime::ReliableBroadcast reports every backup-slot stage through
///    its on-stage hook, letting the injector crash a source *between*
///    staging and the remote ring writes (the exact window the paper's
///    reliable broadcast exists to cover);
///  - runtime::HeartbeatDetector / HambandNode expose resume and
///    return-to-service hooks so a suspension can be undone;
///  - runtime::HambandCluster::attachFaultInjector wires all of the above.
///
/// Every fault the injector actually applies is appended to a FaultTrace:
/// a compact, serializable event log keyed by per-channel operation
/// indices. Because the whole simulation is deterministic, the same seed
/// reproduces the same trace bit for bit; and a recorded trace can be
/// *replayed* against a fresh run (no RNG involved), which must again
/// produce the identical trace. Any failing randomized schedule is
/// therefore a one-command repro: re-run its seed, or re-execute its
/// trace file.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_SIM_FAULTINJECTOR_H
#define HAMBAND_SIM_FAULTINJECTOR_H

#include "hamband/rdma/NetworkModel.h"
#include "hamband/sim/Rng.h"
#include "hamband/sim/Simulator.h"

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hamband {
namespace sim {

/// The kinds of fault (and context) events that appear in plans and
/// traces.
enum class FaultKind : std::uint8_t {
  None = 0,
  /// Extra delivery delay on one one-sided verb.
  Delay,
  /// A node's CPU crashed (permanent; its memory stays remotely
  /// accessible, per the RDMA failure model).
  Crash,
  /// A node's heartbeat thread was suspended and the node taken out of
  /// service (the paper's failure injection).
  Suspend,
  /// A previously suspended node resumed beating and serving.
  Recover,
  /// A link partition between two nodes began (both directions).
  PartitionStart,
  /// The partition healed.
  PartitionHeal,
  /// Driver-recorded context event (e.g. a client call issue or
  /// completion); gives traces the per-process call order.
  Note,
  /// A non-default tie-break pick among same-time simulator events (the
  /// explorer's choice points). A records the picked index, B the size of
  /// the enabled set. Only non-zero picks are recorded, so traces of
  /// default-schedule runs are unchanged.
  SchedChoice,
};

/// Printable name of a fault kind.
const char *faultKindName(FaultKind K);

/// The hook site an event was keyed on. Each channel has its own
/// monotonically increasing operation counter; a trace event stores the
/// counter value at which it fired, which is what makes replay exact. The
/// numbers are the trace file's channel field; 1 (two-sided messages) is
/// retired, and FaultTrace::deserialize rejects it.
enum class FaultChannel : std::uint8_t {
  /// One-sided WRITE/READ verbs hitting the wire.
  OneSided = 0,
  /// Timed events scheduled on the simulator.
  Timed = 2,
  /// ReliableBroadcast backup-slot stages.
  Broadcast = 3,
  /// Driver note() calls.
  External = 4,
  /// Simulator schedule-choice consultations (ties at the earliest time).
  Sched = 5,
  /// Membership-reconfiguration stage entries (runtime::ReconfigManager);
  /// the crash points of the epoch-transition protocol.
  Reconfig = 6,
};
inline constexpr unsigned NumFaultChannels = 7;

/// Tunable fault intensities. All probabilities are per operation; all
/// timed-event counts are upper bounds (the generator never fails more
/// than a minority of nodes at once).
struct FaultSpec {
  /// Probability that a one-sided verb is delayed by up to MaxExtraDelay.
  double OneSidedDelayProb = 0.0;
  /// Injected delays are uniform in (0, MaxExtraDelay].
  SimDuration MaxExtraDelay = micros(40);
  /// Probability that a reliable-broadcast stage crashes its source
  /// before any remote write (exercises backup-slot recovery).
  double CrashOnStageProb = 0.0;
  /// Number of timed node crashes / suspensions / link partitions.
  unsigned NumCrashes = 0;
  unsigned NumSuspends = 0;
  unsigned NumPartitions = 0;
  /// Timed faults start within [0, Horizon]; suspensions recover and
  /// partitions heal no later than HealBy.
  SimTime Horizon = millis(2);
  SimTime HealBy = millis(3);

  bool operator==(const FaultSpec &) const = default;
};

/// One scheduled fault of a plan.
struct TimedFault {
  SimTime At = 0;
  FaultKind Kind = FaultKind::None;
  /// Crash/Suspend/Recover: the node. Partition*: one side.
  std::uint32_t A = 0;
  /// Partition*: the other side.
  std::uint32_t B = 0;
  /// PartitionStart: heal time (a PartitionHeal is also scheduled there).
  SimTime Until = 0;

  bool operator==(const TimedFault &) const = default;
};

/// A complete, deterministic fault schedule.
struct FaultPlan {
  std::uint64_t Seed = 0;
  unsigned NumNodes = 0;
  FaultSpec Spec;
  /// Sorted by At.
  std::vector<TimedFault> Timed;

  bool operator==(const FaultPlan &) const = default;

  /// Deterministically expands \p Seed into a schedule: crash/suspend
  /// targets and times, partition pairs and intervals. At no virtual time
  /// are more than (NumNodes - 1) / 2 nodes crashed or suspended, so a
  /// majority always survives.
  static FaultPlan generate(std::uint64_t Seed, const FaultSpec &Spec,
                            unsigned NumNodes);
};

/// One applied fault (or context note) of a run.
struct TraceEvent {
  /// Virtual time at which the event fired.
  SimTime At = 0;
  FaultKind Kind = FaultKind::None;
  FaultChannel Channel = FaultChannel::Timed;
  /// Value of the channel's operation counter when the event fired.
  std::uint64_t OpIndex = 0;
  /// Node / endpoint A (source for per-op events).
  std::uint32_t A = 0;
  /// Endpoint B (destination for per-op events).
  std::uint32_t B = 0;
  /// Kind-specific payload: Delay = extra nanoseconds, PartitionStart =
  /// heal time, Note = driver payload.
  std::int64_t Param = 0;

  bool operator==(const TraceEvent &) const = default;
};

/// The compact event trace of one run: seed + applied fault schedule +
/// driver-recorded call order. Equality is bit-for-bit replay equality.
struct FaultTrace {
  std::uint64_t Seed = 0;
  unsigned NumNodes = 0;
  std::vector<TraceEvent> Events;

  bool operator==(const FaultTrace &) const = default;

  /// Human-readable one-event-per-line rendering (also the serialized
  /// form).
  std::string serialize() const;

  /// Parses serialize() output. Returns false on malformed input,
  /// including an unknown kind name or the retired channel 1.
  static bool deserialize(const std::string &Text, FaultTrace &Out);
};

/// Executes a fault plan against a run (record mode) or re-executes a
/// recorded trace (replay mode), appending every applied event to the
/// run's trace.
class FaultInjector final : public rdma::FabricFaultHook {
public:
  /// Action applied to a node when a Crash/Suspend/Recover fault fires;
  /// wired by the environment (see HambandCluster::attachFaultInjector).
  using NodeAction = std::function<void(std::uint32_t Node)>;

  /// Record mode: per-op decisions are drawn from the plan's seed.
  FaultInjector(Simulator &Sim, FaultPlan Plan);

  /// Replay mode: decisions are re-applied from \p Recorded, no RNG. The
  /// run must be driven identically (same cluster, same workload); the
  /// injector then produces a trace equal to \p Recorded.
  FaultInjector(Simulator &Sim, const FaultTrace &Recorded);

  /// Uninstalls the schedule chooser from the simulator.
  ~FaultInjector();

  bool replaying() const { return Replay; }
  const FaultPlan &plan() const { return Plan; }

  /// Wires the node-level fault actions. Must be set before arm().
  void onCrash(NodeAction Fn) { CrashFn = std::move(Fn); }
  void onSuspend(NodeAction Fn) { SuspendFn = std::move(Fn); }
  void onRecover(NodeAction Fn) { RecoverFn = std::move(Fn); }

  /// Schedules the timed faults on the simulator and installs the
  /// schedule-choice hook. Call exactly once, after wiring the actions and
  /// before the run starts.
  void arm();

  /// ReliableBroadcast stage hook: \p Node staged a backup message and is
  /// about to post its remote writes.
  void onBroadcastStaged(std::uint32_t Node);

  /// ReconfigManager stage hook: the coordinator \p Node entered
  /// transition stage \p Stage (a runtime::ReconfigManager::Stage value).
  /// Record mode applies the forced crash when its op index matches;
  /// replay re-applies recorded crashes at the same consultation.
  void onReconfigStage(unsigned Stage, std::uint32_t Node);

  /// Record mode: deterministically crash \p Victim at the reconfig-stage
  /// consultation with index \p OpIdx (crash-during-transition tests; see
  /// docs/reconfig.md). The minority budget still applies. Pass -1 to
  /// disable.
  void forceReconfigCrash(std::int64_t OpIdx, std::uint32_t Victim) {
    ForcedReconfigCrash = OpIdx;
    ReconfigVictim = Victim;
  }

  /// Explorer override for schedule choices (record mode only). Called
  /// with the consultation index and the enabled set; the returned index
  /// is applied and, when non-zero, recorded as a SchedChoice event.
  using ScheduleChoiceFn = std::function<std::size_t(
      std::uint64_t ChoiceIdx, const std::vector<EnabledEvent> &Enabled)>;
  void setScheduleOverride(ScheduleChoiceFn Fn) {
    ScheduleOverride = std::move(Fn);
  }

  /// Record mode: deterministically crash the staging node at the
  /// broadcast-stage consultation with this index (the explorer's
  /// crash-point enumeration). The minority budget still applies. Pass -1
  /// (the default) to disable.
  void forceStageCrash(std::int64_t StageIdx) { ForcedStageCrash = StageIdx; }

  /// Current operation counter of a channel (diagnostics / explorer
  /// bounds).
  std::uint64_t opCount(FaultChannel C) const {
    return OpCount[static_cast<unsigned>(C)];
  }

  /// Records a driver-level context event (client call issue/completion)
  /// into the trace; replays re-record it identically.
  void note(std::uint32_t A, std::uint32_t B, std::int64_t Param);

  /// True while the (A, B) link is partitioned (either direction).
  bool isPartitioned(std::uint32_t A, std::uint32_t B) const;

  /// The events applied so far this run.
  const FaultTrace &trace() const { return Trace; }

  // -- rdma::FabricFaultHook ----------------------------------------------
  SimDuration onOneSidedOp(rdma::NodeId Src, rdma::NodeId Dst, bool IsWrite,
                           std::size_t Bytes) override;

private:
  /// Appends an applied event to the trace.
  void record(FaultKind K, FaultChannel C, std::uint64_t OpIdx,
              std::uint32_t A, std::uint32_t B, std::int64_t Param);

  /// Replay mode: pops and returns the next recorded event of \p C if it
  /// fired at operation index \p OpIdx; nullptr otherwise.
  const TraceEvent *replayMatch(FaultChannel C, std::uint64_t OpIdx);

  /// Applies one timed fault (both modes).
  void fireTimed(FaultKind Kind, std::uint32_t A, std::uint32_t B,
                 SimTime Until);

  /// Simulator tie-break hook (installed by arm()): picks which of the
  /// enabled same-time events fires next, replaying recorded picks or
  /// consulting the explorer override.
  std::size_t onScheduleChoice(EventQueue &Queue, std::size_t NumEnabled);

  /// Marks \p Node crashed and runs the crash action. No-op if already
  /// crashed.
  void crashNode(std::uint32_t Node);

  /// Number of nodes currently crashed or suspended.
  unsigned failedNow() const;

  /// Normalized (lo, hi) partition key.
  static std::pair<std::uint32_t, std::uint32_t>
  linkKey(std::uint32_t A, std::uint32_t B) {
    return A < B ? std::make_pair(A, B) : std::make_pair(B, A);
  }

  Simulator &Sim;
  FaultPlan Plan;
  Rng R;
  bool Replay = false;
  FaultTrace Trace;
  /// Replay mode: recorded per-op events, FIFO per channel.
  std::deque<TraceEvent> Pending[NumFaultChannels];
  /// Per-channel operation counters.
  std::uint64_t OpCount[NumFaultChannels] = {};
  NodeAction CrashFn, SuspendFn, RecoverFn;
  ScheduleChoiceFn ScheduleOverride;
  std::int64_t ForcedStageCrash = -1;
  std::int64_t ForcedReconfigCrash = -1;
  std::uint32_t ReconfigVictim = 0;
  bool ChooserInstalled = false;
  /// Active partitions: link -> heal time.
  std::map<std::pair<std::uint32_t, std::uint32_t>, SimTime> Partitioned;
  std::vector<bool> Crashed;
  std::vector<bool> Suspended;
};

} // namespace sim
} // namespace hamband

#endif // HAMBAND_SIM_FAULTINJECTOR_H
