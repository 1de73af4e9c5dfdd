//===- sim/FaultInjector.cpp - Deterministic fault injection ---------------==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/sim/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace hamband;
using namespace hamband::sim;

const char *hamband::sim::faultKindName(FaultKind K) {
  switch (K) {
  case FaultKind::None:
    return "none";
  case FaultKind::Delay:
    return "delay";
  case FaultKind::Crash:
    return "crash";
  case FaultKind::Suspend:
    return "suspend";
  case FaultKind::Recover:
    return "recover";
  case FaultKind::PartitionStart:
    return "partition";
  case FaultKind::PartitionHeal:
    return "heal";
  case FaultKind::Note:
    return "note";
  case FaultKind::SchedChoice:
    return "sched";
  }
  return "?";
}

static bool faultKindFromName(const char *Name, FaultKind &Out) {
  for (unsigned K = 0; K <= static_cast<unsigned>(FaultKind::SchedChoice);
       ++K) {
    if (std::strcmp(Name, faultKindName(static_cast<FaultKind>(K))) == 0) {
      Out = static_cast<FaultKind>(K);
      return true;
    }
  }
  return false;
}

// -- FaultPlan ---------------------------------------------------------------

FaultPlan FaultPlan::generate(std::uint64_t Seed, const FaultSpec &Spec,
                              unsigned NumNodes) {
  assert(NumNodes >= 1 && "a plan needs a cluster");
  FaultPlan P;
  P.Seed = Seed;
  P.NumNodes = NumNodes;
  P.Spec = Spec;
  Rng R(Seed ^ 0x8badf00dcafef00dull);
  const unsigned Budget = (NumNodes - 1) / 2;
  const SimTime Horizon = std::max<SimTime>(Spec.Horizon, 1);
  const SimTime HealBy = std::max<SimTime>(Spec.HealBy, Horizon + 1);

  // Crashes: distinct nodes, each down for good from its crash time. Never
  // schedule more than the minority budget.
  std::vector<bool> CrashPick(NumNodes, false);
  std::vector<SimTime> CrashTimes;
  unsigned NumCrashes = std::min(Spec.NumCrashes, Budget);
  for (unsigned I = 0; I < NumCrashes; ++I) {
    std::uint32_t N;
    do {
      N = static_cast<std::uint32_t>(R.index(NumNodes));
    } while (CrashPick[N]);
    CrashPick[N] = true;
    // Leave the first quarter of the horizon fault-free so the cluster
    // gets real work in flight before losing a node.
    SimTime At = Horizon / 4 + R.index(Horizon - Horizon / 4 + 1);
    CrashTimes.push_back(At);
    P.Timed.push_back({At, FaultKind::Crash, N, 0, 0});
  }

  // Suspensions: [start, recover] intervals on non-crashing nodes such
  // that, together with crashes, at most Budget nodes are ever failed at
  // once and no node is suspended twice concurrently.
  struct Interval {
    std::uint32_t Node;
    SimTime S, E;
  };
  std::vector<Interval> Suspends;
  for (unsigned I = 0; I < Spec.NumSuspends; ++I) {
    for (int Attempt = 0; Attempt < 8; ++Attempt) {
      std::uint32_t N = static_cast<std::uint32_t>(R.index(NumNodes));
      SimTime S = R.index(Horizon + 1);
      SimTime MinLen = micros(100);
      if (S + MinLen >= HealBy)
        S = HealBy - MinLen - 1;
      SimTime E = S + MinLen + R.index(HealBy - S - MinLen);
      if (CrashPick[N])
        continue;
      bool Clash = false;
      unsigned Overlap = 0;
      for (SimTime C : CrashTimes)
        if (C <= E) // A crash persists, so it overlaps [S, E] iff C <= E.
          ++Overlap;
      for (const Interval &Iv : Suspends) {
        bool Overlaps = Iv.S <= E && S <= Iv.E;
        if (Overlaps && Iv.Node == N)
          Clash = true;
        if (Overlaps)
          ++Overlap;
      }
      if (Clash || Overlap + 1 > Budget)
        continue;
      Suspends.push_back({N, S, E});
      P.Timed.push_back({S, FaultKind::Suspend, N, 0, 0});
      P.Timed.push_back({E, FaultKind::Recover, N, 0, 0});
      break;
    }
  }

  // Partitions: a link blocked for an interval, healing by HealBy. One
  // active interval per link at a time.
  struct LinkIv {
    std::uint32_t A, B;
    SimTime S, E;
  };
  std::vector<LinkIv> Parts;
  for (unsigned I = 0; I < Spec.NumPartitions && NumNodes >= 2; ++I) {
    for (int Attempt = 0; Attempt < 8; ++Attempt) {
      std::uint32_t A = static_cast<std::uint32_t>(R.index(NumNodes));
      std::uint32_t B;
      do {
        B = static_cast<std::uint32_t>(R.index(NumNodes));
      } while (B == A);
      if (A > B)
        std::swap(A, B);
      SimTime S = R.index(Horizon + 1);
      if (S + 1 >= HealBy)
        S = HealBy - 2;
      SimTime E = S + 1 + R.index(HealBy - S - 1);
      bool Clash = false;
      for (const LinkIv &Iv : Parts)
        if (Iv.A == A && Iv.B == B && Iv.S <= E && S <= Iv.E)
          Clash = true;
      if (Clash)
        continue;
      Parts.push_back({A, B, S, E});
      P.Timed.push_back({S, FaultKind::PartitionStart, A, B, E});
      P.Timed.push_back({E, FaultKind::PartitionHeal, A, B, 0});
      break;
    }
  }

  std::stable_sort(P.Timed.begin(), P.Timed.end(),
                   [](const TimedFault &X, const TimedFault &Y) {
                     return X.At < Y.At;
                   });
  return P;
}

// -- FaultTrace --------------------------------------------------------------

std::string FaultTrace::serialize() const {
  std::ostringstream OS;
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "hamband-fault-trace v1 seed=%" PRIu64 " nodes=%u events=%zu\n",
                Seed, NumNodes, Events.size());
  OS << Buf;
  for (const TraceEvent &E : Events) {
    std::snprintf(Buf, sizeof(Buf),
                  "%" PRIu64 " %s %u %" PRIu64 " %u %u %" PRId64 "\n", E.At,
                  faultKindName(E.Kind), static_cast<unsigned>(E.Channel),
                  E.OpIndex, E.A, E.B, E.Param);
    OS << Buf;
  }
  return OS.str();
}

bool FaultTrace::deserialize(const std::string &Text, FaultTrace &Out) {
  std::istringstream IS(Text);
  std::string Line;
  if (!std::getline(IS, Line))
    return false;
  std::size_t NumEvents = 0;
  if (std::sscanf(Line.c_str(),
                  "hamband-fault-trace v1 seed=%" SCNu64
                  " nodes=%u events=%zu",
                  &Out.Seed, &Out.NumNodes, &NumEvents) != 3)
    return false;
  Out.Events.clear();
  Out.Events.reserve(NumEvents);
  while (std::getline(IS, Line)) {
    if (Line.empty())
      continue;
    TraceEvent E;
    char KindName[16] = {};
    unsigned Channel = 0;
    if (std::sscanf(Line.c_str(),
                    "%" SCNu64 " %15s %u %" SCNu64 " %u %u %" SCNd64, &E.At,
                    KindName, &Channel, &E.OpIndex, &E.A, &E.B,
                    &E.Param) != 7)
      return false;
    // Channel 1 (two-sided messages) is retired: no hook numbers it, so a
    // trace naming it cannot replay.
    if (!faultKindFromName(KindName, E.Kind) || Channel == 1 ||
        Channel >= NumFaultChannels)
      return false;
    E.Channel = static_cast<FaultChannel>(Channel);
    Out.Events.push_back(E);
  }
  return Out.Events.size() == NumEvents;
}

// -- FaultInjector -----------------------------------------------------------

FaultInjector::FaultInjector(Simulator &Sim, FaultPlan Plan)
    : Sim(Sim), Plan(std::move(Plan)),
      R(this->Plan.Seed ^ 0xfa017133c7ed5eedull),
      Crashed(this->Plan.NumNodes, false),
      Suspended(this->Plan.NumNodes, false) {
  assert(this->Plan.NumNodes >= 1 && "plan must name its cluster size");
  Trace.Seed = this->Plan.Seed;
  Trace.NumNodes = this->Plan.NumNodes;
}

FaultInjector::FaultInjector(Simulator &Sim, const FaultTrace &Recorded)
    : Sim(Sim), R(0), Replay(true), Crashed(Recorded.NumNodes, false),
      Suspended(Recorded.NumNodes, false) {
  assert(Recorded.NumNodes >= 1 && "trace must name its cluster size");
  Plan.Seed = Recorded.Seed;
  Plan.NumNodes = Recorded.NumNodes;
  Trace.Seed = Recorded.Seed;
  Trace.NumNodes = Recorded.NumNodes;
  for (const TraceEvent &E : Recorded.Events)
    if (E.Channel != FaultChannel::External)
      Pending[static_cast<unsigned>(E.Channel)].push_back(E);
}

FaultInjector::~FaultInjector() {
  if (ChooserInstalled)
    Sim.setScheduleChooser(nullptr);
}

void FaultInjector::arm() {
  // Tie-breaks among same-time events are choice points: install the hook
  // so recorded non-default picks replay exactly and explorers can fork.
  Sim.setScheduleChooser(
      [this](EventQueue &Q, std::size_t N) { return onScheduleChoice(Q, N); });
  ChooserInstalled = true;
  if (Replay) {
    // Re-execute the recorded timed faults at their exact virtual times.
    for (const TraceEvent &E : Pending[static_cast<unsigned>(
             FaultChannel::Timed)])
      Sim.scheduleAt(E.At, [this, Kind = E.Kind, A = E.A, B = E.B,
                            Until = static_cast<SimTime>(E.Param)]() {
        fireTimed(Kind, A, B, Until);
      });
    Pending[static_cast<unsigned>(FaultChannel::Timed)].clear();
    return;
  }
  for (const TimedFault &F : Plan.Timed)
    Sim.scheduleAt(F.At, [this, F]() {
      fireTimed(F.Kind, F.A, F.B, F.Until);
    });
}

void FaultInjector::record(FaultKind K, FaultChannel C, std::uint64_t OpIdx,
                           std::uint32_t A, std::uint32_t B,
                           std::int64_t Param) {
  Trace.Events.push_back({Sim.now(), K, C, OpIdx, A, B, Param});
}

const TraceEvent *FaultInjector::replayMatch(FaultChannel C,
                                             std::uint64_t OpIdx) {
  std::deque<TraceEvent> &Q = Pending[static_cast<unsigned>(C)];
  if (Q.empty() || Q.front().OpIndex != OpIdx)
    return nullptr;
  static thread_local TraceEvent Matched;
  Matched = Q.front();
  Q.pop_front();
  return &Matched;
}

unsigned FaultInjector::failedNow() const {
  unsigned N = 0;
  for (unsigned I = 0; I < Crashed.size(); ++I)
    N += (Crashed[I] || Suspended[I]) ? 1 : 0;
  return N;
}

void FaultInjector::crashNode(std::uint32_t Node) {
  if (Node >= Crashed.size() || Crashed[Node])
    return;
  Crashed[Node] = true;
  if (CrashFn)
    CrashFn(Node);
}

void FaultInjector::fireTimed(FaultKind Kind, std::uint32_t A,
                              std::uint32_t B, SimTime Until) {
  std::uint64_t Idx =
      OpCount[static_cast<unsigned>(FaultChannel::Timed)]++;
  record(Kind, FaultChannel::Timed, Idx, A, B,
         Kind == FaultKind::PartitionStart
             ? static_cast<std::int64_t>(Until)
             : 0);
  switch (Kind) {
  case FaultKind::Crash:
    crashNode(A);
    break;
  case FaultKind::Suspend:
    if (!Crashed[A] && !Suspended[A]) {
      Suspended[A] = true;
      if (SuspendFn)
        SuspendFn(A);
    }
    break;
  case FaultKind::Recover:
    if (Suspended[A]) {
      Suspended[A] = false;
      if (RecoverFn)
        RecoverFn(A);
    }
    break;
  case FaultKind::PartitionStart:
    Partitioned[linkKey(A, B)] = Until;
    break;
  case FaultKind::PartitionHeal:
    Partitioned.erase(linkKey(A, B));
    break;
  default:
    assert(false && "not a timed fault kind");
  }
}

std::size_t FaultInjector::onScheduleChoice(EventQueue &Queue,
                                            std::size_t NumEnabled) {
  std::uint64_t Idx = OpCount[static_cast<unsigned>(FaultChannel::Sched)]++;
  if (Replay) {
    if (const TraceEvent *E = replayMatch(FaultChannel::Sched, Idx)) {
      std::size_t Pick = E->A;
      record(FaultKind::SchedChoice, FaultChannel::Sched, Idx,
             static_cast<std::uint32_t>(Pick),
             static_cast<std::uint32_t>(NumEnabled), 0);
      return Pick < NumEnabled ? Pick : 0;
    }
    return 0;
  }
  std::size_t Pick = 0;
  if (ScheduleOverride)
    Pick = ScheduleOverride(Idx, Queue.enabled());
  if (Pick >= NumEnabled)
    Pick = 0;
  // Index 0 is the default tie-break; recording only deviations keeps
  // default-schedule traces identical to what they were without the hook.
  if (Pick != 0)
    record(FaultKind::SchedChoice, FaultChannel::Sched, Idx,
           static_cast<std::uint32_t>(Pick),
           static_cast<std::uint32_t>(NumEnabled), 0);
  return Pick;
}

void FaultInjector::onBroadcastStaged(std::uint32_t Node) {
  std::uint64_t Idx =
      OpCount[static_cast<unsigned>(FaultChannel::Broadcast)]++;
  if (Replay) {
    if (replayMatch(FaultChannel::Broadcast, Idx)) {
      record(FaultKind::Crash, FaultChannel::Broadcast, Idx, Node, 0, 0);
      crashNode(Node);
    }
    return;
  }
  // Explorer-enumerated crash point: deterministic, RNG-free, and placed
  // before the probabilistic path so the RNG stream is untouched. Replays
  // reproduce it through the recorded Broadcast event above.
  if (ForcedStageCrash >= 0 &&
      static_cast<std::uint64_t>(ForcedStageCrash) == Idx &&
      Node < Crashed.size() && !Crashed[Node] &&
      failedNow() + 1 <= (Plan.NumNodes - 1) / 2) {
    record(FaultKind::Crash, FaultChannel::Broadcast, Idx, Node, 0, 0);
    crashNode(Node);
    return;
  }
  if (Plan.Spec.CrashOnStageProb <= 0)
    return;
  // Draw before the guards so the RNG stream does not depend on cluster
  // state (keeps same-seed reruns aligned).
  bool Fire = R.bernoulli(Plan.Spec.CrashOnStageProb);
  if (!Fire || Node >= Crashed.size() || Crashed[Node])
    return;
  // Respect the minority budget, counting crashes the plan still owes.
  unsigned Planned = 0;
  for (const TimedFault &F : Plan.Timed)
    if (F.Kind == FaultKind::Crash && F.At > Sim.now() &&
        !Crashed[F.A])
      ++Planned;
  if (failedNow() + Planned + 1 > (Plan.NumNodes - 1) / 2)
    return;
  record(FaultKind::Crash, FaultChannel::Broadcast, Idx, Node, 0, 0);
  crashNode(Node);
}

void FaultInjector::onReconfigStage(unsigned Stage, std::uint32_t Node) {
  std::uint64_t Idx =
      OpCount[static_cast<unsigned>(FaultChannel::Reconfig)]++;
  (void)Node;
  if (Replay) {
    if (const TraceEvent *E = replayMatch(FaultChannel::Reconfig, Idx)) {
      record(FaultKind::Crash, FaultChannel::Reconfig, Idx, E->A, E->B, 0);
      crashNode(E->A);
    }
    return;
  }
  // Deterministic crash point of the crash-during-transition tests: B
  // remembers the stage so a trace reads "crashed victim V at stage S".
  if (ForcedReconfigCrash >= 0 &&
      static_cast<std::uint64_t>(ForcedReconfigCrash) == Idx &&
      ReconfigVictim < Crashed.size() && !Crashed[ReconfigVictim] &&
      failedNow() + 1 <= (Plan.NumNodes - 1) / 2) {
    record(FaultKind::Crash, FaultChannel::Reconfig, Idx, ReconfigVictim,
           Stage, 0);
    crashNode(ReconfigVictim);
  }
}

void FaultInjector::note(std::uint32_t A, std::uint32_t B,
                         std::int64_t Param) {
  std::uint64_t Idx =
      OpCount[static_cast<unsigned>(FaultChannel::External)]++;
  record(FaultKind::Note, FaultChannel::External, Idx, A, B, Param);
}

bool FaultInjector::isPartitioned(std::uint32_t A, std::uint32_t B) const {
  auto It = Partitioned.find(linkKey(A, B));
  return It != Partitioned.end() && It->second > Sim.now();
}

SimDuration FaultInjector::onOneSidedOp(rdma::NodeId Src, rdma::NodeId Dst,
                                        bool, std::size_t) {
  std::uint64_t Idx =
      OpCount[static_cast<unsigned>(FaultChannel::OneSided)]++;
  if (Replay) {
    const TraceEvent *E = replayMatch(FaultChannel::OneSided, Idx);
    if (!E)
      return 0;
    record(E->Kind, FaultChannel::OneSided, Idx, Src, Dst, E->Param);
    return static_cast<SimDuration>(E->Param);
  }
  SimDuration Extra = 0;
  // A partitioned RC link retransmits until the partition heals: the verb
  // is delayed past the heal time, never lost.
  auto It = Partitioned.find(linkKey(Src, Dst));
  if (It != Partitioned.end() && It->second > Sim.now())
    Extra += It->second - Sim.now();
  if (Plan.Spec.OneSidedDelayProb > 0 &&
      R.bernoulli(Plan.Spec.OneSidedDelayProb))
    Extra += 1 + R.index(std::max<std::uint64_t>(Plan.Spec.MaxExtraDelay, 1));
  if (Extra)
    record(FaultKind::Delay, FaultChannel::OneSided, Idx, Src, Dst,
           static_cast<std::int64_t>(Extra));
  return Extra;
}
