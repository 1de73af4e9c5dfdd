//===- explore/Explorer.cpp - Bounded exhaustive explorer -----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/explore/Explorer.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

using namespace hamband;
using namespace hamband::explore;
using namespace hamband::sim;

namespace {

/// A sleep entry is a specific pending event: identity for membership
/// tests (same event, not merely same label -- two deliveries between the
/// same pair carry different payloads), label for wake-up tests (a
/// dependent execution wakes it). Event ids are stable across prefix
/// re-execution because pushes replay in identical order up to the
/// branch point.
struct SleepEntry {
  EventId Id = InvalidEventId;
  EventLabel Label;
};

bool asleep(const std::vector<SleepEntry> &S, EventId Id) {
  for (const SleepEntry &E : S)
    if (E.Id == Id)
      return true;
  return false;
}

/// One crash placement of the outer enumeration.
struct Placement {
  enum Kind { None, Stage, Timed } K = None;
  std::int64_t StageIdx = -1;
  std::uint32_t Node = 0;
  SimTime At = 0;

  std::string str() const {
    switch (K) {
    case None:
      return "none";
    case Stage:
      return "stage " + std::to_string(StageIdx);
    case Timed:
      break;
    }
    return "crash node " + std::to_string(Node) + " at " +
           std::to_string(At) + "ns";
  }
};

/// One pending schedule of the DFS: the decision prefix identifying it
/// and the sleep set valid at its branch point.
struct WorkItem {
  std::vector<std::uint32_t> Prefix;
  std::vector<SleepEntry> Sleep;
};

/// A branching choice point recorded on the frontier of a run, with
/// everything expand() needs to create sibling schedules.
struct BranchRec {
  std::uint64_t Idx = 0;
  std::vector<EnabledEvent> Enabled;
  std::vector<SleepEntry> Sleep;
  /// Branch 0 (the one this run took) was asleep: the continuation is
  /// redundant, only the awake siblings matter.
  bool ZeroAsleep = false;
};

struct RunCapture {
  std::vector<BranchRec> Branches;
  /// Sum of log10(enabled-set size) over every consulted choice point:
  /// the Knuth estimator of the naive interleaving count.
  long double Log10Sum = 0;
  /// A branching choice point fell past MaxBranchIdx.
  bool Truncated = false;
};

/// Executes one schedule: the prefix is forced, frontier choice points
/// take branch 0 and (when \p Cap is set) are recorded for expansion.
/// \p Visited enables fingerprint dedup; \p Rep receives counters. All
/// three may be null (minimization re-runs).
RunOutcome runControlled(const RunSpec &RS, const Placement &PL,
                         const WorkItem &W, const McOptions &Opt,
                         std::unordered_set<std::uint64_t> *Visited,
                         RunCapture *Cap, McReport *Rep) {
  ScheduleControl Ctl;
  FaultPlan Plan;
  const FaultPlan *PlanPtr = nullptr;
  if (PL.K == Placement::Timed) {
    Plan.NumNodes = RS.Nodes;
    Plan.Spec = RS.Spec;
    TimedFault F;
    F.At = PL.At;
    F.Kind = FaultKind::Crash;
    F.A = PL.Node;
    Plan.Timed.push_back(F);
    PlanPtr = &Plan;
  }
  Ctl.CrashAtStage = PL.K == Placement::Stage ? PL.StageIdx : -1;

  // The sleep set activates at the branch point: prefix re-execution
  // repeats events that predate the snapshot, so they must not wake
  // entries again.
  std::vector<SleepEntry> CurSleep;
  bool SleepActive = W.Prefix.empty();
  if (SleepActive)
    CurSleep = W.Sleep;
  bool StopBranching = false;

  Ctl.OnExecute = [&CurSleep, &SleepActive](const EventLabel &L) {
    if (!SleepActive || CurSleep.empty())
      return;
    CurSleep.erase(std::remove_if(CurSleep.begin(), CurSleep.end(),
                                  [&L](const SleepEntry &E) {
                                    return !E.Label.independentOf(L);
                                  }),
                   CurSleep.end());
  };

  Ctl.Choose = [&](std::uint64_t Idx,
                   const std::vector<EnabledEvent> &Enabled) -> std::size_t {
    if (Rep)
      ++Rep->ChoicePoints;
    if (Cap)
      Cap->Log10Sum +=
          std::log10(static_cast<long double>(Enabled.size()));
    if (Idx < W.Prefix.size()) {
      if (Idx + 1 == W.Prefix.size()) {
        SleepActive = true;
        CurSleep = W.Sleep;
      }
      return W.Prefix[Idx];
    }
    if (!Cap || StopBranching)
      return 0;
    // Only ties with some mutually *dependent* pair can change the outcome.
    bool Branchy = false;
    for (std::size_t I = 1; I < Enabled.size() && !Branchy; ++I)
      for (std::size_t J = 0; J < I; ++J)
        if (!Enabled[I].Label.independentOf(Enabled[J].Label)) {
          Branchy = true;
          break;
        }
    if (!Branchy)
      return 0;
    if (Idx > Opt.MaxBranchIdx) {
      Cap->Truncated = true;
      return 0;
    }
    if (Rep)
      ++Rep->BranchPoints;
    if (Visited && Ctl.Fingerprint &&
        !Visited->insert(Ctl.Fingerprint()).second) {
      // This configuration's subtree was already explored from an
      // earlier schedule; keep running (oracles still judge the suffix)
      // but stop forking.
      StopBranching = true;
      if (Rep)
        ++Rep->DedupedSubtrees;
      return 0;
    }
    BranchRec BR;
    BR.Idx = Idx;
    BR.Enabled = Enabled;
    BR.Sleep = CurSleep;
    BR.ZeroAsleep = asleep(CurSleep, Enabled[0].Id);
    bool Redundant = BR.ZeroAsleep;
    Cap->Branches.push_back(std::move(BR));
    if (Redundant)
      StopBranching = true; // Deeper subtree covered where the entry
                            // went to sleep; siblings expand normally.
    return 0;
  };

  // A batched run reports the conflicting calls that shared a log entry.
  obs::StatsSnapshot Stats;
  bool Count = Rep && RS.Batched;
  RunOutcome Out =
      runSchedule(RS, PlanPtr, nullptr, Count ? &Stats : nullptr, &Ctl);
  if (Count)
    Rep->CoalescedCalls += Stats.counter("node.conf.coalesced");
  return Out;
}

/// Turns a finished run's frontier into sibling work items (the DPOR
/// branch rule). Stack order makes the DFS take deepest siblings first.
void expand(const WorkItem &W, const RunCapture &Cap,
            std::vector<WorkItem> &Stack, McReport &Rep) {
  for (const BranchRec &BR : Cap.Branches) {
    if (BR.ZeroAsleep)
      ++Rep.PrunedSleep;
    std::vector<SleepEntry> Explored;
    Explored.push_back({BR.Enabled[0].Id, BR.Enabled[0].Label});
    for (std::size_t I = 1; I < BR.Enabled.size(); ++I) {
      const EnabledEvent &E = BR.Enabled[I];
      if (asleep(BR.Sleep, E.Id)) {
        ++Rep.PrunedSleep;
        continue;
      }
      // Independent of every earlier branch here: executing it first
      // commutes into an explored order.
      bool Dependent = false;
      for (std::size_t J = 0; J < I && !Dependent; ++J)
        Dependent = !E.Label.independentOf(BR.Enabled[J].Label);
      if (!Dependent) {
        ++Rep.PrunedDependence;
        continue;
      }
      WorkItem Child;
      Child.Prefix = W.Prefix;
      Child.Prefix.resize(BR.Idx, 0);
      Child.Prefix.push_back(static_cast<std::uint32_t>(I));
      // child.sleep = {s in sleep(q) + explored(q) : s independent of E}.
      for (const SleepEntry &S : BR.Sleep)
        if (S.Label.independentOf(E.Label))
          Child.Sleep.push_back(S);
      for (const SleepEntry &S : Explored)
        if (S.Label.independentOf(E.Label))
          Child.Sleep.push_back(S);
      Explored.push_back({E.Id, E.Label});
      Stack.push_back(std::move(Child));
    }
  }
}

/// Greedy counterexample minimization: drop the crash placement if the
/// failure survives without it, then zero forced picks one at a time.
/// The final (still-failing) run's trace is the certificate.
McViolation minimizeViolation(const RunSpec &RS, Placement PL,
                              std::vector<std::uint32_t> Prefix,
                              const RunOutcome &FailOut,
                              const McOptions &Opt) {
  auto failsWith = [&RS, &Opt](const Placement &P,
                               const std::vector<std::uint32_t> &Pre) {
    WorkItem W;
    W.Prefix = Pre;
    return !runControlled(RS, P, W, Opt, nullptr, nullptr, nullptr).Ok;
  };
  if (PL.K != Placement::None && failsWith(Placement(), Prefix))
    PL = Placement();
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (std::size_t I = Prefix.size(); I-- > 0;) {
      if (Prefix[I] == 0)
        continue;
      std::vector<std::uint32_t> Cand = Prefix;
      Cand[I] = 0;
      if (failsWith(PL, Cand)) {
        Prefix = std::move(Cand);
        Progress = true;
      }
    }
  }
  while (!Prefix.empty() && Prefix.back() == 0)
    Prefix.pop_back();
  WorkItem W;
  W.Prefix = Prefix;
  RunOutcome Final = runControlled(RS, PL, W, Opt, nullptr, nullptr, nullptr);
  McViolation V;
  V.Failure = Final.Ok ? FailOut.Failure : Final.Failure;
  V.Trace = Final.Ok ? FailOut.Trace : Final.Trace;
  V.Spec = RS;
  V.Placement = PL.str();
  for (std::uint32_t P : Prefix)
    if (P)
      ++V.ForcedPicks;
  return V;
}

} // namespace

McReport explore::exploreType(const RunSpec &Base, const McOptions &Opt) {
  McReport Rep;
  // The explorer owns the fault dimension: schedules run over a
  // fault-free plan and crashes come from the placement enumeration.
  RunSpec RS = Base;
  RS.Spec = FaultSpec();
  RS.FaultSeed = 0;
  Rep.Base = RS;

  // Fingerprints include node liveness, so the visited set is safely
  // shared across crash placements.
  std::unordered_set<std::uint64_t> Visited;
  std::vector<Placement> Placements;
  Placements.push_back(Placement());

  bool FirstRun = true;
  for (std::size_t PI = 0; PI < Placements.size(); ++PI) {
    Placement PL = Placements[PI]; // By value: the vector grows below.
    if (PL.K != Placement::None)
      ++Rep.CrashPlacements;
    std::uint64_t PlacementStart = Rep.Explored;
    std::vector<WorkItem> Stack;
    Stack.push_back(WorkItem());
    while (!Stack.empty()) {
      if (Rep.Explored >= Opt.MaxRuns) {
        Rep.BudgetExhausted = true;
        return Rep;
      }
      // Fair split of the remaining run budget over the remaining
      // placements, so a large schedule tree cannot starve the crash
      // placements behind it (every enumerated crash point gets
      // explored). Placements that converge early donate their slack to
      // the ones after them.
      std::uint64_t Quota = std::max<std::uint64_t>(
          1, (Opt.MaxRuns - PlacementStart) / (Placements.size() - PI));
      if (Rep.Explored - PlacementStart >= Quota) {
        Rep.BudgetExhausted = true;
        break;
      }
      WorkItem W = std::move(Stack.back());
      Stack.pop_back();
      RunCapture Cap;
      RunOutcome Out = runControlled(RS, PL, W, Opt, &Visited, &Cap, &Rep);
      ++Rep.Explored;
      if (Cap.Truncated)
        Rep.BudgetExhausted = true;
      if (FirstRun) {
        FirstRun = false;
        Rep.NaiveLog10 = Cap.Log10Sum;
        // Enumerate crash placements off the baseline schedule: one per
        // observed broadcast-stage window (backup-slot recovery), plus
        // timed crashes landing mid-workload and mid-settle. All stay
        // within the minority budget (enforced again at injection).
        if (Opt.MaxCrashPoints > 0 && RS.Nodes >= 3) {
          std::uint64_t Stages = std::min<std::uint64_t>(
              Out.BroadcastStages, Opt.MaxStagePlacements);
          for (std::uint64_t S = 0; S < Stages; ++S) {
            Placement P;
            P.K = Placement::Stage;
            P.StageIdx = static_cast<std::int64_t>(S);
            Placements.push_back(P);
          }
          for (std::uint32_t N = 0; N < RS.Nodes; ++N)
            for (SimTime At : {micros(4), micros(10)}) {
              Placement P;
              P.K = Placement::Timed;
              P.Node = N;
              P.At = At;
              Placements.push_back(P);
            }
        }
      }
      if (!Out.Ok) {
        Rep.Violation = minimizeViolation(RS, PL, W.Prefix, Out, Opt);
        return Rep;
      }
      expand(W, Cap, Stack, Rep);
    }
  }
  return Rep;
}
