//===- explore/Harness.cpp - Shared schedule-execution harness ------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/explore/Harness.h"

#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/semantics/RdmaSemantics.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using namespace hamband;
using namespace hamband::explore;
using namespace hamband::runtime;

bool explore::isObservationIndependent(const std::string &Name) {
  return Name == "counter" || Name == "pn-counter" || Name == "gset" ||
         Name == "gset-buffered" || Name == "two-phase-set" ||
         Name == "lww-register";
}

std::unique_ptr<ObjectType> explore::makeRunType(const RunSpec &RS) {
  if (!isTypeRegistered(RS.TypeName))
    return nullptr;
  if (RS.Mutation.empty())
    return makeType(RS.TypeName);
  return makeMutatedType(RS.TypeName, RS.Mutation);
}

namespace {

/// Canonical configuration fingerprint: cluster-visible state, pending
/// event queue and current time. Equal fingerprints imply equal futures
/// under the same remaining decisions, which is what the explorer's
/// visited-set dedup relies on.
std::uint64_t configFingerprint(HambandCluster &C, sim::Simulator &Sim) {
  std::uint64_t H = C.stateFingerprint();
  auto Mix = [&H](std::uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  Mix(Sim.queueDigest());
  Mix(static_cast<std::uint64_t>(Sim.now()));
  return H;
}

} // namespace

RunOutcome explore::runSchedule(const RunSpec &Cfg,
                                const sim::FaultPlan *PlanOverride,
                                const sim::FaultTrace *ReplayFrom,
                                obs::StatsSnapshot *StatsOut,
                                ScheduleControl *Ctl) {
  using namespace hamband::sim;

  RunOutcome Res;
  auto Fail = [&Res](const std::string &Msg) {
    Res.Ok = false;
    if (!Res.Failure.empty())
      Res.Failure += "; ";
    Res.Failure += Msg;
  };

  std::unique_ptr<ObjectType> T = makeRunType(Cfg);
  if (!T) {
    Fail("unknown type '" + Cfg.TypeName + "' or invalid mutation '" +
         Cfg.Mutation + "'");
    return Res;
  }
  const CoordinationSpec &Spec = T->coordination();
  sim::Simulator Sim;
  HambandConfig HCfg;
  HCfg.Batch.Enabled = Cfg.Batched;
  HCfg.Batch.MaxCalls = 6;
  HCfg.Delta.Enabled = Cfg.Deltas;
  HCfg.RecordApplyLog = true;
  if (Cfg.Reconfig) {
    if (Cfg.Nodes < 2) {
      Fail("reconfig runs need at least 2 provisioned nodes");
      return Res;
    }
    // The last provisioned node starts as a standby and joins mid-run.
    HCfg.Reconfig.Enabled = true;
    HCfg.Reconfig.InitialActive.assign(Cfg.Nodes, 1);
    HCfg.Reconfig.InitialActive.back() = 0;
  }
  HambandCluster C(Sim, Cfg.Nodes, *T, {}, HCfg);
  std::unique_ptr<FaultInjector> FI;
  if (ReplayFrom)
    FI = std::make_unique<FaultInjector>(Sim, *ReplayFrom);
  else if (PlanOverride)
    FI = std::make_unique<FaultInjector>(Sim, *PlanOverride);
  else
    FI = std::make_unique<FaultInjector>(
        Sim, FaultPlan::generate(Cfg.FaultSeed, Cfg.Spec, Cfg.Nodes));
  if (Ctl) {
    if (Ctl->Choose)
      FI->setScheduleOverride(Ctl->Choose);
    FI->forceStageCrash(Ctl->CrashAtStage);
    if (Ctl->OnExecute)
      Sim.setPopObserver(Ctl->OnExecute);
    Ctl->Fingerprint = [&C, &Sim]() { return configFingerprint(C, Sim); };
  }
  C.attachFaultInjector(*FI);
  FI->arm();
  C.start();

  // Issue the workload. Call content is drawn from WorkSeed; requests at
  // failed nodes are redirected to the next live in-service node, as the
  // paper's harness does. Issue and completion events are recorded into
  // the trace as notes, giving it the per-process call order.
  struct Issue {
    ProcessId Origin;
    Call TheCall;
    int Status = 0; // 0 pending, 1 ok, 2 rejected, 3 wrong-epoch retry due.
  };
  std::vector<Issue> Issued;
  sim::Rng WR(Cfg.WorkSeed);
  std::vector<MethodId> Updates = Spec.updateMethods();
  // 0 = not started, 1 = in flight, 2 = installed, 3 = aborted.
  auto ReconfigState = std::make_shared<int>(Cfg.Reconfig ? 0 : 2);
  auto SubmitAt = [&](ProcessId P, std::size_t Idx, unsigned I) {
    FI->note(P, I, 0);
    C.submit(P, Issued[Idx].TheCall, [&Issued, &FI, Idx, I](bool Ok, Value V) {
      // A closed-epoch rejection is a documented client-visible retry
      // signal, not a terminal rejection (docs/reconfig.md).
      Issued[Idx].Status = Ok ? 1 : (V == WrongEpochValue ? 3 : 2);
      FI->note(Issued[Idx].Origin, I, Issued[Idx].Status);
    });
  };
  auto RouteFrom = [&](ProcessId P0, ProcessId &P) {
    for (unsigned K = 0; K < Cfg.Nodes; ++K) {
      ProcessId Q = (P0 + K) % Cfg.Nodes;
      if (C.isLive(Q) && C.inService(Q) && !C.node(Q).isOutOfService()) {
        P = Q;
        return true;
      }
    }
    return false;
  };
  for (unsigned I = 0; I < Cfg.Calls; ++I) {
    if (Cfg.Reconfig && I == Cfg.Calls / 2 && *ReconfigState == 0) {
      *ReconfigState = 1;
      C.reconfigure(std::vector<std::uint8_t>(Cfg.Nodes, 1),
                    [ReconfigState](bool Ok, std::uint32_t) {
                      *ReconfigState = Ok ? 2 : 3;
                    });
    }
    MethodId M = WR.pick(Updates);
    ProcessId P0;
    if (Spec.category(M) == MethodCategory::Conflicting)
      P0 = *Spec.syncGroup(M) % Cfg.Nodes;
    else
      P0 = static_cast<ProcessId>(WR.index(Cfg.Nodes));
    ProcessId P = P0;
    if (!RouteFrom(P0, P)) {
      ++Res.Skipped;
      continue;
    }
    Issued.push_back({P, T->randomClientCall(M, P, 1000 + I, WR), 0});
    SubmitAt(P, Issued.size() - 1, I);
    Sim.run(Sim.now() + sim::micros(3));
  }

  // Wait out the transition (the coordinator's timer keeps driving even
  // across its own crash, so it always terminates), then replay the
  // closed-window rejections into the reopened epoch.
  if (Cfg.Reconfig) {
    sim::SimTime RCap = Sim.now() + sim::millis(400);
    while (Sim.now() < RCap && *ReconfigState < 2)
      Sim.run(Sim.now() + sim::micros(20));
    if (*ReconfigState < 2)
      Fail("membership transition never terminated");
    for (std::size_t Idx = 0; Idx < Issued.size(); ++Idx) {
      if (Issued[Idx].Status != 3)
        continue;
      ++Res.WrongEpochRetries;
      ProcessId P = Issued[Idx].Origin;
      if (!RouteFrom(Issued[Idx].Origin, P))
        continue; // Stays status 3; tallied below against liveness.
      Issued[Idx].Origin = P;
      // The runtime attributes a submitted call to the submitting node,
      // so a redirected retry must re-stamp the issuer or the semantics
      // replay below would execute it at the wrong process.
      Issued[Idx].TheCall.Issuer = P;
      Issued[Idx].Status = 0;
      SubmitAt(P, Idx, static_cast<unsigned>(Idx));
      Sim.run(Sim.now() + sim::micros(3));
    }
  }

  // Let the fault schedule finish (suspensions recover, partitions heal),
  // then run until the live cluster is fully replicated.
  sim::SimTime FaultsQuiet =
      std::max(Cfg.Spec.Horizon, Cfg.Spec.HealBy) + sim::millis(1);
  if (Sim.now() < FaultsQuiet)
    Sim.run(FaultsQuiet);
  sim::SimTime Cap = Sim.now() + sim::millis(400);
  while (Sim.now() < Cap && !C.fullyReplicatedLive())
    Sim.run(Sim.now() + sim::micros(20));

  for (const Issue &I : Issued) {
    if (I.Status == 1)
      ++Res.CompletedOk;
    else if (I.Status == 2)
      ++Res.Rejected;
    else if (I.Status == 3)
      ++Res.Rejected; // Wrong-epoch rejection with no live node to retry at.
    else if (!C.isLive(I.Origin))
      ++Res.LostAtCrashed;
    else
      Fail("call never completed at live origin " +
           std::to_string(I.Origin));
  }

  if (!C.fullyReplicatedLive())
    Fail("live replicas did not reach full replication before the cap");
  if (!C.convergedLive())
    Fail("live replicas diverged");
  for (ProcessId P = 0; P < Cfg.Nodes; ++P)
    if (C.isLive(P) && C.inService(P) &&
        !T->invariant(C.node(P).visibleState()))
      Fail("integrity violated at node " + std::to_string(P));

  // Reconfig oracle: the epoch fence must make cross-epoch records
  // undeliverable *before* apply -- a record from a closed epoch reaching
  // a state table would be a fence breach regardless of convergence.
  if (Cfg.Reconfig) {
    Res.ReconfigInstalled = *ReconfigState == 2;
    Res.FinalEpoch = C.membershipEpoch();
    std::uint64_t CrossApply = 0;
    for (ProcessId P = 0; P < Cfg.Nodes; ++P)
      CrossApply +=
          C.node(P).statsSnapshot().counter("reconfig.cross_epoch_apply");
    if (CrossApply != 0)
      Fail("cross-epoch record reached apply (" +
           std::to_string(CrossApply) + " times)");
  }

  // Apply-log and ring-cursor oracles (see the file header). Only
  // meaningful at quiescence; when full replication already failed above
  // these would double-report, so they are gated on it.
  if (C.fullyReplicatedLive()) {
    int Ref = -1;
    for (ProcessId P = 0; P < Cfg.Nodes; ++P)
      if (C.isLive(P) && C.inService(P)) {
        Ref = static_cast<int>(P);
        break;
      }
    auto IsPrefix = [](const auto &Pre, const auto &Of) {
      return Pre.size() <= Of.size() &&
             std::equal(Pre.begin(), Pre.end(), Of.begin());
    };
    if (Ref >= 0) {
      const auto &RefConf = C.node(Ref).confApplyLog();
      const auto &RefFree = C.node(Ref).freeApplyLog();
      for (ProcessId P = 0; P < Cfg.Nodes; ++P) {
        if (static_cast<int>(P) == Ref)
          continue;
        // A standby outside the installed membership never sees the
        // workload; its (empty) logs are not comparable.
        if (!C.inService(P))
          continue;
        const auto &Conf = C.node(P).confApplyLog();
        for (unsigned G = 0; G < RefConf.size(); ++G) {
          if (C.isLive(P)) {
            if (Conf[G] != RefConf[G])
              Fail("conflicting-call order diverged at node " +
                   std::to_string(P) + " in group " + std::to_string(G));
          } else if (!IsPrefix(Conf[G], RefConf[G])) {
            Fail("crashed node " + std::to_string(P) +
                 " applied a non-prefix conflicting order in group " +
                 std::to_string(G));
          }
        }
        const auto &Free = C.node(P).freeApplyLog();
        for (ProcessId J = 0; J < Cfg.Nodes; ++J) {
          if (C.isLive(P)) {
            if (Free[J] != RefFree[J])
              Fail("conflict-free delivery order for issuer " +
                   std::to_string(J) + " diverged at node " +
                   std::to_string(P));
          } else if (J == P) {
            // Live replicas saw a prefix of what the crashed issuer
            // applied locally (nothing fabricated past the crash).
            if (!IsPrefix(RefFree[J], Free[J]))
              Fail("live replicas applied calls crashed issuer " +
                   std::to_string(J) + " never issued");
          } else if (!IsPrefix(Free[J], RefFree[J])) {
            Fail("crashed node " + std::to_string(P) +
                 " applied a non-prefix of issuer " + std::to_string(J) +
                 "'s order");
          }
        }
      }
    }
    // Client outcomes: a conflicting or irreducible conflict-free call
    // answered Ok is in the reference replica's apply log; a terminally
    // rejected one is in none (reducible calls log nothing).
    if (Ref >= 0) {
      std::set<RequestId> Logged;
      for (const auto &Group : C.node(Ref).confApplyLog())
        for (const auto &[Issuer, Req] : Group)
          Logged.insert(Req);
      for (const auto &Reqs : C.node(Ref).freeApplyLog())
        Logged.insert(Reqs.begin(), Reqs.end());
      for (const Issue &I : Issued)
        if (Spec.category(I.TheCall.Method) != MethodCategory::Reducible &&
            (I.Status == 1 || I.Status == 2) &&
            (I.Status == 1) != (Logged.count(I.TheCall.Req) != 0))
          Fail("call " + std::to_string(I.TheCall.Req) +
               (I.Status == 1 ? " answered Ok but never applied"
                              : " rejected but applied"));
    }
    // Ring-record integrity: a live writer/reader pair agrees on the
    // number of consumed free-ring cells once the cluster is quiescent.
    for (ProcessId W = 0; W < Cfg.Nodes; ++W)
      for (ProcessId R = 0; R < Cfg.Nodes; ++R) {
        if (W == R || !C.isLive(W) || !C.isLive(R) || !C.inService(W) ||
            !C.inService(R))
          continue;
        std::uint64_t Tail = C.node(W).freeWriterTail(R);
        std::uint64_t Head = C.node(R).freeReaderHead(W);
        if (Tail != Head)
          Fail("free-ring cursor mismatch writer " + std::to_string(W) +
               " tail=" + std::to_string(Tail) + " reader " +
               std::to_string(R) + " head=" + std::to_string(Head));
      }
  }

  // Lemma 3 cross-check: feed the issued sequence to the executable
  // concrete semantics.
  bool HadCrash = false;
  for (const TraceEvent &E : FI->trace().Events)
    HadCrash |= E.Kind == FaultKind::Crash;
  Res.HadCrash = HadCrash;
  // Under reconfig the runtime's node set changes mid-run while the
  // semantics world's does not; the exact state-for-state check is
  // replaced by the static-membership twin below.
  bool Exact = !HadCrash && !Cfg.Reconfig &&
               isObservationIndependent(Cfg.TypeName) && Cfg.Mutation.empty();
  semantics::RdmaConfiguration Konf(*T, Cfg.Nodes);
  for (const Issue &I : Issued) {
    if (I.Status == 0 || I.Status == 3)
      continue; // Lost at a crashed origin: the semantics never saw it.
    if (Spec.category(I.TheCall.Method) == MethodCategory::Conflicting) {
      unsigned G = *Spec.syncGroup(I.TheCall.Method);
      // Model the redirect: whichever node leads may issue, and the
      // runtime's leader can differ after failovers. A Mu leader catches
      // up on the group's log before it appends, so the new leader first
      // applies every entry it has buffered.
      if (Konf.leader(G) != I.Origin) {
        while (Konf.tryConfApp(I.Origin, G)) {
        }
        Konf.setLeader(G, I.Origin);
      }
      Konf.tryConf(I.Origin, Konf.prepareAt(I.Origin, I.TheCall));
    } else if (!Konf.tryUpdate(I.Origin,
                               Konf.prepareAt(I.Origin, I.TheCall))) {
      Fail("semantics rejected a conflict-free call");
    }
  }
  Konf.drain();
  if (!Konf.quiescent())
    Fail("semantics did not drain");
  if (!Konf.checkConvergence())
    Fail("semantics world diverged");
  if (!Konf.checkIntegrity())
    Fail("semantics world broke the invariant");
  if (Exact && Res.Ok) {
    for (ProcessId P = 0; P < Cfg.Nodes; ++P) {
      if (!Konf.visibleState(P)->equals(C.node(P).visibleState()))
        Fail("runtime state differs from semantics at node " +
             std::to_string(P));
      for (ProcessId From = 0; From < Cfg.Nodes; ++From)
        for (MethodId U = 0; U < T->numMethods(); ++U)
          if (Konf.applied(P, From, U) != C.node(P).applied(From, U))
            Fail("applied-table mismatch at node " + std::to_string(P));
    }
  }

  // Static-membership reference twin (docs/reconfig.md): for a crash-free
  // observation-independent run, the state that survived the online
  // transition must be byte-identical to the same completed calls applied
  // on a cluster that never reconfigured. This is the runtime-level
  // analogue of the Exact check disabled above.
  if (Cfg.Reconfig && Res.Ok && !HadCrash &&
      isObservationIndependent(Cfg.TypeName) && Cfg.Mutation.empty()) {
    sim::Simulator TwinSim;
    HambandConfig TwinCfg;
    TwinCfg.Batch = HCfg.Batch;
    TwinCfg.Delta = HCfg.Delta;
    HambandCluster Twin(TwinSim, Cfg.Nodes, *T, {}, TwinCfg);
    Twin.start();
    for (const Issue &I : Issued)
      if (I.Status == 1)
        Twin.submit(I.Origin, I.TheCall, nullptr);
    sim::SimTime TwinCap = TwinSim.now() + sim::millis(400);
    while (TwinSim.now() < TwinCap && !Twin.fullyReplicated())
      TwinSim.run(TwinSim.now() + sim::micros(20));
    if (!Twin.fullyReplicated()) {
      Fail("static-membership twin did not replicate");
    } else {
      for (ProcessId P = 0; P < Cfg.Nodes; ++P) {
        if (!C.isLive(P) || !C.inService(P))
          continue;
        if (!Twin.node(0).visibleState().equals(C.node(P).visibleState()))
          Fail("reconfigured state differs from static-membership twin at "
               "node " +
               std::to_string(P));
      }
    }
  }

  if (StatsOut)
    StatsOut->merge(C.statsSnapshot());
  for (ProcessId P = 0; P < Cfg.Nodes; ++P)
    Res.States.push_back(C.isLive(P) ? C.node(P).visibleState().str()
                                     : std::string());
  Res.Trace = FI->trace();
  Res.Fingerprint = configFingerprint(C, Sim);
  Res.SchedChoices = FI->opCount(FaultChannel::Sched);
  Res.BroadcastStages = FI->opCount(FaultChannel::Broadcast);
  if (Ctl) {
    // The closure captures this frame's cluster; never leave it armed.
    Ctl->Fingerprint = nullptr;
    Sim.setPopObserver(nullptr);
  }
  return Res;
}

bool explore::writeTraceFile(const std::string &Path, const RunSpec &Cfg,
                             const sim::FaultTrace &Trace) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "# hamband_fuzz type=" << Cfg.TypeName << " nodes=" << Cfg.Nodes
     << " calls=" << Cfg.Calls << " workseed=" << Cfg.WorkSeed;
  if (!Cfg.Mutation.empty())
    OS << " mutation=" << Cfg.Mutation;
  if (Cfg.Batched)
    OS << " batched=1";
  if (Cfg.Deltas)
    OS << " deltas=1";
  if (Cfg.Reconfig)
    OS << " reconfig=1";
  OS << "\n";
  OS << Trace.serialize();
  return static_cast<bool>(OS);
}

bool explore::readTraceFile(const std::string &Path, RunSpec &Cfg,
                            sim::FaultTrace &Trace) {
  std::ifstream IS(Path);
  if (!IS)
    return false;
  std::string Header;
  if (!std::getline(IS, Header))
    return false;
  // Key=value header. An unknown key names a setting this build cannot
  // reproduce, so the file is refused rather than replayed as another run.
  std::istringstream HS(Header);
  auto ParseWhole = [](const std::string &V, auto &Out) {
    auto [Ptr, Ec] = std::from_chars(V.data(), V.data() + V.size(), Out);
    return Ec == std::errc() && Ptr == V.data() + V.size();
  };
  std::string Tok;
  if (!(HS >> Tok) || Tok != "#" || !(HS >> Tok) || Tok != "hamband_fuzz")
    return false;
  Cfg.Mutation.clear();
  Cfg.Batched = false;
  Cfg.Deltas = false;
  Cfg.Reconfig = false;
  bool HaveType = false, HaveNodes = false, HaveCalls = false,
       HaveSeed = false;
  while (HS >> Tok) {
    std::size_t Eq = Tok.find('=');
    if (Eq == std::string::npos)
      return false;
    std::string K = Tok.substr(0, Eq), V = Tok.substr(Eq + 1);
    if (K == "type") {
      Cfg.TypeName = V;
      HaveType = true;
    } else if (K == "nodes") {
      if (!ParseWhole(V, Cfg.Nodes) || Cfg.Nodes == 0)
        return false;
      HaveNodes = true;
    } else if (K == "calls") {
      if (!ParseWhole(V, Cfg.Calls) || Cfg.Calls == 0)
        return false;
      HaveCalls = true;
    } else if (K == "workseed") {
      if (!ParseWhole(V, Cfg.WorkSeed))
        return false;
      HaveSeed = true;
    } else if (K == "mutation") {
      Cfg.Mutation = V;
    } else if (K == "batched") {
      Cfg.Batched = V != "0";
    } else if (K == "deltas") {
      Cfg.Deltas = V != "0";
    } else if (K == "reconfig") {
      Cfg.Reconfig = V != "0";
    } else {
      return false;
    }
  }
  if (!HaveType || !HaveNodes || !HaveCalls || !HaveSeed)
    return false;
  std::stringstream Rest;
  Rest << IS.rdbuf();
  return sim::FaultTrace::deserialize(Rest.str(), Trace);
}
