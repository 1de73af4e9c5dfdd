//===- benchlib/Runner.cpp - Experiment driver ----------------------------==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Runner.h"

#include "hamband/baselines/MsgCrdtRuntime.h"
#include "hamband/baselines/MuSmrRuntime.h"
#include "hamband/core/KeyedObjectType.h"
#include "hamband/runtime/HambandCluster.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>

using namespace hamband;
using namespace hamband::benchlib;
using runtime::ReplicaRuntime;

const char *hamband::benchlib::runtimeKindName(RuntimeKind K) {
  switch (K) {
  case RuntimeKind::Hamband:
    return "hamband";
  case RuntimeKind::Msg:
    return "msg";
  case RuntimeKind::MuSmr:
    return "mu";
  }
  return "?";
}

namespace {

/// Mutable driver state shared by the per-node client loops. On the sim
/// transport everything runs on the driving thread; on the shm transport
/// completion callbacks arrive on node threads, so all access goes
/// through Mu. (The lock never shows up in sim figures: those measure
/// simulated time, which an uncontended mutex does not advance.)
struct DriverState {
  std::mutex Mu;
  std::uint64_t IssuedTotal = 0;
  std::uint64_t Completed = 0;
  std::uint64_t Rejected = 0;
  RequestId NextReq = 1;
  bool FailureInjected = false;
  // Membership-transition phase accounting (ReconfigAction runs only):
  // 0 = steady, 1 = transition in flight, 2 = after.
  int Phase = 0;
  std::uint64_t PhaseCompleted[3] = {0, 0, 0};
  bool ReconfigTriggered = false;
  bool ReconfigInstalled = false;
  std::uint64_t WrongEpochRetries = 0;
  sim::SimTime TransStartT = 0;
  sim::SimTime TransEndT = 0;
  /// When the most recent call completed -- the after-phase window ends
  /// here, not at the full-replication drain.
  sim::SimTime LastDoneT = 0;
  /// When the workload's last call was issued, and how many calls had
  /// been answered by then: throughput is measured up to this moment.
  sim::SimTime LastIssueT = 0;
  std::uint64_t CompletedAtLastIssue = 0;
  RunResult Result;
  double UpdateRespSum = 0;
  std::uint64_t UpdateRespN = 0;
  double QueryRespSum = 0;
  std::uint64_t QueryRespN = 0;
  double RespSum = 0;
  /// Every call's response time, for exact percentiles.
  std::vector<double> RespSamples;
};

/// Exact quantile over unsorted samples (nearest-rank); Samples must be
/// sorted by the caller.
double sortedQuantile(const std::vector<double> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  std::size_t Rank = static_cast<std::size_t>(
      std::ceil(Q * static_cast<double>(Sorted.size())));
  Rank = std::min(std::max<std::size_t>(Rank, 1), Sorted.size());
  return Sorted[Rank - 1];
}

} // namespace

RunResult benchlib::runOnce(const ObjectType &Type,
                            const WorkloadSpec &Workload,
                            const RunnerOptions &Opts, std::uint64_t Seed) {
  const bool OnShm = Opts.Transport == rdma::TransportKind::Shm;
  const bool IsSharded = Opts.NumShards > 0;
  // Online membership transitions are defined for the Hamband runtime on
  // the deterministic transport only (docs/reconfig.md); a keyed cluster
  // refuses them itself.
  const bool DoReconfig = !Opts.ReconfigAction.empty() && !OnShm &&
                          Opts.Kind == RuntimeKind::Hamband;
  assert((Opts.ReconfigAction.empty() || DoReconfig) &&
         "ReconfigAction needs the Hamband runtime on sim");
  runtime::HambandConfig BaseCfg = Opts.Cfg;
  if (DoReconfig) {
    BaseCfg.Reconfig.Enabled = true;
    BaseCfg.Reconfig.InitialActive.assign(Opts.NumNodes, 1);
    if (Opts.ReconfigAction == "add")
      BaseCfg.Reconfig.InitialActive.back() = 0;
  }
  // The baselines model their costs in simulated time and have no
  // concurrent execution path; only the Hamband runtime deploys on shm or
  // over a sharded keyspace.
  assert((Opts.Kind == RuntimeKind::Hamband || (!OnShm && !IsSharded)) &&
         "shm and sharded deployments run the Hamband runtime only");
  if (OnShm && Opts.Kind != RuntimeKind::Hamband) {
    RunResult R;
    R.Completed = false;
    return R;
  }
  sim::Simulator SimObj; // The baselines' simulator.
  // Outlives the Mu baseline's cluster, which replicates it.
  std::unique_ptr<baselines::SmrTypeAdapter> SmrType;
  std::unique_ptr<ReplicaRuntime> RT;
  runtime::HambandCluster *Cluster = nullptr;
  switch (Opts.Kind) {
  case RuntimeKind::Hamband: {
    std::unique_ptr<runtime::HambandCluster> C;
    if (IsSharded) {
      runtime::KeyspaceConfig KSCfg;
      KSCfg.NumShards = Opts.NumShards;
      C = std::make_unique<runtime::HambandCluster>(
          Opts.Transport, Opts.NumNodes, Type, KSCfg, Opts.Model, BaseCfg);
      // The workload's objects are registered as ids "obj<i>" so the
      // drawn object index IS the interned key.
      std::uint64_t Objects = std::max<std::uint64_t>(1, Workload.NumObjects);
      for (std::uint64_t I = 0; I < Objects; ++I)
        C->registerObject("obj" + std::to_string(I));
    } else {
      C = std::make_unique<runtime::HambandCluster>(
          Opts.Transport, Opts.NumNodes, Type, Opts.Model, BaseCfg);
    }
    C->start();
    if (Opts.PreSeed)
      Opts.PreSeed(*C);
    Cluster = C.get();
    RT = std::move(C);
    break;
  }
  case RuntimeKind::MuSmr: {
    SmrType = std::make_unique<baselines::SmrTypeAdapter>(Type);
    auto C = std::make_unique<runtime::HambandCluster>(
        SimObj, Opts.NumNodes, *SmrType, Opts.Model, Opts.Cfg);
    C->start();
    RT = std::move(C);
    break;
  }
  case RuntimeKind::Msg: {
    auto C = std::make_unique<baselines::MsgCrdtRuntime>(
        SimObj, Opts.NumNodes, Type, Opts.Model);
    C->start();
    RT = std::move(C);
    break;
  }
  }

  rdma::Transport &T = RT->transport();
  const CoordinationSpec &Spec = RT->objectType().coordination();
  WorkloadSpec W = Workload;
  W.Seed = Seed;

  auto State = std::make_shared<DriverState>();
  std::vector<std::unique_ptr<CallGenerator>> Gens;
  // Sharded runs generate base-form calls (the keyed lift's own sampler
  // draws keys from a tiny analysis domain); the key is attached below
  // from the generator's object index.
  const ObjectType &GenType = IsSharded ? Type : RT->objectType();
  for (unsigned N = 0; N < Opts.NumNodes; ++N)
    Gens.push_back(std::make_unique<CallGenerator>(GenType, W, N));

  // Routes around failed nodes: the paper redirects a failed node's
  // requests to the next available node. Rotating the start point spreads
  // the orphaned load across the survivors. Called under State->Mu.
  auto Rotation = std::make_shared<unsigned>(0);
  auto AliveOrigin = [&RT, &Cluster, Rotation](unsigned N) {
    unsigned Nodes = RT->numNodes();
    auto Usable = [&](unsigned Q) {
      // A provisioned standby / removed node is not a client origin.
      // The out-of-service flag flips on the node itself before the
      // cluster-level membership view catches up, so check both.
      return !RT->isFailed(Q) && (!Cluster || (Cluster->inService(Q) &&
                                               !Cluster->node(Q).isOutOfService()));
    };
    if (Usable(N))
      return N;
    for (unsigned K = 0; K < Nodes; ++K) {
      unsigned Cand = (N + ++*Rotation) % Nodes;
      if (Usable(Cand))
        return Cand;
    }
    return N;
  };

  // The per-node closed-loop client.
  // The closure holds only a weak reference to itself (the local strong
  // reference below outlives the whole run), so no ownership cycle forms.
  // The stack state captured by reference stays valid because the shm
  // transport is shut down -- all node threads joined, queued closures
  // discarded -- before runOnce returns.
  auto IssueNext = std::make_shared<std::function<void(unsigned)>>();
  std::weak_ptr<std::function<void(unsigned)>> WeakIssue = IssueNext;

  // Submits one prepared call and handles its completion. A closed-epoch
  // rejection (WrongEpochValue, docs/reconfig.md) is not a terminal
  // outcome: the client parks the call as a detached retry -- re-routed
  // and re-submitted every couple of microseconds until the fence lifts
  // -- and immediately issues its next operation, so queries keep
  // flowing through the closed window. The parked call keeps its
  // original issue time so the transition stall shows up in the
  // response-time figures, and its completion does not re-trigger the
  // loop (the loop already moved on when the call was parked).
  using SubmitFn = std::function<void(unsigned Node, Call C, unsigned Target,
                                      sim::SimTime IssuedAt, bool IsUpdate,
                                      std::string MethodName, bool Detached)>;
  auto DoSubmit = std::make_shared<SubmitFn>();
  std::weak_ptr<SubmitFn> WeakSubmit = DoSubmit;
  *DoSubmit = [&, State, WeakIssue, WeakSubmit,
               DoReconfig](unsigned Node, Call C, unsigned Target,
                           sim::SimTime IssuedAt, bool IsUpdate,
                           std::string MethodName, bool Detached) {
    RT->submit(Target, C,
               [&, State, WeakIssue, WeakSubmit, DoReconfig, Node, C,
                IssuedAt, IsUpdate, MethodName, Detached](bool Ok, Value V) {
                 if (DoReconfig && !Ok && V == runtime::WrongEpochValue) {
                   {
                     std::lock_guard<std::mutex> G(State->Mu);
                     ++State->WrongEpochRetries;
                   }
                   T.runAfter(Node, sim::micros(2),
                              [&, State, WeakSubmit, Node, C, IssuedAt,
                               IsUpdate, MethodName]() {
                                auto Resub = WeakSubmit.lock();
                                if (!Resub)
                                  return;
                                Call C2 = C;
                                unsigned Tgt;
                                {
                                  std::lock_guard<std::mutex> G(State->Mu);
                                  Tgt = AliveOrigin(Node);
                                  if (Spec.category(C2.Method) ==
                                      MethodCategory::Conflicting) {
                                    unsigned Observer = AliveOrigin(0);
                                    unsigned Lead = RT->leaderOf(
                                        *Spec.syncGroup(C2.Method), Observer);
                                    if (!RT->isFailed(Lead))
                                      Tgt = Lead;
                                  }
                                  C2.Issuer = Tgt;
                                }
                                (*Resub)(Node, C2, Tgt, IssuedAt, IsUpdate,
                                         MethodName, /*Detached=*/true);
                              });
                   // First rejection of this call: park it and keep the
                   // closed loop going so the client's queries are not
                   // starved behind the fence. The continuation is
                   // scheduled a beat comparable to a normal update's
                   // service time away -- rejections are synchronous, so
                   // an inline continuation would both recurse without
                   // bound and let the loop spin far past its
                   // closed-loop pace while the fence is up.
                   if (!Detached)
                     T.runAfter(Node, sim::micros(1),
                                [State, WeakIssue, Node]() {
                                  if (auto Next = WeakIssue.lock())
                                    (*Next)(Node);
                                });
                   return;
                 }
                 double RespUs = sim::toMicros(T.now() - IssuedAt);
                 {
                   std::lock_guard<std::mutex> G(State->Mu);
                   State->RespSum += RespUs;
                   State->RespSamples.push_back(RespUs);
                   State->Result.PerMethod[MethodName].add(RespUs);
                   if (IsUpdate) {
                     State->UpdateRespSum += RespUs;
                     ++State->UpdateRespN;
                   } else {
                     State->QueryRespSum += RespUs;
                     ++State->QueryRespN;
                   }
                   if (!Ok)
                     ++State->Rejected;
                   ++State->Completed;
                   ++State->PhaseCompleted[State->Phase];
                   State->LastDoneT = T.now();
                 }
                 if (Detached)
                   return;
                 // Hard rejections complete synchronously (no modeled
                 // cost), so during a membership transition the loop
                 // must continue through the event queue: a rejecting
                 // straggler node would otherwise recurse through the
                 // whole remaining issue budget in zero simulated time.
                 if (DoReconfig && !Ok) {
                   T.runAfter(Node, sim::nanos(300),
                              [State, WeakIssue, Node]() {
                                if (auto Next = WeakIssue.lock())
                                  (*Next)(Node);
                              });
                   return;
                 }
                 if (auto Next = WeakIssue.lock())
                   (*Next)(Node);
               });
  };

  *IssueNext = [&, State, WeakIssue, DoSubmit, OnShm](unsigned Node) {
    Call C;
    unsigned Target;
    bool IsUpdate;
    bool TriggerReconfig = false;
    std::string MethodName;
    {
      std::lock_guard<std::mutex> G(State->Mu);
      if (State->IssuedTotal >= W.NumOps)
        return;
      if (W.FailNode && !State->FailureInjected &&
          static_cast<double>(State->IssuedTotal) >=
              W.FailAtFraction * static_cast<double>(W.NumOps)) {
        State->FailureInjected = true;
        RT->injectFailure(*W.FailNode);
      }
      if (DoReconfig && !State->ReconfigTriggered &&
          static_cast<double>(State->IssuedTotal) >=
              RunnerOptions::ReconfigAtFraction *
                  static_cast<double>(W.NumOps)) {
        State->ReconfigTriggered = true;
        State->Phase = 1;
        State->TransStartT = T.now();
        TriggerReconfig = true; // Start it below, outside the lock.
      }
      if (++State->IssuedTotal == W.NumOps) {
        State->LastIssueT = T.now();
        State->CompletedAtLastIssue = State->Completed;
      }
      unsigned Origin = AliveOrigin(Node);
      C = Gens[Node]->next(Origin, State->NextReq++);
      IsUpdate = Gens[Node]->lastWasUpdate();
      Value ObjKey = 0;
      if (IsSharded) {
        ObjKey = static_cast<Value>(Gens[Node]->lastObjectIndex());
        C = KeyedObjectType::keyCall(ObjKey, C);
      }
      Target = Origin;
      if (Spec.category(C.Method) == MethodCategory::Conflicting) {
        if (OnShm) {
          // Leadership is concurrent node state here; submit at the
          // origin and let the runtime mail the call to whoever
          // currently leads the group.
          Target = Origin;
        } else {
          // Conflicting calls go straight to the group leader; if the
          // known leader has failed, the call enters at a live node,
          // whose runtime retries it against successive leaders. On a
          // sharded deployment the leader is the *owning shard's* group
          // leader (shards rotate leadership across nodes).
          unsigned Observer = AliveOrigin(0);
          Target = IsSharded
                       ? Cluster->leaderOfShard(Cluster->shardOfKey(ObjKey),
                                                *Spec.syncGroup(C.Method),
                                                Observer)
                       : RT->leaderOf(*Spec.syncGroup(C.Method), Observer);
          if (RT->isFailed(Target))
            Target = Origin;
        }
        C.Issuer = Target;
      }
      MethodName = RT->objectType().method(C.Method).Name;
    }
    if (TriggerReconfig) {
      std::vector<std::uint8_t> Tgt(Opts.NumNodes, 1);
      if (Opts.ReconfigAction == "remove")
        Tgt.back() = 0;
      const unsigned Joiner = Opts.NumNodes - 1;
      const bool IsAdd = Opts.ReconfigAction == "add";
      Cluster->reconfigure(
          Tgt, [&, State, WeakIssue, IsAdd, Joiner](bool Ok, std::uint32_t) {
            {
              std::lock_guard<std::mutex> G(State->Mu);
              State->Phase = 2;
              State->TransEndT = T.now();
              State->ReconfigInstalled = Ok;
            }
            // The joiner starts its own closed-loop clients the moment it
            // is in service.
            if (Ok && IsAdd)
              for (unsigned D = 0; D < W.PipelineDepth; ++D)
                T.runAfter(Joiner, sim::nanos(10) * (D + 1),
                           [WeakIssue, Joiner]() {
                             if (auto Next = WeakIssue.lock())
                               (*Next)(Joiner);
                           });
          });
    }
    (*DoSubmit)(Node, C, Target, T.now(), IsUpdate, MethodName,
                /*Detached=*/false);
  };

  // Prime the pipelines with a slight stagger. On the sim fabric this is
  // exactly the old Sim.schedule; on shm it seeds each node's timer heap.
  const sim::SimTime StartT = T.now();
  for (unsigned N = 0; N < Opts.NumNodes; ++N) {
    // An "add" run's standby issues nothing until it joins mid-run.
    if (DoReconfig && Opts.ReconfigAction == "add" && N == Opts.NumNodes - 1)
      continue;
    for (unsigned D = 0; D < W.PipelineDepth; ++D)
      T.runAfter(N, sim::nanos(10) * (N * W.PipelineDepth + D + 1),
                 [IssueNext, N]() { (*IssueNext)(N); });
  }

  // Run until every call completed and replication finished, sampling the
  // replication backlog (staleness) along the way.
  bool Done = false;
  double BacklogSum = 0;
  double BacklogMax = 0;
  std::uint64_t BacklogSamples = 0;
  auto SampleBacklog = [&]() {
    double Backlog = static_cast<double>(RT->replicationBacklog());
    BacklogSum += Backlog;
    BacklogMax = std::max(BacklogMax, Backlog);
    ++BacklogSamples;
  };
  if (!OnShm) {
    // One event at a time, so the run ends at the event that completes
    // it; the backlog is sampled at every 20-us boundary and at the end.
    sim::Simulator &Sim = *RT->simulator();
    const sim::SimDuration Slice = sim::micros(20);
    for (sim::SimTime Boundary = StartT + Slice;
         !Done && Sim.now() < Opts.SafetyCap; Boundary += Slice) {
      while (!Done && Sim.run(Boundary, 1) == 1)
        Done = State->Completed >= W.NumOps && RT->fullyReplicated();
      SampleBacklog();
      if (!Done && Sim.idle())
        break; // Nothing scheduled: the run cannot progress further.
    }
  } else {
    // The node threads make progress on their own; the driver thread just
    // wakes up periodically, parks the world, and inspects race-free.
    const auto Slice = std::chrono::milliseconds(2);
    while (T.now() - StartT < static_cast<sim::SimTime>(Opts.SafetyCap)) {
      std::this_thread::sleep_for(Slice);
      bool AllDone = false;
      Cluster->withPausedWorld([&]() {
        SampleBacklog();
        std::lock_guard<std::mutex> G(State->Mu);
        AllDone = State->Completed >= W.NumOps && RT->fullyReplicated();
      });
      if (AllDone) {
        Done = true;
        break;
      }
    }
  }
  const sim::SimTime EndT = T.now();

  // Join the node threads (no-op on sim) before touching State without
  // the lock: after shutdown() no closure capturing this frame can run.
  T.shutdown();

  RunResult R = std::move(State->Result);
  R.CompletedOps = State->Completed;
  R.RejectedOps = State->Rejected;
  R.DurationUs = sim::toMicros(EndT - StartT);
  R.Completed = Done;
  if (BacklogSamples)
    R.MeanBacklogCalls = BacklogSum / static_cast<double>(BacklogSamples);
  R.MaxBacklogCalls = BacklogMax;
  // Throughput counts the calls answered while the clients still had
  // calls to issue; the tail after the last issue is the drain.
  const bool AllIssued = State->IssuedTotal >= W.NumOps;
  const sim::SimTime MeasuredEnd = AllIssued ? State->LastIssueT : EndT;
  const double MeasuredUs = sim::toMicros(MeasuredEnd - StartT);
  R.DrainUs = sim::toMicros(EndT - MeasuredEnd);
  if (MeasuredUs > 0)
    R.ThroughputOpsPerUs =
        static_cast<double>(AllIssued ? State->CompletedAtLastIssue
                                      : State->Completed) /
        MeasuredUs;
  if (State->Completed)
    R.MeanResponseUs =
        State->RespSum / static_cast<double>(State->Completed);
  if (State->UpdateRespN)
    R.MeanUpdateResponseUs =
        State->UpdateRespSum / static_cast<double>(State->UpdateRespN);
  if (State->QueryRespN)
    R.MeanQueryResponseUs =
        State->QueryRespSum / static_cast<double>(State->QueryRespN);
  if (!State->RespSamples.empty()) {
    std::sort(State->RespSamples.begin(), State->RespSamples.end());
    R.P50ResponseUs = sortedQuantile(State->RespSamples, 0.50);
    R.P99ResponseUs = sortedQuantile(State->RespSamples, 0.99);
    R.MaxResponseUs = State->RespSamples.back();
  }
  if (DoReconfig && State->ReconfigTriggered) {
    R.ReconfigInstalled = State->ReconfigInstalled;
    R.WrongEpochRetries = State->WrongEpochRetries;
    double SteadyUs = sim::toMicros(State->TransStartT - StartT);
    if (SteadyUs > 0)
      R.SteadyThroughputOpsPerUs =
          static_cast<double>(State->PhaseCompleted[0]) / SteadyUs;
    if (State->Phase == 2) {
      double DuringUs =
          sim::toMicros(State->TransEndT - State->TransStartT);
      // The after window ends at the last completion: the tail from
      // there to EndT is the full-replication drain (no client is
      // being served), which would dilute the after-phase rate.
      sim::SimTime AfterEnd = std::max(State->LastDoneT, State->TransEndT);
      double AfterUs = sim::toMicros(AfterEnd - State->TransEndT);
      R.TransitionUs = DuringUs;
      if (DuringUs > 0)
        R.DuringThroughputOpsPerUs =
            static_cast<double>(State->PhaseCompleted[1]) / DuringUs;
      if (AfterUs > 0)
        R.AfterThroughputOpsPerUs =
            static_cast<double>(State->PhaseCompleted[2]) / AfterUs;
    }
  }
  R.ClusterStats = RT->statsSnapshot();
  return R;
}

RunResult benchlib::runWorkload(const ObjectType &Type,
                                const WorkloadSpec &Workload,
                                const RunnerOptions &Opts) {
  std::vector<RunResult> Runs;
  for (unsigned Rep = 0; Rep < std::max(1u, Opts.Repetitions); ++Rep)
    Runs.push_back(
        runOnce(Type, Workload, Opts, Workload.Seed + Rep * 7919));
  return averageRuns(Runs);
}
