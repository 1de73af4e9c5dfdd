//===- tests/DeltaTests.cpp - Delta propagation equivalence suite -------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Delta-state summary propagation must be *observationally invisible*: a
// cluster shipping bounded delta frames (plus a full image whenever a
// receiver asks for one after a gap) fed the same client schedule as a
// classic full-image cluster must reach the same converged state and
// answer every query the same way at every quiescent point. This suite
// drives randomized schedules through classic, delta-unbatched and
// delta-batched worlds in lockstep for every registered type, heals a
// dropped frame for every summarizing type, replays delta executions under
// recorded fault schedules, pins the crash-mid-delta-stream and
// crash-mid-anti-entropy recovery paths deterministically, exercises gap
// healing after dropped frames, pins that a gap-free run ships no full
// image, and regression-tests the summary-slot overflow fallback and the
// oversize-reject gate (docs/deltas.md).
//
// The cluster-level corpus also runs on the shared-memory transport (one
// OS thread per node); those instances carry "shm_" in their names so the
// CI TSan pass can select them. Its unbatched half drops one frame, so a
// full-image request and the chunked image that answers it cross node
// threads.
//
// Schedule count per type defaults to a smoke-sized value; set the
// HAMBAND_DELTA_SCHEDULES environment variable (e.g. to 1000) for the
// long randomized acceptance runs under ASan/TSan.
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/explore/Harness.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/semantics/RdmaSemantics.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <tuple>

using namespace hamband;
using namespace hamband::rdma;
using namespace hamband::runtime;

namespace {

template <typename PredT>
bool runUntil(sim::Simulator &Sim, PredT Pred, double CapUs = 300000.0) {
  sim::SimTime Cap = Sim.now() + sim::micros(CapUs);
  while (Sim.now() < Cap) {
    if (Pred())
      return true;
    Sim.run(Sim.now() + sim::micros(20));
  }
  return Pred();
}

/// Stable per-type seed (std::hash is not stable across libraries).
std::uint64_t typeSeed(const std::string &Name) {
  std::uint64_t H = 1469598103934665603ull;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

std::string sanitized(std::string Name) {
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

unsigned scheduleCount() {
  if (const char *E = std::getenv("HAMBAND_DELTA_SCHEDULES")) {
    long N = std::atol(E);
    if (N > 0)
      return static_cast<unsigned>(N);
  }
  return 3;
}

struct IssuedCall {
  ProcessId Origin;
  Call TheCall;
};

std::vector<IssuedCall> makeSchedule(const ObjectType &T, unsigned NumNodes,
                                     unsigned Count, std::uint64_t Seed) {
  const CoordinationSpec &Spec = T.coordination();
  sim::Rng R(Seed);
  std::vector<MethodId> Updates = Spec.updateMethods();
  std::vector<IssuedCall> Out;
  for (unsigned I = 0; I < Count; ++I) {
    MethodId M = R.pick(Updates);
    ProcessId P;
    if (Spec.category(M) == MethodCategory::Conflicting)
      P = *Spec.syncGroup(M) % NumNodes;
    else
      P = static_cast<ProcessId>(R.index(NumNodes));
    Out.push_back({P, T.randomClientCall(M, P, 1000 + I, R)});
  }
  return Out;
}

/// One cluster plus its private simulator, so the compared worlds advance
/// independently but can be inspected at quiescent points.
struct World {
  sim::Simulator Sim;
  HambandCluster C;
  unsigned Done = 0;

  World(const ObjectType &T, unsigned Nodes, const HambandConfig &Cfg)
      : C(Sim, Nodes, T, {}, Cfg) {
    C.start();
  }

  void submit(const IssuedCall &IC) {
    C.submit(IC.Origin, IC.TheCall, [this](bool, Value) { ++Done; });
  }

  bool drain(unsigned Expect) {
    return runUntil(Sim, [&] { return Done == Expect && C.fullyReplicated(); });
  }
};

HambandConfig deltaConfig() {
  HambandConfig Cfg;
  Cfg.Delta.Enabled = true;
  return Cfg;
}

std::uint64_t nodeCounter(HambandCluster &C, ProcessId P, const char *Name) {
  return C.node(P).statsSnapshot().counter(Name);
}

/// Gap repairs node \p P completed: the count of its delta.repair_ns
/// spans.
std::uint64_t repairSpans(HambandCluster &C, ProcessId P) {
  obs::StatsSnapshot S = C.node(P).statsSnapshot();
  const obs::HistogramSnapshot *H = S.histogram("delta.repair_ns");
  return H ? H->Count : 0;
}

/// A call of \p Calls whose frame can be dropped and still be revealed as
/// a gap: the first reducible call of its origin such that the origin
/// issues a later call of the same summarization group. Unbatched, it is
/// the first frame its origin ships. Its index, or Calls.size() when none.
std::size_t droppableCall(const ObjectType &T,
                          const std::vector<IssuedCall> &Calls) {
  const CoordinationSpec &Spec = T.coordination();
  std::vector<bool> Reduced(Calls.size(), false); // Per origin.
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    std::optional<unsigned> G = Spec.sumGroup(Calls[I].TheCall.Method);
    if (!G || Reduced[Calls[I].Origin])
      continue;
    Reduced[Calls[I].Origin] = true;
    for (std::size_t J = I + 1; J < Calls.size(); ++J)
      if (Calls[J].Origin == Calls[I].Origin &&
          Spec.sumGroup(Calls[J].TheCall.Method) == G)
        return I;
  }
  return Calls.size();
}

} // namespace

//===----------------------------------------------------------------------===//
// Randomized delta-vs-classic equivalence, all registered types
//===----------------------------------------------------------------------===//
// Three worlds in lockstep per schedule: the classic full-image reference,
// a delta-unbatched world and a delta-batched world. Nothing drops a frame,
// so no receiver finds a gap: each delta world of a summarizing type ships
// delta frames only, and nobody asks for a full image.

class DeltaEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(DeltaEquivalence, MatchesClassicAtEveryQuiescentPoint) {
  auto T = makeType(GetParam());
  const CoordinationSpec &Spec = T->coordination();
  const unsigned Nodes = 3;
  const bool Exact = explore::isObservationIndependent(GetParam());
  const unsigned Schedules = scheduleCount();
  // Delta frames, full images and full-image requests shipped by the
  // delta-unbatched and the delta-batched worlds over all schedules.
  std::uint64_t Deltas[2] = {0, 0}, Fulls[2] = {0, 0}, Requests[2] = {0, 0};

  for (unsigned S = 0; S < Schedules; ++S) {
    std::uint64_t Seed = typeSeed(GetParam()) ^ (0xde17a5ull * (S + 1));
    sim::Rng Knobs(Seed);
    HambandConfig DCfg = deltaConfig();
    HambandConfig BCfg = DCfg;
    BCfg.Batch.Enabled = true;
    BCfg.Batch.MaxCalls =
        static_cast<std::uint32_t>(Knobs.uniformInt(2, 16));
    BCfg.Batch.FlushInterval = sim::micros(Knobs.uniformInt(1, 4));
    const unsigned Burst = static_cast<unsigned>(Knobs.uniformInt(1, 6));

    World R(*T, Nodes, HambandConfig{});
    World D(*T, Nodes, DCfg);
    World B(*T, Nodes, BCfg);
    std::vector<IssuedCall> Calls = makeSchedule(*T, Nodes, 24, Seed);
    sim::Rng QueryRng(Seed ^ 0x9e5ull);

    unsigned Submitted = 0;
    while (Submitted < Calls.size()) {
      unsigned ChunkEnd = std::min<unsigned>(Submitted + 8, Calls.size());
      while (Submitted < ChunkEnd) {
        unsigned BurstEnd = std::min<unsigned>(Submitted + Burst, ChunkEnd);
        for (; Submitted < BurstEnd; ++Submitted) {
          R.submit(Calls[Submitted]);
          D.submit(Calls[Submitted]);
          B.submit(Calls[Submitted]);
        }
        R.Sim.run(R.Sim.now() + sim::micros(2));
        D.Sim.run(D.Sim.now() + sim::micros(2));
        B.Sim.run(B.Sim.now() + sim::micros(2));
      }
      ASSERT_TRUE(R.drain(Submitted)) << GetParam() << " schedule " << S;
      ASSERT_TRUE(D.drain(Submitted)) << GetParam() << " schedule " << S;
      ASSERT_TRUE(B.drain(Submitted)) << GetParam() << " schedule " << S;

      ASSERT_TRUE(R.C.converged()) << GetParam() << " schedule " << S;
      ASSERT_TRUE(D.C.converged()) << GetParam() << " schedule " << S;
      ASSERT_TRUE(B.C.converged()) << GetParam() << " schedule " << S;
      for (ProcessId P = 0; P < Nodes; ++P) {
        EXPECT_TRUE(T->invariant(D.C.node(P).visibleState()))
            << GetParam() << " schedule " << S << " node " << P;
        EXPECT_TRUE(T->invariant(B.C.node(P).visibleState()))
            << GetParam() << " schedule " << S << " node " << P;
      }
      if (!Exact)
        continue;
      for (ProcessId P = 0; P < Nodes; ++P) {
        EXPECT_TRUE(R.C.node(P).visibleState().equals(
            D.C.node(P).visibleState()))
            << GetParam() << " schedule " << S << " node " << P
            << ":\n  classic: " << R.C.node(P).visibleState().str()
            << "\n  delta:   " << D.C.node(P).visibleState().str();
        EXPECT_TRUE(R.C.node(P).visibleState().equals(
            B.C.node(P).visibleState()))
            << GetParam() << " schedule " << S << " node " << P
            << ":\n  classic:       " << R.C.node(P).visibleState().str()
            << "\n  delta+batched: " << B.C.node(P).visibleState().str();
        for (ProcessId From = 0; From < Nodes; ++From)
          for (MethodId M = 0; M < T->numMethods(); ++M) {
            EXPECT_EQ(R.C.node(P).applied(From, M),
                      D.C.node(P).applied(From, M))
                << GetParam() << " schedule " << S;
            EXPECT_EQ(R.C.node(P).applied(From, M),
                      B.C.node(P).applied(From, M))
                << GetParam() << " schedule " << S;
          }
        // Every query method answers identically in all three worlds.
        for (MethodId M = 0; M < T->numMethods(); ++M) {
          if (Spec.category(M) != MethodCategory::Query)
            continue;
          Call QC = T->randomClientCall(M, P, 9000 + Submitted, QueryRng);
          Value Ref = T->query(R.C.node(P).visibleState(), QC);
          EXPECT_EQ(Ref, T->query(D.C.node(P).visibleState(), QC))
              << GetParam() << " schedule " << S << " query " << QC.str();
          EXPECT_EQ(Ref, T->query(B.C.node(P).visibleState(), QC))
              << GetParam() << " schedule " << S << " query " << QC.str();
        }
      }
    }
    for (unsigned K = 0; K < 2; ++K) {
      obs::StatsSnapshot Stats = (K == 0 ? D : B).C.statsSnapshot();
      Deltas[K] += Stats.counter("node.delta.out");
      Fulls[K] += Stats.counter("node.delta.full_out");
      Requests[K] += Stats.counter("node.delta.full_req_out");
    }
  }
  for (unsigned K = 0; K < 2; ++K) {
    const char *World = K == 0 ? "delta" : "delta+batched";
    EXPECT_EQ(Fulls[K], 0u) << GetParam() << " " << World;
    EXPECT_EQ(Requests[K], 0u) << GetParam() << " " << World;
    if (Spec.numSumGroups() != 0) {
      EXPECT_GE(Deltas[K], 1u) << GetParam() << " " << World;
    }
  }
}

//===----------------------------------------------------------------------===//
// Delta executions under fault schedules, with seed replay
//===----------------------------------------------------------------------===//
// A delta-shipping batched cluster runs under a generated fault schedule
// (one-sided delays model dropped/late doorbells; CrashOnStageProb crashes
// sources in the exact window where a flush image is staged but its remote
// writes are not yet posted, and a recovered staged frame that overtakes
// its ring predecessor asks for a full image). The recorded trace then
// drives a second, identical run: determinism demands bit-identical traces
// and per-node outcomes.

namespace {

struct FaultRunResult {
  sim::FaultTrace Trace;
  std::vector<bool> Live;
  std::vector<std::string> States;
  bool Replicated = false;
};

FaultRunResult runDeltaUnderFaults(const ObjectType &T, unsigned Nodes,
                                   unsigned Count, std::uint64_t Seed,
                                   const sim::FaultSpec &Spec,
                                   const sim::FaultTrace *Replay) {
  const CoordinationSpec &CSpec = T.coordination();
  HambandConfig Cfg = deltaConfig();
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 6;
  sim::Simulator Sim;
  HambandCluster C(Sim, Nodes, T, {}, Cfg);
  std::unique_ptr<sim::FaultInjector> FI;
  if (Replay)
    FI = std::make_unique<sim::FaultInjector>(Sim, *Replay);
  else
    FI = std::make_unique<sim::FaultInjector>(
        Sim, sim::FaultPlan::generate(Seed, Spec, Nodes));
  C.attachFaultInjector(*FI);
  FI->arm();
  C.start();

  sim::Rng R(Seed ^ 0x5ca1ab1eull);
  std::vector<MethodId> Updates = CSpec.updateMethods();
  for (unsigned I = 0; I < Count; ++I) {
    MethodId M = R.pick(Updates);
    ProcessId P0;
    if (CSpec.category(M) == MethodCategory::Conflicting)
      P0 = *CSpec.syncGroup(M) % Nodes;
    else
      P0 = static_cast<ProcessId>(R.index(Nodes));
    ProcessId P = P0;
    bool Routed = false;
    for (unsigned K = 0; K < Nodes; ++K) {
      ProcessId Q = (P0 + K) % Nodes;
      if (C.isLive(Q) && !C.node(Q).isOutOfService()) {
        P = Q;
        Routed = true;
        break;
      }
    }
    if (!Routed)
      continue;
    C.submit(P, T.randomClientCall(M, P, 1000 + I, R), [](bool, Value) {});
    if (I % 3 == 2)
      Sim.run(Sim.now() + sim::micros(3));
  }

  Sim.run(std::max(Spec.Horizon, Spec.HealBy) + sim::millis(1));
  FaultRunResult Out;
  Out.Replicated =
      runUntil(Sim, [&] { return C.fullyReplicatedLive(); }, 400000.0);
  Out.Trace = FI->trace();
  for (ProcessId P = 0; P < Nodes; ++P) {
    Out.Live.push_back(C.isLive(P));
    Out.States.push_back(C.isLive(P) ? C.node(P).visibleState().str()
                                     : std::string());
    if (C.isLive(P)) {
      EXPECT_TRUE(T.invariant(C.node(P).visibleState()))
          << T.name() << " node " << P;
    }
  }
  EXPECT_TRUE(C.convergedLive()) << T.name();
  return Out;
}

} // namespace

TEST_P(DeltaEquivalence, FaultScheduleRecordsAndReplaysIdentically) {
  auto T = makeType(GetParam());
  const unsigned Nodes = 4;
  sim::FaultSpec Spec;
  Spec.OneSidedDelayProb = 0.05;
  Spec.NumSuspends = 1;
  Spec.NumCrashes = 1;
  Spec.CrashOnStageProb = 0.01;
  std::uint64_t Seed = typeSeed(GetParam()) ^ 0xde17af17ull;

  FaultRunResult First =
      runDeltaUnderFaults(*T, Nodes, 30, Seed, Spec, nullptr);
  ASSERT_TRUE(First.Replicated) << GetParam();
  EXPECT_FALSE(First.Trace.Events.empty()) << GetParam();

  FaultRunResult Second =
      runDeltaUnderFaults(*T, Nodes, 30, Seed, Spec, &First.Trace);
  ASSERT_TRUE(Second.Replicated) << GetParam();
  EXPECT_TRUE(First.Trace == Second.Trace) << GetParam();
  EXPECT_EQ(First.Live, Second.Live) << GetParam();
  EXPECT_EQ(First.States, Second.States) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredTypes, DeltaEquivalence,
    ::testing::ValuesIn(registeredTypeNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return sanitized(Info.param);
    });

//===----------------------------------------------------------------------===//
// A dropped frame heals on request, every summarizing type
//===----------------------------------------------------------------------===//
// One schedule runs through the classic reference, a delta-unbatched world
// and a delta-batched world. In each delta world one receiver drops the
// frame of a reducible call whose source issues a later call of the same
// group: that later frame reveals the gap, the receiver asks the source
// for the full image once, the source ships it once (in the batched world
// often in place of a pending delta), and the world must end where the
// classic reference does.

namespace {

/// The registered types with at least one summarization group.
std::vector<std::string> summarizingTypeNames() {
  std::vector<std::string> Out;
  for (const std::string &Name : registeredTypeNames())
    if (makeType(Name)->coordination().numSumGroups() != 0)
      Out.push_back(Name);
  return Out;
}

} // namespace

class DeltaRepairEquivalence : public ::testing::TestWithParam<std::string> {
};

TEST_P(DeltaRepairEquivalence, DroppedFrameHealsToTheClassicState) {
  auto T = makeType(GetParam());
  const CoordinationSpec &Spec = T->coordination();
  const unsigned Nodes = 3;
  const bool Exact = explore::isObservationIndependent(GetParam());
  const std::uint64_t Seed = typeSeed(GetParam()) ^ 0x4e9a1full;
  std::vector<IssuedCall> Calls = makeSchedule(*T, Nodes, 24, Seed);
  const std::size_t K = droppableCall(*T, Calls);
  ASSERT_LT(K, Calls.size()) << GetParam() << ": no droppable call";
  const ProcessId Src = Calls[K].Origin;
  const ProcessId Dst = (Src + 1) % Nodes;

  World R(*T, Nodes, HambandConfig{});
  for (const IssuedCall &IC : Calls)
    R.submit(IC);
  ASSERT_TRUE(R.drain(Calls.size())) << GetParam();
  ASSERT_TRUE(R.C.converged()) << GetParam();

  HambandConfig BCfg = deltaConfig();
  BCfg.Batch.Enabled = true;
  for (const HambandConfig &Cfg : {deltaConfig(), BCfg}) {
    const std::string Label =
        GetParam() + (Cfg.Batch.Enabled ? " delta+batched" : " delta");
    World D(*T, Nodes, Cfg);
    // One call at a time up to the dropped one, so its frame carries it
    // alone; the rest of the schedule in one burst.
    for (std::size_t I = 0; I < K; ++I) {
      D.submit(Calls[I]);
      ASSERT_TRUE(D.drain(I + 1)) << Label;
    }
    D.C.node(Dst).summaries().dropDeltasForTest(Src, 1);
    bool Folded = false;
    D.C.submit(Calls[K].Origin, Calls[K].TheCall, [&](bool Ok, Value) {
      Folded = Ok;
      ++D.Done;
    });
    ASSERT_TRUE(runUntil(D.Sim, [&] { return D.Done == K + 1; })) << Label;
    ASSERT_TRUE(Folded) << Label << ": the dropped call must ship a frame";
    for (std::size_t I = K + 1; I < Calls.size(); ++I)
      D.submit(Calls[I]);
    ASSERT_TRUE(D.drain(Calls.size())) << Label;
    ASSERT_TRUE(D.C.converged()) << Label;

    // One gap, one request, one image, one completed repair.
    for (ProcessId P = 0; P < Nodes; ++P) {
      obs::StatsSnapshot S = D.C.node(P).statsSnapshot();
      EXPECT_EQ(S.counter("node.delta.full_req_out"), P == Dst ? 1u : 0u)
          << Label << " node " << P;
      EXPECT_EQ(S.counter("node.delta.full_req_in"), P == Src ? 1u : 0u)
          << Label << " node " << P;
      EXPECT_EQ(S.counter("node.delta.full_out"), P == Src ? 1u : 0u)
          << Label << " node " << P;
      EXPECT_EQ(repairSpans(D.C, P), P == Dst ? 1u : 0u)
          << Label << " node " << P;
      EXPECT_TRUE(T->invariant(D.C.node(P).visibleState()))
          << Label << " node " << P;
    }
    EXPECT_GE(nodeCounter(D.C, Dst, "node.delta.gap"), 1u) << Label;
    if (!Exact) {
      EXPECT_TRUE(D.C.appliedTablesEqual()) << Label;
      continue;
    }
    sim::Rng QueryRng(Seed ^ 0x9e5ull);
    for (ProcessId P = 0; P < Nodes; ++P) {
      EXPECT_TRUE(R.C.node(P).visibleState().equals(
          D.C.node(P).visibleState()))
          << Label << " node " << P
          << ":\n  classic: " << R.C.node(P).visibleState().str()
          << "\n  delta:   " << D.C.node(P).visibleState().str();
      for (ProcessId From = 0; From < Nodes; ++From)
        for (MethodId M = 0; M < T->numMethods(); ++M)
          EXPECT_EQ(R.C.node(P).applied(From, M),
                    D.C.node(P).applied(From, M))
              << Label << " node " << P;
      for (MethodId M = 0; M < T->numMethods(); ++M) {
        if (Spec.category(M) != MethodCategory::Query)
          continue;
        Call QC = T->randomClientCall(M, P, 9000, QueryRng);
        EXPECT_EQ(T->query(R.C.node(P).visibleState(), QC),
                  T->query(D.C.node(P).visibleState(), QC))
            << Label << " query " << QC.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SummarizingTypes, DeltaRepairEquivalence,
    ::testing::ValuesIn(summarizingTypeNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return sanitized(Info.param);
    });

//===----------------------------------------------------------------------===//
// Deterministic crash recovery
//===----------------------------------------------------------------------===//

TEST(DeltaCrashRecovery, CrashMidDeltaStreamRecoversFromStagedImage) {
  // Unbatched delta mode: every flush of a counter ships a delta frame and
  // stages the full image (it fits the backup slot) for crash-atomicity.
  // The source crashes at stage #3 -- the third delta's image is staged
  // but its remote writes are not posted -- so peers sit one version
  // behind with no torn delta, and recovery installs the staged FULL image
  // (the idempotent tier), not a replayed delta.
  sim::Simulator Sim;
  auto T = makeType("counter");
  MethodId Add = T->methodId("add");
  HambandCluster C(Sim, 3, *T, {}, deltaConfig());
  C.start();

  unsigned Stages = 0;
  std::uint64_t DeltasAtCrash = 0, FullsAtCrash = 0;
  C.node(0).broadcast().setOnStage([&] {
    if (++Stages != 3)
      return;
    // ship() counts the flush's frame before it stages.
    DeltasAtCrash = nodeCounter(C, 0, "node.delta.out");
    FullsAtCrash = nodeCounter(C, 0, "node.delta.full_out");
    C.crashNode(0);
  });
  // Deltas #1 and #2 replicate over the rings; the remaining four never
  // get past the third stage (the crash also cancels their in-flight
  // writes).
  unsigned Done = 0;
  for (unsigned I = 0; I < 2; ++I) {
    C.submit(0, Call(Add, {5}, 0, 100 + I), [&](bool, Value) { ++Done; });
    ASSERT_TRUE(
        runUntil(Sim, [&] { return Done == I + 1 && C.fullyReplicated(); }));
  }
  for (unsigned I = 2; I < 6; ++I)
    C.submit(0, Call(Add, {5}, 0, 100 + I), [](bool, Value) {});

  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, Add) == 3 && C.node(2).applied(0, Add) == 3;
  }));
  EXPECT_EQ(Stages, 3u);
  EXPECT_EQ(DeltasAtCrash, 3u) << "the crashed flush must ship a delta";
  EXPECT_EQ(FullsAtCrash, 0u);
  EXPECT_FALSE(C.isLive(0));
  MethodId Read = T->methodId("read");
  EXPECT_EQ(T->query(C.node(1).visibleState(), Call(Read, {}, 1, 0)), 15);
  EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
  // Both peers joined deltas #1 and #2 from the ring and recovered
  // version 3 from the staged image; neither buffered a torn frame.
  for (ProcessId P = 1; P < 3; ++P) {
    obs::StatsSnapshot S = C.node(P).statsSnapshot();
    EXPECT_EQ(S.counter("node.delta.in"), 2u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_in"), 0u) << "node " << P;
    EXPECT_EQ(C.node(P).recoveredBroadcasts(), 1u) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().bufferedFrames(0, 0), 0u) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().version(0, 0), 3u) << "node " << P;
  }
}

namespace {

/// A gset summary holding {0, .., N-1}, used to seed big-state clusters.
Call bigGSetSummary(const ObjectType &T, unsigned N) {
  std::vector<Value> Elems;
  Elems.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Elems.push_back(static_cast<Value>(I));
  return Call(T.methodId("add"), std::move(Elems), 0, 0);
}

/// The gap the chunked-image tests open on a 3-node cluster whose node 0
/// holds a seeded gset: call 1 replicates, both receivers drop call 2's
/// frame, and call 3's frame reveals the gap, so each receiver asks node 0
/// for its full image. Returns the number of calls submitted.
unsigned openGapAtBothPeers(sim::Simulator &Sim, HambandCluster &C,
                            const ObjectType &T) {
  MethodId Add = T.methodId("add");
  unsigned Calls = 0, Done = 0;
  auto Submit = [&] {
    ++Calls;
    C.submit(0, Call(Add, {static_cast<Value>(1000 + Calls)}, 0, Calls),
             [&Done](bool Ok, Value) {
               EXPECT_TRUE(Ok);
               ++Done;
             });
  };
  Submit();
  EXPECT_TRUE(runUntil(Sim, [&] { return Done == 1 && C.fullyReplicated(); }));
  for (ProcessId P = 1; P < 3; ++P)
    C.node(P).summaries().dropDeltasForTest(0, 1);
  Submit();
  Submit();
  // Both calls are answered (their frames sit in the peers' rings) before
  // the requests they provoke reach node 0.
  EXPECT_TRUE(runUntil(Sim, [&] { return Done == Calls; }));
  return Calls;
}

} // namespace

TEST(DeltaCrashRecovery, ChunkedAntiEntropyDeliversAtomically) {
  // A seeded 300-element gset ships one-element delta frames. Both
  // receivers drop the second, the third reveals the gap, and each asks
  // for the full image, which a ring geometry with ~240 summary args per
  // record splits into two chunks. Both chunks must reassemble into one
  // atomic install: the peers jump to the image's version with the
  // complete element set, including the element only the image carried.
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg = deltaConfig();
  Cfg.FreeGeom = RingGeometry{64, 64};
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();
  C.seedReducibleState(0, 0, bigGSetSummary(*T, 300), 300);

  const unsigned Calls = openGapAtBothPeers(Sim, C, *T);
  ASSERT_TRUE(runUntil(Sim, [&] { return C.fullyReplicated(); }));
  EXPECT_EQ(nodeCounter(C, 0, "node.delta.out"), Calls);
  EXPECT_EQ(nodeCounter(C, 0, "node.delta.full_out"), 1u);

  MethodId Size = T->methodId("size");
  MethodId Contains = T->methodId("contains");
  for (ProcessId P = 0; P < 3; ++P) {
    EXPECT_EQ(C.node(P).applied(0, Add), 300u + Calls) << "node " << P;
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)),
              static_cast<Value>(300 + Calls))
        << "node " << P;
    // The dropped call's element reached the peers only in the full image.
    EXPECT_EQ(T->query(C.node(P).visibleState(),
                       Call(Contains, {static_cast<Value>(1002)}, P, 0)),
              1)
        << "node " << P;
  }
  for (ProcessId P = 1; P < 3; ++P) {
    EXPECT_EQ(C.node(P).statsSnapshot().counter("node.delta.full_in"), 2u)
        << "node " << P << " must receive both chunks";
    EXPECT_EQ(C.node(P).summaries().version(0, 0), 300u + Calls)
        << "node " << P;
    EXPECT_EQ(C.node(P).summaries().bufferedFrames(0, 0), 0u) << "node " << P;
  }
}

TEST(DeltaCrashRecovery, CrashMidAntiEntropyRecoversUntorn) {
  // Same chunked-image setup, and the source crashes at the stage point of
  // the flush that ships the chunked full image both receivers asked for:
  // the image is staged whole while NONE of its chunk writes are posted.
  // Peers must recover the complete image from the backup slot -- never a
  // torn prefix of its chunks -- and that install closes their gap.
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg = deltaConfig();
  Cfg.FreeGeom = RingGeometry{64, 64};
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();
  C.seedReducibleState(0, 0, bigGSetSummary(*T, 300), 300);

  // ship() counts the full image before its flush stages.
  bool CrashedOnFull = false;
  C.node(0).broadcast().setOnStage([&] {
    if (nodeCounter(C, 0, "node.delta.full_out") == 0)
      return;
    CrashedOnFull = true;
    C.crashNode(0);
  });
  const unsigned Calls = openGapAtBothPeers(Sim, C, *T);
  ASSERT_TRUE(runUntil(Sim, [&] { return !C.isLive(0); }));
  ASSERT_TRUE(CrashedOnFull);
  EXPECT_EQ(nodeCounter(C, 0, "node.delta.full_req_in"), 2u)
      << "the image answers both requests";

  const std::uint64_t Version = 300 + Calls;
  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, Add) == Version &&
           C.node(2).applied(0, Add) == Version;
  }));
  MethodId Size = T->methodId("size");
  for (ProcessId P = 1; P < 3; ++P) {
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)),
              static_cast<Value>(Version))
        << "node " << P;
    EXPECT_EQ(C.node(P).summaries().version(0, 0), Version) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().bufferedFrames(0, 0), 0u) << "node " << P;
    EXPECT_EQ(C.node(P).recoveredBroadcasts(), 1u) << "node " << P;
    EXPECT_EQ(repairSpans(C, P), 1u) << "node " << P;
    obs::StatsSnapshot S = C.node(P).statsSnapshot();
    EXPECT_EQ(S.counter("node.delta.in"), 1u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_in"), 0u)
        << "node " << P << " must get the image from the backup slot";
  }
  EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
}

TEST(DeltaCrashRecovery, BatchedFlushStagesDeltaWhenFullImageOutgrowsSlot) {
  // A 600-element gset image (~4.8 KB) cannot fit the 4 KB backup slot.
  // Staging is decided per group, so every batched delta flush still
  // stages its delta frame instead of leaving the whole flush unstaged.
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg = deltaConfig();
  Cfg.Batch.Enabled = true;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();
  C.seedReducibleState(0, 0, bigGSetSummary(*T, 600), 600);

  // The first call pipe-flushes; the next two coalesce behind it.
  unsigned Done = 0;
  for (unsigned I = 0; I < 3; ++I)
    C.submit(0, Call(Add, {1000 + static_cast<Value>(I)}, 0, 1 + I),
             [&](bool Ok, Value) {
               EXPECT_TRUE(Ok);
               ++Done;
             });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 3 && C.fullyReplicated();
  }));

  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  std::uint64_t Flushes =
      S.counter("node.batch.flush.pipe") + S.counter("node.batch.flush.size") +
      S.counter("node.batch.flush.timeout") +
      S.counter("node.batch.flush.conf");
  EXPECT_EQ(Flushes, 2u);
  EXPECT_EQ(S.counter("node.delta.out"), 2u);
  EXPECT_EQ(S.counter("bcast.stage"), Flushes);
  EXPECT_EQ(S.counter("node.delta.stage_skipped"), 0u);
  for (ProcessId P = 1; P < 3; ++P)
    EXPECT_EQ(C.node(P).summaries().version(0, 0), 603u) << "node " << P;
}

//===----------------------------------------------------------------------===//
// Gap healing: dropped deltas buffer, the receiver asks, the image repairs
//===----------------------------------------------------------------------===//

TEST(DeltaGapHealing, DroppedDeltasBufferThenHealViaAntiEntropy) {
  // A gset seeded with 40 elements ships one-element delta frames. Frame
  // #1 arrives normally; both receivers drop frame #2 (the test hook models
  // a lost doorbell with its backup cleared); frame #3 then arrives with
  // FromSeq=42 against a held version of 41 -- a GAP each peer must park,
  // not apply -- and each peer asks node 0 once for its full image. Node
  // 0's next flush ships that image, which supersedes the parked frame;
  // later deltas join again without another gap or request.
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandCluster C(Sim, 3, *T, {}, deltaConfig());
  C.start();
  const unsigned SeedElems = 40;
  C.seedReducibleState(0, 0, bigGSetSummary(*T, SeedElems), SeedElems);

  unsigned Done = 0, Calls = 0;
  auto Submit = [&] {
    ++Calls;
    C.submit(0, Call(Add, {static_cast<Value>(1000 + Calls)}, 0, Calls),
             [&](bool, Value) { ++Done; });
  };

  Submit();
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 1 && C.fullyReplicated(); }));
  EXPECT_EQ(C.node(1).summaries().version(0, 0), SeedElems + 1u);

  for (ProcessId P = 1; P < 3; ++P)
    C.node(P).summaries().dropDeltasForTest(0, 1);
  Submit();
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 2; }));
  Sim.run(Sim.now() + sim::micros(50));
  // The drop is invisible to the source and to the peers: nothing reveals
  // the gap yet, so nothing is parked or asked for.
  for (ProcessId P = 1; P < 3; ++P) {
    EXPECT_EQ(C.node(P).summaries().version(0, 0), SeedElems + 1u)
        << "node " << P;
    EXPECT_EQ(nodeCounter(C, P, "node.delta.gap"), 0u) << "node " << P;
    EXPECT_EQ(nodeCounter(C, P, "node.delta.full_req_out"), 0u)
        << "node " << P;
  }

  // Frame #3 parks behind the gap at each peer, and the image its request
  // brings back installs at the latest version.
  Submit();
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 3 && C.fullyReplicated(); }));
  obs::StatsSnapshot Src = C.node(0).statsSnapshot();
  EXPECT_EQ(Src.counter("node.delta.out"), 3u);
  EXPECT_EQ(Src.counter("node.delta.full_out"), 1u)
      << "one image answers both requests";
  EXPECT_EQ(Src.counter("node.delta.full_req_in"), 2u);
  EXPECT_EQ(Src.counter("node.delta.full_req_out"), 0u);
  for (ProcessId P = 1; P < 3; ++P) {
    obs::StatsSnapshot S = C.node(P).statsSnapshot();
    EXPECT_EQ(S.counter("node.delta.gap"), 1u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_req_out"), 1u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_in"), 1u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.in"), 1u) << "node " << P;
    EXPECT_EQ(repairSpans(C, P), 1u) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().bufferedFrames(0, 0), 0u) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().version(0, 0), SeedElems + 3u)
        << "node " << P;
  }

  // The stream is whole again: later deltas join directly.
  for (unsigned I = 0; I < 3; ++I) {
    Submit();
    ASSERT_TRUE(
        runUntil(Sim, [&] { return Done == Calls && C.fullyReplicated(); }));
  }
  MethodId Size = T->methodId("size");
  for (ProcessId P = 0; P < 3; ++P)
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)),
              static_cast<Value>(SeedElems + Calls))
        << "node " << P;
  EXPECT_EQ(nodeCounter(C, 0, "node.delta.full_out"), 1u);
  for (ProcessId P = 1; P < 3; ++P) {
    obs::StatsSnapshot S = C.node(P).statsSnapshot();
    EXPECT_EQ(S.counter("node.delta.in"), 4u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.gap"), 1u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_req_out"), 1u) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().version(0, 0), SeedElems + Calls)
        << "node " << P;
  }
}

TEST(DeltaGapHealing, QuietSourceHealsWithoutAnotherCall) {
  // Batched delta mode: node 1 drops node 0's second frame, the third
  // reveals the gap, and node 0 then issues nothing more. Its poller must
  // ship the image node 1 asked for on its own (a repair flush carries no
  // call and counts as no coalesced flush), or node 1 stays behind forever.
  sim::Simulator Sim;
  auto T = makeType("counter");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg = deltaConfig();
  Cfg.Batch.Enabled = true;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  unsigned Done = 0;
  for (unsigned I = 0; I < 3; ++I) {
    if (I == 1)
      C.node(1).summaries().dropDeltasForTest(0, 1);
    C.submit(0, Call(Add, {1}, 0, 1 + I), [&](bool, Value) { ++Done; });
    ASSERT_TRUE(runUntil(Sim, [&] { return Done == I + 1; }));
  }
  const std::uint64_t Flushes = nodeCounter(C, 0, "node.batch.flush.pipe");
  EXPECT_EQ(Flushes, 3u) << "each call ships in its own flush";

  ASSERT_TRUE(runUntil(Sim, [&] { return C.fullyReplicated(); }));
  MethodId Read = T->methodId("read");
  for (ProcessId P = 0; P < 3; ++P)
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Read, {}, P, 0)), 3)
        << "node " << P;
  EXPECT_EQ(C.node(1).summaries().version(0, 0), 3u);
  EXPECT_EQ(C.node(1).summaries().bufferedFrames(0, 0), 0u);
  EXPECT_EQ(nodeCounter(C, 1, "node.delta.full_req_out"), 1u);
  EXPECT_EQ(nodeCounter(C, 1, "node.delta.full_in"), 1u);
  EXPECT_EQ(repairSpans(C, 1), 1u);
  EXPECT_EQ(nodeCounter(C, 2, "node.delta.full_req_out"), 0u);
  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  EXPECT_EQ(S.counter("node.delta.full_req_in"), 1u);
  EXPECT_EQ(S.counter("node.delta.full_out"), 1u);
  EXPECT_EQ(S.counter("node.delta.out"), 3u);
  EXPECT_EQ(S.counter("node.batch.flush.pipe"), Flushes);
  EXPECT_EQ(S.histogram("node.batch.calls")->Count, Flushes);
}

TEST(DeltaGapHealing, RequestShipsTheImageInPlaceOfThePendingDelta) {
  // Batched delta mode: call A ships in a pipe flush and call B waits for
  // A's writes. A full-image request that reaches node 0 meanwhile finds a
  // call pending, so no repair flush starts: the flush that carries B
  // ships the full image instead of B's delta.
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg = deltaConfig();
  Cfg.Batch.Enabled = true;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  unsigned Done = 0;
  for (unsigned I = 0; I < 2; ++I)
    C.submit(0, Call(Add, {static_cast<Value>(10 + I)}, 0, 1 + I),
             [&](bool, Value) { ++Done; });
  while (C.node(0).localUpdates() < 2)
    ASSERT_TRUE(Sim.runOne());
  ASSERT_EQ(nodeCounter(C, 0, "node.delta.out"), 1u) << "A is in flight";
  ASSERT_EQ(Done, 0u);

  SummaryDeltaFrame Req;
  Req.Full = SummaryDeltaFrame::FullRequest;
  std::vector<std::uint8_t> Bytes = encodeSummaryDelta(Req);
  C.node(0).summaries().receive(1, Bytes.data(), Bytes.size());
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 2 && C.fullyReplicated(); }));

  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  EXPECT_EQ(S.counter("node.delta.out"), 1u);
  EXPECT_EQ(S.counter("node.delta.full_out"), 1u);
  EXPECT_EQ(S.counter("node.batch.flush.pipe"), 2u);
  for (ProcessId P = 1; P < 3; ++P) {
    EXPECT_EQ(nodeCounter(C, P, "node.delta.in"), 1u) << "node " << P;
    EXPECT_EQ(nodeCounter(C, P, "node.delta.full_in"), 1u) << "node " << P;
    EXPECT_EQ(C.node(P).summaries().version(0, 0), 2u) << "node " << P;
  }
}

TEST(DeltaGapHealing, UndecodableFrameCountsAsDropped) {
  // A summary record that does not decode, or names a group the type does
  // not have, is discarded and counted, and changes no version.
  sim::Simulator Sim;
  auto T = makeType("counter");
  HambandCluster C(Sim, 3, *T, {}, deltaConfig());
  C.start();
  SummaryDeltaFrame F;
  F.ToSeq = 1;
  std::vector<std::uint8_t> Truncated = encodeSummaryDelta(F);
  Truncated.resize(Truncated.size() - 3);
  F.Group = 7;
  std::vector<std::uint8_t> BadGroup = encodeSummaryDelta(F);
  SummaryChannel &Sums = C.node(0).summaries();
  EXPECT_FALSE(Sums.receive(1, Truncated.data(), Truncated.size()));
  EXPECT_FALSE(Sums.receive(1, BadGroup.data(), BadGroup.size()));
  EXPECT_EQ(nodeCounter(C, 0, "node.delta.dropped"), 2u);
  EXPECT_EQ(Sums.version(0, 1), 0u);
}

//===----------------------------------------------------------------------===//
// Gap-free runs ship no full image
//===----------------------------------------------------------------------===//
// A full image costs its whole size on every peer's ring and holds the
// channel while the delta frames behind it wait; only a receiver that
// found a gap asks for one.

TEST(DeltaAntiEntropyOnRequest, GapFreeBigImageShipsNoFullImage) {
  // Every issuer of a 3-node gset holds 5000 seeded elements (a 40-KB
  // image), and node 0 ships 1000 one-element delta frames (76 B), one
  // flush at a time. Nothing is lost, so no node asks for an image and
  // none ships: every byte of summary traffic is delta bytes. (A byte
  // budget of one image per image-size of deltas would ship one after
  // about 527 flushes.)
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  const unsigned Nodes = 3, SeedElems = 5000, Calls = 1000;
  HambandCluster C(Sim, Nodes, *T, {}, deltaConfig());
  C.start();
  for (ProcessId P = 0; P < Nodes; ++P) {
    Call Seed = bigGSetSummary(*T, SeedElems);
    Seed.Issuer = P;
    C.seedReducibleState(0, P, Seed, SeedElems);
  }

  unsigned Done = 0;
  for (unsigned I = 0; I < Calls; ++I) {
    C.submit(0, Call(Add, {static_cast<Value>(SeedElems + I)}, 0, 1 + I),
             [&](bool Ok, Value) {
               EXPECT_TRUE(Ok);
               ++Done;
             });
    ASSERT_TRUE(runUntil(Sim, [&] { return Done == I + 1; }));
  }
  ASSERT_TRUE(runUntil(Sim, [&] { return C.fullyReplicated(); }));

  obs::StatsSnapshot Src = C.node(0).statsSnapshot();
  EXPECT_EQ(Src.counter("node.delta.out"), Calls);
  EXPECT_EQ(Src.counter("node.delta.bytes_out"),
            Calls * (SummaryDeltaHeaderBytes + summaryImageBytes(1, 1)));
  for (ProcessId P = 0; P < Nodes; ++P) {
    obs::StatsSnapshot S = C.node(P).statsSnapshot();
    EXPECT_EQ(S.counter("node.delta.full_out"), 0u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_bytes_out"), 0u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_in"), 0u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_req_out"), 0u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.full_req_in"), 0u) << "node " << P;
    EXPECT_EQ(S.counter("node.delta.gap"), 0u) << "node " << P;
  }
  MethodId Size = T->methodId("size");
  for (ProcessId P = 0; P < Nodes; ++P)
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)),
              static_cast<Value>(SeedElems + Calls))
        << "node " << P;
}

TEST(DeltaAntiEntropyOnRequest, CounterShipsOnlyDeltaFrames) {
  // A counter's image is one number, no bigger than a delta frame, yet
  // without a gap every flush still ships a delta frame. (A byte budget
  // alternated delta frame and full image.)
  sim::Simulator Sim;
  auto T = makeType("counter");
  MethodId Add = T->methodId("add");
  HambandCluster C(Sim, 3, *T, {}, deltaConfig());
  C.start();

  std::string Kinds; // One letter per flush: d(elta) or F(ull).
  std::uint64_t Seen = 0;
  unsigned Done = 0;
  for (unsigned I = 0; I < 8; ++I) {
    C.submit(0, Call(Add, {1}, 0, 1 + I), [&](bool, Value) { ++Done; });
    ASSERT_TRUE(
        runUntil(Sim, [&] { return Done == I + 1 && C.fullyReplicated(); }));
    std::uint64_t Fulls = nodeCounter(C, 0, "node.delta.full_out");
    Kinds += Fulls > Seen ? 'F' : 'd';
    Seen = Fulls;
  }
  EXPECT_EQ(Kinds, "dddddddd");
  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  EXPECT_EQ(S.counter("node.delta.out"), 8u);
  EXPECT_EQ(S.counter("node.delta.full_bytes_out"), 0u);
  MethodId Read = T->methodId("read");
  for (ProcessId P = 0; P < 3; ++P) {
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Read, {}, P, 0)), 8)
        << "node " << P;
    EXPECT_EQ(nodeCounter(C, P, "node.delta.full_req_out"), 0u)
        << "node " << P;
  }
}

//===----------------------------------------------------------------------===//
// Summary-slot overflow: graceful fallback, not an assert
//===----------------------------------------------------------------------===//
// Regression for the ship path that used to assert once a summary image
// outgrew the 512-byte slot (~57 args): classic mode must fall back to
// chunked full-image frames over the F-rings, count the overflow, and
// keep replicating.

TEST(SummarySlotOverflow, UnbatchedOverflowFallsBackToChunkedFrames) {
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandCluster C(Sim, 3, *T); // Classic config: no deltas, no batching.
  C.start();

  unsigned Done = 0;
  for (unsigned I = 0; I < 100; ++I)
    C.submit(0, Call(Add, {static_cast<Value>(I)}, 0, 100 + I),
             [&](bool Ok, Value) {
               EXPECT_TRUE(Ok);
               ++Done;
             });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 100 && C.fullyReplicated();
  }));

  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  EXPECT_GE(S.counter("node.summary.slot_overflow"), 1u);
  EXPECT_GE(S.counter("node.delta.full_out"), 1u);
  MethodId Size = T->methodId("size");
  for (ProcessId P = 0; P < 3; ++P) {
    EXPECT_EQ(C.node(P).applied(0, Add), 100u) << "node " << P;
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)), 100)
        << "node " << P;
  }
  for (ProcessId P = 1; P < 3; ++P)
    EXPECT_GE(C.node(P).statsSnapshot().counter("node.delta.full_in"), 1u)
        << "node " << P;
}

TEST(SummarySlotOverflow, BatchedOverflowFallsBackToChunkedFrames) {
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 8;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  unsigned Done = 0;
  for (unsigned I = 0; I < 100; ++I) {
    C.submit(0, Call(Add, {static_cast<Value>(I)}, 0, 100 + I),
             [&](bool, Value) { ++Done; });
    if (I % 4 == 3)
      Sim.run(Sim.now() + sim::micros(2));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 100 && C.fullyReplicated();
  }));

  EXPECT_GE(
      C.node(0).statsSnapshot().counter("node.summary.slot_overflow"), 1u);
  MethodId Size = T->methodId("size");
  for (ProcessId P = 0; P < 3; ++P)
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)), 100)
        << "node " << P;
}

TEST(SummarySlotOverflow, ConcurrentChunkStreamsStayFIFOUnderRingPressure) {
  // Regression for a liveness bug: each F-ring record used to carry its
  // own independent retry loop, so when a ring filled mid-chunk-stream a
  // retried chunk of one image could land AFTER a later image's chunks.
  // The reassembler (correctly) treats a version change as "the rest of
  // the old set is never coming", so two interleaved streams kept
  // abandoning each other and the final image never installed -- and in
  // classic slot-overflow mode there is no anti-entropy round to heal
  // the wedge. The outbound queue must stall head-first instead.
  //
  // The shape that reproduced it (mirroring the fig_bigstate bench): a
  // seeded summary big enough that every flush is a multi-chunk
  // full-image stream filling most of the (default-geometry) ring, and
  // concurrent closed-loop clients on every node, so chunk streams from
  // successive flushes overlap and hit ring-full retries mid-stream.
  sim::Simulator Sim;
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  const unsigned Nodes = 4;
  HambandConfig Cfg; // Classic mode: a dropped/wedged image stays lost.
  HambandCluster C(Sim, Nodes, *T, {}, Cfg);
  C.start();

  const std::uint64_t Elems = 100000; // ~800 KB image vs a 1 MB ring.
  {
    std::vector<Value> Seed;
    Seed.reserve(Elems);
    for (std::uint64_t I = 0; I < Elems; ++I)
      Seed.push_back(static_cast<Value>(I));
    for (unsigned N = 0; N < Nodes; ++N)
      C.seedReducibleState(0, N,
                           Call(Add, Seed, static_cast<ProcessId>(N), 0),
                           Elems);
  }

  // Pipelined closed-loop clients (the bench runner's shape: depth 8 per
  // node): each node keeps 8 submissions in flight, so chunk streams from
  // successive flushes of the SAME source genuinely overlap.
  const unsigned TotalOps = 24, Depth = 8;
  unsigned Issued = 0, Done = 0;
  // The closure reaches itself by reference: capturing its own
  // shared_ptr would be a cycle that LeakSanitizer reports.
  auto Issue = std::make_shared<std::function<void(unsigned)>>();
  *Issue = [&](unsigned Node) {
    if (Issued >= TotalOps)
      return;
    unsigned I = Issued++;
    C.submit(static_cast<ProcessId>(Node),
             Call(Add, {static_cast<Value>(200000 + I)},
                  static_cast<ProcessId>(Node), 1000 + I),
             [&, Node](bool Ok, Value) {
               EXPECT_TRUE(Ok);
               ++Done;
               (*Issue)(Node);
             });
  };
  // Staggered pipeline priming, as the bench runner does.
  for (unsigned N = 0; N < Nodes; ++N)
    for (unsigned D = 0; D < Depth; ++D)
      Sim.schedule(sim::nanos(10) * (N * Depth + D + 1),
                   [Issue, N]() { (*Issue)(N); });

  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == TotalOps && C.fullyReplicated();
  }));
  std::uint64_t AppliedTotal = 0;
  for (ProcessId P = 0; P < Nodes; ++P) {
    std::uint64_t Sum = 0;
    for (ProcessId From = 0; From < Nodes; ++From) {
      EXPECT_GE(C.node(P).applied(From, Add), Elems)
          << "node " << P << " from " << From;
      Sum += C.node(P).applied(From, Add) - Elems;
    }
    EXPECT_EQ(Sum, TotalOps) << "node " << P;
    AppliedTotal += Sum;
  }
  EXPECT_EQ(AppliedTotal, static_cast<std::uint64_t>(TotalOps) * Nodes);
  EXPECT_GE(C.node(0).statsSnapshot().counter("node.summary.slot_overflow"),
            1u);
}

TEST(SummarySlotOverflow, UnshippableCallRejectedWithoutStateMutation) {
  // Geometries where a one-element summary image can ship through neither
  // the summary slot nor a chunk frame: the F-ring record (payload 51 B)
  // cannot hold a frame header plus even one argument. Classic mode with
  // a 48-B slot (image 44 B + slot overhead > 48), and delta mode, which
  // never writes slots. The reduce path must reject the call up front
  // (Done(false)) with zero replicated-state mutation, instead of folding
  // it and wedging every future ship of the group, whatever the type.
  struct Case {
    const char *Type;
    bool Deltas;
  };
  for (Case K : {Case{"counter", false}, Case{"gset", false},
                 Case{"two-phase-set", false}, Case{"counter", true},
                 Case{"gset", true}, Case{"two-phase-set", true}}) {
    SCOPED_TRACE(std::string(K.Type) + (K.Deltas ? " delta" : " classic"));
    sim::Simulator Sim;
    auto T = makeType(K.Type);
    MethodId Add = T->methodId("add");
    HambandConfig Cfg;
    if (K.Deltas)
      Cfg.Delta.Enabled = true;
    else
      Cfg.SummarySlotBytes = 48;
    Cfg.FreeGeom = RingGeometry{4, 32}; // maxRecordPayload = 51 < 44 + 28.
    HambandCluster C(Sim, 3, *T, {}, Cfg);
    C.start();

    bool Called = false, Ok = true;
    C.submit(0, Call(Add, {5}, 0, 1), [&](bool CallOk, Value) {
      Called = true;
      Ok = CallOk;
    });
    ASSERT_TRUE(runUntil(Sim, [&] { return Called; }));
    EXPECT_FALSE(Ok);

    EXPECT_EQ(
        C.node(0).statsSnapshot().counter("node.summary.oversize_reject"),
        1u);
    StatePtr Initial = T->initialState();
    for (ProcessId P = 0; P < 3; ++P) {
      EXPECT_EQ(C.node(P).applied(0, Add), 0u) << "node " << P;
      EXPECT_TRUE(C.node(P).visibleState().equals(*Initial)) << "node " << P;
    }
  }
}

TEST(SummarySlotOverflow, ChunkBudgetCountsOnlyTheGroupsMethods) {
  // A record payload of 83 B holds a frame header (32 B), an image
  // carrying the add group's one applied count (36 B) and one argument
  // (8 B), but not the applied counts of every method of the type (two
  // for a counter, three for a gset). The chunk budget is sized for the
  // counts the frame really carries, so each call ships: the counter as
  // one record, the gset's growing image as one-argument chunks.
  struct Case {
    const char *Type;
    bool Deltas;
  };
  for (Case K : {Case{"counter", false}, Case{"gset", false},
                 Case{"counter", true}, Case{"gset", true}}) {
    SCOPED_TRACE(std::string(K.Type) + (K.Deltas ? " delta" : " classic"));
    sim::Simulator Sim;
    auto T = makeType(K.Type);
    MethodId Add = T->methodId("add");
    HambandConfig Cfg;
    if (K.Deltas)
      Cfg.Delta.Enabled = true;
    else
      Cfg.SummarySlotBytes = 48;
    Cfg.FreeGeom = RingGeometry{4, 48}; // maxRecordPayload = 83.
    HambandCluster C(Sim, 3, *T, {}, Cfg);
    C.start();

    const unsigned Calls = 3;
    unsigned Done = 0;
    for (unsigned I = 0; I < Calls; ++I)
      C.submit(0, Call(Add, {static_cast<Value>(5 + I)}, 0, 1 + I),
               [&](bool Ok, Value) {
                 EXPECT_TRUE(Ok);
                 ++Done;
               });
    ASSERT_TRUE(runUntil(Sim, [&] {
      return Done == Calls && C.fullyReplicated();
    }));
    EXPECT_EQ(
        C.node(0).statsSnapshot().counter("node.summary.oversize_reject"),
        0u);
    for (ProcessId P = 0; P < 3; ++P) {
      EXPECT_EQ(C.node(P).applied(0, Add), Calls) << "node " << P;
      EXPECT_TRUE(C.node(P).visibleState().equals(C.node(0).visibleState()))
          << "node " << P;
    }
  }
}

//===----------------------------------------------------------------------===//
// Big-state bytes: deltas ship a fraction of full images
//===----------------------------------------------------------------------===//
// The point of the feature (fig_bigstate in the bench report makes it a
// hard >= 5x gate at 1e5 elements): with a large seeded summary, classic
// mode re-ships the whole image per call while delta mode ships one
// bounded frame. A coarse sim-level sanity pin at 1e4 elements.

TEST(DeltaBytes, BigStateDeltaShipsFractionOfFullImageBytes) {
  auto T = makeType("gset");
  MethodId Add = T->methodId("add");
  const unsigned SeedElems = 10000;

  auto runWorld = [&](const HambandConfig &Cfg) {
    sim::Simulator Sim;
    HambandCluster C(Sim, 3, *T, {}, Cfg);
    C.start();
    C.seedReducibleState(0, 0, bigGSetSummary(*T, SeedElems), SeedElems);
    std::uint64_t Before = C.statsSnapshot().counter("rdma.bytes_written");
    unsigned Done = 0;
    for (unsigned I = 0; I < 8; ++I)
      C.submit(0, Call(Add, {static_cast<Value>(20000 + I)}, 0, 1 + I),
               [&](bool Ok, Value) {
                 EXPECT_TRUE(Ok);
                 ++Done;
               });
    EXPECT_TRUE(runUntil(Sim, [&] {
      return Done == 8 && C.fullyReplicated();
    }));
    MethodId Size = T->methodId("size");
    for (ProcessId P = 0; P < 3; ++P)
      EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Size, {}, P, 0)),
                static_cast<Value>(SeedElems + 8))
          << "node " << P;
    return C.statsSnapshot().counter("rdma.bytes_written") - Before;
  };

  std::uint64_t ClassicBytes = runWorld(HambandConfig{});
  std::uint64_t DeltaBytes = runWorld(deltaConfig());
  ASSERT_GT(DeltaBytes, 0u);
  EXPECT_GE(ClassicBytes, 5 * DeltaBytes)
      << "classic shipped " << ClassicBytes << "B, delta " << DeltaBytes
      << "B";
}

//===----------------------------------------------------------------------===//
// Cluster-level corpus on both transports (shm half selected in CI TSan)
//===----------------------------------------------------------------------===//

namespace {

/// One cluster deployment on the parameterized backend, with a drive loop
/// appropriate to it (see TransportConformanceTests.cpp).
struct ClusterWorld {
  ClusterWorld(TransportKind Kind, unsigned Nodes, const ObjectType &T,
               HambandConfig Cfg)
      : Kind(Kind), C(Kind, Nodes, T, NetworkModel(), std::move(Cfg)) {
    C.start();
  }

  sim::Simulator *sim() { return C.transport().simulatorOrNull(); }

  void pace() {
    if (sim::Simulator *S = sim())
      S->run(S->now() + sim::micros(3));
  }

  /// Drives until \p Done reaches \p Expect and replication finishes.
  /// After a successful shm drain the node threads are STOPPED, so
  /// callers can compare node state race-free.
  bool drain(const std::atomic<unsigned> &Done, unsigned Expect) {
    if (sim::Simulator *S = sim()) {
      sim::SimTime Cap = S->now() + sim::millis(500);
      while (S->now() < Cap &&
             !(Done.load() == Expect && C.fullyReplicated()))
        S->run(S->now() + sim::micros(20));
      return Done.load() == Expect && C.fullyReplicated();
    }
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    bool Ok = false;
    while (std::chrono::steady_clock::now() < Deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (Done.load() == Expect && C.fullyReplicatedQuiesced()) {
        Ok = true;
        break;
      }
    }
    C.stopTransport();
    return Ok;
  }

  TransportKind Kind;
  HambandCluster C;
};

using ClusterParam = std::tuple<TransportKind, std::string>;

std::string clusterParamName(
    const ::testing::TestParamInfo<ClusterParam> &Info) {
  return std::string(transportKindName(std::get<0>(Info.param))) + "_" +
         sanitized(std::get<1>(Info.param));
}

/// Exact-match corpus against the executable semantics: for
/// observation-independent conflict-free types the final state is a pure
/// function of the call multiset, so the delta-shipping runtime -- on
/// EITHER backend -- must land bit-for-bit on the semantics world's state.
/// With \p DropOne (unbatched only) one receiver drops the first frame of
/// one source, so it asks that source for the full image and the image
/// heals it.
void deltaConformConflictFree(TransportKind Kind, const std::string &Name,
                              const HambandConfig &Cfg, unsigned BurstSize,
                              bool DropOne = false) {
  auto T = makeType(Name);
  ASSERT_EQ(T->coordination().numSyncGroups(), 0u);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeSchedule(*T, Nodes, 40, 0xde17a);

  semantics::RdmaConfiguration K(*T, Nodes);
  for (const IssuedCall &IC : Calls) {
    Call Prepared = K.prepareAt(IC.Origin, IC.TheCall);
    ASSERT_TRUE(K.tryUpdate(IC.Origin, Prepared)) << Prepared.str();
  }
  K.drain();
  ASSERT_TRUE(K.quiescent());
  ASSERT_TRUE(K.checkConvergence());

  ClusterWorld W(Kind, Nodes, *T, Cfg);
  const std::size_t Dropped = DropOne ? droppableCall(*T, Calls) : Calls.size();
  const ProcessId Src = Dropped < Calls.size() ? Calls[Dropped].Origin : 0;
  const ProcessId Dst = (Src + 1) % Nodes;
  if (Dropped < Calls.size()) {
    // Armed in the receiver's own context before the source ships: its
    // first frame, which a later one of the same group follows, is lost.
    std::atomic<bool> Armed{false};
    W.C.transport().callOn(Dst, [&W, &Armed, Src, Dst] {
      W.C.node(Dst).summaries().dropDeltasForTest(Src, 1);
      Armed = true;
    });
    while (!Armed)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<unsigned> Done{0};
  std::atomic<unsigned> Failed{0};
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    W.C.submit(Calls[I].Origin, Calls[I].TheCall,
               [&Done, &Failed](bool Ok, Value) {
                 if (!Ok)
                   ++Failed;
                 ++Done;
               });
    if ((I + 1) % BurstSize == 0)
      W.pace();
  }
  ASSERT_TRUE(W.drain(Done, static_cast<unsigned>(Calls.size())))
      << Name << ": cluster did not finish (" << Done.load() << "/"
      << Calls.size() << " done)";
  EXPECT_EQ(Failed.load(), 0u) << Name;
  if (Dropped < Calls.size()) {
    EXPECT_GE(nodeCounter(W.C, Dst, "node.delta.full_req_out"), 1u) << Name;
    EXPECT_GE(nodeCounter(W.C, Src, "node.delta.full_out"), 1u) << Name;
    EXPECT_GE(nodeCounter(W.C, Dst, "node.delta.full_in"), 1u) << Name;
  }

  for (ProcessId P = 0; P < Nodes; ++P) {
    StatePtr FromSemantics = K.visibleState(P);
    EXPECT_TRUE(FromSemantics->equals(W.C.node(P).visibleState()))
        << Name << " node " << P << ":\n  semantics: "
        << FromSemantics->str()
        << "\n  runtime:   " << W.C.node(P).visibleState().str();
    for (ProcessId From = 0; From < Nodes; ++From)
      for (MethodId U = 0; U < T->numMethods(); ++U)
        EXPECT_EQ(K.applied(P, From, U), W.C.node(P).applied(From, U))
            << Name;
  }
}

/// Conflicting / observation-dependent corpus with deltas on: each world
/// converges internally and keeps the type's integrity invariant.
void deltaConformConflicting(TransportKind Kind, const std::string &Name,
                             const HambandConfig &Cfg, unsigned BurstSize) {
  auto T = makeType(Name);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeSchedule(*T, Nodes, 30, 0xde17b);

  ClusterWorld W(Kind, Nodes, *T, Cfg);
  std::atomic<unsigned> Done{0};
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    W.C.submit(Calls[I].Origin, Calls[I].TheCall,
               [&Done](bool, Value) { ++Done; });
    if ((I + 1) % BurstSize == 0)
      W.pace();
  }
  ASSERT_TRUE(W.drain(Done, static_cast<unsigned>(Calls.size())))
      << Name << ": cluster did not finish (" << Done.load() << "/"
      << Calls.size() << " done)";
  EXPECT_TRUE(W.C.converged()) << Name;
  EXPECT_TRUE(W.C.appliedTablesEqual()) << Name;
  for (ProcessId P = 0; P < Nodes; ++P)
    EXPECT_TRUE(T->invariant(W.C.node(P).visibleState()))
        << Name << " node " << P;
}

} // namespace

class DeltaConflictFreeConformance
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(DeltaConflictFreeConformance, DeltaRuntimeMatchesSemanticsExactly) {
  // Records of at most 115 B: a full image of more than a few arguments
  // ships as several chunks.
  HambandConfig Cfg = deltaConfig();
  Cfg.FreeGeom = RingGeometry{8, 32};
  deltaConformConflictFree(std::get<0>(GetParam()), std::get<1>(GetParam()),
                           Cfg, 1, /*DropOne=*/true);
}

TEST_P(DeltaConflictFreeConformance,
       BatchedDeltaRuntimeMatchesSemanticsExactly) {
  HambandConfig Cfg = deltaConfig();
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 6;
  deltaConformConflictFree(std::get<0>(GetParam()), std::get<1>(GetParam()),
                           Cfg, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DeltaConflictFreeConformance,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::Values("counter", "pn-counter", "gset", "gset-buffered",
                          "two-phase-set", "lww-register")),
    clusterParamName);

class DeltaConflictingConformance
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(DeltaConflictingConformance, WorldConvergesWithInvariantIntact) {
  HambandConfig Cfg = deltaConfig();
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 6;
  deltaConformConflicting(std::get<0>(GetParam()), std::get<1>(GetParam()),
                          Cfg, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, DeltaConflictingConformance,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::Values("bank-account", "project-management")),
    clusterParamName);
