//===- tests/BatchingTests.cpp - Batching equivalence suite -------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Reduction-aware call batching must be *observationally invisible*: a
// batched cluster fed the same client schedule as an unbatched one must
// reach the same converged state (Lemma 2) and answer every query the
// same way at every quiescent point. This suite drives randomized
// schedules through both worlds in lockstep for every registered type,
// replays batched executions under recorded fault schedules, and pins the
// crash-mid-batch recovery and each flush-trigger path deterministically.
//
// Schedule count per type defaults to a smoke-sized value; set the
// HAMBAND_BATCH_SCHEDULES environment variable (e.g. to 1000) for the
// long randomized acceptance runs under ASan/TSan.
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/explore/Harness.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

using namespace hamband;
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

unsigned scheduleCount() {
  if (const char *E = std::getenv("HAMBAND_BATCH_SCHEDULES")) {
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

/// One cluster plus its private simulator, so the batched and unbatched
/// worlds advance independently but can be compared at quiescent points.
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

} // namespace

//===----------------------------------------------------------------------===//
// Randomized batched-vs-unbatched equivalence, all registered types
//===----------------------------------------------------------------------===//

class BatchingEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(BatchingEquivalence, MatchesUnbatchedAtEveryQuiescentPoint) {
  auto T = makeType(GetParam());
  const CoordinationSpec &Spec = T->coordination();
  const unsigned Nodes = 3;
  // Batching changes propagation timing by design, so only types whose
  // final state is a pure function of the call multiset must match the
  // unbatched world exactly.
  const bool Exact = explore::isObservationIndependent(GetParam());
  const unsigned Schedules = scheduleCount();

  for (unsigned S = 0; S < Schedules; ++S) {
    std::uint64_t Seed = typeSeed(GetParam()) ^ (0xba7c4ull * (S + 1));
    sim::Rng Knobs(Seed);
    HambandConfig BCfg;
    BCfg.Batch.Enabled = true;
    BCfg.Batch.MaxCalls =
        static_cast<std::uint32_t>(Knobs.uniformInt(2, 16));
    BCfg.Batch.FlushInterval = sim::micros(Knobs.uniformInt(1, 4));
    // Burst > 1 keeps calls arriving while a flush is in flight, so the
    // accumulate/size/timeout paths all get exercised, not just pipe.
    const unsigned Burst = static_cast<unsigned>(Knobs.uniformInt(1, 6));

    World U(*T, Nodes, HambandConfig{});
    World B(*T, Nodes, BCfg);
    std::vector<IssuedCall> Calls = makeSchedule(*T, Nodes, 24, Seed);
    sim::Rng QueryRng(Seed ^ 0x9e5ull);

    unsigned Submitted = 0;
    while (Submitted < Calls.size()) {
      // One chunk: a few bursts, then drain both worlds to quiescence.
      unsigned ChunkEnd =
          std::min<unsigned>(Submitted + 8, Calls.size());
      while (Submitted < ChunkEnd) {
        unsigned BurstEnd = std::min<unsigned>(Submitted + Burst, ChunkEnd);
        for (; Submitted < BurstEnd; ++Submitted) {
          U.submit(Calls[Submitted]);
          B.submit(Calls[Submitted]);
        }
        U.Sim.run(U.Sim.now() + sim::micros(2));
        B.Sim.run(B.Sim.now() + sim::micros(2));
      }
      ASSERT_TRUE(U.drain(Submitted)) << GetParam() << " schedule " << S;
      ASSERT_TRUE(B.drain(Submitted)) << GetParam() << " schedule " << S;

      // Quiescent-point checks: both worlds converged and
      // invariant-keeping; observation-independent types agree exactly.
      ASSERT_TRUE(U.C.converged()) << GetParam() << " schedule " << S;
      ASSERT_TRUE(B.C.converged()) << GetParam() << " schedule " << S;
      for (ProcessId P = 0; P < Nodes; ++P)
        EXPECT_TRUE(T->invariant(B.C.node(P).visibleState()))
            << GetParam() << " schedule " << S << " node " << P;
      if (!Exact)
        continue;
      for (ProcessId P = 0; P < Nodes; ++P) {
        EXPECT_TRUE(U.C.node(P).visibleState().equals(
            B.C.node(P).visibleState()))
            << GetParam() << " schedule " << S << " node " << P
            << ":\n  unbatched: " << U.C.node(P).visibleState().str()
            << "\n  batched:   " << B.C.node(P).visibleState().str();
        for (ProcessId From = 0; From < Nodes; ++From)
          for (MethodId M = 0; M < T->numMethods(); ++M)
            EXPECT_EQ(U.C.node(P).applied(From, M),
                      B.C.node(P).applied(From, M))
                << GetParam() << " schedule " << S;
        // Every query method answers identically in both worlds.
        for (MethodId M = 0; M < T->numMethods(); ++M) {
          if (Spec.category(M) != MethodCategory::Query)
            continue;
          Call QC = T->randomClientCall(M, P, 9000 + Submitted, QueryRng);
          EXPECT_EQ(T->query(U.C.node(P).visibleState(), QC),
                    T->query(B.C.node(P).visibleState(), QC))
              << GetParam() << " schedule " << S << " query "
              << QC.str();
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Batched executions under fault schedules, with seed replay
//===----------------------------------------------------------------------===//
// A batched cluster runs under a generated fault schedule (one-sided
// delays model dropped/late doorbells; CrashOnStageProb crashes sources
// in the exact window where a multi-call flush image is staged but its
// remote writes are not yet posted). The recorded trace then drives a
// second, identical run: determinism demands bit-identical traces and
// per-node outcomes.

namespace {

struct FaultRunResult {
  sim::FaultTrace Trace;
  std::vector<bool> Live;
  std::vector<std::string> States;
  bool Replicated = false;
};

FaultRunResult runBatchedUnderFaults(const ObjectType &T, unsigned Nodes,
                                     unsigned Count, std::uint64_t Seed,
                                     const sim::FaultSpec &Spec,
                                     const sim::FaultTrace *Replay) {
  const CoordinationSpec &CSpec = T.coordination();
  HambandConfig Cfg;
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
    // Bursts of three keep the batching layer loaded while faults fire.
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

TEST_P(BatchingEquivalence, FaultScheduleRecordsAndReplaysIdentically) {
  auto T = makeType(GetParam());
  const unsigned Nodes = 4;
  sim::FaultSpec Spec;
  Spec.OneSidedDelayProb = 0.05;
  Spec.NumSuspends = 1;
  Spec.NumCrashes = 1;
  Spec.CrashOnStageProb = 0.01;
  std::uint64_t Seed = typeSeed(GetParam()) ^ 0xba7cf17ull;

  FaultRunResult First =
      runBatchedUnderFaults(*T, Nodes, 30, Seed, Spec, nullptr);
  ASSERT_TRUE(First.Replicated) << GetParam();
  EXPECT_FALSE(First.Trace.Events.empty()) << GetParam();

  FaultRunResult Second =
      runBatchedUnderFaults(*T, Nodes, 30, Seed, Spec, &First.Trace);
  ASSERT_TRUE(Second.Replicated) << GetParam();
  EXPECT_TRUE(First.Trace == Second.Trace) << GetParam();
  EXPECT_EQ(First.Live, Second.Live) << GetParam();
  EXPECT_EQ(First.States, Second.States) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredTypes, BatchingEquivalence,
    ::testing::ValuesIn(registeredTypeNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Deterministic crash-mid-batch recovery
//===----------------------------------------------------------------------===//

TEST(BatchingCrashRecovery, FreeBatchImageRecoversAllCallsAfterCrash) {
  // Six adds back-to-back at node 0: the first pipe-flushes immediately
  // (stage #1), the other five accumulate while that flush is in flight
  // and go out together in the completion-triggered flush (stage #2). The
  // source crashes at stage #2 -- the flush image is staged but none of
  // its remote writes are posted -- so every live peer must recover all
  // five batched calls from the backup slot.
  sim::Simulator Sim;
  auto T = makeType("gset-buffered");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  unsigned Stages = 0;
  C.node(0).broadcast().setOnStage([&] {
    if (++Stages == 2)
      C.crashNode(0);
  });
  for (unsigned I = 0; I < 6; ++I)
    C.submit(0, Call(Add, {static_cast<Value>(I)}, 0, 100 + I),
             [](bool, Value) {});

  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, Add) == 6 && C.node(2).applied(0, Add) == 6;
  }));
  EXPECT_EQ(Stages, 2u);
  EXPECT_FALSE(C.isLive(0));
  // Both peers missed the second flush entirely, so both recover its five
  // calls from the flush image.
  EXPECT_EQ(C.node(1).recoveredBroadcasts(), 5u);
  EXPECT_EQ(C.node(2).recoveredBroadcasts(), 5u);
  EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
  MethodId Size = T->methodId("size");
  EXPECT_EQ(T->query(C.node(1).visibleState(), Call(Size, {}, 1, 0)), 6);
}

TEST(BatchingCrashRecovery, SummaryImageInFlushRecoversReducedCalls) {
  // Same crash point, reducible path: batched adds coalesce into the
  // summary image carried by the flush, and peers must install it (state
  // plus applied accounting) from the backup slot.
  sim::Simulator Sim;
  auto T = makeType("counter");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  unsigned Stages = 0;
  C.node(0).broadcast().setOnStage([&] {
    if (++Stages == 2)
      C.crashNode(0);
  });
  for (unsigned I = 0; I < 6; ++I)
    C.submit(0, Call(Add, {5}, 0, 100 + I), [](bool, Value) {});

  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, Add) == 6 && C.node(2).applied(0, Add) == 6;
  }));
  EXPECT_EQ(Stages, 2u);
  MethodId Read = T->methodId("read");
  EXPECT_EQ(T->query(C.node(1).visibleState(), Call(Read, {}, 1, 0)), 30);
  EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
}

//===----------------------------------------------------------------------===//
// Flush triggers and batching metrics
//===----------------------------------------------------------------------===//

TEST(BatchingFlushTriggers, PipeAndSizeTriggersFireAndAccountAllCalls) {
  sim::Simulator Sim;
  auto T = makeType("counter");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 4;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  // One idle-arrival call: flushes immediately (pipe).
  unsigned Done = 0;
  C.submit(0, Call(Add, {1}, 0, 1), [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 1 && C.fullyReplicated(); }));
  // Nine more back-to-back: the first pipe-flushes, the rest accumulate
  // behind it and hit the MaxCalls=4 size trigger.
  for (unsigned I = 0; I < 9; ++I)
    C.submit(0, Call(Add, {1}, 0, 10 + I), [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 10 && C.fullyReplicated(); }));

  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  EXPECT_GE(S.counter("node.batch.flush.pipe"), 2u);
  EXPECT_GE(S.counter("node.batch.flush.size"), 1u);
  const obs::HistogramSnapshot *H = S.histogram("node.batch.calls");
  ASSERT_NE(H, nullptr);
  // Occupancy accounting: the per-flush occupancies sum to exactly the
  // number of batched client calls, and no flush went out empty.
  EXPECT_EQ(H->Sum, 10u);
  EXPECT_EQ(H->Count, S.counter("node.batch.flush.pipe") +
                          S.counter("node.batch.flush.size") +
                          S.counter("node.batch.flush.timeout") +
                          S.counter("node.batch.flush.conf"));
}

TEST(BatchingFlushTriggers, ConflictingCallFlushesPendingBatch) {
  // A conflicting call must not overtake reducible/free calls batched
  // before it: ConfChannel::submit flushes the pending batch before the
  // conf request leaves the node (or is processed locally by the leader).
  sim::Simulator Sim;
  auto T = makeType("bank-account");
  MethodId Deposit = T->methodId("deposit");
  MethodId Withdraw = T->methodId("withdraw");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  // Issue at node 1 (a non-leader): deposit #1 pipe-flushes, deposit #2
  // accumulates, and the withdrawal -- which needs the deposits to be
  // visible for the invariant to hold at the leader -- forces the flush.
  unsigned Done = 0;
  bool WithdrawOk = false;
  C.submit(1, Call(Deposit, {10}, 1, 1), [&](bool, Value) { ++Done; });
  C.submit(1, Call(Deposit, {10}, 1, 2), [&](bool, Value) { ++Done; });
  C.submit(1, Call(Withdraw, {15}, 1, 3), [&](bool Ok, Value) {
    ++Done;
    WithdrawOk = Ok;
  });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 3 && C.fullyReplicated(); }));

  EXPECT_TRUE(WithdrawOk);
  obs::StatsSnapshot S = C.node(1).statsSnapshot();
  EXPECT_GE(S.counter("node.batch.flush.conf"), 1u);
  MethodId Balance = T->methodId("balance");
  for (ProcessId P = 0; P < 3; ++P)
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Balance, {}, P, 0)), 5)
        << "node " << P;
}

TEST(BatchingFlushTriggers, TimeoutBackstopFlushesStragglers) {
  // Two calls back-to-back, then silence: the first flushes immediately,
  // the second accumulates behind the in-flight flush. With a flush
  // interval shorter than the write round-trip, the timer must push the
  // straggler out rather than waiting for the completion.
  sim::Simulator Sim;
  auto T = makeType("counter");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  Cfg.Batch.FlushInterval = sim::micros(1);
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();

  unsigned Done = 0;
  C.submit(0, Call(Add, {1}, 0, 1), [&](bool, Value) { ++Done; });
  C.submit(0, Call(Add, {2}, 0, 2), [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 2 && C.fullyReplicated(); }));

  obs::StatsSnapshot S = C.node(0).statsSnapshot();
  EXPECT_GE(S.counter("node.batch.flush.timeout"), 1u);
  EXPECT_EQ(C.node(0).batchPending(), 0u);
  MethodId Read = T->methodId("read");
  for (ProcessId P = 0; P < 3; ++P)
    EXPECT_EQ(T->query(C.node(P).visibleState(), Call(Read, {}, P, 0)), 3)
        << "node " << P;
}
