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
#include "hamband/rdma/Fabric.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/WireFormat.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
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

//===----------------------------------------------------------------------===//
// Conflicting calls coalesce at the group leader
//===----------------------------------------------------------------------===//

namespace {

HambandConfig batchedConf(bool Batched = true) {
  HambandConfig Cfg;
  Cfg.Batch.Enabled = Batched;
  Cfg.RecordApplyLog = true;
  return Cfg;
}

/// Calls of method \p U with \p Arity arguments that one L-ring cell holds
/// as a call batch (u16 marker | u16 count | count x (u32 len | call)).
std::size_t callsPerCell(const ObjectType &T, unsigned Nodes, MethodId U,
                         std::size_t Arity, const HambandConfig &Cfg) {
  WireCall WC{Call(U, std::vector<Value>(Arity, 1)), {}, 0, 0};
  std::size_t Bytes = encodeCall(T.coordination(), Nodes, WC).size();
  return (Cfg.ConfGeom.maxPayload() - 4) / (4 + Bytes);
}

/// Executes events one at a time until \p Pred holds; false when it does
/// not within \p MaxEvents.
template <typename PredT>
bool stepUntil(sim::Simulator &Sim, PredT Pred,
               unsigned MaxEvents = 100000) {
  for (unsigned I = 0; I < MaxEvents && !Pred(); ++I)
    if (!Sim.runOne())
      return false;
  return Pred();
}

/// Delays every one-sided write from \p Src to \p Dst (a slow link).
struct DelayWrites final : rdma::FabricFaultHook {
  rdma::NodeId Src, Dst;
  sim::SimDuration Delay;
  DelayWrites(rdma::NodeId S, rdma::NodeId D, sim::SimDuration Dl)
      : Src(S), Dst(D), Delay(Dl) {}
  sim::SimDuration onOneSidedOp(rdma::NodeId S, rdma::NodeId D,
                                bool IsWrite, std::size_t) override {
    return S == Src && D == Dst && IsWrite ? Delay : 0;
  }
};

/// The payload of L-ring entry \p Index of group \p G as \p Node holds it.
std::vector<std::uint8_t> entryAt(HambandCluster &C, rdma::NodeId Node,
                                  unsigned G, std::uint64_t Index) {
  const RingGeometry Geom = C.memoryMap().confGeom();
  std::vector<std::uint8_t> Cell = C.fabric().memory(Node).sliceStable(
      C.memoryMap().confRingData(G) +
          static_cast<rdma::MemOffset>(Index % Geom.NumCells) * Geom.CellSize,
      Geom.CellSize);
  std::uint32_t Len = 0;
  std::uint64_t Seq = 0;
  std::memcpy(&Len, Cell.data(), 4);
  std::memcpy(&Seq, Cell.data() + 4, 8);
  EXPECT_EQ(Seq, Index);
  EXPECT_LE(Len, Geom.maxPayload());
  return {Cell.begin() + RingGeometry::HeaderBytes,
          Cell.begin() + RingGeometry::HeaderBytes + Len};
}

/// The request ids an L-ring entry carries, in entry order.
std::vector<RequestId> entryRequests(const ObjectType &T,
                                     const std::vector<std::uint8_t> &E) {
  std::vector<WireCall> Calls(1);
  bool Ok = isCallBatch(E.data(), E.size())
                ? decodeCallBatch(T.coordination(), 3, E.data(), E.size(),
                                  Calls)
                : decodeCall(T.coordination(), 3, E.data(), E.size(),
                             Calls[0]);
  EXPECT_TRUE(Ok);
  std::vector<RequestId> Ids;
  for (const WireCall &WC : Calls)
    Ids.push_back(WC.TheCall.Req);
  return Ids;
}

/// A drained 3-node bank account holding 1000; the deposit is reducible,
/// so group 0's log is still empty.
struct BankWorld {
  std::unique_ptr<ObjectType> T = makeType("bank-account");
  MethodId Deposit = T->methodId("deposit");
  MethodId Withdraw = T->methodId("withdraw");
  sim::Simulator Sim;
  HambandCluster C;
  rdma::NodeId Leader;
  std::vector<int> Outcome; // Per burst call: -1 open, else Ok.

  explicit BankWorld(const HambandConfig &Cfg) : C(Sim, 3, *T, {}, Cfg) {
    C.start();
    Leader = C.leaderOf(0, 0);
    bool Done = false;
    C.submit(Leader, Call(Deposit, {1000}, Leader, 1),
             [&](bool, Value) { Done = true; });
    EXPECT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  }

  /// Submits \p K withdrawals of 1 at the leader at once, ids 100...
  void burst(unsigned K) {
    Outcome.assign(K, -1);
    for (unsigned I = 0; I < K; ++I)
      C.submit(Leader, Call(Withdraw, {1}, Leader, 100 + I),
               [this, I](bool Ok, Value) { Outcome[I] = Ok; });
  }
  bool allAnswered() const {
    return std::none_of(Outcome.begin(), Outcome.end(),
                        [](int O) { return O < 0; });
  }
  std::uint64_t appends() {
    return C.node(Leader).statsSnapshot().counter("mu.append");
  }
  /// Every live replica applied burst ids 100..100+K-1 once each, in
  /// order, after the deposit's group-0 history (none).
  void expectAppliedOnceInOrder(unsigned K) {
    for (rdma::NodeId N = 0; N < 3; ++N) {
      if (!C.isLive(N))
        continue;
      std::vector<RequestId> Got;
      for (const auto &[Issuer, Req] : C.node(N).confApplyLog()[0])
        Got.push_back(Req);
      std::vector<RequestId> Want;
      for (unsigned I = 0; I < K; ++I)
        Want.push_back(100 + I);
      EXPECT_EQ(Got, Want) << "node " << N;
    }
  }
};

} // namespace

TEST(ConfCoalescing, BurstAtTheLeaderFillsOneEntryPerCell) {
  // k withdrawals submitted at the leader at once are judged one by one
  // and appended together once the first one's lane slot comes up:
  // ceil(k / calls per cell) entries. Unbatched, the burst makes k.
  for (bool Batched : {false, true}) {
    SCOPED_TRACE(testing::Message() << "batched=" << Batched);
    BankWorld W(batchedConf(Batched));
    const std::size_t PerCell = callsPerCell(*W.T, 3, W.Withdraw, 1,
                                             W.C.config());
    ASSERT_GE(PerCell, 2u);
    const unsigned K = static_cast<unsigned>(PerCell);
    W.burst(K);
    ASSERT_TRUE(runUntil(W.Sim, [&] {
      return W.allAnswered() && W.C.fullyReplicated();
    }));
    for (int O : W.Outcome)
      EXPECT_EQ(O, 1);
    EXPECT_EQ(W.appends(), Batched ? 1u : K);
    W.expectAppliedOnceInOrder(K);
  }
}

TEST(ConfCoalescing, OverflowingCallsFillConsecutiveEntriesInOrder) {
  // 2 * PerCell + 1 calls: two full batches, then the last call alone, as
  // a bare encodeCall entry, at consecutive log indices.
  BankWorld W(batchedConf());
  const std::size_t PerCell =
      callsPerCell(*W.T, 3, W.Withdraw, 1, W.C.config());
  const unsigned K = static_cast<unsigned>(2 * PerCell + 1);
  const rdma::NodeId F = (W.Leader + 1) % 3;
  const std::uint64_t Base = W.C.node(F).conf().receivedContig(0);
  W.burst(K);
  ASSERT_TRUE(runUntil(
      W.Sim, [&] { return W.allAnswered() && W.C.fullyReplicated(); }));
  EXPECT_EQ(W.appends(), 3u);
  EXPECT_EQ(W.C.node(F).conf().receivedContig(0), Base + 3);
  RequestId Next = 100;
  for (std::uint64_t E = 0; E < 3; ++E) {
    std::vector<std::uint8_t> Bytes = entryAt(W.C, F, 0, Base + E);
    EXPECT_EQ(isCallBatch(Bytes.data(), Bytes.size()), E < 2) << "entry " << E;
    for (RequestId Id : entryRequests(*W.T, Bytes))
      EXPECT_EQ(Id, Next++) << "entry " << E;
  }
  EXPECT_EQ(Next, 100 + K);
  W.expectAppliedOnceInOrder(K);
}

TEST(ConfCoalescing, FirstCallOfABurstCommitsNoLaterThanUnbatched) {
  // The append runs in the lane slot the first call's posts would have
  // taken, so coalescing never delays the first call of a burst: a lone
  // call commits exactly when it would unbatched. In a burst it commits
  // sooner, since its completion poll no longer queues behind the other
  // calls' posts and entry charges on the leader's client lane.
  auto FirstCommit = [](bool Batched, unsigned K) {
    sim::Simulator Sim;
    auto T = makeType("courseware");
    MethodId AddCourse = T->methodId("addCourse");
    unsigned G = *T->coordination().syncGroup(AddCourse);
    HambandCluster C(Sim, 3, *T, {}, batchedConf(Batched));
    C.start();
    rdma::NodeId Leader = C.leaderOf(G, 0);
    sim::SimTime First = 0;
    unsigned Done = 0;
    for (unsigned I = 0; I < K; ++I)
      C.submit(Leader, Call(AddCourse, {I}, Leader, 10 + I),
               [&, I](bool Ok, Value) {
                 EXPECT_TRUE(Ok);
                 if (I == 0)
                   First = Sim.now();
                 ++Done;
               });
    EXPECT_TRUE(runUntil(Sim, [&] { return Done == K; }));
    return First;
  };
  EXPECT_GT(FirstCommit(false, 1), 0u);
  EXPECT_EQ(FirstCommit(true, 1), FirstCommit(false, 1));
  EXPECT_LT(FirstCommit(true, 4), FirstCommit(false, 4));
}

TEST(ConfCoalescing, AppendRefusedByAFullRingParksTheRestUnjudged) {
  // A four-cell L ring takes four entries: the task appends them and the
  // instance refuses the rest. Those calls leave the dedup set and the
  // speculative window as if never judged, wait at the head of the retry
  // queue, and commit later, once each and in judging order.
  HambandConfig Cfg = batchedConf();
  Cfg.ConfGeom = RingGeometry{4, 256};
  BankWorld W(Cfg);
  const std::size_t PerCell =
      callsPerCell(*W.T, 3, W.Withdraw, 1, W.C.config());
  const unsigned K = static_cast<unsigned>(6 * PerCell);
  const std::uint64_t Base = W.appends();
  W.burst(K);
  ASSERT_TRUE(stepUntil(W.Sim, [&] { return W.appends() != Base; }));
  // The task ran: it appended whole entries, then was refused.
  const ConfChannel &Conf = W.C.node(W.Leader).conf();
  const std::uint64_t Entries = W.appends() - Base;
  ASSERT_GE(Entries, 1u);
  ASSERT_LT(Entries, 6u);
  const std::size_t Appended = Entries * PerCell;
  EXPECT_EQ(Conf.leaderQueueTotal(), K - Appended);
  ASSERT_EQ(Conf.speculative(0).size(), Appended);
  EXPECT_EQ(Conf.speculative(0).back().Req, 100 + Appended - 1);
  for (unsigned I = 0; I < K; ++I)
    EXPECT_EQ(Conf.deduplicates(0, 100 + I), I < Appended) << "call " << I;

  ASSERT_TRUE(runUntil(
      W.Sim, [&] { return W.allAnswered() && W.C.fullyReplicated(); }));
  for (int O : W.Outcome)
    EXPECT_EQ(O, 1);
  W.expectAppliedOnceInOrder(K);
}

TEST(ConfCoalescing, AppendRefusedByADepositionBouncesEveryCall) {
  // The leader judges three calls, then an install of membership epoch 1
  // hands group 0 to another node before its append task runs. The task
  // appends nothing: the dedup set and window are as before the burst,
  // the calls bounce with "retry", and the new leader commits each once.
  BankWorld W(batchedConf());
  const unsigned K = 3;
  const std::uint64_t Base = W.appends();
  W.burst(K);
  const ConfChannel &Conf = W.C.node(W.Leader).conf();
  ASSERT_TRUE(
      stepUntil(W.Sim, [&] { return Conf.leaderQueueTotal() == K; }));
  ASSERT_EQ(W.appends(), Base);
  ASSERT_EQ(Conf.speculative(0).size(), K);
  const rdma::NodeId Next = (W.Leader + 1) % 3;
  const std::uint64_t Index = Conf.receivedContig(0);
  for (rdma::NodeId N = 0; N < 3; ++N)
    W.C.node(N).conf().consensus(0)->adoptLeadership(1, Next, Index);
  // Up to the append task.
  ASSERT_TRUE(stepUntil(W.Sim, [&] { return !Conf.deduplicates(0, 100); }));
  EXPECT_EQ(W.appends(), Base);
  EXPECT_TRUE(Conf.speculative(0).empty());
  EXPECT_EQ(Conf.leaderQueueTotal(), K);
  for (unsigned I = 0; I < K; ++I)
    EXPECT_FALSE(Conf.deduplicates(0, 100 + I)) << "call " << I;

  ASSERT_TRUE(runUntil(
      W.Sim, [&] { return W.allAnswered() && W.C.fullyReplicated(); }));
  for (int O : W.Outcome)
    EXPECT_EQ(O, 1);
  EXPECT_EQ(W.appends(), Base);
  EXPECT_GE(W.C.node(Next).statsSnapshot().counter("mu.append"), 1u);
  W.expectAppliedOnceInOrder(K);
}

TEST(ConfCoalescing, DependencyStallInsideAnEntryResumesWithinIt) {
  // One entry carries addCourse(1) and enroll(1, 7). Student 7 was
  // registered at another node, whose writes to follower F are slow: F
  // applies the addCourse, stalls inside the entry at the enroll, and
  // applies it once the registration lands.
  sim::Simulator Sim;
  auto T = makeType("courseware");
  MethodId AddCourse = T->methodId("addCourse");
  MethodId Enroll = T->methodId("enroll");
  MethodId Register = T->methodId("registerStudent");
  unsigned G = *T->coordination().syncGroup(Enroll);
  ASSERT_EQ(T->coordination().syncGroup(AddCourse), G);
  HambandCluster C(Sim, 3, *T, {}, batchedConf());
  const rdma::NodeId Leader = C.leaderOf(G, 0);
  const rdma::NodeId F = (Leader + 1) % 3, Reg = (Leader + 2) % 3;
  DelayWrites Slow(Reg, F, sim::micros(200));
  C.fabric().setFaultHook(&Slow);
  C.start();
  bool Registered = false;
  C.submit(Reg, Call(Register, {7}, Reg, 1),
           [&](bool, Value) { Registered = true; });
  ASSERT_TRUE(runUntil(
      Sim, [&] { return C.node(Leader).applied(Reg, Register) == 1; }));
  ASSERT_EQ(C.node(F).applied(Reg, Register), 0u);

  unsigned Done = 0;
  C.submit(Leader, Call(AddCourse, {1}, Leader, 10),
           [&](bool Ok, Value) { Done += Ok; });
  C.submit(Leader, Call(Enroll, {1, 7}, Leader, 11),
           [&](bool Ok, Value) { Done += Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 2 && !C.node(F).confApplyLog()[G].empty();
  }));
  EXPECT_EQ(C.node(Leader).statsSnapshot().counter("mu.append"), 1u);
  ASSERT_EQ(C.node(F).confApplyLog()[G].size(), 1u);
  EXPECT_EQ(C.node(F).confApplyLog()[G][0].second, 10u);
  EXPECT_EQ(C.node(F).conf().pendingTotal(), 1u);
  EXPECT_GE(C.node(F).statsSnapshot().counter("node.dep_stall.conf"), 1u);

  ASSERT_TRUE(runUntil(Sim, [&] { return Registered && C.fullyReplicated(); }));
  for (rdma::NodeId N = 0; N < 3; ++N) {
    ASSERT_EQ(C.node(N).confApplyLog()[G].size(), 2u) << "node " << N;
    EXPECT_EQ(C.node(N).confApplyLog()[G][1].second, 11u) << "node " << N;
    EXPECT_EQ(C.node(N).conf().pendingTotal(), 0u);
  }
  EXPECT_TRUE(C.converged());
  C.fabric().setFaultHook(nullptr);
}

TEST(ConfCoalescing, NewLeaderDeliversEveryCallOfACommittedEntry) {
  // A multi-call entry commits at the leader and one follower; the leader
  // crashes at once and the other follower never got the entry. Whichever
  // survivor leads next -- the one holding the entry (it replicates it to
  // the other) or the one lacking it (it catches up from the holder) --
  // every call of the entry reaches both, and the crashed leader's log is
  // a prefix of theirs.
  for (unsigned Off : {1u, 2u}) {
    BankWorld W(batchedConf());
    const rdma::NodeId Lagging = (W.Leader + Off) % 3;
    const rdma::NodeId Holder = (W.Leader + 3 - Off) % 3;
    SCOPED_TRACE(testing::Message() << "lagging follower " << Lagging);
    const unsigned K = 2;
    DelayWrites Slow(W.Leader, Lagging, sim::millis(5));
    W.C.fabric().setFaultHook(&Slow);
    W.Outcome.assign(K, -1);
    for (unsigned I = 0; I < K; ++I)
      W.C.submit(W.Leader, Call(W.Withdraw, {1}, W.Leader, 100 + I),
                 [&W, I](bool Ok, Value) {
                   W.Outcome[I] = Ok;
                   if (W.C.isLive(W.Leader))
                     W.C.crashNode(W.Leader);
                 });
    ASSERT_TRUE(runUntil(W.Sim, [&] {
      return W.allAnswered() && W.C.fullyReplicatedLive();
    }, 50000.0));
    EXPECT_EQ(W.appends(), 1u);
    for (int O : W.Outcome)
      EXPECT_EQ(O, 1);
    W.expectAppliedOnceInOrder(K);
    // Recovery atomicity: the crashed leader applied a prefix.
    const auto &Crashed = W.C.node(W.Leader).confApplyLog()[0];
    const auto &Live = W.C.node(Holder).confApplyLog()[0];
    ASSERT_LE(Crashed.size(), Live.size());
    EXPECT_TRUE(std::equal(Crashed.begin(), Crashed.end(), Live.begin()));
    EXPECT_TRUE(W.C.convergedLive());
    W.C.fabric().setFaultHook(nullptr);
  }
}

TEST(ConfCoalescing, UnbatchedEntryIsTheBareEncodedCall) {
  // Unbatched, each entry stays exactly encodeCall of the ordered call:
  // issuer rewritten to the leader, the leader's dependency counts, the
  // entry index and the epoch.
  BankWorld W(batchedConf(false));
  const rdma::NodeId F = (W.Leader + 1) % 3;
  std::vector<std::vector<std::uint64_t>> A(
      3, std::vector<std::uint64_t>(W.T->numMethods(), 0));
  for (ProcessId P = 0; P < 3; ++P)
    for (MethodId U = 0; U < W.T->numMethods(); ++U)
      A[P][U] = W.C.node(W.Leader).applied(P, U);
  W.burst(2);
  ASSERT_TRUE(runUntil(
      W.Sim, [&] { return W.allAnswered() && W.C.fullyReplicated(); }));
  for (std::uint64_t E = 0; E < 2; ++E) {
    WireCall WC{Call(W.Withdraw, {1}, W.Leader, 100 + E),
                projectDeps(W.T->coordination(), A, W.Withdraw), E, 0};
    EXPECT_EQ(entryAt(W.C, F, 0, E),
              encodeCall(W.T->coordination(), 3, WC))
        << "entry " << E;
  }
}
