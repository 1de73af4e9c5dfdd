//===- tests/FailureTests.cpp - Failure-path integration tests ----------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Exercises the fault-tolerance machinery end to end: reliable-broadcast
// backup recovery, out-of-service semantics, workload-driven failure
// injection, and convergence across leader changes under load.
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"
#include "hamband/benchlib/Runner.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/WireFormat.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/Movie.h"
#include "hamband/types/Schema.h"

#include <gtest/gtest.h>

#include <optional>

using namespace hamband;
using namespace hamband::runtime;
using namespace hamband::types;

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

/// The single staged format carrying one free call, as a one-call
/// unbatched flush stages it.
std::vector<std::uint8_t> stagedFreeCall(std::vector<std::uint8_t> Call) {
  FlushImage Img;
  Img.FreeRecord = encodeCallBatch({std::move(Call)});
  return encodeFlushImage(Img);
}

} // namespace

TEST(BackupRecovery, PeerDeliversPendingBroadcastOfSuspect) {
  // Stage a conflict-free call in node 0's backup slot as if node 0
  // crashed after the local stage but before any remote ring write, then
  // suspend its heartbeat. Node 1 must recover the call from the slot.
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 3, T);
  C.start();

  const MemoryMap &Map = C.memoryMap();
  ReliableBroadcast Staging(C.fabric(), 0, Map.backupSlot(),
                            C.config().BackupSlotBytes);
  semantics::DepMap NoDeps;
  WireCall WC;
  WC.TheCall = Call(Counter::Add, {41}, /*Issuer=*/0, /*Req=*/77);
  WC.BcastSeq = 0; // First broadcast node 1 expects from node 0.
  // Counter::Add is reducible; ship it as a buffered call through the
  // free-record half of the staged image by using the irreducible
  // encoding directly.
  Staging.stage(stagedFreeCall(encodeCall(T.coordination(), 3, WC)));

  C.node(0).suspendHeartbeat();
  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).recoveredBroadcasts() > 0;
  }));
  // The recovered call is applied once its (empty) dependencies allow.
  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, Counter::Add) == 1;
  }));
  Value V = -1;
  C.node(1).submit(Call(Counter::Read, {}, 1, 99),
                   [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 41);
}

TEST(BackupRecovery, DuplicateBackupIgnored) {
  // If the broadcast already arrived through the ring, the backup fetch
  // must not deliver it twice.
  sim::Simulator Sim;
  auto T = makeType("orset");
  HambandCluster C(Sim, 3, *T);
  C.start();
  bool Done = false;
  C.submit(0, Call(0 /*add*/, {7}, 0, 1), [&](bool, Value) { Done = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  std::uint64_t Before = C.node(1).applied(0, 0);

  // Re-stage the same (already delivered) broadcast and fail node 0.
  const MemoryMap &Map = C.memoryMap();
  ReliableBroadcast Staging(C.fabric(), 0, Map.backupSlot(),
                            C.config().BackupSlotBytes);
  WireCall WC;
  WC.TheCall = Call(0, {7, 100}, 0, 1);
  WC.BcastSeq = 0; // Already consumed by node 1.
  Staging.stage(stagedFreeCall(encodeCall(T->coordination(), 3, WC)));
  C.node(0).suspendHeartbeat();
  Sim.run(Sim.now() + sim::millis(3));
  EXPECT_EQ(C.node(1).applied(0, 0), Before);
  EXPECT_EQ(C.node(1).recoveredBroadcasts(), 0u);
}

// Every ship stages the same FlushImage, so one recovery case must cover
// every ship shape. The source crashes right after staging -- none of the
// remote writes are posted -- and both peers recover the call(s) from its
// backup slot, which still holds the image when the test reads it back.
enum class ShipShape { SlotReduce, FreeCall, OversizeDelta, BatchedFlush };

class CrashAfterStage : public ::testing::TestWithParam<ShipShape> {};

TEST_P(CrashAfterStage, PeersRecoverThroughTheSingleRecoveryCase) {
  const ShipShape Shape = GetParam();
  sim::Simulator Sim;
  auto T = makeType(Shape == ShipShape::SlotReduce      ? "counter"
                    : Shape == ShipShape::OversizeDelta ? "gset"
                                                        : "gset-buffered");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.Batch.Enabled = Shape == ShipShape::BatchedFlush;
  Cfg.Delta.Enabled = Shape == ShipShape::OversizeDelta;
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();
  // 600 seeded elements make the full image ~4.8 KB: larger than the
  // 4 KB backup slot, so the flush stages the call's delta frame instead.
  std::uint64_t Seeded = 0;
  if (Shape == ShipShape::OversizeDelta) {
    Seeded = 600;
    std::vector<Value> Elems;
    for (Value V = 0; V < 600; ++V)
      Elems.push_back(V);
    C.seedReducibleState(0, 0, Call(Add, Elems, 0, 0), Seeded);
  }

  // Batched: the first call pipe-flushes (stage #1) and the other five
  // coalesce into the completion-triggered flush (stage #2).
  const unsigned Calls = Shape == ShipShape::BatchedFlush ? 6 : 1;
  const unsigned CrashAt = Shape == ShipShape::BatchedFlush ? 2 : 1;
  unsigned Stages = 0;
  C.node(0).broadcast().setOnStage([&] {
    if (++Stages == CrashAt)
      C.crashNode(0);
  });
  for (unsigned I = 0; I < Calls; ++I)
    C.submit(0, Call(Add, {1000 + static_cast<Value>(I)}, 0, 100 + I),
             [](bool, Value) {});

  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, Add) == Seeded + Calls &&
           C.node(2).applied(0, Add) == Seeded + Calls;
  }));
  EXPECT_EQ(Stages, CrashAt);
  EXPECT_FALSE(C.isLive(0));
  for (ProcessId P = 1; P < 3; ++P)
    EXPECT_GE(C.node(P).recoveredBroadcasts(), 1u) << "node " << P;
  EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
  EXPECT_EQ(C.node(0).statsSnapshot().counter("node.delta.stage_skipped"),
            0u);

  // The staged image has the shape's single-format contents.
  ReliableBroadcast Reader(C.fabric(), 1, C.memoryMap().backupSlot(),
                           Cfg.BackupSlotBytes);
  ReliableBroadcast::BackupMessage Msg;
  Reader.fetch(0, [&](ReliableBroadcast::BackupMessage M) { Msg = M; });
  Sim.run(Sim.now() + sim::micros(50));
  ASSERT_EQ(Msg.TheKind, ReliableBroadcast::Kind::Flush);
  FlushImage Img;
  ASSERT_TRUE(decodeFlushImage(Msg.Payload.data(), Msg.Payload.size(), Img));
  EXPECT_EQ(Img.Summaries.size(), Shape == ShipShape::SlotReduce ? 1u : 0u);
  EXPECT_EQ(Img.Deltas.size(), Shape == ShipShape::OversizeDelta ? 1u : 0u);
  std::vector<WireCall> Free;
  if (!Img.FreeRecord.empty()) {
    ASSERT_TRUE(decodeCallBatch(T->coordination(), 3, Img.FreeRecord.data(),
                                Img.FreeRecord.size(), Free));
  }
  EXPECT_EQ(Free.size(), Shape == ShipShape::FreeCall       ? 1u
                         : Shape == ShipShape::BatchedFlush ? 5u
                                                            : 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShipShapes, CrashAfterStage,
    ::testing::Values(ShipShape::SlotReduce, ShipShape::FreeCall,
                      ShipShape::OversizeDelta, ShipShape::BatchedFlush),
    [](const auto &Info) {
      switch (Info.param) {
      case ShipShape::SlotReduce:
        return std::string("unbatched_slot_reduce");
      case ShipShape::FreeCall:
        return std::string("unbatched_free");
      case ShipShape::OversizeDelta:
        return std::string("unbatched_oversize_delta");
      case ShipShape::BatchedFlush:
        return std::string("batched_flush");
      }
      return std::string();
    });

// A free record larger than the backup slot is left out of the staged
// image and counted; the call still ships and completes.
TEST(BackupRecovery, FreeRecordTooBigForSlotIsNotStaged) {
  sim::Simulator Sim;
  auto T = makeType("gset-buffered");
  MethodId Add = T->methodId("add");
  HambandConfig Cfg;
  Cfg.BackupSlotBytes = 40; // below any encoded call batch
  HambandCluster C(Sim, 3, *T, {}, Cfg);
  C.start();
  unsigned Stages = 0;
  C.node(0).broadcast().setOnStage([&] { ++Stages; });
  bool Done = false;
  C.submit(0, Call(Add, {5}, 0, 1), [&](bool Ok, Value) { Done = Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  EXPECT_EQ(Stages, 0u);
  EXPECT_EQ(C.node(0).statsSnapshot().counter("node.delta.stage_skipped"),
            1u);
  for (ProcessId P = 1; P < 3; ++P)
    EXPECT_EQ(C.node(P).applied(0, Add), 1u) << "node " << P;
}

TEST(OutOfService, RejectsNewClientCalls) {
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 3, T);
  C.start();
  C.injectFailure(1);
  bool Ok = true, Done = false;
  C.submit(1, Call(Counter::Add, {5}, 1, 1), [&](bool IsOk, Value) {
    Ok = IsOk;
    Done = true;
  });
  runUntil(Sim, [&] { return Done; });
  EXPECT_FALSE(Ok);
}

TEST(OutOfService, StillAppliesRemoteTraffic) {
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 3, T);
  C.start();
  C.injectFailure(2);
  bool Done = false;
  C.submit(0, Call(Counter::Add, {5}, 0, 1),
           [&](bool, Value) { Done = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  // Node 2's memory received the summary and its poller installed it.
  EXPECT_EQ(C.node(2).applied(0, Counter::Add), 1u);
}

TEST(OutOfService, RequestHeldByTheLeaderIsJudgedOnceAfterItReturns) {
  // Leader 0 stops serving without stopping its heartbeat, so no peer
  // suspects it and no view change moves the call mailed to it. It holds
  // the request and judges it, once, when it returns.
  sim::Simulator Sim;
  BankAccount T;
  HambandCluster C(Sim, 3, T);
  C.start();
  bool Seeded = false;
  C.submit(1, Call(BankAccount::Deposit, {100}, 1, 1),
           [&](bool, Value) { Seeded = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Seeded && C.fullyReplicated(); }));
  auto Appends = [&] {
    return C.node(0).statsSnapshot().counter("mu.append");
  };
  const std::uint64_t Before = Appends();
  C.node(0).setOutOfService();
  std::optional<sim::SimTime> Answered;
  bool Ok = false;
  C.submit(1, Call(BankAccount::Withdraw, {10}, 1, 2),
           [&](bool IsOk, Value) {
             Ok = IsOk;
             Answered = Sim.now();
           });
  Sim.run(Sim.now() + sim::micros(1000));
  ASSERT_FALSE(Answered);
  EXPECT_EQ(Appends(), Before);
  sim::SimTime Returned = Sim.now();
  C.node(0).returnToService();
  ASSERT_TRUE(runUntil(Sim, [&] { return Answered && C.fullyReplicated(); }));
  EXPECT_TRUE(Ok);
  EXPECT_GT(*Answered, Returned);
  EXPECT_LT(*Answered - Returned, sim::micros(50));
  EXPECT_EQ(Appends(), Before + 1);
  EXPECT_EQ(C.leaderOf(0, 1), 0u);
  for (rdma::NodeId N = 0; N < 3; ++N) {
    EXPECT_EQ(C.node(N).applied(0, BankAccount::Withdraw), 1u) << "node " << N;
    EXPECT_EQ(T.query(C.node(N).visibleState(),
                      Call(BankAccount::Balance, {})),
              90)
        << "node " << N;
  }
}

TEST(LeaderChangeUnderLoad, BankConvergesAcrossFailover) {
  sim::Simulator Sim;
  BankAccount T;
  HambandCluster C(Sim, 4, T);
  C.start();
  rdma::NodeId OldLeader = C.leaderOf(0, 0);
  sim::Rng R(77);
  unsigned Done = 0, Issued = 0;
  auto Submit = [&](rdma::NodeId Target, Call Cl) {
    ++Issued;
    C.submit(Target, Cl, [&Done](bool, Value) { ++Done; });
  };
  // Seed funds.
  Submit(1, Call(BankAccount::Deposit, {100}, 1, 1));
  runUntil(Sim, [&] { return Done == 1 && C.fullyReplicated(); });

  // Interleave deposits and withdrawals while the leader fails.
  RequestId Req = 10;
  for (int I = 0; I < 10; ++I) {
    rdma::NodeId N = static_cast<rdma::NodeId>(R.index(4));
    if (C.isFailed(N))
      N = (N + 1) % 4;
    Submit(N, Call(BankAccount::Deposit, {2}, N, Req++));
    rdma::NodeId Leader = C.leaderOf(0, C.isFailed(0) ? 1 : 0);
    if (!C.isFailed(Leader))
      Submit(Leader, Call(BankAccount::Withdraw, {1}, Leader, Req++));
    if (I == 4)
      C.injectFailure(OldLeader);
    Sim.run(Sim.now() + sim::micros(50));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == Issued && C.fullyReplicated();
  }));
  EXPECT_TRUE(C.converged());
  // Integrity: balances agree and are non-negative on live nodes.
  Value V = -1;
  C.submit(1, Call(BankAccount::Balance, {}, 1, 9999),
           [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_GE(V, 0);
}

TEST(LeaderChangeUnderLoad, SecondGroupUnaffectedByFirstGroupFailover) {
  // Movie has two groups with leaders 0 and 1. Failing node 0 must not
  // disturb group 1's leadership.
  sim::Simulator Sim;
  Movie T;
  HambandCluster C(Sim, 4, T);
  C.start();
  ASSERT_EQ(C.leaderOf(0, 2), 0u);
  ASSERT_EQ(C.leaderOf(1, 2), 1u);
  C.injectFailure(0);
  ASSERT_TRUE(runUntil(
      Sim, [&] { return C.leaderOf(0, 2) != 0; }, 30000.0));
  EXPECT_EQ(C.leaderOf(1, 2), 1u);
  // Group 1 keeps serving throughout.
  bool Ok = false, Done = false;
  C.submit(1, Call(Movie::AddMovie, {5}, 1, 1), [&](bool IsOk, Value) {
    Ok = IsOk;
    Done = true;
  });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done; }));
  EXPECT_TRUE(Ok);
}

TEST(WorkloadFailureInjection, RunnerInjectsAndCompletes) {
  Counter T;
  benchlib::WorkloadSpec W;
  W.NumOps = 800;
  W.UpdateRatio = 0.3;
  W.FailNode = 2u;
  W.FailAtFraction = 0.3;
  benchlib::RunnerOptions Opts;
  Opts.Kind = benchlib::RuntimeKind::Hamband;
  Opts.NumNodes = 4;
  Opts.Repetitions = 1;
  benchlib::RunResult R = benchlib::runOnce(T, W, Opts, 5);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 800u);
}

TEST(WorkloadFailureInjection, LeaderFailureWithConflictsCompletes) {
  auto T = makeType("courseware");
  benchlib::WorkloadSpec W;
  W.NumOps = 1200;
  W.UpdateRatio = 0.3;
  W.FailNode = 0u; // Initial leader of the only sync group.
  W.FailAtFraction = 0.35;
  benchlib::RunnerOptions Opts;
  Opts.Kind = benchlib::RuntimeKind::Hamband;
  Opts.NumNodes = 4;
  Opts.Repetitions = 1;
  benchlib::RunResult R = benchlib::runOnce(*T, W, Opts, 3);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 1200u);
}

TEST(BackupRecovery, AgreementAfterMidBroadcastCrash) {
  // The reliable-broadcast agreement property end to end: the source
  // stages its backup, reaches only ONE peer's ring, and crashes (CPU
  // gone, memory still remotely readable -- the RDMA failure model).
  // The peer that got the write dedups; the peer that did not recovers
  // the call from the backup slot; both converge.
  sim::Simulator Sim;
  auto T = makeType("orset");
  HambandCluster C(Sim, 3, *T);
  C.start();

  const MemoryMap &Map = C.memoryMap();
  rdma::Fabric &Fab = C.fabric();

  // Hand-play node 0's FREE step: stage the backup...
  WireCall WC;
  WC.TheCall = Call(/*addTag*/ 0, {7, 100}, 0, 1);
  WC.BcastSeq = 0;
  std::vector<std::uint8_t> Bytes = encodeCall(T->coordination(), 3, WC);
  ReliableBroadcast Staging(Fab, 0, Map.backupSlot(),
                            C.config().BackupSlotBytes);
  Staging.stage(stagedFreeCall(Bytes));
  // ...write the ring cell on node 1 only...
  RingWriter PartialWriter(Fab, 0, 1, Map.freeRingData(0),
                           Map.freeRingFeedback(1), Map.freeGeom());
  ASSERT_TRUE(PartialWriter.append(Bytes));
  Sim.run(Sim.now() + sim::micros(10)); // Let the write deliver.
  // ...and crash before reaching node 2.
  Fab.crash(0);

  // Node 1 received it through the ring; node 2 recovers it from the
  // crashed source's backup slot once the detector fires.
  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).applied(0, 0) == 1 && C.node(2).applied(0, 0) == 1;
  }));
  EXPECT_EQ(C.node(2).recoveredBroadcasts(), 1u);
  EXPECT_EQ(C.node(1).recoveredBroadcasts(), 0u); // Dedup: ring won.
  // The survivors agree.
  EXPECT_TRUE(
      C.node(1).visibleState().equals(C.node(2).visibleState()));
  Value V = -1;
  C.node(2).submit(Call(/*contains*/ 2, {7}, 2, 5),
                   [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 1);
}

namespace {

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

} // namespace

TEST(BackupRecovery, RecoveredCallAheadOfTheRingWaitsForIt) {
  // Node 0 broadcasts A, then B, and crashes right after staging B. Its
  // writes to node 2 are slow, so node 2 may recover B from the backup
  // slot before A's ring write lands. B must wait for A there, or the
  // survivors diverge (node 1 applies both, node 2 only A).
  for (bool Batched : {false, true})
    for (double DelayUs : {0.0, 400.0, 1000.0}) {
      SCOPED_TRACE(testing::Message() << "batched=" << Batched
                                      << " delay_us=" << DelayUs);
      sim::Simulator Sim;
      auto T = makeType("orset");
      MethodId Add = T->methodId("add");
      HambandConfig Cfg;
      Cfg.Batch.Enabled = Batched;
      HambandCluster C(Sim, 3, *T, {}, Cfg);
      DelayWrites Slow(0, 2, sim::micros(DelayUs));
      C.fabric().setFaultHook(&Slow);
      C.start();
      unsigned Stages = 0;
      C.node(0).broadcast().setOnStage([&] {
        if (++Stages == 2)
          C.crashNode(0);
      });
      C.submit(0, Call(Add, {7}, 0, 1), [](bool, Value) {});
      Sim.run(Sim.now() + sim::micros(5));
      C.submit(0, Call(Add, {8}, 0, 2), [](bool, Value) {});

      EXPECT_TRUE(runUntil(
          Sim,
          [&] {
            return C.node(1).applied(0, Add) == 2 &&
                   C.node(2).applied(0, Add) == 2;
          },
          20000.0));
      EXPECT_EQ(Stages, 2u);
      EXPECT_TRUE(C.fullyReplicatedLive());
      EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
      C.fabric().setFaultHook(nullptr);
    }
}

TEST(BackupRecovery, CallStagedBehindAnUnpostedFlushDoesNotWedge) {
  // Node 0 submits three adds at once, so its second flush stages before
  // the first flush's writes are posted, and crashes at that stage.
  // Unbatched, the first call never leaves node 0 and the recovered second
  // call waits behind it forever; that wait must not block quiescence.
  // Batched, the first flush carries one call and the staged second one
  // the other two, so everything is recovered.
  for (bool Batched : {false, true}) {
    SCOPED_TRACE(testing::Message() << "batched=" << Batched);
    sim::Simulator Sim;
    auto T = makeType("orset");
    MethodId Add = T->methodId("add");
    HambandConfig Cfg;
    Cfg.Batch.Enabled = Batched;
    HambandCluster C(Sim, 3, *T, {}, Cfg);
    C.start();
    unsigned Stages = 0;
    C.node(0).broadcast().setOnStage([&] {
      if (++Stages == 2)
        C.crashNode(0);
    });
    for (Value V = 0; V < 3; ++V)
      C.submit(0, Call(Add, {V}, 0, 10 + static_cast<RequestId>(V)),
               [](bool, Value) {});
    Sim.run(Sim.now() + sim::millis(3));

    const std::uint64_t Expected = Batched ? 3 : 0;
    EXPECT_EQ(Stages, 2u);
    EXPECT_TRUE(C.fullyReplicatedLive());
    EXPECT_EQ(C.node(1).applied(0, Add), Expected);
    EXPECT_EQ(C.node(2).applied(0, Add), Expected);
    EXPECT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
  }
}

TEST(BackupRecovery, OverlappingFlushesSurviveACrashBetweenTheirPosts) {
  // Unbatched, node 0's second flush can stage its image before the first
  // flush's last completion runs. That completion must leave the second
  // image in the slot: a crash between the second flush's posts would
  // otherwise leave one survivor with the call and one without it, for
  // good, since classic mode has no anti-entropy. The sweep places the
  // second submit and the crash across that window.
  for (const char *Name : {"counter", "orset"}) {
    auto T = makeType(Name);
    MethodId Add = T->methodId("add");
    for (std::uint64_t GapNs = 1500; GapNs <= 2000; GapNs += 20)
      for (std::uint64_t CrashNs = 300; CrashNs <= 700; CrashNs += 20) {
        SCOPED_TRACE(testing::Message() << Name << " second submit at "
                                        << GapNs << " ns, crash "
                                        << CrashNs << " ns after it");
        sim::Simulator Sim;
        HambandCluster C(Sim, 3, *T);
        C.start();
        C.submit(0, Call(Add, {1}, 0, 1), [](bool, Value) {});
        Sim.run(Sim.now() + sim::nanos(GapNs));
        C.submit(0, Call(Add, {2}, 0, 2), [](bool, Value) {});
        Sim.run(Sim.now() + sim::nanos(CrashNs));
        C.crashNode(0);
        // Each survivor fetches node 0's slot once it suspects node 0.
        ASSERT_TRUE(runUntil(
            Sim,
            [&] {
              return C.node(1).detector().isSuspected(0) &&
                     C.node(2).detector().isSuspected(0);
            },
            3000.0));
        Sim.run(Sim.now() + sim::micros(100));
        ASSERT_TRUE(C.node(1).appliedTable() == C.node(2).appliedTable());
        ASSERT_TRUE(C.node(1).visibleState().equals(C.node(2).visibleState()));
      }
  }
}

TEST(ResponsePoint, UpdateAnsweredOnlyAfterEveryPeerWriteCompletes) {
  // Reliable broadcast answers the client only once every remote write of
  // the call's flush has completed. Node 0's writes to one peer take 40 us
  // longer, so its answer to an update must come no sooner, whether the
  // update ships in a summary (counter) or an F-ring record (orset), alone
  // or in a batch.
  const sim::SimDuration Slow = sim::micros(40);
  for (const char *Name : {"counter", "orset"})
    for (bool Batched : {false, true})
      for (rdma::NodeId Peer : {1u, 2u}) {
        SCOPED_TRACE(testing::Message() << Name << " batched=" << Batched
                                        << " slow peer " << Peer);
        sim::Simulator Sim;
        auto T = makeType(Name);
        MethodId Add = T->methodId("add");
        HambandConfig Cfg;
        Cfg.Batch.Enabled = Batched;
        HambandCluster C(Sim, 3, *T, {}, Cfg);
        DelayWrites SlowLink(0, Peer, Slow);
        C.fabric().setFaultHook(&SlowLink);
        C.start();
        const sim::SimTime Submitted = Sim.now();
        std::optional<sim::SimTime> Answered;
        C.submit(0, Call(Add, {7}, 0, 1), [&](bool Ok, Value) {
          EXPECT_TRUE(Ok);
          Answered = Sim.now();
        });
        ASSERT_TRUE(runUntil(Sim, [&] { return Answered.has_value(); }));
        EXPECT_GE(*Answered - Submitted, Slow);
        C.fabric().setFaultHook(nullptr);
      }
}

TEST(LeaderChange, ConcurrentCandidatesConvergeOnOneLeader) {
  // Two followers suspect the leader near-simultaneously and both
  // campaign with the same epoch; proposal adoption is deterministic
  // (lowest candidate id wins), so the cluster settles on one leader.
  sim::Simulator Sim;
  BankAccount T;
  HambandCluster C(Sim, 4, T);
  C.start();
  rdma::NodeId OldLeader = C.leaderOf(0, 0);
  ASSERT_EQ(OldLeader, 0u);
  C.injectFailure(0);
  // Force both node 1 and node 2 to campaign right now, before either
  // learns of the other's proposal.
  C.node(1).conf().consensus(0)->onPeerSuspected(0);
  C.node(2).conf().consensus(0)->onPeerSuspected(0);
  ASSERT_TRUE(runUntil(
      Sim,
      [&] {
        rdma::NodeId L = C.leaderOf(0, 1);
        if (L == 0)
          return false;
        for (rdma::NodeId N = 1; N < 4; ++N)
          if (C.leaderOf(0, N) != L)
            return false;
        return C.node(L).conf().consensus(0)->isLeader();
      },
      30000.0));
  rdma::NodeId NewLeader = C.leaderOf(0, 1);
  EXPECT_EQ(NewLeader, 1u); // Lowest candidate id wins the tie.
  // And it serves.
  bool Ok = false, Done = false;
  C.submit(NewLeader, Call(BankAccount::Deposit, {5}, NewLeader, 50),
           [&](bool IsOk, Value) {
             Ok = IsOk;
             Done = true;
           });
  C.submit(NewLeader, Call(BankAccount::Withdraw, {3}, NewLeader, 51),
           nullptr);
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  EXPECT_TRUE(Ok);
  EXPECT_TRUE(C.converged());
}

TEST(LeaderChange, StaggeredSameEpochCandidatesConverge) {
  // Node 2 campaigns, then node 1 campaigns at the same epoch a moment
  // later. The leader is the lowest-id candidate of the highest epoch, so
  // node 1's proposal must displace node 2 wherever node 2 was adopted
  // first; otherwise each candidate waits forever for the other's ack.
  for (double DelayUs : {0.2, 0.5, 1.0, 1.3}) {
    sim::Simulator Sim;
    BankAccount T;
    HambandCluster C(Sim, 4, T);
    C.start();
    C.injectFailure(0);
    C.node(2).conf().consensus(0)->onPeerSuspected(0);
    Sim.run(Sim.now() + sim::micros(DelayUs));
    C.node(1).conf().consensus(0)->onPeerSuspected(0);
    EXPECT_TRUE(runUntil(
        Sim,
        [&] {
          rdma::NodeId L = C.leaderOf(0, 1);
          if (L == 0)
            return false;
          for (rdma::NodeId N = 1; N < 4; ++N)
            if (C.leaderOf(0, N) != L)
              return false;
          return C.node(L).conf().consensus(0)->isLeader();
        },
        30000.0))
        << "node 1 campaigned " << DelayUs << " us after node 2";
  }
}

TEST(LeaderChange, CandidateCatchesUpFromTheLiveLeadersOwnRing) {
  // Node 0's writes to node 1 are slow, so three withdrawals commit with
  // node 2's copy alone. Node 1 then campaigns while node 0 is alive:
  // node 0 and node 2 both ack three entries, node 0 wins the tie, and
  // node 1 reads the entries from node 0's ring -- which holds the
  // entries node 0 appended itself.
  sim::Simulator Sim;
  BankAccount T;
  HambandConfig Cfg;
  Cfg.RecordApplyLog = true;
  HambandCluster C(Sim, 3, T, {}, Cfg);
  DelayWrites Slow(0, 1, sim::micros(300));
  C.fabric().setFaultHook(&Slow);
  C.start();
  // Node 0's heartbeat reads of node 1 queue behind the slow writes on
  // the same channel; it must not take that for a crash and campaign.
  C.node(0).detector().setMonitored(1, false);
  bool Seeded = false;
  C.submit(2, Call(BankAccount::Deposit, {100}, 2, 1),
           [&](bool, Value) { Seeded = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Seeded && C.fullyReplicated(); }));
  unsigned Committed = 0;
  for (RequestId Req : {2, 3, 4})
    C.submit(2, Call(BankAccount::Withdraw, {10}, 2, Req),
             [&](bool Ok, Value) { Committed += Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Committed == 3; }, 200.0));
  ASSERT_EQ(C.node(1).conf().receivedContig(0), 0u)
      << "node 1 must still lack the entries when it campaigns";

  C.node(1).conf().consensus(0)->onPeerSuspected(0);
  ASSERT_TRUE(runUntil(Sim, [&] {
    return C.node(1).conf().consensus(0)->isLeader() && C.fullyReplicated();
  }));
  const std::vector<std::pair<ProcessId, RequestId>> Want = {
      {0, 2}, {0, 3}, {0, 4}};
  for (rdma::NodeId N = 0; N < 3; ++N) {
    EXPECT_EQ(C.leaderOf(0, N), 1u) << "node " << N;
    EXPECT_EQ(C.node(N).confApplyLog()[0], Want) << "node " << N;
    EXPECT_EQ(T.query(C.node(N).visibleState(),
                      Call(BankAccount::Balance, {})),
              70)
        << "node " << N;
  }
  C.fabric().setFaultHook(nullptr);
}

namespace {

/// On a 3-node bank account holding 100, submits withdraw(10) at
/// \p Origin while node 1 campaigns against the group-0 leader, node 0,
/// \p DelayUs later. Returns the client's answer and every node's balance.
std::pair<bool, std::vector<Value>> withdrawWhileLeaderDeposed(
    rdma::NodeId Origin, double DelayUs) {
  sim::Simulator Sim;
  BankAccount T;
  HambandCluster C(Sim, 3, T);
  C.start();
  bool Seeded = false, Done = false, Ok = false;
  C.submit(0, Call(BankAccount::Deposit, {100}, 0, 1),
           [&](bool, Value) { Seeded = true; });
  EXPECT_TRUE(runUntil(Sim, [&] { return Seeded && C.fullyReplicated(); }));
  C.submit(Origin, Call(BankAccount::Withdraw, {10}, Origin, 2),
           [&](bool IsOk, Value) {
             Ok = IsOk;
             Done = true;
           });
  Sim.run(Sim.now() + sim::micros(DelayUs));
  C.node(1).conf().consensus(0)->onPeerSuspected(0);
  EXPECT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  std::vector<Value> Balances;
  for (rdma::NodeId N = 0; N < 3; ++N)
    Balances.push_back(T.query(C.node(N).visibleState(),
                               Call(BankAccount::Balance, {})));
  return {Ok, Balances};
}

} // namespace

TEST(LeaderChange, CallSequencedByDeposedLeaderGetsTheReplicasOutcome) {
  // Node 0 is appending the withdraw when it is deposed. Only the new
  // leader can tell whether the entry survived, so the client's answer
  // must match what the replicas applied -- for a call submitted at the
  // deposed leader itself (local) as for one redirected to it (remote).
  for (rdma::NodeId Origin : {0u, 2u}) {
    for (double DelayUs : {0.0, 0.25, 0.5}) {
      auto [Ok, Balances] = withdrawWhileLeaderDeposed(Origin, DelayUs);
      EXPECT_TRUE(Ok) << "origin " << Origin << ", delay " << DelayUs;
      for (Value B : Balances)
        EXPECT_EQ(B, 90) << "origin " << Origin << ", delay " << DelayUs;
    }
  }
}

// Chaos: every type with a synchronization group, under both follower and
// leader failure, with a mixed random workload -- must complete and the
// live replicas must converge.
class ChaosTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ChaosTest, RandomWorkloadSurvivesFailure) {
  auto [Name, FailLeader] = GetParam();
  auto T = makeType(Name);
  if (T->coordination().numSyncGroups() == 0)
    GTEST_SKIP() << "no synchronization group to stress";
  benchlib::WorkloadSpec W;
  W.NumOps = 1000;
  W.UpdateRatio = 0.4;
  W.FailAtFraction = 0.35;
  // Group 0's initial leader is node 0; node 3 never leads any group in
  // a 4-node cluster with at most 2 groups.
  W.FailNode = FailLeader ? 0u : 3u;
  benchlib::RunnerOptions Opts;
  Opts.Kind = benchlib::RuntimeKind::Hamband;
  Opts.NumNodes = 4;
  Opts.Repetitions = 1;
  Opts.SafetyCap = sim::millis(10000);
  benchlib::RunResult R = benchlib::runOnce(*T, W, Opts, 11);
  EXPECT_TRUE(R.Completed) << Name;
  EXPECT_EQ(R.CompletedOps, 1000u) << Name;
}

INSTANTIATE_TEST_SUITE_P(
    ConflictingTypes, ChaosTest,
    ::testing::Combine(::testing::Values("bank-account", "courseware",
                                         "project-management", "movie",
                                         "auction"),
                       ::testing::Bool()),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + (std::get<1>(Info.param) ? "_leader" : "_follower");
    });

TEST(DependencyWait, EnrollWaitsForItsCourse) {
  // Submit enroll at the leader while addCourse is still propagating from
  // a different node: the leader holds the call (PermissibilityWait)
  // instead of rejecting it.
  sim::Simulator Sim;
  Courseware T;
  HambandCluster C(Sim, 4, T);
  C.start();
  rdma::NodeId Leader = C.leaderOf(0, 0);
  bool CourseOk = false, StudentOk = false;
  // registerStudent is reducible and issued at a remote node.
  C.submit(2, Call(TwoEntitySchema::AddB, {7}, 2, 1),
           [&](bool Ok, Value) { StudentOk = Ok; });
  // addCourse must go to the leader (conflicting).
  C.submit(Leader, Call(TwoEntitySchema::AddA, {1}, Leader, 2),
           [&](bool Ok, Value) { CourseOk = Ok; });
  // enroll(1, 7) immediately after: its dependencies may not yet be
  // applied at the leader.
  bool EnrollOk = false, EnrollDone = false;
  C.submit(Leader, Call(TwoEntitySchema::Rel, {1, 7}, Leader, 3),
           [&](bool Ok, Value) {
             EnrollOk = Ok;
             EnrollDone = true;
           });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return EnrollDone && C.fullyReplicated();
  }));
  EXPECT_TRUE(CourseOk);
  EXPECT_TRUE(StudentOk);
  EXPECT_TRUE(EnrollOk);
  EXPECT_TRUE(C.converged());
}

namespace {

/// One poll round of a node of \p C when its poller lane is otherwise
/// idle: PollInterval, then one PollCpu per check of every F ring, summary
/// slot (none in delta mode), L ring and consensus instance.
sim::SimDuration pollPeriod(HambandCluster &C) {
  const CoordinationSpec &Spec = C.objectType().coordination();
  unsigned Peers = C.numNodes() - 1;
  unsigned SlotChecks =
      C.config().Delta.Enabled ? 0 : Spec.numSumGroups() * Peers;
  unsigned Checks = Peers + SlotChecks + Spec.numSyncGroups() * 2;
  return C.config().PollInterval + C.fabric().model().PollCpu * Checks;
}

std::uint64_t leaderCounter(HambandCluster &C, const char *Name) {
  return C.node(C.leaderOf(0, 0)).statsSnapshot().counter(Name);
}

} // namespace

TEST(DependencyWait, ParkedEnrollWakesWhenItsCourseIsAppended) {
  // An enroll parked at the leader for its missing course is judged again
  // at the first poll round after the addCourse is appended, whatever the
  // addCourse's phase against the poll cadence. It appends right behind
  // the addCourse and is answered at most one poll round plus its own
  // sequencing (the re-check and the entry) after it.
  for (double OffsetUs = 0.0; OffsetUs < 5.0; OffsetUs += 0.25) {
    SCOPED_TRACE(testing::Message() << "addCourse " << OffsetUs
                                    << " us after the enroll");
    sim::Simulator Sim;
    Courseware T;
    HambandCluster C(Sim, 4, T);
    C.start();
    const rdma::NetworkModel &M = C.fabric().model();
    rdma::NodeId Leader = C.leaderOf(0, 0);
    bool StudentOk = false;
    C.submit(2, Call(TwoEntitySchema::AddB, {7}, 2, 1),
             [&](bool Ok, Value) { StudentOk = Ok; });
    ASSERT_TRUE(
        runUntil(Sim, [&] { return StudentOk && C.fullyReplicated(); }));

    bool EnrollOk = false, CourseOk = false;
    sim::SimTime EnrollAt = 0, CourseAt = 0;
    C.submit(Leader, Call(TwoEntitySchema::Rel, {1, 7}, Leader, 3),
             [&](bool Ok, Value) {
               EnrollOk = Ok;
               EnrollAt = Sim.now();
             });
    Sim.run(Sim.now() + sim::micros(OffsetUs));
    C.submit(Leader, Call(TwoEntitySchema::AddA, {1}, Leader, 2),
             [&](bool Ok, Value) {
               CourseOk = Ok;
               CourseAt = Sim.now();
             });
    ASSERT_TRUE(runUntil(Sim, [&] { return EnrollAt != 0 && CourseAt != 0; }));
    EXPECT_TRUE(CourseOk);
    EXPECT_TRUE(EnrollOk);
    EXPECT_EQ(leaderCounter(C, "node.conf.parked"), 1u);
    EXPECT_LE(EnrollAt,
              CourseAt + pollPeriod(C) + M.ApplyCpu + M.ConsensusEntryCpu);
  }
}

TEST(DependencyWait, EnrollWhoseCourseNeverArrivesIsRejectedAtItsDeadline) {
  // With no course and no other traffic the parked enroll's view never
  // moves, so it is never judged again: the first poll round past its
  // PermissibilityWait rejects it, whatever the parking phase.
  for (double PhaseUs = 0.0; PhaseUs < 5.0; PhaseUs += 0.25) {
    SCOPED_TRACE(testing::Message() << "enroll " << PhaseUs
                                    << " us into the poll cadence");
    sim::Simulator Sim;
    Courseware T;
    HambandCluster C(Sim, 4, T);
    C.start();
    const rdma::NetworkModel &M = C.fabric().model();
    rdma::NodeId Leader = C.leaderOf(0, 0);
    bool StudentOk = false;
    C.submit(2, Call(TwoEntitySchema::AddB, {7}, 2, 1),
             [&](bool Ok, Value) { StudentOk = Ok; });
    ASSERT_TRUE(
        runUntil(Sim, [&] { return StudentOk && C.fullyReplicated(); }));
    Sim.run(Sim.now() + sim::micros(PhaseUs));

    bool EnrollOk = true;
    sim::SimTime AnsweredAt = 0;
    // The leader's idle client lane parses and judges the call, then
    // parks it.
    sim::SimTime ParkedAt = Sim.now() + M.ParseCpu + M.ApplyCpu;
    C.submit(Leader, Call(TwoEntitySchema::Rel, {1, 7}, Leader, 3),
             [&](bool Ok, Value) {
               EnrollOk = Ok;
               AnsweredAt = Sim.now();
             });
    ASSERT_TRUE(runUntil(Sim, [&] { return AnsweredAt != 0; }));
    sim::SimTime Deadline = ParkedAt + C.config().PermissibilityWait;
    EXPECT_FALSE(EnrollOk);
    EXPECT_GE(AnsweredAt, Deadline);
    EXPECT_LE(AnsweredAt, Deadline + pollPeriod(C));
    EXPECT_EQ(leaderCounter(C, "node.conf.parked"), 1u);
    EXPECT_EQ(leaderCounter(C, "node.conf.rechecks"), 0u);
  }
}

TEST(DependencyWait, ParkedEnrollWakesWhenItsStudentsSummaryLands) {
  // The student arrives from another node as a reducible summary. The
  // poll round that installs it at the leader changes Apply(S)(σ), and
  // the parked enroll appends within one poll round of it.
  for (double PhaseUs = 0.0; PhaseUs < 5.0; PhaseUs += 0.25) {
    SCOPED_TRACE(testing::Message() << "registerStudent " << PhaseUs
                                    << " us after the enroll");
    sim::Simulator Sim;
    Courseware T;
    HambandCluster C(Sim, 4, T);
    C.start();
    rdma::NodeId Leader = C.leaderOf(0, 0);
    MuConsensus &Mu = *C.node(Leader).conf().consensus(0);
    bool CourseOk = false;
    C.submit(Leader, Call(TwoEntitySchema::AddA, {1}, Leader, 1),
             [&](bool Ok, Value) { CourseOk = Ok; });
    ASSERT_TRUE(runUntil(Sim, [&] { return CourseOk && C.fullyReplicated(); }));

    bool EnrollOk = false, EnrollDone = false;
    C.submit(Leader, Call(TwoEntitySchema::Rel, {1, 7}, Leader, 3),
             [&](bool Ok, Value) {
               EnrollOk = Ok;
               EnrollDone = true;
             });
    Sim.run(Sim.now() + sim::micros(PhaseUs));
    const std::uint64_t LogPos = Mu.nextIndex();
    C.submit(2, Call(TwoEntitySchema::AddB, {7}, 2, 2), [](bool, Value) {});
    sim::SimTime SummaryAt = 0, AppendAt = 0;
    sim::SimTime Cap = Sim.now() + sim::micros(500);
    while (AppendAt == 0 && Sim.now() < Cap && Sim.runOne()) {
      if (SummaryAt == 0 &&
          C.node(Leader).applied(2, TwoEntitySchema::AddB) == 1)
        SummaryAt = Sim.now();
      if (Mu.nextIndex() != LogPos)
        AppendAt = Sim.now();
    }
    ASSERT_NE(SummaryAt, 0u);
    ASSERT_NE(AppendAt, 0u);
    EXPECT_LE(AppendAt, SummaryAt + pollPeriod(C));
    ASSERT_TRUE(runUntil(Sim, [&] { return EnrollDone; }));
    EXPECT_TRUE(EnrollOk);
  }
}

TEST(DependencyWait, RejectedCallIsNotCommittedByALaterCopy) {
  // Node 1's withdraw(10) on a zero balance waits out leader 0's
  // permissibility wait and is rejected; a deposit of 100 lands after
  // that. The leader judged one copy of the withdraw, so nothing parked
  // there commits it once the deposit makes it permissible.
  sim::Simulator Sim;
  BankAccount T;
  HambandConfig Cfg;
  Cfg.PermissibilityWait = sim::millis(1);
  HambandCluster C(Sim, 3, T, rdma::NetworkModel(), Cfg);
  C.start();
  ASSERT_EQ(C.leaderOf(0, 1), 0u);
  std::optional<bool> Withdrawn;
  C.submit(1, Call(BankAccount::Withdraw, {10}, 1, 1),
           [&](bool Ok, Value) { Withdrawn = Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Withdrawn.has_value(); }));
  EXPECT_FALSE(*Withdrawn);
  bool Deposited = false;
  C.submit(2, Call(BankAccount::Deposit, {100}, 2, 1),
           [&](bool, Value) { Deposited = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Deposited && C.fullyReplicated(); }));
  Sim.run(Sim.now() + sim::micros(2000));
  EXPECT_EQ(C.node(0).conf().leaderQueueTotal(), 0u);
  for (rdma::NodeId N = 0; N < 3; ++N)
    EXPECT_EQ(T.query(C.node(N).visibleState(),
                      Call(BankAccount::Balance, {})),
              100)
        << "node " << N;
}
