//===- tests/ReconfigTests.cpp - Online membership reconfiguration ------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Exercises the epoch-fenced membership transition end to end: wire-format
// round trips, add-one (with one-sided state transfer over both the
// reducible-summary and irreducible-log paths), remove-one, wrong-epoch
// client rejection during the closed window, deterministic crashes at
// every transition stage with bit-for-bit trace replay, and delta
// propagation across a join (docs/reconfig.md).
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/Reconfig.h"
#include "hamband/sim/FaultInjector.h"
#include "hamband/types/Counter.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::runtime;
using namespace hamband::sim;
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

HambandConfig reconfigConfig(std::vector<std::uint8_t> InitialActive = {}) {
  HambandConfig Cfg;
  Cfg.Reconfig.Enabled = true;
  Cfg.Reconfig.InitialActive = std::move(InitialActive);
  return Cfg;
}

/// Sums a counter across the in-service nodes of \p C.
std::uint64_t clusterCounter(HambandCluster &C, const char *Name) {
  std::uint64_t Sum = 0;
  for (rdma::NodeId P = 0; P < C.numNodes(); ++P)
    Sum += C.node(P).statsSnapshot().counter(Name);
  return Sum;
}

} // namespace

//===----------------------------------------------------------------------===//
// Wire-format round trips
//===----------------------------------------------------------------------===//

TEST(ReconfigEncode, MembershipRoundTrip) {
  Membership M;
  M.Epoch = 7;
  M.Active = {1, 0, 1, 1, 0};
  std::vector<std::uint8_t> Bytes = encodeMembership(M);
  Membership Out;
  ASSERT_TRUE(decodeMembership(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Epoch, 7u);
  EXPECT_EQ(Out.Active, M.Active);
  EXPECT_EQ(Out.activeCount(), 3u);

  // Truncation and corruption must be rejected, not mis-decoded.
  Membership Bad;
  EXPECT_FALSE(decodeMembership(Bytes.data(), Bytes.size() - 1, Bad));
  std::vector<std::uint8_t> Corrupt = Bytes;
  Corrupt[0] ^= 0xFF; // Magic.
  EXPECT_FALSE(decodeMembership(Corrupt.data(), Corrupt.size(), Bad));
}

TEST(ReconfigEncode, LoggedCallRoundTrip) {
  Call C(3, {42, -7, 0x123456789abLL}, /*Issuer=*/2, /*Req=*/901);
  std::vector<std::uint8_t> Bytes = encodeLoggedCall(C);
  Call Out;
  ASSERT_TRUE(decodeLoggedCall(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Method, C.Method);
  EXPECT_EQ(Out.Args, C.Args);
  EXPECT_EQ(Out.Issuer, C.Issuer);
  EXPECT_EQ(Out.Req, C.Req);
  EXPECT_FALSE(decodeLoggedCall(Bytes.data(), Bytes.size() - 1, Out));
}

TEST(ReconfigEncode, TransferImageRoundTrip) {
  TransferImage Img;
  Img.Epoch = 3;
  Img.Applied = {{1, 2}, {3, 4}, {0, 9}};
  Img.FreeSeqNext = {5, 6, 7};
  Img.Summaries.resize(2);
  Img.Summaries[0].resize(3);
  Img.Summaries[0][1] = {11, {0xDE, 0xAD, 0xBE}};
  Img.Summaries[1].resize(3); // All empty.
  Img.ConfNextIndex = {4, 0};
  Img.IrreducibleLog.push_back(encodeLoggedCall(Call(1, {8}, 0, 55)));
  Img.IrreducibleLog.push_back(encodeLoggedCall(Call(0, {9, 1}, 2, 56)));

  std::vector<std::uint8_t> Bytes = encodeTransferImage(Img);
  TransferImage Out;
  ASSERT_TRUE(decodeTransferImage(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Epoch, 3u);
  EXPECT_EQ(Out.Applied, Img.Applied);
  EXPECT_EQ(Out.FreeSeqNext, Img.FreeSeqNext);
  ASSERT_EQ(Out.Summaries.size(), 2u);
  EXPECT_EQ(Out.Summaries[0][1].first, 11u);
  EXPECT_EQ(Out.Summaries[0][1].second,
            (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE}));
  EXPECT_TRUE(Out.Summaries[0][0].second.empty());
  EXPECT_EQ(Out.ConfNextIndex, Img.ConfNextIndex);
  EXPECT_EQ(Out.IrreducibleLog, Img.IrreducibleLog);
  TransferImage Bad;
  EXPECT_FALSE(decodeTransferImage(Bytes.data(), Bytes.size() / 2, Bad));
}

//===----------------------------------------------------------------------===//
// Fixed-membership equivalence
//===----------------------------------------------------------------------===//

TEST(Reconfig, DisabledClusterReportsEpochZero) {
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 3, T);
  C.start();
  EXPECT_EQ(C.membershipEpoch(), 0u);
  EXPECT_EQ(C.reconfigManager(), nullptr);
  EXPECT_FALSE(C.reconfigure({1, 1, 1}, nullptr));
  for (rdma::NodeId P = 0; P < 3; ++P)
    EXPECT_TRUE(C.inService(P));
}

//===----------------------------------------------------------------------===//
// Add one node (join with state transfer)
//===----------------------------------------------------------------------===//

TEST(Reconfig, AddOneJoinerCatchesUpReducible) {
  // Counter folds into per-group summaries: the joiner must receive the
  // drained total through the transfer image's summary path.
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 4, T, {}, reconfigConfig({1, 1, 1, 0}));
  C.start();

  unsigned Acks = 0;
  for (unsigned I = 0; I < 30; ++I)
    C.submit(I % 3, Call(Counter::Add, {Value(I + 1)}, I % 3, 100 + I),
             [&](bool Ok, Value) { Acks += Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Acks == 30 && C.fullyReplicated(); }));

  // The standby saw none of it.
  EXPECT_EQ(C.node(3).applied(0, Counter::Add), 0u);
  EXPECT_FALSE(C.inService(3));

  bool Done = false, Ok = false;
  std::uint32_t Epoch = 0;
  ASSERT_TRUE(C.reconfigure({1, 1, 1, 1}, [&](bool K, std::uint32_t E) {
    Done = true;
    Ok = K;
    Epoch = E;
  }));
  // A second transition may not start while one is in flight.
  EXPECT_FALSE(C.reconfigure({1, 1, 1, 1}, nullptr));
  ASSERT_TRUE(runUntil(Sim, [&] { return Done; }));
  EXPECT_TRUE(Ok);
  EXPECT_EQ(Epoch, 1u);
  EXPECT_EQ(C.membershipEpoch(), 1u);
  EXPECT_TRUE(C.inService(3));

  // The joiner answers queries with the full pre-transition history.
  Value Got = -1;
  C.node(3).submit(Call(Counter::Read, {}, 3, 999),
                   [&](bool, Value V) { Got = V; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Got >= 0; }));
  EXPECT_EQ(Got, Value(30 * 31 / 2));

  // And participates in the new epoch: updates at the joiner replicate
  // everywhere, and all four nodes converge.
  bool Post = false;
  C.submit(3, Call(Counter::Add, {1000}, 3, 2000),
           [&](bool K, Value) { Post = K; });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Post && C.fullyReplicated() && C.converged();
  }));
  EXPECT_EQ(C.node(0).applied(3, Counter::Add), 1u);
  // Cross-epoch records must never reach apply (the fence closed the old
  // epoch before any new-epoch traffic started).
  EXPECT_EQ(clusterCounter(C, "reconfig.cross_epoch_apply"), 0u);
  EXPECT_GE(clusterCounter(C, "reconfig.installs"), 4u);
}

TEST(Reconfig, AddOneJoinerCatchesUpIrreducible) {
  // ORSet adds are conflict-free irreducible: they reach the joiner via
  // the donor's retained call log, replayed in apply order.
  sim::Simulator Sim;
  auto T = makeType("orset");
  HambandCluster C(Sim, 4, *T, {}, reconfigConfig({1, 1, 1, 0}));
  C.start();

  unsigned Acks = 0;
  for (unsigned I = 0; I < 12; ++I)
    C.submit(I % 3, Call(0 /*add*/, {Value(I)}, I % 3, 100 + I),
             [&](bool, Value) { ++Acks; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Acks == 12 && C.fullyReplicated(); }));

  bool Done = false, Ok = false;
  ASSERT_TRUE(C.reconfigure({1, 1, 1, 1},
                            [&](bool K, std::uint32_t) { Done = true; Ok = K; }));
  ASSERT_TRUE(runUntil(Sim, [&] { return Done; }));
  ASSERT_TRUE(Ok);

  // Every transferred element is visible at the joiner.
  for (Value E : {Value(0), Value(5), Value(11)}) {
    Value Got = -1;
    C.node(3).submit(Call(2 /*contains*/, {E}, 3, 900 + unsigned(E)),
                     [&](bool, Value V) { Got = V; });
    ASSERT_TRUE(runUntil(Sim, [&] { return Got >= 0; }));
    EXPECT_EQ(Got, 1) << "element " << E << " missing at joiner";
  }
  EXPECT_TRUE(runUntil(Sim, [&] { return C.converged(); }));
  EXPECT_GT(C.statsSnapshot().counter("reconfig.transfer_bytes"), 0u);
}

//===----------------------------------------------------------------------===//
// Remove one node
//===----------------------------------------------------------------------===//

TEST(Reconfig, RemoveOneNodeLeavesServiceCleanly) {
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 4, T, {}, reconfigConfig());
  C.start();

  unsigned Acks = 0;
  for (unsigned I = 0; I < 16; ++I)
    C.submit(I % 4, Call(Counter::Add, {1}, I % 4, 100 + I),
             [&](bool Ok, Value) { Acks += Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Acks == 16 && C.fullyReplicated(); }));

  bool Done = false, Ok = false;
  std::uint32_t Epoch = 0;
  ASSERT_TRUE(C.reconfigure({1, 1, 1, 0}, [&](bool K, std::uint32_t E) {
    Done = true;
    Ok = K;
    Epoch = E;
  }));
  ASSERT_TRUE(runUntil(Sim, [&] { return Done; }));
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Epoch, 1u);
  EXPECT_FALSE(C.inService(3));

  // The removed node no longer serves updates...
  bool RejDone = false, RejOk = true;
  C.submit(3, Call(Counter::Add, {5}, 3, 500), [&](bool K, Value) {
    RejDone = true;
    RejOk = K;
  });
  ASSERT_TRUE(runUntil(Sim, [&] { return RejDone; }));
  EXPECT_FALSE(RejOk);

  // ...while the remaining three keep making progress and converge.
  unsigned Post = 0;
  for (unsigned I = 0; I < 9; ++I)
    C.submit(I % 3, Call(Counter::Add, {2}, I % 3, 600 + I),
             [&](bool K, Value) { Post += K; });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Post == 9 && C.fullyReplicated() && C.converged();
  }));
  Value Got = -1;
  C.node(0).submit(Call(Counter::Read, {}, 0, 700),
                   [&](bool, Value V) { Got = V; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Got >= 0; }));
  EXPECT_EQ(Got, 16 + 9 * 2);
  EXPECT_EQ(clusterCounter(C, "reconfig.cross_epoch_apply"), 0u);
}

//===----------------------------------------------------------------------===//
// Wrong-epoch rejection during the closed window
//===----------------------------------------------------------------------===//

TEST(Reconfig, UpdateDuringTransitionGetsWrongEpochThenRetrySucceeds) {
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 4, T, {}, reconfigConfig({1, 1, 1, 0}));
  C.start();
  bool Warm = false;
  C.submit(0, Call(Counter::Add, {1}, 0, 1), [&](bool, Value) { Warm = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Warm && C.fullyReplicated(); }));

  bool Done = false;
  ASSERT_TRUE(
      C.reconfigure({1, 1, 1, 1}, [&](bool, std::uint32_t) { Done = true; }));

  // Step just far enough for the coordinator's Close tick to land, then
  // submit an update into the closed window.
  Sim.run(Sim.now() + C.config().Reconfig.TickInterval * 3);
  ASSERT_FALSE(Done);
  bool RejDone = false, RejOk = true;
  Value RejVal = 0;
  C.submit(1, Call(Counter::Add, {9}, 1, 50), [&](bool K, Value V) {
    RejDone = true;
    RejOk = K;
    RejVal = V;
  });
  ASSERT_TRUE(runUntil(Sim, [&] { return RejDone; }));
  EXPECT_FALSE(RejOk);
  EXPECT_EQ(RejVal, WrongEpochValue);

  // Queries keep flowing while updates are fenced.
  Value QVal = -1;
  C.node(2).submit(Call(Counter::Read, {}, 2, 60),
                   [&](bool, Value V) { QVal = V; });
  ASSERT_TRUE(runUntil(Sim, [&] { return QVal >= 0; }));
  EXPECT_EQ(QVal, 1);

  // The wrong-epoch client retry succeeds once the new epoch reopens.
  ASSERT_TRUE(runUntil(Sim, [&] { return Done; }));
  bool RetryDone = false, RetryOk = false;
  C.submit(1, Call(Counter::Add, {9}, 1, 51), [&](bool K, Value) {
    RetryDone = true;
    RetryOk = K;
  });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return RetryDone && C.fullyReplicated() && C.converged();
  }));
  EXPECT_TRUE(RetryOk);
  EXPECT_GT(clusterCounter(C, "reconfig.cross_epoch_drop") +
                C.statsSnapshot().counter("reconfig.transitions"),
            0u);
}

//===----------------------------------------------------------------------===//
// Crash during transition: every stage, with bit-for-bit trace replay
//===----------------------------------------------------------------------===//

namespace {

struct CrashRun {
  FaultTrace Trace;
  std::uint64_t Fingerprint = 0;
  bool Done = false;
  bool Ok = false;
  std::uint32_t Epoch = 0;
  std::uint64_t CrossEpochApply = 0;
};

/// Drives the add-one transition with a forced crash of \p Victim at the
/// \p StageOp-th reconfig-stage consultation (record mode when \p Replay
/// is null). The forced crash only applies in record mode; replay
/// re-applies the recorded crash event at the same consultation.
CrashRun runCrashAtStage(std::int64_t StageOp, std::uint32_t Victim,
                         const FaultTrace *Replay = nullptr) {
  CrashRun R;
  sim::Simulator Sim;
  Counter T;
  HambandCluster C(Sim, 4, T, {}, reconfigConfig({1, 1, 1, 0}));
  std::unique_ptr<FaultInjector> FI;
  if (Replay) {
    FI = std::make_unique<FaultInjector>(Sim, *Replay);
  } else {
    FaultSpec Quiet; // No random faults: only the forced stage crash.
    FI = std::make_unique<FaultInjector>(Sim,
                                         FaultPlan::generate(1, Quiet, 4));
    FI->forceReconfigCrash(StageOp, Victim);
  }
  C.attachFaultInjector(*FI);
  FI->arm();
  C.start();

  unsigned Acks = 0;
  for (unsigned I = 0; I < 9; ++I)
    C.submit(I % 3, Call(Counter::Add, {Value(I + 1)}, I % 3, 100 + I),
             [&](bool, Value) { ++Acks; });
  EXPECT_TRUE(runUntil(Sim, [&] { return Acks == 9 && C.fullyReplicated(); }));

  C.reconfigure({1, 1, 1, 1}, [&](bool K, std::uint32_t E) {
    R.Done = true;
    R.Ok = K;
    R.Epoch = E;
  });
  EXPECT_TRUE(runUntil(Sim, [&] { return R.Done; }, 600000.0))
      << "transition never terminated (stage op " << StageOp << ")";

  // Whatever the outcome, the surviving in-service replicas settle.
  runUntil(Sim, [&] { return C.fullyReplicatedLive(); });
  EXPECT_TRUE(C.convergedLive());
  R.CrossEpochApply = clusterCounter(C, "reconfig.cross_epoch_apply");
  EXPECT_EQ(R.CrossEpochApply, 0u);
  R.Fingerprint = C.stateFingerprint();
  R.Trace = FI->trace();
  return R;
}

} // namespace

TEST(ReconfigCrash, FollowerCrashAtEveryStageTerminatesAndReplays) {
  // Stage consultations of a successful add-one transition land in order:
  // Close=0, Drain=1, Fence=2, Transfer=3, Install=4, Reopen=5. Crash a
  // follower (node 1: not the coordinator, not the joiner) at each one;
  // the transition must terminate either way, survivors must converge,
  // and the recorded trace must replay bit for bit to the same state.
  for (std::int64_t StageOp = 0; StageOp <= 5; ++StageOp) {
    SCOPED_TRACE("stage op " + std::to_string(StageOp));
    CrashRun Rec = runCrashAtStage(StageOp, /*Victim=*/1);
    // The forced crash must actually have been applied.
    bool SawCrash = false;
    for (const TraceEvent &E : Rec.Trace.Events)
      SawCrash |= E.Kind == FaultKind::Crash && E.A == 1;
    EXPECT_TRUE(SawCrash);

    CrashRun Rep = runCrashAtStage(StageOp, /*Victim=*/1, &Rec.Trace);
    EXPECT_EQ(Rep.Trace, Rec.Trace) << "trace diverged under replay";
    EXPECT_EQ(Rep.Fingerprint, Rec.Fingerprint);
    EXPECT_EQ(Rep.Done, Rec.Done);
    EXPECT_EQ(Rep.Ok, Rec.Ok);
    EXPECT_EQ(Rep.Epoch, Rec.Epoch);
  }
}

TEST(ReconfigCrash, JoinerCrashDuringTransferAborts) {
  // Killing the joiner at the Transfer consultation strands the state
  // transfer; the coordinator must abort back to the old epoch and the
  // old members must resume service.
  CrashRun R = runCrashAtStage(/*StageOp=*/3, /*Victim=*/3);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Epoch, 0u);

  CrashRun Rep = runCrashAtStage(3, 3, &R.Trace);
  EXPECT_EQ(Rep.Trace, R.Trace);
  EXPECT_EQ(Rep.Fingerprint, R.Fingerprint);
}

TEST(ReconfigCrash, CoordinatorCrashEarlyAborts) {
  // The coordinator is the lowest in-service node (0). Crashing it at the
  // Drain consultation leaves its timer driving the abort path: the
  // transition must terminate without installing the new epoch.
  CrashRun R = runCrashAtStage(/*StageOp=*/1, /*Victim=*/0);
  EXPECT_TRUE(R.Done);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Epoch, 0u);

  CrashRun Rep = runCrashAtStage(1, 0, &R.Trace);
  EXPECT_EQ(Rep.Trace, R.Trace);
  EXPECT_EQ(Rep.Fingerprint, R.Fingerprint);
}

//===----------------------------------------------------------------------===//
// Delta propagation across a join
//===----------------------------------------------------------------------===//

namespace {

struct DeltaJoinRun {
  bool Replicated = false;
  Value JoinerRead = -1;
  std::uint64_t JoinerGaps = 0;
};

/// With deltas on, node 0 adds 1..PreCalls, the last provisioned node
/// joins (node 0, the coordinator, donates the transfer image), then
/// node 0 adds 1000: the joiner must join that call's delta frame onto
/// the transferred image.
DeltaJoinRun deltaJoinThenAdd(std::vector<std::uint8_t> InitialActive,
                              unsigned PreCalls) {
  sim::Simulator Sim;
  Counter T;
  const unsigned N = static_cast<unsigned>(InitialActive.size());
  const rdma::NodeId Joiner = N - 1;
  HambandConfig Cfg = reconfigConfig(std::move(InitialActive));
  Cfg.Delta.Enabled = true;
  HambandCluster C(Sim, N, T, {}, Cfg);
  C.start();

  unsigned Acks = 0;
  for (unsigned I = 1; I <= PreCalls; ++I)
    C.submit(0, Call(Counter::Add, {Value(I)}, 0, I),
             [&](bool Ok, Value) { Acks += Ok; });
  EXPECT_TRUE(
      runUntil(Sim, [&] { return Acks == PreCalls && C.fullyReplicated(); }));

  bool Done = false, Ok = false;
  EXPECT_TRUE(C.reconfigure(std::vector<std::uint8_t>(N, 1),
                            [&](bool K, std::uint32_t) {
                              Done = true;
                              Ok = K;
                            }));
  EXPECT_TRUE(runUntil(Sim, [&] { return Done; }));
  EXPECT_TRUE(Ok);

  C.submit(0, Call(Counter::Add, {1000}, 0, 1000),
           [&](bool K, Value) { Acks += K; });
  DeltaJoinRun R;
  R.Replicated = runUntil(
      Sim, [&] { return Acks == PreCalls + 1 && C.fullyReplicated(); });
  R.JoinerRead = T.query(C.node(Joiner).visibleState(),
                         Call(Counter::Read, {}, Joiner, 0));
  R.JoinerGaps = C.node(Joiner).statsSnapshot().counter("node.delta.gap");
  return R;
}

} // namespace

TEST(ReconfigDelta, JoinerJoinsTheDonorsNextDeltaFrame) {
  // The transfer must carry the donor's real version of its own summary:
  // the donor's next delta frame starts there, so a joiner holding any
  // other version parks the frame as a gap and diverges.
  DeltaJoinRun R = deltaJoinThenAdd({1, 1, 1, 0}, 30);
  EXPECT_TRUE(R.Replicated);
  EXPECT_EQ(R.JoinerGaps, 0u);
  EXPECT_EQ(R.JoinerRead, Value(30 * 31 / 2 + 1000));
}

TEST(ReconfigDelta, LoneSourceDeltaStartsAtItsVersion) {
  // Node 0's first calls flush with no active peer. Those flushes must
  // still advance its shipped version, so its first delta frame after
  // the join covers only the new call, from the transferred version.
  DeltaJoinRun R = deltaJoinThenAdd({1, 0}, 10);
  EXPECT_TRUE(R.Replicated);
  EXPECT_EQ(R.JoinerGaps, 0u);
  EXPECT_EQ(R.JoinerRead, Value(10 * 11 / 2 + 1000));
}
