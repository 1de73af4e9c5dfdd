//===- tests/FaultInjectorTests.cpp - Fault injection & replay ----------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The deterministic fault-injection subsystem: plan generation from a
// seed, each fault kind in isolation, trace recording, and bit-for-bit
// replay of recorded traces.
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"
#include "hamband/sim/FaultInjector.h"

#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::runtime;
using namespace hamband::sim;

namespace {

/// Runs a small counter workload on a 4-node cluster under \p Spec (or, in
/// replay mode, under \p Replay) and returns the recorded trace.
FaultTrace runWorkload(std::uint64_t Seed, const FaultSpec &Spec,
                       const FaultTrace *Replay = nullptr,
                       bool *AllLiveReplicated = nullptr,
                       HambandCluster **OutCluster = nullptr,
                       std::uint64_t *RecoveredSum = nullptr) {
  const unsigned Nodes = 4;
  auto T = makeType("counter");
  sim::Simulator Sim;
  HambandCluster C(Sim, Nodes, *T);
  std::unique_ptr<FaultInjector> FI;
  if (Replay)
    FI = std::make_unique<FaultInjector>(Sim, *Replay);
  else
    FI = std::make_unique<FaultInjector>(
        Sim, FaultPlan::generate(Seed, Spec, Nodes));
  C.attachFaultInjector(*FI);
  FI->arm();
  C.start();

  sim::Rng WR(Seed ^ 0x77);
  MethodId Inc = T->coordination().updateMethods().front();
  for (unsigned I = 0; I < 24; ++I) {
    ProcessId P0 = static_cast<ProcessId>(WR.index(Nodes));
    ProcessId P = P0;
    for (unsigned K = 0; K < Nodes; ++K) {
      ProcessId Q = (P0 + K) % Nodes;
      if (C.isLive(Q) && !C.node(Q).isOutOfService()) {
        P = Q;
        break;
      }
    }
    C.submit(P, T->randomClientCall(Inc, P, 100 + I, WR), nullptr);
    Sim.run(Sim.now() + sim::micros(3));
  }

  Sim.run(std::max(Spec.Horizon, Spec.HealBy) + sim::millis(1));
  sim::SimTime Cap = Sim.now() + sim::millis(300);
  while (Sim.now() < Cap && !C.fullyReplicatedLive())
    Sim.run(Sim.now() + sim::micros(20));
  if (AllLiveReplicated)
    *AllLiveReplicated = C.fullyReplicatedLive() && C.convergedLive();
  if (RecoveredSum) {
    *RecoveredSum = 0;
    for (ProcessId P = 0; P < Nodes; ++P)
      if (C.isLive(P))
        *RecoveredSum += C.node(P).recoveredBroadcasts();
  }
  if (OutCluster) {
    // Only fields queried before Sim/C go out of scope are meaningful;
    // callers inspecting the cluster must do so via the other outputs.
    *OutCluster = nullptr;
  }
  return FI->trace();
}

FaultSpec noisySpec() {
  FaultSpec S;
  S.OneSidedDelayProb = 0.1;
  S.NumSuspends = 1;
  S.NumPartitions = 1;
  return S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan generation
//===----------------------------------------------------------------------===//

TEST(FaultPlan, GenerationIsDeterministic) {
  FaultSpec S;
  S.NumCrashes = 2;
  S.NumSuspends = 2;
  S.NumPartitions = 2;
  FaultPlan A = FaultPlan::generate(1234, S, 5);
  FaultPlan B = FaultPlan::generate(1234, S, 5);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A.Timed.empty());
  FaultPlan Other = FaultPlan::generate(1235, S, 5);
  EXPECT_FALSE(A == Other);
}

TEST(FaultPlan, NeverFailsAMajority) {
  FaultSpec S;
  S.NumCrashes = 5;
  S.NumSuspends = 5;
  for (unsigned Nodes : {3u, 4u, 5u, 7u}) {
    unsigned Budget = (Nodes - 1) / 2;
    for (std::uint64_t Seed = 0; Seed < 20; ++Seed) {
      FaultPlan P = FaultPlan::generate(Seed, S, Nodes);
      // Evaluate the failed-node count at every event time.
      for (const TimedFault &Probe : P.Timed) {
        unsigned Failed = 0;
        std::vector<bool> Down(Nodes, false);
        for (const TimedFault &F : P.Timed) {
          if (F.Kind == FaultKind::Crash && F.At <= Probe.At)
            Down[F.A] = true;
          if (F.Kind == FaultKind::Suspend && F.At <= Probe.At)
            Down[F.A] = true;
          if (F.Kind == FaultKind::Recover && F.At <= Probe.At)
            Down[F.A] = false;
        }
        for (unsigned N = 0; N < Nodes; ++N)
          Failed += Down[N] ? 1 : 0;
        EXPECT_LE(Failed, Budget) << "nodes=" << Nodes << " seed=" << Seed;
      }
    }
  }
}

TEST(FaultPlan, PartitionsHealWithinBound) {
  FaultSpec S;
  S.NumPartitions = 3;
  FaultPlan P = FaultPlan::generate(99, S, 5);
  unsigned Starts = 0, Heals = 0;
  for (const TimedFault &F : P.Timed) {
    if (F.Kind == FaultKind::PartitionStart) {
      ++Starts;
      EXPECT_LE(F.Until, S.HealBy);
      EXPECT_LT(F.At, F.Until);
    }
    if (F.Kind == FaultKind::PartitionHeal)
      ++Heals;
  }
  EXPECT_EQ(Starts, Heals);
  EXPECT_GT(Starts, 0u);
}

//===----------------------------------------------------------------------===//
// Trace serialization
//===----------------------------------------------------------------------===//

TEST(FaultTrace, SerializationRoundTrip) {
  FaultTrace T;
  T.Seed = 0xdeadbeef12345678ull;
  T.NumNodes = 5;
  T.Events.push_back(
      {100, FaultKind::Delay, FaultChannel::OneSided, 7, 1, 2, 350});
  T.Events.push_back(
      {200, FaultKind::Delay, FaultChannel::OneSided, 9, 2, 0, 1200});
  T.Events.push_back(
      {300, FaultKind::Crash, FaultChannel::Broadcast, 1, 3, 0, 0});
  T.Events.push_back({400, FaultKind::Crash, FaultChannel::Timed, 0, 4, 0, 0});
  T.Events.push_back({500, FaultKind::PartitionStart, FaultChannel::Timed, 1,
                      0, 1, 900});
  T.Events.push_back(
      {600, FaultKind::Note, FaultChannel::External, 0, 1, 9, -42});
  std::string Ser = T.serialize();
  FaultTrace Back;
  ASSERT_TRUE(FaultTrace::deserialize(Ser, Back));
  EXPECT_TRUE(Back == T);
  // Malformed inputs are rejected, not misparsed.
  FaultTrace Bad;
  EXPECT_FALSE(FaultTrace::deserialize("nonsense", Bad));
  EXPECT_FALSE(FaultTrace::deserialize(Ser.substr(0, Ser.size() / 2), Bad));
}

TEST(FaultTrace, RetiredTwoSidedEventsAreRejected) {
  // Channel 1 and the kinds "drop" and "dup" name two-sided message
  // faults, which the injector does not inject. A trace naming them
  // cannot replay, so it must not parse.
  FaultTrace T;
  T.Seed = 3;
  T.NumNodes = 3;
  T.Events.push_back(
      {100, FaultKind::Delay, FaultChannel::OneSided, 4, 0, 1, 350});
  std::string Ser = T.serialize();
  const std::string Line = "100 delay 0 4 0 1 350\n";
  ASSERT_NE(Ser.find(Line), std::string::npos);
  FaultTrace Back;
  ASSERT_TRUE(FaultTrace::deserialize(Ser, Back));
  auto Edited = [&](const std::string &NewLine) {
    std::string E = Ser;
    E.replace(E.find(Line), Line.size(), NewLine);
    return E;
  };
  EXPECT_FALSE(FaultTrace::deserialize(Edited("100 delay 1 4 0 1 350\n"),
                                       Back));
  EXPECT_FALSE(FaultTrace::deserialize(Edited("100 drop 0 4 0 1 0\n"),
                                       Back));
  EXPECT_FALSE(FaultTrace::deserialize(Edited("100 dup 0 4 0 1 1\n"),
                                       Back));
}

//===----------------------------------------------------------------------===//
// Fault kinds in isolation, at the fabric level
//===----------------------------------------------------------------------===//

namespace {

/// Builds an empty plan (no timed faults) with the given per-op spec.
FaultPlan perOpPlan(const FaultSpec &S, unsigned Nodes) {
  FaultPlan P;
  P.Seed = 7;
  P.NumNodes = Nodes;
  P.Spec = S;
  return P;
}

} // namespace

TEST(FaultInjector, DelaysOneSidedOpsButNeverDropsThem) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2);
  FaultSpec S;
  S.OneSidedDelayProb = 1.0;
  FaultInjector FI(Sim, perOpPlan(S, 2));
  Fab.setFaultHook(&FI);
  unsigned Completed = 0;
  for (int I = 0; I < 4; ++I)
    Fab.postWrite(0, 1, 64 + 8 * I, {42}, rdma::UnprotectedRegion,
                  [&Completed](rdma::WcStatus St) {
                    EXPECT_EQ(St, rdma::WcStatus::Success);
                    ++Completed;
                  });
  Sim.run();
  EXPECT_EQ(Completed, 4u); // RC transport: delayed, never lost.
  for (const TraceEvent &E : FI.trace().Events) {
    EXPECT_EQ(E.Kind, FaultKind::Delay);
    EXPECT_EQ(E.Channel, FaultChannel::OneSided);
  }
  EXPECT_EQ(FI.trace().Events.size(), 4u);
}

TEST(FaultInjector, PartitionDelaysOneSidedOpsUntilHeal) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2);
  FaultPlan P = perOpPlan(FaultSpec(), 2);
  const sim::SimTime Heal = sim::micros(200);
  P.Timed.push_back({0, FaultKind::PartitionStart, 0, 1, Heal});
  P.Timed.push_back({Heal, FaultKind::PartitionHeal, 0, 1, 0});
  FaultInjector FI(Sim, P);
  Fab.setFaultHook(&FI);
  FI.arm();
  Sim.run(sim::nanos(1)); // Fire the partition start.
  ASSERT_TRUE(FI.isPartitioned(0, 1));
  sim::SimTime CompletedAt = 0;
  Fab.postWrite(0, 1, 64, {1}, rdma::UnprotectedRegion,
                [&](rdma::WcStatus) { CompletedAt = Sim.now(); });
  Sim.run();
  EXPECT_GE(CompletedAt, Heal); // Held back until the link healed.
  EXPECT_FALSE(FI.isPartitioned(0, 1));
}

//===----------------------------------------------------------------------===//
// Fault kinds in isolation, at the cluster level
//===----------------------------------------------------------------------===//

TEST(FaultInjector, OneSidedDelayNoiseKeepsClusterConvergent) {
  FaultSpec S;
  S.OneSidedDelayProb = 0.2;
  bool Converged = false;
  FaultTrace T = runWorkload(11, S, nullptr, &Converged);
  EXPECT_TRUE(Converged);
  EXPECT_FALSE(T.Events.empty());
  for (const TraceEvent &E : T.Events)
    EXPECT_EQ(E.Kind, FaultKind::Delay);
}

TEST(FaultInjector, TimedCrashLeavesLiveMajorityConvergent) {
  FaultSpec S;
  S.NumCrashes = 1;
  bool Converged = false;
  FaultTrace T = runWorkload(12, S, nullptr, &Converged);
  EXPECT_TRUE(Converged);
  unsigned Crashes = 0;
  for (const TraceEvent &E : T.Events)
    if (E.Kind == FaultKind::Crash)
      ++Crashes;
  EXPECT_EQ(Crashes, 1u);
}

TEST(FaultInjector, SuspendThenRecoverRestoresFullCluster) {
  FaultSpec S;
  S.NumSuspends = 1;
  bool Converged = false;
  FaultTrace T = runWorkload(13, S, nullptr, &Converged);
  EXPECT_TRUE(Converged);
  bool SawSuspend = false, SawRecover = false;
  for (const TraceEvent &E : T.Events) {
    SawSuspend |= E.Kind == FaultKind::Suspend;
    SawRecover |= E.Kind == FaultKind::Recover;
  }
  EXPECT_TRUE(SawSuspend);
  EXPECT_TRUE(SawRecover);
}

TEST(FaultInjector, CrashOnStageExercisesBackupRecovery) {
  FaultSpec S;
  S.CrashOnStageProb = 1.0; // First staged broadcast kills its source.
  bool Converged = false;
  std::uint64_t Recovered = 0;
  FaultTrace T = runWorkload(14, S, nullptr, &Converged, nullptr,
                             &Recovered);
  EXPECT_TRUE(Converged);
  bool SawStageCrash = false;
  for (const TraceEvent &E : T.Events)
    SawStageCrash |= E.Kind == FaultKind::Crash &&
                     E.Channel == FaultChannel::Broadcast;
  EXPECT_TRUE(SawStageCrash);
  // The staged-but-unwritten message must have been recovered from the
  // crashed source's backup slot by at least one live peer.
  EXPECT_GE(Recovered, 1u);
}

//===----------------------------------------------------------------------===//
// Determinism and replay
//===----------------------------------------------------------------------===//

TEST(FaultInjector, SameSeedProducesIdenticalTrace) {
  FaultSpec S = noisySpec();
  FaultTrace A = runWorkload(21, S);
  FaultTrace B = runWorkload(21, S);
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A.Events.empty());
  FaultTrace Other = runWorkload(22, S);
  EXPECT_FALSE(A == Other);
}

TEST(FaultInjector, ReplayReproducesTraceBitForBit) {
  FaultSpec S = noisySpec();
  bool RecConverged = false, RepConverged = false;
  FaultTrace Recorded = runWorkload(23, S, nullptr, &RecConverged);
  ASSERT_TRUE(RecConverged);
  ASSERT_FALSE(Recorded.Events.empty());
  FaultTrace Replayed = runWorkload(23, S, &Recorded, &RepConverged);
  EXPECT_TRUE(RepConverged);
  EXPECT_TRUE(Replayed == Recorded);
}

TEST(FaultInjector, ReplayFromSerializedTraceMatches) {
  FaultSpec S;
  S.OneSidedDelayProb = 0.1;
  S.NumCrashes = 1;
  FaultTrace Recorded = runWorkload(24, S);
  FaultTrace Loaded;
  ASSERT_TRUE(FaultTrace::deserialize(Recorded.serialize(), Loaded));
  ASSERT_TRUE(Loaded == Recorded);
  FaultTrace Replayed = runWorkload(24, S, &Loaded);
  EXPECT_TRUE(Replayed == Recorded);
}
