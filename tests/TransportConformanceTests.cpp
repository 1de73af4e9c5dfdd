//===- tests/TransportConformanceTests.cpp - Backend conformance --------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The backend-parameterized conformance suite: every test here runs
// against BOTH Transport backends -- the deterministic discrete-event
// simulator (Fabric) and the shared-memory backend where each node is a
// real OS thread (ShmTransport). The suite has two layers:
//
//  - transport-level: the verb contract (write visibility and FIFO
//    ordering, snapshot reads, permissions, crash semantics, diagnostic
//    counters) and the single-writer ring protocol
//    (canary validation, spanning records, wrap padding) behave
//    identically on both backends;
//
//  - cluster-level: the lockstep-equivalence corpus from
//    CrossValidationTests, re-run over each backend. For
//    observation-independent conflict-free types the final state is a
//    pure function of the call multiset, so even the *concurrent* shm
//    runtime must agree bit-for-bit with the executable semantics;
//    conflicting and observation-dependent types must converge per world
//    and keep their integrity invariant.
//
// Anything inherently tied to simulated time (latency ratios, CPU-lane
// timing, fault schedules, trace replay) stays in RdmaTests /
// FaultInjectorTests; this file pins the sim-only policy for fault
// injection explicitly. See docs/transport.md.
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/RingBuffer.h"
#include "hamband/semantics/RdmaSemantics.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <tuple>

using namespace hamband;
using namespace hamband::rdma;
using namespace hamband::runtime;

namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> L) {
  return std::vector<std::uint8_t>(L);
}

std::string sanitized(std::string Name) {
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

//===----------------------------------------------------------------------===//
// Transport-level conformance
//===----------------------------------------------------------------------===//

class TransportConformance
    : public ::testing::TestWithParam<TransportKind> {
protected:
  void SetUp() override {
    if (GetParam() == TransportKind::Sim) {
      Sim = std::make_unique<sim::Simulator>();
      T = std::make_unique<Fabric>(*Sim, 3, NetworkModel(), 1u << 20);
    } else {
      T = std::make_unique<ShmTransport>(3, NetworkModel(), 1u << 20);
    }
  }

  void TearDown() override {
    if (T)
      T->shutdown();
  }

  /// Runs the backend until it is quiescent. On sim this drains the event
  /// queue; on shm it polls idle() under pauseWorld(), whose exclusive
  /// world-lock acquisition both waits out in-flight tasks and publishes
  /// their effects to this thread.
  void settle() {
    if (Sim) {
      Sim->run();
      return;
    }
    for (int Spin = 0; Spin < 200000; ++Spin) {
      T->pauseWorld();
      bool Quiet = T->idle();
      T->resumeWorld();
      if (Quiet)
        return;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    FAIL() << "shm transport did not quiesce";
  }

  /// Declared first, so it outlives the transport that setObs() wires
  /// into it.
  obs::Registry Obs;
  std::unique_ptr<sim::Simulator> Sim; // Sim backend only.
  std::unique_ptr<Transport> T;
};

TEST_P(TransportConformance, KindAndDeterminismMatchBackend) {
  EXPECT_EQ(T->kind(), GetParam());
  EXPECT_EQ(T->deterministic(), GetParam() == TransportKind::Sim);
  EXPECT_EQ(T->simulatorOrNull() != nullptr,
            GetParam() == TransportKind::Sim);
  EXPECT_EQ(T->numNodes(), 3u);
}

TEST_P(TransportConformance, WriteCompletionFires) {
  std::atomic<bool> Completed{false};
  T->postWrite(0, 1, 0, bytes({1}), UnprotectedRegion, [&](WcStatus St) {
    EXPECT_EQ(St, WcStatus::Success);
    Completed = true;
  });
  settle();
  EXPECT_TRUE(Completed);
  EXPECT_EQ(T->memory(1).readU8(0), 1);
}

TEST_P(TransportConformance, WritesSameChannelDeliverInOrder) {
  // Post a large write then a tiny one to the same address; per-channel
  // FIFO means the second cannot overtake the first.
  std::vector<std::uint8_t> Big(4096, 0xAA);
  T->postWrite(0, 1, 0, Big);
  T->postWrite(0, 1, 0, bytes({0xBB}));
  settle();
  EXPECT_EQ(T->memory(1).readU8(0), 0xBB);
  EXPECT_EQ(T->memory(1).readU8(1), 0xAA);
}

TEST_P(TransportConformance, ReadReturnsRemoteSnapshot) {
  T->memory(2).writeU64(64, 4242);
  std::atomic<std::uint64_t> Got{0};
  T->postRead(0, 2, 64, 8, [&](WcStatus St, std::vector<std::uint8_t> D) {
    EXPECT_EQ(St, WcStatus::Success);
    ASSERT_EQ(D.size(), 8u);
    std::uint64_t V = 0;
    std::memcpy(&V, D.data(), 8);
    Got = V;
  });
  settle();
  EXPECT_EQ(Got, 4242u);
}

TEST_P(TransportConformance, PermissionDenialRejectsWrite) {
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  std::atomic<WcStatus> Got{WcStatus::Success};
  T->postWrite(0, 1, 300, bytes({5}), Key, [&](WcStatus St) { Got = St; });
  settle();
  EXPECT_EQ(Got, WcStatus::AccessError);
  EXPECT_EQ(T->memory(1).readU8(300), 0); // Nothing written.
}

TEST_P(TransportConformance, PermissionGrantRestoresWrite) {
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  T->setWritePermission(1, 0, Key, true);
  std::atomic<WcStatus> Got{WcStatus::AccessError};
  T->postWrite(0, 1, 300, bytes({5}), Key, [&](WcStatus St) { Got = St; });
  settle();
  EXPECT_EQ(Got, WcStatus::Success);
  EXPECT_EQ(T->memory(1).readU8(300), 5);
}

TEST_P(TransportConformance, PermissionsArePerTargetAndWriter) {
  RegionKey Key = T->createRegionKey();
  T->setWritePermission(1, 0, Key, false);
  EXPECT_FALSE(T->hasWritePermission(1, 0, Key));
  EXPECT_TRUE(T->hasWritePermission(1, 2, Key)); // Other writer fine.
  EXPECT_TRUE(T->hasWritePermission(2, 0, Key)); // Other target fine.
  EXPECT_TRUE(T->hasWritePermission(1, 0, UnprotectedRegion));
}

TEST_P(TransportConformance, EpochFenceRevocationStopsStragglers) {
  // The reconfig fence (docs/reconfig.md): the coordinator revokes the
  // old epoch's data key on every (target, writer) pair while the new
  // epoch's key stays writable. A straggler still posting under the old
  // key must fail with AccessError on BOTH backends -- the fence is what
  // makes "no write can complete in a closed epoch" a transport
  // guarantee rather than a timing assumption.
  RegionKey OldKey = T->createRegionKey();
  RegionKey NewKey = T->createRegionKey();
  for (NodeId Dst = 0; Dst < 3; ++Dst)
    for (NodeId Src = 0; Src < 3; ++Src)
      T->setWritePermission(Dst, Src, OldKey, false);

  std::atomic<WcStatus> Straggler{WcStatus::Success};
  std::atomic<WcStatus> NewEpoch{WcStatus::AccessError};
  T->postWrite(2, 1, 400, bytes({9}), OldKey,
               [&](WcStatus St) { Straggler = St; });
  T->postWrite(2, 1, 408, bytes({7}), NewKey,
               [&](WcStatus St) { NewEpoch = St; });
  settle();
  EXPECT_EQ(Straggler, WcStatus::AccessError);
  EXPECT_EQ(T->memory(1).readU8(400), 0); // The fence held.
  EXPECT_EQ(NewEpoch, WcStatus::Success);
  EXPECT_EQ(T->memory(1).readU8(408), 7);

  // Re-admission (the abort path): re-allowing the old key restores the
  // exact pre-fence behavior.
  for (NodeId Dst = 0; Dst < 3; ++Dst)
    for (NodeId Src = 0; Src < 3; ++Src)
      T->setWritePermission(Dst, Src, OldKey, true);
  std::atomic<WcStatus> Readmit{WcStatus::AccessError};
  T->postWrite(2, 1, 400, bytes({9}), OldKey,
               [&](WcStatus St) { Readmit = St; });
  settle();
  EXPECT_EQ(Readmit, WcStatus::Success);
  EXPECT_EQ(T->memory(1).readU8(400), 9);
}

TEST_P(TransportConformance, CrashDropsCpuButKeepsMemoryAccessible) {
  T->crash(1);
  EXPECT_FALSE(T->isAlive(1));
  T->postWrite(0, 1, 128, bytes({0x77}));
  settle();
  std::atomic<std::uint8_t> ReadBack{0};
  T->postRead(2, 1, 128, 1, [&](WcStatus, std::vector<std::uint8_t> D) {
    ReadBack = D.at(0);
  });
  settle();
  EXPECT_EQ(T->memory(1).readU8(128), 0x77);
  EXPECT_EQ(ReadBack, 0x77);
}

TEST_P(TransportConformance, CrashedNodeCpuJobsDropped) {
  std::atomic<bool> Ran{false};
  T->crash(1);
  T->runOnCpu(1, sim::micros(1), [&] { Ran = true; });
  settle();
  EXPECT_FALSE(Ran);
}

TEST_P(TransportConformance, RunAfterFiresOnBothBackends) {
  std::atomic<bool> Fired{false};
  T->runAfter(1, sim::micros(50), [&] { Fired = true; });
  if (Sim) {
    Sim->run();
  } else {
    for (int Spin = 0; Spin < 50000 && !Fired; ++Spin)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    settle();
  }
  EXPECT_TRUE(Fired);
}

TEST_P(TransportConformance, NowAdvancesMonotonically) {
  sim::SimTime T0 = T->now();
  std::atomic<bool> Fired{false};
  T->runAfter(0, sim::micros(20), [&] { Fired = true; });
  if (Sim) {
    Sim->run();
  } else {
    for (int Spin = 0; Spin < 50000 && !Fired; ++Spin)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(Fired);
  EXPECT_GE(T->now(), T0 + sim::micros(20));
}

TEST_P(TransportConformance, DiagnosticCountersAdvance) {
  T->setObs(Obs);
  EXPECT_EQ(Obs.snapshot().counter("rdma.write"), 0u);
  T->postWrite(0, 1, 0, bytes({1, 2}));
  T->postRead(0, 1, 0, 2, [](WcStatus, std::vector<std::uint8_t>) {});
  settle();
  obs::StatsSnapshot S = Obs.snapshot();
  EXPECT_EQ(S.counter("rdma.write"), 1u);
  EXPECT_EQ(S.counter("rdma.read"), 1u);
  EXPECT_EQ(S.counter("rdma.bytes_written"), 2u);
}

// The single-writer ring protocol over the raw verbs: spanning records,
// wrap padding and canary validation deliver the same payload sequence on
// both backends. This is the quiescent-point protocol check; the
// genuinely concurrent hammering lives in ShmRingStressTests.cpp.
TEST_P(TransportConformance, RingSpanningRecordsSurviveWrapOnBothBackends) {
  RingGeometry G;
  G.NumCells = 16;
  G.CellSize = 48;
  const MemOffset DataOff = 4096;
  const MemOffset FeedbackOff = 8192;
  RingWriter W(*T, /*Writer=*/0, /*Reader=*/1, DataOff, FeedbackOff, G);
  RingReader R(*T, /*Reader=*/1, /*Writer=*/0, DataOff, FeedbackOff, G);

  // Payload sizes that mix single-cell records with spans of 2..6 cells,
  // repeated across several laps so every wrap inserts padding records.
  const std::size_t Sizes[] = {5,   20,  60,  130, 8,  200,
                               35,  260, 1,   90,  48, 150,
                               240, 12,  180, 70};
  std::uint32_t Delivered = 0;
  for (unsigned Round = 0; Round < 48; ++Round) {
    std::size_t Len = Sizes[Round % (sizeof(Sizes) / sizeof(Sizes[0]))];
    ASSERT_LE(Len, G.maxRecordPayload());
    std::vector<std::uint8_t> Payload(Len);
    for (std::size_t I = 0; I < Len; ++I)
      Payload[I] = static_cast<std::uint8_t>((Round * 131 + I) & 0xFF);
    ASSERT_TRUE(W.appendRecord(Payload)) << "round " << Round;
    settle();
    std::vector<std::uint8_t> Got;
    ASSERT_TRUE(R.peek(Got)) << "round " << Round;
    EXPECT_EQ(Got, Payload) << "round " << Round;
    R.consume();
    settle(); // Head feedback may post to the writer.
    ++Delivered;
    EXPECT_FALSE(R.peek(Got)) << "phantom record after round " << Round;
  }
  EXPECT_EQ(Delivered, 48u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TransportConformance,
    ::testing::Values(TransportKind::Sim, TransportKind::Shm),
    [](const ::testing::TestParamInfo<TransportKind> &Info) {
      return std::string(transportKindName(Info.param));
    });

//===----------------------------------------------------------------------===//
// Cluster-level conformance: the lockstep-equivalence corpus per backend
//===----------------------------------------------------------------------===//

struct IssuedCall {
  ProcessId Origin;
  Call TheCall;
};

std::vector<IssuedCall> makeCallSequence(const ObjectType &T,
                                         unsigned NumNodes, unsigned Count,
                                         std::uint64_t Seed) {
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

HambandConfig batchedConfig() {
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 6;
  return Cfg;
}

/// One cluster deployment on the parameterized backend, with a drive
/// loop appropriate to it: event slices on sim, sleep-and-inspect on shm.
struct ClusterWorld {
  ClusterWorld(TransportKind Kind, unsigned Nodes, const ObjectType &T,
               HambandConfig Cfg)
      : Kind(Kind), C(Kind, Nodes, T, NetworkModel(), std::move(Cfg)) {
    C.start();
  }

  sim::Simulator *sim() { return C.transport().simulatorOrNull(); }

  /// Lets the deployment make a little progress between submissions (the
  /// "realistic pacing" of the sim corpus; shm nodes progress on their
  /// own threads, so this is a no-op there).
  void pace() {
    if (sim::Simulator *S = sim())
      S->run(S->now() + sim::micros(3));
  }

  /// Drives until \p Done reaches \p Expect and replication finishes.
  /// Returns false on timeout. After a successful shm drain the node
  /// threads are STOPPED, so callers can compare node state race-free;
  /// on sim there are no threads to stop.
  bool drain(const std::atomic<unsigned> &Done, unsigned Expect) {
    if (sim::Simulator *S = sim()) {
      sim::SimTime Cap = S->now() + sim::millis(500);
      while (S->now() < Cap &&
             !(Done.load() == Expect && C.fullyReplicated()))
        S->run(S->now() + sim::micros(20));
      return Done.load() == Expect && C.fullyReplicated();
    }
    // Wall-clock cap sized for a 1-core container under TSan.
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

/// Exact-match corpus: for observation-independent conflict-free types
/// the final state is a pure function of the call multiset, so EVERY
/// backend -- including the concurrent one -- must land bit-for-bit on
/// the semantics world's state. (See CrossValidationTests.cpp for why
/// observation-dependent types are excluded.)
void conformConflictFree(TransportKind Kind, const std::string &Name,
                         const HambandConfig &Cfg, unsigned BurstSize) {
  auto T = makeType(Name);
  ASSERT_EQ(T->coordination().numSyncGroups(), 0u);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeCallSequence(*T, Nodes, 40, 99);

  // World 1: the executable concrete semantics.
  semantics::RdmaConfiguration K(*T, Nodes);
  for (const IssuedCall &IC : Calls) {
    Call Prepared = K.prepareAt(IC.Origin, IC.TheCall);
    ASSERT_TRUE(K.tryUpdate(IC.Origin, Prepared)) << Prepared.str();
  }
  K.drain();
  ASSERT_TRUE(K.quiescent());
  ASSERT_TRUE(K.checkConvergence());

  // World 2: the full runtime over the parameterized backend.
  ClusterWorld W(Kind, Nodes, *T, Cfg);
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

  // The two worlds agree replica by replica.
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

/// Conflicting / observation-dependent corpus: each world converges
/// internally and keeps the type's integrity invariant.
void conformConflicting(TransportKind Kind, const std::string &Name,
                        const HambandConfig &Cfg, unsigned BurstSize) {
  auto T = makeType(Name);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeCallSequence(*T, Nodes, 30, 7);

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

class ConflictFreeClusterConformance
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(ConflictFreeClusterConformance, RuntimeMatchesSemanticsExactly) {
  conformConflictFree(std::get<0>(GetParam()), std::get<1>(GetParam()),
                      HambandConfig{}, 1);
}

TEST_P(ConflictFreeClusterConformance,
       BatchedRuntimeMatchesSemanticsExactly) {
  conformConflictFree(std::get<0>(GetParam()), std::get<1>(GetParam()),
                      batchedConfig(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConflictFreeClusterConformance,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::Values("counter", "pn-counter", "gset", "gset-buffered",
                          "two-phase-set", "lww-register")),
    clusterParamName);

class ConflictingClusterConformance
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(ConflictingClusterConformance, WorldConvergesWithInvariantIntact) {
  conformConflicting(std::get<0>(GetParam()), std::get<1>(GetParam()),
                     HambandConfig{}, 1);
}

TEST_P(ConflictingClusterConformance,
       BatchedWorldConvergesWithFlushOnConf) {
  conformConflicting(std::get<0>(GetParam()), std::get<1>(GetParam()),
                     batchedConfig(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ConflictingClusterConformance,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::Values("bank-account", "movie", "auction", "courseware",
                          "project-management", "orset", "shopping-cart")),
    clusterParamName);

//===----------------------------------------------------------------------===//
// Sim-only feature policy
//===----------------------------------------------------------------------===//

// Fault injection (and with it fuzzing and trace replay) is defined in
// simulated time; a cluster on the concurrent backend must refuse the
// wiring rather than silently record an unreplayable trace.
TEST(TransportPolicy, FaultInjectionIsSimOnly) {
  auto T = makeType("counter");
  sim::Simulator PlanSim;
  sim::FaultPlan Plan =
      sim::FaultPlan::generate(1, sim::FaultSpec{}, 3);

  HambandCluster Shm(TransportKind::Shm, 3, *T);
  sim::FaultInjector RejectedFI(PlanSim, Plan);
  EXPECT_FALSE(Shm.attachFaultInjector(RejectedFI));
  Shm.stopTransport();

  sim::Simulator Sim;
  HambandCluster SimCluster(Sim, 3, *T);
  sim::FaultInjector AcceptedFI(Sim, Plan);
  EXPECT_TRUE(SimCluster.attachFaultInjector(AcceptedFI));
}

} // namespace
