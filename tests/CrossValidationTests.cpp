//===- tests/CrossValidationTests.cpp - Runtime vs semantics ------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The strongest conformance check available: run the *same* client call
// sequence through the executable concrete semantics (Figures 6-7) and
// through the full Hamband runtime over the simulated fabric, and demand
// bit-identical final states. For conflict-free objects the final state
// is independent of interleaving, so the two worlds must agree exactly;
// for conflicting objects the leader's order may differ between worlds,
// so we instead demand that each world converges internally and that
// commutative observables (counts of applied calls) match.
//===----------------------------------------------------------------------===//

#include "hamband/explore/Harness.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/semantics/RdmaSemantics.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/sim/FaultInjector.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::runtime;
using namespace hamband::semantics;

namespace {

struct IssuedCall {
  ProcessId Origin;
  Call TheCall;
};

/// A batched runtime configuration for the Lemma-3 cross-checks below:
/// the same call schedules must match the semantics whether or not the
/// runtime coalesces them into flush batches on the wire.
HambandConfig batchedConfig() {
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 6;
  return Cfg;
}

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

} // namespace

namespace {

// Exact-match world comparison is only meaningful for objects whose
// prepared effect does not depend on the issuing replica's observations:
// an ORSet remove, for example, deletes exactly the tags its replica had
// seen, which legitimately differs with propagation timing. Types here
// have identity prepare (or observation-independent effects), so the
// final state is a pure function of the call multiset. \p BurstSize > 1
// submits calls in back-to-back bursts, which keeps the batching layer
// loaded with multi-call flushes when \p Cfg enables it.
void crossValidateConflictFree(const std::string &Name,
                               const HambandConfig &Cfg,
                               unsigned BurstSize) {
  auto T = makeType(Name);
  ASSERT_EQ(T->coordination().numSyncGroups(), 0u)
      << "this suite is for conflict-free objects";
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeCallSequence(*T, Nodes, 40, 99);

  // World 1: the executable concrete semantics.
  RdmaConfiguration K(*T, Nodes);
  for (const IssuedCall &IC : Calls) {
    Call Prepared = K.prepareAt(IC.Origin, IC.TheCall);
    ASSERT_TRUE(K.tryUpdate(IC.Origin, Prepared)) << Prepared.str();
  }
  K.drain();
  ASSERT_TRUE(K.quiescent());
  ASSERT_TRUE(K.checkConvergence());

  // World 2: the full runtime over the simulated fabric.
  sim::Simulator Sim;
  HambandCluster C(Sim, Nodes, *T, {}, Cfg);
  C.start();
  unsigned Done = 0;
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    C.submit(Calls[I].Origin, Calls[I].TheCall, [&Done](bool Ok, Value) {
      ASSERT_TRUE(Ok);
      ++Done;
    });
    if ((I + 1) % BurstSize == 0)
      Sim.run(Sim.now() + sim::micros(3)); // Realistic pacing.
  }
  sim::SimTime Cap = Sim.now() + sim::millis(200);
  while (Sim.now() < Cap &&
         !(Done == Calls.size() && C.fullyReplicated()))
    Sim.run(Sim.now() + sim::micros(20));
  ASSERT_EQ(Done, Calls.size());
  ASSERT_TRUE(C.fullyReplicated());

  // The two worlds agree replica by replica.
  for (ProcessId P = 0; P < Nodes; ++P) {
    StatePtr FromSemantics = K.visibleState(P);
    EXPECT_TRUE(FromSemantics->equals(C.node(P).visibleState()))
        << Name << " node " << P << ":\n  semantics: "
        << FromSemantics->str() << "\n  runtime:   "
        << C.node(P).visibleState().str();
    // Applied-call accounting matches too.
    for (ProcessId From = 0; From < Nodes; ++From)
      for (MethodId U = 0; U < T->numMethods(); ++U)
        EXPECT_EQ(K.applied(P, From, U), C.node(P).applied(From, U))
            << Name;
  }
}

} // namespace

class ConflictFreeCrossValidation
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ConflictFreeCrossValidation, RuntimeMatchesSemanticsExactly) {
  crossValidateConflictFree(GetParam(), HambandConfig{}, 1);
}

TEST_P(ConflictFreeCrossValidation, BatchedRuntimeMatchesSemanticsExactly) {
  crossValidateConflictFree(GetParam(), batchedConfig(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    ConflictFreeTypes, ConflictFreeCrossValidation,
    ::testing::Values("counter", "pn-counter", "gset", "gset-buffered",
                      "two-phase-set", "lww-register"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

// Conflicting objects (leader order may differ between worlds) and
// observation-dependent op-based objects (prepared effects depend on what
// the issuer had seen): each world must converge internally and keep the
// invariant, but the two worlds need not agree with each other.
namespace {

void crossValidateConflicting(const std::string &Name,
                              const HambandConfig &Cfg,
                              unsigned BurstSize) {
  auto T = makeType(Name);
  const unsigned Nodes = 3;
  std::vector<IssuedCall> Calls = makeCallSequence(*T, Nodes, 30, 7);

  RdmaConfiguration K(*T, Nodes);
  unsigned SemanticsAccepted = 0;
  for (const IssuedCall &IC : Calls) {
    Call Prepared = K.prepareAt(IC.Origin, IC.TheCall);
    if (K.tryUpdate(IC.Origin, Prepared))
      ++SemanticsAccepted;
  }
  K.drain();
  ASSERT_TRUE(K.quiescent());
  EXPECT_TRUE(K.checkConvergence()) << Name;
  EXPECT_TRUE(K.checkIntegrity()) << Name;

  sim::Simulator Sim;
  HambandCluster C(Sim, Nodes, *T, {}, Cfg);
  C.start();
  unsigned Done = 0;
  for (std::size_t I = 0; I < Calls.size(); ++I) {
    C.submit(Calls[I].Origin, Calls[I].TheCall,
             [&Done](bool, Value) { ++Done; });
    if ((I + 1) % BurstSize == 0)
      Sim.run(Sim.now() + sim::micros(5));
  }
  sim::SimTime Cap = Sim.now() + sim::millis(500);
  while (Sim.now() < Cap &&
         !(Done == Calls.size() && C.fullyReplicated()))
    Sim.run(Sim.now() + sim::micros(20));
  ASSERT_EQ(Done, Calls.size());
  ASSERT_TRUE(C.fullyReplicated());
  EXPECT_TRUE(C.converged()) << Name;
  // Integrity at every replica of the runtime world.
  for (ProcessId P = 0; P < Nodes; ++P)
    EXPECT_TRUE(T->invariant(C.node(P).visibleState()))
        << Name << " node " << P;
}

} // namespace

class ConflictingCrossValidation
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ConflictingCrossValidation, BothWorldsConvergeWithSameAccounting) {
  crossValidateConflicting(GetParam(), HambandConfig{}, 1);
}

// The batched run submits in bursts, so conflicting calls routinely find
// reducible/free calls still pending in the batch -- every one of them
// exercises the flush-on-conflicting-call path before reaching the
// leader (node.batch.flush.conf in the metrics).
TEST_P(ConflictingCrossValidation, BatchedBothWorldsConvergeWithFlushOnConf) {
  crossValidateConflicting(GetParam(), batchedConfig(), 4);
}

INSTANTIATE_TEST_SUITE_P(
    ConflictingTypes, ConflictingCrossValidation,
    ::testing::Values("bank-account", "movie", "auction", "courseware",
                      "project-management", "orset", "shopping-cart"),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Cross validation under deterministic fault schedules
//===----------------------------------------------------------------------===//
// The same two-world comparison, but with the runtime world executing
// under a seeded fault schedule (sim/FaultInjector.h). Soft schedules
// (delays, partitions, suspensions that recover) must leave the full
// cluster convergent and -- for observation-independent conflict-free
// types -- in exact agreement with the semantics; schedules with hard
// crashes must leave the surviving majority convergent and the semantics
// world (fed the calls that completed) convergent and invariant-keeping.

namespace {

struct FaultedIssue {
  ProcessId Origin;
  Call TheCall;
  int Status = 0; // 0 in flight / lost, 1 accepted, 2 rejected.
};

/// Stable per-type seed (std::hash is not stable across libraries).
std::uint64_t typeSeed(const std::string &Name) {
  std::uint64_t H = 1469598103934665603ull;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ull;
  }
  return H;
}

/// Runs \p Count calls against a cluster executing under the fault
/// schedule derived from \p Seed and \p Spec, then hands the quiesced
/// cluster to \p Check (the cluster dies when this returns). Requests at
/// failed nodes are redirected to the next live in-service node.
void runUnderFaults(
    const ObjectType &T, unsigned Nodes, unsigned Count, std::uint64_t Seed,
    const sim::FaultSpec &Spec,
    const std::function<void(HambandCluster &, sim::FaultInjector &,
                             const std::vector<FaultedIssue> &)> &Check,
    const HambandConfig &Cfg = HambandConfig{}) {
  const CoordinationSpec &CSpec = T.coordination();
  sim::Simulator Sim;
  HambandCluster C(Sim, Nodes, T, {}, Cfg);
  sim::FaultInjector FI(Sim, sim::FaultPlan::generate(Seed, Spec, Nodes));
  C.attachFaultInjector(FI);
  FI.arm();
  C.start();

  std::vector<FaultedIssue> Issued;
  sim::Rng R(Seed ^ 0x5ca1ab1e);
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
    Issued.push_back({P, T.randomClientCall(M, P, 1000 + I, R), 0});
    std::size_t Idx = Issued.size() - 1;
    C.submit(P, Issued[Idx].TheCall, [&Issued, Idx](bool Ok, Value) {
      Issued[Idx].Status = Ok ? 1 : 2;
    });
    Sim.run(Sim.now() + sim::micros(3));
  }

  Sim.run(std::max(Spec.Horizon, Spec.HealBy) + sim::millis(1));
  sim::SimTime Cap = Sim.now() + sim::millis(400);
  while (Sim.now() < Cap && !C.fullyReplicatedLive())
    Sim.run(Sim.now() + sim::micros(20));
  Check(C, FI, Issued);
}

/// Feeds the issued calls (those the runtime resolved) to the executable
/// concrete semantics and drains it. Conflicting calls are issued at
/// whichever node the runtime used, modeling leader failover via
/// setLeader.
semantics::RdmaConfiguration
replayInSemantics(const ObjectType &T, unsigned Nodes,
                  const std::vector<FaultedIssue> &Issued) {
  semantics::RdmaConfiguration K(T, Nodes);
  const CoordinationSpec &CSpec = T.coordination();
  for (const FaultedIssue &I : Issued) {
    if (I.Status == 0)
      continue; // Lost at a crashed origin.
    if (CSpec.category(I.TheCall.Method) == MethodCategory::Conflicting) {
      unsigned G = *CSpec.syncGroup(I.TheCall.Method);
      if (K.leader(G) != I.Origin)
        K.setLeader(G, I.Origin);
      K.tryConf(I.Origin, K.prepareAt(I.Origin, I.TheCall));
    } else {
      EXPECT_TRUE(K.tryUpdate(I.Origin, K.prepareAt(I.Origin, I.TheCall)));
    }
  }
  K.drain();
  return K;
}

} // namespace

namespace {

void softFaultAgreement(const std::string &Name, const HambandConfig &Cfg,
                        std::uint64_t SeedSalt) {
  auto T = makeType(Name);
  const unsigned Nodes = 4;
  sim::FaultSpec Spec;
  Spec.OneSidedDelayProb = 0.05;
  Spec.NumSuspends = 1;
  Spec.NumPartitions = 1;
  runUnderFaults(
      *T, Nodes, 30, typeSeed(Name) ^ SeedSalt, Spec,
      [&](HambandCluster &C, sim::FaultInjector &FI,
          const std::vector<FaultedIssue> &Issued) {
        // Soft faults all heal: the whole cluster must recover.
        for (ProcessId P = 0; P < Nodes; ++P)
          ASSERT_TRUE(C.isLive(P));
        ASSERT_TRUE(C.fullyReplicatedLive()) << Name;
        EXPECT_TRUE(C.converged()) << Name;
        for (ProcessId P = 0; P < Nodes; ++P)
          EXPECT_TRUE(T->invariant(C.node(P).visibleState()))
              << Name << " node " << P;
        EXPECT_FALSE(FI.trace().Events.empty());

        semantics::RdmaConfiguration K =
            replayInSemantics(*T, Nodes, Issued);
        ASSERT_TRUE(K.quiescent());
        EXPECT_TRUE(K.checkConvergence()) << Name;
        EXPECT_TRUE(K.checkIntegrity()) << Name;
        if (!explore::isObservationIndependent(Name))
          return;
        // Exact two-world agreement, replica by replica.
        for (ProcessId P = 0; P < Nodes; ++P) {
          EXPECT_TRUE(
              K.visibleState(P)->equals(C.node(P).visibleState()))
              << Name << " node " << P;
          for (ProcessId From = 0; From < Nodes; ++From)
            for (MethodId U = 0; U < T->numMethods(); ++U)
              EXPECT_EQ(K.applied(P, From, U), C.node(P).applied(From, U))
                  << Name;
        }
      },
      Cfg);
}

void crashFaultAgreement(const std::string &Name, const HambandConfig &Cfg,
                         std::uint64_t SeedSalt) {
  auto T = makeType(Name);
  const unsigned Nodes = 4;
  sim::FaultSpec Spec;
  Spec.OneSidedDelayProb = 0.02;
  Spec.NumCrashes = 1;
  Spec.CrashOnStageProb = 0.005;
  runUnderFaults(
      *T, Nodes, 30, typeSeed(Name) ^ SeedSalt, Spec,
      [&](HambandCluster &C, sim::FaultInjector &FI,
          const std::vector<FaultedIssue> &Issued) {
        ASSERT_TRUE(C.fullyReplicatedLive()) << Name;
        EXPECT_TRUE(C.convergedLive()) << Name;
        unsigned Live = 0;
        for (ProcessId P = 0; P < Nodes; ++P) {
          if (!C.isLive(P))
            continue;
          ++Live;
          EXPECT_TRUE(T->invariant(C.node(P).visibleState()))
              << Name << " node " << P;
        }
        EXPECT_GT(Live, Nodes / 2u); // A majority always survives.
        // Calls still pending may only belong to crashed origins.
        for (const FaultedIssue &I : Issued)
          if (I.Status == 0) {
            EXPECT_FALSE(C.isLive(I.Origin)) << Name;
          }
        EXPECT_FALSE(FI.trace().Events.empty());

        semantics::RdmaConfiguration K =
            replayInSemantics(*T, Nodes, Issued);
        ASSERT_TRUE(K.quiescent());
        EXPECT_TRUE(K.checkConvergence()) << Name;
        EXPECT_TRUE(K.checkIntegrity()) << Name;
      },
      Cfg);
}

} // namespace

class FaultScheduleCrossValidation
    : public ::testing::TestWithParam<std::string> {};

TEST_P(FaultScheduleCrossValidation, SoftFaultsPreserveAgreement) {
  softFaultAgreement(GetParam(), HambandConfig{}, 0x50f7);
}

TEST_P(FaultScheduleCrossValidation, CrashFaultsLeaveLiveMajorityAgreeing) {
  crashFaultAgreement(GetParam(), HambandConfig{}, 0xc4a5);
}

// The same fault schedules over a *batched* runtime: flush batches must
// not weaken the Lemma-3 agreement, whether they are delayed, dropped or
// cut short by a crash in the stage window.
TEST_P(FaultScheduleCrossValidation, BatchedSoftFaultsPreserveAgreement) {
  softFaultAgreement(GetParam(), batchedConfig(), 0xb50f7);
}

TEST_P(FaultScheduleCrossValidation,
       BatchedCrashFaultsLeaveLiveMajorityAgreeing) {
  crashFaultAgreement(GetParam(), batchedConfig(), 0xbc4a5);
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredTypes, FaultScheduleCrossValidation,
    ::testing::ValuesIn(registeredTypeNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });
