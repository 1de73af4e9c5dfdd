//===- tests/ShardingTests.cpp - Sharded keyspace test corpus -----------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// The sharded multi-object keyspace (runtime/Keyspace.h +
// runtime/HambandCluster.h), in five layers:
//
//  - keyspace unit tests: consistent-hash placement is deterministic,
//    registration-order independent, stable while the shard count is
//    fixed, and balanced within an empirically pinned max/mean bound;
//    interning is dense and idempotent; unknown ids and keys are
//    rejected without touching any shard.
//
//  - the cross-shard lockstep-equivalence corpus: K objects of EVERY
//    registered type over S shards, driven one call per object per
//    round with a full drain between rounds, must agree per object at
//    every quiescent point -- state AND accept/reject outcome -- with K
//    independent single-object reference clusters. Runs against both
//    transport backends, batched and unbatched. This is the gate for
//    the keyed lift (core/KeyedObjectType.h): at a quiescent point the
//    owning shard's substate must be bit-for-bit the unsharded state,
//    so prepare/permissibility/invariant decisions coincide.
//
//  - deterministic fault schedules confined to one shard (sim-only):
//    crash/suspend/recovery of shard 0's replicas never stalls or
//    reorders the other shards -- their calls complete while the fault
//    is live, their leaders stay put, and their final states still
//    match the single-object references.
//
//  - node-level faults on a keyed deployment (sim-only): a crashed node
//    takes its replica of every shard, the survivors converge under
//    surviving leaders, and a suspended node rejoins every shard.
//
//  - policy pins: shard leaders rotate across nodes, fault injection
//    stays sim-only on the sharded cluster too, and the benchlib runner
//    can drive a sharded deployment end to end.
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Runner.h"
#include "hamband/core/KeyedObjectType.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/rdma/Fabric.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/sim/FaultInjector.h"
#include "hamband/types/BankAccount.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <tuple>

using namespace hamband;
using namespace hamband::rdma;
using namespace hamband::runtime;

namespace {

std::string sanitized(std::string Name) {
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

//===----------------------------------------------------------------------===//
// Keyspace unit tests
//===----------------------------------------------------------------------===//

TEST(KeyspaceTest, PlacementIsDeterministicAcrossInstances) {
  KeyspaceConfig Cfg;
  Cfg.NumShards = 5;
  Cfg.VirtualNodes = 32;
  Keyspace A(Cfg), B(Cfg);
  for (int I = 0; I < 1000; ++I) {
    std::string Id = "object-" + std::to_string(I);
    EXPECT_EQ(A.shardOf(Id), B.shardOf(Id)) << Id;
    EXPECT_LT(A.shardOf(Id), Cfg.NumShards) << Id;
  }
}

TEST(KeyspaceTest, PlacementIgnoresRegistrationOrder) {
  KeyspaceConfig Cfg;
  Cfg.NumShards = 4;
  Keyspace Fwd(Cfg), Rev(Cfg);
  for (int I = 0; I < 200; ++I)
    Fwd.registerObject("id" + std::to_string(I));
  for (int I = 199; I >= 0; --I)
    Rev.registerObject("id" + std::to_string(I));
  for (int I = 0; I < 200; ++I) {
    std::string Id = "id" + std::to_string(I);
    EXPECT_EQ(Fwd.shardOfKey(*Fwd.keyOf(Id)), Rev.shardOfKey(*Rev.keyOf(Id)))
        << Id;
    EXPECT_EQ(Fwd.shardOfKey(*Fwd.keyOf(Id)), Fwd.shardOf(Id)) << Id;
  }
}

TEST(KeyspaceTest, PlacementStableWhileShardCountFixed) {
  KeyspaceConfig Cfg;
  Cfg.NumShards = 8;
  Keyspace K(Cfg);
  // Record where the first hundred ids land, then register ten thousand
  // more: consistent hashing must not move any of the originals.
  std::vector<unsigned> Before;
  for (int I = 0; I < 100; ++I) {
    std::string Id = "stable" + std::to_string(I);
    Before.push_back(K.shardOf(Id));
    K.registerObject(Id);
  }
  for (int I = 0; I < 10000; ++I)
    K.registerObject("extra" + std::to_string(I));
  for (int I = 0; I < 100; ++I) {
    std::string Id = "stable" + std::to_string(I);
    EXPECT_EQ(K.shardOf(Id), Before[I]) << Id;
    EXPECT_EQ(K.shardOfKey(*K.keyOf(Id)), Before[I]) << Id;
  }
}

TEST(KeyspaceTest, VirtualNodesBoundImbalance) {
  // Empirical bound: with 64 virtual nodes per shard the max/mean load of
  // 10k random ids over 8 shards stays below 1.36 for every seed tried;
  // 1.5 leaves comfortable slack while still catching a broken ring (a
  // single-point-per-shard ring shows > 2x routinely).
  for (std::uint64_t Seed : {0ull, 1ull, 7ull, 42ull}) {
    KeyspaceConfig Cfg;
    Cfg.NumShards = 8;
    Cfg.VirtualNodes = 64;
    Cfg.HashSeed = Seed;
    Keyspace K(Cfg);
    for (int I = 0; I < 10000; ++I)
      K.registerObject("id" + std::to_string(I));
    std::vector<std::size_t> Loads = K.shardLoads();
    ASSERT_EQ(Loads.size(), 8u);
    std::size_t Total = 0;
    for (std::size_t L : Loads) {
      EXPECT_GT(L, 0u) << "empty shard, seed " << Seed;
      Total += L;
    }
    EXPECT_EQ(Total, 10000u);
    EXPECT_LT(K.imbalance(), 1.5) << "seed " << Seed;
  }
}

TEST(KeyspaceTest, InterningIsDenseAndIdempotent) {
  Keyspace K({3, 16, 0});
  EXPECT_EQ(K.numObjects(), 0u);
  EXPECT_EQ(K.imbalance(), 1.0); // Defined as balanced when empty.
  Value A = K.registerObject("alpha");
  Value B = K.registerObject("beta");
  EXPECT_EQ(A, 0);
  EXPECT_EQ(B, 1);
  EXPECT_EQ(K.registerObject("alpha"), A); // Idempotent.
  EXPECT_EQ(K.numObjects(), 2u);
  EXPECT_EQ(K.idOf(A), "alpha");
  EXPECT_EQ(K.keyOf("beta"), std::optional<Value>(B));
  EXPECT_EQ(K.keyOf("gamma"), std::nullopt);
  EXPECT_TRUE(K.knownKey(A));
  EXPECT_FALSE(K.knownKey(2));
  EXPECT_FALSE(K.knownKey(-1));
}

//===----------------------------------------------------------------------===//
// Keyed lift: coordination properties carried over from the base type
//===----------------------------------------------------------------------===//

TEST(KeyedTypeTest, LiftPreservesConflictsAndDropsSummarization) {
  // Conflict-free base: the keyed counter has no sync groups either, and
  // its (per-key reducible) update is lifted to IrreducibleFree -- keyed
  // calls on different keys do not summarize.
  auto KC = makeKeyedType("counter");
  EXPECT_EQ(KC->coordination().numSyncGroups(), 0u);
  EXPECT_EQ(KC->coordination().category(0), MethodCategory::IrreducibleFree);

  // Conflicting base: sync-group structure is preserved method-by-method.
  auto Base = makeType("bank-account");
  auto KB = makeKeyedType("bank-account");
  ASSERT_EQ(KB->numMethods(), Base->numMethods());
  EXPECT_EQ(KB->coordination().numSyncGroups(),
            Base->coordination().numSyncGroups());
  for (MethodId M = 0; M < Base->numMethods(); ++M) {
    EXPECT_EQ(KB->coordination().isUpdate(M),
              Base->coordination().isUpdate(M));
    EXPECT_EQ(KB->coordination().syncGroup(M).has_value(),
              Base->coordination().syncGroup(M).has_value());
    // Every lifted method takes the object key as its extra argument.
    EXPECT_EQ(KB->method(M).Arity, Base->method(M).Arity + 1);
  }
}

TEST(KeyedTypeTest, KeyCallRoundTrips) {
  auto T = makeType("counter");
  sim::Rng R(1);
  Call Inner = T->randomClientCall(0, 2, 77, R);
  Call Keyed = KeyedObjectType::keyCall(5, Inner);
  EXPECT_EQ(KeyedObjectType::callKey(Keyed), 5);
  EXPECT_EQ(Keyed.Issuer, Inner.Issuer);
  EXPECT_EQ(Keyed.Req, Inner.Req);
  Call Stripped = KeyedObjectType::stripKey(Keyed);
  EXPECT_EQ(Stripped.Args, Inner.Args);
  EXPECT_EQ(Stripped.Method, Inner.Method);
}

//===----------------------------------------------------------------------===//
// Keyed HambandCluster policy pins
//===----------------------------------------------------------------------===//

TEST(ShardedClusterTest, UnknownObjectsRejectedWithoutTouchingShards) {
  sim::Simulator Sim;
  auto T = makeType("counter");
  KeyspaceConfig KC;
  KC.NumShards = 2;
  HambandCluster C(Sim, 3, *T, KC);
  Value K = C.registerObject("known");
  C.start();

  sim::Rng R(3);
  Call Inner = T->randomClientCall(0, 0, 1, R);

  int UnknownIdResult = -1, UnknownKeyResult = -1, KnownResult = -1;
  C.submitOn(0, "never-registered", Inner,
             [&](bool Ok, Value) { UnknownIdResult = Ok ? 1 : 0; });
  C.submit(0, KeyedObjectType::keyCall(99, Inner),
           [&](bool Ok, Value) { UnknownKeyResult = Ok ? 1 : 0; });
  C.submitOn(0, "known", Inner,
             [&](bool Ok, Value) { KnownResult = Ok ? 1 : 0; });
  Sim.run(Sim.now() + sim::millis(5));

  EXPECT_EQ(UnknownIdResult, 0); // Rejected synchronously.
  EXPECT_EQ(UnknownKeyResult, 0);
  EXPECT_EQ(KnownResult, 1);
  EXPECT_TRUE(C.fullyReplicated());

  // The rejected calls reached no shard: only the accepted one counts.
  obs::StatsSnapshot S = C.statsSnapshot();
  EXPECT_EQ(S.counter("keyspace.unknown_key"), 2u);
  std::uint64_t Submitted = 0;
  for (unsigned Shard = 0; Shard < C.numShards(); ++Shard)
    Submitted += S.counter("shard." + std::to_string(Shard) + ".submitted");
  EXPECT_EQ(Submitted, 1u);
  // The keyspace gauges describe the deployment; imbalance is reported
  // per-mille (1000 = perfectly balanced).
  EXPECT_EQ(S.gauge("keyspace.objects"), 1);
  EXPECT_EQ(S.gauge("keyspace.shards"), 2);
  EXPECT_GE(S.gauge("shard.imbalance"), 1000);
  (void)K;
}

TEST(ShardedClusterTest, LeadersRotateAcrossShards) {
  sim::Simulator Sim;
  auto T = makeType("bank-account"); // One sync group.
  const unsigned Nodes = 4;
  KeyspaceConfig KC;
  KC.NumShards = 3;
  HambandCluster C(Sim, Nodes, *T, KC);
  C.registerObject("a");
  C.start();
  Sim.run(sim::millis(1));
  ASSERT_EQ(C.groupsPerShard(), 1u);
  for (unsigned S = 0; S < 3; ++S) {
    EXPECT_EQ(C.leaderOfShard(S, 0, 0), S % Nodes) << "shard " << S;
    // Flattened ReplicaRuntime addressing agrees.
    EXPECT_EQ(C.leaderOf(S * C.groupsPerShard(), 0),
              C.leaderOfShard(S, 0, 0));
  }
}

TEST(ShardedClusterTest, FaultInjectionIsSimOnly) {
  // The sharded cluster pins the same policy as HambandCluster: fault
  // schedules are defined in simulated time, so attaching an injector to
  // a wall-clock shm deployment must fail closed -- for the cluster-wide
  // hook and the shard-confined one alike.
  auto T = makeType("counter");
  KeyspaceConfig KC;
  KC.NumShards = 2;
  HambandCluster C(TransportKind::Shm, 3, *T, KC);
  C.registerObject("a");
  C.start();

  sim::Simulator ScheduleSim;
  sim::FaultSpec Spec;
  Spec.NumSuspends = 1;
  sim::FaultInjector FI(ScheduleSim,
                        sim::FaultPlan::generate(1, Spec, 3));
  EXPECT_FALSE(C.attachFaultInjector(FI));
  EXPECT_FALSE(C.attachFaultInjectorShard(FI, 0));
  C.stopTransport();
}

//===----------------------------------------------------------------------===//
// Cross-shard lockstep-equivalence corpus
//===----------------------------------------------------------------------===//

/// One sharded deployment on the parameterized backend.
struct ShardedWorld {
  ShardedWorld(TransportKind Kind, unsigned Nodes, const ObjectType &Base,
               KeyspaceConfig KC, HambandConfig Cfg) {
    if (Kind == TransportKind::Sim) {
      Sim = std::make_unique<sim::Simulator>();
      C = std::make_unique<HambandCluster>(*Sim, Nodes, Base, KC,
                                           NetworkModel(), std::move(Cfg));
    } else {
      C = std::make_unique<HambandCluster>(Kind, Nodes, Base, KC,
                                           NetworkModel(), std::move(Cfg));
    }
  }

  /// Drives until \p Done reaches \p Expect and replication finishes.
  bool drain(const std::atomic<unsigned> &Done, unsigned Expect) {
    if (Sim) {
      sim::SimTime Cap = Sim->now() + sim::millis(500);
      while (Sim->now() < Cap &&
             !(Done.load() == Expect && C->fullyReplicated()))
        Sim->run(Sim->now() + sim::micros(20));
      return Done.load() == Expect && C->fullyReplicated();
    }
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < Deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (Done.load() == Expect && C->fullyReplicatedQuiesced())
        return true;
    }
    return false;
  }

  /// Runs \p Fn with the world paused (no-op pause on sim).
  void inspect(const std::function<void()> &Fn) { C->withPausedWorld(Fn); }

  std::unique_ptr<sim::Simulator> Sim; // Sim backend only.
  std::unique_ptr<HambandCluster> C;
};

/// One single-object reference deployment, always on the deterministic
/// simulator: at every quiescent point the per-object outcome is a pure
/// function of the call sequence, so a sim reference is a valid oracle
/// for both backends.
struct ReferenceWorld {
  ReferenceWorld(unsigned Nodes, const ObjectType &T, HambandConfig Cfg)
      : C(Sim, Nodes, T, NetworkModel(), std::move(Cfg)) {
    C.start();
  }

  bool drain(const std::atomic<unsigned> &Done, unsigned Expect) {
    sim::SimTime Cap = Sim.now() + sim::millis(500);
    while (Sim.now() < Cap &&
           !(Done.load() == Expect && C.fullyReplicated()))
      Sim.run(Sim.now() + sim::micros(20));
    return Done.load() == Expect && C.fullyReplicated();
  }

  sim::Simulator Sim;
  HambandCluster C;
};

using ShardedParam = std::tuple<TransportKind, std::string>;

std::string shardedParamName(
    const ::testing::TestParamInfo<ShardedParam> &Info) {
  return std::string(transportKindName(std::get<0>(Info.param))) + "_" +
         sanitized(std::get<1>(Info.param));
}

HambandConfig batchedConfig() {
  HambandConfig Cfg;
  Cfg.Batch.Enabled = true;
  Cfg.Batch.MaxCalls = 6;
  return Cfg;
}

/// The corpus proper. Protocol: every round issues AT MOST one call per
/// object (here: exactly one) and then drains both worlds to quiescence.
/// At a quiescent point each node's prepare/permissibility decisions see
/// exactly the per-object state, so the sharded world and the unsharded
/// references must agree on the accept/reject outcome AND land on equal
/// per-object states -- for every registered type, including the
/// observation-dependent and conflicting ones.
void lockstepSharded(TransportKind Kind, const std::string &Name,
                     HambandConfig Cfg) {
  const unsigned Nodes = 3, NumObjects = 4, Rounds = 5, Shards = 3;
  auto Base = makeType(Name);
  std::vector<MethodId> Updates = Base->coordination().updateMethods();
  ASSERT_FALSE(Updates.empty());

  KeyspaceConfig KC;
  KC.NumShards = Shards;
  KC.VirtualNodes = 16;
  ShardedWorld W(Kind, Nodes, *Base, KC, Cfg);
  std::vector<Value> Keys;
  std::vector<std::string> Ids;
  for (unsigned O = 0; O < NumObjects; ++O) {
    Ids.push_back("obj" + std::to_string(O));
    Keys.push_back(W.C->registerObject(Ids.back()));
  }
  W.C->start();

  std::vector<std::unique_ptr<ReferenceWorld>> Refs;
  for (unsigned O = 0; O < NumObjects; ++O)
    Refs.push_back(std::make_unique<ReferenceWorld>(Nodes, *Base, Cfg));

  sim::Rng R(0xC0FFEE ^ std::hash<std::string>{}(Name));
  RequestId NextReq = 1000;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    std::atomic<unsigned> ShardedDone{0};
    std::vector<std::unique_ptr<std::atomic<int>>> ShardedOk, RefOk;
    std::vector<std::atomic<unsigned>> RefDone(NumObjects);
    for (unsigned O = 0; O < NumObjects; ++O) {
      ShardedOk.push_back(std::make_unique<std::atomic<int>>(-1));
      RefOk.push_back(std::make_unique<std::atomic<int>>(-1));
      RefDone[O] = 0;
    }

    for (unsigned O = 0; O < NumObjects; ++O) {
      MethodId M = R.pick(Updates);
      auto Origin = static_cast<ProcessId>(R.index(Nodes));
      Call C = Base->randomClientCall(M, Origin, NextReq++, R);
      std::atomic<int> &SOk = *ShardedOk[O];
      std::atomic<int> &ROk = *RefOk[O];
      std::atomic<unsigned> &RDone = RefDone[O];
      W.C->submitOn(Origin, Ids[O], C, [&](bool Ok, Value) {
        SOk.store(Ok ? 1 : 0);
        ++ShardedDone;
      });
      Refs[O]->C.submit(Origin, C, [&](bool Ok, Value) {
        ROk.store(Ok ? 1 : 0);
        ++RDone;
      });
    }

    ASSERT_TRUE(W.drain(ShardedDone, NumObjects))
        << Name << " round " << Round << ": sharded world did not drain ("
        << ShardedDone.load() << "/" << NumObjects << ")";
    for (unsigned O = 0; O < NumObjects; ++O)
      ASSERT_TRUE(Refs[O]->drain(RefDone[O], 1))
          << Name << " round " << Round << ": reference " << O
          << " did not drain";

    // Quiescent point: outcomes and per-object states agree.
    W.inspect([&] {
      for (unsigned O = 0; O < NumObjects; ++O) {
        EXPECT_EQ(ShardedOk[O]->load(), RefOk[O]->load())
            << Name << " round " << Round << " object " << O
            << ": accept/reject outcome diverged";
        unsigned Shard = W.C->shardOfKey(Keys[O]);
        for (ProcessId P = 0; P < Nodes; ++P) {
          const auto &KS = static_cast<const KeyedState &>(
              W.C->node(Shard, P).visibleState());
          const ObjectState &Want = Refs[O]->C.node(P).visibleState();
          if (const ObjectState *Sub = KS.object(Keys[O])) {
            EXPECT_TRUE(Sub->equals(Want))
                << Name << " round " << Round << " object " << O
                << " node " << P << ":\n  sharded:   " << Sub->str()
                << "\n  reference: " << Want.str();
          } else {
            // Untouched key: the reference must still be initial.
            EXPECT_TRUE(Base->initialState()->equals(Want))
                << Name << " round " << Round << " object " << O
                << " node " << P << ": reference moved but shard has no "
                << "substate (reference: " << Want.str() << ")";
          }
        }
      }
      EXPECT_TRUE(W.C->appliedTablesEqual())
          << Name << " round " << Round;
    });
  }
  if (Kind == TransportKind::Shm)
    W.C->stopTransport();
}

class ShardedEquivalence : public ::testing::TestWithParam<ShardedParam> {};

TEST_P(ShardedEquivalence, MatchesSingleObjectReferences) {
  lockstepSharded(std::get<0>(GetParam()), std::get<1>(GetParam()),
                  HambandConfig{});
}

TEST_P(ShardedEquivalence, BatchedMatchesSingleObjectReferences) {
  lockstepSharded(std::get<0>(GetParam()), std::get<1>(GetParam()),
                  batchedConfig());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ShardedEquivalence,
    ::testing::Combine(
        ::testing::Values(TransportKind::Sim, TransportKind::Shm),
        ::testing::ValuesIn(registeredTypeNames())),
    shardedParamName);

//===----------------------------------------------------------------------===//
// Shard-confined fault schedules (sim-only)
//===----------------------------------------------------------------------===//

/// A deterministic fault schedule is attached to shard 0 ONLY. While its
/// replicas crash, suspend, and recover, every other shard must keep
/// completing calls (checked strictly BEFORE the heal horizon), keep its
/// leaders, and still land on the reference per-object states.
class ShardFaultSchedule : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ShardFaultSchedule, ConfinedFaultsDoNotPerturbOtherShards) {
  const std::uint64_t Seed = GetParam();
  const unsigned Nodes = 4, Shards = 3;
  auto T = makeType("counter");
  MethodId Inc = T->coordination().updateMethods().front();

  sim::Simulator Sim;
  KeyspaceConfig KC;
  KC.NumShards = Shards;
  KC.VirtualNodes = 16;
  HambandCluster C(Sim, Nodes, *T, KC);

  // Register ids until shard 0 and at least one other shard are
  // populated (placement is deterministic, so this is too).
  std::vector<std::string> Ids;
  std::vector<Value> Keys;
  bool HaveFaulted = false, HaveOther = false;
  for (int I = 0; I < 64 && (Ids.size() < 6 || !HaveFaulted || !HaveOther);
       ++I) {
    std::string Id = "fobj" + std::to_string(I);
    Value K = C.registerObject(Id);
    Ids.push_back(Id);
    Keys.push_back(K);
    (C.shardOfKey(K) == 0 ? HaveFaulted : HaveOther) = true;
  }
  ASSERT_TRUE(HaveFaulted && HaveOther);

  sim::FaultSpec Spec;
  Spec.NumCrashes = 1;
  Spec.NumSuspends = 1;
  Spec.Horizon = sim::millis(2);
  Spec.HealBy = sim::millis(20);
  sim::FaultInjector FI(Sim, sim::FaultPlan::generate(Seed, Spec, Nodes));
  ASSERT_TRUE(C.attachFaultInjectorShard(FI, 0));
  FI.arm();
  C.start();

  std::vector<rdma::NodeId> LeadersBefore;
  for (unsigned S = 1; S < Shards; ++S)
    for (unsigned G = 0; G < C.groupsPerShard(); ++G)
      LeadersBefore.push_back(C.leaderOfShard(S, G, 0));

  // Drive a workload over all objects while the schedule plays out.
  // Calls to non-faulted shards are counted; calls to shard 0 are
  // issued from a replica that is still in service and left uncounted
  // (they may stall until recovery -- that is the point).
  sim::Rng WR(Seed ^ 0x5eed);
  std::atomic<unsigned> OtherDone{0};
  unsigned OtherExpected = 0;
  std::vector<std::vector<std::pair<ProcessId, Call>>> Issued(Ids.size());
  RequestId NextReq = 500;
  for (unsigned I = 0; I < 30; ++I) {
    unsigned O = static_cast<unsigned>(WR.index(Ids.size()));
    unsigned Shard = C.shardOfKey(Keys[O]);
    auto Origin = static_cast<ProcessId>(WR.index(Nodes));
    if (Shard == 0) {
      // Pick an in-service replica of the faulted shard, if any.
      bool Found = false;
      for (unsigned K = 0; K < Nodes; ++K) {
        ProcessId Q = (Origin + K) % Nodes;
        if (C.isLive(Q) && !C.isFailedShard(0, Q) &&
            !C.node(0, Q).isOutOfService()) {
          Origin = Q;
          Found = true;
          break;
        }
      }
      if (!Found)
        continue;
    }
    Call Base = T->randomClientCall(Inc, Origin, NextReq++, WR);
    Issued[O].push_back({Origin, Base});
    if (Shard == 0) {
      C.submitOn(Origin, Ids[O], Base, nullptr);
    } else {
      ++OtherExpected;
      C.submitOn(Origin, Ids[O], Base,
                 [&OtherDone](bool Ok, Value) {
                   EXPECT_TRUE(Ok);
                   ++OtherDone;
                 });
    }
    Sim.run(Sim.now() + sim::micros(3));
  }
  ASSERT_GT(OtherExpected, 0u);

  // STRICTLY before the heal horizon: every non-faulted-shard call has
  // completed. A cross-shard stall would show up right here.
  sim::SimTime PreHeal = Spec.HealBy - sim::millis(1);
  sim::SimTime Guard = std::max(Sim.now(), PreHeal);
  while (Sim.now() < Guard && OtherDone.load() < OtherExpected)
    Sim.run(Sim.now() + sim::micros(20));
  EXPECT_EQ(OtherDone.load(), OtherExpected)
      << "seed " << Seed
      << ": non-faulted shards stalled while shard 0 was failing";

  // Their leaders never moved.
  std::size_t LI = 0;
  for (unsigned S = 1; S < Shards; ++S)
    for (unsigned G = 0; G < C.groupsPerShard(); ++G)
      EXPECT_EQ(C.leaderOfShard(S, G, 0), LeadersBefore[LI++])
          << "seed " << Seed << " shard " << S << " group " << G;

  // Heal, recover any replica the schedule left failed, and drain.
  Sim.run(Spec.HealBy + sim::millis(1));
  for (rdma::NodeId N = 0; N < Nodes; ++N)
    if (C.isFailedShard(0, N))
      C.recoverFailureShard(0, N);
  sim::SimTime Cap = Sim.now() + sim::millis(500);
  while (Sim.now() < Cap && !C.fullyReplicated())
    Sim.run(Sim.now() + sim::micros(20));
  EXPECT_TRUE(C.fullyReplicated()) << "seed " << Seed;
  EXPECT_TRUE(C.converged()) << "seed " << Seed;

  // Non-faulted shards match per-object references replaying the exact
  // calls that were issued (counter: conflict-free, so the quiescent
  // state is a pure function of the call multiset).
  for (unsigned O = 0; O < Ids.size(); ++O) {
    if (C.shardOfKey(Keys[O]) == 0 || Issued[O].empty())
      continue;
    ReferenceWorld Ref(Nodes, *T, HambandConfig{});
    std::atomic<unsigned> Done{0};
    for (const auto &[Origin, Base] : Issued[O])
      Ref.C.submit(Origin, Base, [&Done](bool, Value) { ++Done; });
    ASSERT_TRUE(Ref.drain(Done, static_cast<unsigned>(Issued[O].size())));
    unsigned Shard = C.shardOfKey(Keys[O]);
    for (ProcessId P = 0; P < Nodes; ++P) {
      const auto &KS =
          static_cast<const KeyedState &>(C.node(Shard, P).visibleState());
      const ObjectState *Sub = KS.object(Keys[O]);
      ASSERT_NE(Sub, nullptr) << "object " << O;
      EXPECT_TRUE(Sub->equals(Ref.C.node(P).visibleState()))
          << "seed " << Seed << " object " << O << " node " << P
          << ":\n  sharded:   " << Sub->str() << "\n  reference: "
          << Ref.C.node(P).visibleState().str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardFaultSchedule,
                         ::testing::Values(1ull, 2ull, 3ull),
                         [](const ::testing::TestParamInfo<std::uint64_t>
                                &Info) {
                           return "seed" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Node-level faults on a keyed deployment (sim-only)
//===----------------------------------------------------------------------===//

/// 3 nodes x 3 shards of keyed bank-account with rotated leaders: every
/// node leads one shard's group, so a node-level fault always takes one
/// shard's leader along with a replica of every other shard.
struct KeyedBankWorld {
  static constexpr unsigned Nodes = 3, Shards = 3, Objects = 12;

  KeyedBankWorld() : T(makeType("bank-account")) {
    KeyspaceConfig KC;
    KC.NumShards = Shards;
    C = std::make_unique<HambandCluster>(Sim, Nodes, *T, KC);
    for (unsigned O = 0; O < Objects; ++O)
      C->registerObject("acct" + std::to_string(O));
    C->start();
  }

  /// Issues a deposit or a withdrawal on every object at every node in
  /// \p Origins, then runs until every call so far has been answered and
  /// \p Drained holds.
  bool round(const std::vector<rdma::NodeId> &Origins,
             const std::function<bool()> &Drained) {
    for (unsigned O = 0; O < Objects; ++O)
      for (rdma::NodeId N : Origins) {
        bool Deposit = (O + N + Rounds) % 2 == 0;
        Call Inner(Deposit ? types::BankAccount::Deposit
                           : types::BankAccount::Withdraw,
                   {Deposit ? 5 : 3}, N, NextReq++);
        ++Issued;
        C->submitOn(N, "acct" + std::to_string(O), Inner,
                    [this](bool, Value) { ++Answered; });
      }
    ++Rounds;
    sim::SimTime Cap = Sim.now() + sim::millis(500);
    while (Sim.now() < Cap && !(Answered == Issued && Drained()))
      Sim.run(Sim.now() + sim::micros(20));
    return Answered == Issued && Drained();
  }

  sim::Simulator Sim;
  std::unique_ptr<ObjectType> T;
  std::unique_ptr<HambandCluster> C;
  unsigned Rounds = 0, Issued = 0, Answered = 0;
  RequestId NextReq = 1;
};

class KeyedNodeCrash : public ::testing::TestWithParam<rdma::NodeId> {};

TEST_P(KeyedNodeCrash, SurvivorsConvergeUnderSurvivingLeaders) {
  const rdma::NodeId Victim = GetParam();
  KeyedBankWorld W;
  HambandCluster &C = *W.C;
  const std::vector<rdma::NodeId> All = {0, 1, 2};
  for (int R = 0; R < 6; ++R)
    ASSERT_TRUE(W.round(All, [&] { return C.fullyReplicated(); }))
        << "round " << R;

  C.crashNode(Victim);
  std::vector<rdma::NodeId> Survivors;
  for (rdma::NodeId N : All)
    if (N != Victim)
      Survivors.push_back(N);
  for (int R = 0; R < 4; ++R)
    ASSERT_TRUE(W.round(Survivors, [&] { return C.fullyReplicatedLive(); }))
        << "round " << R << " after crashing node " << Victim << ": "
        << W.Answered << "/" << W.Issued << " answered";
  EXPECT_TRUE(C.fullyReplicatedLive());
  EXPECT_TRUE(C.convergedLive());

  for (unsigned S = 0; S < KeyedBankWorld::Shards; ++S)
    for (unsigned G = 0; G < C.groupsPerShard(); ++G) {
      rdma::NodeId Leader = C.leaderOfShard(S, G, Survivors.front());
      EXPECT_TRUE(C.isLive(Leader)) << "shard " << S << " group " << G;
      for (rdma::NodeId Q : Survivors)
        EXPECT_EQ(C.leaderOfShard(S, G, Q), Leader)
            << "shard " << S << " group " << G << " observer " << Q;
    }
}

INSTANTIATE_TEST_SUITE_P(Victims, KeyedNodeCrash, ::testing::Values(1u, 0u),
                         [](const ::testing::TestParamInfo<rdma::NodeId>
                                &Info) {
                           return "node" + std::to_string(Info.param);
                         });

TEST(KeyedNodeSuspend, RecoveredNodeRejoinsEveryShard) {
  KeyedBankWorld W;
  HambandCluster &C = *W.C;
  const std::vector<rdma::NodeId> All = {0, 1, 2};
  for (int R = 0; R < 6; ++R)
    ASSERT_TRUE(W.round(All, [&] { return C.fullyReplicated(); }))
        << "round " << R;

  C.injectFailure(1);
  for (int R = 0; R < 2; ++R)
    ASSERT_TRUE(W.round({0, 2}, [] { return true; })) << "round " << R;
  C.recoverFailure(1);
  for (int R = 0; R < 2; ++R)
    ASSERT_TRUE(W.round(All, [&] { return C.fullyReplicated(); }))
        << "round " << R << " after recovery";
  EXPECT_TRUE(C.fullyReplicated());
  EXPECT_TRUE(C.converged());
}

//===----------------------------------------------------------------------===//
// Benchlib integration
//===----------------------------------------------------------------------===//

TEST(ShardedRunnerTest, RunnerDrivesShardedDeployment) {
  auto T = makeType("movie");
  benchlib::WorkloadSpec W;
  W.NumOps = 240;
  W.UpdateRatio = 1.0;
  W.UpdateMethods = {0, 1};
  W.NumObjects = 50;
  benchlib::RunnerOptions RO;
  RO.Kind = benchlib::RuntimeKind::Hamband;
  RO.NumNodes = 4;
  RO.Repetitions = 1;
  RO.NumShards = 2;
  benchlib::RunResult R = benchlib::runWorkload(*T, W, RO);
  EXPECT_TRUE(R.Completed);
  EXPECT_EQ(R.CompletedOps, 240u);
  EXPECT_GT(R.ThroughputOpsPerUs, 0.0);
}

TEST(ShardedRunnerTest, ZipfianObjectDrawsAreSkewed) {
  auto T = makeType("counter");
  benchlib::WorkloadSpec W;
  W.NumObjects = 100;
  W.ZipfSkew = 0.99;
  benchlib::CallGenerator G(*T, W, 0);
  unsigned Hot = 0, TailHalf = 0;
  for (int I = 0; I < 2000; ++I) {
    G.next(0, static_cast<RequestId>(I));
    std::uint64_t Obj = G.lastObjectIndex();
    ASSERT_LT(Obj, 100u);
    if (Obj == 0)
      ++Hot;
    if (Obj >= 50)
      ++TailHalf;
  }
  // At theta=0.99 over 100 objects the head is ~19% of the mass and the
  // whole tail half under ~10%; uniform would put 1% on the head and 50%
  // on the tail half. Wide margins keep this seed-robust.
  EXPECT_GT(Hot, 200u);
  EXPECT_LT(TailHalf, 400u);
  EXPECT_GT(TailHalf, 0u);

  benchlib::WorkloadSpec U = W;
  U.ZipfSkew = 0.0;
  benchlib::CallGenerator GU(*T, U, 0);
  unsigned HotU = 0;
  for (int I = 0; I < 2000; ++I) {
    GU.next(0, static_cast<RequestId>(I));
    if (GU.lastObjectIndex() == 0)
      ++HotU;
  }
  EXPECT_LT(HotU, 100u); // Uniform: ~20 expected.
}

} // namespace
