//===- hamband/runtime/HambandCluster.h - Hamband cluster -------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns a transport (simulated fabric or shared-memory threads) plus one
/// HambandNode per process and shard, and implements the ReplicaRuntime
/// interface the benchmark harness drives. This is the top-level public
/// API: construct a cluster around an ObjectType, start it, submit calls
/// at any node, and drive the transport (run the simulator, or simply
/// wait on the shm backend, whose node threads run on their own).
///
/// A cluster holds one or more shards over its one transport. Each shard
/// is a full replication instance -- its own MemoryMap slice at a 64-byte
/// aligned base, ring lanes, backup slot, heartbeat detector and one Mu
/// instance per synchronization group -- so a shard is just one more
/// coordination boundary (docs/sharding.md). An unkeyed cluster
/// replicates one object of its type in a single shard. A keyed cluster,
/// built with a KeyspaceConfig, replicates the keyed lift of a base type
/// (core/KeyedObjectType.h): string object ids are consistent-hashed onto
/// the shards (runtime/Keyspace.h), every call carries its object's
/// interned key, and submit() routes it to the owning shard. Shard leaders
/// rotate across nodes: build() places shard s's replicas so that its
/// group g starts led by node (g + s) % N, so no node leads every shard's
/// group 0.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_HAMBANDCLUSTER_H
#define HAMBAND_RUNTIME_HAMBANDCLUSTER_H

#include "hamband/core/KeyedObjectType.h"
#include "hamband/runtime/HambandNode.h"
#include "hamband/runtime/Keyspace.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace hamband {
namespace rdma {
class Fabric;
} // namespace rdma
namespace sim {
class FaultInjector;
} // namespace sim
namespace runtime {

/// A Hamband deployment: N replicas of one object, or of a keyed
/// keyspace spread over shards, over one transport.
class HambandCluster : public ReplicaRuntime {
public:
  /// Deterministic deployment over a caller-owned simulator (the form
  /// every test and replayable tool uses).
  HambandCluster(sim::Simulator &Sim, unsigned NumNodes,
                 const ObjectType &Type,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());

  /// Deployment by transport kind. TransportKind::Shm runs each node on
  /// its own OS thread over shared memory with the config's intervals
  /// stretched to wall-clock scale (HambandConfig::tunedFor);
  /// TransportKind::Sim builds a cluster-owned simulator, reachable via
  /// simulator().
  HambandCluster(rdma::TransportKind Kind, unsigned NumNodes,
                 const ObjectType &Type,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());

  /// Keyed deployments: the keyed lift of \p BaseType over
  /// \p KSCfg.NumShards shards, on either transport. Membership
  /// reconfiguration is refused (Cfg.Reconfig.Enabled asserts).
  HambandCluster(sim::Simulator &Sim, unsigned NumNodes,
                 const ObjectType &BaseType, KeyspaceConfig KSCfg,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());
  HambandCluster(rdma::TransportKind Kind, unsigned NumNodes,
                 const ObjectType &BaseType, KeyspaceConfig KSCfg,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());
  ~HambandCluster() override;

  /// Starts pollers, heartbeats and detectors of every shard's replica on
  /// every node (marshalled into each node's execution context).
  void start();

  /// Node \p Id's replica of shard 0 (an unkeyed cluster's only shard).
  HambandNode &node(rdma::NodeId Id) { return node(0, Id); }
  HambandNode &node(unsigned S, rdma::NodeId Id) {
    return *Shards[S].Nodes[Id];
  }

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  /// Synchronization groups of each shard (the replicated type's).
  unsigned groupsPerShard() const {
    return Type.coordination().numSyncGroups();
  }

  /// Shard 0's symmetric per-node memory layout (tests and tools).
  const MemoryMap &memoryMap() const { return *Shards[0].Map; }
  const HambandConfig &config() const { return Cfg; }

  /// The simulated fabric; asserts on a non-sim transport. The fault
  /// injector hooks in here, and deterministic tests poke wire-level
  /// state through it.
  rdma::Fabric &fabric();

  // -- Keyspace (keyed clusters only) --------------------------------------

  /// Registers an object id before start(), returning its interned key.
  /// Idempotent; every replica-facing call addresses objects by this key.
  Value registerObject(const std::string &Id);

  /// The shard owning registered key \p Key.
  unsigned shardOfKey(Value Key) const { return KS->shardOfKey(Key); }

  /// Base-form convenience: submits \p Inner against the object named
  /// \p Id. An unregistered id is rejected like an unknown key.
  void submitOn(rdma::NodeId Origin, const std::string &Id,
                const Call &Inner, SubmitCallback Done);

  // -- ReplicaRuntime ------------------------------------------------------
  unsigned numNodes() const override {
    return static_cast<unsigned>(Shards[0].Nodes.size());
  }
  rdma::Transport &transport() override { return *Trans; }
  /// The replicated type: the keyed lift on a keyed cluster.
  const ObjectType &objectType() const override { return Type; }

  /// Submits \p C at \p Origin. On a keyed cluster \p C is a keyed call
  /// (KeyedObjectType::keyCall) and goes to its key's shard; a call whose
  /// key was never registered is rejected (Done(false, 0),
  /// "keyspace.unknown_key" counter) without touching any shard.
  void submit(rdma::NodeId Origin, const Call &C,
              SubmitCallback Done) override;
  bool fullyReplicated() const override;
  void injectFailure(rdma::NodeId Node) override;
  bool isFailed(rdma::NodeId Node) const override { return Failed[Node]; }

  /// Flattened group addressing: group (S * groupsPerShard() + G).
  rdma::NodeId leaderOf(unsigned Group,
                        rdma::NodeId Observer) const override;
  rdma::NodeId leaderOfShard(unsigned S, unsigned Group,
                             rdma::NodeId Observer) const;
  std::uint64_t replicationBacklog() const override;

  /// Transport-level stats merged with every replica's registry. A keyed
  /// cluster refreshes its keyspace gauges first (keyspace.objects,
  /// keyspace.shards, shard.imbalance in per-mille).
  obs::StatsSnapshot statsSnapshot() const override;

  /// Number of submitted calls whose completion is still pending.
  std::uint64_t outstanding() const {
    return Outstanding.load(std::memory_order_acquire);
  }

  /// Outstanding updates whose origin node is still alive. A call
  /// submitted at a node that later hard-crashes never completes (its
  /// callback died with the node), so the reconfiguration drain stage
  /// waits on this; counting the lost call would wedge the transition.
  std::uint64_t liveUpdatesOutstanding() const;

  /// Outstanding calls submitted at \p Origin. A call submitted at a node
  /// that later hard-crashes never completes; live-cluster checks use this
  /// to discount such losses.
  std::uint64_t outstandingAt(rdma::NodeId Origin) const {
    return OutstandingPer[Origin].load(std::memory_order_acquire);
  }

  /// Test helper: in every shard, all replicas' visible states are equal.
  bool converged();

  /// Test/bench helper: installs \p Summary as node \p Issuer's summary of
  /// group \p Group at version \p Seq on EVERY node, inside
  /// withPausedWorld(). The cluster behaves as if \p Issuer had issued
  /// and fully replicated the folded calls -- big-state workloads start
  /// from a large converged image without paying one wire ship per
  /// element (docs/deltas.md).
  void seedReducibleState(unsigned Group, rdma::NodeId Issuer,
                          const Call &Summary, std::uint64_t Seq);

  /// Test helper: in every shard, all replicas' applied tables are equal.
  bool appliedTablesEqual() const;

  // -- Concurrency helpers (trivial on the sim transport) ------------------

  /// Runs \p Fn with every node thread parked, so it may inspect or
  /// compare node state race-free. Inline on the sim transport.
  void withPausedWorld(const std::function<void()> &Fn);

  /// fullyReplicated(), evaluated inside withPausedWorld().
  bool fullyReplicatedQuiesced();

  /// converged(), evaluated inside withPausedWorld().
  bool convergedQuiesced();

  /// Permanently stops the transport's node threads (idempotent, no-op on
  /// sim). The destructor calls this; tests whose driver state is
  /// captured by in-flight closures call it earlier.
  void stopTransport();

  // -- Fault injection -----------------------------------------------------
  //
  // Node-level faults take the node's replica of every shard (a node
  // hosts one replica of each). Shard-confined faults are service-level
  // failures of one replica: the node keeps serving every other shard.

  /// Wires \p FI into this cluster: installs it as the fabric fault hook,
  /// routes every replica's broadcast-stage event to it, and binds its
  /// crash/suspend/recover actions to crashNode() / injectFailure() /
  /// recoverFailure(). Call after construction and before FI.arm().
  /// Returns false (wiring nothing) on a non-deterministic transport:
  /// fault schedules are defined in simulated time and their traces are
  /// only replayable against the simulator.
  bool attachFaultInjector(sim::FaultInjector &FI);

  /// Wires \p FI confined to one shard: its crash/suspend/recover actions
  /// become shard-confined failures of \p S and only that shard's
  /// broadcast stages feed the schedule. Returns false on a
  /// non-deterministic transport.
  bool attachFaultInjectorShard(sim::FaultInjector &FI, unsigned S);

  /// Undoes injectFailure(): the heartbeat resumes and the node serves
  /// client calls again (except in shards where a shard-confined fault
  /// still holds its replica). No-op on a crashed node.
  void recoverFailure(rdma::NodeId Node);

  /// Hard-crashes \p Node at the transport level: its CPU stops for good;
  /// its registered memory stays remotely accessible (the RDMA failure
  /// model).
  void crashNode(rdma::NodeId Node);

  /// True unless the node has been hard-crashed (a suspended node is
  /// live).
  bool isLive(rdma::NodeId Node) const;

  /// Shard-confined failure: suspends only shard \p S's replica at
  /// \p Node (heartbeat + service). A transport-level crash cannot be
  /// confined to a shard: it always takes the whole node.
  void injectFailureShard(unsigned S, rdma::NodeId Node);
  void recoverFailureShard(unsigned S, rdma::NodeId Node);
  bool isFailedShard(unsigned S, rdma::NodeId Node) const {
    return Shards[S].Failed[Node];
  }

  /// fullyReplicated() restricted to live replicas: completions pending
  /// at crashed origins are discounted, and only replicas on live nodes,
  /// in the membership and not failed by a shard-confined fault must be
  /// idle with equal applied tables. A node-level suspension does not
  /// excuse a replica.
  bool fullyReplicatedLive() const;

  /// converged() restricted to the replicas fullyReplicatedLive() checks.
  bool convergedLive();

  /// Canonical fingerprint of cluster-visible state: every replica's
  /// stateDigest() (crashed nodes hash as crashed) folded together. The
  /// explorer combines this with the simulator's queue digest to dedup
  /// visited configurations.
  std::uint64_t stateFingerprint();

  // -- Membership reconfiguration (docs/reconfig.md) -----------------------

  /// Begins an online membership transition to \p TargetActive (one byte
  /// per provisioned node). Returns false when reconfiguration is not
  /// enabled, a transition is in progress, or the target is malformed.
  /// \p Done fires with (installed?, current epoch).
  bool reconfigure(std::vector<std::uint8_t> TargetActive,
                   ReconfigManager::DoneFn Done);

  /// The transition driver; null unless Cfg.Reconfig.Enabled.
  ReconfigManager *reconfigManager() { return Reconfig.get(); }

  /// The installed membership epoch (0 on fixed-membership clusters).
  std::uint32_t membershipEpoch() const {
    return Reconfig ? Reconfig->epoch() : 0;
  }

  /// The attached fault injector, if any (ReconfigManager reports its
  /// stage transitions through it).
  sim::FaultInjector *faultInjector() const { return FaultInj; }

  /// True when \p N is in service under the installed membership (always
  /// true on fixed-membership clusters). Convergence/replication checks
  /// skip out-of-membership standbys.
  bool inService(rdma::NodeId N) const {
    return !Reconfig || Reconfig->membership().isActive(N);
  }

private:
  /// One replication instance: its slice of the shared memory layout,
  /// one conflict region key per sync group, its replica at every node,
  /// and which of those a shard-confined fault holds down.
  struct Shard {
    std::unique_ptr<MemoryMap> Map;
    std::vector<rdma::RegionKey> ConfKeys;
    std::vector<std::unique_ptr<HambandNode>> Nodes;
    std::vector<bool> Failed;
  };

  HambandCluster(sim::Simulator *Sim, rdma::TransportKind Kind,
                 unsigned NumNodes, const ObjectType &BaseType,
                 std::optional<KeyspaceConfig> KSCfg,
                 rdma::NetworkModel Model, HambandConfig Cfg);
  void build(unsigned NumNodes);
  void suspend(HambandNode &Replica);
  void resume(HambandNode &Replica);
  /// Routes the broadcast stages of shards [First, Last) to \p FI and
  /// installs it as the transport's fault hook.
  void hookShards(sim::FaultInjector &FI, unsigned First, unsigned Last);
  /// Whether a check counts shard \p Sh's replica at \p N: in service,
  /// and with \p Live also on a live node and not shard-failed.
  bool counted(const Shard &Sh, rdma::NodeId N, bool Live) const;
  bool drained(bool Live) const;
  bool tablesEqual(bool Live) const;
  bool statesEqual(bool Live);
  void refreshKeyspaceGauges() const;

  /// Set on keyed clusters only; Type names *Keyed there.
  std::unique_ptr<KeyedObjectType> Keyed;
  std::unique_ptr<Keyspace> KS;
  const ObjectType &Type;
  HambandConfig Cfg;
  /// Declared before the transport, which caches pointers into it.
  obs::Registry ClusterStats;
  /// Only set by the kind constructors with TransportKind::Sim.
  std::unique_ptr<sim::Simulator> OwnedSim;
  std::unique_ptr<rdma::Transport> Trans;
  std::vector<Shard> Shards;
  /// Node-level failures (injectFailure / crashNode).
  std::vector<bool> Failed;
  bool Started = false;
  std::atomic<std::uint64_t> Outstanding{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> OutstandingPer;
  /// Per-origin update counts backing liveUpdatesOutstanding().
  std::unique_ptr<std::atomic<std::uint64_t>[]> OutstandingUpdatesPer;
  sim::FaultInjector *FaultInj = nullptr;
  std::unique_ptr<ReconfigManager> Reconfig;
  // Keyspace metric handles (keyed clusters only).
  std::vector<obs::Counter *> CtrShardSubmitted; // [shard]
  obs::Counter *CtrUnknownKey = nullptr;
  obs::Gauge *GaugeImbalance = nullptr;
  obs::Gauge *GaugeObjects = nullptr;
  obs::Gauge *GaugeShards = nullptr;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_HAMBANDCLUSTER_H
