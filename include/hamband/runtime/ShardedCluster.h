//===- hamband/runtime/ShardedCluster.h - Sharded keyspace ------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sharded multi-object deployment: string object ids are consistent-
/// hashed onto S shards (runtime/Keyspace.h), and each shard is a full,
/// independent replication instance of the keyed lift of one base type
/// (core/KeyedObjectType.h) -- its own ring-buffer lanes at a per-shard
/// base offset of the shared memory map, its own ReliableBroadcast backup
/// slot and heartbeat detector, and its own Mu consensus instances -- all
/// over ONE shared rdma::Transport. The paper's per-synchronization-group
/// consensus generalizes directly: a shard is just another coordination
/// boundary, so the fast path and the conflicting-call path of different
/// shards never serialize against each other, on both the sim and shm
/// backends.
///
/// Shard leaders are rotated across nodes by default
/// (KeyspaceConfig::RotateLeaders -> HambandConfig::LeaderOffset): shard
/// s leads its group g at node (g + s) % N, so conflicting-call work
/// spreads over the cluster instead of funneling into node 0.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_SHARDEDCLUSTER_H
#define HAMBAND_RUNTIME_SHARDEDCLUSTER_H

#include "hamband/core/KeyedObjectType.h"
#include "hamband/runtime/HambandNode.h"
#include "hamband/runtime/Keyspace.h"

#include <atomic>
#include <memory>
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

/// S shards x N nodes replicating one keyed object class per shard over a
/// shared transport. Implements ReplicaRuntime against *keyed* calls
/// (KeyedObjectType::keyCall: the interned object key is the first
/// argument); submitOn() accepts base-form calls addressed by object id.
class ShardedCluster : public ReplicaRuntime {
public:
  /// Deterministic deployment over a caller-owned simulator.
  ShardedCluster(sim::Simulator &Sim, unsigned NumNodes,
                 const ObjectType &BaseType, KeyspaceConfig KSCfg,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());

  /// Deployment by transport kind (see HambandCluster's kind ctor).
  ShardedCluster(rdma::TransportKind Kind, unsigned NumNodes,
                 const ObjectType &BaseType, KeyspaceConfig KSCfg,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());
  ~ShardedCluster() override;

  // -- Keyspace -----------------------------------------------------------

  /// Registers an object id before start(), returning its interned key.
  /// Idempotent; every replica-facing call addresses objects by this key.
  Value registerObject(const std::string &Id);

  /// The key of \p Id, or nullopt when unregistered.
  std::optional<Value> keyOf(const std::string &Id) const {
    return KS.keyOf(Id);
  }

  bool knownKey(Value Key) const { return KS.knownKey(Key); }
  unsigned shardOfKey(Value Key) const { return KS.shardOfKey(Key); }
  const Keyspace &keyspace() const { return KS; }

  unsigned numShards() const { return KS.numShards(); }
  unsigned groupsPerShard() const {
    return Keyed.coordination().numSyncGroups();
  }

  void start();

  HambandNode &node(unsigned Shard, rdma::NodeId Id) {
    return *Nodes[Shard][Id];
  }
  const MemoryMap &memoryMap(unsigned Shard) const { return *Maps[Shard]; }
  const HambandConfig &config() const { return Cfg; }

  /// The simulated fabric; asserts on a non-sim transport.
  rdma::Fabric &fabric();

  // -- ReplicaRuntime -----------------------------------------------------
  unsigned numNodes() const override { return NumNodes; }
  rdma::Transport &transport() override { return *Trans; }
  const ObjectType &objectType() const override { return Keyed; }

  /// Submits keyed call \p C at \p Origin, dispatching to the key's
  /// shard. A call whose key was never registered is rejected
  /// (Done(false, 0), "keyspace.unknown_key" counter) without touching
  /// any shard.
  void submit(rdma::NodeId Origin, const Call &C,
              SubmitCallback Done) override;

  /// Base-form convenience: submits \p Inner against the object named
  /// \p Id. Unknown ids are rejected like unknown keys.
  void submitOn(rdma::NodeId Origin, const std::string &Id,
                const Call &Inner, SubmitCallback Done);

  bool fullyReplicated() const override;
  void injectFailure(rdma::NodeId Node) override;
  bool isFailed(rdma::NodeId Node) const override {
    return FailedNode[Node];
  }

  /// Flattened group addressing: group (Shard * groupsPerShard() + G).
  rdma::NodeId leaderOf(unsigned Group,
                        rdma::NodeId Observer) const override;
  rdma::NodeId leaderOfShard(unsigned Shard, unsigned Group,
                             rdma::NodeId Observer) const;

  std::uint64_t replicationBacklog() const override;

  /// Transport stats plus every shard's node registries, with the
  /// keyspace gauges (keyspace.objects / keyspace.shards /
  /// shard.imbalance, per-mille) refreshed first.
  obs::StatsSnapshot statsSnapshot() const override;

  obs::Registry &clusterStats() { return ClusterStats; }

  std::uint64_t outstanding() const {
    return Outstanding.load(std::memory_order_acquire);
  }
  std::uint64_t outstandingAt(rdma::NodeId Origin) const {
    return OutstandingPer[Origin].load(std::memory_order_acquire);
  }

  /// All nodes converged, shard by shard.
  bool converged();
  bool appliedTablesEqual() const;

  // -- Concurrency helpers ------------------------------------------------
  void withPausedWorld(const std::function<void()> &Fn);
  bool fullyReplicatedQuiesced();
  bool convergedQuiesced();
  void stopTransport();

  // -- Fault injection ----------------------------------------------------

  /// Node-level failure: suspends the node's service in EVERY shard (the
  /// physical model -- a node hosts a replica of each shard).
  void recoverFailure(rdma::NodeId Node);
  void crashNode(rdma::NodeId Node);
  bool isLive(rdma::NodeId Node) const;

  /// Shard-confined failure: suspends only shard \p Shard's replica at
  /// \p Node (heartbeat + service); the node keeps serving every other
  /// shard. This is a service-level failure -- a transport-level crash
  /// always takes the whole node.
  void injectFailureShard(unsigned Shard, rdma::NodeId Node);
  void recoverFailureShard(unsigned Shard, rdma::NodeId Node);
  bool isFailedShard(unsigned Shard, rdma::NodeId Node) const {
    return FailedShard[Shard][Node];
  }

  /// Wires \p FI cluster-wide (node-level actions, every shard's
  /// broadcast stage events). Returns false on a non-deterministic
  /// transport, mirroring HambandCluster.
  bool attachFaultInjector(sim::FaultInjector &FI);

  /// Wires \p FI confined to one shard: its crash/suspend/recover actions
  /// become shard-level service failures of \p Shard and only that
  /// shard's broadcast stages feed the schedule. Returns false on a
  /// non-deterministic transport.
  bool attachFaultInjectorShard(sim::FaultInjector &FI, unsigned Shard);

  /// fullyReplicated()/converged() restricted to shard replicas that are
  /// in service (not shard-failed, node live).
  bool fullyReplicatedLive() const;
  bool convergedLive();

private:
  void build(rdma::NetworkModel Model);
  void refreshKeyspaceGauges() const;

  unsigned NumNodes;
  KeyedObjectType Keyed;
  Keyspace KS;
  HambandConfig Cfg;
  /// Declared before the transport, which caches pointers into it.
  obs::Registry ClusterStats;
  /// Per-shard layouts at increasing base offsets of one shared region;
  /// nodes hold references into these.
  std::vector<std::unique_ptr<MemoryMap>> Maps;
  std::unique_ptr<sim::Simulator> OwnedSim;
  std::unique_ptr<rdma::Transport> Trans;
  std::vector<std::vector<rdma::RegionKey>> ConfKeys; // [shard][group]
  std::vector<std::vector<std::unique_ptr<HambandNode>>> Nodes;
  std::vector<bool> FailedNode;
  std::vector<std::vector<bool>> FailedShard; // [shard][node]
  bool Started = false;
  std::atomic<std::uint64_t> Outstanding{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> OutstandingPer;
  // Cached obs handles (registered at build time, lock-free afterwards).
  std::vector<obs::Counter *> CtrShardSubmitted; // [shard]
  obs::Counter *CtrUnknownKey = nullptr;
  obs::Gauge *GaugeImbalance = nullptr;
  obs::Gauge *GaugeObjects = nullptr;
  obs::Gauge *GaugeShards = nullptr;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_SHARDEDCLUSTER_H
