//===- hamband/runtime/HambandCluster.h - Hamband cluster -------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns a transport (simulated fabric or shared-memory threads) plus one
/// HambandNode per process and implements the ReplicaRuntime interface
/// the benchmark harness drives. This is the top-level public API:
/// construct a cluster around an ObjectType, start it, submit calls at
/// any node, and drive the transport (run the simulator, or simply wait
/// on the shm backend, whose node threads run on their own).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_HAMBANDCLUSTER_H
#define HAMBAND_RUNTIME_HAMBANDCLUSTER_H

#include "hamband/runtime/HambandNode.h"

#include <atomic>
#include <memory>
#include <vector>

namespace hamband {
namespace rdma {
class Fabric;
} // namespace rdma
namespace sim {
class FaultInjector;
} // namespace sim
namespace runtime {

/// A Hamband deployment: N replicas of one object over one transport.
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
  /// TransportKind::Sim builds a cluster-owned simulator, which
  /// runTransport()-style drivers can reach via simulator().
  HambandCluster(rdma::TransportKind Kind, unsigned NumNodes,
                 const ObjectType &Type,
                 rdma::NetworkModel Model = rdma::NetworkModel(),
                 HambandConfig Cfg = HambandConfig());
  ~HambandCluster() override;

  /// Starts pollers, heartbeats and detectors on every node (marshalled
  /// into each node's execution context).
  void start();

  HambandNode &node(rdma::NodeId Id) { return *Nodes[Id]; }
  unsigned numSyncGroups() const {
    return Type.coordination().numSyncGroups();
  }

  /// The symmetric per-node memory layout (tests and tools).
  const MemoryMap &memoryMap() const { return *Map; }
  const HambandConfig &config() const { return Cfg; }

  /// The simulated fabric; asserts on a non-sim transport. Convenience
  /// for the deterministic tests that poke wire-level state.
  rdma::Fabric &fabric();

  // -- ReplicaRuntime ------------------------------------------------------
  unsigned numNodes() const override {
    return static_cast<unsigned>(Nodes.size());
  }
  rdma::Transport &transport() override { return *Trans; }
  const ObjectType &objectType() const override { return Type; }
  void submit(rdma::NodeId Origin, const Call &C,
              SubmitCallback Done) override;
  bool fullyReplicated() const override;
  void injectFailure(rdma::NodeId Node) override;
  bool isFailed(rdma::NodeId Node) const override { return Failed[Node]; }
  rdma::NodeId leaderOf(unsigned Group,
                        rdma::NodeId Observer) const override;
  std::uint64_t replicationBacklog() const override;

  /// Transport-level stats merged with every node's registry.
  obs::StatsSnapshot statsSnapshot() const override;

  /// The cluster-level registry the transport reports into.
  obs::Registry &clusterStats() { return ClusterStats; }

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

  /// Test helper: all nodes' visible states are equal.
  bool converged();

  /// Test/bench helper: installs \p Summary as node \p Issuer's summary of
  /// group \p Group at version \p Seq on EVERY node, inside
  /// withPausedWorld(). The cluster behaves as if \p Issuer had issued
  /// and fully replicated the folded calls -- big-state workloads start
  /// from a large converged image without paying one wire ship per
  /// element (docs/deltas.md).
  void seedReducibleState(unsigned Group, rdma::NodeId Issuer,
                          const Call &Summary, std::uint64_t Seq);

  /// Test helper: all nodes' applied tables are equal.
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

  /// Wires \p FI into this cluster: installs it as the fabric fault hook,
  /// routes every node's broadcast-stage event to it, and binds its
  /// crash/suspend/recover actions to crashNode() / injectFailure() /
  /// recoverFailure(). Call after construction and before FI.arm().
  /// Returns false (wiring nothing) on a non-deterministic transport:
  /// fault schedules are defined in simulated time and their traces are
  /// only replayable against the simulator.
  bool attachFaultInjector(sim::FaultInjector &FI);

  /// Undoes injectFailure(): the heartbeat resumes and the node serves
  /// client calls again. No-op on a crashed node.
  void recoverFailure(rdma::NodeId Node);

  /// Hard-crashes \p Node at the transport level: its CPU stops for good;
  /// its registered memory stays remotely accessible (the RDMA failure
  /// model).
  void crashNode(rdma::NodeId Node);

  /// True unless the node has been hard-crashed (a suspended node is
  /// live).
  bool isLive(rdma::NodeId Node) const;

  /// fullyReplicated() restricted to live nodes: completions pending at
  /// crashed origins are discounted, and only live nodes must be idle
  /// with equal applied tables.
  bool fullyReplicatedLive() const;

  /// converged() restricted to live nodes.
  bool convergedLive();

  /// Canonical fingerprint of cluster-visible state: every node's
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
  void build(unsigned NumNodes, rdma::NetworkModel Model);

  const ObjectType &Type;
  HambandConfig Cfg;
  /// Declared before the transport, which caches pointers into it.
  obs::Registry ClusterStats;
  std::unique_ptr<MemoryMap> Map;
  /// Only set by the kind constructor with TransportKind::Sim.
  std::unique_ptr<sim::Simulator> OwnedSim;
  std::unique_ptr<rdma::Transport> Trans;
  std::vector<rdma::RegionKey> ConfKeys;
  std::vector<std::unique_ptr<HambandNode>> Nodes;
  std::vector<bool> Failed;
  std::atomic<std::uint64_t> Outstanding{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> OutstandingPer;
  /// Per-origin update counts backing liveUpdatesOutstanding().
  std::unique_ptr<std::atomic<std::uint64_t>[]> OutstandingUpdatesPer;
  sim::FaultInjector *FaultInj = nullptr;
  std::unique_ptr<ReconfigManager> Reconfig;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_HAMBANDCLUSTER_H
