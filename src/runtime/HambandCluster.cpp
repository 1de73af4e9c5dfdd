//===- runtime/HambandCluster.cpp - Hamband cluster --------------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/HambandCluster.h"

#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/sim/FaultInjector.h"

#include <cassert>

using namespace hamband;
using namespace hamband::runtime;

ReplicaRuntime::~ReplicaRuntime() = default;

HambandCluster::HambandCluster(sim::Simulator &Sim, unsigned NumNodes,
                               const ObjectType &Type,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : Type(Type), Cfg(Cfg) {
  const CoordinationSpec &Spec = Type.coordination();
  assert(Spec.finalized() && "coordination spec must be finalized");
  Map = std::make_unique<MemoryMap>(
      NumNodes, Spec.numSumGroups(), Spec.numSyncGroups(), Cfg.FreeGeom,
      Cfg.ConfGeom, Cfg.MailGeom, Cfg.SummarySlotBytes, Cfg.BackupSlotBytes,
      0, Cfg.Reconfig.Enabled ? Cfg.Reconfig.TransferSlotBytes : 0);
  std::size_t MemBytes = Map->totalBytes() + (1u << 20);
  Trans = std::make_unique<rdma::Fabric>(Sim, NumNodes, Model, MemBytes);
  build(NumNodes, Model);
}

HambandCluster::HambandCluster(rdma::TransportKind Kind, unsigned NumNodes,
                               const ObjectType &Type,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : Type(Type), Cfg(Cfg.tunedFor(Kind)) {
  const CoordinationSpec &Spec = Type.coordination();
  assert(Spec.finalized() && "coordination spec must be finalized");
  Map = std::make_unique<MemoryMap>(
      NumNodes, Spec.numSumGroups(), Spec.numSyncGroups(),
      this->Cfg.FreeGeom, this->Cfg.ConfGeom, this->Cfg.MailGeom,
      this->Cfg.SummarySlotBytes, this->Cfg.BackupSlotBytes, 0,
      this->Cfg.Reconfig.Enabled ? this->Cfg.Reconfig.TransferSlotBytes : 0);
  std::size_t MemBytes = Map->totalBytes() + (1u << 20);
  if (Kind == rdma::TransportKind::Sim) {
    OwnedSim = std::make_unique<sim::Simulator>();
    Trans =
        std::make_unique<rdma::Fabric>(*OwnedSim, NumNodes, Model, MemBytes);
  } else {
    Trans = std::make_unique<rdma::ShmTransport>(NumNodes, Model, MemBytes);
  }
  build(NumNodes, Model);
}

void HambandCluster::build(unsigned NumNodes, rdma::NetworkModel Model) {
  (void)Model;
  Failed.assign(NumNodes, false);
  OutstandingPer =
      std::make_unique<std::atomic<std::uint64_t>[]>(NumNodes);
  OutstandingUpdatesPer =
      std::make_unique<std::atomic<std::uint64_t>[]>(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N) {
    OutstandingPer[N].store(0, std::memory_order_relaxed);
    OutstandingUpdatesPer[N].store(0, std::memory_order_relaxed);
  }
  Trans->setObs(ClusterStats);
  // Reserve the mapped range so nothing else lands in it.
  for (rdma::NodeId N = 0; N < NumNodes; ++N)
    Trans->memory(N).alloc(Map->totalBytes());
  for (unsigned G = 0; G < Type.coordination().numSyncGroups(); ++G)
    ConfKeys.push_back(Trans->createRegionKey());
  if (Cfg.Reconfig.Enabled) {
    // The epoch-0 data-plane key; every transition mints a successor and
    // fences this one. Filled in before the nodes capture their config.
    Cfg.Reconfig.InitialDataKey = Trans->createRegionKey();
    if (Cfg.Reconfig.InitialActive.empty())
      Cfg.Reconfig.InitialActive.assign(NumNodes, 1);
    assert(Cfg.Reconfig.InitialActive.size() == NumNodes &&
           "InitialActive must name every provisioned node");
  }
  for (rdma::NodeId N = 0; N < NumNodes; ++N)
    Nodes.push_back(std::make_unique<HambandNode>(*Trans, N, Type, *Map,
                                                  Cfg, ConfKeys));
  if (Cfg.Reconfig.Enabled) {
    Membership Init;
    Init.Epoch = 0;
    Init.Active = Cfg.Reconfig.InitialActive;
    Reconfig = std::make_unique<ReconfigManager>(
        *this, std::move(Init), Cfg.Reconfig.InitialDataKey);
    Reconfig->attachStats(ClusterStats);
  }
}

HambandCluster::~HambandCluster() {
  // Node threads must stop before the nodes (and anything their queued
  // closures reference) are destroyed.
  stopTransport();
}

void HambandCluster::stopTransport() { Trans->shutdown(); }

rdma::Fabric &HambandCluster::fabric() {
  assert(Trans->kind() == rdma::TransportKind::Sim &&
         "fabric() is only meaningful on the simulated transport");
  return static_cast<rdma::Fabric &>(*Trans);
}

void HambandCluster::start() {
  // Marshal each start() into its node's execution context. Per-node
  // queues are FIFO, so everything submitted afterwards through callOn
  // finds the node started; on the sim transport this runs inline and is
  // identical to the historical direct loop.
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    Trans->callOn(N, [this, N]() { Nodes[N]->start(); });
}

void HambandCluster::submit(rdma::NodeId Origin, const Call &C,
                            SubmitCallback Done) {
  assert(Origin < Nodes.size());
  bool IsUpdate =
      Type.coordination().category(C.Method) != MethodCategory::Query;
  Outstanding.fetch_add(1, std::memory_order_acq_rel);
  if (IsUpdate)
    OutstandingUpdatesPer[Origin].fetch_add(1, std::memory_order_acq_rel);
  OutstandingPer[Origin].fetch_add(1, std::memory_order_acq_rel);
  Trans->callOn(Origin, [this, Origin, C, IsUpdate,
                         Done = std::move(Done)]() {
    Nodes[Origin]->submit(
        C, [this, Origin, IsUpdate, Done = std::move(Done)](bool Ok,
                                                            Value V) {
          Outstanding.fetch_sub(1, std::memory_order_acq_rel);
          if (IsUpdate)
            OutstandingUpdatesPer[Origin].fetch_sub(1,
                                                    std::memory_order_acq_rel);
          OutstandingPer[Origin].fetch_sub(1, std::memory_order_acq_rel);
          if (Done)
            Done(Ok, V);
        });
  });
}

std::uint64_t HambandCluster::liveUpdatesOutstanding() const {
  std::uint64_t Pending = 0;
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    if (Trans->isAlive(N))
      Pending += OutstandingUpdatesPer[N].load(std::memory_order_acquire);
  return Pending;
}

bool HambandCluster::fullyReplicated() const {
  if (outstanding() != 0)
    return false;
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    if (inService(N) && !Nodes[N]->idle())
      return false;
  return appliedTablesEqual();
}

bool HambandCluster::appliedTablesEqual() const {
  const HambandNode *First = nullptr;
  for (rdma::NodeId N = 0; N < numNodes(); ++N) {
    if (!inService(N))
      continue; // A standby holds no replica yet.
    if (!First)
      First = Nodes[N].get();
    else if (Nodes[N]->appliedTable() != First->appliedTable())
      return false;
  }
  return true;
}

bool HambandCluster::converged() {
  const ObjectState *First = nullptr;
  for (rdma::NodeId N = 0; N < numNodes(); ++N) {
    if (!inService(N))
      continue;
    if (!First)
      First = &Nodes[N]->visibleState();
    else if (!First->equals(Nodes[N]->visibleState()))
      return false;
  }
  return true;
}

void HambandCluster::seedReducibleState(unsigned Group, rdma::NodeId Issuer,
                                        const Call &Summary,
                                        std::uint64_t Seq) {
  withPausedWorld([&]() {
    for (auto &N : Nodes)
      N->summaries().seed(Group, Issuer, Summary, Seq);
  });
}

void HambandCluster::withPausedWorld(const std::function<void()> &Fn) {
  Trans->pauseWorld();
  Fn();
  Trans->resumeWorld();
}

bool HambandCluster::fullyReplicatedQuiesced() {
  bool R = false;
  withPausedWorld([&]() { R = fullyReplicated(); });
  return R;
}

bool HambandCluster::convergedQuiesced() {
  bool R = false;
  withPausedWorld([&]() { R = converged(); });
  return R;
}

void HambandCluster::injectFailure(rdma::NodeId Node) {
  assert(Node < Nodes.size());
  Failed[Node] = true;
  Nodes[Node]->suspendHeartbeat();
  Nodes[Node]->setOutOfService();
}

void HambandCluster::recoverFailure(rdma::NodeId Node) {
  assert(Node < Nodes.size());
  if (!Trans->isAlive(Node))
    return;
  Failed[Node] = false;
  Nodes[Node]->resumeHeartbeat();
  Nodes[Node]->returnToService();
}

void HambandCluster::crashNode(rdma::NodeId Node) {
  assert(Node < Nodes.size());
  Failed[Node] = true;
  Nodes[Node]->suspendHeartbeat();
  Nodes[Node]->setOutOfService();
  Trans->crash(Node);
}

bool HambandCluster::isLive(rdma::NodeId Node) const {
  return Trans->isAlive(Node);
}

bool HambandCluster::attachFaultInjector(sim::FaultInjector &FI) {
  if (!Trans->deterministic())
    return false; // Fault schedules/traces are simulated-time artifacts.
  FI.onCrash([this](std::uint32_t N) { crashNode(N); });
  FI.onSuspend([this](std::uint32_t N) { injectFailure(N); });
  FI.onRecover([this](std::uint32_t N) { recoverFailure(N); });
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    Nodes[N]->broadcast().setOnStage(
        [&FI, N]() { FI.onBroadcastStaged(N); });
  Trans->setFaultHook(&FI);
  FaultInj = &FI;
  return true;
}

bool HambandCluster::reconfigure(std::vector<std::uint8_t> TargetActive,
                                 ReconfigManager::DoneFn Done) {
  if (!Reconfig)
    return false;
  return Reconfig->start(std::move(TargetActive), std::move(Done));
}

bool HambandCluster::fullyReplicatedLive() const {
  const HambandNode *First = nullptr;
  for (rdma::NodeId N = 0; N < numNodes(); ++N) {
    if (!isLive(N) || !inService(N))
      continue;
    if (outstandingAt(N) != 0 || !Nodes[N]->idle())
      return false;
    if (!First)
      First = Nodes[N].get();
    else if (Nodes[N]->appliedTable() != First->appliedTable())
      return false;
  }
  return true;
}

bool HambandCluster::convergedLive() {
  const ObjectState *First = nullptr;
  for (rdma::NodeId N = 0; N < numNodes(); ++N) {
    if (!isLive(N) || !inService(N))
      continue;
    if (!First)
      First = &Nodes[N]->visibleState();
    else if (!First->equals(Nodes[N]->visibleState()))
      return false;
  }
  return true;
}

std::uint64_t HambandCluster::stateFingerprint() {
  std::uint64_t H = 0x6a09e667f3bcc908ull;
  auto Mix = [&H](std::uint64_t V) {
    H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  };
  for (rdma::NodeId N = 0; N < numNodes(); ++N) {
    Mix(isLive(N) ? 1 : 0);
    // A crashed node's CPU is gone but its memory is still part of the
    // cluster-visible state (peers read it during recovery), so its
    // digest stays in the fingerprint.
    Mix(Nodes[N]->stateDigest());
  }
  Mix(Outstanding.load(std::memory_order_relaxed));
  return H;
}

rdma::NodeId HambandCluster::leaderOf(unsigned Group,
                                      rdma::NodeId Observer) const {
  assert(Observer < Nodes.size());
  return Nodes[Observer]->conf().knownLeader(Group);
}

obs::StatsSnapshot HambandCluster::statsSnapshot() const {
  obs::StatsSnapshot S = ClusterStats.snapshot();
  for (const auto &N : Nodes)
    S.merge(N->statsSnapshot());
  return S;
}

std::uint64_t HambandCluster::replicationBacklog() const {
  // For each (issuer, method) cell, the most advanced replica's count is
  // the number of calls issued-and-propagating; every other replica's
  // shortfall is unreplicated work.
  std::uint64_t Backlog = 0;
  unsigned Methods = Type.numMethods();
  for (unsigned From = 0; From < Nodes.size(); ++From) {
    for (MethodId U = 0; U < Methods; ++U) {
      std::uint64_t MaxSeen = 0;
      for (const auto &N : Nodes)
        MaxSeen = std::max(MaxSeen, N->applied(From, U));
      for (const auto &N : Nodes)
        Backlog += MaxSeen - N->applied(From, U);
    }
  }
  return Backlog;
}
