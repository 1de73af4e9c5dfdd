//===- runtime/HambandCluster.cpp - Hamband cluster --------------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/HambandCluster.h"

#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/sim/FaultInjector.h"

#include <algorithm>
#include <cassert>

using namespace hamband;
using namespace hamband::runtime;

ReplicaRuntime::~ReplicaRuntime() = default;

HambandCluster::HambandCluster(sim::Simulator &Sim, unsigned NumNodes,
                               const ObjectType &Type,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : HambandCluster(&Sim, rdma::TransportKind::Sim, NumNodes, Type,
                     std::nullopt, Model, std::move(Cfg)) {}

HambandCluster::HambandCluster(rdma::TransportKind Kind, unsigned NumNodes,
                               const ObjectType &Type,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : HambandCluster(nullptr, Kind, NumNodes, Type, std::nullopt, Model,
                     std::move(Cfg)) {}

HambandCluster::HambandCluster(sim::Simulator &Sim, unsigned NumNodes,
                               const ObjectType &BaseType,
                               KeyspaceConfig KSCfg,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : HambandCluster(&Sim, rdma::TransportKind::Sim, NumNodes, BaseType,
                     KSCfg, Model, std::move(Cfg)) {}

HambandCluster::HambandCluster(rdma::TransportKind Kind, unsigned NumNodes,
                               const ObjectType &BaseType,
                               KeyspaceConfig KSCfg,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : HambandCluster(nullptr, Kind, NumNodes, BaseType, KSCfg, Model,
                     std::move(Cfg)) {}

HambandCluster::HambandCluster(sim::Simulator *Sim, rdma::TransportKind Kind,
                               unsigned NumNodes, const ObjectType &BaseType,
                               std::optional<KeyspaceConfig> KSCfg,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : Keyed(KSCfg ? std::make_unique<KeyedObjectType>(BaseType) : nullptr),
      KS(KSCfg ? std::make_unique<Keyspace>(*KSCfg) : nullptr),
      Type(Keyed ? *Keyed : BaseType), Cfg(Cfg.tunedFor(Kind)) {
  const CoordinationSpec &Spec = Type.coordination();
  assert(Spec.finalized() && "coordination spec must be finalized");
  assert(!(KS && this->Cfg.Reconfig.Enabled) &&
         "membership reconfiguration needs an unkeyed cluster");
  // Every shard's layout at the next 64-byte boundary of one shared
  // region; only the unkeyed cluster can carry the transfer slot.
  rdma::MemOffset Base = 0;
  Shards.resize(KS ? KS->numShards() : 1);
  for (Shard &Sh : Shards) {
    Sh.Map = std::make_unique<MemoryMap>(
        NumNodes, Spec.numSumGroups(), Spec.numSyncGroups(),
        this->Cfg.FreeGeom, this->Cfg.ConfGeom, this->Cfg.SummarySlotBytes,
        this->Cfg.BackupSlotBytes, Base,
        this->Cfg.Reconfig.Enabled ? ReconfigConfig::TransferSlotBytes : 0);
    Base = (Sh.Map->totalBytes() + 63) & ~rdma::MemOffset(63);
  }
  std::size_t MemBytes = Shards.back().Map->totalBytes() + (1u << 20);
  if (!Sim && Kind == rdma::TransportKind::Sim) {
    OwnedSim = std::make_unique<sim::Simulator>();
    Sim = OwnedSim.get();
  }
  if (Sim)
    Trans = std::make_unique<rdma::Fabric>(*Sim, NumNodes, Model, MemBytes);
  else
    Trans = std::make_unique<rdma::ShmTransport>(NumNodes, Model, MemBytes);
  build(NumNodes);
}

void HambandCluster::build(unsigned NumNodes) {
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
  if (KS) {
    CtrUnknownKey = &ClusterStats.counter("keyspace.unknown_key");
    GaugeImbalance = &ClusterStats.gauge("shard.imbalance");
    GaugeObjects = &ClusterStats.gauge("keyspace.objects");
    GaugeShards = &ClusterStats.gauge("keyspace.shards");
    GaugeShards->set(static_cast<std::int64_t>(numShards()));
    for (unsigned S = 0; S < numShards(); ++S)
      CtrShardSubmitted.push_back(&ClusterStats.counter(
          "shard." + std::to_string(S) + ".submitted"));
  }
  // Reserve every shard's mapped range so nothing else lands in it.
  for (rdma::NodeId N = 0; N < NumNodes; ++N)
    Trans->memory(N).alloc(Shards.back().Map->totalBytes());
  for (Shard &Sh : Shards)
    for (unsigned G = 0; G < groupsPerShard(); ++G)
      Sh.ConfKeys.push_back(Trans->createRegionKey());
  // Epoch 0's view: every node, or the configured subset when
  // reconfiguration is on (the rest are standbys). Its data plane is
  // unprotected unless a transition may later fence it.
  Membership Init{0, std::vector<std::uint8_t>(NumNodes, 1)};
  rdma::RegionKey DataKey = rdma::UnprotectedRegion;
  if (Cfg.Reconfig.Enabled) {
    DataKey = Trans->createRegionKey();
    if (!Cfg.Reconfig.InitialActive.empty())
      Init.Active = Cfg.Reconfig.InitialActive;
    assert(Init.Active.size() == NumNodes &&
           "InitialActive must name every provisioned node");
  }
  // Shard s leads its group g from node (g + s) % N, so no node leads
  // every shard's group 0.
  for (unsigned S = 0; S < numShards(); ++S) {
    Shard &Sh = Shards[S];
    Sh.Failed.assign(NumNodes, false);
    for (rdma::NodeId N = 0; N < NumNodes; ++N)
      Sh.Nodes.push_back(std::make_unique<HambandNode>(
          *Trans, N, Type, *Sh.Map, Cfg, Sh.ConfKeys, Init, DataKey, S));
  }
  if (Cfg.Reconfig.Enabled) {
    Reconfig = std::make_unique<ReconfigManager>(*this, std::move(Init),
                                                 DataKey);
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

Value HambandCluster::registerObject(const std::string &Id) {
  assert(KS && "objects are registered on keyed clusters");
  assert(!Started && "register objects before start()");
  return KS->registerObject(Id);
}

void HambandCluster::start() {
  Started = true;
  // Marshal each node's start() into its execution context. Per-node
  // queues are FIFO, so everything submitted afterwards through callOn
  // finds every replica started; on the sim transport this runs inline.
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    Trans->callOn(N, [this, N]() {
      for (Shard &Sh : Shards)
        Sh.Nodes[N]->start();
    });
}

void HambandCluster::submit(rdma::NodeId Origin, const Call &C,
                            SubmitCallback Done) {
  assert(Origin < numNodes());
  unsigned S = 0;
  if (KS) {
    Value Key = KeyedObjectType::callKey(C);
    if (!KS->knownKey(Key)) {
      CtrUnknownKey->add();
      if (Done)
        Done(false, 0);
      return;
    }
    S = KS->shardOfKey(Key);
    CtrShardSubmitted[S]->add();
  }
  bool IsUpdate =
      Type.coordination().category(C.Method) != MethodCategory::Query;
  Outstanding.fetch_add(1, std::memory_order_acq_rel);
  if (IsUpdate)
    OutstandingUpdatesPer[Origin].fetch_add(1, std::memory_order_acq_rel);
  OutstandingPer[Origin].fetch_add(1, std::memory_order_acq_rel);
  Trans->callOn(Origin, [this, S, Origin, C, IsUpdate,
                         Done = std::move(Done)]() {
    Shards[S].Nodes[Origin]->submit(
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

void HambandCluster::submitOn(rdma::NodeId Origin, const std::string &Id,
                              const Call &Inner, SubmitCallback Done) {
  assert(KS && "submitOn addresses objects of a keyed cluster");
  // An unregistered id travels as an unknown key, which submit() rejects.
  Value Key = KS->keyOf(Id).value_or(-1);
  submit(Origin, KeyedObjectType::keyCall(Key, Inner), std::move(Done));
}

std::uint64_t HambandCluster::liveUpdatesOutstanding() const {
  std::uint64_t Pending = 0;
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    if (Trans->isAlive(N))
      Pending += OutstandingUpdatesPer[N].load(std::memory_order_acquire);
  return Pending;
}

bool HambandCluster::counted(const Shard &Sh, rdma::NodeId N,
                             bool Live) const {
  // A standby holds no replica yet.
  return inService(N) && (!Live || (isLive(N) && !Sh.Failed[N]));
}

bool HambandCluster::drained(bool Live) const {
  for (const Shard &Sh : Shards)
    for (rdma::NodeId N = 0; N < numNodes(); ++N)
      if (counted(Sh, N, Live) &&
          (outstandingAt(N) != 0 || !Sh.Nodes[N]->idle()))
        return false;
  return true;
}

bool HambandCluster::tablesEqual(bool Live) const {
  for (const Shard &Sh : Shards) {
    const HambandNode *First = nullptr;
    for (rdma::NodeId N = 0; N < numNodes(); ++N) {
      if (!counted(Sh, N, Live))
        continue;
      if (!First)
        First = Sh.Nodes[N].get();
      else if (Sh.Nodes[N]->appliedTable() != First->appliedTable())
        return false;
    }
  }
  return true;
}

bool HambandCluster::statesEqual(bool Live) {
  for (Shard &Sh : Shards) {
    const ObjectState *First = nullptr;
    for (rdma::NodeId N = 0; N < numNodes(); ++N) {
      if (!counted(Sh, N, Live))
        continue;
      if (!First)
        First = &Sh.Nodes[N]->visibleState();
      else if (!First->equals(Sh.Nodes[N]->visibleState()))
        return false;
    }
  }
  return true;
}

bool HambandCluster::fullyReplicated() const {
  return outstanding() == 0 && drained(false) && tablesEqual(false);
}

bool HambandCluster::appliedTablesEqual() const { return tablesEqual(false); }

bool HambandCluster::converged() { return statesEqual(false); }

bool HambandCluster::fullyReplicatedLive() const {
  return drained(true) && tablesEqual(true);
}

bool HambandCluster::convergedLive() { return statesEqual(true); }

void HambandCluster::seedReducibleState(unsigned Group, rdma::NodeId Issuer,
                                        const Call &Summary,
                                        std::uint64_t Seq) {
  withPausedWorld([&]() {
    for (Shard &Sh : Shards)
      for (auto &N : Sh.Nodes)
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

void HambandCluster::suspend(HambandNode &Replica) {
  Replica.suspendHeartbeat();
  Replica.setOutOfService();
}

void HambandCluster::resume(HambandNode &Replica) {
  Replica.resumeHeartbeat();
  Replica.returnToService();
}

void HambandCluster::injectFailure(rdma::NodeId Node) {
  assert(Node < numNodes());
  Failed[Node] = true;
  for (Shard &Sh : Shards)
    suspend(*Sh.Nodes[Node]);
}

void HambandCluster::recoverFailure(rdma::NodeId Node) {
  assert(Node < numNodes());
  if (!Trans->isAlive(Node))
    return;
  Failed[Node] = false;
  for (Shard &Sh : Shards)
    if (!Sh.Failed[Node])
      resume(*Sh.Nodes[Node]);
}

void HambandCluster::crashNode(rdma::NodeId Node) {
  injectFailure(Node);
  Trans->crash(Node);
}

bool HambandCluster::isLive(rdma::NodeId Node) const {
  return Trans->isAlive(Node);
}

void HambandCluster::injectFailureShard(unsigned S, rdma::NodeId Node) {
  assert(S < numShards() && Node < numNodes());
  Shards[S].Failed[Node] = true;
  suspend(*Shards[S].Nodes[Node]);
}

void HambandCluster::recoverFailureShard(unsigned S, rdma::NodeId Node) {
  assert(S < numShards() && Node < numNodes());
  if (!Trans->isAlive(Node))
    return;
  Shards[S].Failed[Node] = false;
  if (!Failed[Node])
    resume(*Shards[S].Nodes[Node]);
}

void HambandCluster::hookShards(sim::FaultInjector &FI, unsigned First,
                                unsigned Last) {
  for (unsigned S = First; S < Last; ++S)
    for (rdma::NodeId N = 0; N < numNodes(); ++N)
      Shards[S].Nodes[N]->broadcast().setOnStage(
          [&FI, N]() { FI.onBroadcastStaged(N); });
  fabric().setFaultHook(&FI);
  FaultInj = &FI;
}

bool HambandCluster::attachFaultInjector(sim::FaultInjector &FI) {
  if (!Trans->deterministic())
    return false; // Fault schedules/traces are simulated-time artifacts.
  FI.onCrash([this](std::uint32_t N) { crashNode(N); });
  FI.onSuspend([this](std::uint32_t N) { injectFailure(N); });
  FI.onRecover([this](std::uint32_t N) { recoverFailure(N); });
  hookShards(FI, 0, numShards());
  return true;
}

bool HambandCluster::attachFaultInjectorShard(sim::FaultInjector &FI,
                                              unsigned S) {
  if (!Trans->deterministic())
    return false;
  assert(S < numShards());
  // A transport-level crash cannot be confined to a shard (it stops the
  // node's CPU), so "crash" degrades to the shard-confined suspension.
  FI.onCrash([this, S](std::uint32_t N) { injectFailureShard(S, N); });
  FI.onSuspend([this, S](std::uint32_t N) { injectFailureShard(S, N); });
  FI.onRecover([this, S](std::uint32_t N) { recoverFailureShard(S, N); });
  hookShards(FI, S, S + 1);
  return true;
}

bool HambandCluster::reconfigure(std::vector<std::uint8_t> TargetActive,
                                 ReconfigManager::DoneFn Done) {
  if (!Reconfig)
    return false;
  return Reconfig->start(std::move(TargetActive), std::move(Done));
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
    // digests stay in the fingerprint.
    for (Shard &Sh : Shards)
      Mix(Sh.Nodes[N]->stateDigest());
  }
  Mix(Outstanding.load(std::memory_order_relaxed));
  return H;
}

rdma::NodeId HambandCluster::leaderOf(unsigned Group,
                                      rdma::NodeId Observer) const {
  unsigned Per = groupsPerShard();
  assert(Per > 0 && "leaderOf on a conflict-free type");
  return leaderOfShard(Group / Per, Group % Per, Observer);
}

rdma::NodeId HambandCluster::leaderOfShard(unsigned S, unsigned Group,
                                           rdma::NodeId Observer) const {
  assert(S < numShards() && Observer < numNodes());
  return Shards[S].Nodes[Observer]->conf().knownLeader(Group);
}

void HambandCluster::refreshKeyspaceGauges() const {
  GaugeObjects->set(static_cast<std::int64_t>(KS->numObjects()));
  // Prefer traffic imbalance (submitted calls per shard) once calls have
  // flowed; before that, report the registered-key placement imbalance.
  std::uint64_t Total = 0, Max = 0;
  for (const obs::Counter *C : CtrShardSubmitted) {
    std::uint64_t V = C->value();
    Total += V;
    Max = std::max(Max, V);
  }
  double Imb = Total > 0 ? static_cast<double>(Max) * numShards() /
                               static_cast<double>(Total)
                         : KS->imbalance();
  GaugeImbalance->set(static_cast<std::int64_t>(Imb * 1000.0));
}

obs::StatsSnapshot HambandCluster::statsSnapshot() const {
  if (KS)
    refreshKeyspaceGauges();
  obs::StatsSnapshot S = ClusterStats.snapshot();
  for (const Shard &Sh : Shards)
    for (const auto &N : Sh.Nodes)
      S.merge(N->statsSnapshot());
  return S;
}

std::uint64_t HambandCluster::replicationBacklog() const {
  // For each (issuer, method) cell of each shard, the most advanced
  // replica's count is the number of calls issued-and-propagating; every
  // other replica's shortfall is unreplicated work.
  std::uint64_t Backlog = 0;
  unsigned Methods = Type.numMethods();
  for (const Shard &Sh : Shards) {
    for (rdma::NodeId From = 0; From < numNodes(); ++From) {
      for (MethodId U = 0; U < Methods; ++U) {
        std::uint64_t MaxSeen = 0;
        for (const auto &N : Sh.Nodes)
          MaxSeen = std::max(MaxSeen, N->applied(From, U));
        for (const auto &N : Sh.Nodes)
          Backlog += MaxSeen - N->applied(From, U);
      }
    }
  }
  return Backlog;
}
