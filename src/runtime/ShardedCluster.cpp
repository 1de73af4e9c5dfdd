//===- runtime/ShardedCluster.cpp - Sharded keyspace -----------------------=//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/ShardedCluster.h"

#include "hamband/rdma/Fabric.h"
#include "hamband/rdma/ShmTransport.h"
#include "hamband/sim/FaultInjector.h"

#include <algorithm>
#include <cassert>

using namespace hamband;
using namespace hamband::runtime;

ShardedCluster::ShardedCluster(sim::Simulator &Sim, unsigned NumNodes,
                               const ObjectType &BaseType,
                               KeyspaceConfig KSCfg,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : NumNodes(NumNodes), Keyed(BaseType), KS(KSCfg), Cfg(Cfg) {
  const CoordinationSpec &Spec = Keyed.coordination();
  rdma::MemOffset Base = 0;
  for (unsigned S = 0; S < KS.numShards(); ++S) {
    Maps.push_back(std::make_unique<MemoryMap>(
        NumNodes, Spec.numSumGroups(), Spec.numSyncGroups(),
        this->Cfg.FreeGeom, this->Cfg.ConfGeom, this->Cfg.MailGeom,
        this->Cfg.SummarySlotBytes, this->Cfg.BackupSlotBytes, Base));
    Base = (Maps.back()->totalBytes() + 63) & ~rdma::MemOffset(63);
  }
  std::size_t MemBytes = Maps.back()->totalBytes() + (1u << 20);
  Trans = std::make_unique<rdma::Fabric>(Sim, NumNodes, Model, MemBytes);
  build(Model);
}

ShardedCluster::ShardedCluster(rdma::TransportKind Kind, unsigned NumNodes,
                               const ObjectType &BaseType,
                               KeyspaceConfig KSCfg,
                               rdma::NetworkModel Model, HambandConfig Cfg)
    : NumNodes(NumNodes), Keyed(BaseType), KS(KSCfg),
      Cfg(Cfg.tunedFor(Kind)) {
  const CoordinationSpec &Spec = Keyed.coordination();
  rdma::MemOffset Base = 0;
  for (unsigned S = 0; S < KS.numShards(); ++S) {
    Maps.push_back(std::make_unique<MemoryMap>(
        NumNodes, Spec.numSumGroups(), Spec.numSyncGroups(),
        this->Cfg.FreeGeom, this->Cfg.ConfGeom, this->Cfg.MailGeom,
        this->Cfg.SummarySlotBytes, this->Cfg.BackupSlotBytes, Base));
    Base = (Maps.back()->totalBytes() + 63) & ~rdma::MemOffset(63);
  }
  std::size_t MemBytes = Maps.back()->totalBytes() + (1u << 20);
  if (Kind == rdma::TransportKind::Sim) {
    OwnedSim = std::make_unique<sim::Simulator>();
    Trans =
        std::make_unique<rdma::Fabric>(*OwnedSim, NumNodes, Model, MemBytes);
  } else {
    Trans = std::make_unique<rdma::ShmTransport>(NumNodes, Model, MemBytes);
  }
  build(Model);
}

void ShardedCluster::build(rdma::NetworkModel Model) {
  (void)Model;
  FailedNode.assign(NumNodes, false);
  FailedShard.assign(KS.numShards(), std::vector<bool>(NumNodes, false));
  OutstandingPer = std::make_unique<std::atomic<std::uint64_t>[]>(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    OutstandingPer[N].store(0, std::memory_order_relaxed);
  Trans->setObs(ClusterStats);
  CtrUnknownKey = &ClusterStats.counter("keyspace.unknown_key");
  GaugeImbalance = &ClusterStats.gauge("shard.imbalance");
  GaugeObjects = &ClusterStats.gauge("keyspace.objects");
  GaugeShards = &ClusterStats.gauge("keyspace.shards");
  GaugeShards->set(static_cast<std::int64_t>(KS.numShards()));
  for (unsigned S = 0; S < KS.numShards(); ++S)
    CtrShardSubmitted.push_back(&ClusterStats.counter(
        "shard." + std::to_string(S) + ".submitted"));
  // Reserve every shard's mapped range in one allocation per node.
  for (rdma::NodeId N = 0; N < NumNodes; ++N)
    Trans->memory(N).alloc(Maps.back()->totalBytes());
  for (unsigned S = 0; S < KS.numShards(); ++S) {
    ConfKeys.emplace_back();
    for (unsigned G = 0; G < Keyed.coordination().numSyncGroups(); ++G)
      ConfKeys.back().push_back(Trans->createRegionKey());
  }
  for (unsigned S = 0; S < KS.numShards(); ++S) {
    HambandConfig ShardCfg = Cfg;
    if (KS.config().RotateLeaders)
      ShardCfg.LeaderOffset = S;
    Nodes.emplace_back();
    for (rdma::NodeId N = 0; N < NumNodes; ++N)
      Nodes.back().push_back(std::make_unique<HambandNode>(
          *Trans, N, Keyed, *Maps[S], ShardCfg, ConfKeys[S]));
  }
}

ShardedCluster::~ShardedCluster() { stopTransport(); }

void ShardedCluster::stopTransport() { Trans->shutdown(); }

rdma::Fabric &ShardedCluster::fabric() {
  assert(Trans->kind() == rdma::TransportKind::Sim &&
         "fabric() is only meaningful on the simulated transport");
  return static_cast<rdma::Fabric &>(*Trans);
}

Value ShardedCluster::registerObject(const std::string &Id) {
  assert(!Started && "register objects before start()");
  return KS.registerObject(Id);
}

void ShardedCluster::start() {
  Started = true;
  refreshKeyspaceGauges();
  // One closure per node starts that node's replica of every shard;
  // per-node queues are FIFO, so later callOn submissions find all of
  // them started.
  for (rdma::NodeId N = 0; N < NumNodes; ++N)
    Trans->callOn(N, [this, N]() {
      for (auto &Shard : Nodes)
        Shard[N]->start();
    });
}

void ShardedCluster::submit(rdma::NodeId Origin, const Call &C,
                            SubmitCallback Done) {
  assert(Origin < NumNodes);
  Value Key = KeyedObjectType::callKey(C);
  if (!KS.knownKey(Key)) {
    CtrUnknownKey->add();
    if (Done)
      Done(false, 0);
    return;
  }
  unsigned S = KS.shardOfKey(Key);
  CtrShardSubmitted[S]->add();
  Outstanding.fetch_add(1, std::memory_order_acq_rel);
  OutstandingPer[Origin].fetch_add(1, std::memory_order_acq_rel);
  Trans->callOn(Origin, [this, S, Origin, C, Done = std::move(Done)]() {
    Nodes[S][Origin]->submit(
        C, [this, Origin, Done = std::move(Done)](bool Ok, Value V) {
          Outstanding.fetch_sub(1, std::memory_order_acq_rel);
          OutstandingPer[Origin].fetch_sub(1, std::memory_order_acq_rel);
          if (Done)
            Done(Ok, V);
        });
  });
}

void ShardedCluster::submitOn(rdma::NodeId Origin, const std::string &Id,
                              const Call &Inner, SubmitCallback Done) {
  std::optional<Value> Key = KS.keyOf(Id);
  if (!Key) {
    CtrUnknownKey->add();
    if (Done)
      Done(false, 0);
    return;
  }
  submit(Origin, KeyedObjectType::keyCall(*Key, Inner), std::move(Done));
}

bool ShardedCluster::fullyReplicated() const {
  if (outstanding() != 0)
    return false;
  for (const auto &Shard : Nodes)
    for (const auto &N : Shard)
      if (!N->idle())
        return false;
  return appliedTablesEqual();
}

bool ShardedCluster::appliedTablesEqual() const {
  for (const auto &Shard : Nodes)
    for (std::size_t N = 1; N < Shard.size(); ++N)
      if (Shard[N]->appliedTable() != Shard[0]->appliedTable())
        return false;
  return true;
}

bool ShardedCluster::converged() {
  for (auto &Shard : Nodes) {
    const ObjectState &First = Shard[0]->visibleState();
    for (std::size_t N = 1; N < Shard.size(); ++N)
      if (!First.equals(Shard[N]->visibleState()))
        return false;
  }
  return true;
}

void ShardedCluster::withPausedWorld(const std::function<void()> &Fn) {
  Trans->pauseWorld();
  Fn();
  Trans->resumeWorld();
}

bool ShardedCluster::fullyReplicatedQuiesced() {
  bool R = false;
  withPausedWorld([&]() { R = fullyReplicated(); });
  return R;
}

bool ShardedCluster::convergedQuiesced() {
  bool R = false;
  withPausedWorld([&]() { R = converged(); });
  return R;
}

void ShardedCluster::injectFailure(rdma::NodeId Node) {
  assert(Node < NumNodes);
  FailedNode[Node] = true;
  for (unsigned S = 0; S < KS.numShards(); ++S)
    injectFailureShard(S, Node);
}

void ShardedCluster::recoverFailure(rdma::NodeId Node) {
  assert(Node < NumNodes);
  if (!Trans->isAlive(Node))
    return;
  FailedNode[Node] = false;
  for (unsigned S = 0; S < KS.numShards(); ++S)
    recoverFailureShard(S, Node);
}

void ShardedCluster::crashNode(rdma::NodeId Node) {
  assert(Node < NumNodes);
  injectFailure(Node);
  Trans->crash(Node);
}

bool ShardedCluster::isLive(rdma::NodeId Node) const {
  return Trans->isAlive(Node);
}

void ShardedCluster::injectFailureShard(unsigned Shard,
                                        rdma::NodeId Node) {
  assert(Shard < KS.numShards() && Node < NumNodes);
  FailedShard[Shard][Node] = true;
  Nodes[Shard][Node]->suspendHeartbeat();
  Nodes[Shard][Node]->setOutOfService();
}

void ShardedCluster::recoverFailureShard(unsigned Shard,
                                         rdma::NodeId Node) {
  assert(Shard < KS.numShards() && Node < NumNodes);
  if (!Trans->isAlive(Node))
    return;
  FailedShard[Shard][Node] = false;
  Nodes[Shard][Node]->resumeHeartbeat();
  Nodes[Shard][Node]->returnToService();
}

bool ShardedCluster::attachFaultInjector(sim::FaultInjector &FI) {
  if (!Trans->deterministic())
    return false; // Fault schedules/traces are simulated-time artifacts.
  FI.onCrash([this](std::uint32_t N) { crashNode(N); });
  FI.onSuspend([this](std::uint32_t N) { injectFailure(N); });
  FI.onRecover([this](std::uint32_t N) { recoverFailure(N); });
  for (auto &Shard : Nodes)
    for (rdma::NodeId N = 0; N < NumNodes; ++N)
      Shard[N]->broadcast().setOnStage(
          [&FI, N]() { FI.onBroadcastStaged(N); });
  Trans->setFaultHook(&FI);
  return true;
}

bool ShardedCluster::attachFaultInjectorShard(sim::FaultInjector &FI,
                                              unsigned Shard) {
  if (!Trans->deterministic())
    return false;
  assert(Shard < KS.numShards());
  // Confined wiring: every action is a service-level failure of this
  // shard only, and only this shard's broadcast stages drive the
  // schedule. A transport-level crash cannot be confined to a shard (it
  // stops the node's CPU), so "crash" degrades to the shard suspension.
  FI.onCrash([this, Shard](std::uint32_t N) {
    injectFailureShard(Shard, N);
  });
  FI.onSuspend([this, Shard](std::uint32_t N) {
    injectFailureShard(Shard, N);
  });
  FI.onRecover([this, Shard](std::uint32_t N) {
    recoverFailureShard(Shard, N);
  });
  for (rdma::NodeId N = 0; N < NumNodes; ++N)
    Nodes[Shard][N]->broadcast().setOnStage(
        [&FI, N]() { FI.onBroadcastStaged(N); });
  Trans->setFaultHook(&FI);
  return true;
}

bool ShardedCluster::fullyReplicatedLive() const {
  for (unsigned S = 0; S < KS.numShards(); ++S) {
    const HambandNode *First = nullptr;
    for (rdma::NodeId N = 0; N < NumNodes; ++N) {
      if (!isLive(N) || FailedShard[S][N])
        continue;
      if (outstandingAt(N) != 0 || !Nodes[S][N]->idle())
        return false;
      if (!First)
        First = Nodes[S][N].get();
      else if (Nodes[S][N]->appliedTable() != First->appliedTable())
        return false;
    }
  }
  return true;
}

bool ShardedCluster::convergedLive() {
  for (unsigned S = 0; S < KS.numShards(); ++S) {
    const ObjectState *First = nullptr;
    for (rdma::NodeId N = 0; N < NumNodes; ++N) {
      if (!isLive(N) || FailedShard[S][N])
        continue;
      if (!First)
        First = &Nodes[S][N]->visibleState();
      else if (!First->equals(Nodes[S][N]->visibleState()))
        return false;
    }
  }
  return true;
}

rdma::NodeId ShardedCluster::leaderOf(unsigned Group,
                                      rdma::NodeId Observer) const {
  unsigned Per = groupsPerShard();
  assert(Per > 0 && "leaderOf on a conflict-free type");
  return leaderOfShard(Group / Per, Group % Per, Observer);
}

rdma::NodeId ShardedCluster::leaderOfShard(unsigned Shard, unsigned Group,
                                           rdma::NodeId Observer) const {
  assert(Shard < KS.numShards() && Observer < NumNodes);
  return Nodes[Shard][Observer]->conf().knownLeader(Group);
}

void ShardedCluster::refreshKeyspaceGauges() const {
  GaugeObjects->set(static_cast<std::int64_t>(KS.numObjects()));
  // Prefer traffic imbalance (submitted calls per shard) once calls have
  // flowed; before that, report the registered-key placement imbalance.
  std::uint64_t Total = 0, Max = 0;
  for (const obs::Counter *C : CtrShardSubmitted) {
    std::uint64_t V = C->value();
    Total += V;
    Max = std::max(Max, V);
  }
  double Imb;
  if (Total > 0)
    Imb = static_cast<double>(Max) * KS.numShards() /
          static_cast<double>(Total);
  else
    Imb = KS.imbalance();
  GaugeImbalance->set(static_cast<std::int64_t>(Imb * 1000.0));
}

obs::StatsSnapshot ShardedCluster::statsSnapshot() const {
  refreshKeyspaceGauges();
  obs::StatsSnapshot Snap = ClusterStats.snapshot();
  for (const auto &Shard : Nodes)
    for (const auto &N : Shard)
      Snap.merge(N->statsSnapshot());
  return Snap;
}

std::uint64_t ShardedCluster::replicationBacklog() const {
  std::uint64_t Backlog = 0;
  unsigned Methods = Keyed.numMethods();
  for (const auto &Shard : Nodes) {
    for (unsigned From = 0; From < Shard.size(); ++From) {
      for (MethodId U = 0; U < Methods; ++U) {
        std::uint64_t MaxSeen = 0;
        for (const auto &N : Shard)
          MaxSeen = std::max(MaxSeen, N->applied(From, U));
        for (const auto &N : Shard)
          Backlog += MaxSeen - N->applied(From, U);
      }
    }
  }
  return Backlog;
}
