//===- runtime/HambandNode.cpp - Hamband replica node -----------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/HambandNode.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;
using hamband::semantics::DepEntry;
using hamband::semantics::DepMap;

namespace {

/// Total element count over a vector of per-peer/per-group queues.
template <typename QueuesT> std::size_t totalSize(const QueuesT &Queues) {
  std::size_t N = 0;
  for (const auto &Q : Queues)
    N += Q.size();
  return N;
}

/// Folds \p V into the running state hash \p H.
void mixHash(std::uint64_t &H, std::uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
}

/// Pads a summary image into a full slot write: u32 len | payload | ...
/// zeros ... | canary.
std::vector<std::uint8_t> slotBytes(const std::vector<std::uint8_t> &Payload,
                                    std::uint32_t SlotSize) {
  assert(Payload.size() >= 8 && "summary payload leads with its seq");
  assert(Payload.size() + 13 <= SlotSize &&
         "summary exceeds slot; raise SummarySlotBytes or shrink keyspace");
  std::vector<std::uint8_t> Out(SlotSize, 0);
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  std::memcpy(Out.data(), &Len, 4);
  std::memcpy(Out.data() + 4, Payload.data(), Payload.size());
  // Seqlock-style trailer: restate the image's sequence number (the
  // payload's leading u64) just before the canary. Slot writes land in
  // increasing address order, so a reader that snapshots a torn overwrite
  // sees a NEW header with an OLD trailer and rejects the blend.
  std::memcpy(Out.data() + SlotSize - 9, Payload.data(), 8);
  Out[SlotSize - 1] = 1;
  return Out;
}

} // namespace

HambandConfig HambandConfig::tunedFor(rdma::TransportKind Kind) const {
  HambandConfig Out = *this;
  if (Kind == rdma::TransportKind::Sim)
    return Out;
  // Wall-clock floors for the shm transport. max() keeps any explicitly
  // slowed-down test configuration intact.
  auto Floor = [](sim::SimDuration &D, sim::SimDuration Min) {
    D = std::max(D, Min);
  };
  Floor(Out.PollInterval, sim::micros(50));
  Floor(Out.ConfRetryTimeout, sim::millis(2));
  Floor(Out.PermissibilityWait, sim::millis(1));
  Floor(Out.Batch.FlushInterval, sim::micros(200));
  Floor(Out.Reconfig.TickInterval, sim::micros(200));
  Floor(Out.Heartbeat.BeatInterval, sim::millis(2));
  Floor(Out.Heartbeat.CheckInterval, sim::millis(10));
  // A scheduler stall under sanitizers can easily exceed a few check
  // periods; demand a long silence before suspecting a peer.
  Out.Heartbeat.SuspectAfter = std::max(Out.Heartbeat.SuspectAfter, 30u);
  return Out;
}

HambandNode::HambandNode(rdma::Transport &Fabric, rdma::NodeId Self,
                         const ObjectType &Type, const MemoryMap &Map,
                         const HambandConfig &Cfg,
                         const std::vector<rdma::RegionKey> &ConfKeys)
    : Fabric(Fabric), Self(Self), Type(Type), Spec(Type.coordination()),
      Map(Map), Cfg(Cfg) {
  unsigned N = Fabric.numNodes();
  unsigned Groups = Spec.numSyncGroups();
  unsigned SumGroups = Spec.numSumGroups();
  assert(ConfKeys.size() == Groups && "one region key per sync group");

  CtrCallQuery = &Stats.counter("node.calls.query");
  CtrCallReduce = &Stats.counter("node.calls.reducible");
  CtrCallFree = &Stats.counter("node.calls.free");
  CtrCallConf = &Stats.counter("node.calls.conflicting");
  CtrReductions = &Stats.counter("node.reductions");
  CtrDepStallFree = &Stats.counter("node.dep_stall.free");
  CtrDepStallConf = &Stats.counter("node.dep_stall.conf");
  CtrRecovered = &Stats.counter("bcast.recovered");
  HistRespNs = &Stats.histogram("node.resp_ns");
  GaugePendingFree = &Stats.gauge("node.pending_free");
  GaugePendingConf = &Stats.gauge("node.pending_conf");
  CtrFlushPipe = &Stats.counter("node.batch.flush.pipe");
  CtrFlushSize = &Stats.counter("node.batch.flush.size");
  CtrFlushTimeout = &Stats.counter("node.batch.flush.timeout");
  CtrFlushConf = &Stats.counter("node.batch.flush.conf");
  HistBatchCalls = &Stats.histogram("node.batch.calls");
  HistBatchBytes = &Stats.histogram("node.batch.bytes");
  CtrDeltaOut = &Stats.counter("node.delta.out");
  CtrDeltaIn = &Stats.counter("node.delta.in");
  CtrDeltaDup = &Stats.counter("node.delta.dup");
  CtrDeltaGap = &Stats.counter("node.delta.gap");
  CtrDeltaDropped = &Stats.counter("node.delta.dropped");
  CtrDeltaFullOut = &Stats.counter("node.delta.full_out");
  CtrDeltaFullIn = &Stats.counter("node.delta.full_in");
  CtrSlotOverflow = &Stats.counter("node.summary.slot_overflow");
  CtrOversizeReject = &Stats.counter("node.summary.oversize_reject");
  CtrStageSkipped = &Stats.counter("node.delta.stage_skipped");
  CtrWrongEpochReject = &Stats.counter("reconfig.wrong_epoch_reject");
  CtrCrossEpochDrop = &Stats.counter("reconfig.cross_epoch_drop");
  CtrCrossEpochApply = &Stats.counter("reconfig.cross_epoch_apply");
  CtrEpochInstall = &Stats.counter("reconfig.installs");
  CtrAeBackoff = &Stats.counter("node.delta.ae_backoff");

  // Membership-reconfiguration state. With the feature off everything
  // stays at its identity value (epoch 0, empty mask, unprotected key)
  // and no code path below behaves differently.
  if (Cfg.Reconfig.Enabled) {
    DataKey = Cfg.Reconfig.InitialDataKey;
    if (!Cfg.Reconfig.InitialActive.empty()) {
      assert(Cfg.Reconfig.InitialActive.size() == N &&
             "one InitialActive flag per provisioned node");
      Active = Cfg.Reconfig.InitialActive;
    }
    // A provisioned standby starts with its epoch closed: it rejects
    // client updates until a transition adds it to the membership.
    EpochClosed = !activeNode(Self);
  }

  Stored = Type.initialState();
  Applied.assign(N, std::vector<std::uint64_t>(Type.numMethods(), 0));
  SummaryCache.assign(SumGroups, std::vector<std::optional<Call>>(N));
  SummarySeqSeen.assign(SumGroups, std::vector<std::uint64_t>(N, 0));
  OwnSummary.assign(SumGroups, std::nullopt);
  OwnSummarySeq.assign(SumGroups, 0);
  FreePending.resize(N);
  FreeSeqNext.assign(N, 0);
  SumBatchCalls.assign(SumGroups, 0);
  SumBatchDone.resize(SumGroups);
  PendingDelta.assign(SumGroups, std::nullopt);
  DeltaShippedSeq.assign(SumGroups, 0);
  DeltaFlushesSinceFull.assign(SumGroups, 0);
  GapEventsAtFull.assign(SumGroups, 0);
  AeCleanStreak.assign(SumGroups, 0);
  AeFactor.assign(SumGroups, 1);
  BufferedFrames.assign(SumGroups,
                        std::vector<std::deque<SummaryDeltaFrame>>(N));
  Assemblies.assign(SumGroups, std::vector<ChunkAssembly>(N));
  ConfPending.resize(Groups);
  ConfReceivedContig.assign(Groups, 0);
  ConfAppliedIdx.assign(Groups, 0);
  ConfSeen.resize(Groups);
  LeaderSpeculative.resize(Groups);
  LeaderQueue.resize(Groups);
  ConfApplyLog.resize(Groups);
  FreeApplyLog.resize(N);

  FreeReaders.resize(N);
  FreeWriters.resize(N);
  FreeOutbound.resize(N);
  MailOutbound.resize(N);
  MailReaders.resize(N);
  MailWriters.resize(N);
  for (rdma::NodeId J = 0; J < N; ++J) {
    if (J == Self)
      continue;
    FreeReaders[J] = std::make_unique<RingReader>(
        Fabric, Self, J, Map.freeRingData(J), Map.freeRingFeedback(Self),
        Map.freeGeom(), rdma::Transport::LanePoller);
    FreeWriters[J] = std::make_unique<RingWriter>(
        Fabric, Self, J, Map.freeRingData(Self), Map.freeRingFeedback(J),
        Map.freeGeom(), DataKey, rdma::Transport::LaneClient);
    MailReaders[J] = std::make_unique<RingReader>(
        Fabric, Self, J, Map.mailRingData(J), Map.mailRingFeedback(Self),
        Map.mailGeom(), rdma::Transport::LanePoller);
    MailWriters[J] = std::make_unique<RingWriter>(
        Fabric, Self, J, Map.mailRingData(Self), Map.mailRingFeedback(J),
        Map.mailGeom(), rdma::UnprotectedRegion, rdma::Transport::LaneClient);
    FreeReaders[J]->attachStats(Stats);
    FreeWriters[J]->attachStats(Stats);
    MailReaders[J]->attachStats(Stats);
    MailWriters[J]->attachStats(Stats);
  }

  ConfReaders.resize(Groups);
  Consensus.resize(Groups);
  for (unsigned G = 0; G < Groups; ++G) {
    rdma::NodeId InitialLeader = homeLeader(G);
    ConfReaders[G] = std::make_unique<RingReader>(
        Fabric, Self, InitialLeader, Map.confRingData(G),
        Map.confRingFeedback(G, Self), Map.confGeom(),
        rdma::Transport::LanePoller);
    MuConsensus::Hooks Hooks;
    Hooks.ReceivedCount = [this, G]() { return ConfReceivedContig[G]; };
    Hooks.DeliverEntry = [this, G](std::uint64_t Idx,
                                   std::vector<std::uint8_t> Payload) {
      WireCall WC;
      if (!decodeCall(Spec, this->Fabric.numNodes(), Payload.data(),
                      Payload.size(), WC))
        return;
      // Adopted entries count as seen so a client retry of an already
      // committed request is answered without re-appending it.
      ConfSeen[G].insert(WC.TheCall.Req);
      ConfPending[G].emplace(Idx, std::move(WC));
      bumpConfContig(G);
    };
    Hooks.ReadLocalEntry = [this, G](std::uint64_t Idx,
                                     std::vector<std::uint8_t> &Out) {
      return ConfReaders[G]->readCellIgnoringCanary(Idx, Out);
    };
    Hooks.LeaderChanged = [this, G, Self](rdma::NodeId NewLeader) {
      ConfReaders[G]->setWriter(NewLeader);
      ConfReaders[G]->setHead(ConfReceivedContig[G]);
      if (NewLeader != Self)
        ConfReaders[G]->forceFeedback();
      // Stale speculative entries belong to the deposed leadership; the
      // permissibility window restarts from the applied state.
      if (NewLeader != Self)
        LeaderSpeculative[G].clear();
    };
    Hooks.IsSuspected = [this](rdma::NodeId Peer) {
      return Detector->isSuspected(Peer);
    };
    ConfReaders[G]->attachStats(Stats);
    Consensus[G] = std::make_unique<MuConsensus>(
        Fabric, Self, G, InitialLeader, Map, ConfKeys[G], std::move(Hooks),
        Active);
    Consensus[G]->attachStats(Stats);
    Consensus[G]->installInitialPermissions();
  }

  Detector = std::make_unique<HeartbeatDetector>(Fabric, Self,
                                                 Map.heartbeat(),
                                                 Cfg.Heartbeat);
  Detector->onSuspect([this](rdma::NodeId Peer) { onPeerSuspected(Peer); });
  // Monitor only in-service peers (and nobody while we are a standby);
  // installMembership re-enables monitoring when the active set changes.
  if (!Active.empty())
    for (rdma::NodeId P = 0; P < N; ++P)
      if (P != Self)
        Detector->setMonitored(P, activeNode(Self) && activeNode(P));
  Broadcast = std::make_unique<ReliableBroadcast>(
      Fabric, Self, Map.backupSlot(), Cfg.BackupSlotBytes);
  Broadcast->attachStats(Stats);

  const rdma::NetworkModel &M = Fabric.model();
  unsigned Checks = (N - 1) * 2         // free + mail rings
                    + SumGroups * (N - 1) // summary slots
                    + Groups * 2;         // conf rings + consensus polls
  PollBaseCost = M.PollCpu * std::max(1u, Checks);
}

HambandNode::~HambandNode() = default;

void HambandNode::start() {
  assert(!Started && "start() called twice");
  Started = true;
  Detector->start();
  schedulePoll();
  // Periodic scan for redirected conflicting calls that lost their leader.
  // The pending event holds the only strong reference to the tick closure
  // (the closure itself keeps a weak_ptr), so draining the event queue
  // releases it.
  if (Spec.numSyncGroups() > 0) {
    auto Tick = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> Weak = Tick;
    *Tick = [this, Weak]() {
      checkConfTimeouts();
      if (auto T = Weak.lock())
        this->Fabric.runAfter(this->Self, Cfg.ConfRetryTimeout,
                                          [T]() { (*T)(); });
    };
    Fabric.runAfter(Self, Cfg.ConfRetryTimeout, [Tick]() { (*Tick)(); });
  }
}

const ObjectState &HambandNode::visibleState() {
  if (!VisibleDirty && VisibleCache)
    return *VisibleCache;
  VisibleCache = Stored->clone();
  for (const auto &Group : SummaryCache)
    for (const std::optional<Call> &C : Group)
      if (C)
        Type.apply(*VisibleCache, *C);
  VisibleDirty = false;
  return *VisibleCache;
}

void HambandNode::applyToStored(const Call &C) {
  Type.apply(*Stored, C);
  // The retained irreducible-call log: everything folded into the stored
  // state, in apply order. It is what a joiner replays, since irreducible
  // calls have no summary image to transfer (docs/reconfig.md).
  if (Cfg.Reconfig.Enabled)
    ReconfigLog.push_back(encodeLoggedCall(C));
  // Buffered and summarized calls commute (summaries are conflict-free),
  // so the visible cache can be maintained incrementally.
  if (VisibleCache && !VisibleDirty)
    Type.apply(*VisibleCache, C);
}

DepMap HambandNode::projectDeps(MethodId U) const {
  DepMap D;
  for (MethodId Dep : Spec.dependencies(U))
    for (ProcessId Q = 0; Q < Fabric.numNodes(); ++Q)
      if (std::uint64_t Cnt = Applied[Q][Dep])
        D.push_back(DepEntry{Q, Dep, Cnt});
  return D;
}

bool HambandNode::depsSatisfied(const DepMap &D) const {
  for (const DepEntry &E : D)
    if (Applied[E.P][E.U] < E.Count)
      return false;
  return true;
}

rdma::NodeId HambandNode::knownLeader(unsigned Group) const {
  assert(Group < Consensus.size());
  return Consensus[Group]->currentLeader();
}

rdma::NodeId HambandNode::homeLeader(unsigned G) const {
  // The first in-service node from the group's rotation slot. All nodes
  // share the config and the membership, so every replica picks the same.
  unsigned N = Fabric.numNodes();
  for (unsigned K = 0; K < N; ++K) {
    rdma::NodeId Cand = (G + Cfg.LeaderOffset + K) % N;
    if (activeNode(Cand))
      return Cand;
  }
  return (G + Cfg.LeaderOffset) % N;
}

std::size_t HambandNode::pendingFreeTotal() const {
  return totalSize(FreePending);
}

std::size_t HambandNode::pendingConfTotal() const {
  return totalSize(ConfPending);
}

std::size_t HambandNode::leaderQueueTotal() const {
  return totalSize(LeaderQueue);
}

bool HambandNode::idle() const {
  if (BatchedPending != 0 || pendingFreeTotal() != 0 ||
      pendingConfTotal() != 0 || leaderQueueTotal() != 0)
    return false;
  // Out-of-order delta frames are undelivered payload; a partially
  // assembled full image is not (its remaining chunks are still in
  // flight and will arrive through the rings).
  for (const auto &PerSrc : BufferedFrames)
    for (const auto &Q : PerSrc)
      if (!Q.empty())
        return false;
  return AwaitingResponse.empty();
}

std::uint64_t HambandNode::replicatedStateHash(std::uint64_t Seed) {
  std::uint64_t H = Seed;
  // Object state via its canonical rendering (types keep ordered
  // containers, so str() is stable across executions).
  const std::string S = visibleState().str();
  std::uint64_t SH = 1469598103934665603ull; // FNV-1a
  for (char Ch : S) {
    SH ^= static_cast<unsigned char>(Ch);
    SH *= 1099511628211ull;
  }
  mixHash(H, SH);
  for (const auto &Row : Applied)
    for (std::uint64_t V : Row)
      mixHash(H, V);
  for (std::uint64_t V : ConfReceivedContig)
    mixHash(H, V);
  return H;
}

std::uint64_t HambandNode::stateDigest() {
  std::uint64_t H = replicatedStateHash(0x5bd1e9955bd1e995ull ^ Self);
  auto Mix = [&H](std::uint64_t V) { mixHash(H, V); };
  for (std::uint64_t V : ConfAppliedIdx)
    Mix(V);
  for (std::uint64_t V : FreeSeqNext)
    Mix(V);
  Mix(BcastSeqOut);
  for (std::uint64_t V : OwnSummarySeq)
    Mix(V);
  for (const auto &Row : SummarySeqSeen)
    for (std::uint64_t V : Row)
      Mix(V);
  for (const auto &R : FreeReaders)
    Mix(R ? R->head() : 0);
  for (const auto &W : FreeWriters)
    Mix(W ? W->tail() : 0);
  for (const auto &R : ConfReaders)
    Mix(R ? R->head() : 0);
  for (const auto &R : MailReaders)
    Mix(R ? R->head() : 0);
  for (const auto &W : MailWriters)
    Mix(W ? W->tail() : 0);
  for (const auto &Q : FreePending)
    Mix(Q.size());
  for (const auto &M : ConfPending)
    Mix(M.size());
  for (const auto &Q : LeaderQueue)
    Mix(Q.size());
  for (const auto &Q : LeaderSpeculative)
    Mix(Q.size());
  Mix(AwaitingResponse.size());
  for (unsigned G = 0; G < Consensus.size(); ++G)
    Mix(knownLeader(G));
  Mix(OutOfService ? 1 : 0);
  Mix(BatchedPending);
  Mix(FreeBatchBytes);
  Mix(FlushesInFlight);
  for (std::uint64_t V : DeltaShippedSeq)
    Mix(V);
  for (const auto &PerSrc : BufferedFrames)
    for (const auto &Q : PerSrc)
      Mix(Q.size());
  for (const auto &PerSrc : Assemblies)
    for (const ChunkAssembly &A : PerSrc)
      Mix(A.Seq + A.Have);
  return H;
}

// -- Request paths ---------------------------------------------------------

void HambandNode::submit(const Call &C, SubmitCallback Done) {
  if (OutOfService) {
    // The driver redirects around failed nodes; reject stragglers.
    if (Done)
      Done(false, 0);
    return;
  }
  if (EpochClosed && Spec.category(C.Method) != MethodCategory::Query) {
    // The epoch is closed for a membership transition: queries keep
    // flowing, updates bounce with the retry-contract sentinel (the
    // client resubmits after the new epoch opens).
    CtrWrongEpochReject->add();
    if (Done)
      Done(false, WrongEpochValue);
    return;
  }
#if HAMBAND_OBS_ENABLED
  // The submit→completion latency in simulated time; the wrap is compiled
  // out entirely in HAMBAND_OBS=OFF builds.
  Done = [this, T0 = Fabric.now(),
          Inner = std::move(Done)](bool Ok, Value V) {
    HistRespNs->record(Fabric.now() - T0);
    if (Inner)
      Inner(Ok, V);
  };
#endif
  switch (Spec.category(C.Method)) {
  case MethodCategory::Query:
    CtrCallQuery->add();
    handleQuery(C, std::move(Done));
    return;
  case MethodCategory::Reducible:
    CtrCallReduce->add();
    handleReduce(C, std::move(Done));
    return;
  case MethodCategory::IrreducibleFree:
    CtrCallFree->add();
    handleFree(C, std::move(Done));
    return;
  case MethodCategory::Conflicting:
    CtrCallConf->add();
    handleConf(C, std::move(Done));
    return;
  }
}

void HambandNode::handleQuery(const Call &C, SubmitCallback Done) {
  const rdma::NetworkModel &M = Fabric.model();
  unsigned NumSummaries = 0;
  for (const auto &Group : SummaryCache)
    for (const std::optional<Call> &S : Group)
      if (S)
        ++NumSummaries;
  sim::SimDuration Cost = M.QueryCpu + NumSummaries * M.ApplySummaryCpu;
  Fabric.runOnCpu(
      Self, Cost,
      [this, C, Done = std::move(Done)]() {
        Value V = Type.query(visibleState(), C);
        Done(true, V);
      },
      rdma::Transport::LaneClient);
}

void HambandNode::handleReduce(Call C, SubmitCallback Done) {
  const rdma::NetworkModel &M = Fabric.model();
  Fabric.runOnCpu(
      Self, M.ApplyCpu + perCallParseCpu(),
      [this, C = std::move(C), Done = std::move(Done)]() mutable {
        Call P = Type.prepare(visibleState(), C);
        if (!Type.permissible(visibleState(), P)) {
          Done(false, 0);
          return;
        }
        unsigned G = *Spec.sumGroup(P.Method);
        Call NewSummary = P;
        bool Folded = false;
        if (OwnSummary[G]) {
          bool Ok = Type.summarize(*OwnSummary[G], P, NewSummary);
          assert(Ok && "summarization group not closed");
          (void)Ok;
          Folded = true;
        }
        // Shippability gate BEFORE any replicated-state mutation: if the
        // grown image can neither fit the summary slot nor be chunked
        // over the F-rings, folding this call would wedge every future
        // ship of the group (the old code tripped an assert deep in the
        // slot encoder instead). Reject with no side effects.
        if (Fabric.numNodes() > 1 &&
            !fullImageShippable(NewSummary, groupMethods(G).size())) {
          CtrOversizeReject->add();
          Done(false, 0);
          return;
        }
        if (Folded)
          CtrReductions->add();
        OwnSummary[G] = NewSummary;
        ++OwnSummarySeq[G];
        Applied[Self][P.Method] += 1;
        ++NumLocalUpdates;
        SummaryCache[G][Self] = NewSummary;
        // The fold appends exactly the prepared call, and reducible calls
        // are conflict-free (they S-commute with everything a rebuild
        // applies after them), so the visible cache can absorb the call
        // incrementally -- a rebuild is O(summary size), ruinous for
        // big-state workloads.
        if (VisibleCache && !VisibleDirty)
          Type.apply(*VisibleCache, P);
        else
          VisibleDirty = true;
        // The delta since the last shipped image folds alongside the
        // full summary; the next flush ships one image covering both.
        if (Cfg.Delta.Enabled) {
          if (PendingDelta[G]) {
            Call D;
            bool Ok = Type.applyDelta(*PendingDelta[G], P, D);
            assert(Ok && "summarization group not closed");
            (void)Ok;
            PendingDelta[G] = std::move(D);
          } else {
            PendingDelta[G] = P;
          }
        }
        ++SumBatchCalls[G];
        SumBatchDone[G].push_back(std::move(Done));
        noteEnqueued();
      },
      rdma::Transport::LaneClient);
}

void HambandNode::handleFree(Call C, SubmitCallback Done) {
  const rdma::NetworkModel &M = Fabric.model();
  Fabric.runOnCpu(
      Self, 2 * M.ApplyCpu + M.ParseCpu,
      [this, C = std::move(C), Done = std::move(Done)]() mutable {
        Call P = Type.prepare(visibleState(), C);
        if (!Type.permissible(visibleState(), P)) {
          Done(false, 0);
          return;
        }
        applyToStored(P);
        Applied[Self][P.Method] += 1;
        if (Cfg.RecordApplyLog)
          FreeApplyLog[Self].push_back(P.Req);
        ++NumLocalUpdates;

        WireCall WC;
        WC.TheCall = P;
        WC.Deps = projectDeps(P.Method);
        WC.BcastSeq = BcastSeqOut++;
        WC.Epoch = CurrentEpoch;
        std::vector<std::uint8_t> Bytes =
            encodeCall(Spec, Fabric.numNodes(), WC);
        // Pre-flush when this call would overflow the batch record cap
        // (flush also chunks oversized batches defensively, but flushing
        // here keeps each staged image within the cap).
        std::size_t Framed = Bytes.size() + 4; // u32 length prefix
        if (!FreeBatch.empty() &&
            4 + FreeBatchBytes + Framed > freeBatchCapBytes())
          flush(FlushCause::Size);
        FreeBatchBytes += Framed;
        FreeBatch.push_back({std::move(Bytes), std::move(Done)});
        noteEnqueued();
      },
      rdma::Transport::LaneClient);
}

void HambandNode::handleConf(Call C, SubmitCallback Done) {
  unsigned G = *Spec.syncGroup(C.Method);
  const rdma::NetworkModel &M = Fabric.model();
  rdma::NodeId Leader = Consensus[G]->currentLeader();
  if (Leader == Self) {
    Fabric.runOnCpu(
        Self, M.ParseCpu + M.ApplyCpu,
        [this, G, C = std::move(C), Done = std::move(Done)]() mutable {
          // A conflicting call flushes the batch eagerly so the calls
          // issued before it are ordered before it, as when unbatched.
          flushOutgoing();
          leaderProcessConf(G, Self, C.Req, std::move(C), std::move(Done));
        },
        rdma::Transport::LaneClient);
    return;
  }
  // Redirect through the single-writer mailbox ring on the leader.
  PendingConfRequest Req;
  Req.TheCall = C;
  Req.Done = std::move(Done);
  Req.Group = G;
  Req.SentAt = Fabric.now();
  Req.SentTo = Leader;
  AwaitingResponse.emplace(C.Req, std::move(Req));
  Fabric.runOnCpu(
      Self, M.ParseCpu,
      [this, Leader, C = std::move(C)]() {
        // Eager flush: the batched calls' ring/slot writes post before
        // the redirect mail on the same lane, preserving the unbatched
        // arrival order at the leader.
        flushOutgoing();
        sendConfRequest(Leader, C);
      },
      rdma::Transport::LaneClient);
}

void HambandNode::sendConfRequest(rdma::NodeId Leader, const Call &C) {
  MailMsg Msg;
  Msg.Kind = MailKind::ConfRequest;
  Msg.Origin = Self;
  Msg.ReqId = C.Req;
  Msg.Epoch = CurrentEpoch;
  Msg.TheCall = C;
  appendOrdered(*MailWriters[Leader], MailOutbound[Leader], encodeMail(Msg),
                nullptr);
}

void HambandNode::leaderProcessConf(unsigned G, ProcessId Origin,
                                    RequestId ReqId, Call C,
                                    SubmitCallback LocalDone,
                                    sim::SimTime WaitDeadline) {
  if (Consensus[G]->currentLeader() != Self) {
    // We are not the leader (any more): tell the origin to retry.
    respondConf(Origin, ReqId, ConfOutcome::Retry, nullptr);
    if (LocalDone) {
      // A local call: redirect it ourselves.
      Call C2 = std::move(C);
      handleConf(std::move(C2), std::move(LocalDone));
    }
    return;
  }
  if (ConfSeen[G].count(ReqId)) {
    respondConf(Origin, ReqId, ConfOutcome::Committed, std::move(LocalDone));
    return;
  }
  if (!Consensus[G]->isLeader()) {
    // Elected but still catching up: queue and retry from the poller.
    queueAtLeader(G, Origin, std::move(C), std::move(LocalDone), 0);
    return;
  }

  if (!Consensus[G]->canAppend()) {
    // A follower ring is momentarily full: queue and retry shortly.
    queueAtLeader(G, Origin, std::move(C), std::move(LocalDone), 0);
    return;
  }

  // Speculative permissibility: the call must keep the invariant after
  // every already-appended (but not yet applied) call of this group.
  Call Prepared = Type.prepare(visibleState(), C);
  if (!Type.invariantAfter(visibleState(), LeaderSpeculative[G], Prepared)) {
    // Not (yet) permissible. A dependent call may become permissible once
    // its dependencies are delivered (e.g. worksOn waiting for its
    // addProject), so hold it briefly before rejecting -- this wait is
    // what makes dependent methods slower in Figure 11(b).
    sim::SimTime Now = Fabric.now();
    if (WaitDeadline == 0)
      WaitDeadline = Now + Cfg.PermissibilityWait;
    if (Now >= WaitDeadline) {
      // Still impermissible after the grace period: terminal rejection.
      respondConf(Origin, ReqId, ConfOutcome::Rejected,
                  std::move(LocalDone));
      return;
    }
    queueAtLeader(G, Origin, std::move(C), std::move(LocalDone),
                  WaitDeadline);
    return;
  }

  // The leader becomes the issuing process of the ordered call (the
  // request id keeps end-to-end identity for deduplication).
  Prepared.Issuer = Self;
  WireCall WC;
  WC.TheCall = Prepared;
  WC.Deps = projectDeps(Prepared.Method);
  WC.BcastSeq = Consensus[G]->nextIndex();
  WC.Epoch = CurrentEpoch;
  std::vector<std::uint8_t> Bytes =
      encodeCall(this->Spec, Fabric.numNodes(), WC);

  std::uint64_t Idx = Consensus[G]->nextIndex();
  std::uint64_t EpochAtAppend = Consensus[G]->epoch();
  bool Posted = Consensus[G]->leaderAppend(
      Bytes, [this, G, Idx, WC, Origin, ReqId, EpochAtAppend,
              LocalDone](bool Committed) mutable {
        // A commit that lands after this node was deposed must not enter
        // the log copy: the new leader's adoption decided the entry's
        // fate. Answer "retry"; the dedup set at the new leader resolves
        // whether the entry survived.
        if (!Committed || Consensus[G]->epoch() != EpochAtAppend) {
          respondConf(Origin, ReqId, ConfOutcome::Retry,
                      std::move(LocalDone));
          return;
        }
        ConfPending[G].emplace(Idx, WC);
        bumpConfContig(G);
        respondConf(Origin, ReqId, ConfOutcome::Committed,
                    std::move(LocalDone));
      });
  assert(Posted && "canAppend() was checked above");
  (void)Posted;
  ConfSeen[G].insert(ReqId);
  LeaderSpeculative[G].push_back(Prepared);
  // Sequencing an entry occupies the leader beyond the raw verb posts.
  Fabric.runOnCpu(Self, Fabric.model().ConsensusEntryCpu, []() {},
                  rdma::Transport::LaneClient);
}

void HambandNode::queueAtLeader(unsigned G, ProcessId Origin, Call C,
                                SubmitCallback LocalDone,
                                sim::SimTime WaitDeadline) {
  PendingConfRequest Req;
  Req.TheCall = std::move(C);
  Req.Done = std::move(LocalDone);
  Req.Group = G;
  Req.SentAt = Fabric.now();
  Req.SentTo = Origin; // Reused as the origin for queued requests.
  Req.WaitDeadline = WaitDeadline;
  LeaderQueue[G].push_back(std::move(Req));
}

void HambandNode::retryLeaderQueue(unsigned G) {
  if (LeaderQueue[G].empty())
    return;
  if (Consensus[G]->currentLeader() != Self) {
    // Deposed: bounce every queued request back so origins retry against
    // the new leader; local calls are re-routed by handleConf.
    std::deque<PendingConfRequest> Orphans;
    Orphans.swap(LeaderQueue[G]);
    for (PendingConfRequest &Req : Orphans) {
      if (Req.SentTo == Self && Req.Done)
        handleConf(std::move(Req.TheCall), std::move(Req.Done));
      else
        respondConf(Req.SentTo, Req.TheCall.Req, ConfOutcome::Retry,
                    nullptr);
    }
    return;
  }
  // One pass over a snapshot per poll round; entries that still cannot
  // proceed re-queue themselves (with their original wait deadline).
  std::deque<PendingConfRequest> Snapshot;
  Snapshot.swap(LeaderQueue[G]);
  sim::SimTime Now = Fabric.now();
  for (PendingConfRequest &Req : Snapshot) {
    // Permissibility waiters are re-evaluated every few microseconds, not
    // every poll tick.
    if (Req.WaitDeadline != 0 && Now < Req.WaitDeadline &&
        Now - Req.SentAt < sim::micros(5)) {
      LeaderQueue[G].push_back(std::move(Req));
      continue;
    }
    Req.SentAt = Now;
    RequestId Id = Req.TheCall.Req;
    leaderProcessConf(G, Req.SentTo, Id, std::move(Req.TheCall),
                      std::move(Req.Done), Req.WaitDeadline);
  }
}

void HambandNode::respondConf(ProcessId Origin, RequestId ReqId,
                              ConfOutcome Outcome,
                              SubmitCallback LocalDone) {
  if (Origin == Self) {
    // A local Retry is handled by the caller (it re-routes the call); a
    // callback here is terminal.
    if (LocalDone)
      LocalDone(Outcome == ConfOutcome::Committed, 0);
    return;
  }
  MailMsg Msg;
  Msg.Kind = MailKind::ConfResponse;
  Msg.Origin = Self;
  Msg.ReqId = ReqId;
  Msg.Ok = static_cast<std::uint8_t>(Outcome);
  Msg.Epoch = CurrentEpoch;
  appendOrdered(*MailWriters[Origin], MailOutbound[Origin], encodeMail(Msg),
                nullptr);
}

void HambandNode::checkConfTimeouts() {
  if (AwaitingResponse.empty())
    return;
  sim::SimTime Now = Fabric.now();
  std::vector<RequestId> TakeOver;
  for (auto &[ReqId, Req] : AwaitingResponse) {
    if (Now - Req.SentAt < Cfg.ConfRetryTimeout)
      continue;
    rdma::NodeId Leader = Consensus[Req.Group]->currentLeader();
    Req.SentAt = Now;
    Req.SentTo = Leader;
    if (Leader == Self) {
      TakeOver.push_back(ReqId); // We became the leader meanwhile.
      continue;
    }
    sendConfRequest(Leader, Req.TheCall);
  }
  for (RequestId Id : TakeOver) {
    auto It = AwaitingResponse.find(Id);
    if (It == AwaitingResponse.end())
      continue;
    Call C = std::move(It->second.TheCall);
    SubmitCallback Done = std::move(It->second.Done);
    unsigned G = It->second.Group;
    AwaitingResponse.erase(It);
    leaderProcessConf(G, Self, Id, std::move(C), std::move(Done));
  }
}

// -- Poller -----------------------------------------------------------------

void HambandNode::schedulePoll() {
  Fabric.runAfter(Self, Cfg.PollInterval, [this]() {
    Fabric.runOnCpu(
        Self, PollBaseCost, [this]() { pollOnce(); },
        rdma::Transport::LanePoller);
  });
}

void HambandNode::pollOnce() {
  const rdma::NetworkModel &M = Fabric.model();
  unsigned Parsed = 0;
  unsigned AppliedN = 0;
  Parsed += pollFreeRings();
  Parsed += pollSummaries();
  Parsed += pollConfRings();
  Parsed += pollMailboxes();
  AppliedN += applyPendingFree();
  AppliedN += applyPendingConf();
  for (unsigned G = 0; G < Consensus.size(); ++G) {
    Consensus[G]->poll();
    retryLeaderQueue(G);
  }
#if HAMBAND_OBS_ENABLED
  GaugePendingFree->set(static_cast<std::int64_t>(pendingFreeTotal()));
  GaugePendingConf->set(static_cast<std::int64_t>(pendingConfTotal()));
#endif
  sim::SimDuration Extra =
      Parsed * M.ParseCpu + AppliedN * M.ApplyCpu;
  if (Extra > 0)
    Fabric.runOnCpu(Self, Extra, []() {}, rdma::Transport::LanePoller);
  schedulePoll();
}

unsigned HambandNode::pollFreeRings() {
  unsigned Parsed = 0;
  std::vector<std::uint8_t> Bytes;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    // Bounded batch per traversal; a missed call is picked up next round.
    for (unsigned K = 0; K < 64 && FreeReaders[J]->peek(Bytes); ++K) {
      if (isSummaryDelta(Bytes.data(), Bytes.size())) {
        SummaryDeltaFrame F;
        bool Ok = decodeSummaryDelta(Bytes.data(), Bytes.size(), F);
        assert(Ok && "malformed summary-delta frame");
        FreeReaders[J]->consume();
        ++Parsed;
        if (Ok)
          handleSummaryFrame(J, F);
        continue;
      }
      if (isCallBatch(Bytes.data(), Bytes.size())) {
        std::vector<WireCall> Calls;
        if (!decodeCallBatch(Spec, Fabric.numNodes(), Bytes.data(),
                             Bytes.size(), Calls)) {
          assert(false && "malformed F-ring batch record");
          break;
        }
        FreeReaders[J]->consume();
        Parsed += static_cast<unsigned>(Calls.size());
        enqueueDecodedFree(J, std::move(Calls));
        continue;
      }
      WireCall WC;
      if (!decodeCall(Spec, Fabric.numNodes(), Bytes.data(), Bytes.size(),
                      WC)) {
        assert(false && "malformed F-ring cell");
        break;
      }
      FreeReaders[J]->consume();
      ++Parsed;
      std::vector<WireCall> One;
      One.push_back(std::move(WC));
      enqueueDecodedFree(J, std::move(One));
    }
  }
  return Parsed;
}

void HambandNode::enqueueDecodedFree(ProcessId Issuer,
                                     std::vector<WireCall> Calls) {
  for (WireCall &WC : Calls) {
    // A record from another epoch is dropped without advancing the
    // cursor: the epoch fence guarantees its writer can never complete,
    // so the slot it claimed is dead and the post-install resync
    // (absorbTransfer / installMembership) re-aligns the cursors.
    if (WC.Epoch != CurrentEpoch) {
      CtrCrossEpochDrop->add();
      continue;
    }
    // The cursor is the reader-side dedup of reliable broadcast: ring
    // delivery and backup-slot recovery both advance it, so an entry
    // arriving through both paths is delivered exactly once.
    if (WC.BcastSeq < FreeSeqNext[Issuer])
      continue;
    FreeSeqNext[Issuer] = WC.BcastSeq + 1;
    FreePending[Issuer].push_back(std::move(WC));
  }
}

unsigned HambandNode::pollSummaries() {
  unsigned Parsed = 0;
  const rdma::MemoryRegion &Mem = Fabric.memory(Self);
  for (unsigned G = 0; G < SummaryCache.size(); ++G) {
    for (rdma::NodeId Src = 0; Src < Fabric.numNodes(); ++Src) {
      if (Src == Self)
        continue;
      rdma::MemOffset Off = Map.summarySlot(G, Src);
      if (Mem.readU8(Off + Cfg.SummarySlotBytes - 1) != 1)
        continue; // Canary clear: never written or mid-write.
      // The image starts with its sequence number; skip unchanged slots
      // (or stale ones -- delta frames can advance the seen version past
      // the last slot overwrite).
      std::uint64_t Seq = Mem.readU64(Off + 4);
      if (Seq <= SummarySeqSeen[G][Src])
        continue;
      // Snapshot the whole slot before parsing: on the shm transport a
      // concurrent overwrite with a newer image could otherwise tear the
      // bytes between the length read and the payload slice. The snapshot
      // is validated via the seqlock trailer slotBytes() stamps: a torn
      // blend pairs a new header with an old trailer.
      std::vector<std::uint8_t> Slot =
          Mem.sliceStable(Off, Cfg.SummarySlotBytes);
      if (Slot[Cfg.SummarySlotBytes - 1] != 1)
        continue;
      std::uint64_t SnapSeq = 0, Trailer = 0;
      std::memcpy(&SnapSeq, Slot.data() + 4, 8);
      std::memcpy(&Trailer, Slot.data() + Cfg.SummarySlotBytes - 9, 8);
      if (Trailer != SnapSeq)
        continue; // Overwrite in flight; retry next traversal.
      std::uint32_t Len = 0;
      std::memcpy(&Len, Slot.data(), 4);
      if (Len < 8 || Len + 13 > Cfg.SummarySlotBytes)
        continue;
      SummaryImage Img;
      if (!decodeSummary(Slot.data() + 4, Len, Img))
        continue;
      installImage(G, Src, std::move(Img));
      ++Parsed;
    }
  }
  return Parsed;
}

bool HambandNode::installImage(unsigned G, ProcessId Src, SummaryImage Img) {
  if (Img.Seq <= SummarySeqSeen[G][Src])
    return false;
  SummaryCache[G][Src] = std::move(Img.Summary);
  SummarySeqSeen[G][Src] = Img.Seq;
  for (const auto &[U, Cnt] : Img.AppliedCounts)
    if (Cnt > Applied[Src][U])
      Applied[Src][U] = Cnt;
  // A full install replaces the cached image wholesale; the incremental
  // shortcut does not apply (the delta from the old image is unknown).
  VisibleDirty = true;
  // The version may have leapt over buffered delta frames; drain them.
  retryBufferedFrames(G, Src);
  return true;
}

// -- Delta propagation (docs/deltas.md) --------------------------------------

std::size_t HambandNode::summaryImageBytes(std::size_t NumArgs,
                                           std::size_t NumCounts) {
  // encodeSummary: u64 seq | u16 method | u16 argc | u32 issuer | u64 req
  // | i64 args[argc] | u16 k | k x (u16 method, u64 count).
  return 24 + 8 * NumArgs + 2 + 10 * NumCounts;
}

std::vector<MethodId> HambandNode::groupMethods(unsigned G) const {
  std::vector<MethodId> Out;
  for (MethodId U = 0; U < Type.numMethods(); ++U)
    if (Spec.isUpdate(U) && Spec.sumGroup(U) && *Spec.sumGroup(U) == G)
      Out.push_back(U);
  return Out;
}

std::size_t HambandNode::frameChunkMaxArgs() const {
  std::size_t Budget = Cfg.FreeGeom.maxRecordPayload();
  // Frame header plus an argument-free image with a worst-case
  // applied-count block.
  std::size_t Fixed =
      SummaryDeltaHeaderBytes + summaryImageBytes(0, Type.numMethods());
  if (Budget <= Fixed + 8)
    return 1;
  return (Budget - Fixed) / 8;
}

bool HambandNode::fullImageShippable(const Call &Summary,
                                     std::size_t NumCounts) const {
  std::size_t Full = summaryImageBytes(Summary.Args.size(), NumCounts);
  if (Full + 13 <= Cfg.SummarySlotBytes)
    return true; // Classic slot overwrite.
  if (Type.summaryArgsDecomposable(Summary.Method)) {
    std::size_t MaxArgs = frameChunkMaxArgs();
    std::size_t Chunks =
        std::max<std::size_t>(1, (Summary.Args.size() + MaxArgs - 1) /
                                     MaxArgs);
    return Chunks <= 0xFFFF; // ChunkCount is a u16.
  }
  // A non-decomposable image must fit one (possibly spanning) record.
  return Full + SummaryDeltaHeaderBytes <= Cfg.FreeGeom.maxRecordPayload();
}

void HambandNode::appendOrdered(RingWriter &W, OutboundQueue &Q,
                                std::vector<std::uint8_t> Bytes,
                                rdma::CompletionFn Done) {
  Q.Records.push_back({std::move(Bytes), std::move(Done)});
  drainOutbound(W, Q);
}

void HambandNode::drainOutbound(RingWriter &W, OutboundQueue &Q) {
  while (!Q.Records.empty() &&
         W.appendRecord(Q.Records.front().Bytes, Q.Records.front().Done))
    Q.Records.pop_front();
  if (Q.Records.empty() || Q.RetryArmed)
    return;
  // Ring full mid-stream: hold the queue and retry head-first. The retry
  // runs on this node's timer so the writer stays single-threaded.
  Q.RetryArmed = true;
  Fabric.runAfter(Self, Cfg.PollInterval, [this, &W, &Q]() {
    Q.RetryArmed = false;
    drainOutbound(W, Q);
  });
}

std::vector<std::vector<std::uint8_t>>
HambandNode::encodeFullFrames(unsigned G, const SummaryImage &Img) const {
  std::vector<Call> Chunks =
      Type.decomposeSummary(Img.Summary, frameChunkMaxArgs());
  assert(!Chunks.empty() && Chunks.size() <= 0xFFFF &&
         "fullImageShippable() admits at most 65535 chunks");
  std::vector<std::vector<std::uint8_t>> Out;
  Out.reserve(Chunks.size());
  for (std::size_t I = 0; I < Chunks.size(); ++I) {
    SummaryImage Part;
    Part.Seq = Img.Seq;
    Part.Summary = std::move(Chunks[I]);
    Part.AppliedCounts = Img.AppliedCounts;
    SummaryDeltaFrame F;
    F.Group = static_cast<std::uint8_t>(G);
    F.Full = 1;
    F.ChunkIdx = static_cast<std::uint16_t>(I);
    F.ChunkCount = static_cast<std::uint16_t>(Chunks.size());
    F.FromSeq = 0;
    F.ToSeq = Img.Seq;
    F.Epoch = CurrentEpoch;
    F.Image = encodeSummary(Part);
    Out.push_back(encodeSummaryDelta(F));
  }
  return Out;
}

bool HambandNode::handleSummaryFrame(ProcessId Src,
                                     const SummaryDeltaFrame &F) {
  unsigned G = F.Group;
  if (G >= SummaryCache.size() || Src >= Fabric.numNodes() || Src == Self)
    return false;
  if (F.Full) {
    CtrDeltaFullIn->add();
    SummaryImage Img;
    if (!decodeSummary(F.Image.data(), F.Image.size(), Img)) {
      CtrDeltaDropped->add();
      return false;
    }
    if (F.ChunkCount <= 1)
      return installImage(G, Src, std::move(Img));
    if (F.ToSeq <= SummarySeqSeen[G][Src])
      return false; // A chunk of an image we already superseded.
    ChunkAssembly &A = Assemblies[G][Src];
    if (A.Seq != F.ToSeq || A.Parts.size() != F.ChunkCount) {
      // A newer (or differently shaped) image abandons the partial set:
      // the F-ring is FIFO per source, so the rest of the old set is
      // never coming.
      A.Seq = F.ToSeq;
      A.Parts.assign(F.ChunkCount, std::nullopt);
      A.Have = 0;
    }
    if (!A.Parts[F.ChunkIdx]) {
      A.Parts[F.ChunkIdx] = std::move(Img);
      ++A.Have;
    }
    if (A.Have < F.ChunkCount)
      return false;
    // All chunks present. decomposeSummary slices the argument list
    // contiguously, so concatenating the chunk arguments in index order
    // rebuilds the exact image in O(n); re-folding the chunks through
    // summarize would be quadratic for set-valued summaries.
    SummaryImage Whole = std::move(*A.Parts[0]);
    for (std::size_t I = 1; I < A.Parts.size(); ++I) {
      Call &Part = A.Parts[I]->Summary;
      Whole.Summary.Args.insert(Whole.Summary.Args.end(),
                                Part.Args.begin(), Part.Args.end());
    }
    Whole.Seq = A.Seq;
    A.Seq = 0;
    A.Parts.clear();
    A.Have = 0;
    return installImage(G, Src, std::move(Whole));
  }
  // Delta frame.
  if (F.ToSeq <= SummarySeqSeen[G][Src]) {
    CtrDeltaDup->add();
    return false;
  }
  if (tryApplyDeltaFrame(Src, F)) {
    retryBufferedFrames(G, Src);
    return true;
  }
  // Version gap: park the frame until the gap closes or anti-entropy
  // leapfrogs it.
  CtrDeltaGap->add();
  ++GapEvents;
  auto &Buf = BufferedFrames[G][Src];
  if (Buf.size() >= MaxBufferedFrames) {
    CtrDeltaDropped->add();
    return false;
  }
  Buf.push_back(F);
  return false;
}

bool HambandNode::tryApplyDeltaFrame(ProcessId Src,
                                     const SummaryDeltaFrame &F) {
  unsigned G = F.Group;
  std::uint64_t &Seen = SummarySeqSeen[G][Src];
  if (F.ToSeq <= Seen)
    return true; // Duplicate: consumed, nothing to apply.
  if (F.FromSeq != Seen)
    return false; // Gap.
  SummaryImage Img;
  if (!decodeSummary(F.Image.data(), F.Image.size(), Img)) {
    CtrDeltaDropped->add();
    return true; // Malformed: consume rather than wedge the buffer.
  }
  Call Joined = Img.Summary;
  if (SummaryCache[G][Src]) {
    bool Ok = Type.applyDelta(*SummaryCache[G][Src], Img.Summary, Joined);
    assert(Ok && "delta join failed for a closed summarization group");
    (void)Ok;
  }
  SummaryCache[G][Src] = std::move(Joined);
  Seen = F.ToSeq;
  for (const auto &[U, Cnt] : Img.AppliedCounts)
    if (Cnt > Applied[Src][U])
      Applied[Src][U] = Cnt;
  // The join appends exactly the delta's calls, which are conflict-free:
  // absorb them into the visible cache instead of invalidating it.
  if (VisibleCache && !VisibleDirty)
    Type.apply(*VisibleCache, Img.Summary);
  else
    VisibleDirty = true;
  CtrDeltaIn->add();
  return true;
}

void HambandNode::retryBufferedFrames(unsigned G, ProcessId Src) {
  auto &Buf = BufferedFrames[G][Src];
  bool Progress = true;
  while (Progress && !Buf.empty()) {
    Progress = false;
    for (auto It = Buf.begin(); It != Buf.end();) {
      if (It->ToSeq <= SummarySeqSeen[G][Src]) {
        It = Buf.erase(It); // Superseded (a full image leapt over it).
        Progress = true;
      } else if (tryApplyDeltaFrame(Src, *It)) {
        It = Buf.erase(It);
        Progress = true;
      } else {
        ++It;
      }
    }
  }
}

void HambandNode::seedSummary(unsigned Group, ProcessId Src,
                              const Call &Summary, std::uint64_t Seq) {
  assert(Group < SummaryCache.size() && Src < Fabric.numNodes());
  SummaryCache[Group][Src] = Summary;
  SummarySeqSeen[Group][Src] = Seq;
  // The applied-count row travels with shipped images; a seeded image
  // must carry it too or the applied-table equality oracles would see a
  // seeded cluster as diverged.
  if (Seq > Applied[Src][Summary.Method])
    Applied[Src][Summary.Method] = Seq;
  if (Src == Self) {
    OwnSummary[Group] = Summary;
    OwnSummarySeq[Group] = Seq;
    DeltaShippedSeq[Group] = Seq;
  }
  VisibleDirty = true;
}

std::size_t HambandNode::bufferedDeltaFrames(unsigned Group,
                                             ProcessId Src) const {
  return BufferedFrames[Group][Src].size();
}

unsigned HambandNode::pollConfRings() {
  unsigned Parsed = 0;
  std::vector<std::uint8_t> Bytes;
  for (unsigned G = 0; G < ConfReaders.size(); ++G) {
    for (unsigned K = 0; K < 64 && ConfReaders[G]->peek(Bytes); ++K) {
      WireCall WC;
      std::uint64_t Idx = ConfReaders[G]->head();
      if (!decodeCall(Spec, Fabric.numNodes(), Bytes.data(), Bytes.size(),
                      WC)) {
        assert(false && "malformed L-ring cell");
        break;
      }
      ConfReaders[G]->consume();
      ConfSeen[G].insert(WC.TheCall.Req);
      ConfPending[G].emplace(Idx, std::move(WC));
      bumpConfContig(G);
      ++Parsed;
    }
  }
  return Parsed;
}

void HambandNode::bumpConfContig(unsigned Group) {
  while (ConfPending[Group].count(ConfReceivedContig[Group]) ||
         ConfReceivedContig[Group] < ConfAppliedIdx[Group])
    ++ConfReceivedContig[Group];
}

unsigned HambandNode::pollMailboxes() {
  unsigned Parsed = 0;
  std::vector<std::uint8_t> Bytes;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    for (unsigned K = 0; K < 64 && MailReaders[J]->peek(Bytes); ++K) {
      MailMsg Msg;
      bool Ok = decodeMail(Bytes.data(), Bytes.size(), Msg);
      MailReaders[J]->consume();
      ++Parsed;
      if (Ok)
        handleMail(J, Msg);
    }
  }
  return Parsed;
}

void HambandNode::handleMail(ProcessId /*From*/, const MailMsg &Msg) {
  if (Msg.Kind == MailKind::ConfRequest) {
    if (OutOfService)
      return; // Dropped; the origin retries against the next leader.
    if (Msg.Epoch != CurrentEpoch) {
      // Cross-epoch request (mailboxes are unfenced): tell the origin to
      // retry so it re-resolves the leader under its installed epoch.
      CtrCrossEpochDrop->add();
      respondConf(Msg.Origin, Msg.ReqId, ConfOutcome::Retry, nullptr);
      return;
    }
    if (Spec.category(Msg.TheCall.Method) != MethodCategory::Conflicting)
      return;
    unsigned G = *Spec.syncGroup(Msg.TheCall.Method);
    // A conflicting call arriving at the leader flushes its own pending
    // batch so the ordered entry never overtakes this node's earlier
    // unshipped calls.
    flushOutgoing();
    leaderProcessConf(G, Msg.Origin, Msg.ReqId, Msg.TheCall, nullptr);
    return;
  }
  // ConfResponse.
  auto It = AwaitingResponse.find(Msg.ReqId);
  if (It == AwaitingResponse.end())
    return; // Duplicate response (e.g. after a retry); already completed.
  ConfOutcome Outcome = static_cast<ConfOutcome>(Msg.Ok);
  if (Outcome == ConfOutcome::Retry) {
    // The responder could not decide (deposed mid-request): retry against
    // the current leader immediately (the timeout scanner would also
    // catch it).
    It->second.SentAt = 0;
    checkConfTimeouts();
    return;
  }
  // Committed or terminally rejected: complete the client call.
  SubmitCallback Done = std::move(It->second.Done);
  AwaitingResponse.erase(It);
  if (Done)
    Done(Outcome == ConfOutcome::Committed, 0);
}

unsigned HambandNode::applyPendingFree() {
  unsigned AppliedN = 0;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    auto &Q = FreePending[J];
    while (!Q.empty() && depsSatisfied(Q.front().Deps)) {
      if (Q.front().Epoch != CurrentEpoch) {
        // Enqueued before an epoch install that the drain stage should
        // have flushed; counted so the reconfig oracles can assert it
        // never happens (reconfig.cross_epoch_apply stays 0).
        CtrCrossEpochApply->add();
        Q.pop_front();
        continue;
      }
      const Call &C = Q.front().TheCall;
      applyToStored(C);
      Applied[C.Issuer][C.Method] += 1;
      if (Cfg.RecordApplyLog)
        FreeApplyLog[C.Issuer].push_back(C.Req);
      Q.pop_front();
      ++AppliedN;
      ++NumAppliedBuffered;
    }
    // Head entry present but its dependency array is unsatisfied: the
    // buffer is stalled waiting for another process's calls.
    if (!Q.empty())
      CtrDepStallFree->add();
  }
  return AppliedN;
}

unsigned HambandNode::applyPendingConf() {
  unsigned AppliedN = 0;
  for (unsigned G = 0; G < ConfPending.size(); ++G) {
    auto &M = ConfPending[G];
    auto It = M.find(ConfAppliedIdx[G]);
    while (It != M.end() && depsSatisfied(It->second.Deps)) {
      if (It->second.Epoch != CurrentEpoch) {
        CtrCrossEpochApply->add();
        M.erase(It);
        ++ConfAppliedIdx[G];
        It = M.find(ConfAppliedIdx[G]);
        continue;
      }
      const Call &C = It->second.TheCall;
      applyToStored(C);
      Applied[C.Issuer][C.Method] += 1;
      if (Cfg.RecordApplyLog)
        ConfApplyLog[G].push_back({C.Issuer, C.Req});
      if (C.Issuer == Self && !LeaderSpeculative[G].empty() &&
          LeaderSpeculative[G].front() == C)
        LeaderSpeculative[G].pop_front();
      M.erase(It);
      ++ConfAppliedIdx[G];
      ++AppliedN;
      ++NumAppliedBuffered;
      It = M.find(ConfAppliedIdx[G]);
    }
    if (It != M.end())
      CtrDepStallConf->add();
  }
  return AppliedN;
}

// -- Propagation pipeline (docs/batching.md) --------------------------------
//
// Every update broadcast takes one path: the call is folded or encoded
// into the pending flush state (OwnSummary/PendingDelta per group,
// FreeBatch), flush() turns that state into one Shipment, and ship()
// stages it, fans it out and completes it. Unbatched mode is a flush of
// one call; batching only changes when flush() runs.

sim::SimDuration HambandNode::perCallParseCpu() const {
  // Unbatched calls pay their serialization at submit; batched calls defer
  // it to the flush (one ParseCpu per coalesced flush instead of per call).
  return Cfg.Batch.Enabled ? 0 : Fabric.model().ParseCpu;
}

std::size_t HambandNode::freeBatchCapBytes() const {
  // A wire record must fit one spanning ring reservation, and the staged
  // flush image (which also carries summaries) must fit the backup slot.
  return std::min(Cfg.FreeGeom.maxRecordPayload(),
                  static_cast<std::size_t>(Cfg.BackupSlotBytes / 2));
}

void HambandNode::noteEnqueued() {
  if (++BatchedPending == 1)
    OldestPendingAt = Fabric.now();
  if (!Cfg.Batch.Enabled) {
    flush(FlushCause::Single);
    return;
  }
  if (FlushesInFlight == 0) {
    // Doorbell coalescing: ship immediately while the wire is idle;
    // calls arriving during the flight accumulate into the next batch,
    // which ships when the in-flight writes complete.
    flush(FlushCause::Pipe);
    return;
  }
  if (BatchedPending >= Cfg.Batch.MaxCalls) {
    // Size trigger: overflow ships concurrently with the in-flight
    // flush rather than growing without bound.
    flush(FlushCause::Size);
    return;
  }
  armFlushTimer();
}

void HambandNode::armFlushTimer() {
  if (FlushTimerArmed)
    return;
  FlushTimerArmed = true;
  Fabric.runAfter(Self, Cfg.Batch.FlushInterval, [this]() {
    FlushTimerArmed = false;
    if (BatchedPending == 0)
      return;
    // The backstop bounds how long any call waits: completion-driven
    // flushes normally ship sooner, so this only fires when the wire
    // stalls (full rings, injected delays).
    sim::SimDuration Age = Fabric.now() - OldestPendingAt;
    if (Age >= Cfg.Batch.FlushInterval) {
      flush(FlushCause::Timeout);
      return;
    }
    armFlushTimer();
  });
}

void HambandNode::flushOutgoing() {
  if (BatchedPending != 0)
    flush(FlushCause::Conf);
}

void HambandNode::flush(FlushCause Cause) {
  if (BatchedPending == 0)
    return;
  Shipment S;
  S.Coalesced = Cause != FlushCause::Single;
  // node.batch.* describes coalesced flushes that reach the wire.
  if (S.Coalesced && activePeerCount() > 0) {
    obs::Counter *Ctrs[] = {CtrFlushPipe, CtrFlushSize, CtrFlushTimeout,
                            CtrFlushConf};
    Ctrs[static_cast<unsigned>(Cause)]->add();
    HistBatchCalls->record(BatchedPending);
    HistBatchBytes->record(FreeBatchBytes);
  }

  // Take ownership of the pending state; calls arriving while this flush
  // is in flight accumulate into fresh state.
  std::vector<BatchedFree> Free = std::move(FreeBatch);
  FreeBatch.clear();
  FreeBatchBytes = 0;
  BatchedPending = 0;
  std::vector<unsigned> DirtyGroups;
  for (unsigned G = 0; G < SumBatchCalls.size(); ++G) {
    if (SumBatchCalls[G] == 0)
      continue;
    DirtyGroups.push_back(G);
    SumBatchCalls[G] = 0;
    for (SubmitCallback &D : SumBatchDone[G])
      S.Dones.push_back(std::move(D));
    SumBatchDone[G].clear();
  }
  std::vector<std::vector<std::uint8_t>> AllCalls;
  AllCalls.reserve(Free.size());
  for (BatchedFree &B : Free) {
    S.Dones.push_back(std::move(B.Done));
    AllCalls.push_back(std::move(B.Bytes));
  }
  if (activePeerCount() == 0) {
    // Nobody to ship to: the calls are complete once applied locally.
    for (unsigned G : DirtyGroups)
      PendingDelta[G].reset();
    for (SubmitCallback &D : S.Dones)
      D(true, 0);
    return;
  }

  // The staged image carries the free calls whole if they fit the backup
  // slot, then per dirty group the full summary if it still fits,
  // otherwise the group's delta frame; whatever does not fit is left out
  // and counted.
  std::size_t StagedBytes =
      ReliableBroadcast::OverheadBytes + FlushImageBaseBytes;
  auto Reserve = [&](std::size_t EntryBytes) {
    if (StagedBytes + EntryBytes > Cfg.BackupSlotBytes)
      return false;
    StagedBytes += EntryBytes;
    return true;
  };
  if (Cfg.UseBackupSlot && !AllCalls.empty()) {
    std::vector<std::uint8_t> Rec = encodeCallBatch(AllCalls);
    if (Reserve(Rec.size()))
      S.Staged.FreeRecord = std::move(Rec);
    else
      CtrStageSkipped->add();
  }

  // One image per dirty group covering every call folded since the last
  // shipped image (the Seq jump is fine: peers only check for newer).
  // Each group ships through one of three channels: the classic summary
  // slot (fits, deltas off), a delta frame over the F-rings (deltas on),
  // or chunked full-image frames (anti-entropy round, slot overflow, or
  // an oversized delta). Full frames are exempt from the test-only delta
  // drop hook, so anti-entropy always heals.
  std::vector<std::vector<std::uint8_t>> DeltaFrames;
  for (unsigned G : DirtyGroups) {
    // The summary ships with the per-method applied counts so peers
    // advance A(self, u) without a separate write.
    SummaryImage SImg;
    SImg.Seq = OwnSummarySeq[G];
    SImg.Summary = *OwnSummary[G];
    for (MethodId U : groupMethods(G))
      SImg.AppliedCounts.emplace_back(U, Applied[Self][U]);
    std::size_t FullBytes = summaryImageBytes(SImg.Summary.Args.size(),
                                              SImg.AppliedCounts.size());
    bool FitsSlot = FullBytes + 13 <= Cfg.SummarySlotBytes;

    std::vector<std::uint8_t> Delta;
    if (Cfg.Delta.Enabled &&
        !(Cfg.Delta.AntiEntropyEvery > 0 &&
          DeltaFlushesSinceFull[G] + 1 >= effectiveAntiEntropyEvery(G))) {
      assert(PendingDelta[G] && "dirty group without a pending delta");
      SummaryImage DImg;
      DImg.Seq = SImg.Seq;
      DImg.Summary = *PendingDelta[G];
      DImg.AppliedCounts = SImg.AppliedCounts;
      SummaryDeltaFrame F;
      F.Group = static_cast<std::uint8_t>(G);
      F.FromSeq = DeltaShippedSeq[G];
      F.ToSeq = SImg.Seq;
      F.Epoch = CurrentEpoch;
      F.Image = encodeSummary(DImg);
      Delta = encodeSummaryDelta(F);
      // A delta too large for one record (giant call arguments) ships as
      // the full image instead, which chunks.
      if (Delta.size() > Cfg.FreeGeom.maxRecordPayload())
        Delta.clear();
    }
    bool SlotWrite = !Cfg.Delta.Enabled && FitsSlot;
    if (!Delta.empty()) {
      CtrDeltaOut->add();
      ++DeltaFlushesSinceFull[G];
    } else if (!SlotWrite) {
      if (!Cfg.Delta.Enabled)
        CtrSlotOverflow->add();
      for (std::vector<std::uint8_t> &FB : encodeFullFrames(G, SImg))
        S.Records.push_back(std::move(FB));
      CtrDeltaFullOut->add();
      DeltaFlushesSinceFull[G] = 0;
      noteFullImageShip(G);
    }

    bool StageFull =
        Cfg.UseBackupSlot && Reserve(flushImageSummaryBytes(FullBytes));
    std::vector<std::uint8_t> Payload;
    if (SlotWrite || StageFull)
      Payload = encodeSummary(SImg);
    if (SlotWrite)
      S.SlotWrites.emplace_back(G, slotBytes(Payload, Cfg.SummarySlotBytes));
    if (StageFull) {
      S.Staged.Summaries.emplace_back(static_cast<std::uint8_t>(G),
                                      std::move(Payload));
    } else if (Cfg.UseBackupSlot) {
      if (!Delta.empty() && Reserve(flushImageDeltaBytes(Delta.size())))
        S.Staged.Deltas.push_back(Delta);
      else
        CtrStageSkipped->add();
    }
    if (!Delta.empty() && !DropDeltasForTest)
      DeltaFrames.push_back(std::move(Delta));
    DeltaShippedSeq[G] = OwnSummarySeq[G];
    PendingDelta[G].reset();
  }
  // Post order: summary-slot writes, full frames, delta frames, then the
  // free records.
  for (std::vector<std::uint8_t> &DF : DeltaFrames)
    S.Records.push_back(std::move(DF));

  // The free calls, chunked into wire records that each fit a spanning
  // ring reservation. A single-call chunk uses the plain record format.
  const std::size_t Cap = freeBatchCapBytes();
  for (std::size_t I = 0; I < AllCalls.size();) {
    std::size_t J = I;
    std::size_t ChunkBytes = 4; // marker + count
    while (J < AllCalls.size() &&
           (J == I || ChunkBytes + AllCalls[J].size() + 4 <= Cap)) {
      ChunkBytes += AllCalls[J].size() + 4;
      ++J;
    }
    if (J - I == 1)
      S.Records.push_back(std::move(AllCalls[I]));
    else
      S.Records.push_back(
          encodeCallBatch(std::vector<std::vector<std::uint8_t>>(
              std::make_move_iterator(AllCalls.begin() + I),
              std::make_move_iterator(AllCalls.begin() + J))));
    I = J;
  }
  ship(std::move(S));
}

void HambandNode::ship(Shipment S) {
  unsigned N = Fabric.numNodes();
  unsigned Writes = static_cast<unsigned>(
      (S.SlotWrites.size() + S.Records.size()) * activePeerCount());
  if (Writes == 0) {
    // Every record of this flush was a delta the drop hook swallowed:
    // complete locally without staging (recovery must not resurrect
    // dropped deltas -- the point of the hook is a durable gap).
    for (SubmitCallback &D : S.Dones)
      D(true, 0);
    return;
  }

  // flush() sized the image to the backup slot.
  const FlushImage &Img = S.Staged;
  if (!Img.Summaries.empty() || !Img.Deltas.empty() ||
      !Img.FreeRecord.empty())
    Broadcast->stage(encodeFlushImage(Img), CurrentEpoch);

  if (S.Coalesced) {
    ++FlushesInFlight;
    // One serialization charge per flush (vs one per call unbatched).
    Fabric.runOnCpu(Self, Fabric.model().ParseCpu, []() {},
                    rdma::Transport::LaneClient);
  }
  if (!Cfg.RespondAfterCompletion) {
    for (SubmitCallback &D : S.Dones)
      D(true, 0);
    S.Dones.clear();
  }

  auto Remaining = std::make_shared<unsigned>(Writes);
  auto Dones =
      std::make_shared<std::vector<SubmitCallback>>(std::move(S.Dones));
  auto Finish = [this, Remaining, Dones,
                 Coalesced = S.Coalesced](rdma::WcStatus) {
    if (--*Remaining != 0)
      return;
    if (Cfg.UseBackupSlot)
      Broadcast->clear();
    if (Coalesced)
      --FlushesInFlight;
    for (SubmitCallback &D : *Dones)
      D(true, 0);
    // The coalescing continuation: ship whatever accumulated meanwhile.
    if (BatchedPending > 0)
      flush(BatchedPending >= Cfg.Batch.MaxCalls ? FlushCause::Size
                                                 : FlushCause::Pipe);
  };

  // Summaries (slot writes and frames) post before the free records: a
  // free call's dependency array may reference applied counts that travel
  // with a summary image, and the per-lane FIFO fabric delivers writes in
  // post order.
  for (const auto &[G, Slot] : S.SlotWrites)
    for (rdma::NodeId Peer = 0; Peer < N; ++Peer)
      if (Peer != Self && activeNode(Peer))
        Fabric.postWrite(Self, Peer, Map.summarySlot(G, Self), Slot, DataKey,
                         Finish, rdma::Transport::LaneClient);
  for (const std::vector<std::uint8_t> &Rec : S.Records)
    for (rdma::NodeId Peer = 0; Peer < N; ++Peer)
      if (Peer != Self && activeNode(Peer))
        appendOrdered(*FreeWriters[Peer], FreeOutbound[Peer], Rec, Finish);
}

// -- Failure handling --------------------------------------------------------

void HambandNode::onPeerSuspected(rdma::NodeId Peer) {
  for (auto &Cons : Consensus)
    Cons->onPeerSuspected(Peer);
  if (!Cfg.UseBackupSlot)
    return;
  Broadcast->fetch(Peer, [this, Peer](ReliableBroadcast::BackupMessage Msg) {
    if (Msg.TheKind == ReliableBroadcast::Kind::None)
      return;
    if (Msg.Epoch != CurrentEpoch) {
      // A slot staged in another epoch: the fence already killed its
      // writes, and recovery must not resurrect them across the boundary.
      CtrCrossEpochDrop->add();
      return;
    }
    // The suspect's last flush, staged as one image: its summaries, delta
    // frames and free calls recover together or not at all.
    FlushImage Img;
    if (!decodeFlushImage(Msg.Payload.data(), Msg.Payload.size(), Img))
      return;
    auto Recovered = [this]() {
      ++NumRecovered;
      CtrRecovered->add();
    };
    for (auto &[G, SumBytes] : Img.Summaries) {
      SummaryImage SImg;
      if (G < SummaryCache.size() &&
          decodeSummary(SumBytes.data(), SumBytes.size(), SImg) &&
          installImage(G, Peer, std::move(SImg)))
        Recovered();
    }
    // A delta frame goes through the regular gap-checked receive rules (a
    // dup is dropped, a gap is buffered and heals via anti-entropy).
    for (const std::vector<std::uint8_t> &Bytes : Img.Deltas) {
      SummaryDeltaFrame F;
      if (decodeSummaryDelta(Bytes.data(), Bytes.size(), F) &&
          handleSummaryFrame(Peer, F))
        Recovered();
    }
    std::vector<WireCall> Calls;
    if (Img.FreeRecord.empty() ||
        !decodeCallBatch(Spec, Fabric.numNodes(), Img.FreeRecord.data(),
                         Img.FreeRecord.size(), Calls))
      return;
    // Deliver only the contiguous-next suffix: a smaller sequence is a
    // duplicate (agreement is preserved), a larger one means earlier
    // entries are still in our ring and the cursor will catch up through
    // the normal poll path.
    for (WireCall &WC : Calls) {
      if (WC.BcastSeq != FreeSeqNext[Peer])
        continue;
      FreeSeqNext[Peer] = WC.BcastSeq + 1;
      FreePending[Peer].push_back(std::move(WC));
      Recovered();
    }
  });
}

// -- Membership reconfiguration (docs/reconfig.md) ---------------------------

void HambandNode::closeEpoch() {
  EpochClosed = true;
  // Push out whatever the batcher holds so the drain stage only waits on
  // in-flight completions, never on a timer-held batch.
  flushOutgoing();
}

void HambandNode::openEpoch() { EpochClosed = false; }

bool HambandNode::reconfigQuiesced() const {
  if (!idle() || FlushesInFlight != 0)
    return false;
  for (const OutboundQueue &Q : FreeOutbound)
    if (!Q.Records.empty())
      return false;
  for (const auto &Q : LeaderSpeculative)
    if (!Q.empty())
      return false;
  return true;
}

std::uint64_t HambandNode::reconfigDigest() {
  // Like stateDigest() but restricted to replicated state and seeded
  // without the node id: drained members must produce the same value.
  return replicatedStateHash(0x5bd1e9955bd1e995ull);
}

unsigned HambandNode::activePeerCount() const {
  unsigned N = Fabric.numNodes();
  if (Active.empty())
    return N - 1;
  unsigned C = 0;
  for (rdma::NodeId P = 0; P < N; ++P)
    if (P != Self && Active[P] != 0)
      ++C;
  return C;
}

std::uint32_t HambandNode::effectiveAntiEntropyEvery(unsigned G) const {
  std::uint32_t Base = Cfg.Delta.AntiEntropyEvery;
  if (Base == 0 || Cfg.Delta.AdaptiveBackoffRounds == 0)
    return Base;
  return Base * AeFactor[G];
}

void HambandNode::noteFullImageShip(unsigned G) {
  if (Cfg.Delta.AdaptiveBackoffRounds == 0)
    return;
  if (GapEvents == GapEventsAtFull[G]) {
    // No receive gap observed since this group's last full ship: the
    // fabric looks loss-free, anti-entropy can afford a longer period.
    if (++AeCleanStreak[G] >= Cfg.Delta.AdaptiveBackoffRounds &&
        AeFactor[G] < 8) {
      AeFactor[G] *= 2;
      AeCleanStreak[G] = 0;
      CtrAeBackoff->add();
    }
  } else {
    // A gap appeared: snap straight back to the configured period.
    AeCleanStreak[G] = 0;
    AeFactor[G] = 1;
  }
  GapEventsAtFull[G] = GapEvents;
}

TransferImage HambandNode::buildTransferImage(
    const std::vector<std::uint64_t> &ConfNext) const {
  TransferImage Img;
  Img.Epoch = CurrentEpoch;
  Img.Applied = Applied;
  Img.FreeSeqNext = FreeSeqNext;
  // The donor's own cursor entry is unused locally; the joiner needs the
  // donor's *outgoing* position there.
  Img.FreeSeqNext[Self] = BcastSeqOut;
  unsigned N = Fabric.numNodes();
  Img.Summaries.resize(SummaryCache.size());
  for (unsigned G = 0; G < SummaryCache.size(); ++G) {
    Img.Summaries[G].resize(N);
    for (rdma::NodeId Src = 0; Src < N; ++Src) {
      const std::optional<Call> &C = SummaryCache[G][Src];
      if (!C)
        continue;
      SummaryImage SImg;
      SImg.Seq = SummarySeqSeen[G][Src];
      SImg.Summary = *C;
      Img.Summaries[G][Src] = {SImg.Seq, encodeSummary(SImg)};
    }
  }
  Img.ConfNextIndex = ConfNext;
  Img.IrreducibleLog = ReconfigLog;
  return Img;
}

void HambandNode::absorbTransfer(const TransferImage &Img) {
  Applied = Img.Applied;
  FreeSeqNext = Img.FreeSeqNext;
  // Our entry in the transferred cursor table is the next broadcast the
  // cluster expects *from us* -- resume our outgoing numbering there.
  BcastSeqOut = std::max(BcastSeqOut, FreeSeqNext[Self]);
  for (unsigned G = 0; G < SummaryCache.size() && G < Img.Summaries.size();
       ++G) {
    for (rdma::NodeId Src = 0;
         Src < Fabric.numNodes() && Src < Img.Summaries[G].size(); ++Src) {
      const auto &[Seq, Bytes] = Img.Summaries[G][Src];
      if (Bytes.empty())
        continue;
      SummaryImage SImg;
      if (!decodeSummary(Bytes.data(), Bytes.size(), SImg))
        continue;
      SummaryCache[G][Src] = SImg.Summary;
      SummarySeqSeen[G][Src] = Seq;
      if (Src == Self) {
        OwnSummary[G] = SImg.Summary;
        OwnSummarySeq[G] = Seq;
        DeltaShippedSeq[G] = Seq;
      }
    }
  }
  // Replay the donor's irreducible log in its apply order; applied counts
  // came with the table above, so only the stored state (and the logs a
  // future transfer or oracle reads) advance here.
  for (const std::vector<std::uint8_t> &Enc : Img.IrreducibleLog) {
    Call C;
    if (!decodeLoggedCall(Enc.data(), Enc.size(), C))
      continue;
    Type.apply(*Stored, C);
    if (Cfg.Reconfig.Enabled)
      ReconfigLog.push_back(Enc);
    if (Cfg.RecordApplyLog) {
      if (Spec.category(C.Method) == MethodCategory::Conflicting) {
        if (auto G = Spec.syncGroup(C.Method))
          ConfApplyLog[*G].push_back({C.Issuer, C.Req});
      } else {
        FreeApplyLog[C.Issuer].push_back(C.Req);
      }
    }
  }
  ConfReceivedContig = Img.ConfNextIndex;
  ConfAppliedIdx = Img.ConfNextIndex;
  VisibleDirty = true;
  VisibleCache.reset();
}

void HambandNode::installMembership(const Membership &M,
                                    rdma::RegionKey NewKey,
                                    const std::vector<std::uint64_t> &ConfNext) {
  // The coordinator one-sided-writes the membership record before asking
  // for the install; verify it landed (the record, not the argument, is
  // the durable source of truth a restarted node would read).
  {
    const rdma::MemoryRegion &Mem = Fabric.memory(Self);
    std::vector<std::uint8_t> Slot = Mem.sliceStable(
        Map.membershipSlot(), MemoryMap::MembershipSlotBytes);
    Membership Rec;
    bool Ok = decodeMembership(Slot.data(), Slot.size(), Rec);
    assert(Ok && Rec.Epoch == M.Epoch &&
           "membership record missing from the membership slot");
    (void)Ok;
    (void)Rec;
  }
  CurrentEpoch = M.Epoch;
  Active = M.Active;
  DataKey = NewKey;
  for (auto &W : FreeWriters)
    if (W)
      W->setRegionKey(NewKey);
  bool SelfActive = activeNode(Self);
  if (Detector)
    for (rdma::NodeId P = 0; P < Fabric.numNodes(); ++P)
      if (P != Self)
        Detector->setMonitored(P, SelfActive && activeNode(P));
  if (!SelfActive)
    OutOfService = true;
  for (unsigned G = 0; G < Consensus.size(); ++G) {
    Consensus[G]->setActiveMask(Active);
    rdma::NodeId NewLeader = homeLeader(G);
    Consensus[G]->adoptLeadership(NewLeader, ConfNext[G]);
    // adoptLeadership fires the LeaderChanged re-sync only when the
    // leader actually moved; a joiner whose group kept its leader still
    // needs its L-ring reader aligned to the agreed log position.
    ConfReaders[G]->setWriter(NewLeader);
    ConfReaders[G]->setHead(ConfReceivedContig[G]);
    if (NewLeader != Self)
      ConfReaders[G]->forceFeedback();
  }
  CtrEpochInstall->add();
}
