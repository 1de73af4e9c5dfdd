//===- runtime/HambandNode.cpp - Hamband replica node -----------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/HambandNode.h"

#include <algorithm>
#include <cassert>

using namespace hamband;
using namespace hamband::runtime;

namespace {

/// Folds \p V into the running state hash \p H.
void mixHash(std::uint64_t &H, std::uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
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
                         const std::vector<rdma::RegionKey> &ConfKeys,
                         Membership Initial, rdma::RegionKey DataKey,
                         unsigned LeaderOffset)
    : Fabric(Fabric), Self(Self), Type(Type), Spec(Type.coordination()),
      Map(Map), Cfg(Cfg), Members(std::move(Initial)),
      Sums(Fabric, Self, Type, Map, Cfg, Applied, Stats,
           [this](ProcessId Src, const SummaryChannel::Counts &C,
                  const Call *Delta) { summaryChanged(Src, C, Delta); },
           [this](ProcessId Src, std::vector<std::uint8_t> Frame) {
             postFree(Src, std::move(Frame));
           }),
      DataKey(DataKey) {
  unsigned N = Fabric.numNodes();
  unsigned Groups = Spec.numSyncGroups();
  unsigned SumGroups = Spec.numSumGroups();

  CtrCallQuery = &Stats.counter("node.calls.query");
  CtrCallReduce = &Stats.counter("node.calls.reducible");
  CtrCallFree = &Stats.counter("node.calls.free");
  CtrCallConf = &Stats.counter("node.calls.conflicting");
  CtrDepStallFree = &Stats.counter("node.dep_stall.free");
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
  CtrStageSkipped = &Stats.counter("node.delta.stage_skipped");
  CtrWrongEpochReject = &Stats.counter("reconfig.wrong_epoch_reject");
  CtrCrossEpochDrop = &Stats.counter("reconfig.cross_epoch_drop");
  CtrCrossEpochApply = &Stats.counter("reconfig.cross_epoch_apply");
  CtrEpochInstall = &Stats.counter("reconfig.installs");
  CtrViewRebuilds = &Stats.counter("node.view.rebuilds");
  CtrViewDeltaFolds = &Stats.counter("node.view.delta_folds");

  assert(Members.Active.size() == N && "one active flag per provisioned node");
  // A provisioned standby starts with its epoch closed: it rejects client
  // updates until a transition adds it to the membership.
  EpochClosed = !Members.isActive(Self);

  Stored = Type.initialState();
  Applied.assign(N, std::vector<std::uint64_t>(Type.numMethods(), 0));
  FreePending.resize(N);
  FreeApplyNext.assign(N, 0);
  SumBatchDone.resize(SumGroups);
  FreeApplyLog.resize(N);

  FreeReaders.resize(N);
  FreeWriters.resize(N);
  for (rdma::NodeId J = 0; J < N; ++J) {
    if (J == Self)
      continue;
    FreeReaders[J] = std::make_unique<RingReader>(
        Fabric, Self, J, Map.freeRingData(J), Map.freeRingFeedback(Self),
        Map.freeGeom(), rdma::Transport::LanePoller);
    FreeWriters[J] = std::make_unique<RingWriter>(
        Fabric, Self, J, Map.freeRingData(Self), Map.freeRingFeedback(J),
        Map.freeGeom(), DataKey, rdma::Transport::LaneClient);
    FreeReaders[J]->attachStats(Stats);
    FreeWriters[J]->attachStats(Stats);
  }

  Detector = std::make_unique<HeartbeatDetector>(Fabric, Self,
                                                 Map.heartbeat(),
                                                 Cfg.Heartbeat);
  Detector->onSuspect([this](rdma::NodeId Peer) { onPeerSuspected(Peer); });
  // Monitor only in-service peers (and nobody while we are a standby);
  // installMembership re-enables monitoring when the active set changes.
  for (rdma::NodeId P = 0; P < N; ++P)
    if (P != Self)
      Detector->setMonitored(P, Members.isActive(Self) && Members.isActive(P));
  Conf = std::make_unique<ConfChannel>(
      Fabric, Self, Type, Map, this->Cfg, ConfKeys, Members, LeaderOffset,
      Applied, *Detector, Stats,
      ConfChannel::NodeHooks{
          [this]() -> const ObjectState & { return visibleState(); },
          [this]() { return ViewVersion; },
          [this](const Call &C) {
            applyToStored(C);
            Applied[C.Issuer][C.Method] += 1;
          },
          [this]() { flush(FlushCause::Conf); },
          [this](rdma::NodeId To, std::vector<std::uint8_t> Mail) {
            postFree(To, std::move(Mail));
          }});
  Broadcast = std::make_unique<ReliableBroadcast>(
      Fabric, Self, Map.backupSlot(), Cfg.BackupSlotBytes);
  Broadcast->attachStats(Stats);

  const rdma::NetworkModel &M = Fabric.model();
  unsigned Checks = (N - 1)             // F rings
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
}

const ObjectState &HambandNode::visibleState() {
  if (!VisibleDirty && VisibleCache)
    return *VisibleCache;
  VisibleCache = Stored->clone();
  for (const auto &Group : Sums.images())
    for (const std::optional<Call> &C : Group)
      if (C)
        Type.apply(*VisibleCache, *C);
  VisibleDirty = false;
  return *VisibleCache;
}

void HambandNode::summaryChanged(ProcessId Src,
                                 const SummaryChannel::Counts &C,
                                 const Call *Delta) {
  for (const auto &[U, Cnt] : C)
    Applied[Src][U] = std::max(Applied[Src][U], Cnt);
  ++ViewVersion;
  // The poller keeps Apply(S)(σ) materialized and pays for it: a replaced
  // image rebuilds the view at the end of the round, a peer's delta is
  // folded into it unless that rebuild already covers it. Own folds are
  // billed with the call on the client lane.
  if (!Delta)
    ViewRebuildOwed = true;
  else if (Src != Self && !ViewRebuildOwed)
    ++ViewDeltaFoldsOwed;
  // Summarized calls are conflict-free, so an appended delta commutes
  // with everything the cache already holds.
  if (Delta && VisibleCache && !VisibleDirty)
    Type.apply(*VisibleCache, *Delta);
  else
    VisibleDirty = true;
}

void HambandNode::applyToStored(const Call &C) {
  Type.apply(*Stored, C);
  ++ViewVersion;
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

std::uint64_t HambandNode::freeReceivedContig(ProcessId Issuer) const {
  std::uint64_t R = FreeApplyNext[Issuer];
  while (FreePending[Issuer].count(R))
    ++R;
  return R;
}

std::size_t HambandNode::pendingFreeTotal() const {
  std::size_t N = 0;
  for (ProcessId J = 0; J < FreePending.size(); ++J)
    N += freeReceivedContig(J) - FreeApplyNext[J];
  return N;
}

bool HambandNode::idle() const {
  return BatchedPending == 0 && pendingFreeTotal() == 0 && Conf->idle() &&
         !Sums.hasBufferedFrames();
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
  for (unsigned G = 0; G < Spec.numSyncGroups(); ++G)
    mixHash(H, Conf->receivedContig(G));
  return H;
}

std::uint64_t HambandNode::stateDigest() {
  std::uint64_t H = replicatedStateHash(0x5bd1e9955bd1e995ull ^ Self);
  auto Mix = [&H](std::uint64_t V) { mixHash(H, V); };
  for (ProcessId J = 0; J < FreePending.size(); ++J)
    Mix(freeReceivedContig(J));
  Mix(BcastSeqOut);
  Sums.digest(Mix);
  for (const auto &R : FreeReaders)
    Mix(R ? R->head() : 0);
  for (const auto &W : FreeWriters)
    Mix(W ? W->tail() : 0);
  for (const auto &Held : FreePending)
    Mix(Held.size());
  Conf->digest(Mix);
  Mix(OutOfService ? 1 : 0);
  Mix(BatchedPending);
  Mix(FreeBatchBytes);
  Mix(FlushesInFlight);
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
  // The submit→completion latency in simulated time.
  Done = [this, T0 = Fabric.now(),
          Inner = std::move(Done)](bool Ok, Value V) {
    HistRespNs->record(Fabric.now() - T0);
    if (Inner)
      Inner(Ok, V);
  };
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
    Conf->submit(C, std::move(Done));
    return;
  }
}

void HambandNode::handleQuery(const Call &C, SubmitCallback Done) {
  // The poller keeps Apply(S)(σ) materialized, so a query only reads it.
  Fabric.runOnCpu(
      Self, Fabric.model().QueryCpu,
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
        // The fold refuses, without side effects, a call whose grown
        // image could never ship.
        if (!Type.permissible(visibleState(), P) || !Sums.fold(P)) {
          Done(false, 0);
          return;
        }
        ++NumLocalUpdates;
        SumBatchDone[*Spec.sumGroup(P.Method)].push_back(std::move(Done));
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
        WC.Deps = projectDeps(Spec, Applied, P.Method);
        WC.BcastSeq = BcastSeqOut++;
        WC.Epoch = Members.Epoch;
        std::vector<std::uint8_t> Bytes =
            encodeCall(Spec, Fabric.numNodes(), WC);
        // Pre-flush when this call would overflow the batch record cap, so
        // every flush ships its free calls as one wire record.
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
  Parsed += Sums.pollSlots();
  Parsed += Conf->pollLog();
  Conf->judgeInbox(!OutOfService);
  AppliedN += applyPendingFree();
  AppliedN += Conf->applyPending();
  unsigned Rechecks = Conf->poll();
  GaugePendingFree->set(static_cast<std::int64_t>(pendingFreeTotal()));
  GaugePendingConf->set(static_cast<std::int64_t>(Conf->pendingTotal()));
  // The view folds owed since the last round, recoveries and transfers
  // included: one per peer delta, plus one per held image for a rebuild.
  unsigned Folds = ViewDeltaFoldsOwed;
  CtrViewDeltaFolds->add(ViewDeltaFoldsOwed);
  if (ViewRebuildOwed) {
    CtrViewRebuilds->add();
    for (const auto &Group : Sums.images())
      for (const std::optional<Call> &S : Group)
        Folds += S.has_value();
  }
  ViewRebuildOwed = false;
  ViewDeltaFoldsOwed = 0;
  sim::SimDuration Extra = Parsed * M.ParseCpu +
                           (AppliedN + Rechecks) * M.ApplyCpu +
                           Folds * M.ApplySummaryCpu;
  if (Extra > 0)
    Fabric.runOnCpu(Self, Extra, []() {}, rdma::Transport::LanePoller);
  // A peer asked for a full image this round: ship it now, unless the
  // flush of a pending call will carry it.
  if (BatchedPending == 0 && Sums.fullImageOwed())
    flush(FlushCause::Repair);
  schedulePoll();
}

void HambandNode::postFree(rdma::NodeId To, std::vector<std::uint8_t> Bytes) {
  FreeWriters[To]->appendOrdered(std::move(Bytes), nullptr, Cfg.PollInterval);
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
        FreeReaders[J]->consume();
        ++Parsed;
        Sums.receive(J, Bytes.data(), Bytes.size());
        continue;
      }
      if (isMail(Bytes.data(), Bytes.size())) {
        FreeReaders[J]->consume();
        ++Parsed;
        Conf->receiveMail(J, Bytes.data(), Bytes.size());
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
        for (WireCall &WC : Calls)
          deliverFree(J, std::move(WC));
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
      deliverFree(J, std::move(WC));
    }
  }
  return Parsed;
}

bool HambandNode::deliverFree(ProcessId Issuer, WireCall WC) {
  // A call from another epoch is dropped: the epoch fence guarantees its
  // writer can never complete, so the sequence it claimed is dead.
  if (WC.Epoch != Members.Epoch) {
    CtrCrossEpochDrop->add();
    return false;
  }
  // Reader-side dedup of reliable broadcast: a call arriving through both
  // the ring and backup-slot recovery is delivered exactly once, and one
  // recovered ahead of the ring waits for its predecessors.
  std::uint64_t Seq = WC.BcastSeq;
  return Seq >= FreeApplyNext[Issuer] &&
         FreePending[Issuer].emplace(Seq, std::move(WC)).second;
}

unsigned HambandNode::applyPendingFree() {
  unsigned AppliedN = 0;
  for (rdma::NodeId J = 0; J < Fabric.numNodes(); ++J) {
    if (J == Self)
      continue;
    auto &M = FreePending[J];
    for (auto It = M.find(FreeApplyNext[J]);
         It != M.end() && depsSatisfied(Applied, It->second.Deps);
         It = M.find(FreeApplyNext[J])) {
      const Call &C = It->second.TheCall;
      if (It->second.Epoch != Members.Epoch) {
        // Held before an epoch install that the drain stage should have
        // flushed; counted so the reconfig oracles can assert it never
        // happens (reconfig.cross_epoch_apply stays 0).
        CtrCrossEpochApply->add();
      } else {
        applyToStored(C);
        Applied[C.Issuer][C.Method] += 1;
        if (Cfg.RecordApplyLog)
          FreeApplyLog[C.Issuer].push_back(C.Req);
        ++AppliedN;
      }
      M.erase(It);
      ++FreeApplyNext[J];
    }
    // Next call present but its dependency array is unsatisfied: the
    // buffer is stalled waiting for another process's calls.
    if (M.count(FreeApplyNext[J]))
      CtrDepStallFree->add();
  }
  return AppliedN;
}

// -- Propagation pipeline (docs/batching.md) --------------------------------
//
// Every update broadcast takes one path: the call is folded into its
// group's summary (the SummaryChannel) or encoded into FreeBatch, flush()
// turns the pending state into one Shipment, and ship()
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

void HambandNode::flush(FlushCause Cause) {
  if (BatchedPending == 0 && Cause != FlushCause::Repair)
    return;
  Shipment S;
  S.Coalesced = Cause != FlushCause::Single && Cause != FlushCause::Repair;
  // node.batch.* describes coalesced flushes that reach the wire.
  if (S.Coalesced && Members.peerCount(Self) > 0) {
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
  for (std::vector<SubmitCallback> &Dones : SumBatchDone) {
    for (SubmitCallback &D : Dones)
      S.Dones.push_back(std::move(D));
    Dones.clear();
  }
  std::vector<std::vector<std::uint8_t>> AllCalls;
  AllCalls.reserve(Free.size());
  for (BatchedFree &B : Free) {
    S.Dones.push_back(std::move(B.Done));
    AllCalls.push_back(std::move(B.Bytes));
  }
  if (Members.peerCount(Self) == 0) {
    // Nobody to ship to: the calls are complete once applied locally.
    Sums.markShipped();
    for (SubmitCallback &D : S.Dones)
      D(true, 0);
    return;
  }

  // The staged image carries the free calls whole if they fit the backup
  // slot, then each dirty group's entry if it still fits; whatever does
  // not fit is left out and counted.
  std::size_t Used = ReliableBroadcast::OverheadBytes + FlushImageBaseBytes;
  std::size_t Room = Cfg.BackupSlotBytes > Used ? Cfg.BackupSlotBytes - Used
                                                : 0;
  // The free calls ship as one wire record (handleFree flushes before the
  // batch outgrows its cap); recovery decodes a batch, even of one call.
  std::vector<std::uint8_t> FreeRecord;
  if (!AllCalls.empty()) {
    std::vector<std::uint8_t> Batch = encodeCallBatch(AllCalls);
    FreeRecord = AllCalls.size() == 1 ? std::move(AllCalls[0]) : Batch;
    if (Batch.size() <= Room) {
      Room -= Batch.size();
      S.Staged.FreeRecord = std::move(Batch);
    } else {
      CtrStageSkipped->add();
    }
  }

  // Post order: summary-slot writes, full frames, delta frames, then the
  // free record.
  Sums.ship(Members.Epoch, S, S.Staged, Room);
  if (!FreeRecord.empty())
    S.Records.push_back(std::move(FreeRecord));
  ship(std::move(S));
}

void HambandNode::ship(Shipment S) {
  unsigned N = Fabric.numNodes();
  unsigned Writes = static_cast<unsigned>(
      (S.SlotWrites.size() + S.Records.size()) * Members.peerCount(Self));
  assert(Writes > 0 && "flush() ships only to active peers");

  // flush() sized the image to the backup slot. A flush that staged
  // nothing leaves the slot to whichever flush staged it.
  const FlushImage &Img = S.Staged;
  std::uint64_t Stage = 0;
  if (!Img.Summaries.empty() || !Img.Deltas.empty() ||
      !Img.FreeRecord.empty()) {
    Broadcast->stage(encodeFlushImage(Img), Members.Epoch);
    Stage = ++LastStage;
  }

  if (S.Coalesced) {
    ++FlushesInFlight;
    // One serialization charge per flush (vs one per call unbatched).
    Fabric.runOnCpu(Self, Fabric.model().ParseCpu, []() {},
                    rdma::Transport::LaneClient);
  }

  auto Remaining = std::make_shared<unsigned>(Writes);
  auto Dones =
      std::make_shared<std::vector<SubmitCallback>>(std::move(S.Dones));
  auto Finish = [this, Remaining, Dones, Stage,
                 Coalesced = S.Coalesced](rdma::WcStatus) {
    if (--*Remaining != 0)
      return;
    // Clear only this flush's own image: a later flush may have staged
    // over it and still be posting.
    if (Stage != 0 && Stage == LastStage)
      Broadcast->clear();
    if (Coalesced)
      --FlushesInFlight;
    for (SubmitCallback &D : *Dones)
      D(true, 0);
    // The coalescing continuation: ship whatever accumulated meanwhile.
    if (Coalesced && BatchedPending > 0)
      flush(BatchedPending >= Cfg.Batch.MaxCalls ? FlushCause::Size
                                                 : FlushCause::Pipe);
  };

  // Summaries (slot writes and frames) post before the free records: a
  // free call's dependency array may reference applied counts that travel
  // with a summary image, and the per-lane FIFO fabric delivers writes in
  // post order.
  for (const auto &[G, Slot] : S.SlotWrites)
    for (rdma::NodeId Peer = 0; Peer < N; ++Peer)
      if (Peer != Self && Members.isActive(Peer))
        Fabric.postWrite(Self, Peer, Map.summarySlot(G, Self), Slot, DataKey,
                         Finish, rdma::Transport::LaneClient);
  for (const std::vector<std::uint8_t> &Rec : S.Records)
    for (rdma::NodeId Peer = 0; Peer < N; ++Peer)
      if (Peer != Self && Members.isActive(Peer))
        FreeWriters[Peer]->appendOrdered(Rec, Finish, Cfg.PollInterval);
}

// -- Failure handling --------------------------------------------------------

void HambandNode::onPeerSuspected(rdma::NodeId Peer) {
  Conf->onPeerSuspected(Peer);
  Broadcast->fetch(Peer, [this, Peer](ReliableBroadcast::BackupMessage Msg) {
    if (Msg.TheKind == ReliableBroadcast::Kind::None)
      return;
    if (Msg.Epoch != Members.Epoch) {
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
    CtrRecovered->add(Sums.recover(Peer, Img));
    std::vector<WireCall> Calls;
    if (Img.FreeRecord.empty() ||
        !decodeCallBatch(Spec, Fabric.numNodes(), Img.FreeRecord.data(),
                         Img.FreeRecord.size(), Calls))
      return;
    // The ring's delivery rule: a call ahead of the ring is held until
    // its predecessors land.
    for (WireCall &WC : Calls)
      if (deliverFree(Peer, std::move(WC)))
        CtrRecovered->add();
  });
}

// -- Membership reconfiguration (docs/reconfig.md) ---------------------------

void HambandNode::closeEpoch() {
  EpochClosed = true;
  // Push out whatever the batcher holds so the drain stage only waits on
  // in-flight completions, never on a timer-held batch.
  flush(FlushCause::Conf);
}

void HambandNode::openEpoch() { EpochClosed = false; }

bool HambandNode::reconfigQuiesced() const {
  if (!idle() || FlushesInFlight != 0 || Conf->speculating())
    return false;
  for (const auto &W : FreeWriters)
    if (W && W->queued() != 0)
      return false;
  return true;
}

std::uint64_t HambandNode::reconfigDigest() {
  // Like stateDigest() but restricted to replicated state and seeded
  // without the node id: drained members must produce the same value.
  return replicatedStateHash(0x5bd1e9955bd1e995ull);
}

TransferImage HambandNode::buildTransferImage(
    const std::vector<std::uint64_t> &ConfNext) const {
  TransferImage Img;
  Img.Epoch = Members.Epoch;
  Img.Applied = Applied;
  // The contiguously received position of every issuer; the joiner needs
  // the donor's *outgoing* position in the donor's own entry.
  for (ProcessId J = 0; J < FreePending.size(); ++J)
    Img.FreeSeqNext.push_back(J == Self ? BcastSeqOut
                                        : freeReceivedContig(J));
  Sums.exportTo(Img);
  Img.ConfNextIndex = ConfNext;
  Img.IrreducibleLog = ReconfigLog;
  return Img;
}

void HambandNode::absorbTransfer(const TransferImage &Img) {
  Applied = Img.Applied;
  FreeApplyNext = Img.FreeSeqNext;
  for (auto &M : FreePending)
    M.clear();
  // Our entry in the transferred cursor table is the next broadcast the
  // cluster expects *from us* -- resume our outgoing numbering there.
  BcastSeqOut = std::max(BcastSeqOut, FreeApplyNext[Self]);
  Sums.importFrom(Img);
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
    if (Spec.category(C.Method) == MethodCategory::Conflicting)
      Conf->logApplied(C);
    else if (Cfg.RecordApplyLog)
      FreeApplyLog[C.Issuer].push_back(C.Req);
  }
  Conf->importLog(Img.ConfNextIndex);
  ++ViewVersion;
  ViewRebuildOwed = true;
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
  Members = M;
  // Held calls behind a sequence gap wait for a predecessor that can no
  // longer arrive (its source crashed before posting it, or the fence
  // killed the write), so they are dropped; the contiguous ones stay and
  // reach the cross-epoch apply oracle.
  for (ProcessId J = 0; J < FreePending.size(); ++J) {
    auto &Held = FreePending[J];
    auto Dead = Held.lower_bound(freeReceivedContig(J));
    CtrCrossEpochDrop->add(
        static_cast<std::uint64_t>(std::distance(Dead, Held.end())));
    Held.erase(Dead, Held.end());
  }
  DataKey = NewKey;
  for (auto &W : FreeWriters)
    if (W)
      W->setRegionKey(NewKey);
  bool SelfActive = Members.isActive(Self);
  if (Detector)
    for (rdma::NodeId P = 0; P < Fabric.numNodes(); ++P)
      if (P != Self)
        Detector->setMonitored(P, SelfActive && Members.isActive(P));
  if (!SelfActive)
    OutOfService = true;
  Conf->installMembership(ConfNext);
  CtrEpochInstall->add();
}
