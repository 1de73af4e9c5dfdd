//===- hamband/runtime/HambandNode.h - Hamband replica node -----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One Hamband replica: the runtime of Section 4 implementing the concrete
/// RDMA WRDT semantics (Figure 7) over the simulated fabric.
///
/// Request processing ("Processing requests", Section 4):
///  1. queries read Apply(S)(σ), which the poller keeps materialized;
///  2. reducible calls fold into the local summary (SummaryChannel) and
///     are remotely overwritten into every peer's summary slot, or shipped
///     as delta / full-image frames over the F rings;
///  3. irreducible conflict-free calls apply locally and are appended to
///     the remote F rings;
///  4. conflicting calls go to the ConfChannel: ordered by the group's Mu
///     leader (here, or mailed to it over the F ring), answered through
///     one request table.
///
/// Each flush takes the summary channel's writes for its dirty groups,
/// adds the free-call record and stages one FlushImage in the backup slot
/// (reliable broadcast). The node owns the CPU lanes, A, the stored state
/// and the visible-state cache; the channels reach them through hooks.
///
/// Two logical poller threads (one CPU lane here) traverse the buffers and
/// apply free calls whose dependency arrays are satisfied by A, handing
/// summary frames and mail read from the F rings to their channels; the
/// channels poll their own slots and L rings. The poller also
/// pays for the view: each peer delta it folds in, and a rebuild after a
/// round that replaced a whole image.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_HAMBANDNODE_H
#define HAMBAND_RUNTIME_HAMBANDNODE_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Metrics.h"
#include "hamband/runtime/ConfChannel.h"
#include "hamband/runtime/HeartbeatDetector.h"
#include "hamband/runtime/MemoryMap.h"
#include "hamband/runtime/Reconfig.h"
#include "hamband/runtime/ReliableBroadcast.h"
#include "hamband/runtime/RingBuffer.h"
#include "hamband/runtime/Runtime.h"
#include "hamband/runtime/SummaryChannel.h"
#include "hamband/runtime/WireFormat.h"

#include <map>
#include <memory>

namespace hamband {
namespace runtime {

/// Reduction-aware batching of the broadcast hot path (docs/batching.md).
///
/// Every update call is enqueued into the pending flush state and shipped
/// by a flush; batching only decides when the flush runs. Disabled, each
/// call flushes alone. Enabled, reducible calls keep folding into the
/// local summary per call but the summary-slot writes ship once per
/// flush, and irreducible conflict-free calls accumulate into one spanning
/// F-ring batch record per flush (a single doorbell; its byte cap follows
/// from the free ring and backup-slot geometry). Conflicting calls never
/// batch; their arrival flushes eagerly to preserve PropConfSync/PropDep
/// ordering.
struct BatchingConfig {
  /// Master switch; disabled flushes every call on its own.
  bool Enabled = false;
  /// Size trigger: flush as soon as this many calls are pending across
  /// the free batch and all dirty summary groups.
  std::uint32_t MaxCalls = 16;
  /// Timeout trigger: pending calls never wait longer than this. It is a
  /// backstop -- the common flush is completion-driven doorbell
  /// coalescing (the next batch ships when the previous flush's writes
  /// complete).
  sim::SimDuration FlushInterval = sim::micros(2);
};

/// Tunables of the Hamband runtime.
struct HambandConfig {
  RingGeometry FreeGeom{4096, 256};
  RingGeometry ConfGeom{4096, 256};
  std::uint32_t SummarySlotBytes = 512;
  /// Sized so a batched flush image (summaries + free batch record) can
  /// be staged whole.
  std::uint32_t BackupSlotBytes = 4096;
  /// Period of the buffer-traversal loop.
  sim::SimDuration PollInterval = sim::micros(0.5);
  /// How long the leader holds a conflicting call that is not yet
  /// permissible (e.g. a worksOn whose addProject has not been delivered)
  /// before rejecting it. This is what makes dependent methods slower in
  /// Figure 11(b). The parked call is judged again, at one ApplyCpu on the
  /// poller, at the first poll round after its view changes: Apply(S)(σ)
  /// or its group's log position.
  sim::SimDuration PermissibilityWait = sim::micros(150);
  HeartbeatDetector::Config Heartbeat;
  /// Reduction-aware batching of the broadcast hot path.
  BatchingConfig Batch;
  /// Delta-state propagation of reducible summaries (docs/deltas.md).
  DeltaConfig Delta;
  /// Online membership reconfiguration (docs/reconfig.md).
  ReconfigConfig Reconfig;
  /// Keep per-issuer/per-group apply-order logs (confApplyLog(),
  /// freeApplyLog()) for the explorer's agreement and recovery-atomicity
  /// oracles. Off by default: the logs grow with the run and would tax
  /// the bench hot path.
  bool RecordApplyLog = false;

  /// Returns this config with every interval stretched to suit \p Kind.
  /// The defaults above are calibrated against the simulator's virtual
  /// NetworkModel nanoseconds; on the wall-clock shm transport (OS
  /// threads, possibly oversubscribed cores, sanitizer slowdowns) the
  /// same numbers would make pollers spin and detectors suspect healthy
  /// nodes. Applied by HambandCluster's transport-kind constructor.
  HambandConfig tunedFor(rdma::TransportKind Kind) const;
};

/// One replica node of a Hamband cluster.
class HambandNode {
public:
  /// Places the replica: \p Initial is the initial membership (one flag
  /// per provisioned node) and \p DataKey the data-plane region key of
  /// its epoch; sync group g starts led by the first active node from
  /// (g + \p LeaderOffset) % N.
  HambandNode(rdma::Transport &Fabric, rdma::NodeId Self,
              const ObjectType &Type, const MemoryMap &Map,
              const HambandConfig &Cfg,
              const std::vector<rdma::RegionKey> &ConfKeys,
              Membership Initial, rdma::RegionKey DataKey,
              unsigned LeaderOffset);
  ~HambandNode();

  HambandNode(const HambandNode &) = delete;
  HambandNode &operator=(const HambandNode &) = delete;

  /// Starts the pollers, heartbeat and detector.
  void start();

  /// Handles a client call arriving at this node.
  void submit(const Call &C, SubmitCallback Done);

  /// Failure injection: stop the heartbeat thread (peers will suspect us).
  void suspendHeartbeat() { Detector->suspendBeating(); }

  /// Undoes suspendHeartbeat(): the beat timer resumes on its next tick.
  /// Peers that already suspected us keep the suspicion (the detector's
  /// latch is one-shot), but the node itself works normally again.
  void resumeHeartbeat() { Detector->resumeBeating(); }

  /// Failure injection, second half: the node stops serving new client
  /// calls and holds forwarded requests until it returns, modeling the
  /// paper's injected node being taken out of service ("all the requests
  /// of the failed node are redirected"). Its pollers keep applying
  /// one-sided traffic and in-flight work completes, matching a process
  /// whose service threads stalled while its memory stays registered.
  void setOutOfService() { OutOfService = true; }

  /// Undoes setOutOfService(): the node accepts client calls again.
  void returnToService() { OutOfService = false; }
  bool isOutOfService() const { return OutOfService; }

  // -- Introspection (metrics, tests) -------------------------------------

  rdma::NodeId id() const { return Self; }

  /// The state a query at this node observes: Apply(S)(σ).
  const ObjectState &visibleState();

  /// A(from, u).
  std::uint64_t applied(ProcessId From, MethodId U) const {
    return Applied[From][U];
  }

  /// The full applied table (row per process).
  const std::vector<std::vector<std::uint64_t>> &appliedTable() const {
    return Applied;
  }

  /// True when no buffered or pending work remains at this node.
  bool idle() const;

  /// The conflicting-call path (leaders, consensus, log positions).
  ConfChannel &conf() { return *Conf; }
  HeartbeatDetector &detector() { return *Detector; }
  ReliableBroadcast &broadcast() { return *Broadcast; }

  /// Counts of processed calls (diagnostics / tests).
  std::uint64_t localUpdates() const { return NumLocalUpdates; }
  std::uint64_t recoveredBroadcasts() const { return CtrRecovered->value(); }

  /// This node's metrics registry (all its rings, broadcast and consensus
  /// instances feed into it) and a frozen copy of it.
  obs::StatsSnapshot statsSnapshot() const { return Stats.snapshot(); }

  /// Received free calls that can apply once their dependencies do
  /// (tests, stall debugging). Held calls behind a sequence gap do not
  /// count: after a crash their missing predecessor may never arrive.
  std::size_t pendingFreeTotal() const;

  /// Apply-order logs (only populated under Cfg.RecordApplyLog): the
  /// (issuer, request) sequence this node applied per consensus group, and
  /// the request sequence applied per issuing process on the broadcast
  /// path (local applies included). The explorer's agreement oracles
  /// compare these across nodes.
  const ConfChannel::ApplyLog &confApplyLog() const {
    return Conf->applyLog();
  }
  const std::vector<std::vector<RequestId>> &freeApplyLog() const {
    return FreeApplyLog;
  }

  /// Ring-cursor introspection for the explorer's ring-integrity oracle:
  /// cells appended into the free ring this node exposes to \p Peer, and
  /// cells consumed from \p Issuer's free ring (pad skips included). At
  /// quiescence a live writer/reader pair must agree.
  std::uint64_t freeWriterTail(rdma::NodeId Peer) const {
    return Peer < FreeWriters.size() && FreeWriters[Peer]
               ? FreeWriters[Peer]->tail()
               : 0;
  }
  std::uint64_t freeReaderHead(rdma::NodeId Issuer) const {
    return Issuer < FreeReaders.size() && FreeReaders[Issuer]
               ? FreeReaders[Issuer]->head()
               : 0;
  }

  /// Canonical hash of this node's cluster-visible state: object state,
  /// applied table, broadcast/consensus cursors, ring heads/tails and
  /// pending-queue shapes. Two nodes of two executions with equal digests
  /// behave identically from here on (given equal pending events).
  std::uint64_t stateDigest();

  // -- Batching (docs/batching.md) ----------------------------------------

  /// Number of locally issued calls accumulated and not yet flushed.
  std::uint32_t batchPending() const { return BatchedPending; }

  /// The reducible-call path: summary versions, seeding and test hooks
  /// (docs/deltas.md).
  SummaryChannel &summaries() { return Sums; }

  // -- Membership reconfiguration (docs/reconfig.md) ----------------------

  /// Closes the current epoch: new update submissions are rejected with
  /// Done(false, WrongEpochValue) until openEpoch(); queries keep being
  /// served. In-flight work is unaffected (the coordinator drains it).
  void closeEpoch();

  /// Reopens submissions in the (possibly new) current epoch.
  void openEpoch();

  /// True when this node holds no unshipped, unapplied or unacknowledged
  /// work: the drain predicate of a membership transition (idle() plus
  /// no in-flight flushes, no queued outbound F-ring records and no
  /// speculative leader entries).
  bool reconfigQuiesced() const;

  /// Cross-node-comparable digest of the replicated state (visible state
  /// plus applied table; unlike stateDigest() it does NOT mix in the node
  /// id or local-only cursors). Drained members of a group must agree.
  std::uint64_t reconfigDigest();

  /// Donor side of the state transfer: packages everything a joiner needs
  /// (applied table, broadcast cursors, summary images, per-group log
  /// positions \p ConfNext, and the retained irreducible-call log).
  TransferImage buildTransferImage(
      const std::vector<std::uint64_t> &ConfNext) const;

  /// Joiner side: installs a drained donor image wholesale -- applied
  /// table and cursors verbatim, summary caches from the encoded images,
  /// and the irreducible log replayed into the stored state in donor
  /// apply order.
  void absorbTransfer(const TransferImage &Img);

  /// Installs membership \p M on this node: replaces the installed view
  /// (epoch and active set), re-tags the F-ring writers and summary writes
  /// with \p NewKey, restricts the failure detector to active peers, and
  /// hands each sync group to its deterministic post-transition leader at
  /// log index \p ConfNext[group]. The caller must have one-sided-written the
  /// encoded membership record into this node's membership slot first;
  /// installMembership verifies it matches.
  void installMembership(const Membership &M, rdma::RegionKey NewKey,
                         const std::vector<std::uint64_t> &ConfNext);

private:
  // Request paths.
  void handleQuery(const Call &C, SubmitCallback Done);
  void handleReduce(Call C, SubmitCallback Done);
  void handleFree(Call C, SubmitCallback Done);

  // Poller.
  void schedulePoll();
  void pollOnce();
  unsigned pollFreeRings();
  /// Queues \p Bytes (a summary frame or mail) on the F ring to \p To,
  /// in post order behind a full ring; the channels post through it.
  void postFree(rdma::NodeId To, std::vector<std::uint8_t> Bytes);
  unsigned applyPendingFree();

  // State helpers.
  void applyToStored(const Call &C);
  /// The summary channel's hook: raises \p Src's applied counts to \p C,
  /// absorbs \p Delta into the visible cache (nullptr: invalidate) and
  /// records the fold the poller owes for it.
  void summaryChanged(ProcessId Src, const SummaryChannel::Counts &C,
                      const Call *Delta);
  /// Hash of the replicated state (visible state, applied table, received
  /// log positions) seeded with \p Seed: the prefix both digests share.
  std::uint64_t replicatedStateHash(std::uint64_t Seed);

  // Broadcast recovery.
  void onPeerSuspected(rdma::NodeId Peer);
  /// The one delivery rule for free calls from \p Issuer, whether read
  /// from its ring or recovered from its backup slot: a call from another
  /// epoch is dropped, a sequence already applied or held is a duplicate,
  /// anything else is held until it applies in sequence order. Returns
  /// true when the call is held.
  bool deliverFree(ProcessId Issuer, WireCall WC);
  /// The contiguously received broadcast position of \p Issuer.
  std::uint64_t freeReceivedContig(ProcessId Issuer) const;

  // Propagation pipeline (docs/batching.md).
  /// Why a flush fired (obs counter selection). Single is the unbatched
  /// flush of one call, and Repair the poller's flush of a full image a
  /// peer asked for while no call was pending; neither counts as a
  /// coalesced flush.
  enum class FlushCause : std::uint8_t {
    Pipe,
    Size,
    Timeout,
    Conf,
    Single,
    Repair
  };
  /// Everything one flush ships, in post order: the summary channel's
  /// slot writes and records, then the free record.
  struct Shipment : SummaryChannel::Outgoing {
    /// The backup-slot image covering the flush.
    FlushImage Staged;
    std::vector<SubmitCallback> Dones;
    /// A coalesced (batched) flush: charges one ParseCpu and occupies the
    /// doorbell pipeline (FlushesInFlight).
    bool Coalesced = false;
  };
  /// Serialization charged per enqueued reducible call (0 when batched).
  sim::SimDuration perCallParseCpu() const;
  /// Bookkeeping after a call is enqueued: unbatched it flushes at once;
  /// batched it applies the size trigger, arms the timeout backstop, or
  /// flushes immediately when no flush is in flight (doorbell coalescing).
  void noteEnqueued();
  void armFlushTimer();
  /// Turns the pending flush state into one Shipment and ships it (no-op
  /// when nothing is pending, except for a Repair flush, which ships the
  /// owed full images alone).
  void flush(FlushCause Cause);
  /// Stages \p S's image in the backup slot, posts its writes to every
  /// active peer, and once all complete clears the slot (unless a later
  /// flush staged over it) and answers the calls.
  void ship(Shipment S);
  /// Effective byte cap for the encoded free-batch record.
  std::size_t freeBatchCapBytes() const;

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  const ObjectType &Type;
  const CoordinationSpec &Spec;
  const MemoryMap &Map;
  HambandConfig Cfg;
  /// The installed membership: the epoch and active set that the broadcast
  /// fan-out, the conflicting-call channel and every Mu instance read.
  /// Declared before the components that keep a reference to it.
  Membership Members;

  /// Declared before every component that caches pointers into it.
  obs::Registry Stats;
  obs::Counter *CtrCallQuery = nullptr;
  obs::Counter *CtrCallReduce = nullptr;
  obs::Counter *CtrCallFree = nullptr;
  obs::Counter *CtrCallConf = nullptr;
  obs::Counter *CtrDepStallFree = nullptr;
  obs::Counter *CtrRecovered = nullptr;
  obs::Histogram *HistRespNs = nullptr;
  obs::Gauge *GaugePendingFree = nullptr;
  obs::Gauge *GaugePendingConf = nullptr;

  // Object state. The host rebuilds VisibleCache lazily; the simulated
  // bill for keeping Apply(S)(σ) materialized goes to the poller.
  StatePtr Stored;
  StatePtr VisibleCache;
  bool VisibleDirty = true;
  /// Folds the next poll round bills for the materialized view: a whole
  /// rebuild (an image was replaced) and the peer deltas joined into it.
  bool ViewRebuildOwed = false;
  unsigned ViewDeltaFoldsOwed = 0;
  obs::Counter *CtrViewRebuilds = nullptr;
  obs::Counter *CtrViewDeltaFolds = nullptr;
  /// Moves whenever Apply(S)(σ) changes (ConfChannel's parked calls).
  std::uint64_t ViewVersion = 0;
  std::vector<std::vector<std::uint64_t>> Applied; // [proc][method]

  /// Summaries per (sum group, source) and their propagation.
  SummaryChannel Sums;

  // F rings (free calls, summary frames, mail); a full ring holds its
  // writer's stream (appendOrdered).
  std::vector<std::unique_ptr<RingReader>> FreeReaders;  // [issuer]
  std::vector<std::unique_ptr<RingWriter>> FreeWriters;  // [peer]

  /// Received, unapplied free calls keyed by broadcast sequence.
  std::vector<std::map<std::uint64_t, WireCall>> FreePending; // [issuer]
  /// The next broadcast sequence to apply from each issuer.
  std::vector<std::uint64_t> FreeApplyNext; // [issuer]
  /// Apply-order log (Cfg.RecordApplyLog only; see freeApplyLog()).
  std::vector<std::vector<RequestId>> FreeApplyLog;  // [issuer]

  // Components.
  std::unique_ptr<HeartbeatDetector> Detector;
  std::unique_ptr<ReliableBroadcast> Broadcast;
  std::unique_ptr<ConfChannel> Conf;

  /// The next broadcast sequence this node issues.
  std::uint64_t BcastSeqOut = 0;

  // Pending flush state: what the next flush ships (unbatched, one call).
  struct BatchedFree {
    std::vector<std::uint8_t> Bytes; // encodeCall output
    SubmitCallback Done;
  };
  std::vector<BatchedFree> FreeBatch;
  std::size_t FreeBatchBytes = 0;
  /// Callbacks of the calls each group folded since its last flush.
  std::vector<std::vector<SubmitCallback>> SumBatchDone; // [group]
  std::uint32_t BatchedPending = 0;
  /// When the oldest unflushed call was enqueued (timeout backstop).
  sim::SimTime OldestPendingAt = 0;
  unsigned FlushesInFlight = 0;
  bool FlushTimerArmed = false;
  /// Numbers the images staged in the backup slot; the slot holds the
  /// latest.
  std::uint64_t LastStage = 0;
  obs::Counter *CtrFlushPipe = nullptr;
  obs::Counter *CtrFlushSize = nullptr;
  obs::Counter *CtrFlushTimeout = nullptr;
  obs::Counter *CtrFlushConf = nullptr;
  obs::Histogram *HistBatchCalls = nullptr;
  obs::Histogram *HistBatchBytes = nullptr;
  obs::Counter *CtrStageSkipped = nullptr;

  // Membership-reconfiguration state (docs/reconfig.md). All dormant on
  // fixed-membership clusters: epoch 0, every node active, unprotected key.
  bool EpochClosed = false;
  /// Data-plane region key of the current epoch; tags the F-ring writers
  /// and summary-slot writes so a fence can revoke the whole old data
  /// plane in one sweep.
  rdma::RegionKey DataKey;
  /// Irreducible calls in local apply order (Cfg.Reconfig.Enabled only):
  /// the donor's transfer log for joiners.
  std::vector<std::vector<std::uint8_t>> ReconfigLog;
  obs::Counter *CtrWrongEpochReject = nullptr;
  obs::Counter *CtrCrossEpochDrop = nullptr;
  obs::Counter *CtrCrossEpochApply = nullptr;
  obs::Counter *CtrEpochInstall = nullptr;

  sim::SimDuration PollBaseCost = 0;
  bool Started = false;
  bool OutOfService = false;

  std::uint64_t NumLocalUpdates = 0;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_HAMBANDNODE_H
