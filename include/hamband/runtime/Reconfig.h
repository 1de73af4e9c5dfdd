//===- hamband/runtime/Reconfig.h - Online membership changes --*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based online membership reconfiguration (docs/reconfig.md). A
/// cluster is provisioned for a fixed node count; a *membership* names the
/// subset currently in service and the epoch it was installed in. The
/// coordinator drives a transition through fixed stages:
///
///   Close -> Drain -> Fence -> [Transfer] -> Install -> Reopen
///
/// Close rejects new updates with Done(false, WrongEpochValue) (queries
/// keep flowing); Drain waits until every in-service replica is quiescent
/// and state-identical; Fence generalizes Mu's permission-revocation trick
/// to the whole data plane by revoking write permission on the old epoch's
/// region key; Transfer ships a one-sided state image to a joiner; Install
/// one-sided-writes the membership record and swaps every node onto the
/// new epoch; Reopen resumes updates. Every F-/C-ring record carries the
/// issuing epoch and is dropped on mismatch, so no call can cross an epoch
/// boundary undetected.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_RECONFIG_H
#define HAMBAND_RUNTIME_RECONFIG_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

namespace hamband {
namespace sim {
class FaultInjector;
} // namespace sim
namespace runtime {

class HambandCluster;

/// The in-service subset of a provisioned cluster, stamped with the epoch
/// it was installed in. Each HambandNode holds one installed view; its
/// conflicting-call channel and Mu instances read that view.
struct Membership {
  std::uint32_t Epoch = 0;
  /// Per provisioned node: 1 when in service. Size = numNodes().
  std::vector<std::uint8_t> Active;

  bool isActive(rdma::NodeId N) const {
    return N < Active.size() && Active[N] != 0;
  }
  unsigned activeCount() const {
    unsigned C = 0;
    for (std::uint8_t A : Active)
      C += A != 0;
    return C;
  }
  /// Active nodes other than \p Self: a broadcast's fan-out.
  unsigned peerCount(rdma::NodeId Self) const {
    return activeCount() - (isActive(Self) ? 1 : 0);
  }
};

/// Serialized membership record written one-sided into each node's
/// membership slot during Install:
///   u32 magic | u32 epoch | u32 n | n x u8 active
std::vector<std::uint8_t> encodeMembership(const Membership &M);
bool decodeMembership(const std::uint8_t *Data, std::size_t Len,
                      Membership &Out);

/// Per-cluster reconfiguration knobs (HambandConfig::Reconfig).
struct ReconfigConfig {
  /// Master switch. Off (the default) keeps the fixed-membership fast
  /// path: no retained call log, no epoch-key tagging, byte-identical
  /// behavior to a pre-reconfig cluster (all epochs stay 0).
  bool Enabled = false;
  /// Initially in-service nodes; empty = every provisioned node. A node
  /// left out is a provisioned *standby*: peers neither write to it nor
  /// monitor it until a transition adds it.
  std::vector<std::uint8_t> InitialActive;
  /// Size of the one-sided state-transfer staging slot on every node.
  static constexpr std::uint32_t TransferSlotBytes = 1u << 16;
  /// Coordinator state-machine tick period.
  sim::SimDuration TickInterval = sim::micros(5);
  /// Consecutive quiescent-and-identical probe rounds required to leave
  /// Drain.
  static constexpr unsigned StableProbeRounds = 2;
};

/// Minimal serialized call for the transfer log: one writeCallBlock block
/// (WireFormat.h). No deps/seq: transferred calls are applied
/// unconditionally in donor apply order.
std::vector<std::uint8_t> encodeLoggedCall(const Call &C);
bool decodeLoggedCall(const std::uint8_t *Data, std::size_t Len, Call &Out);

/// Everything a joiner needs to catch up to the drained cluster state:
/// summary images for the reducible groups, the applied table and
/// broadcast cursors, per-group consensus positions, and the donor's
/// retained irreducible call log (docs/reconfig.md).
struct TransferImage {
  std::uint32_t Epoch = 0;
  /// [node][method] applied counts (the donor's table; all drained
  /// replicas agree on it).
  std::vector<std::vector<std::uint64_t>> Applied;
  /// [node] next expected broadcast sequence per issuer.
  std::vector<std::uint64_t> FreeSeqNext;
  /// [sum group][source]: (version, encodeSummary bytes; empty = none).
  std::vector<std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>>
      Summaries;
  /// [sync group] agreed next log index (== every member's received
  /// count after Drain).
  std::vector<std::uint64_t> ConfNextIndex;
  /// encodeLoggedCall entries in donor apply order: every irreducible
  /// (conflict-free or conflicting) call folded into the donor's stored
  /// state.
  std::vector<std::vector<std::uint8_t>> IrreducibleLog;
};

std::vector<std::uint8_t> encodeTransferImage(const TransferImage &Img);
bool decodeTransferImage(const std::uint8_t *Data, std::size_t Len,
                         TransferImage &Out);

/// Drives one membership transition at a time from the coordinator node's
/// execution context. Owned by HambandCluster when reconfiguration is
/// enabled.
class ReconfigManager {
public:
  /// Completion callback: fired (from the coordinator's context) with
  /// whether the transition installed and the now-current epoch.
  using DoneFn = std::function<void(bool Ok, std::uint32_t Epoch)>;

  /// Stage identifiers, also the FaultChannel::Reconfig event codes.
  enum Stage : unsigned {
    StClose = 0,
    StDrain = 1,
    StFence = 2,
    StTransfer = 3,
    StInstall = 4,
    StReopen = 5,
    StDone = 6,
    StAbort = 7,
  };

  /// \p DataKey is the data-plane region key of \p Initial's epoch.
  ReconfigManager(HambandCluster &Cluster, Membership Initial,
                  rdma::RegionKey DataKey);

  /// Begins a transition to \p TargetActive (same provisioned size; at
  /// most one joiner). Returns false when a transition is already in
  /// progress or the target is malformed. \p Done fires on completion or
  /// abort.
  bool start(std::vector<std::uint8_t> TargetActive, DoneFn Done);

  /// The installed membership. Stable only while no transition is in
  /// progress (read it from the DoneFn or between transitions).
  const Membership &membership() const { return Current; }
  std::uint32_t epoch() const { return Current.Epoch; }

  /// Wires reconfig.transitions / reconfig.aborts / reconfig.wrong_epoch
  /// counters into the cluster registry.
  void attachStats(obs::Registry &R);

private:
  void tick();
  void scheduleTick();
  void noteStage(unsigned StageId);
  void enterStage(unsigned StageId);
  bool dispatchAndSettled(const std::vector<rdma::NodeId> &Targets,
                          const std::function<void(rdma::NodeId)> &Dispatch);
  std::vector<rdma::NodeId> currentMembers() const;
  std::vector<rdma::NodeId> unionMembers() const;
  void runDrainStage();
  void runTransferStage();
  void sendNextChunk();
  void abortTransition();
  void finish(bool Ok);

  HambandCluster &C;
  Membership Current;
  Membership Target;
  rdma::RegionKey OldKey = rdma::UnprotectedRegion;
  rdma::RegionKey NewKey = rdma::UnprotectedRegion;
  DoneFn Done;
  std::atomic<bool> InProgress{false};

  // Tick-thread (coordinator context) state.
  unsigned StageId = StDone;
  rdma::NodeId Coord = 0;
  rdma::NodeId Joiner = ~0u;
  std::vector<bool> DispatchedTo;
  unsigned StableRounds = 0;
  bool ProbeInFlight = false;
  std::vector<std::uint64_t> ConfNext;
  std::vector<std::uint8_t> TransferBytes;
  std::size_t TransferOffset = 0;
  bool TransferKicked = false;
  std::atomic<bool> TransferDone{false};

  // Written from per-node callOn closures, read by the tick.
  std::unique_ptr<std::atomic<std::uint8_t>[]> NodeSeen;
  std::unique_ptr<std::atomic<std::uint8_t>[]> NodeIdle;
  std::unique_ptr<std::atomic<std::uint64_t>[]> NodeDigest;
  /// Joiner-thread only: reassembled transfer image.
  std::vector<std::uint8_t> JoinerAccum;

  obs::Counter *CtrTransitions = nullptr;
  obs::Counter *CtrAborts = nullptr;
  obs::Counter *CtrTransferBytes = nullptr;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_RECONFIG_H
