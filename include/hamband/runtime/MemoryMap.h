//===- hamband/runtime/MemoryMap.h - Node memory layout ---------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registered-memory layout of a Hamband node. Every node allocates
/// the same structures in the same order, so a peer can compute the remote
/// offset of any slot arithmetically -- the moral equivalent of exchanging
/// (rkey, addr) pairs at connection setup.
///
/// Hosted on every node (Section 4 metadata):
///  - summary slots S: one per (summarization group, source process);
///  - rings F: one per remote writer, carrying its conflict-free calls,
///    summary-delta frames and conflicting-call mail (requests to a group
///    leader and its answers), plus the feedback slots for the F rings
///    this node *writes* on others;
///  - conflicting rings L: one per synchronization group, plus feedback
///    slots for every (group, reader) pair (hosted everywhere because the
///    writer -- the group leader -- can change);
///  - the reliable-broadcast backup slot and the heartbeat counter;
///  - leader-change proposal slots (one per candidate) and ack slots (one
///    per voter), all single-writer.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_MEMORYMAP_H
#define HAMBAND_RUNTIME_MEMORYMAP_H

#include "hamband/core/Call.h"
#include "hamband/rdma/MemoryRegion.h"
#include "hamband/runtime/RingBuffer.h"

#include <cassert>

namespace hamband {
namespace runtime {

/// Computes the symmetric per-node memory layout.
class MemoryMap {
public:
  MemoryMap(unsigned NumProcesses, unsigned NumSumGroups,
            unsigned NumSyncGroups, RingGeometry FreeGeom,
            RingGeometry ConfGeom, std::uint32_t SummarySlotBytes = 512,
            std::uint32_t BackupSlotBytes = 1024, rdma::MemOffset Base = 0,
            std::uint32_t TransferSlotBytes = 0)
      : Procs(NumProcesses), SumGroups(NumSumGroups),
        SyncGroups(NumSyncGroups), FreeGeom(FreeGeom), ConfGeom(ConfGeom),
        SummaryBytes(SummarySlotBytes), TransferBytes(TransferSlotBytes) {
    // Keep the first 64 bytes of every map unused to catch zero-offset
    // bugs; with a non-zero Base the map occupies [Base, totalBytes()),
    // which lets several maps (one per shard) share one registered region.
    rdma::MemOffset Cur = Base + 64;
    SummaryBase = Cur;
    Cur += static_cast<rdma::MemOffset>(SumGroups) * Procs * SummaryBytes;
    FreeDataBase = Cur;
    Cur += static_cast<rdma::MemOffset>(Procs) * FreeGeom.dataBytes();
    FreeFeedbackBase = Cur;
    Cur += static_cast<rdma::MemOffset>(Procs) * 8;
    ConfDataBase = Cur;
    Cur += static_cast<rdma::MemOffset>(SyncGroups) * ConfGeom.dataBytes();
    ConfFeedbackBase = Cur;
    Cur += static_cast<rdma::MemOffset>(SyncGroups) * Procs * 8;
    BackupBase = Cur;
    Cur += BackupSlotBytes;
    HeartbeatBase = Cur;
    Cur += 8;
    ProposalBase = Cur;
    Cur += static_cast<rdma::MemOffset>(SyncGroups) * Procs * 16;
    AckBase = Cur;
    Cur += static_cast<rdma::MemOffset>(SyncGroups) * Procs * 24;
    // Reconfiguration regions ride at the tail so every pre-reconfig
    // offset is unchanged. Both are sized 0 on fixed-membership maps.
    MembershipBase = Cur;
    Cur += TransferBytes > 0 ? MembershipSlotBytes : 0;
    TransferBase = Cur;
    Cur += TransferBytes;
    Total = Cur;
  }

  unsigned numProcesses() const { return Procs; }
  const RingGeometry &freeGeom() const { return FreeGeom; }
  const RingGeometry &confGeom() const { return ConfGeom; }
  std::uint32_t summarySlotBytes() const { return SummaryBytes; }

  /// Summary slot for (summarization group, source process).
  rdma::MemOffset summarySlot(unsigned Group, ProcessId From) const {
    assert(Group < SumGroups && From < Procs);
    return SummaryBase +
           (static_cast<rdma::MemOffset>(Group) * Procs + From) *
               SummaryBytes;
  }

  /// F-ring data written by \p Writer (hosted on the reader).
  rdma::MemOffset freeRingData(ProcessId Writer) const {
    assert(Writer < Procs);
    return FreeDataBase +
           static_cast<rdma::MemOffset>(Writer) * FreeGeom.dataBytes();
  }

  /// Head-feedback slot for the F ring this node writes on \p Reader
  /// (hosted on the writer).
  rdma::MemOffset freeRingFeedback(ProcessId Reader) const {
    assert(Reader < Procs);
    return FreeFeedbackBase + static_cast<rdma::MemOffset>(Reader) * 8;
  }

  /// L-ring data for synchronization group \p Group (hosted on readers,
  /// written by the group leader).
  rdma::MemOffset confRingData(unsigned Group) const {
    assert(Group < SyncGroups);
    return ConfDataBase +
           static_cast<rdma::MemOffset>(Group) * ConfGeom.dataBytes();
  }

  /// Head-feedback slot for (group, reader); hosted on every node so the
  /// current leader reads its own copy.
  rdma::MemOffset confRingFeedback(unsigned Group, ProcessId Reader) const {
    assert(Group < SyncGroups && Reader < Procs);
    return ConfFeedbackBase +
           (static_cast<rdma::MemOffset>(Group) * Procs + Reader) * 8;
  }

  /// Reliable-broadcast backup slot.
  rdma::MemOffset backupSlot() const { return BackupBase; }

  /// Heartbeat counter.
  rdma::MemOffset heartbeat() const { return HeartbeatBase; }

  /// Leader-change proposal slot written by \p Candidate for \p Group.
  rdma::MemOffset proposalSlot(unsigned Group, ProcessId Candidate) const {
    assert(Group < SyncGroups && Candidate < Procs);
    return ProposalBase +
           (static_cast<rdma::MemOffset>(Group) * Procs + Candidate) * 16;
  }

  /// Leader-change ack slot written by \p Voter (hosted on the candidate).
  rdma::MemOffset ackSlot(unsigned Group, ProcessId Voter) const {
    assert(Group < SyncGroups && Voter < Procs);
    return AckBase +
           (static_cast<rdma::MemOffset>(Group) * Procs + Voter) * 24;
  }

  /// Fixed size of the membership slot (docs/reconfig.md): an encoded
  /// Membership record the coordinator one-sided-writes during a
  /// transition. Bounds the active bitmap at ~1000 nodes.
  static constexpr std::uint32_t MembershipSlotBytes = 1024;

  /// Membership record slot; only present when the map was built with a
  /// non-zero TransferSlotBytes (reconfig-enabled clusters).
  rdma::MemOffset membershipSlot() const {
    assert(TransferBytes > 0 && "map built without reconfig regions");
    return MembershipBase;
  }

  /// One-sided state-transfer staging slot on the joiner.
  rdma::MemOffset transferSlot() const {
    assert(TransferBytes > 0 && "map built without reconfig regions");
    return TransferBase;
  }

  std::uint32_t transferSlotBytes() const { return TransferBytes; }

  /// End offset of the map: the number of bytes a node must register for
  /// its slots to be addressable (includes the [0, Base) prefix).
  std::size_t totalBytes() const { return Total; }

private:
  unsigned Procs;
  unsigned SumGroups;
  unsigned SyncGroups;
  RingGeometry FreeGeom;
  RingGeometry ConfGeom;
  std::uint32_t SummaryBytes;
  std::uint32_t TransferBytes = 0;

  rdma::MemOffset SummaryBase = 0, FreeDataBase = 0, FreeFeedbackBase = 0,
                  ConfDataBase = 0, ConfFeedbackBase = 0, BackupBase = 0,
                  HeartbeatBase = 0, ProposalBase = 0, AckBase = 0,
                  MembershipBase = 0, TransferBase = 0;
  std::size_t Total = 0;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_MEMORYMAP_H
