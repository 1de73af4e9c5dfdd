//===- hamband/runtime/ReliableBroadcast.h - RDMA broadcast -----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The RDMA reliable-broadcast backup slot of Section 4. Best-effort
/// broadcast on RDMA is just N-1 remote writes, but the source may crash
/// mid-way and violate agreement. So the source first stores the message
/// in a local *backup slot* that peers have read access to, performs the
/// remote writes, and clears the slot afterwards. When the failure
/// detector suspects the source, each peer remotely reads the backup slot
/// and delivers any pending message it has not received.
///
/// Every broadcast the runtime makes -- a one-call unbatched flush or a
/// coalesced batch -- stages the same payload: one FlushImage
/// (WireFormat.h). It holds the flush's free-call record if that fits the
/// slot, and per dirty summarization group the full summary image when
/// that still fits, otherwise the group's single delta frame, otherwise
/// nothing; each left-out entry counts in node.delta.stage_skipped.
/// Recovery therefore decodes one format. Recovered free calls go through
/// the same delivery rule as ring records (HambandNode::deliverFree): a
/// sequence already applied or held is a duplicate, and one recovered
/// ahead of the ring waits for its predecessors.
///
/// Slot layout: u8 kind | u32 epoch | u32 len | payload | canary byte at
/// end. The epoch is the stager's membership epoch; recovery drops a
/// fetched message staged in a different epoch (docs/reconfig.md).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_RELIABLEBROADCAST_H
#define HAMBAND_RUNTIME_RELIABLEBROADCAST_H

#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"

#include <functional>
#include <vector>

namespace hamband {
namespace runtime {

/// Manages this node's backup slot and recovery reads of peers' slots.
class ReliableBroadcast {
public:
  /// Slot contents: empty, or a staged flush image (encodeFlushImage).
  enum class Kind : std::uint8_t { None = 0, Flush = 1 };

  /// Slot bytes around the payload: the header and the trailing canary.
  static constexpr std::uint32_t OverheadBytes = 1 + 4 + 4 + 1;

  /// A fetched backup message.
  struct BackupMessage {
    Kind TheKind = Kind::None;
    std::uint32_t Epoch = 0;
    std::vector<std::uint8_t> Payload;
  };

  ReliableBroadcast(rdma::Transport &Fabric, rdma::NodeId Self,
                    rdma::MemOffset BackupOff, std::uint32_t SlotBytes);

  /// Stages a flush image in the local backup slot (a local store -- it
  /// must happen before the remote writes are posted). \p Epoch is the
  /// stager's membership epoch (0 on fixed-membership clusters).
  void stage(const std::vector<std::uint8_t> &Payload,
             std::uint32_t Epoch = 0);

  /// Clears the slot after all remote writes completed.
  void clear();

  /// Remotely reads \p Peer's backup slot (same symmetric offset) and
  /// invokes \p Done with the decoded message (Kind::None when empty).
  void fetch(rdma::NodeId Peer,
             std::function<void(BackupMessage)> Done) const;

  /// Observer invoked right after a message is staged, before any remote
  /// write is posted. The fault injector uses this window to crash the
  /// source at the exact point the backup slot exists to cover.
  void setOnStage(std::function<void()> Fn) { OnStage = std::move(Fn); }

  /// Wires broadcast metrics (bcast.stage, bcast.fetch) into \p R.
  void attachStats(obs::Registry &R);

private:
  obs::Counter *CtrStage = nullptr;
  obs::Counter *CtrFetch = nullptr;

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  rdma::MemOffset BackupOff;
  std::uint32_t SlotBytes;
  std::function<void()> OnStage;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_RELIABLEBROADCAST_H
