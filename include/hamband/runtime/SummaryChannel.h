//===- hamband/runtime/SummaryChannel.h - Reducible propagation -*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reducible-call path of Section 4: one summary image and version
/// per (summarization group, source), the node's own included. The
/// channel folds local calls, picks how a dirty group ships (slot write,
/// delta frame or chunked full frames; docs/deltas.md), stages it in the
/// flush image, and runs the receive side: slot polling, delta joins, gap
/// buffering, chunk reassembly, recovery, seeding and state transfer.
/// The node owns the applied table A and the visible-state cache; the
/// channel reads A and changes both through one hook.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_SUMMARYCHANNEL_H
#define HAMBAND_RUNTIME_SUMMARYCHANNEL_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"
#include "hamband/runtime/MemoryMap.h"
#include "hamband/runtime/Reconfig.h"
#include "hamband/runtime/WireFormat.h"

#include <deque>
#include <functional>
#include <optional>
#include <vector>

namespace hamband {
namespace runtime {

struct HambandConfig;

/// Delta-state propagation for reducible sync groups (docs/deltas.md).
///
/// When enabled, a flush ships the *fold of the calls since the last
/// shipped image* as a bounded F-ring frame tagged with the half-open
/// version interval it covers, instead of overwriting every peer's
/// summary slot with the full image. A full image (chunked over the same
/// rings) ships only on request: a receiver that parks a frame behind a
/// version gap asks the frame's source for it, once per held version, and
/// the source's next flush of the group ships the image in place of its
/// delta, at once when no call is pending. A delta frame too big for one
/// ring record also ships as the full image. A run without gaps ships no
/// full image. Gaps come from frames a crashed source never posted, which
/// no image of that source can repair, from a recovered staged frame that
/// overtakes its ring predecessor, and from the dropDeltasForTest hook: a
/// reconfiguration drains every write before its fence. Off by default:
/// full images preserve the classic per-flush summary-slot path unchanged.
struct DeltaConfig {
  /// Master switch.
  bool Enabled = false;
};

/// One node's summaries and their propagation.
class SummaryChannel {
public:
  /// (method, applied count) pairs, as a summary image carries them.
  using Counts = std::vector<std::pair<MethodId, std::uint64_t>>;
  /// The hook into node-owned state: raise \p Src's applied counts to
  /// \p C, then absorb \p Delta into the visible-state cache (nullptr: an
  /// image was replaced and the cache must be rebuilt).
  using ChangeFn =
      std::function<void(ProcessId Src, const Counts &C, const Call *Delta)>;
  /// The hook that posts \p Frame, a full-image request, to \p Src over
  /// this node's F ring toward it.
  using RequestFn =
      std::function<void(ProcessId Src, std::vector<std::uint8_t> Frame)>;

  /// One flush's writes, in post order.
  struct Outgoing {
    /// (group, encodeSummarySlot bytes) per classic slot write.
    std::vector<std::pair<unsigned, std::vector<std::uint8_t>>> SlotWrites;
    /// F-ring records: full frames, then delta frames.
    std::vector<std::vector<std::uint8_t>> Records;
  };

  SummaryChannel(rdma::Transport &Fabric, rdma::NodeId Self,
                 const ObjectType &Type, const MemoryMap &Map,
                 const HambandConfig &Cfg,
                 const std::vector<std::vector<std::uint64_t>> &Applied,
                 obs::Registry &Stats, ChangeFn OnChange,
                 RequestFn SendRequest);

  /// Folds the local reducible call \p P into this node's image. False,
  /// changing nothing, when the grown image could never ship.
  bool fold(const Call &P);
  /// Ships every group with unshipped calls or an owed full image: appends
  /// its slot write, full frames or delta frame to \p Out, and stages its
  /// full image, else its delta frame, in \p Staged while that fits the
  /// \p Room bytes left in the backup slot.
  void ship(std::uint32_t Epoch, Outgoing &Out, FlushImage &Staged,
            std::size_t &Room);
  /// Marks every group shipped without sending it (no active peer).
  void markShipped();
  /// True when a peer asked for a full image that no flush has shipped yet.
  bool fullImageOwed() const;

  /// Installs every peer slot holding a newer image; returns the number
  /// of slots parsed.
  unsigned pollSlots();
  /// Handles one SummaryDeltaFrame record from \p Src (a delta, a
  /// full-image chunk or a full-image request); true when it advanced the
  /// (group, \p Src) version.
  bool receive(ProcessId Src, const std::uint8_t *Data, std::size_t Len);
  /// Delivers the summary entries of \p Src's staged flush image; returns
  /// how many advanced a version.
  unsigned recover(ProcessId Src, const FlushImage &Img);

  /// Installs \p Summary as (\p G, \p Src)'s image at version \p Seq with
  /// A(Src, method) raised to \p Seq. Seed every node identically, with
  /// the world paused.
  void seed(unsigned G, ProcessId Src, const Call &Summary,
            std::uint64_t Seq);
  void exportTo(TransferImage &Img) const;
  void importFrom(const TransferImage &Img);

  /// [group][source] cached images, this node's own included.
  const std::vector<std::vector<std::optional<Call>>> &images() const {
    return Images;
  }
  std::uint64_t version(unsigned G, ProcessId Src) const {
    return Versions[G][Src];
  }
  /// Out-of-order delta frames of (\p G, \p Src) waiting for their gap.
  std::size_t bufferedFrames(unsigned G, ProcessId Src) const {
    return Buffered[G][Src].size();
  }
  bool hasBufferedFrames() const;
  /// Feeds the versions, shipped cursors, owed full images, open
  /// requests and receive-buffer shapes to \p Mix (the node's state
  /// digest).
  void digest(const std::function<void(std::uint64_t)> &Mix) const;
  /// Test hook: this node discards the next \p Frames delta frames it
  /// receives from \p Src (rings and recovery alike), leaving a version
  /// gap that the next frame from \p Src reveals and only a full image
  /// heals. Call it in the node's own context (Transport::callOn).
  void dropDeltasForTest(ProcessId Src, unsigned Frames) {
    DropFrom[Src] = Frames;
  }

private:
  /// The one install of a whole image (slot, reassembled full frames,
  /// recovery, seed, transfer): takes it when newer than the held
  /// version, then retries buffered frames the jump unblocked.
  bool install(unsigned G, ProcessId Src, SummaryImage Img);
  /// Joins a delta frame starting at the held version; false on a gap.
  bool tryJoin(ProcessId Src, const SummaryDeltaFrame &F);
  /// Joins every buffered frame of (\p G, \p Src) the held version now
  /// reaches; once none waits, the gap is closed and so is its request.
  void retryBuffered(unsigned G, ProcessId Src);
  /// Asks \p Src for (\p G)'s full image unless a request at the held
  /// version is already out.
  void requestFull(unsigned G, ProcessId Src, std::uint32_t Epoch);
  /// Summary arguments per full-image chunk so a frame carrying
  /// \p NumCounts applied counts fits one ring record; 0 when not even
  /// one argument fits.
  std::size_t frameChunkMaxArgs(std::size_t NumCounts) const;
  /// True when an image of \p NumArgs summary arguments and \p NumCounts
  /// applied counts can ship at all: slots are in use (deltas off) and it
  /// fits the slot, or it splits into at most 65535 chunk frames of
  /// frameChunkMaxArgs(NumCounts) arguments each. False from some
  /// argument count on, and for every larger one.
  bool shippable(std::size_t NumArgs, std::size_t NumCounts) const;
  std::vector<std::vector<std::uint8_t>>
  encodeFullFrames(unsigned G, const SummaryImage &Img,
                   std::uint32_t Epoch) const;

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  const ObjectType &Type;
  const CoordinationSpec &Spec;
  const MemoryMap &Map;
  DeltaConfig Delta;
  const std::vector<std::vector<std::uint64_t>> &Applied;
  obs::Registry &Stats;
  ChangeFn OnChange;
  RequestFn SendRequest;
  /// Update methods per group: the applied counts its image carries.
  std::vector<std::vector<MethodId>> GroupMethods;

  std::vector<std::vector<std::optional<Call>>> Images; // [group][src]
  std::vector<std::vector<std::uint64_t>> Versions;     // [group][src]
  /// Version of this node's image at its last ship: the next delta
  /// frame covers (Shipped, Versions[g][Self]].
  std::vector<std::uint64_t> Shipped; // [group]
  /// Fold of the calls in that interval (deltas on).
  std::vector<std::optional<Call>> PendingDelta; // [group]
  /// Groups a peer asked to re-ship whole: the next flush of the group
  /// ships its full image in place of the delta.
  std::vector<std::uint8_t> FullOwed; // [group]
  /// This node's open full-image request to a source: the held version it
  /// asked at, and the delta.repair_ns span that ends when the gap closes.
  struct Repair {
    std::optional<std::uint64_t> HeldAt;
    obs::Span Span;
  };
  std::vector<std::vector<Repair>> Repairs; // [group][src]

  /// Out-of-order delta frames, at most MaxBufferedFrames per (group,
  /// source); frames beyond it are dropped (counted) and heal with the
  /// full image the first parked frame asked for.
  std::vector<std::vector<std::deque<SummaryDeltaFrame>>> Buffered;
  static constexpr std::size_t MaxBufferedFrames = 64;
  /// A partial full-image chunk set, keyed by its version.
  struct ChunkAssembly {
    std::uint64_t Seq = 0;
    std::vector<std::optional<SummaryImage>> Parts;
    std::uint32_t Have = 0;
  };
  std::vector<std::vector<ChunkAssembly>> Assemblies; // [group][src]
  /// Delta frames still to discard per source (dropDeltasForTest).
  std::vector<unsigned> DropFrom; // [src]

  obs::Counter *CtrReductions = nullptr;
  obs::Counter *CtrDeltaOut = nullptr;
  obs::Counter *CtrDeltaIn = nullptr;
  obs::Counter *CtrDeltaDup = nullptr;
  obs::Counter *CtrDeltaGap = nullptr;
  obs::Counter *CtrDeltaDropped = nullptr;
  obs::Counter *CtrDeltaFullOut = nullptr;
  obs::Counter *CtrDeltaBytesOut = nullptr;
  obs::Counter *CtrDeltaFullBytesOut = nullptr;
  obs::Counter *CtrDeltaFullIn = nullptr;
  obs::Counter *CtrFullReqOut = nullptr;
  obs::Counter *CtrFullReqIn = nullptr;
  obs::Counter *CtrSlotOverflow = nullptr;
  obs::Counter *CtrOversizeReject = nullptr;
  obs::Counter *CtrStageSkipped = nullptr;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_SUMMARYCHANNEL_H
