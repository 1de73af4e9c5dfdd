//===- hamband/runtime/RingBuffer.h - Single-writer rings -------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single-writer ring buffers of Section 4. Each buffer lives in the
/// *reader's* registered memory and is remotely written by exactly one
/// writer, so no RDMA atomics are needed:
///
///  - the reader holds the head locally and clears a cell's canary byte
///    after consuming it;
///  - the writer holds the tail locally ("a tail that is remotely stored
///    at the single writer node");
///  - each cell ends in a canary byte; the reader's periodic traversal
///    retries when the canary check fails ("even if a call is missed in a
///    traversal, it will be processed in the next one");
///  - consumed cells are reused ("to avoid memory overflow, these
///    locations are reused"); the reader occasionally publishes its head
///    to a feedback slot in the writer's memory (again single-writer) so
///    the writer can tell when the ring is full.
///
/// A record spans as many consecutive cells as its 12-B header, payload
/// and 1-B canary need, shipped as one write; one that would cross the
/// ring end is preceded by a pad filling the lap.
///
/// A node uses two kinds: one F ring per (writer, reader) pair, carrying
/// the writer's free calls, summary frames and conflicting-call mail, and
/// one L ring per synchronization group, written by its Mu leader. F-ring
/// cells are 64-B cache lines, so a record ships and occupies only the
/// lines it needs (orset's 44-124-B records take one to three). Their
/// count comes from the type (freeRingGeometry in MemoryMap.h): 16,384
/// lines (1 MiB) when it has a summarization group, whose chunked full
/// images need the 524,275-B largest record, else 8,192 (512 KiB), which
/// still holds 4,096 records of up to 115-B payload. An L-ring entry is
/// one 256-B cell, since Mu's catch-up reads an entry by its index.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_RINGBUFFER_H
#define HAMBAND_RUNTIME_RINGBUFFER_H

#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Transport.h"

#include <cstdint>
#include <deque>
#include <vector>

namespace hamband {
namespace runtime {

/// Shape of a ring: cell count and fixed cell size.
struct RingGeometry {
  std::uint32_t NumCells = 1024;
  std::uint32_t CellSize = 192;

  /// Cell header: u32 payload length + u64 sequence number.
  static constexpr std::uint32_t HeaderBytes = 12;

  /// Length sentinel marking a padding record: a filler that occupies the
  /// cells from its position to the end of the ring so a spanning record
  /// never splits across the wrap boundary.
  static constexpr std::uint32_t PadLen = 0xFFFFFFFFu;

  std::size_t dataBytes() const {
    return static_cast<std::size_t>(NumCells) * CellSize;
  }
  std::size_t maxPayload() const { return CellSize - HeaderBytes - 1; }

  /// Number of consecutive cells a record with \p PayloadLen bytes spans
  /// (header + payload + one trailing canary for the whole span).
  std::uint32_t cellsFor(std::size_t PayloadLen) const {
    return static_cast<std::uint32_t>(
        (PayloadLen + HeaderBytes + 1 + CellSize - 1) / CellSize);
  }

  /// Longest span a record may occupy: half the ring, so the writer can
  /// always make progress even with a lagging head feedback.
  std::uint32_t maxSpanCells() const {
    return NumCells / 2 > 0 ? NumCells / 2 : 1;
  }

  /// Largest payload appendRecord() accepts.
  std::size_t maxRecordPayload() const {
    return static_cast<std::size_t>(maxSpanCells()) * CellSize - HeaderBytes -
           1;
  }

  /// Parses the single-cell record of absolute \p Index from a copy of its
  /// \p Cell, whatever its canary: fills \p Out with the payload. False
  /// when the cell names another index or holds no single-cell record.
  bool decodeCell(const std::vector<std::uint8_t> &Cell, std::uint64_t Index,
                  std::vector<std::uint8_t> &Out) const;
};

/// The writer's end of a single-writer ring living on a remote reader.
class RingWriter {
public:
  RingWriter(rdma::Transport &Fabric, rdma::NodeId Writer, rdma::NodeId Reader,
             rdma::MemOffset DataOff, rdma::MemOffset FeedbackOff,
             RingGeometry Geom,
             rdma::RegionKey Key = rdma::UnprotectedRegion,
             unsigned Lane = rdma::Transport::LaneClient);

  /// True when appending would overwrite an unconsumed cell; refreshes the
  /// writer-local view of the reader's head from the feedback slot.
  bool full() const;

  /// Serializes \p Payload into the next cell and posts the remote write.
  /// Returns false (posting nothing) when the ring is full. \p OnComplete
  /// fires on the writer when the RDMA write completes.
  bool append(const std::vector<std::uint8_t> &Payload,
              rdma::CompletionFn OnComplete = nullptr);

  /// Like append() but accepts payloads spanning up to maxSpanCells()
  /// consecutive cells. The whole span is shipped as ONE remote write with
  /// a single trailing canary -- one doorbell per record, however many
  /// calls it batches. A span that would split across the ring end is
  /// preceded by a padding record (PadLen sentinel) filling the remainder
  /// of the lap, and the real record starts at cell 0; both writes ride
  /// the same FIFO channel, so the reader observes them in order. Returns
  /// false (posting nothing) when the ring lacks room for pad + span.
  bool appendRecord(const std::vector<std::uint8_t> &Payload,
                    rdma::CompletionFn OnComplete = nullptr);

  /// True when a record spanning \p Cells cells -- plus any wrap padding
  /// it would need at the current tail -- fits the ring right now.
  bool canReserve(std::uint32_t Cells) const;

  /// Number of cells appended so far.
  std::uint64_t tail() const { return Tail; }

  /// Overrides the tail; used by a new consensus leader after catch-up.
  void setTail(std::uint64_t T) { Tail = T; }

  /// Retags subsequent writes with a new region key. A membership epoch
  /// installation swaps every data-plane writer onto the new epoch's key
  /// so writes straggling from the fenced epoch fault with AccessError
  /// (docs/reconfig.md).
  void setRegionKey(rdma::RegionKey K) { Key = K; }

  /// Appends \p Payload (as appendRecord) behind every record still held
  /// back. F-ring chunk reassembly, in-order free-call delivery and the
  /// order of mailed requests assume a ring is FIFO per writer, so a full
  /// ring STALLS the stream, never reorders it; held records drain
  /// head-first from a writer-node timer every \p RetryAfter.
  void appendOrdered(std::vector<std::uint8_t> Payload,
                     rdma::CompletionFn OnComplete,
                     sim::SimDuration RetryAfter);

  /// Records appendOrdered() holds back until the ring has room.
  std::size_t queued() const { return Held.size(); }

  /// Wires this ring into the owning node's metrics (ring.append,
  /// ring.full_stall, ring.wrap, ring.span_append, ring.pad_cells,
  /// ring.occupancy — shared across all the node's rings). Optional; an
  /// unattached ring records nothing.
  void attachStats(obs::Registry &R);

private:
  /// Appends held records until the ring fills, re-arming the timer.
  void drainHeld(sim::SimDuration RetryAfter);

  obs::Counter *CtrAppend = nullptr;
  obs::Counter *CtrFullStall = nullptr;
  obs::Counter *CtrWrap = nullptr;
  obs::Counter *CtrSpanAppend = nullptr;
  obs::Counter *CtrPadCells = nullptr;
  obs::Histogram *HistOccupancy = nullptr;

  rdma::Transport &Fabric;
  rdma::NodeId Writer;
  rdma::NodeId Reader;
  rdma::MemOffset DataOff;
  rdma::MemOffset FeedbackOff;
  RingGeometry Geom;
  rdma::RegionKey Key;
  unsigned Lane;
  std::uint64_t Tail = 0;
  struct HeldRecord {
    std::vector<std::uint8_t> Payload;
    rdma::CompletionFn OnComplete;
  };
  std::deque<HeldRecord> Held;
  bool RetryArmed = false;
};

/// The reader's end of a single-writer ring in its own memory.
class RingReader {
public:
  RingReader(rdma::Transport &Fabric, rdma::NodeId Reader, rdma::NodeId Writer,
             rdma::MemOffset DataOff, rdma::MemOffset FeedbackOff,
             RingGeometry Geom,
             unsigned Lane = rdma::Transport::LanePoller);

  /// Checks the head record's canary; fills \p Out with the payload when a
  /// complete record (single-cell or spanning) is present. Complete wrap
  /// padding records at the head are skipped (consumed) transparently, so
  /// callers only ever see real payloads. Does not consume the payload
  /// record itself.
  bool peek(std::vector<std::uint8_t> &Out);

  /// Consumes the head record after a successful peek. A single-cell
  /// record only has its canary cleared -- its bytes stay readable for
  /// leader-change catch-up -- while a spanning record additionally has
  /// every span cell's header zeroed so stale interior bytes can never be
  /// mistaken for a record header on a later lap. Occasionally posts the
  /// head position to the writer's feedback slot.
  void consume();

  std::uint64_t head() const { return Head; }

  /// Skips the head forward (leader-change catch-up can deliver entries
  /// out-of-band; the ring then resumes at the first undelivered index).
  void setHead(std::uint64_t H) { Head = H; }

  /// Redirects head feedback to a different writer node (consensus leader
  /// change).
  void setWriter(rdma::NodeId NewWriter) { Writer = NewWriter; }

  /// Reads the single-cell record at absolute \p Index whatever its
  /// canary: a *consumed* or kept cell's bytes stay valid until the writer
  /// laps the ring, which is what leader-change catch-up relies on. False
  /// when the cell's sequence number mismatches.
  bool readCellIgnoringCanary(std::uint64_t Index,
                              std::vector<std::uint8_t> &Out) const;

  /// Stores \p Payload in this node's cell of absolute \p Index as an
  /// already-consumed single-cell record (a Mu entry this node appended or
  /// fetched): readCellIgnoringCanary returns it, peek never delivers it.
  /// A local store: it posts nothing, allocates nothing, moves no head.
  void keep(std::uint64_t Index, const std::vector<std::uint8_t> &Payload);

  /// Immediately posts the current head to the (possibly new) writer's
  /// feedback slot.
  void forceFeedback();

  /// Wires this ring into the owning node's metrics (ring.consume,
  /// ring.canary_retry, ring.pad_skip).
  void attachStats(obs::Registry &R);

private:
  /// Parses the record starting at absolute \p Index: fills \p Out with
  /// the payload (empty for padding), \p SpanCells with the number of
  /// cells it occupies and \p IsPad. False when the record is incomplete
  /// (canary clear), stale (sequence mismatch) or malformed.
  bool readRecordAt(std::uint64_t Index, std::vector<std::uint8_t> &Out,
                    std::uint32_t &SpanCells, bool &IsPad) const;

  /// Consumes \p SpanCells cells starting at Head (shared tail of consume
  /// and the transparent pad skip in peek).
  void consumeSpan(std::uint32_t SpanCells);

  obs::Counter *CtrConsume = nullptr;
  obs::Counter *CtrCanaryRetry = nullptr;
  obs::Counter *CtrPadSkip = nullptr;

  rdma::Transport &Fabric;
  rdma::NodeId Reader;
  rdma::NodeId Writer;
  rdma::MemOffset DataOff;
  rdma::MemOffset FeedbackOff;
  RingGeometry Geom;
  unsigned Lane;
  std::uint64_t Head = 0;
  std::uint64_t LastFeedback = 0;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_RINGBUFFER_H
