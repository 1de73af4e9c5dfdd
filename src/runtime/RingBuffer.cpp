//===- runtime/RingBuffer.cpp - Single-writer rings -----------------------==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/RingBuffer.h"

#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;

RingWriter::RingWriter(rdma::Transport &Fabric, rdma::NodeId Writer,
                       rdma::NodeId Reader, rdma::MemOffset DataOff,
                       rdma::MemOffset FeedbackOff, RingGeometry Geom,
                       rdma::RegionKey Key, unsigned Lane)
    : Fabric(Fabric), Writer(Writer), Reader(Reader), DataOff(DataOff),
      FeedbackOff(FeedbackOff), Geom(Geom), Key(Key), Lane(Lane) {
  assert(Writer != Reader && "rings connect distinct nodes");
}

void RingWriter::attachStats(obs::Registry &R) {
  CtrAppend = &R.counter("ring.append");
  CtrFullStall = &R.counter("ring.full_stall");
  CtrWrap = &R.counter("ring.wrap");
  CtrSpanAppend = &R.counter("ring.span_append");
  CtrPadCells = &R.counter("ring.pad_cells");
  HistOccupancy = &R.histogram("ring.occupancy");
}

void RingReader::attachStats(obs::Registry &R) {
  CtrConsume = &R.counter("ring.consume");
  CtrCanaryRetry = &R.counter("ring.canary_retry");
  CtrPadSkip = &R.counter("ring.pad_skip");
}

bool RingWriter::full() const {
  // The feedback slot lives in the writer's own memory; reading it is a
  // plain local load.
  std::uint64_t KnownHead = Fabric.memory(Writer).readU64(FeedbackOff);
  return Tail - KnownHead >= Geom.NumCells;
}

bool RingWriter::canReserve(std::uint32_t Cells) const {
  std::uint32_t Pos = static_cast<std::uint32_t>(Tail % Geom.NumCells);
  // A span that would split across the ring end is preceded by a padding
  // record filling the current lap; the pad cells count against capacity.
  std::uint32_t Pad = (Pos + Cells > Geom.NumCells) ? Geom.NumCells - Pos : 0;
  std::uint64_t KnownHead = Fabric.memory(Writer).readU64(FeedbackOff);
  return Tail + Pad + Cells - KnownHead <= Geom.NumCells;
}

bool RingWriter::append(const std::vector<std::uint8_t> &Payload,
                        rdma::CompletionFn OnComplete) {
  assert(Payload.size() <= Geom.maxPayload() && "payload exceeds cell size");
  return appendRecord(Payload, std::move(OnComplete));
}

bool RingWriter::appendRecord(const std::vector<std::uint8_t> &Payload,
                              rdma::CompletionFn OnComplete) {
  assert(Payload.size() <= Geom.maxRecordPayload() &&
         "payload exceeds ring span capacity");
  std::uint32_t Span = Geom.cellsFor(Payload.size());
  if (!canReserve(Span)) {
    if (CtrFullStall)
      CtrFullStall->add();
    return false;
  }

  std::uint32_t Pos = static_cast<std::uint32_t>(Tail % Geom.NumCells);
  if (Pos + Span > Geom.NumCells) {
    // Pad-and-wrap: a record never splits across the ring end. Fill the
    // rest of the lap with one padding record (PadLen sentinel, canary at
    // the lap's last byte) and start the real record at cell 0. Channel
    // FIFO ordering delivers pad before record, and the reader's canary
    // retry tolerates the gap between the two writes.
    std::uint32_t PadCells = Geom.NumCells - Pos;
    std::vector<std::uint8_t> Pad(
        static_cast<std::size_t>(PadCells) * Geom.CellSize, 0);
    std::uint32_t Sentinel = RingGeometry::PadLen;
    std::memcpy(Pad.data(), &Sentinel, 4);
    std::memcpy(Pad.data() + 4, &Tail, 8);
    Pad[Pad.size() - 1] = 1; // Canary: the pad is complete.
    rdma::MemOffset PadOff =
        DataOff + static_cast<rdma::MemOffset>(Pos) * Geom.CellSize;
    Fabric.postWrite(Writer, Reader, PadOff, std::move(Pad), Key, nullptr,
                     Lane);
    if (CtrPadCells)
      CtrPadCells->add(PadCells);
    Tail += PadCells;
    Pos = 0;
  }

  if (CtrAppend)
    CtrAppend->add();
  if (CtrSpanAppend && Span > 1)
    CtrSpanAppend->add();
  if (CtrWrap && Tail != 0 && Tail % Geom.NumCells == 0)
    CtrWrap->add();
  if (HistOccupancy)
    HistOccupancy->record(Tail + Span -
                          Fabric.memory(Writer).readU64(FeedbackOff));

  // Build the whole record -- header, payload, one trailing canary at the
  // end of the span -- and ship it with ONE RDMA write: a single doorbell
  // however many cells (and batched calls) it covers.
  std::vector<std::uint8_t> Record(
      static_cast<std::size_t>(Span) * Geom.CellSize, 0);
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  std::memcpy(Record.data(), &Len, 4);
  std::memcpy(Record.data() + 4, &Tail, 8);
  if (!Payload.empty()) // An empty payload's data() may be null.
    std::memcpy(Record.data() + RingGeometry::HeaderBytes, Payload.data(),
                Payload.size());
  Record[Record.size() - 1] = 1; // Canary: the record is complete.

  rdma::MemOffset RecOff =
      DataOff + static_cast<rdma::MemOffset>(Pos) * Geom.CellSize;
  Fabric.postWrite(Writer, Reader, RecOff, std::move(Record), Key,
                   std::move(OnComplete), Lane);
  Tail += Span;
  return true;
}

void RingWriter::appendOrdered(std::vector<std::uint8_t> Payload,
                               rdma::CompletionFn OnComplete,
                               sim::SimDuration RetryAfter) {
  Held.push_back({std::move(Payload), std::move(OnComplete)});
  drainHeld(RetryAfter);
}

void RingWriter::drainHeld(sim::SimDuration RetryAfter) {
  while (!Held.empty() &&
         appendRecord(Held.front().Payload, Held.front().OnComplete))
    Held.pop_front();
  if (Held.empty() || RetryArmed)
    return;
  // Ring full mid-stream: hold the stream and retry head-first. The retry
  // runs on the writer's own timer so the writer stays single-threaded.
  RetryArmed = true;
  Fabric.runAfter(Writer, RetryAfter, [this, RetryAfter]() {
    RetryArmed = false;
    drainHeld(RetryAfter);
  });
}

RingReader::RingReader(rdma::Transport &Fabric, rdma::NodeId Reader,
                       rdma::NodeId Writer, rdma::MemOffset DataOff,
                       rdma::MemOffset FeedbackOff, RingGeometry Geom,
                       unsigned Lane)
    : Fabric(Fabric), Reader(Reader), Writer(Writer), DataOff(DataOff),
      FeedbackOff(FeedbackOff), Geom(Geom), Lane(Lane) {}

bool RingGeometry::decodeCell(const std::vector<std::uint8_t> &Cell,
                              std::uint64_t Index,
                              std::vector<std::uint8_t> &Out) const {
  assert(Cell.size() == CellSize && "a cell copy holds the whole cell");
  std::uint32_t Len = 0;
  std::uint64_t Seq = 0;
  std::memcpy(&Len, Cell.data(), 4);
  std::memcpy(&Seq, Cell.data() + 4, 8);
  if (Seq != Index || Len > maxPayload())
    return false;
  Out.assign(Cell.begin() + HeaderBytes, Cell.begin() + HeaderBytes + Len);
  return true;
}

bool RingReader::readCellIgnoringCanary(std::uint64_t Index,
                                        std::vector<std::uint8_t> &Out) const {
  rdma::MemOffset CellOff =
      DataOff + static_cast<rdma::MemOffset>(Index % Geom.NumCells) *
                    Geom.CellSize;
  return Geom.decodeCell(Fabric.memory(Reader).slice(CellOff, Geom.CellSize),
                         Index, Out);
}

void RingReader::keep(std::uint64_t Index,
                      const std::vector<std::uint8_t> &Payload) {
  assert(Payload.size() <= Geom.maxPayload() && "a kept record is one cell");
  rdma::MemoryRegion &Mem = Fabric.memory(Reader);
  rdma::MemOffset CellOff =
      DataOff + static_cast<rdma::MemOffset>(Index % Geom.NumCells) *
                    Geom.CellSize;
  // Canary first, so the cell never reads as a complete unconsumed record.
  Mem.writeU8(CellOff + Geom.CellSize - 1, 0);
  std::uint8_t Header[RingGeometry::HeaderBytes];
  std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  std::memcpy(Header, &Len, 4);
  std::memcpy(Header + 4, &Index, 8);
  Mem.write(CellOff, Header, sizeof(Header));
  if (!Payload.empty()) // An empty payload's data() may be null.
    Mem.write(CellOff + RingGeometry::HeaderBytes, Payload.data(),
              Payload.size());
}

void RingReader::forceFeedback() {
  std::vector<std::uint8_t> Bytes(8);
  std::memcpy(Bytes.data(), &Head, 8);
  Fabric.postWrite(Reader, Writer, FeedbackOff, std::move(Bytes),
                   rdma::UnprotectedRegion, nullptr, Lane);
  LastFeedback = Head;
}

bool RingReader::readRecordAt(std::uint64_t Index,
                              std::vector<std::uint8_t> &Out,
                              std::uint32_t &SpanCells, bool &IsPad) const {
  const rdma::MemoryRegion &Mem = Fabric.memory(Reader);
  std::uint32_t Pos = static_cast<std::uint32_t>(Index % Geom.NumCells);
  rdma::MemOffset CellOff =
      DataOff + static_cast<rdma::MemOffset>(Pos) * Geom.CellSize;
  std::uint32_t Len = 0;
  std::uint64_t Seq = 0;
  std::uint8_t Header[RingGeometry::HeaderBytes];
  Mem.read(CellOff, Header, sizeof(Header));
  std::memcpy(&Len, Header, 4);
  std::memcpy(&Seq, Header + 4, 8);

  IsPad = (Len == RingGeometry::PadLen);
  std::uint32_t Span;
  if (IsPad) {
    Span = Geom.NumCells - Pos; // A pad always runs to the ring end.
  } else {
    Span = Geom.cellsFor(Len);
    if (Span > Geom.maxSpanCells() || Pos + Span > Geom.NumCells) {
      // Garbage header (an empty cell reads Len == 0 and fails the canary
      // below instead): stale bytes from an earlier lap; retry next
      // traversal once the writer has rewritten the cell.
      if (CtrCanaryRetry)
        CtrCanaryRetry->add();
      return false;
    }
  }
  // One canary for the whole span, at its last byte.
  rdma::MemOffset CanaryOff =
      DataOff +
      static_cast<rdma::MemOffset>(Pos + Span) * Geom.CellSize - 1;
  if (Mem.readU8(CanaryOff) != 1)
    return false; // Empty or mid-flight; not counted as a retry.
  // Under a concurrent writer the byte just accepted as a canary may be an
  // interior payload byte of a *larger* record that was still landing when
  // the header above was sampled (the header is read before the canary).
  // Re-read the header: a mismatch means the parse raced the writer's bulk
  // copy -- retry next traversal, by which time the record (whose trailing
  // canary is stored last, with release order) is complete. On the
  // simulator memory cannot change between the two reads, so this is free.
  std::uint8_t Header2[RingGeometry::HeaderBytes];
  Mem.read(CellOff, Header2, sizeof(Header2));
  if (std::memcmp(Header, Header2, sizeof(Header)) != 0) {
    if (CtrCanaryRetry)
      CtrCanaryRetry->add();
    return false;
  }
  if (Seq != Index) {
    // A stale lap; the writer's record for this index is still in flight.
    if (CtrCanaryRetry)
      CtrCanaryRetry->add();
    return false;
  }
  SpanCells = Span;
  if (IsPad)
    Out.clear();
  else
    Out = Mem.slice(CellOff + RingGeometry::HeaderBytes, Len);
  return true;
}

bool RingReader::peek(std::vector<std::uint8_t> &Out) {
  std::uint32_t Span = 1;
  bool IsPad = false;
  while (readRecordAt(Head, Out, Span, IsPad)) {
    if (!IsPad)
      return true;
    // A complete wrap pad: swallow it so callers only see real records.
    if (CtrPadSkip)
      CtrPadSkip->add();
    consumeSpan(Span);
  }
  return false;
}

void RingReader::consume() {
  std::vector<std::uint8_t> Out;
  std::uint32_t Span = 1;
  bool IsPad = false;
  bool Ok = readRecordAt(Head, Out, Span, IsPad);
  assert(Ok && !IsPad && "consume without a successful peek");
  (void)Ok;
  consumeSpan(Span);
  if (CtrConsume)
    CtrConsume->add();
}

void RingReader::consumeSpan(std::uint32_t SpanCells) {
  rdma::MemoryRegion &Mem = Fabric.memory(Reader);
  std::uint32_t Pos = static_cast<std::uint32_t>(Head % Geom.NumCells);
  // Clear the span canary so the slots can be reused by a later lap. A
  // single-cell record keeps its bytes intact (leader-change catch-up
  // reads consumed cells via readCellIgnoringCanary); a spanning record
  // additionally gets every span cell's header zeroed, so stale interior
  // payload bytes can never be misparsed as a record header later.
  Mem.writeU8(DataOff +
                  static_cast<rdma::MemOffset>(Pos + SpanCells) *
                      Geom.CellSize -
                  1,
              0);
  if (SpanCells > 1) {
    static const std::uint8_t ZeroHeader[RingGeometry::HeaderBytes] = {};
    for (std::uint32_t I = 0; I < SpanCells; ++I)
      Mem.write(DataOff +
                    static_cast<rdma::MemOffset>(Pos + I) * Geom.CellSize,
                ZeroHeader, sizeof(ZeroHeader));
  }
  Head += SpanCells;
  // Publish the head to the writer once per quarter ring so it can reuse
  // cells without ever overwriting unconsumed ones.
  if (Head - LastFeedback >= Geom.NumCells / 4)
    forceFeedback();
}
