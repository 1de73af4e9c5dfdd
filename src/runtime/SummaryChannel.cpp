//===- runtime/SummaryChannel.cpp - Reducible-call propagation ------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/SummaryChannel.h"
#include "hamband/runtime/HambandNode.h"

#include <algorithm>
#include <cassert>

using namespace hamband;
using namespace hamband::runtime;

SummaryChannel::SummaryChannel(
    rdma::Transport &Fabric, rdma::NodeId Self, const ObjectType &Type,
    const MemoryMap &Map, const HambandConfig &Cfg,
    const std::vector<std::vector<std::uint64_t>> &Applied,
    obs::Registry &Stats, ChangeFn OnChange, RequestFn SendRequest)
    : Fabric(Fabric), Self(Self), Type(Type), Spec(Type.coordination()),
      Map(Map), Delta(Cfg.Delta), Applied(Applied), Stats(Stats),
      OnChange(std::move(OnChange)), SendRequest(std::move(SendRequest)) {
  unsigned N = Fabric.numNodes();
  unsigned Groups = Spec.numSumGroups();
  GroupMethods.resize(Groups);
  for (MethodId U = 0; U < Type.numMethods(); ++U)
    if (Spec.isUpdate(U) && Spec.sumGroup(U))
      GroupMethods[*Spec.sumGroup(U)].push_back(U);
  Images.assign(Groups, std::vector<std::optional<Call>>(N));
  Versions.assign(Groups, std::vector<std::uint64_t>(N, 0));
  Shipped.assign(Groups, 0);
  PendingDelta.assign(Groups, std::nullopt);
  FullOwed.assign(Groups, 0);
  Repairs.assign(Groups, std::vector<Repair>(N));
  Buffered.assign(Groups, std::vector<std::deque<SummaryDeltaFrame>>(N));
  Assemblies.assign(Groups, std::vector<ChunkAssembly>(N));
  DropFrom.assign(N, 0);

  CtrReductions = &Stats.counter("node.reductions");
  CtrDeltaOut = &Stats.counter("node.delta.out");
  CtrDeltaIn = &Stats.counter("node.delta.in");
  CtrDeltaDup = &Stats.counter("node.delta.dup");
  CtrDeltaGap = &Stats.counter("node.delta.gap");
  CtrDeltaDropped = &Stats.counter("node.delta.dropped");
  CtrDeltaFullOut = &Stats.counter("node.delta.full_out");
  CtrDeltaFullIn = &Stats.counter("node.delta.full_in");
  CtrFullReqOut = &Stats.counter("node.delta.full_req_out");
  CtrFullReqIn = &Stats.counter("node.delta.full_req_in");
  CtrDeltaBytesOut = &Stats.counter("node.delta.bytes_out");
  CtrDeltaFullBytesOut = &Stats.counter("node.delta.full_bytes_out");
  CtrSlotOverflow = &Stats.counter("node.summary.slot_overflow");
  CtrOversizeReject = &Stats.counter("node.summary.oversize_reject");
  CtrStageSkipped = &Stats.counter("node.delta.stage_skipped");
}

// -- Send side ---------------------------------------------------------------

bool SummaryChannel::fold(const Call &P) {
  unsigned G = *Spec.sumGroup(P.Method);
  std::optional<Call> &Own = Images[G][Self];
  // Shippability gate BEFORE any replicated-state mutation: if the grown
  // image can neither fit the summary slot nor be chunked over the
  // F-rings, folding this call would wedge every future ship of the
  // group. Reject with no side effects. Shippability only falls as the
  // argument count grows, so an image that ships at |own| + |call|
  // arguments ships at whatever the join keeps: the fold then joins in
  // place, and only near the limit folds a copy first.
  auto Ships = [&](std::size_t NumArgs) {
    return Fabric.numNodes() == 1 ||
           shippable(NumArgs, GroupMethods[G].size());
  };
  auto Join = [this](Call &Into, const Call &D) {
    bool Ok = Type.joinInto(Into, D);
    assert(Ok && "summarization group not closed");
    (void)Ok;
  };
  const bool Reduces = Own.has_value();
  if (Own && Ships(Own->Args.size() + P.Args.size())) {
    Join(*Own, P);
  } else {
    Call Folded = Own ? *Own : P;
    if (Own)
      Join(Folded, P);
    if (!Ships(Folded.Args.size())) {
      CtrOversizeReject->add();
      return false;
    }
    Own = std::move(Folded);
  }
  if (Reduces)
    CtrReductions->add();
  ++Versions[G][Self];
  // The delta since the last shipped image folds alongside the full
  // image; the next flush ships one or the other.
  if (Delta.Enabled) {
    std::optional<Call> &D = PendingDelta[G];
    if (D)
      Join(*D, P);
    else
      D = P;
  }
  // The fold appends exactly the prepared call, and reducible calls are
  // conflict-free, so the visible cache absorbs it incrementally -- a
  // rebuild is O(image size), ruinous for big-state workloads.
  OnChange(Self, {{P.Method, Applied[Self][P.Method] + 1}}, &P);
  return true;
}

void SummaryChannel::ship(std::uint32_t Epoch, Outgoing &Out,
                          FlushImage &Staged, std::size_t &Room) {
  auto Reserve = [&Room](std::size_t Bytes) {
    if (Bytes > Room)
      return false;
    Room -= Bytes;
    return true;
  };
  std::vector<std::vector<std::uint8_t>> DeltaFrames;
  for (unsigned G = 0; G < Images.size(); ++G) {
    if (Shipped[G] == Versions[G][Self] && !FullOwed[G])
      continue;
    // One image covers every call folded since the last ship (the version
    // jump is fine: peers only check for newer). It carries the applied
    // counts, so peers advance A(self, u) without a separate write, and
    // ships through one of three channels: the classic summary slot
    // (fits, deltas off), a delta frame over the F-rings (deltas on), or
    // chunked full-image frames (a peer's request, slot overflow, or an
    // oversized delta). A group a peer asked for ships whole even when it
    // has no new call.
    assert(Images[G][Self] && "a shipped group holds an own image");
    const Call &Own = *Images[G][Self];
    const std::uint64_t Seq = Versions[G][Self];
    Counts AppliedCounts;
    for (MethodId U : GroupMethods[G])
      AppliedCounts.emplace_back(U, Applied[Self][U]);
    std::size_t FullBytes =
        summaryImageBytes(Own.Args.size(), AppliedCounts.size());
    std::vector<std::uint8_t> DeltaFrame;
    if (Delta.Enabled && !FullOwed[G]) {
      assert(PendingDelta[G] && "dirty group without a pending delta");
      SummaryDeltaFrame F;
      F.Group = static_cast<std::uint8_t>(G);
      F.FromSeq = Shipped[G];
      F.ToSeq = Seq;
      F.Epoch = Epoch;
      F.Image = encodeSummary({Seq, *PendingDelta[G], AppliedCounts});
      DeltaFrame = encodeSummaryDelta(F);
      // A delta too large for one record (giant call arguments) ships as
      // the full image instead, which chunks.
      if (DeltaFrame.size() > Map.freeGeom().maxRecordPayload())
        DeltaFrame.clear();
    }
    bool SlotWrite =
        !Delta.Enabled && fitsSummarySlot(FullBytes, Map.summarySlotBytes());
    bool FullFrames = DeltaFrame.empty() && !SlotWrite;
    if (!DeltaFrame.empty()) {
      CtrDeltaOut->add();
      CtrDeltaBytesOut->add(DeltaFrame.size());
    }
    bool StageFull = Reserve(flushImageSummaryBytes(FullBytes));
    // Only the writes that carry the image whole copy it; a delta flush
    // that stages its frame never does.
    if (SlotWrite || FullFrames || StageFull) {
      SummaryImage Img{Seq, Own, std::move(AppliedCounts)};
      if (FullFrames) {
        if (!Delta.Enabled)
          CtrSlotOverflow->add();
        for (std::vector<std::uint8_t> &Frame :
             encodeFullFrames(G, Img, Epoch)) {
          CtrDeltaFullBytesOut->add(Frame.size());
          Out.Records.push_back(std::move(Frame));
        }
        CtrDeltaFullOut->add();
      }
      if (SlotWrite || StageFull) {
        std::vector<std::uint8_t> Bytes = encodeSummary(Img);
        if (SlotWrite)
          Out.SlotWrites.emplace_back(
              G, encodeSummarySlot(Bytes, Map.summarySlotBytes()));
        if (StageFull)
          Staged.Summaries.emplace_back(static_cast<std::uint8_t>(G),
                                        std::move(Bytes));
      }
    }
    if (!StageFull) {
      if (!DeltaFrame.empty() &&
          Reserve(flushImageDeltaBytes(DeltaFrame.size())))
        Staged.Deltas.push_back(DeltaFrame);
      else
        CtrStageSkipped->add();
    }
    if (!DeltaFrame.empty())
      DeltaFrames.push_back(std::move(DeltaFrame));
    Shipped[G] = Seq;
    PendingDelta[G].reset();
    FullOwed[G] = 0;
  }
  for (std::vector<std::uint8_t> &Frame : DeltaFrames)
    Out.Records.push_back(std::move(Frame));
}

void SummaryChannel::markShipped() {
  // A delta frame covers exactly (Shipped, version]: the pending fold and
  // the cursor move together, shipped or not.
  for (unsigned G = 0; G < Images.size(); ++G) {
    Shipped[G] = Versions[G][Self];
    PendingDelta[G].reset();
    FullOwed[G] = 0;
  }
}

bool SummaryChannel::fullImageOwed() const {
  return std::any_of(FullOwed.begin(), FullOwed.end(),
                     [](std::uint8_t Owed) { return Owed != 0; });
}

std::size_t SummaryChannel::frameChunkMaxArgs(std::size_t NumCounts) const {
  std::size_t Budget = Map.freeGeom().maxRecordPayload();
  // Frame header plus an argument-free image with the group's
  // applied-count block.
  std::size_t Fixed = SummaryDeltaHeaderBytes + summaryImageBytes(0, NumCounts);
  if (Budget < Fixed + 8)
    return 0; // Not even a one-argument chunk fits a record.
  return (Budget - Fixed) / 8;
}

bool SummaryChannel::shippable(std::size_t NumArgs,
                               std::size_t NumCounts) const {
  if (!Delta.Enabled &&
      fitsSummarySlot(summaryImageBytes(NumArgs, NumCounts),
                      Map.summarySlotBytes()))
    return true; // Classic slot overwrite.
  // Everything else ships as full-image chunk frames over the F-rings:
  // slot overflow, every image in delta mode (which never writes slots),
  // and the fallback for a delta frame too big for one record.
  std::size_t MaxArgs = frameChunkMaxArgs(NumCounts);
  if (MaxArgs == 0)
    return false;
  std::size_t Chunks =
      std::max<std::size_t>(1, (NumArgs + MaxArgs - 1) / MaxArgs);
  return Chunks <= 0xFFFF; // ChunkCount is a u16.
}

std::vector<std::vector<std::uint8_t>>
SummaryChannel::encodeFullFrames(unsigned G, const SummaryImage &Img,
                                 std::uint32_t Epoch) const {
  std::size_t MaxArgs = frameChunkMaxArgs(Img.AppliedCounts.size());
  assert(MaxArgs > 0 && "shippable() admits only chunks that fit a record");
  std::vector<Call> Chunks = Type.decomposeSummary(Img.Summary, MaxArgs);
  assert(!Chunks.empty() && Chunks.size() <= 0xFFFF &&
         "shippable() admits at most 65535 chunks");
  std::vector<std::vector<std::uint8_t>> Out;
  Out.reserve(Chunks.size());
  for (std::size_t I = 0; I < Chunks.size(); ++I) {
    SummaryDeltaFrame F;
    F.Group = static_cast<std::uint8_t>(G);
    F.Full = 1;
    F.ChunkIdx = static_cast<std::uint16_t>(I);
    F.ChunkCount = static_cast<std::uint16_t>(Chunks.size());
    F.ToSeq = Img.Seq;
    F.Epoch = Epoch;
    F.Image =
        encodeSummary({Img.Seq, std::move(Chunks[I]), Img.AppliedCounts});
    Out.push_back(encodeSummaryDelta(F));
  }
  return Out;
}

// -- Receive side ------------------------------------------------------------

unsigned SummaryChannel::pollSlots() {
  unsigned Parsed = 0;
  const rdma::MemoryRegion &Mem = Fabric.memory(Self);
  for (unsigned G = 0; G < Images.size(); ++G) {
    for (rdma::NodeId Src = 0; Src < Fabric.numNodes(); ++Src) {
      if (Src == Self)
        continue;
      rdma::MemOffset Off = Map.summarySlot(G, Src);
      // Skip unwritten, unchanged or stale slots (delta frames can advance
      // the version past the last slot overwrite) without copying them.
      if (Mem.readU64(Off + SummarySlotSeqOffset) <= Versions[G][Src])
        continue;
      // Snapshot the whole slot before parsing: on the shm transport a
      // concurrent overwrite could otherwise tear the bytes between the
      // length read and the payload slice. The decoder rejects a torn
      // snapshot; the next traversal retries.
      std::vector<std::uint8_t> Slot =
          Mem.sliceStable(Off, Map.summarySlotBytes());
      SummaryImage Img;
      if (!decodeSummarySlot(Slot.data(), Slot.size(), Img))
        continue;
      install(G, Src, std::move(Img));
      ++Parsed;
    }
  }
  return Parsed;
}

unsigned SummaryChannel::recover(ProcessId Src, const FlushImage &Img) {
  unsigned Advanced = 0;
  for (const auto &[G, Bytes] : Img.Summaries) {
    SummaryImage SImg;
    if (G < Images.size() &&
        decodeSummary(Bytes.data(), Bytes.size(), SImg) &&
        install(G, Src, std::move(SImg)))
      ++Advanced;
  }
  // A staged delta frame goes through the regular gap-checked receive
  // rules (a dup is dropped, a gap is buffered and asks the source for
  // its full image).
  for (const std::vector<std::uint8_t> &Frame : Img.Deltas)
    if (receive(Src, Frame.data(), Frame.size()))
      ++Advanced;
  return Advanced;
}

bool SummaryChannel::install(unsigned G, ProcessId Src, SummaryImage Img) {
  if (Img.Seq <= Versions[G][Src])
    return false;
  Images[G][Src] = std::move(Img.Summary);
  Versions[G][Src] = Img.Seq;
  // An own image arrives only by seed or transfer, which every peer holds
  // too: it counts as shipped.
  if (Src == Self) {
    Shipped[G] = Img.Seq;
    PendingDelta[G].reset();
  }
  // A whole image replaces the cached one; the delta from the old image
  // is unknown, so the visible cache rebuilds.
  OnChange(Src, Img.AppliedCounts, nullptr);
  // The version may have leapt over buffered delta frames; drain them.
  retryBuffered(G, Src);
  return true;
}

bool SummaryChannel::receive(ProcessId Src, const std::uint8_t *Data,
                             std::size_t Len) {
  if (Src >= Fabric.numNodes() || Src == Self)
    return false;
  SummaryDeltaFrame F;
  if (!decodeSummaryDelta(Data, Len, F) || F.Group >= Images.size()) {
    CtrDeltaDropped->add(); // Undecodable.
    return false;
  }
  unsigned G = F.Group;
  if (F.Full == SummaryDeltaFrame::FullRequest) {
    // A peer found a gap in this node's stream of the group: the group's
    // next flush ships its full image (the poller starts one when no call
    // is pending).
    CtrFullReqIn->add();
    FullOwed[G] = 1;
    return false;
  }
  if (F.Full) {
    CtrDeltaFullIn->add();
    SummaryImage Img;
    if (!decodeSummary(F.Image.data(), F.Image.size(), Img)) {
      CtrDeltaDropped->add();
      return false;
    }
    if (F.ChunkCount <= 1)
      return install(G, Src, std::move(Img));
    if (F.ToSeq <= Versions[G][Src])
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
      Whole.Summary.Args.insert(Whole.Summary.Args.end(), Part.Args.begin(),
                                Part.Args.end());
    }
    Whole.Seq = A.Seq;
    A = ChunkAssembly();
    return install(G, Src, std::move(Whole));
  }
  // Delta frame.
  if (DropFrom[Src] > 0) {
    --DropFrom[Src];
    return false;
  }
  if (F.ToSeq <= Versions[G][Src]) {
    CtrDeltaDup->add();
    return false;
  }
  if (tryJoin(Src, F)) {
    retryBuffered(G, Src);
    return true;
  }
  // Version gap: park the frame until the gap closes, and ask the source
  // for the full image that leapfrogs it. Only this node can tell that it
  // lacks a frame.
  CtrDeltaGap->add();
  requestFull(G, Src, F.Epoch);
  auto &Buf = Buffered[G][Src];
  if (Buf.size() >= MaxBufferedFrames) {
    CtrDeltaDropped->add();
    return false;
  }
  Buf.push_back(F);
  return false;
}

bool SummaryChannel::tryJoin(ProcessId Src, const SummaryDeltaFrame &F) {
  unsigned G = F.Group;
  std::uint64_t &Seen = Versions[G][Src];
  if (F.ToSeq <= Seen)
    return true; // Duplicate: consumed, nothing to apply.
  if (F.FromSeq != Seen)
    return false; // Gap.
  SummaryImage Img;
  if (!decodeSummary(F.Image.data(), F.Image.size(), Img)) {
    CtrDeltaDropped->add();
    return true; // Malformed: consume rather than wedge the buffer.
  }
  std::optional<Call> &Held = Images[G][Src];
  if (!Held) {
    Held = Img.Summary;
  } else {
    bool Ok = Type.joinInto(*Held, Img.Summary);
    assert(Ok && "delta join failed for a closed summarization group");
    (void)Ok;
  }
  Seen = F.ToSeq;
  // The join appends exactly the delta's calls, which are conflict-free:
  // the visible cache absorbs them instead of rebuilding.
  OnChange(Src, Img.AppliedCounts, &Img.Summary);
  CtrDeltaIn->add();
  return true;
}

void SummaryChannel::retryBuffered(unsigned G, ProcessId Src) {
  auto &Buf = Buffered[G][Src];
  bool Progress = true;
  while (Progress && !Buf.empty()) {
    Progress = false;
    // tryJoin also consumes a frame a full image leapt over.
    for (auto It = Buf.begin(); It != Buf.end();) {
      if (tryJoin(Src, *It)) {
        It = Buf.erase(It);
        Progress = true;
      } else {
        ++It;
      }
    }
  }
  Repair &R = Repairs[G][Src];
  if (Buf.empty() && R.HeldAt) {
    R.Span.finish(Fabric.now());
    R = Repair();
  }
}

void SummaryChannel::requestFull(unsigned G, ProcessId Src,
                                 std::uint32_t Epoch) {
  Repair &R = Repairs[G][Src];
  const std::uint64_t Held = Versions[G][Src];
  if (R.HeldAt == Held)
    return;
  // The repair runs from the first request to the install that closes the
  // gap, whatever the held version in between.
  if (!R.HeldAt)
    R.Span = obs::Span(Stats, "delta.repair_ns", Fabric.now());
  R.HeldAt = Held;
  // Point-to-point, unstaged and without a completion: a request lost with
  // a crashed source changes nothing, since that source ships no image.
  SummaryDeltaFrame Req;
  Req.Group = static_cast<std::uint8_t>(G);
  Req.Full = SummaryDeltaFrame::FullRequest;
  Req.FromSeq = Held;
  Req.Epoch = Epoch;
  CtrFullReqOut->add();
  SendRequest(Src, encodeSummaryDelta(Req));
}

// -- Seeding and state transfer ----------------------------------------------

void SummaryChannel::seed(unsigned G, ProcessId Src, const Call &Summary,
                          std::uint64_t Seq) {
  assert(G < Images.size() && Src < Fabric.numNodes());
  // The applied-count row travels with shipped images; a seeded image
  // carries it too or the applied-table equality oracles would see a
  // seeded cluster as diverged.
  install(G, Src, {Seq, Summary, {{Summary.Method, Seq}}});
}

void SummaryChannel::exportTo(TransferImage &Img) const {
  Img.Summaries.assign(Images.size(), {});
  for (unsigned G = 0; G < Images.size(); ++G) {
    Img.Summaries[G].resize(Images[G].size());
    for (ProcessId Src = 0; Src < Images[G].size(); ++Src)
      if (Images[G][Src])
        Img.Summaries[G][Src] = {
            Versions[G][Src],
            encodeSummary({Versions[G][Src], *Images[G][Src], {}})};
  }
}

void SummaryChannel::importFrom(const TransferImage &Img) {
  for (unsigned G = 0; G < Images.size() && G < Img.Summaries.size(); ++G) {
    for (ProcessId Src = 0;
         Src < Images[G].size() && Src < Img.Summaries[G].size(); ++Src) {
      // The encoded image carries the same version as the entry.
      const std::vector<std::uint8_t> &Bytes = Img.Summaries[G][Src].second;
      SummaryImage SImg;
      if (!Bytes.empty() && decodeSummary(Bytes.data(), Bytes.size(), SImg))
        install(G, Src, std::move(SImg));
    }
  }
}

// -- Introspection -----------------------------------------------------------

bool SummaryChannel::hasBufferedFrames() const {
  // Out-of-order delta frames are undelivered payload; a partially
  // assembled full image is not (its remaining chunks are still in
  // flight and will arrive through the rings).
  for (const auto &PerSrc : Buffered)
    for (const auto &Q : PerSrc)
      if (!Q.empty())
        return true;
  return false;
}

void SummaryChannel::digest(
    const std::function<void(std::uint64_t)> &Mix) const {
  for (const auto &Row : Versions)
    for (std::uint64_t V : Row)
      Mix(V);
  for (std::uint64_t V : Shipped)
    Mix(V);
  for (std::uint8_t Owed : FullOwed)
    Mix(Owed);
  for (const auto &PerSrc : Repairs)
    for (const Repair &R : PerSrc)
      Mix(R.HeldAt ? *R.HeldAt + 1 : 0);
  for (const auto &PerSrc : Buffered)
    for (const auto &Q : PerSrc)
      Mix(Q.size());
  for (const auto &PerSrc : Assemblies)
    for (const ChunkAssembly &A : PerSrc)
      Mix(A.Seq + A.Have);
}
