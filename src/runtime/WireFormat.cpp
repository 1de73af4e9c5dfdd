//===- runtime/WireFormat.cpp - On-the-wire encoding --------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/WireFormat.h"

#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;
using hamband::semantics::DepEntry;
using hamband::semantics::DepMap;

void ByteWriter::u16(std::uint16_t V) {
  u8(static_cast<std::uint8_t>(V));
  u8(static_cast<std::uint8_t>(V >> 8));
}

void ByteWriter::u32(std::uint32_t V) {
  for (int I = 0; I < 4; ++I)
    u8(static_cast<std::uint8_t>(V >> (8 * I)));
}

void ByteWriter::u64(std::uint64_t V) {
  for (int I = 0; I < 8; ++I)
    u8(static_cast<std::uint8_t>(V >> (8 * I)));
}

bool ByteReader::take(std::size_t N) {
  if (Failed || Pos + N > Len) {
    Failed = true;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1))
    return 0;
  return Data[Pos++];
}

std::uint16_t ByteReader::u16() {
  std::uint16_t Lo = u8();
  std::uint16_t Hi = u8();
  return static_cast<std::uint16_t>(Lo | (Hi << 8));
}

std::uint32_t ByteReader::u32() {
  std::uint32_t V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<std::uint32_t>(u8()) << (8 * I);
  return V;
}

std::uint64_t ByteReader::u64() {
  std::uint64_t V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<std::uint64_t>(u8()) << (8 * I);
  return V;
}

std::span<const std::uint8_t> ByteReader::lengthPrefixed() {
  std::uint32_t N = u32();
  if (!take(N))
    return {};
  std::span<const std::uint8_t> Out(Data + Pos, N);
  Pos += N;
  return Out;
}

void runtime::writeCallBlock(ByteWriter &W, const Call &C) {
  W.u16(C.Method);
  W.u16(static_cast<std::uint16_t>(C.Args.size()));
  W.u32(C.Issuer);
  W.u64(C.Req);
  for (Value V : C.Args)
    W.i64(V);
}

bool runtime::readCallBlock(ByteReader &R, Call &Out) {
  Out.Method = R.u16();
  std::uint16_t Argc = R.u16();
  Out.Issuer = R.u32();
  Out.Req = R.u64();
  if (!R.ok() || static_cast<std::size_t>(Argc) * 8 > R.remaining())
    return false;
  // Append rather than resize(): on the gset-bigstate benchmark, sizing
  // each 5,000-argument summary call exactly raised peak RSS by about 1 MB.
  Out.Args.clear();
  for (unsigned I = 0; I < Argc; ++I)
    Out.Args.push_back(R.i64());
  return true;
}

DepMap runtime::projectDeps(const CoordinationSpec &Spec,
                            const std::vector<std::vector<std::uint64_t>> &A,
                            MethodId U) {
  DepMap D;
  for (MethodId Dep : Spec.dependencies(U))
    for (ProcessId Q = 0; Q < A.size(); ++Q)
      if (std::uint64_t Cnt = A[Q][Dep])
        D.push_back(DepEntry{Q, Dep, Cnt});
  return D;
}

bool runtime::depsSatisfied(const std::vector<std::vector<std::uint64_t>> &A,
                            const DepMap &D) {
  for (const DepEntry &E : D)
    if (A[E.P][E.U] < E.Count)
      return false;
  return true;
}

std::vector<std::uint64_t> runtime::denseDeps(const CoordinationSpec &Spec,
                                              unsigned NumProcesses,
                                              MethodId U,
                                              const DepMap &Deps) {
  const std::vector<MethodId> &DepMethods = Spec.dependencies(U);
  std::vector<std::uint64_t> Block(
      static_cast<std::size_t>(NumProcesses) * DepMethods.size(), 0);
  for (const DepEntry &E : Deps) {
    for (std::size_t J = 0; J < DepMethods.size(); ++J) {
      if (DepMethods[J] == E.U) {
        assert(E.P < NumProcesses);
        Block[static_cast<std::size_t>(E.P) * DepMethods.size() + J] =
            E.Count;
        break;
      }
    }
  }
  return Block;
}

std::vector<std::uint8_t> runtime::encodeCall(const CoordinationSpec &Spec,
                                              unsigned NumProcesses,
                                              const WireCall &WC) {
  ByteWriter W;
  const Call &C = WC.TheCall;
  writeCallBlock(W, C);
  W.u64(WC.BcastSeq);
  W.u32(WC.Epoch);
  for (std::uint64_t N : denseDeps(Spec, NumProcesses, C.Method, WC.Deps))
    W.u64(N);
  return W.take();
}

bool runtime::isMail(const std::uint8_t *Data, std::size_t Len) {
  return ByteReader(Data, Len).u16() == MailMarker;
}

std::vector<std::uint8_t> runtime::encodeMail(const MailMsg &Msg) {
  ByteWriter W;
  W.u16(MailMarker);
  W.u8(static_cast<std::uint8_t>(Msg.Kind));
  W.u64(Msg.ReqId);
  W.u8(Msg.Ok);
  W.u32(Msg.Epoch);
  writeCallBlock(W, Msg.TheCall);
  return W.take();
}

bool runtime::decodeMail(const std::uint8_t *Data, std::size_t Len,
                         MailMsg &Out) {
  ByteReader R(Data, Len);
  if (R.u16() != MailMarker)
    return false;
  Out.Kind = static_cast<MailKind>(R.u8());
  Out.ReqId = R.u64();
  Out.Ok = R.u8();
  Out.Epoch = R.u32();
  return readCallBlock(R, Out.TheCall);
}

std::vector<std::uint8_t> runtime::encodeSummary(const SummaryImage &Img) {
  ByteWriter W;
  W.u64(Img.Seq);
  writeCallBlock(W, Img.Summary);
  W.u16(static_cast<std::uint16_t>(Img.AppliedCounts.size()));
  for (const auto &[M, N] : Img.AppliedCounts) {
    W.u16(M);
    W.u64(N);
  }
  return W.take();
}

bool runtime::decodeSummary(const std::uint8_t *Data, std::size_t Len,
                            SummaryImage &Out) {
  ByteReader R(Data, Len);
  Out.Seq = R.u64();
  if (!readCallBlock(R, Out.Summary))
    return false;
  std::uint16_t K = R.u16();
  Out.AppliedCounts.clear();
  for (unsigned I = 0; I < K; ++I) {
    MethodId M = R.u16();
    std::uint64_t N = R.u64();
    Out.AppliedCounts.emplace_back(M, N);
  }
  return R.ok();
}

std::vector<std::uint8_t>
runtime::encodeSummarySlot(const std::vector<std::uint8_t> &Image,
                           std::size_t SlotBytes) {
  assert(Image.size() >= 8 && "summary image leads with its seq");
  assert(fitsSummarySlot(Image.size(), SlotBytes) &&
         "summary exceeds slot; raise SummarySlotBytes or shrink keyspace");
  ByteWriter W;
  W.lengthPrefixed(Image);
  std::vector<std::uint8_t> Out = W.take();
  Out.resize(SlotBytes - 9, 0);
  Out.insert(Out.end(), Image.begin(), Image.begin() + 8); // Seq trailer.
  Out.push_back(1);                                        // Canary.
  return Out;
}

bool runtime::decodeSummarySlot(const std::uint8_t *Slot,
                                std::size_t SlotBytes, SummaryImage &Out) {
  if (!fitsSummarySlot(0, SlotBytes) || Slot[SlotBytes - 1] != 1)
    return false;
  if (std::memcmp(Slot + SummarySlotSeqOffset, Slot + SlotBytes - 9, 8) != 0)
    return false; // Torn: an overwrite is in flight.
  ByteReader R(Slot, SlotBytes);
  std::uint32_t Len = R.u32();
  return fitsSummarySlot(Len, SlotBytes) &&
         decodeSummary(Slot + SummarySlotSeqOffset, Len, Out);
}

bool runtime::isCallBatch(const std::uint8_t *Data, std::size_t Len) {
  return ByteReader(Data, Len).u16() == CallBatchMarker;
}

std::vector<std::uint8_t> runtime::encodeCallBatch(
    const std::vector<std::vector<std::uint8_t>> &EncodedCalls) {
  assert(!EncodedCalls.empty() && "empty batch");
  assert(EncodedCalls.size() <= 0xFFFF && "batch count exceeds u16");
  ByteWriter W;
  W.u16(CallBatchMarker);
  W.u16(static_cast<std::uint16_t>(EncodedCalls.size()));
  for (const std::vector<std::uint8_t> &Bytes : EncodedCalls)
    W.lengthPrefixed(Bytes);
  return W.take();
}

bool runtime::decodeCallBatch(const CoordinationSpec &Spec,
                              unsigned NumProcesses,
                              const std::uint8_t *Data, std::size_t Len,
                              std::vector<WireCall> &Out) {
  Out.clear();
  ByteReader R(Data, Len);
  if (R.u16() != CallBatchMarker)
    return false;
  std::uint16_t Count = R.u16();
  for (unsigned I = 0; I < Count; ++I) {
    std::span<const std::uint8_t> Inner = R.lengthPrefixed();
    WireCall WC;
    if (!R.ok() ||
        !decodeCall(Spec, NumProcesses, Inner.data(), Inner.size(), WC))
      return false;
    Out.push_back(std::move(WC));
  }
  return R.ok();
}

bool runtime::isSummaryDelta(const std::uint8_t *Data, std::size_t Len) {
  return ByteReader(Data, Len).u16() == SummaryDeltaMarker;
}

std::vector<std::uint8_t>
runtime::encodeSummaryDelta(const SummaryDeltaFrame &F) {
  ByteWriter W;
  W.u16(SummaryDeltaMarker);
  W.u8(F.Group);
  W.u8(F.Full);
  W.u16(F.ChunkIdx);
  W.u16(F.ChunkCount);
  W.u64(F.FromSeq);
  W.u64(F.ToSeq);
  W.u32(F.Epoch);
  W.lengthPrefixed(F.Image);
  return W.take();
}

bool runtime::decodeSummaryDelta(const std::uint8_t *Data, std::size_t Len,
                                 SummaryDeltaFrame &Out) {
  ByteReader R(Data, Len);
  if (R.u16() != SummaryDeltaMarker)
    return false;
  Out.Group = R.u8();
  Out.Full = R.u8();
  Out.ChunkIdx = R.u16();
  Out.ChunkCount = R.u16();
  Out.FromSeq = R.u64();
  Out.ToSeq = R.u64();
  Out.Epoch = R.u32();
  std::span<const std::uint8_t> Image = R.lengthPrefixed();
  if (!R.ok() || Out.ChunkCount == 0 || Out.ChunkIdx >= Out.ChunkCount)
    return false;
  Out.Image.assign(Image.begin(), Image.end());
  return true;
}

std::vector<std::uint8_t> runtime::encodeFlushImage(const FlushImage &Img) {
  assert(Img.Summaries.size() <= 0xFF && "too many summary groups");
  ByteWriter W;
  W.u8(static_cast<std::uint8_t>(Img.Summaries.size()));
  for (const auto &[Group, Bytes] : Img.Summaries) {
    W.u8(Group);
    W.lengthPrefixed(Bytes);
  }
  assert(Img.Deltas.size() <= 0xFF && "too many delta frames");
  W.u8(static_cast<std::uint8_t>(Img.Deltas.size()));
  for (const std::vector<std::uint8_t> &Frame : Img.Deltas)
    W.lengthPrefixed(Frame);
  W.lengthPrefixed(Img.FreeRecord);
  return W.take();
}

bool runtime::decodeFlushImage(const std::uint8_t *Data, std::size_t Len,
                               FlushImage &Out) {
  Out.Summaries.clear();
  Out.Deltas.clear();
  Out.FreeRecord.clear();
  ByteReader R(Data, Len);
  auto Take = [&R](std::vector<std::uint8_t> &Into) {
    std::span<const std::uint8_t> Bytes = R.lengthPrefixed();
    Into.assign(Bytes.begin(), Bytes.end());
    return R.ok();
  };
  std::uint8_t K = R.u8();
  for (unsigned I = 0; I < K; ++I) {
    std::uint8_t Group = R.u8();
    Out.Summaries.emplace_back(Group, std::vector<std::uint8_t>());
    if (!Take(Out.Summaries.back().second))
      return false;
  }
  Out.Deltas.resize(R.u8());
  for (std::vector<std::uint8_t> &Frame : Out.Deltas)
    if (!Take(Frame))
      return false;
  return Take(Out.FreeRecord);
}

bool runtime::decodeCall(const CoordinationSpec &Spec,
                         unsigned NumProcesses, const std::uint8_t *Data,
                         std::size_t Len, WireCall &Out) {
  ByteReader R(Data, Len);
  if (!readCallBlock(R, Out.TheCall))
    return false;
  Out.BcastSeq = R.u64();
  Out.Epoch = R.u32();
  if (!R.ok() || Out.TheCall.Method >= Spec.numMethods())
    return false;
  // The dependency block size is implied by the method id (Section 4).
  const std::vector<MethodId> &DepMethods =
      Spec.dependencies(Out.TheCall.Method);
  Out.Deps.clear();
  for (ProcessId P = 0; P < NumProcesses; ++P) {
    for (MethodId U : DepMethods) {
      std::uint64_t N = R.u64();
      if (N > 0)
        Out.Deps.push_back(DepEntry{P, U, N});
    }
  }
  return R.ok();
}
