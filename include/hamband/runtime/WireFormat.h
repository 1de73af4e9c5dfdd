//===- hamband/runtime/WireFormat.h - On-the-wire encoding -----*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level serialization used by the runtime. Per Section 4, a call is
/// assigned a unique id, paired with its variable-sized dependency arrays
/// and serialized into a byte stream before it is remotely written. The
/// dependency-array length is *not* stored redundantly: its size is
/// derived from the method identifier in the call header, exactly as the
/// paper describes ("the size of dependency arrays in the second element
/// is decided based on the identifier of the method in the first
/// element").
///
/// The F ring from one node to another carries four kinds of record, told
/// apart by their leading u16: a bare call (a method id), a call batch
/// (CallBatchMarker), a summary-delta frame (SummaryDeltaMarker) and
/// conflicting-call mail (MailMarker).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_WIREFORMAT_H
#define HAMBAND_RUNTIME_WIREFORMAT_H

#include "hamband/core/ObjectType.h"
#include "hamband/semantics/RdmaSemantics.h"

#include <cstdint>
#include <span>
#include <vector>

namespace hamband {
namespace runtime {

/// Little-endian append-only byte writer.
class ByteWriter {
public:
  std::vector<std::uint8_t> take() { return std::move(Bytes); }
  std::size_t size() const { return Bytes.size(); }

  void u8(std::uint8_t V) { Bytes.push_back(V); }
  void u16(std::uint16_t V);
  void u32(std::uint32_t V);
  void u64(std::uint64_t V);
  void i64(std::int64_t V) { u64(static_cast<std::uint64_t>(V)); }
  void bytes(const std::vector<std::uint8_t> &V) {
    Bytes.insert(Bytes.end(), V.begin(), V.end());
  }
  /// u32 length | bytes.
  void lengthPrefixed(const std::vector<std::uint8_t> &V) {
    u32(static_cast<std::uint32_t>(V.size()));
    bytes(V);
  }

private:
  std::vector<std::uint8_t> Bytes;
};

/// Bounds-checked little-endian byte reader.
class ByteReader {
public:
  ByteReader(const std::uint8_t *Data, std::size_t Len)
      : Data(Data), Len(Len) {}
  explicit ByteReader(const std::vector<std::uint8_t> &Bytes)
      : Data(Bytes.data()), Len(Bytes.size()) {}

  bool ok() const { return !Failed; }
  std::size_t remaining() const { return Len - Pos; }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// Reads a u32 length and the bytes it counts, returning a view of them
  /// (empty, and !ok(), when the buffer ends first).
  std::span<const std::uint8_t> lengthPrefixed();

private:
  bool take(std::size_t N);

  const std::uint8_t *Data;
  std::size_t Len;
  std::size_t Pos = 0;
  bool Failed = false;
};

/// Writes the call block that ring entries, mail, summary
/// images and the reconfiguration log share:
///   u16 method | u16 argc | u32 issuer | u64 req | i64 args[argc]
void writeCallBlock(ByteWriter &W, const Call &C);

/// Reads a writeCallBlock block into \p Out. False when the buffer ends
/// early; an argc needing more bytes than remain fails before any
/// argument is read.
bool readCallBlock(ByteReader &R, Call &Out);

/// A decoded buffer entry: the call, its dependency map, and the
/// per-issuer broadcast sequence number used for reliable-broadcast
/// deduplication.
struct WireCall {
  Call TheCall;
  semantics::DepMap Deps;
  std::uint64_t BcastSeq = 0;
  /// Membership epoch the record was issued in (docs/reconfig.md).
  /// Receivers drop records whose epoch differs from their installed
  /// membership; fixed-membership clusters leave this 0 everywhere.
  std::uint32_t Epoch = 0;
};

/// The dependency array of a call of \p U: the nonzero A(q, u') per Dep(u).
semantics::DepMap projectDeps(const CoordinationSpec &Spec,
                              const std::vector<std::vector<std::uint64_t>> &A,
                              MethodId U);

/// True when \p A covers every count in \p D.
bool depsSatisfied(const std::vector<std::vector<std::uint64_t>> &A,
                   const semantics::DepMap &D);

/// Serializes a call with its dependency arrays. The layout is:
///   writeCallBlock block | u64 bcastSeq | u32 epoch |
///   u64 depCounts[|P| * |Dep(method)|]
/// The dependency block length is implied by the method id and the
/// process count, as in the paper.
std::vector<std::uint8_t> encodeCall(const CoordinationSpec &Spec,
                                     unsigned NumProcesses,
                                     const WireCall &WC);

/// Decodes a call serialized by encodeCall. Returns false on a malformed
/// buffer.
bool decodeCall(const CoordinationSpec &Spec, unsigned NumProcesses,
                const std::uint8_t *Data, std::size_t Len, WireCall &Out);

/// Builds the dense dependency block (|P| x |Dep(u)| counts) from a sparse
/// DepMap, ordered process-major with Dep(u) sorted ascending.
std::vector<std::uint64_t> denseDeps(const CoordinationSpec &Spec,
                                     unsigned NumProcesses, MethodId U,
                                     const semantics::DepMap &Deps);

/// Marker distinguishing a call-batch record from a single encoded call:
/// it occupies the u16 method slot of the header and is never a valid
/// method id (decodeCall rejects any id >= numMethods()).
inline constexpr std::uint16_t CallBatchMarker = 0xFFFF;

/// True when \p Data starts with the call-batch marker.
bool isCallBatch(const std::uint8_t *Data, std::size_t Len);

/// Serializes several already-encoded calls (encodeCall outputs) into one
/// length-prefixed batch record:
///   u16 CallBatchMarker | u16 count | count x (u32 len | bytes)
/// A batch is the unit shipped per ring doorbell / backup-slot stage on
/// the batched broadcast hot path.
std::vector<std::uint8_t>
encodeCallBatch(const std::vector<std::vector<std::uint8_t>> &EncodedCalls);

/// Decodes a batch record into its calls, in issue order. False on a
/// malformed buffer or when any inner call fails decodeCall.
bool decodeCallBatch(const CoordinationSpec &Spec, unsigned NumProcesses,
                     const std::uint8_t *Data, std::size_t Len,
                     std::vector<WireCall> &Out);

/// What one flush stages, as ONE backup-slot image so reliable-broadcast
/// recovery covers the flush from one slot read (staging summaries and
/// the free batch separately would make the single slot self-overwriting).
/// Every ship stages this format, a one-call unbatched flush included. It
/// carries the free batch record if that fits the slot, and per dirty
/// group the full summary image when that still fits, otherwise the
/// group's single delta frame, otherwise nothing.
/// Layout: u8 k | k x (u8 group | u32 len | encodeSummary bytes) |
///         u8 d | d x (u32 len | encodeSummaryDelta bytes) |
///         u32 freeLen | encodeCallBatch bytes (freeLen == 0: none)
struct FlushImage {
  /// (summarization group, encodeSummary output) per group staged whole.
  std::vector<std::pair<std::uint8_t, std::vector<std::uint8_t>>> Summaries;
  /// encodeSummaryDelta output per group whose full image outgrew the slot.
  std::vector<std::vector<std::uint8_t>> Deltas;
  /// encodeCallBatch output, or empty when the flush carried no free calls.
  std::vector<std::uint8_t> FreeRecord;
};

/// encodeFlushImage's output is FlushImageBaseBytes (the two entry counts
/// and the free record's length) plus the free record, plus one entry per
/// staged summary or delta frame. A flush budgets the backup slot with
/// these before it encodes.
inline constexpr std::size_t FlushImageBaseBytes = 6;
inline std::size_t flushImageSummaryBytes(std::size_t SummaryLen) {
  return 5 + SummaryLen; // u8 group | u32 len | bytes
}
inline std::size_t flushImageDeltaBytes(std::size_t FrameLen) {
  return 4 + FrameLen; // u32 len | bytes
}

std::vector<std::uint8_t> encodeFlushImage(const FlushImage &Img);
bool decodeFlushImage(const std::uint8_t *Data, std::size_t Len,
                      FlushImage &Out);

/// Marker distinguishing a summary-delta frame from a single encoded call
/// or a call batch on the F-rings: like CallBatchMarker it occupies the
/// u16 method slot and is never a valid method id.
inline constexpr std::uint16_t SummaryDeltaMarker = 0xFFFE;

/// A delta-state summary frame shipped over the F-rings
/// (docs/deltas.md). A *delta* frame carries the fold of the source's
/// reducible calls in the half-open version interval (FromSeq, ToSeq] of
/// one summarization group; the receiver joins it into its cached image
/// when FromSeq matches the version it has seen. A *full* frame
/// (Full = 1) carries chunk ChunkIdx of ChunkCount of a complete summary
/// image at version ToSeq (the answer to a request, a delta too big for
/// one record, or the classic slot-overflow fallback); the receiver
/// reassembles all chunks and installs the image atomically. A *request*
/// (Full = FullRequest) travels the other way, from a receiver that found
/// a gap to the group's source: FromSeq is the version the receiver holds
/// and the image is empty.
struct SummaryDeltaFrame {
  /// The Full value of a full-image request.
  static constexpr std::uint8_t FullRequest = 2;

  std::uint8_t Group = 0;
  /// 0: delta over (FromSeq, ToSeq]; 1: full-image chunk at ToSeq;
  /// FullRequest: a request for the group's full image.
  std::uint8_t Full = 0;
  std::uint16_t ChunkIdx = 0;
  std::uint16_t ChunkCount = 1;
  std::uint64_t FromSeq = 0;
  std::uint64_t ToSeq = 0;
  /// Membership epoch of the shipping source (docs/reconfig.md).
  std::uint32_t Epoch = 0;
  /// encodeSummary output: the delta call (or full-image chunk call) plus
  /// the source's per-method applied counts; Image.Seq == ToSeq.
  std::vector<std::uint8_t> Image;
};

/// True when \p Data starts with the summary-delta marker.
bool isSummaryDelta(const std::uint8_t *Data, std::size_t Len);

/// Fixed frame overhead preceding the embedded summary image (ship-path
/// size budgeting).
inline constexpr std::size_t SummaryDeltaHeaderBytes =
    2 + 1 + 1 + 2 + 2 + 8 + 8 + 4 + 4;

/// Layout: u16 marker | u8 group | u8 full | u16 chunkIdx | u16 chunkCnt |
///         u64 fromSeq | u64 toSeq | u32 epoch | u32 len |
///         encodeSummary bytes
std::vector<std::uint8_t> encodeSummaryDelta(const SummaryDeltaFrame &F);
bool decodeSummaryDelta(const std::uint8_t *Data, std::size_t Len,
                        SummaryDeltaFrame &Out);

/// Marker distinguishing conflicting-call mail from the other F-ring
/// records: like CallBatchMarker it occupies the u16 method slot and is
/// never a valid method id.
inline constexpr std::uint16_t MailMarker = 0xFFFD;

/// True when \p Data starts with the mail marker.
bool isMail(const std::uint8_t *Data, std::size_t Len);

/// Kinds of mail (leader redirection of conflicting calls).
enum class MailKind : std::uint8_t {
  /// A client's conflicting call forwarded to the group leader.
  ConfRequest = 1,
  /// The leader's completion response to the origin node.
  ConfResponse = 2,
};

/// A conflicting-call request or answer, shipped over the F ring from its
/// sender to its receiver; the ring names the sender.
struct MailMsg {
  MailKind Kind = MailKind::ConfRequest;
  RequestId ReqId = 0;
  std::uint8_t Ok = 0;
  /// Membership epoch of the sender; requests carrying a stale epoch are
  /// answered with a Retry response (docs/reconfig.md).
  std::uint32_t Epoch = 0;
  Call TheCall; // Meaningful for requests only.
};

/// Layout: u16 MailMarker | u8 kind | u64 req | u8 ok | u32 epoch |
///         writeCallBlock block
std::vector<std::uint8_t> encodeMail(const MailMsg &Msg);

/// Decodes mail; false on malformed bytes or a record without MailMarker.
bool decodeMail(const std::uint8_t *Data, std::size_t Len, MailMsg &Out);

/// Serializes a summary-slot image: the folded summary call plus the
/// per-method applied counts of the source process for the group.
/// Layout: u64 seq | u16 method | u16 argc | u32 issuer | u64 req |
///         i64 args[argc] | u16 k | k x (u16 method, u64 count)
struct SummaryImage {
  std::uint64_t Seq = 0;
  Call Summary;
  std::vector<std::pair<MethodId, std::uint64_t>> AppliedCounts;
};

std::vector<std::uint8_t> encodeSummary(const SummaryImage &Img);
bool decodeSummary(const std::uint8_t *Data, std::size_t Len,
                   SummaryImage &Out);

/// encodeSummary's output size for an image with \p NumArgs summary
/// arguments and \p NumCounts applied counts (sizes huge images without
/// encoding them).
inline std::size_t summaryImageBytes(std::size_t NumArgs,
                                     std::size_t NumCounts) {
  return 24 + 8 * NumArgs + 2 + 10 * NumCounts;
}

/// A summary slot S[g][src] holds one encodeSummary image, overwritten
/// whole: u32 len | image | zeros | u64 seq trailer | u8 canary (= 1).
/// The trailer restates the image's leading seq. Slot writes land in
/// increasing address order, so a torn snapshot pairs a new header with
/// an old trailer and fails to decode, as does a clear canary.
inline constexpr std::size_t SummarySlotSeqOffset = 4;
inline bool fitsSummarySlot(std::size_t ImageBytes, std::size_t SlotBytes) {
  return ImageBytes + 4 + 8 + 1 <= SlotBytes;
}
std::vector<std::uint8_t>
encodeSummarySlot(const std::vector<std::uint8_t> &Image,
                  std::size_t SlotBytes);
bool decodeSummarySlot(const std::uint8_t *Slot, std::size_t SlotBytes,
                       SummaryImage &Out);

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_WIREFORMAT_H
