//===- hamband/rdma/MemoryRegion.h - Registered memory region --*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A node's registered RDMA memory: a flat, bounds-checked byte array with
/// little-endian integer accessors and a bump allocator that hands out
/// offsets for protocol structures (rings, summary slots, counters, ...).
/// Remote peers address this memory by (node, offset), exactly like an
/// (rkey, addr) pair addresses an ibverbs memory region.
///
/// The bytes are one private anonymous mapping of the region's size,
/// owned by the region (which is therefore move-only) and unmapped when
/// it is destroyed. The mapping reads as zeros from the start, but the
/// kernel backs a page with memory only when it is first written, so
/// building a cluster costs no zero-fill and the parts of the layout a
/// run never touches (rings of unused categories, spare slots) cost no
/// resident memory. The bounds asserts are the only guard at its edges:
/// the mapping has no redzone, and a page's tail past size() is
/// addressable.
///
/// A region can be constructed in *concurrent* mode (the shm transport
/// does this): every accessor then uses relaxed-size atomic element
/// accesses -- acquire loads, release stores, issued in increasing address
/// order -- so that cross-thread one-sided access is free of data races
/// and the last byte of a bulk write publishes everything before it. See
/// docs/transport.md for the full memory-ordering argument. The default
/// (simulator) mode keeps the plain memcpy fast path.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RDMA_MEMORYREGION_H
#define HAMBAND_RDMA_MEMORYREGION_H

#include <cstdint>
#include <cstring>
#include <vector>

namespace hamband {
namespace rdma {

/// Byte offset within a node's registered memory.
using MemOffset = std::uint64_t;

/// A node's registered, remotely accessible memory.
class MemoryRegion {
public:
  /// Maps \p Size zero bytes; throws std::bad_alloc when the mapping fails.
  explicit MemoryRegion(std::size_t Size, bool Concurrent = false);
  ~MemoryRegion();

  MemoryRegion(MemoryRegion &&Other) noexcept;
  MemoryRegion &operator=(MemoryRegion &&Other) noexcept;
  MemoryRegion(const MemoryRegion &) = delete;
  MemoryRegion &operator=(const MemoryRegion &) = delete;

  std::size_t size() const { return NumBytes; }

  /// True when accessors use atomic element accesses (shm transport).
  bool concurrent() const { return Concurrent; }

  /// Bump-allocates \p Size bytes aligned to \p Align; returns the offset.
  /// Asserts (and aborts) on exhaustion -- region sizing is a configuration
  /// decision, not a runtime condition. NOT thread-safe: layout is carved
  /// out by the driver before any node thread runs.
  MemOffset alloc(std::size_t Size, std::size_t Align = 8);

  /// Bytes remaining in the allocator.
  std::size_t remaining() const { return NumBytes - Brk; }

  /// Copies \p Len bytes starting at \p Off into \p Dst.
  void read(MemOffset Off, void *Dst, std::size_t Len) const;

  /// Copies \p Len bytes from \p Src into the region at \p Off.
  void write(MemOffset Off, const void *Src, std::size_t Len);

  /// Like read(), but in concurrent mode re-reads until two consecutive
  /// passes return identical bytes, yielding a plausible point snapshot of
  /// a multi-word slot that a concurrent writer may be overwriting. The
  /// caller must still validate the snapshot (canary/sequence), since a
  /// writer stalled mid-update makes any double-read stabilize.
  void readStable(MemOffset Off, void *Dst, std::size_t Len) const;

  /// Reads a little-endian uint64 at \p Off.
  std::uint64_t readU64(MemOffset Off) const;

  /// Writes a little-endian uint64 at \p Off.
  void writeU64(MemOffset Off, std::uint64_t V);

  /// Reads a single byte.
  std::uint8_t readU8(MemOffset Off) const;

  /// Writes a single byte.
  void writeU8(MemOffset Off, std::uint8_t V);

  /// Returns a copy of the byte range [Off, Off+Len).
  std::vector<std::uint8_t> slice(MemOffset Off, std::size_t Len) const;

  /// Like slice(), but snapshotted via readStable().
  std::vector<std::uint8_t> sliceStable(MemOffset Off, std::size_t Len) const;

  /// Zero-fills [Off, Off+Len).
  void zero(MemOffset Off, std::size_t Len);

private:
  std::uint8_t *Bytes = nullptr; // Null for a zero-size region.
  std::size_t NumBytes = 0;
  std::size_t Brk = 0;
  bool Concurrent = false;
};

} // namespace rdma
} // namespace hamband

#endif // HAMBAND_RDMA_MEMORYREGION_H
