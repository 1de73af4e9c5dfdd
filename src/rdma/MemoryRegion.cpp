//===- rdma/MemoryRegion.cpp - Registered memory region ------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/rdma/MemoryRegion.h"

#include <sys/mman.h>

#include <cassert>
#include <cstdlib>
#include <new>
#include <utility>

using namespace hamband::rdma;

namespace {

// Concurrent-mode copy loops. Loads are acquire, stores are release, and
// both walk the range in increasing address order in the widest aligned
// units available. On x86-64 these compile to plain MOVs plus compiler
// barriers; what they buy is (a) no data races under ThreadSanitizer or
// the C++ memory model, and (b) the guarantee that when a reader observes
// the LAST byte of a bulk write, every earlier byte of that write is
// visible too -- which is exactly the contract the ring's trailing canary
// byte needs.

bool aligned8(const void *P) {
  return (reinterpret_cast<std::uintptr_t>(P) & 7u) == 0;
}

void atomicCopyOut(void *DstV, const std::uint8_t *Src, std::size_t Len) {
  std::uint8_t *Dst = static_cast<std::uint8_t *>(DstV);
  std::size_t I = 0;
  while (I < Len && !aligned8(Src + I)) {
    Dst[I] = __atomic_load_n(Src + I, __ATOMIC_ACQUIRE);
    ++I;
  }
  for (; I + 8 <= Len; I += 8) {
    std::uint64_t W = __atomic_load_n(
        reinterpret_cast<const std::uint64_t *>(Src + I), __ATOMIC_ACQUIRE);
    std::memcpy(Dst + I, &W, 8);
  }
  for (; I < Len; ++I)
    Dst[I] = __atomic_load_n(Src + I, __ATOMIC_ACQUIRE);
}

void atomicCopyIn(std::uint8_t *Dst, const void *SrcV, std::size_t Len) {
  const std::uint8_t *Src = static_cast<const std::uint8_t *>(SrcV);
  std::size_t I = 0;
  while (I < Len && !aligned8(Dst + I)) {
    __atomic_store_n(Dst + I, Src[I], __ATOMIC_RELEASE);
    ++I;
  }
  for (; I + 8 <= Len; I += 8) {
    std::uint64_t W;
    std::memcpy(&W, Src + I, 8);
    __atomic_store_n(reinterpret_cast<std::uint64_t *>(Dst + I), W,
                     __ATOMIC_RELEASE);
  }
  for (; I < Len; ++I)
    __atomic_store_n(Dst + I, Src[I], __ATOMIC_RELEASE);
}

} // namespace

MemoryRegion::MemoryRegion(std::size_t Size, bool Concurrent)
    : NumBytes(Size), Concurrent(Concurrent) {
  if (Size == 0)
    return; // mmap rejects an empty mapping.
  void *P = mmap(nullptr, Size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Bytes = static_cast<std::uint8_t *>(P);
}

MemoryRegion::~MemoryRegion() {
  if (Bytes)
    munmap(Bytes, NumBytes);
}

MemoryRegion::MemoryRegion(MemoryRegion &&Other) noexcept
    : Bytes(std::exchange(Other.Bytes, nullptr)),
      NumBytes(std::exchange(Other.NumBytes, 0)),
      Brk(std::exchange(Other.Brk, 0)), Concurrent(Other.Concurrent) {}

MemoryRegion &MemoryRegion::operator=(MemoryRegion &&Other) noexcept {
  std::swap(Bytes, Other.Bytes);
  std::swap(NumBytes, Other.NumBytes);
  std::swap(Brk, Other.Brk);
  std::swap(Concurrent, Other.Concurrent);
  return *this;
}

MemOffset MemoryRegion::alloc(std::size_t Size, std::size_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 && "non power-of-two align");
  std::size_t Off = (Brk + Align - 1) & ~(Align - 1);
  if (Off + Size > NumBytes) {
    assert(false && "memory region exhausted; increase region size");
    std::abort();
  }
  Brk = Off + Size;
  return Off;
}

void MemoryRegion::read(MemOffset Off, void *Dst, std::size_t Len) const {
  assert(Off + Len <= NumBytes && "remote read out of bounds");
  if (Len == 0)
    return; // Dst may be an empty buffer's null data().
  if (Concurrent)
    atomicCopyOut(Dst, Bytes + Off, Len);
  else
    std::memcpy(Dst, Bytes + Off, Len);
}

void MemoryRegion::write(MemOffset Off, const void *Src, std::size_t Len) {
  assert(Off + Len <= NumBytes && "remote write out of bounds");
  if (Len == 0)
    return; // Src may be an empty buffer's null data().
  if (Concurrent)
    atomicCopyIn(Bytes + Off, Src, Len);
  else
    std::memcpy(Bytes + Off, Src, Len);
}

void MemoryRegion::readStable(MemOffset Off, void *Dst,
                              std::size_t Len) const {
  assert(Off + Len <= NumBytes && "stable read out of bounds");
  if (!Concurrent || Len <= 8) {
    read(Off, Dst, Len);
    return;
  }
  // Double-read until two consecutive passes agree. Bounded: a live writer
  // finishes its (bounded-size) slot update in finite time, and after the
  // last concurrent store two passes must agree. The bound below only
  // limits wasted work against a pathological stream of back-to-back
  // overwrites; validation of the returned snapshot is the caller's job.
  std::vector<std::uint8_t> Prev(Len);
  atomicCopyOut(Prev.data(), Bytes + Off, Len);
  for (int Attempt = 0; Attempt < 64; ++Attempt) {
    atomicCopyOut(Dst, Bytes + Off, Len);
    if (std::memcmp(Dst, Prev.data(), Len) == 0)
      return;
    std::memcpy(Prev.data(), Dst, Len);
  }
}

std::uint64_t MemoryRegion::readU64(MemOffset Off) const {
  std::uint64_t V = 0;
  if (Concurrent && Off + 8 <= NumBytes && aligned8(Bytes + Off))
    return __atomic_load_n(
        reinterpret_cast<const std::uint64_t *>(Bytes + Off), __ATOMIC_ACQUIRE);
  read(Off, &V, sizeof(V));
  return V;
}

void MemoryRegion::writeU64(MemOffset Off, std::uint64_t V) {
  if (Concurrent && Off + 8 <= NumBytes && aligned8(Bytes + Off)) {
    __atomic_store_n(reinterpret_cast<std::uint64_t *>(Bytes + Off), V,
                     __ATOMIC_RELEASE);
    return;
  }
  write(Off, &V, sizeof(V));
}

std::uint8_t MemoryRegion::readU8(MemOffset Off) const {
  std::uint8_t V = 0;
  read(Off, &V, 1);
  return V;
}

void MemoryRegion::writeU8(MemOffset Off, std::uint8_t V) {
  write(Off, &V, 1);
}

std::vector<std::uint8_t> MemoryRegion::slice(MemOffset Off,
                                              std::size_t Len) const {
  assert(Off + Len <= NumBytes && "slice out of bounds");
  std::vector<std::uint8_t> Out(Len);
  read(Off, Out.data(), Len);
  return Out;
}

std::vector<std::uint8_t> MemoryRegion::sliceStable(MemOffset Off,
                                                    std::size_t Len) const {
  assert(Off + Len <= NumBytes && "slice out of bounds");
  std::vector<std::uint8_t> Out(Len);
  readStable(Off, Out.data(), Len);
  return Out;
}

void MemoryRegion::zero(MemOffset Off, std::size_t Len) {
  assert(Off + Len <= NumBytes && "zero out of bounds");
  if (Concurrent) {
    std::vector<std::uint8_t> Zeros(Len, 0);
    atomicCopyIn(Bytes + Off, Zeros.data(), Len);
  } else {
    std::memset(Bytes + Off, 0, Len);
  }
}
