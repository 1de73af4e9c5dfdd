//===- hamband/runtime/RequestIdSet.h - Exact compact id set ----*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conflicting path's dedup memory: an exact set of request ids kept as
/// sorted 64-id bitmap words, 16 B each, in one vector. Request ids rise
/// with time, so an insert usually lands in the last word or appends one;
/// ids that share a word share its 16 B, and ids 64 or more apart cost one
/// word each.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_REQUESTIDSET_H
#define HAMBAND_RUNTIME_REQUESTIDSET_H

#include "hamband/core/Call.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hamband {
namespace runtime {

/// Exact, never approximate: count(Id) holds only for an id inserted and
/// not erased since.
class RequestIdSet {
public:
  bool count(RequestId Id) const {
    auto It = lowerBound(Words, Id >> 6);
    return It != Words.end() && It->Base == Id >> 6 && (It->Mask & bit(Id));
  }
  /// Amortized O(1) at or above the last word; below it, a binary search,
  /// and a new word shifts the words above it.
  void insert(RequestId Id) {
    std::uint64_t Base = Id >> 6;
    if (Words.empty() || Words.back().Base < Base) {
      Words.push_back({Base, bit(Id)});
      return;
    }
    auto It = lowerBound(Words, Base);
    if (It->Base != Base)
      It = Words.insert(It, {Base, 0});
    It->Mask |= bit(Id);
  }
  /// Drops \p Id, and its word once no id is left in it.
  void erase(RequestId Id) {
    auto It = lowerBound(Words, Id >> 6);
    if (It == Words.end() || It->Base != Id >> 6)
      return;
    It->Mask &= ~bit(Id);
    if (It->Mask == 0)
      Words.erase(It);
  }
  /// The words held, 16 B each; spare vector capacity is not counted.
  std::size_t bytes() const { return Words.size() * sizeof(Word); }

private:
  struct Word {
    std::uint64_t Base; ///< Id >> 6 of every id in the word.
    std::uint64_t Mask; ///< Bit Id & 63 per member; never 0.
  };
  static std::uint64_t bit(RequestId Id) {
    return std::uint64_t{1} << (Id & 63);
  }
  /// The first word of \p Ws whose base is not below \p Base.
  template <typename VecT>
  static auto lowerBound(VecT &Ws, std::uint64_t Base)
      -> decltype(Ws.begin()) {
    return std::lower_bound(
        Ws.begin(), Ws.end(), Base,
        [](const Word &W, std::uint64_t B) { return W.Base < B; });
  }

  std::vector<Word> Words; // Sorted by Base.
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_REQUESTIDSET_H
