//===- hamband/core/SymMatrix.h - Symmetric boolean matrix ------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense row-major symmetric boolean matrix with bounds-checked
/// accessors. The conflict relation of Section 3.3 is symmetric by
/// definition, and CoordinationSpec stores it in this shape.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_CORE_SYMMATRIX_H
#define HAMBAND_CORE_SYMMATRIX_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace hamband {

/// Dense N x N boolean matrix kept symmetric by construction: set()
/// writes both (A, B) and (B, A). Out-of-range indices assert.
class SymmetricMatrix {
public:
  SymmetricMatrix() = default;
  explicit SymmetricMatrix(unsigned N)
      : N(N), Cells(static_cast<std::size_t>(N) * N, 0) {}

  unsigned size() const { return N; }

  bool get(unsigned A, unsigned B) const { return Cells[index(A, B)] != 0; }

  void set(unsigned A, unsigned B, bool V = true) {
    Cells[index(A, B)] = Cells[index(B, A)] = V ? 1 : 0;
  }

  /// True when any cell in row \p A (equivalently column \p A) is set.
  bool anyInRow(unsigned A) const {
    for (unsigned B = 0; B < N; ++B)
      if (Cells[index(A, B)])
        return true;
    return false;
  }

private:
  std::size_t index(unsigned A, unsigned B) const {
    assert(A < N && B < N && "symmetric matrix index out of range");
    return static_cast<std::size_t>(A) * N + B;
  }

  unsigned N = 0;
  std::vector<char> Cells;
};

} // namespace hamband

#endif // HAMBAND_CORE_SYMMATRIX_H
