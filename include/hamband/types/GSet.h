//===- hamband/types/GSet.h - Grow-only set CRDT ----------------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grow-only set CRDT [81]. Following Section 2 of the paper, the
/// `add` method takes a *set* of elements, so two adds summarize to the
/// add of their union and the method is reducible. The paper's Figure 9
/// additionally benchmarks a buffered variant ("here, we use an
/// implementation that uses buffers instead of summaries"), which this
/// class reproduces with GSet::Mode::Buffered: the summarization group is
/// withheld, demoting `add` to irreducible conflict-free.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_GSET_H
#define HAMBAND_TYPES_GSET_H

#include "hamband/core/ObjectType.h"

#include <set>

namespace hamband {
namespace types {

/// State: the set of elements added so far.
struct GSetState : StateBase<GSetState> {
  std::set<Value> Elems;

  bool operator==(const GSetState &O) const { return Elems == O.Elems; }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Grow-only set: add(e1..ek) [update], contains(e) and size() [queries].
class GSet : public ObjectType {
public:
  /// Whether adds propagate as summaries (reducible) or via buffers.
  enum class Mode { Summarized, Buffered };

  static constexpr MethodId Add = 0;
  static constexpr MethodId Contains = 1;
  static constexpr MethodId Size = 2;

  explicit GSet(Mode M = Mode::Summarized);

  std::string name() const override {
    return TheMode == Mode::Summarized ? "gset" : "gset-buffered";
  }
  unsigned numMethods() const override { return 3; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return false; }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool joinInto(Call &Into, const Call &Delta) const override;
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override;

private:
  Mode TheMode;
  CoordinationSpec Spec;
  MethodInfo Methods[3];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_GSET_H
