//===- hamband/types/PNCounter.h - Increment/decrement counter --*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PN-Counter CRDT [81]: independent increment and decrement methods.
/// Both are reducible, but into *separate* summarization groups, so each
/// process replicates two summary slots per peer -- the "summarization
/// groups" generalization of Section 2 ("it might be possible to
/// summarize only separate subsets of methods which we call summarization
/// groups"). This is the only way the multi-group summary paths get
/// exercised by a type whose groups never mix.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_PNCOUNTER_H
#define HAMBAND_TYPES_PNCOUNTER_H

#include "hamband/core/ObjectType.h"

namespace hamband {
namespace types {

/// State: separate positive and negative tallies (value = P - N).
struct PNCounterState : StateBase<PNCounterState> {
  Value Incs = 0;
  Value Decs = 0;

  bool operator==(const PNCounterState &O) const {
    return Incs == O.Incs && Decs == O.Decs;
  }
  std::size_t hashValue() const {
    return hashCombine(std::hash<Value>()(Incs),
                       std::hash<Value>()(Decs));
  }
  std::string str() const override;
};

/// PN-Counter: increment(n) and decrement(n) [reducible, separate
/// summarization groups], value() [query].
class PNCounter : public ObjectType {
public:
  static constexpr MethodId Increment = 0;
  static constexpr MethodId Decrement = 1;
  static constexpr MethodId ValueOf = 2;

  PNCounter();

  std::string name() const override { return "pn-counter"; }
  unsigned numMethods() const override { return 3; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return false; }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool joinInto(Call &Into, const Call &Delta) const override;
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override;

private:
  CoordinationSpec Spec;
  MethodInfo Methods[3];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_PNCOUNTER_H
