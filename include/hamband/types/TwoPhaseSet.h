//===- hamband/types/TwoPhaseSet.h - Two-phase set CRDT ---------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-phase set CRDT [81]: removals leave tombstones, so an element
/// can never be re-added (remove-wins). Because the tombstone set is
/// itself grow-only, *both* add and remove are summarizable set-unions:
/// a fully reducible object with two summarization groups whose methods
/// interact through the query (contains = added and not removed) while
/// their effects stay independent.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_TWOPHASESET_H
#define HAMBAND_TYPES_TWOPHASESET_H

#include "hamband/core/ObjectType.h"

#include <set>

namespace hamband {
namespace types {

/// State: the add-set and the tombstone set.
struct TwoPhaseSetState : StateBase<TwoPhaseSetState> {
  std::set<Value> Added;
  std::set<Value> Removed;

  bool operator==(const TwoPhaseSetState &O) const {
    return Added == O.Added && Removed == O.Removed;
  }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Two-phase set: add(e...) / remove(e...) [both reducible, separate
/// summarization groups], contains(e) [query].
class TwoPhaseSet : public ObjectType {
public:
  static constexpr MethodId Add = 0;
  static constexpr MethodId Remove = 1;
  static constexpr MethodId Contains = 2;

  TwoPhaseSet();

  std::string name() const override { return "two-phase-set"; }
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
  CoordinationSpec Spec;
  MethodInfo Methods[3];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_TWOPHASESET_H
