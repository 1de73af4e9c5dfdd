//===- hamband/types/ORSet.h - Observed-remove set CRDT ---------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observed-remove set CRDT [81]. Element presence is represented by
/// unique tags; following the op-based pattern, client calls are rewritten
/// at the issuing replica by prepare():
///
///   add(e)    -> addTag(e, t)           with a globally unique tag t
///   remove(e) -> removeTags(e, k, t...) with the k tags observed locally
///
/// A removeTags call only erases the exact tags it observed, so it
/// S-commutes with every concurrently issuable call. It is *dependent* on
/// add: the dependency map machinery delivers it only after the adds it
/// observed, which is precisely the causal-delivery requirement of the
/// op-based ORSet. Both methods are irreducible conflict-free (buffered) —
/// the paper uses the ORSet in Figures 9 and 12.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_ORSET_H
#define HAMBAND_TYPES_ORSET_H

#include "hamband/core/ObjectType.h"

#include <set>
#include <utility>

namespace hamband {
namespace types {

/// State: the set of live (element, tag) pairs.
struct ORSetState : StateBase<ORSetState> {
  std::set<std::pair<Value, Value>> Entries;

  bool operator==(const ORSetState &O) const { return Entries == O.Entries; }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Observed-remove set: add(e) / remove(e) [irreducible conflict-free
/// updates], contains(e) [query].
class ORSet : public ObjectType {
public:
  static constexpr MethodId Add = 0;
  static constexpr MethodId Remove = 1;
  static constexpr MethodId Contains = 2;

  ORSet();

  std::string name() const override { return "orset"; }
  unsigned numMethods() const override { return 3; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return false; }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  Call prepare(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool concurrentlyIssuable(const Call &A, const Call &B) const override;
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;

  /// Builds the globally unique tag of a client call.
  static Value makeTag(ProcessId Issuer, RequestId Req) {
    return (static_cast<Value>(Issuer) << 40) |
           static_cast<Value>(Req & ((1ull << 40) - 1));
  }

private:
  CoordinationSpec Spec;
  MethodInfo Methods[3];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_ORSET_H
