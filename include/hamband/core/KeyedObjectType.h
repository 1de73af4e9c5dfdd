//===- hamband/core/KeyedObjectType.h - Keyed multi-object lift -*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lifts a single-object class to a keyed multi-object class: the state is
/// a map from object keys to independent substates of the base class, and
/// every call carries its target key as the first argument. A shard of a
/// keyed HambandCluster (runtime/HambandCluster.h) replicates one keyed
/// object that stands for all the base objects hashed onto that shard.
///
/// The lift preserves the base coordination relations method-for-method
/// (conservative across keys: two withdraws conflict even on different
/// keys of the same shard -- cross-key independence comes from placing the
/// keys on different shards, not from weakening the spec). Summarization
/// groups are dropped: a keyed summary would have to fold per key and no
/// longer fits a fixed summary slot, so base-reducible methods travel the
/// irreducible conflict-free path. That is semantics-preserving because
/// reduce is faithful (apply(reduce(c,c')) == apply c then c').
///
/// Permissibility is evaluated per substate: the integrity invariant of
/// the keyed class is the conjunction of the base invariant over all
/// substates, and a call can only perturb the substate of its own key, so
/// permissible()/invariantAfter() clone one substate instead of the map.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_CORE_KEYEDOBJECTTYPE_H
#define HAMBAND_CORE_KEYEDOBJECTTYPE_H

#include "hamband/core/ObjectType.h"

#include <map>

namespace hamband {

/// State of a keyed object: key -> base substate. A key absent from the
/// map denotes an untouched object in its initial state; apply()
/// materializes the substate of the touched key, so replicas that applied
/// the same calls have the same key set and structural equality is also
/// semantic equality.
class KeyedState : public ObjectState {
public:
  std::map<Value, StatePtr> Objects;

  std::unique_ptr<ObjectState> clone() const override;
  bool equals(const ObjectState &O) const override;
  std::size_t hash() const override;
  std::string str() const override;

  /// The substate of \p Key, or nullptr when untouched (== initial).
  const ObjectState *object(Value Key) const;
};

/// The keyed lift of a base ObjectType. Does not own the base type.
class KeyedObjectType : public ObjectType {
public:
  /// \p SampleKeyDomain bounds the keys enumerateCalls() and
  /// randomClientCall() generate (the runtime accepts any key).
  explicit KeyedObjectType(const ObjectType &Base,
                           Value SampleKeyDomain = 2);

  const ObjectType &base() const { return Base; }

  // -- Key plumbing -------------------------------------------------------

  /// Rewrites base-form call \p Inner to target \p Key (prepends the key
  /// argument; Issuer/Req ride along).
  static Call keyCall(Value Key, Call Inner);

  /// The key of keyed call \p C (its first argument).
  static Value callKey(const Call &C);

  /// Strips the key argument, recovering the base-form call.
  static Call stripKey(const Call &C);

  // -- ObjectType ---------------------------------------------------------
  std::string name() const override { return "keyed-" + Base.name(); }
  unsigned numMethods() const override { return Base.numMethods(); }
  const MethodInfo &method(MethodId M) const override { return Methods[M]; }
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return Base.hasInvariant(); }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  Call prepare(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool concurrentlyIssuable(const Call &A, const Call &B) const override;
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override;

  bool permissible(const ObjectState &S, const Call &C) const override;
  bool invariantAfter(const ObjectState &S, const std::deque<Call> &Pending,
                      const Call &C) const override;

private:
  /// Clone of \p Key's substate, or a fresh initial substate.
  StatePtr substateCopy(const ObjectState &S, Value Key) const;

  const ObjectType &Base;
  Value SampleKeyDomain;
  CoordinationSpec Spec;
  std::vector<MethodInfo> Methods;
};

} // namespace hamband

#endif // HAMBAND_CORE_KEYEDOBJECTTYPE_H
