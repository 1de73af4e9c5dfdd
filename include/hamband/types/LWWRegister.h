//===- hamband/types/LWWRegister.h - Last-writer-wins register --*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The last-writer-wins register CRDT [81]: write(v, ts, tie) keeps the
/// value with the lexicographically largest (timestamp, tiebreak). Writes
/// S-commute because the merge is a deterministic maximum, and two writes
/// summarize to the larger one, so the method is reducible. Used in
/// Figure 8.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_LWWREGISTER_H
#define HAMBAND_TYPES_LWWREGISTER_H

#include "hamband/core/ObjectType.h"

namespace hamband {
namespace types {

/// Register state: current value plus its (timestamp, tiebreak) stamp.
struct LWWState : StateBase<LWWState> {
  Value Val = 0;
  Value Ts = 0;
  Value Tie = 0;

  bool operator==(const LWWState &O) const {
    return Val == O.Val && Ts == O.Ts && Tie == O.Tie;
  }
  std::size_t hashValue() const {
    std::size_t H = std::hash<Value>()(Val);
    H = hashCombine(H, std::hash<Value>()(Ts));
    return hashCombine(H, std::hash<Value>()(Tie));
  }
  std::string str() const override;
};

/// Last-writer-wins register: write(v, ts, tie) [reducible], read [query].
///
/// Callers must use globally unique (ts, tie) stamps (the workload uses
/// the issuing process id as the tiebreak), otherwise two writes with an
/// identical stamp but different values would not commute.
class LWWRegister : public ObjectType {
public:
  static constexpr MethodId Write = 0;
  static constexpr MethodId Read = 1;

  LWWRegister();

  std::string name() const override { return "lww-register"; }
  unsigned numMethods() const override { return 2; }
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
  MethodInfo Methods[2];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_LWWREGISTER_H
