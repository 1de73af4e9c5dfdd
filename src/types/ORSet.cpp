//===- types/ORSet.cpp - Observed-remove set CRDT ---------------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/ORSet.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::size_t ORSetState::hashValue() const {
  std::size_t H = 0x7a3fc21d;
  for (const auto &[E, T] : Entries) {
    H = hashCombine(H, std::hash<Value>()(E));
    H = hashCombine(H, std::hash<Value>()(T));
  }
  return H;
}

std::string ORSetState::str() const {
  std::ostringstream OS;
  OS << "orset{";
  bool FirstEntry = true;
  for (const auto &[E, T] : Entries) {
    if (!FirstEntry)
      OS << ',';
    OS << E << ':' << T;
    FirstEntry = false;
  }
  OS << '}';
  return OS.str();
}

ORSet::ORSet() : Spec(3) {
  Methods[Add] = MethodInfo{"add", MethodKind::Update, 1};
  Methods[Remove] = MethodInfo{"remove", MethodKind::Update, 1};
  Methods[Contains] = MethodInfo{"contains", MethodKind::Query, 1};
  Spec.setQuery(Contains);
  // removeTags must be delivered after the adds whose tags it observed.
  Spec.addDependency(Remove, Add);
  Spec.finalize();
}

const MethodInfo &ORSet::method(MethodId M) const {
  assert(M < 3);
  return Methods[M];
}

StatePtr ORSet::initialState() const {
  return std::make_unique<ORSetState>();
}

bool ORSet::invariant(const ObjectState &) const { return true; }

void ORSet::apply(ObjectState &S, const Call &C) const {
  auto &St = static_cast<ORSetState &>(S);
  if (C.Method == Add) {
    assert(C.Args.size() == 2 && "add must be prepared (element, tag)");
    St.Entries.insert({C.Args[0], C.Args[1]});
    return;
  }
  assert(C.Method == Remove && C.Args.size() >= 2 &&
         "remove must be prepared (element, count, tags...)");
  Value Elem = C.Args[0];
  std::size_t Count = static_cast<std::size_t>(C.Args[1]);
  assert(C.Args.size() == 2 + Count && "malformed removeTags call");
  for (std::size_t I = 0; I < Count; ++I)
    St.Entries.erase({Elem, C.Args[2 + I]});
}

Value ORSet::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Contains && C.Args.size() == 1);
  const auto &St = static_cast<const ORSetState &>(S);
  auto It = St.Entries.lower_bound({C.Args[0], INT64_MIN});
  return (It != St.Entries.end() && It->first == C.Args[0]) ? 1 : 0;
}

Call ORSet::prepare(const ObjectState &S, const Call &C) const {
  if (C.Method == Add) {
    if (C.Args.size() == 2)
      return C; // Already prepared.
    assert(C.Args.size() == 1);
    Call Out = C;
    Out.Args.push_back(makeTag(C.Issuer, C.Req));
    return Out;
  }
  if (C.Method == Remove) {
    if (C.Args.size() >= 2)
      return C; // Already prepared.
    assert(C.Args.size() == 1);
    const auto &St = static_cast<const ORSetState &>(S);
    Call Out(Remove, {C.Args[0], 0}, C.Issuer, C.Req);
    for (auto It = St.Entries.lower_bound({C.Args[0], INT64_MIN});
         It != St.Entries.end() && It->first == C.Args[0]; ++It)
      Out.Args.push_back(It->second);
    Out.Args[1] = static_cast<Value>(Out.Args.size() - 2);
    return Out;
  }
  return C;
}

/// Returns true when \p RemoveCall (a prepared removeTags) observed the tag
/// of \p AddCall (a prepared addTag).
static bool removeObservedAdd(const Call &RemoveCall, const Call &AddCall) {
  if (RemoveCall.Args.size() < 2 || AddCall.Args.size() != 2)
    return false;
  if (RemoveCall.Args[0] != AddCall.Args[0])
    return false;
  std::size_t Count = static_cast<std::size_t>(RemoveCall.Args[1]);
  for (std::size_t I = 0; I < Count && 2 + I < RemoveCall.Args.size(); ++I)
    if (RemoveCall.Args[2 + I] == AddCall.Args[1])
      return true;
  return false;
}

bool ORSet::concurrentlyIssuable(const Call &A, const Call &B) const {
  // A remove that observed a tag is causally after the add that created
  // it; those two calls can never race.
  if (A.Method == Add && B.Method == Remove)
    return !removeObservedAdd(B, A);
  if (A.Method == Remove && B.Method == Add)
    return !removeObservedAdd(A, B);
  return true;
}

std::vector<Call> ORSet::enumerateCalls(MethodId M, unsigned Bound) const {
  if (M != Add && M != Remove)
    return ObjectType::enumerateCalls(M, Bound);
  // Prepared effect calls over two elements and the unique tags the adds
  // mint; removes cover every observed-tag subset per element, including
  // the empty observation (remove of an absent element).
  if (M == Add)
    return {Call(Add, {0, 100}), Call(Add, {1, 101}), Call(Add, {0, 102})};
  return {
      Call(Remove, {0, 1, 100}),  Call(Remove, {0, 1, 102}),
      Call(Remove, {0, 2, 100, 102}), Call(Remove, {1, 1, 101}),
      Call(Remove, {1, 0}),
  };
}
