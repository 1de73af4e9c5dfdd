//===- types/TwoPhaseSet.cpp - Two-phase set CRDT -----------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/TwoPhaseSet.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::size_t TwoPhaseSetState::hashValue() const {
  std::size_t H = 0x1f83d9ab;
  for (Value V : Added)
    H = hashCombine(H, std::hash<Value>()(V));
  H = hashCombine(H, 0x17);
  for (Value V : Removed)
    H = hashCombine(H, std::hash<Value>()(V));
  return H;
}

std::string TwoPhaseSetState::str() const {
  std::ostringstream OS;
  OS << "2p{add:";
  for (Value V : Added)
    OS << V << ' ';
  OS << "tomb:";
  for (Value V : Removed)
    OS << V << ' ';
  OS << '}';
  return OS.str();
}

TwoPhaseSet::TwoPhaseSet() : Spec(3) {
  Methods[Add] = MethodInfo{"add", MethodKind::Update, 1};
  Methods[Remove] = MethodInfo{"remove", MethodKind::Update, 1};
  Methods[Contains] = MethodInfo{"contains", MethodKind::Query, 1};
  Spec.setQuery(Contains);
  Spec.setSumGroup(Add, 0);
  Spec.setSumGroup(Remove, 1);
  Spec.finalize();
}

const MethodInfo &TwoPhaseSet::method(MethodId M) const {
  assert(M < 3);
  return Methods[M];
}

StatePtr TwoPhaseSet::initialState() const {
  return std::make_unique<TwoPhaseSetState>();
}

bool TwoPhaseSet::invariant(const ObjectState &) const { return true; }

void TwoPhaseSet::apply(ObjectState &S, const Call &C) const {
  auto &St = static_cast<TwoPhaseSetState &>(S);
  std::set<Value> &Target = C.Method == Add ? St.Added : St.Removed;
  assert(C.Method == Add || C.Method == Remove);
  for (Value V : C.Args)
    Target.insert(V);
}

Value TwoPhaseSet::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Contains && C.Args.size() == 1);
  const auto &St = static_cast<const TwoPhaseSetState &>(S);
  return St.Added.count(C.Args[0]) && !St.Removed.count(C.Args[0]) ? 1
                                                                   : 0;
}

bool TwoPhaseSet::joinInto(Call &Into, const Call &Delta) const {
  if (Into.Method != Delta.Method ||
      (Into.Method != Add && Into.Method != Remove))
    return false;
  appendUnion(Into.Args, Delta.Args);
  Into.Issuer = Delta.Issuer;
  Into.Req = Delta.Req;
  return true;
}

Call TwoPhaseSet::randomClientCall(MethodId M, ProcessId Issuer,
                                   RequestId Req, sim::Rng &R) const {
  if (M == Contains)
    return Call(Contains, {R.uniformInt(0, 7)}, Issuer, Req);
  std::vector<Value> Args = {R.uniformInt(0, 7)};
  while (Args.size() < 3 && R.bernoulli(0.25))
    Args.push_back(R.uniformInt(0, 7));
  return Call(M, std::move(Args), Issuer, Req);
}

std::vector<Call> TwoPhaseSet::enumerateCalls(MethodId M,
                                              unsigned Bound) const {
  if (M == Contains)
    return ObjectType::enumerateCalls(M, Bound);
  // Singletons plus overlapping batches: batches exercise the union
  // summarization, overlap exercises idempotence.
  return {Call(M, {0}), Call(M, {1}), Call(M, {1, 2}), Call(M, {0, 2})};
}
