//===- types/GSet.cpp - Grow-only set CRDT ----------------------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/GSet.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::size_t GSetState::hashValue() const {
  std::size_t H = 0x51ed270b;
  for (Value V : Elems)
    H = hashCombine(H, std::hash<Value>()(V));
  return H;
}

std::string GSetState::str() const {
  std::ostringstream OS;
  OS << "gset{";
  bool FirstElem = true;
  for (Value V : Elems) {
    if (!FirstElem)
      OS << ',';
    OS << V;
    FirstElem = false;
  }
  OS << '}';
  return OS.str();
}

GSet::GSet(Mode M) : TheMode(M), Spec(3) {
  Methods[Add] = MethodInfo{"add", MethodKind::Update, 1};
  Methods[Contains] = MethodInfo{"contains", MethodKind::Query, 1};
  Methods[Size] = MethodInfo{"size", MethodKind::Query, 0};
  Spec.setQuery(Contains);
  Spec.setQuery(Size);
  if (TheMode == Mode::Summarized)
    Spec.setSumGroup(Add, 0);
  Spec.finalize();
}

const MethodInfo &GSet::method(MethodId M) const {
  assert(M < 3);
  return Methods[M];
}

StatePtr GSet::initialState() const { return std::make_unique<GSetState>(); }

bool GSet::invariant(const ObjectState &) const { return true; }

void GSet::apply(ObjectState &S, const Call &C) const {
  assert(C.Method == Add);
  auto &St = static_cast<GSetState &>(S);
  for (Value V : C.Args)
    St.Elems.insert(V);
}

Value GSet::query(const ObjectState &S, const Call &C) const {
  const auto &St = static_cast<const GSetState &>(S);
  if (C.Method == Contains) {
    assert(C.Args.size() == 1);
    return St.Elems.count(C.Args[0]) ? 1 : 0;
  }
  assert(C.Method == Size);
  return static_cast<Value>(St.Elems.size());
}

bool GSet::joinInto(Call &Into, const Call &Delta) const {
  if (TheMode != Mode::Summarized || Into.Method != Add ||
      Delta.Method != Add)
    return false;
  appendUnion(Into.Args, Delta.Args);
  Into.Issuer = Delta.Issuer;
  Into.Req = Delta.Req;
  return true;
}

Call GSet::randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                            sim::Rng &R) const {
  if (M == Contains)
    return Call(Contains, {R.uniformInt(0, 7)}, Issuer, Req);
  if (M == Size)
    return Call(Size, {}, Issuer, Req);
  // add() takes a set: usually one element, sometimes a small batch.
  std::vector<Value> Args = {R.uniformInt(0, 7)};
  while (Args.size() < 3 && R.bernoulli(0.3))
    Args.push_back(R.uniformInt(0, 7));
  return Call(Add, std::move(Args), Issuer, Req);
}

std::vector<Call> GSet::enumerateCalls(MethodId M, unsigned Bound) const {
  if (M != Add)
    return ObjectType::enumerateCalls(M, Bound);
  // Singletons plus overlapping batches: batches exercise the union
  // summarization, overlap exercises idempotence.
  return {Call(Add, {0}), Call(Add, {1}), Call(Add, {1, 2}),
          Call(Add, {0, 2})};
}
