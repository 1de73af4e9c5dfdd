//===- types/Counter.cpp - Replicated counter CRDT -------------------------=//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/Counter.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::string CounterState::str() const {
  std::ostringstream OS;
  OS << "counter{" << Total << "}";
  return OS.str();
}

Counter::Counter() : Spec(2) {
  Methods[Add] = MethodInfo{"add", MethodKind::Update, 1};
  Methods[Read] = MethodInfo{"read", MethodKind::Query, 0};
  Spec.setQuery(Read);
  Spec.setSumGroup(Add, 0);
  Spec.finalize();
}

const MethodInfo &Counter::method(MethodId M) const {
  assert(M < 2);
  return Methods[M];
}

StatePtr Counter::initialState() const {
  return std::make_unique<CounterState>();
}

bool Counter::invariant(const ObjectState &) const { return true; }

void Counter::apply(ObjectState &S, const Call &C) const {
  assert(C.Method == Add && C.Args.size() == 1);
  static_cast<CounterState &>(S).Total += C.Args[0];
}

Value Counter::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Read);
  (void)C;
  return static_cast<const CounterState &>(S).Total;
}

bool Counter::joinInto(Call &Into, const Call &Delta) const {
  if (Into.Method != Add || Delta.Method != Add)
    return false;
  Into.Args[0] += Delta.Args[0];
  Into.Issuer = Delta.Issuer;
  Into.Req = Delta.Req;
  return true;
}
