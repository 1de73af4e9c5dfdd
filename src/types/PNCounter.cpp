//===- types/PNCounter.cpp - Increment/decrement counter ----------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/PNCounter.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::string PNCounterState::str() const {
  std::ostringstream OS;
  OS << "pn{+" << Incs << ",-" << Decs << "}";
  return OS.str();
}

PNCounter::PNCounter() : Spec(3) {
  Methods[Increment] = MethodInfo{"increment", MethodKind::Update, 1};
  Methods[Decrement] = MethodInfo{"decrement", MethodKind::Update, 1};
  Methods[ValueOf] = MethodInfo{"value", MethodKind::Query, 0};
  Spec.setQuery(ValueOf);
  Spec.setSumGroup(Increment, 0);
  Spec.setSumGroup(Decrement, 1);
  Spec.finalize();
}

const MethodInfo &PNCounter::method(MethodId M) const {
  assert(M < 3);
  return Methods[M];
}

StatePtr PNCounter::initialState() const {
  return std::make_unique<PNCounterState>();
}

bool PNCounter::invariant(const ObjectState &) const { return true; }

void PNCounter::apply(ObjectState &S, const Call &C) const {
  assert(C.Args.size() == 1 && C.Args[0] >= 0);
  auto &St = static_cast<PNCounterState &>(S);
  if (C.Method == Increment)
    St.Incs += C.Args[0];
  else
    St.Decs += C.Args[0];
}

Value PNCounter::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == ValueOf);
  (void)C;
  const auto &St = static_cast<const PNCounterState &>(S);
  return St.Incs - St.Decs;
}

bool PNCounter::joinInto(Call &Into, const Call &Delta) const {
  // Each group is closed under summarization separately; cross-group
  // pairs are rejected.
  if (Into.Method != Delta.Method ||
      (Into.Method != Increment && Into.Method != Decrement))
    return false;
  Into.Args[0] += Delta.Args[0];
  Into.Issuer = Delta.Issuer;
  Into.Req = Delta.Req;
  return true;
}

Call PNCounter::randomClientCall(MethodId M, ProcessId Issuer,
                                 RequestId Req, sim::Rng &R) const {
  if (M == ValueOf)
    return Call(ValueOf, {}, Issuer, Req);
  return Call(M, {R.uniformInt(1, 9)}, Issuer, Req);
}
