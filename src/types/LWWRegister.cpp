//===- types/LWWRegister.cpp - Last-writer-wins register --------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/LWWRegister.h"

#include <cassert>
#include <sstream>
#include <tuple>

using namespace hamband;
using namespace hamband::types;

std::string LWWState::str() const {
  std::ostringstream OS;
  OS << "lww{" << Val << "@" << Ts << "." << Tie << "}";
  return OS.str();
}

LWWRegister::LWWRegister() : Spec(2) {
  Methods[Write] = MethodInfo{"write", MethodKind::Update, 3};
  Methods[Read] = MethodInfo{"read", MethodKind::Query, 0};
  Spec.setQuery(Read);
  Spec.setSumGroup(Write, 0);
  Spec.finalize();
}

const MethodInfo &LWWRegister::method(MethodId M) const {
  assert(M < 2);
  return Methods[M];
}

StatePtr LWWRegister::initialState() const {
  return std::make_unique<LWWState>();
}

bool LWWRegister::invariant(const ObjectState &) const { return true; }

void LWWRegister::apply(ObjectState &S, const Call &C) const {
  assert(C.Method == Write && C.Args.size() == 3);
  auto &St = static_cast<LWWState &>(S);
  if (std::tie(C.Args[1], C.Args[2]) > std::tie(St.Ts, St.Tie)) {
    St.Val = C.Args[0];
    St.Ts = C.Args[1];
    St.Tie = C.Args[2];
  }
}

Value LWWRegister::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Read);
  (void)C;
  return static_cast<const LWWState &>(S).Val;
}

bool LWWRegister::joinInto(Call &Into, const Call &Delta) const {
  if (Into.Method != Write || Delta.Method != Write)
    return false;
  if (std::tie(Delta.Args[1], Delta.Args[2]) >
      std::tie(Into.Args[1], Into.Args[2]))
    Into = Delta;
  return true;
}

Call LWWRegister::randomClientCall(MethodId M, ProcessId Issuer,
                                   RequestId Req, sim::Rng &R) const {
  if (M == Read)
    return Call(Read, {}, Issuer, Req);
  // The globally unique request id is a convenient monotone timestamp and
  // the issuer breaks any residual tie.
  return Call(Write,
              {R.uniformInt(0, 1000), static_cast<Value>(Req),
               static_cast<Value>(Issuer)},
              Issuer, Req);
}

std::vector<Call> LWWRegister::enumerateCalls(MethodId M,
                                              unsigned Bound) const {
  if (M == Read)
    return ObjectType::enumerateCalls(M, Bound);
  // Writes carry globally unique (ts, tie) stamps; enumerate Bound
  // distinct timestamps plus one stamp sharing the highest timestamp and
  // differing only in the tiebreak (the order-sensitive case).
  std::vector<Call> Out;
  const Value N = static_cast<Value>(Bound < 2 ? 2 : Bound);
  for (Value I = 1; I <= N; ++I)
    Out.emplace_back(Write, std::vector<Value>{10 + I, I, 0});
  Out.emplace_back(Write, std::vector<Value>{99, N, 1});
  return Out;
}
