//===- types/BankAccount.cpp - Bank account WRDT -----------------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/BankAccount.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::string AccountState::str() const {
  std::ostringstream OS;
  OS << "account{" << Balance << "}";
  return OS.str();
}

BankAccount::BankAccount() : Spec(3) {
  Methods[Deposit] = MethodInfo{"deposit", MethodKind::Update, 1};
  Methods[Withdraw] = MethodInfo{"withdraw", MethodKind::Update, 1};
  Methods[Balance] = MethodInfo{"balance", MethodKind::Query, 0};
  Spec.setQuery(Balance);
  Spec.setSumGroup(Deposit, 0);
  // Figure 1(b): two withdrawals P-conflict (each may zero the balance).
  Spec.addConflict(Withdraw, Withdraw);
  // Figure 1(c): a withdraw may rely on preceding deposits.
  Spec.addDependency(Withdraw, Deposit);
  Spec.finalize();
}

const MethodInfo &BankAccount::method(MethodId M) const {
  assert(M < 3);
  return Methods[M];
}

StatePtr BankAccount::initialState() const {
  return std::make_unique<AccountState>();
}

bool BankAccount::invariant(const ObjectState &S) const {
  return static_cast<const AccountState &>(S).Balance >= 0;
}

void BankAccount::apply(ObjectState &S, const Call &C) const {
  assert(C.Args.size() == 1 && C.Args[0] >= 0 && "amounts are non-negative");
  auto &St = static_cast<AccountState &>(S);
  if (C.Method == Deposit) {
    St.Balance += C.Args[0];
    return;
  }
  assert(C.Method == Withdraw);
  St.Balance -= C.Args[0];
}

Value BankAccount::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Balance);
  (void)C;
  return static_cast<const AccountState &>(S).Balance;
}

bool BankAccount::joinInto(Call &Into, const Call &Delta) const {
  if (Into.Method != Deposit || Delta.Method != Deposit)
    return false;
  Into.Args[0] += Delta.Args[0];
  Into.Issuer = Delta.Issuer;
  Into.Req = Delta.Req;
  return true;
}

Call BankAccount::randomClientCall(MethodId M, ProcessId Issuer,
                                   RequestId Req, sim::Rng &R) const {
  if (M == Balance)
    return Call(Balance, {}, Issuer, Req);
  // Deposits skew larger than withdrawals so that random workloads keep a
  // healthy fraction of withdrawals locally permissible.
  Value Amount = M == Deposit ? R.uniformInt(1, 10) : R.uniformInt(1, 5);
  return Call(M, {Amount}, Issuer, Req);
}

std::vector<Call> BankAccount::enumerateCalls(MethodId M,
                                              unsigned Bound) const {
  if (M == Balance)
    return ObjectType::enumerateCalls(M, Bound);
  // Every positive amount up to the bound: with path length <= Bound this
  // covers every balance the relations can distinguish (a zero amount is
  // a no-op and adds nothing).
  std::vector<Call> Out;
  for (Value A = 1; A <= static_cast<Value>(std::max(Bound, 2u)); ++A)
    Out.emplace_back(M, std::vector<Value>{A});
  return Out;
}
