//===- hamband/types/BankAccount.h - Bank account WRDT ----------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The running example of the paper (Section 2, Figures 1 and 2): a bank
/// account with the integrity property balance >= 0.
///
///  - deposit(a) is invariant-sufficient, S-commutes with everything and
///    summarizes (deposit(a)+deposit(b) = deposit(a+b)): *reducible*.
///  - withdraw(a) P-conflicts with withdraw (two permissible withdrawals
///    can jointly overdraft) and is dependent on deposit (it may rely on
///    freshly deposited funds): *conflicting*, with Dep = {deposit}.
///  - balance() is a query.
///
/// The conflict graph is exactly Figure 1(b) (a self-loop on withdraw) and
/// the dependency graph Figure 1(c).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_BANKACCOUNT_H
#define HAMBAND_TYPES_BANKACCOUNT_H

#include "hamband/core/ObjectType.h"

namespace hamband {
namespace types {

/// State: the balance. Stays well-defined (possibly negative) even for
/// impermissible applications; the invariant reports the violation.
struct AccountState : StateBase<AccountState> {
  Value Balance = 0;

  bool operator==(const AccountState &O) const {
    return Balance == O.Balance;
  }
  std::size_t hashValue() const { return std::hash<Value>()(Balance); }
  std::string str() const override;
};

/// Replicated bank account: deposit(a) [reducible], withdraw(a)
/// [conflicting, depends on deposit], balance() [query].
class BankAccount : public ObjectType {
public:
  static constexpr MethodId Deposit = 0;
  static constexpr MethodId Withdraw = 1;
  static constexpr MethodId Balance = 2;

  BankAccount();

  std::string name() const override { return "bank-account"; }
  unsigned numMethods() const override { return 3; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool joinInto(Call &Into, const Call &Delta) const override;
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override;

private:
  CoordinationSpec Spec;
  MethodInfo Methods[3];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_BANKACCOUNT_H
