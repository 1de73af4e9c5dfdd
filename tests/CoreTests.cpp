//===- tests/CoreTests.cpp - WRDT core model tests ----------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/core/Verifier.h"
#include "hamband/types/Auction.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/Movie.h"
#include "hamband/types/ORSet.h"
#include "hamband/types/Schema.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::analysis;
using namespace hamband::types;

TEST(CoordinationSpec, SyncGroupsAreConnectedComponents) {
  CoordinationSpec S(5);
  S.addConflict(0, 1);
  S.addConflict(1, 2);
  S.addConflict(3, 3); // Self-loop forms its own group.
  S.finalize();
  ASSERT_EQ(S.numSyncGroups(), 2u);
  EXPECT_EQ(S.syncGroup(0), S.syncGroup(1));
  EXPECT_EQ(S.syncGroup(1), S.syncGroup(2));
  EXPECT_NE(S.syncGroup(0), S.syncGroup(3));
  EXPECT_FALSE(S.syncGroup(4).has_value());
}

TEST(CoordinationSpec, ConflictIsSymmetric) {
  CoordinationSpec S(3);
  S.addConflict(0, 2);
  S.finalize();
  EXPECT_TRUE(S.conflicts(0, 2));
  EXPECT_TRUE(S.conflicts(2, 0));
  EXPECT_FALSE(S.conflicts(0, 1));
  EXPECT_TRUE(S.isConflicting(0));
  EXPECT_FALSE(S.isConflicting(1));
}

TEST(CoordinationSpec, CategoriesFollowDefinition) {
  CoordinationSpec S(5);
  S.setQuery(4);
  S.addConflict(0, 0);          // 0: conflicting.
  S.setSumGroup(1, 0);          // 1: reducible (no deps, no conflicts).
  S.addDependency(2, 1);        // 2: dependent -> irreducible free.
  S.setSumGroup(3, 0);
  S.addDependency(3, 1);        // 3: summarizable but dependent.
  S.finalize();
  EXPECT_EQ(S.category(0), MethodCategory::Conflicting);
  EXPECT_EQ(S.category(1), MethodCategory::Reducible);
  EXPECT_EQ(S.category(2), MethodCategory::IrreducibleFree);
  EXPECT_EQ(S.category(3), MethodCategory::IrreducibleFree);
  EXPECT_EQ(S.category(4), MethodCategory::Query);
}

TEST(CoordinationSpec, DependenciesSortedAndDeduplicated) {
  CoordinationSpec S(4);
  S.addDependency(0, 3);
  S.addDependency(0, 1);
  S.addDependency(0, 3);
  S.finalize();
  EXPECT_EQ(S.dependencies(0), (std::vector<MethodId>{1, 3}));
  EXPECT_FALSE(S.isDependenceFree(0));
  EXPECT_TRUE(S.isDependenceFree(1));
}

TEST(CoordinationSpec, UpdateMethodsExcludeQueries) {
  CoordinationSpec S(3);
  S.setQuery(1);
  S.finalize();
  EXPECT_EQ(S.updateMethods(), (std::vector<MethodId>{0, 2}));
}

TEST(BankAccountSpec, MatchesFigure1) {
  BankAccount T;
  const CoordinationSpec &S = T.coordination();
  // Figure 1(b): the conflict graph has a self-loop on withdraw only.
  EXPECT_TRUE(S.conflicts(BankAccount::Withdraw, BankAccount::Withdraw));
  EXPECT_FALSE(S.conflicts(BankAccount::Deposit, BankAccount::Withdraw));
  EXPECT_FALSE(S.conflicts(BankAccount::Deposit, BankAccount::Deposit));
  // Figure 1(c): withdraw depends on deposit.
  EXPECT_EQ(S.dependencies(BankAccount::Withdraw),
            (std::vector<MethodId>{BankAccount::Deposit}));
  // Categories: deposit reducible, withdraw conflicting, balance query.
  EXPECT_EQ(S.category(BankAccount::Deposit), MethodCategory::Reducible);
  EXPECT_EQ(S.category(BankAccount::Withdraw),
            MethodCategory::Conflicting);
  EXPECT_EQ(S.category(BankAccount::Balance), MethodCategory::Query);
  EXPECT_EQ(S.numSyncGroups(), 1u);
}

TEST(SchemaSpec, ProjectManagementMatchesPaper) {
  ProjectManagement T;
  const CoordinationSpec &S = T.coordination();
  // addProject, deleteProject and worksOn form one synchronization group.
  EXPECT_EQ(S.numSyncGroups(), 1u);
  EXPECT_TRUE(S.syncGroup(TwoEntitySchema::AddA).has_value());
  EXPECT_EQ(S.syncGroup(TwoEntitySchema::AddA),
            S.syncGroup(TwoEntitySchema::Rel));
  // worksOn depends on addProject and addEmployee (foreign keys).
  EXPECT_EQ(S.dependencies(TwoEntitySchema::Rel),
            (std::vector<MethodId>{TwoEntitySchema::AddA,
                                   TwoEntitySchema::AddB}));
  // addEmployee is reducible.
  EXPECT_EQ(S.category(TwoEntitySchema::AddB), MethodCategory::Reducible);
}

TEST(MovieSpec, HasTwoSynchronizationGroups) {
  Movie T;
  const CoordinationSpec &S = T.coordination();
  ASSERT_EQ(S.numSyncGroups(), 2u);
  EXPECT_EQ(S.syncGroup(Movie::AddCustomer),
            S.syncGroup(Movie::DeleteCustomer));
  EXPECT_EQ(S.syncGroup(Movie::AddMovie), S.syncGroup(Movie::DeleteMovie));
  EXPECT_NE(S.syncGroup(Movie::AddCustomer),
            S.syncGroup(Movie::AddMovie));
  for (MethodId M = 0; M < 4; ++M)
    EXPECT_TRUE(S.dependencies(M).empty());
}

// -- Call-level relations (Section 3.2 definitions) --------------------------
//
// Each relation holds when the verifier finds no refutation over the
// reachable states at the default bound; conflict and dependency hold when
// it produces a witness.

struct BankOracle : ::testing::Test {
  BankAccount T;
  Verifier V{T};
  Call Dep1{BankAccount::Deposit, {1}};
  Call Dep5{BankAccount::Deposit, {5}};
  Call Wd1{BankAccount::Withdraw, {1}};
  Call Wd2{BankAccount::Withdraw, {2}};
};

TEST_F(BankOracle, DepositsAreInvariantSufficient) {
  EXPECT_FALSE(V.refuteInvariantSufficiency(Dep1));
  EXPECT_FALSE(V.refuteInvariantSufficiency(Dep5));
}

TEST_F(BankOracle, WithdrawIsNotInvariantSufficient) {
  EXPECT_TRUE(V.refuteInvariantSufficiency(Wd1));
  EXPECT_TRUE(V.refuteInvariantSufficiency(Wd2));
}

TEST_F(BankOracle, EverythingSCommutes) {
  // Both methods are additions on an integer: they all S-commute.
  EXPECT_FALSE(V.refuteSCommute(Dep1, Wd1));
  EXPECT_FALSE(V.refuteSCommute(Wd1, Wd2));
  EXPECT_FALSE(V.refuteSCommute(Dep1, Dep5));
}

TEST_F(BankOracle, WithdrawPRCommutesWithDeposit) {
  // P(s, wd) implies P(deposit(s), wd): depositing first only helps.
  EXPECT_FALSE(V.refutePRCommute(Wd1, Dep1));
}

TEST_F(BankOracle, WithdrawsPConflict) {
  // A permissible withdraw can become impermissible after another: at a
  // balance of 2 or 3, two withdraw(2) calls jointly overdraw.
  EXPECT_TRUE(V.refutePRCommute(Wd2, Wd2));
  EXPECT_FALSE(V.conflictWitness(Wd1, Wd2).empty());
  EXPECT_FALSE(V.conflictWitness(Wd2, Wd2).empty());
}

TEST_F(BankOracle, DepositWithdrawConcur) {
  EXPECT_TRUE(V.conflictWitness(Dep1, Wd1).empty());
  EXPECT_TRUE(V.conflictWitness(Dep1, Dep5).empty());
}

TEST_F(BankOracle, WithdrawDependsOnDeposit) {
  // P(deposit(s), wd) does not imply P(s, wd): the withdraw may rely on
  // the deposited amount.
  EXPECT_TRUE(V.refutePLCommute(Wd1, Dep1));
  EXPECT_FALSE(V.dependencyWitness(Wd1, Dep1).empty());
}

TEST_F(BankOracle, WithdrawDoesNotDependOnWithdraw) {
  // If wd is permissible after another withdraw, it was permissible
  // before it too.
  EXPECT_FALSE(V.refutePLCommute(Wd1, Wd2));
  EXPECT_TRUE(V.dependencyWitness(Wd1, Wd2).empty());
}

TEST_F(BankOracle, DepositIndependentOfEverything) {
  EXPECT_TRUE(V.dependencyWitness(Dep1, Wd1).empty());
  EXPECT_TRUE(V.dependencyWitness(Dep1, Dep5).empty());
}

TEST(SchemaOracle, AddDeleteSConflict) {
  ProjectManagement T;
  Verifier V(T);
  Call AddP(TwoEntitySchema::AddA, {0});
  Call DelP(TwoEntitySchema::DelA, {0});
  EXPECT_TRUE(V.refuteSCommute(AddP, DelP));
  EXPECT_FALSE(V.conflictWitness(AddP, DelP).empty());
  // Different keys commute and concur.
  Call DelOther(TwoEntitySchema::DelA, {1});
  EXPECT_FALSE(V.refuteSCommute(AddP, DelOther));
  EXPECT_TRUE(V.conflictWitness(AddP, DelOther).empty());
}

TEST(SchemaOracle, RelDependsOnEntityInserts) {
  ProjectManagement T;
  Verifier V(T);
  Call WorksOn(TwoEntitySchema::Rel, {0, 0}); // (employee 0, project 0)
  Call AddP(TwoEntitySchema::AddA, {0});
  Call AddE(TwoEntitySchema::AddB, {0});
  EXPECT_FALSE(V.dependencyWitness(WorksOn, AddP).empty());
  EXPECT_FALSE(V.dependencyWitness(WorksOn, AddE).empty());
}

TEST(AuctionOracle, RelationsMatchTheDesign) {
  Auction T;
  Verifier V(T);
  Call OpenA(Auction::Open, {0});
  Call BidA(Auction::Bid, {0, 5});
  Call CloseA(Auction::Close, {0});
  // close is invariant-sufficient (it records the current maximum).
  EXPECT_FALSE(V.refuteInvariantSufficiency(CloseA));
  // open is not (re-opening a closed auction breaks integrity), and bid
  // is not (unknown auction / beating a recorded winner).
  EXPECT_TRUE(V.refuteInvariantSufficiency(OpenA));
  EXPECT_TRUE(V.refuteInvariantSufficiency(BidA));
  // The group-forming conflicts.
  EXPECT_FALSE(V.conflictWitness(OpenA, CloseA).empty());
  EXPECT_FALSE(V.conflictWitness(BidA, CloseA).empty());
  // Two bids on one auction concur.
  Call BidB(Auction::Bid, {0, 7});
  EXPECT_TRUE(V.conflictWitness(BidA, BidB).empty());
  // bid depends on the open that precedes it.
  EXPECT_FALSE(V.dependencyWitness(BidA, OpenA).empty());
}

// -- Method-level relations the verifier witnesses ---------------------------

namespace {

using NamePairs = std::vector<std::pair<std::string, std::string>>;

/// The witnessed edges of a report, as (a, b) method-name pairs.
NamePairs witnessed(const std::vector<EdgeFinding> &Edges) {
  NamePairs Out;
  for (const EdgeFinding &F : Edges)
    if (F.Witnessed)
      Out.emplace_back(F.AName, F.BName);
  return Out;
}

/// The enumerated update calls of \p T at the default bound.
std::vector<Call> updateCalls(const ObjectType &T) {
  std::vector<Call> Out;
  for (MethodId M = 0; M < T.numMethods(); ++M)
    if (T.method(M).Kind == MethodKind::Update)
      for (Call &C : T.enumerateCalls(M, DefaultVerifyBound))
        Out.push_back(std::move(C));
  return Out;
}

} // namespace

TEST(InferredCoordination, MatrixIsSymmetric) {
  // c1 >< c2 iff c2 >< c1, call for call, for every registered type.
  for (const std::string &Name : registeredTypeNames()) {
    auto T = makeType(Name);
    Verifier V(*T);
    std::vector<Call> Calls = updateCalls(*T);
    for (const Call &A : Calls)
      for (const Call &B : Calls)
        EXPECT_EQ(V.conflictWitness(A, B).empty(),
                  V.conflictWitness(B, A).empty())
            << Name << " " << A.str() << " " << B.str();
  }
}

TEST(InferredCoordination, CounterIsFullyConcurrent) {
  VerifyReport R = verifyType(Counter());
  EXPECT_TRUE(witnessed(R.Conflicts).empty());
  EXPECT_TRUE(witnessed(R.Dependencies).empty());
}

TEST(InferredCoordination, BankMatchesDeclaredExactly) {
  VerifyReport R = verifyType(BankAccount());
  EXPECT_EQ(witnessed(R.Conflicts), (NamePairs{{"withdraw", "withdraw"}}));
  EXPECT_EQ(witnessed(R.Dependencies), (NamePairs{{"withdraw", "deposit"}}));
}

// -- Declared specs and state-machine laws (every registered type) -----------
//
// States are the verifier's reachable states at the default bound; calls
// are the enumerated alphabet.

class DeclaredSpecTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override {
    T = makeType(GetParam());
    V = std::make_unique<Verifier>(*T);
  }
  std::unique_ptr<ObjectType> T;
  std::unique_ptr<Verifier> V;
};

TEST_P(DeclaredSpecTest, DeclaredSpecCoversInferredRelations) {
  VerifyReport R = V->verify();
  for (const auto *Edges : {&R.Conflicts, &R.Dependencies})
    for (const EdgeFinding &F : *Edges)
      EXPECT_TRUE(!F.Witnessed || F.Declared)
          << GetParam() << ": " << F.AName << " -> " << F.BName
          << " is witnessed but not declared";
}

TEST_P(DeclaredSpecTest, SummarizationGroupsAreCorrect) {
  for (const std::string &Violation : V->verify().SummarizationViolations)
    ADD_FAILURE() << Violation;
}

TEST_P(DeclaredSpecTest, InitialStateSatisfiesInvariant) {
  EXPECT_TRUE(T->invariant(*T->initialState()));
}

TEST_P(DeclaredSpecTest, SampleStatesSatisfyInvariant) {
  ASSERT_GT(V->numStates(), 0u);
  EXPECT_TRUE(V->state(0).equals(*T->initialState()));
  for (std::size_t I = 0; I < V->numStates(); ++I)
    EXPECT_TRUE(T->invariant(V->state(I))) << V->state(I).str();
}

TEST_P(DeclaredSpecTest, StatesCloneEqualAndHashConsistently) {
  for (std::size_t I = 0; I < V->numStates(); ++I) {
    const ObjectState &S = V->state(I);
    StatePtr C = S.clone();
    EXPECT_TRUE(S.equals(*C));
    EXPECT_EQ(S.hash(), C->hash());
  }
}

TEST_P(DeclaredSpecTest, ApplyIsDeterministic) {
  for (const Call &C : updateCalls(*T))
    for (std::size_t I = 0; I < V->numStates(); ++I)
      EXPECT_TRUE(T->applyCopy(V->state(I), C)
                      ->equals(*T->applyCopy(V->state(I), C)))
          << GetParam() << " " << C.str() << " on " << V->state(I).str();
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, DeclaredSpecTest,
    ::testing::ValuesIn(hamband::registeredTypeNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

TEST(TypeRegistry, TypesWithoutInvariantKeepItUnderEveryCall) {
  // permissible() skips the clone-and-check for these types, so every
  // enumerated update must in fact leave I(σ) true.
  for (const std::string &Name : registeredTypeNames()) {
    auto T = makeType(Name);
    if (T->hasInvariant())
      continue;
    Verifier V(*T);
    std::vector<Call> Calls = updateCalls(*T);
    for (std::size_t I = 0; I < V.numStates(); ++I)
      for (const Call &C : Calls) {
        const ObjectState &S = V.state(I);
        EXPECT_TRUE(T->invariant(*T->applyCopy(S, C)))
            << Name << " " << C.str() << " on " << S.str();
        EXPECT_TRUE(T->permissible(S, C)) << Name << " " << C.str();
      }
  }
}

TEST(TypeRegistry, AllNamesResolve) {
  for (const std::string &Name : registeredTypeNames()) {
    EXPECT_TRUE(isTypeRegistered(Name));
    auto T = makeType(Name);
    ASSERT_NE(T, nullptr);
    EXPECT_GT(T->numMethods(), 0u);
    EXPECT_TRUE(T->coordination().finalized());
  }
  EXPECT_FALSE(isTypeRegistered("no-such-type"));
}

TEST(TypeRegistry, MethodIdLookup) {
  auto T = makeType("bank-account");
  EXPECT_EQ(T->methodId("deposit"), BankAccount::Deposit);
  EXPECT_EQ(T->methodId("withdraw"), BankAccount::Withdraw);
  EXPECT_EQ(T->methodId("balance"), BankAccount::Balance);
}

TEST(CallTest, EqualityAndPrinting) {
  Call A(1, {2, 3}, 0, 7);
  Call B(1, {2, 3}, 0, 7);
  Call C(1, {2, 4}, 0, 7);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A.str(), "m1(2,3)@p0#7");
}
