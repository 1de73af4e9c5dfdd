//===- tests/CoreTests.cpp - WRDT core model tests ----------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/Analysis.h"
#include "hamband/core/TypeRegistry.h"
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

// -- Call-level relation oracle (Section 3.2 definitions) -------------------

struct BankOracle : ::testing::Test {
  BankAccount T;
  CallRelationOracle O{T};
  Call Dep1{BankAccount::Deposit, {1}};
  Call Dep5{BankAccount::Deposit, {5}};
  Call Wd1{BankAccount::Withdraw, {1}};
  Call Wd2{BankAccount::Withdraw, {2}};
};

TEST_F(BankOracle, DepositsAreInvariantSufficient) {
  EXPECT_TRUE(O.invariantSufficient(Dep1));
  EXPECT_TRUE(O.invariantSufficient(Dep5));
}

TEST_F(BankOracle, WithdrawIsNotInvariantSufficient) {
  EXPECT_FALSE(O.invariantSufficient(Wd1));
}

TEST_F(BankOracle, EverythingSCommutes) {
  // Both methods are additions on an integer: they all S-commute.
  EXPECT_TRUE(O.sCommute(Dep1, Wd1));
  EXPECT_TRUE(O.sCommute(Wd1, Wd2));
  EXPECT_TRUE(O.sCommute(Dep1, Dep5));
}

TEST_F(BankOracle, WithdrawPRCommutesWithDeposit) {
  // P(s, wd) implies P(deposit(s), wd): depositing first only helps.
  EXPECT_TRUE(O.prCommutes(Wd1, Dep1));
}

TEST_F(BankOracle, WithdrawsPConflict) {
  // A permissible withdraw can become impermissible after another.
  EXPECT_FALSE(O.prCommutes(Wd2, Wd2));
  EXPECT_TRUE(O.conflict(Wd1, Wd2));
}

TEST_F(BankOracle, DepositWithdrawConcur) {
  EXPECT_FALSE(O.conflict(Dep1, Wd1));
  EXPECT_FALSE(O.conflict(Dep1, Dep5));
}

TEST_F(BankOracle, WithdrawDependsOnDeposit) {
  // P(deposit(s), wd) does not imply P(s, wd): the withdraw may rely on
  // the deposited amount.
  EXPECT_FALSE(O.plCommutes(Wd1, Dep1));
  EXPECT_TRUE(O.dependent(Wd1, Dep1));
}

TEST_F(BankOracle, WithdrawDoesNotDependOnWithdraw) {
  // If wd is permissible after another withdraw, it was permissible
  // before it too.
  EXPECT_TRUE(O.plCommutes(Wd1, Wd2));
  EXPECT_FALSE(O.dependent(Wd1, Wd2));
}

TEST_F(BankOracle, DepositIndependentOfEverything) {
  EXPECT_FALSE(O.dependent(Dep1, Wd1));
  EXPECT_FALSE(O.dependent(Dep1, Dep5));
}

TEST(SchemaOracle, AddDeleteSConflict) {
  ProjectManagement T;
  CallRelationOracle O(T);
  Call AddP(TwoEntitySchema::AddA, {0});
  Call DelP(TwoEntitySchema::DelA, {0});
  EXPECT_FALSE(O.sCommute(AddP, DelP));
  EXPECT_TRUE(O.conflict(AddP, DelP));
  // Different keys commute and concur.
  Call DelOther(TwoEntitySchema::DelA, {1});
  EXPECT_TRUE(O.sCommute(AddP, DelOther));
  EXPECT_FALSE(O.conflict(AddP, DelOther));
}

TEST(SchemaOracle, RelDependsOnEntityInserts) {
  ProjectManagement T;
  CallRelationOracle O(T);
  Call WorksOn(TwoEntitySchema::Rel, {0, 0}); // (employee 0, project 0)
  Call AddP(TwoEntitySchema::AddA, {0});
  Call AddE(TwoEntitySchema::AddB, {0});
  EXPECT_TRUE(O.dependent(WorksOn, AddP));
  EXPECT_TRUE(O.dependent(WorksOn, AddE));
}

TEST(AuctionOracle, RelationsMatchTheDesign) {
  Auction T;
  CallRelationOracle O(T);
  Call OpenA(Auction::Open, {0});
  Call BidA(Auction::Bid, {0, 5});
  Call CloseA(Auction::Close, {0});
  // close is invariant-sufficient (it records the current maximum).
  EXPECT_TRUE(O.invariantSufficient(CloseA));
  // open is not (re-opening a closed auction breaks integrity), and bid
  // is not (unknown auction / beating a recorded winner).
  EXPECT_FALSE(O.invariantSufficient(OpenA));
  EXPECT_FALSE(O.invariantSufficient(BidA));
  // The group-forming conflicts.
  EXPECT_TRUE(O.conflict(OpenA, CloseA));
  EXPECT_TRUE(O.conflict(BidA, CloseA));
  // Two bids on one auction concur.
  Call BidB(Auction::Bid, {0, 7});
  EXPECT_FALSE(O.conflict(BidA, BidB));
  // bid depends on the open that precedes it.
  EXPECT_TRUE(O.dependent(BidA, OpenA));
}

TEST(InferredCoordination, MatrixIsSymmetric) {
  for (const std::string &Name : registeredTypeNames()) {
    auto T = makeType(Name);
    InferredCoordination Inf = inferCoordination(*T);
    for (MethodId A = 0; A < T->numMethods(); ++A)
      for (MethodId B = 0; B < T->numMethods(); ++B)
        EXPECT_EQ(Inf.conflicts(A, B), Inf.conflicts(B, A)) << Name;
  }
}

TEST(InferredCoordination, CounterIsFullyConcurrent) {
  Counter T;
  InferredCoordination Inf = inferCoordination(T);
  EXPECT_FALSE(Inf.conflicts(Counter::Add, Counter::Add));
  EXPECT_TRUE(Inf.Dependencies[Counter::Add].empty());
}

TEST(InferredCoordination, BankMatchesDeclaredExactly) {
  BankAccount T;
  InferredCoordination Inf = inferCoordination(T);
  EXPECT_TRUE(Inf.conflicts(BankAccount::Withdraw, BankAccount::Withdraw));
  EXPECT_FALSE(Inf.conflicts(BankAccount::Deposit, BankAccount::Withdraw));
  EXPECT_FALSE(Inf.conflicts(BankAccount::Deposit, BankAccount::Deposit));
  EXPECT_EQ(Inf.Dependencies[BankAccount::Withdraw],
            (std::vector<MethodId>{BankAccount::Deposit}));
  EXPECT_TRUE(Inf.Dependencies[BankAccount::Deposit].empty());
}

// -- Inference vs. declared specs (every registered type) -------------------

class DeclaredSpecTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DeclaredSpecTest, DeclaredSpecCoversInferredRelations) {
  auto T = makeType(GetParam());
  std::vector<std::string> Violations = checkDeclaredSpec(*T);
  for (const std::string &V : Violations)
    ADD_FAILURE() << V;
}

TEST_P(DeclaredSpecTest, SummarizationGroupsAreCorrect) {
  auto T = makeType(GetParam());
  std::vector<std::string> Violations = checkSummarization(*T);
  for (const std::string &V : Violations)
    ADD_FAILURE() << V;
}

TEST_P(DeclaredSpecTest, InitialStateSatisfiesInvariant) {
  auto T = makeType(GetParam());
  EXPECT_TRUE(T->invariant(*T->initialState()));
}

TEST_P(DeclaredSpecTest, SampleStatesSatisfyInvariant) {
  auto T = makeType(GetParam());
  for (const StatePtr &S : T->sampleStates())
    EXPECT_TRUE(T->invariant(*S)) << S->str();
}

TEST_P(DeclaredSpecTest, StatesCloneEqualAndHashConsistently) {
  auto T = makeType(GetParam());
  for (const StatePtr &S : T->sampleStates()) {
    StatePtr C = S->clone();
    EXPECT_TRUE(S->equals(*C));
    EXPECT_EQ(S->hash(), C->hash());
  }
}

TEST_P(DeclaredSpecTest, ApplyIsDeterministic) {
  auto T = makeType(GetParam());
  for (MethodId M = 0; M < T->numMethods(); ++M) {
    if (T->method(M).Kind != MethodKind::Update)
      continue;
    for (const Call &C : T->sampleCalls(M)) {
      StatePtr A = T->initialState();
      StatePtr B = T->initialState();
      T->apply(*A, C);
      T->apply(*B, C);
      EXPECT_TRUE(A->equals(*B)) << GetParam() << " " << C.str();
    }
  }
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
  // sampled update must in fact leave I(σ) true.
  for (const std::string &Name : registeredTypeNames()) {
    auto T = makeType(Name);
    if (T->hasInvariant())
      continue;
    for (const StatePtr &S : T->sampleStates())
      for (MethodId M = 0; M < T->numMethods(); ++M) {
        if (T->method(M).Kind != MethodKind::Update)
          continue;
        for (const Call &C : T->sampleCalls(M)) {
          EXPECT_TRUE(T->invariant(*T->applyCopy(*S, C)))
              << Name << " " << C.str() << " on " << S->str();
          EXPECT_TRUE(T->permissible(*S, C)) << Name << " " << C.str();
        }
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
