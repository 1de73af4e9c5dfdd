//===- tests/SemanticsTests.cpp - Operational semantics tests ------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/baselines/MuSmrRuntime.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/semantics/Refinement.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/Movie.h"
#include "hamband/types/ORSet.h"
#include "hamband/types/PNCounter.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::semantics;
using namespace hamband::types;

// -- Abstract WRDT semantics (Figure 5) --------------------------------------

struct AbstractBank : ::testing::Test {
  BankAccount T;
  WrdtSystem W{T, 3};
};

TEST_F(AbstractBank, CallChecksLocalPermissibility) {
  // Withdrawing from an empty account is impermissible.
  EXPECT_FALSE(W.tryCall(0, Call(BankAccount::Withdraw, {1}, 0, 1)));
  EXPECT_TRUE(W.tryCall(0, Call(BankAccount::Deposit, {5}, 0, 2)));
  EXPECT_TRUE(W.tryCall(0, Call(BankAccount::Withdraw, {3}, 0, 3)));
  EXPECT_FALSE(W.tryCall(0, Call(BankAccount::Withdraw, {3}, 0, 4)));
}

TEST_F(AbstractBank, CallConfSyncBlocksConcurrentConflicts) {
  Call D0(BankAccount::Deposit, {5}, 0, 1);
  Call D1(BankAccount::Deposit, {5}, 1, 2);
  ASSERT_TRUE(W.tryCall(0, D0));
  ASSERT_TRUE(W.tryCall(1, D1));
  Call Wd0(BankAccount::Withdraw, {1}, 0, 3);
  ASSERT_TRUE(W.tryCall(0, Wd0));
  // A conflicting withdraw at p1 is blocked until Wd0 propagates there.
  Call Wd1(BankAccount::Withdraw, {1}, 1, 4);
  EXPECT_FALSE(W.tryCall(1, Wd1));
  // Wd0 itself cannot propagate before the deposit it depends on.
  EXPECT_FALSE(W.tryPropagate(1, Wd0));
  ASSERT_TRUE(W.tryPropagate(1, D0));
  ASSERT_TRUE(W.tryPropagate(1, Wd0));
  EXPECT_TRUE(W.tryCall(1, Wd1));
}

TEST_F(AbstractBank, PropDepOrdersDependentCalls) {
  Call Dep(BankAccount::Deposit, {5}, 0, 1);
  Call Wd(BankAccount::Withdraw, {5}, 0, 2);
  ASSERT_TRUE(W.tryCall(0, Dep));
  ASSERT_TRUE(W.tryCall(0, Wd));
  // The withdraw depends on the deposit that precedes it at p0; p1 cannot
  // apply it first.
  EXPECT_FALSE(W.tryPropagate(1, Wd));
  ASSERT_TRUE(W.tryPropagate(1, Dep));
  EXPECT_TRUE(W.tryPropagate(1, Wd));
  EXPECT_TRUE(W.checkIntegrity());
}

TEST_F(AbstractBank, PropagateRequiresIssuerExecution) {
  Call D(BankAccount::Deposit, {5}, 0, 1);
  EXPECT_FALSE(W.tryPropagate(1, D)); // Never executed at issuer 0.
}

TEST_F(AbstractBank, DuplicatePropagationRejected) {
  Call D(BankAccount::Deposit, {5}, 0, 1);
  ASSERT_TRUE(W.tryCall(0, D));
  ASSERT_TRUE(W.tryPropagate(1, D));
  EXPECT_FALSE(W.tryPropagate(1, D));
}

TEST_F(AbstractBank, ConvergenceAfterFullPropagation) {
  ASSERT_TRUE(W.tryCall(0, Call(BankAccount::Deposit, {5}, 0, 1)));
  ASSERT_TRUE(W.tryCall(1, Call(BankAccount::Deposit, {7}, 1, 2)));
  for (ProcessId P = 0; P < 3; ++P)
    for (const Call &C : W.missingAt(P))
      ASSERT_TRUE(W.tryPropagate(P, C));
  EXPECT_TRUE(W.fullyPropagated());
  EXPECT_TRUE(W.checkConvergence());
  EXPECT_EQ(W.query(2, Call(BankAccount::Balance, {})), 12);
}

TEST_F(AbstractBank, IntegrityHoldsOnAllReachableStates) {
  ASSERT_TRUE(W.tryCall(0, Call(BankAccount::Deposit, {2}, 0, 1)));
  ASSERT_TRUE(W.tryCall(0, Call(BankAccount::Withdraw, {2}, 0, 2)));
  EXPECT_TRUE(W.checkIntegrity());
  for (ProcessId P = 1; P < 3; ++P)
    EXPECT_GE(W.query(P, Call(BankAccount::Balance, {})), 0);
}

// -- Concrete RDMA semantics (Figures 6-7) -----------------------------------

struct RdmaBank : ::testing::Test {
  BankAccount T;
  RdmaConfiguration K{T, 3};
};

TEST_F(RdmaBank, ReduceUpdatesSummariesEverywhereAtomically) {
  ASSERT_TRUE(K.tryReduce(0, Call(BankAccount::Deposit, {5}, 0, 1)));
  // Every process sees the summary (and the advanced applied count).
  for (ProcessId P = 0; P < 3; ++P) {
    EXPECT_EQ(K.applied(P, 0, BankAccount::Deposit), 1u);
    EXPECT_EQ(K.query(P, Call(BankAccount::Balance, {})), 5);
  }
  ASSERT_TRUE(K.tryReduce(0, Call(BankAccount::Deposit, {3}, 0, 2)));
  EXPECT_EQ(K.query(1, Call(BankAccount::Balance, {})), 8);
  EXPECT_TRUE(K.quiescent()); // Summaries use no buffers.
}

TEST_F(RdmaBank, ReduceRejectsWrongCategory) {
  EXPECT_FALSE(K.tryReduce(0, Call(BankAccount::Withdraw, {1}, 0, 1)));
}

TEST_F(RdmaBank, ConfOnlyAtLeader) {
  ASSERT_TRUE(K.tryReduce(0, Call(BankAccount::Deposit, {5}, 0, 1)));
  unsigned G = *T.coordination().syncGroup(BankAccount::Withdraw);
  ProcessId Leader = K.leader(G);
  ProcessId NotLeader = (Leader + 1) % 3;
  EXPECT_FALSE(
      K.tryConf(NotLeader, Call(BankAccount::Withdraw, {1}, NotLeader, 2)));
  EXPECT_TRUE(
      K.tryConf(Leader, Call(BankAccount::Withdraw, {1}, Leader, 3)));
}

TEST_F(RdmaBank, ConfChecksPermissibility) {
  unsigned G = *T.coordination().syncGroup(BankAccount::Withdraw);
  ProcessId Leader = K.leader(G);
  EXPECT_FALSE(
      K.tryConf(Leader, Call(BankAccount::Withdraw, {1}, Leader, 1)));
}

TEST_F(RdmaBank, ConfAppRespectsDependencies) {
  unsigned G = *T.coordination().syncGroup(BankAccount::Withdraw);
  ProcessId Leader = K.leader(G);
  ASSERT_TRUE(K.tryReduce(Leader,
                          Call(BankAccount::Deposit, {5}, Leader, 1)));
  ASSERT_TRUE(
      K.tryConf(Leader, Call(BankAccount::Withdraw, {5}, Leader, 2)));
  ProcessId Other = (Leader + 1) % 3;
  EXPECT_EQ(K.pendingConf(Other, G), 1u);
  // The dependency (deposit count) is already satisfied because REDUCE
  // advanced A everywhere, so the apply fires.
  EXPECT_TRUE(K.tryConfApp(Other, G));
  EXPECT_EQ(K.query(Other, Call(BankAccount::Balance, {})), 0);
}

TEST_F(RdmaBank, QueryAppliesSummaries) {
  ASSERT_TRUE(K.tryReduce(1, Call(BankAccount::Deposit, {9}, 1, 1)));
  EXPECT_EQ(K.query(2, Call(BankAccount::Balance, {})), 9);
}

struct RdmaORSet : ::testing::Test {
  ORSet T;
  RdmaConfiguration K{T, 3};
};

TEST_F(RdmaORSet, FreeAppWaitsForDependencies) {
  // p0 adds, then removes (remove depends on add).
  Call Add = K.prepareAt(0, Call(ORSet::Add, {7}, 0, 1));
  ASSERT_TRUE(K.tryFree(0, Add));
  Call Rem = K.prepareAt(0, Call(ORSet::Remove, {7}, 0, 2));
  ASSERT_TRUE(K.tryFree(0, Rem));
  // p1 has both buffered in FIFO order; the add applies first.
  EXPECT_EQ(K.pendingFree(1, 0), 2u);
  EXPECT_TRUE(K.tryFreeApp(1, 0));
  EXPECT_TRUE(K.tryFreeApp(1, 0));
  EXPECT_EQ(K.query(1, Call(ORSet::Contains, {7})), 0);
  EXPECT_TRUE(K.checkIntegrity());
}

TEST_F(RdmaORSet, DrainConverges) {
  for (int I = 0; I < 4; ++I) {
    Call Add = K.prepareAt(I % 3, Call(ORSet::Add, {I}, I % 3, 10 + I));
    ASSERT_TRUE(K.tryFree(I % 3, Add));
  }
  K.drain();
  EXPECT_TRUE(K.quiescent());
  EXPECT_TRUE(K.checkConvergence());
}

TEST(RdmaMovie, TwoGroupsHaveTwoLeaders) {
  Movie T;
  RdmaConfiguration K(T, 4);
  ASSERT_EQ(T.coordination().numSyncGroups(), 2u);
  EXPECT_EQ(K.leader(0), 0u);
  EXPECT_EQ(K.leader(1), 1u);
  K.setLeader(1, 3);
  EXPECT_EQ(K.leader(1), 3u);
}

TEST(AbstractMisc, MissingAtAndFullPropagation) {
  Counter T;
  WrdtSystem W(T, 3);
  Call A(Counter::Add, {1}, 0, 1);
  Call B(Counter::Add, {2}, 1, 2);
  ASSERT_TRUE(W.tryCall(0, A));
  ASSERT_TRUE(W.tryCall(1, B));
  EXPECT_FALSE(W.fullyPropagated());
  std::vector<Call> MissingAt2 = W.missingAt(2);
  EXPECT_EQ(MissingAt2.size(), 2u);
  std::vector<Call> MissingAt0 = W.missingAt(0);
  ASSERT_EQ(MissingAt0.size(), 1u);
  EXPECT_EQ(MissingAt0[0], B);
  ASSERT_TRUE(W.tryPropagate(0, B));
  ASSERT_TRUE(W.tryPropagate(1, A));
  ASSERT_TRUE(W.tryPropagate(2, A));
  ASSERT_TRUE(W.tryPropagate(2, B));
  EXPECT_TRUE(W.fullyPropagated());
  EXPECT_TRUE(W.missingAt(0).empty());
}

TEST(RdmaSemanticsMisc, RulesRejectWrongCategories) {
  BankAccount T;
  RdmaConfiguration K(T, 3);
  // FREE on a reducible or conflicting method is disabled.
  EXPECT_FALSE(K.tryFree(0, Call(BankAccount::Deposit, {1}, 0, 1)));
  EXPECT_FALSE(K.tryFree(0, Call(BankAccount::Withdraw, {1}, 0, 2)));
  // REDUCE on a conflicting method is disabled.
  EXPECT_FALSE(K.tryReduce(0, Call(BankAccount::Withdraw, {1}, 0, 3)));
}

TEST(RdmaSemanticsMisc, SummaryApplicationOrderIrrelevant) {
  // Two processes issue reducible calls; a third's visible state must be
  // independent of any notion of order (summaries commute).
  types::PNCounter T;
  RdmaConfiguration K(T, 3);
  ASSERT_TRUE(K.tryReduce(0, Call(types::PNCounter::Increment, {5}, 0, 1)));
  ASSERT_TRUE(K.tryReduce(1, Call(types::PNCounter::Decrement, {2}, 1, 2)));
  ASSERT_TRUE(K.tryReduce(0, Call(types::PNCounter::Increment, {1}, 0, 3)));
  for (ProcessId P = 0; P < 3; ++P)
    EXPECT_EQ(K.query(P, Call(types::PNCounter::ValueOf, {}, P, 9)), 4);
  EXPECT_TRUE(K.checkConvergence());
}

TEST(RdmaSemanticsMisc, MultiSumGroupSummariesAreSeparate) {
  types::PNCounter T;
  RdmaConfiguration K(T, 2);
  ASSERT_TRUE(K.tryReduce(0, Call(types::PNCounter::Increment, {5}, 0, 1)));
  ASSERT_TRUE(K.tryReduce(0, Call(types::PNCounter::Decrement, {3}, 0, 2)));
  ASSERT_TRUE(K.tryReduce(0, Call(types::PNCounter::Increment, {2}, 0, 3)));
  // A(p0, inc) = 2 and A(p0, dec) = 1 at both processes.
  for (ProcessId P = 0; P < 2; ++P) {
    EXPECT_EQ(K.applied(P, 0, types::PNCounter::Increment), 2u);
    EXPECT_EQ(K.applied(P, 0, types::PNCounter::Decrement), 1u);
    EXPECT_EQ(K.query(P, Call(types::PNCounter::ValueOf, {}, P, 9)), 4);
  }
}

TEST(AbstractCrdtSpecialCase, PropagationAlwaysEnabled) {
  // For a CRDT (all methods commute, invariant true) the coordination
  // conditions are trivially satisfied: any executed call propagates
  // anywhere, in any order -- the paper's "CRDTs are a special case".
  Counter T;
  WrdtSystem W(T, 3);
  Call A(Counter::Add, {1}, 0, 1);
  Call B(Counter::Add, {2}, 1, 2);
  Call C(Counter::Add, {3}, 2, 3);
  ASSERT_TRUE(W.tryCall(0, A));
  ASSERT_TRUE(W.tryCall(1, B));
  ASSERT_TRUE(W.tryCall(2, C));
  // Deliver in three different orders at the three processes.
  EXPECT_TRUE(W.tryPropagate(0, C));
  EXPECT_TRUE(W.tryPropagate(0, B));
  EXPECT_TRUE(W.tryPropagate(1, C));
  EXPECT_TRUE(W.tryPropagate(1, A));
  EXPECT_TRUE(W.tryPropagate(2, A));
  EXPECT_TRUE(W.tryPropagate(2, B));
  EXPECT_TRUE(W.checkConvergence());
  EXPECT_EQ(W.query(0, Call(Counter::Read, {})), 6);
}

TEST(AbstractSmrSpecialCase, CompleteConflictsTotallyOrder) {
  // With the complete conflict relation (the SMR adapter), histories of
  // any two processes are prefixes of one total order -- the paper's
  // "linearizable data types are a special case".
  Counter Inner;
  baselines::SmrTypeAdapter T(Inner);
  WrdtSystem W(T, 3);
  Call A(Counter::Add, {1}, 0, 1);
  Call B(Counter::Add, {2}, 0, 2);
  ASSERT_TRUE(W.tryCall(0, A));
  // A conflicting call elsewhere is blocked until A propagates.
  Call C(Counter::Add, {4}, 1, 3);
  EXPECT_FALSE(W.tryCall(1, C));
  ASSERT_TRUE(W.tryPropagate(1, A));
  ASSERT_TRUE(W.tryPropagate(2, A));
  ASSERT_TRUE(W.tryCall(0, B)); // Still fine at p0 (it has everything).
  EXPECT_FALSE(W.tryCall(1, C)); // B not yet at p1.
  ASSERT_TRUE(W.tryPropagate(1, B));
  EXPECT_TRUE(W.tryCall(1, C));
  // Prefix property over the executed histories.
  const auto &H0 = W.history(0);
  const auto &H1 = W.history(1);
  std::size_t Common = std::min(H0.size(), H1.size());
  for (std::size_t I = 0; I < Common; ++I)
    EXPECT_EQ(H0[I], H1[I]) << "diverging total order at " << I;
}

// -- Refinement (Lemma 3) and the theorem oracles ----------------------------

TEST(Refinement, SimpleRunRefines) {
  BankAccount T;
  RdmaConfiguration K(T, 3);
  unsigned G = *T.coordination().syncGroup(BankAccount::Withdraw);
  ProcessId Leader = K.leader(G);
  ASSERT_TRUE(K.tryReduce(Leader,
                          Call(BankAccount::Deposit, {5}, Leader, 1)));
  ASSERT_TRUE(
      K.tryConf(Leader, Call(BankAccount::Withdraw, {2}, Leader, 2)));
  K.drain();
  RefinementResult R = checkRefinement(T, 3, K.log());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(Refinement, DetectsIllegalTrace) {
  // A hand-built log in which a dependent call propagates before its
  // dependency must be rejected by the abstract semantics.
  BankAccount T;
  std::vector<StepRecord> Log;
  Call Dep(BankAccount::Deposit, {5}, 0, 1);
  Call Wd(BankAccount::Withdraw, {5}, 0, 2);
  Log.push_back(StepRecord{StepKind::Free, 0, Dep});
  Log.push_back(StepRecord{StepKind::Conf, 0, Wd});
  Log.push_back(StepRecord{StepKind::ConfApp, 1, Wd}); // Before the dep!
  RefinementResult R = checkRefinement(T, 3, Log);
  EXPECT_FALSE(R.Ok);
}

struct ExploreCase {
  const char *TypeName;
  unsigned Procs;
  std::uint64_t Seed;
};

class ExplorationTest
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned,
                                                 std::uint64_t>> {};

TEST_P(ExplorationTest, RandomRunsRefineAndConverge) {
  auto [Name, Procs, Seed] = GetParam();
  auto T = makeType(Name);
  ExplorationOptions Opts;
  Opts.NumProcesses = Procs;
  Opts.Steps = 220;
  Opts.Seed = Seed;
  ExplorationResult R = exploreRandomly(*T, Opts);
  EXPECT_TRUE(R.IntegrityOk) << Name << ": " << R.Error;
  EXPECT_TRUE(R.ConvergenceOk) << Name << ": " << R.Error;
  EXPECT_TRUE(R.RefinementOk) << Name << ": " << R.Error;
  EXPECT_GT(R.ClientCalls, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ExplorationTest,
    ::testing::Combine(::testing::ValuesIn(hamband::registeredTypeNames()),
                       ::testing::Values(2u, 3u, 4u),
                       ::testing::Values(1u, 7u, 42u)),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_p" + std::to_string(std::get<1>(Info.param)) + "_s" +
             std::to_string(std::get<2>(Info.param));
    });
