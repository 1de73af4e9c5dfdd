//===- tests/VerifierTests.cpp - Bounded-exhaustive verifier tests --------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for analysis::Verifier: the CI exactness gate (every registered
/// type's declared CoordinationSpec is sound AND minimal at the default
/// bound), certified counterexamples against deliberately corrupted specs
/// and summarize() functions, over-coordination detection, witness replay,
/// and the hamband-analysis-v1 JSON report.
///
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/core/Verifier.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/GSet.h"
#include "hamband/types/ORSet.h"
#include "hamband/types/PNCounter.h"
#include "hamband/types/Schema.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::analysis;

namespace {

//===----------------------------------------------------------------------===//
// The CI gate: declared specs are exactly the verified relations.
//===----------------------------------------------------------------------===//

class VerifierExactness : public ::testing::TestWithParam<std::string> {};

TEST_P(VerifierExactness, DeclaredSpecIsSoundAndMinimalAtDefaultBound) {
  VerifyReport R = verifyType(*makeType(GetParam()));
  auto First = [](const std::vector<std::string> &A,
                  const std::vector<std::string> &B) {
    return !A.empty() ? A.front() : (!B.empty() ? B.front() : std::string());
  };
  EXPECT_TRUE(R.Exhausted) << GetParam()
                           << ": state space truncated at the bound";
  EXPECT_TRUE(R.sound())
      << GetParam() << ": "
      << First(R.SoundnessViolations, R.SummarizationViolations);
  EXPECT_TRUE(R.minimal())
      << GetParam() << ": " << First(R.SpuriousEdges, R.SpuriousEdges);
  // Every emitted witness must be machine-checkable.
  auto Type = makeType(GetParam());
  const ObjectType &T = *Type;
  for (const auto *Edges : {&R.Conflicts, &R.Dependencies})
    for (const EdgeFinding &F : *Edges)
      for (const CounterexampleTrace &W : F.Witnesses)
        EXPECT_TRUE(replayWitness(T, W)) << GetParam() << ": " << W.str();
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredTypes, VerifierExactness,
                         ::testing::ValuesIn(registeredTypeNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Corrupted-spec wrappers: the real state machine with a broken spec.
//===----------------------------------------------------------------------===//

/// BankAccount without the Figure 1(b) withdraw/withdraw conflict.
class BankMissingWithdrawConflict : public types::BankAccount {
public:
  BankMissingWithdrawConflict() : Broken(3) {
    Broken.setQuery(Balance);
    Broken.setSumGroup(Deposit, 0);
    Broken.addDependency(Withdraw, Deposit);
    Broken.finalize();
  }
  const CoordinationSpec &coordination() const override { return Broken; }

private:
  CoordinationSpec Broken;
};

/// BankAccount with a bogus deposit/deposit conflict on top of the real
/// spec (deposits commute and are always permissible).
class BankSpuriousDepositConflict : public types::BankAccount {
public:
  BankSpuriousDepositConflict() : Broken(3) {
    Broken.setQuery(Balance);
    Broken.setSumGroup(Deposit, 0);
    Broken.addConflict(Withdraw, Withdraw);
    Broken.addConflict(Deposit, Deposit);
    Broken.addDependency(Withdraw, Deposit);
    Broken.finalize();
  }
  const CoordinationSpec &coordination() const override { return Broken; }

private:
  CoordinationSpec Broken;
};

/// Courseware without the enroll -> registerStudent dependency (Rel ->
/// AddB). The Rel -> AddA dependency stays: it is exempt anyway because
/// enroll and deleteCourse share a synchronization group.
class CoursewareMissingEnrollDep : public types::Courseware {
public:
  CoursewareMissingEnrollDep() : Broken(5) {
    Broken.setQuery(QueryA);
    Broken.addConflict(AddA, DelA);
    Broken.addConflict(DelA, Rel);
    Broken.addDependency(Rel, AddA);
    Broken.setSumGroup(AddB, 0);
    Broken.finalize();
  }
  const CoordinationSpec &coordination() const override { return Broken; }

private:
  CoordinationSpec Broken;
};

/// ORSet without the remove -> add delivery dependency. The causal order
/// between a removeTags and the addTag it observed then has no declared
/// edge in either direction.
class ORSetMissingCausalDep : public types::ORSet {
public:
  ORSetMissingCausalDep() : Broken(3) {
    Broken.setQuery(Contains);
    Broken.finalize();
  }
  const CoordinationSpec &coordination() const override { return Broken; }

private:
  CoordinationSpec Broken;
};

/// PNCounter with increments and decrements merged into one summarization
/// group; summarize() refuses the mixed pairs.
class PNCounterMergedSumGroups : public types::PNCounter {
public:
  PNCounterMergedSumGroups() : Broken(3) {
    Broken.setQuery(ValueOf);
    Broken.setSumGroup(Increment, 0);
    Broken.setSumGroup(Decrement, 0);
    Broken.finalize();
  }
  const CoordinationSpec &coordination() const override { return Broken; }

private:
  CoordinationSpec Broken;
};

/// GSet whose summarize drops an element once the first argument holds 3
/// or more. Every enumerated add has at most 2 elements, so each pair of
/// calls still summarizes exactly; only a fold of a fold loses data.
class GSetLossyFold : public types::GSet {
public:
  bool joinInto(Call &Into, const Call &Delta) const override {
    std::size_t Held = Into.Args.size();
    if (!GSet::joinInto(Into, Delta))
      return false;
    if (Held >= 3)
      Into.Args.pop_back();
    return true;
  }
};

/// Counter whose summarize counts the second call twice once the first
/// amount reaches 3. Enumerated amounts are 0..2, so each pair of calls
/// still summarizes exactly; only a fold of a fold over-counts.
class CounterDoubleCountingFold : public types::Counter {
public:
  bool joinInto(Call &Into, const Call &Delta) const override {
    Value Held = Into.Args[0];
    if (!Counter::joinInto(Into, Delta))
      return false;
    if (Held >= 3)
      Into.Args[0] += Delta.Args[0];
    return true;
  }
};

//===----------------------------------------------------------------------===//
// Negative paths: every corruption is caught with a certified witness.
//===----------------------------------------------------------------------===//

TEST(VerifierCounterexample, MissingWithdrawConflictIsCaughtWithTrace) {
  BankMissingWithdrawConflict Bank;
  VerifyReport R = verifyType(Bank);
  EXPECT_FALSE(R.sound());
  EXPECT_FALSE(R.SoundnessViolations.empty());

  // The report pins the undeclared withdraw/withdraw edge and carries a
  // concrete counterexample trace for it.
  const EdgeFinding *Bad = nullptr;
  for (const EdgeFinding &F : R.Conflicts)
    if (F.AName == "withdraw" && F.BName == "withdraw")
      Bad = &F;
  ASSERT_NE(Bad, nullptr);
  EXPECT_FALSE(Bad->Declared);
  EXPECT_TRUE(Bad->Witnessed);
  ASSERT_FALSE(Bad->Witnesses.empty());
  for (const CounterexampleTrace &W : Bad->Witnesses)
    EXPECT_TRUE(replayWitness(Bank, W)) << W.str();

  // Two withdrawals S-commute; the conflict is a permissibility race, so
  // the certificate must be the P-concurrence refutation: an
  // invariant-insufficiency trace plus a P-R-commutation break whose path
  // deposits enough to make both withdrawals individually permissible.
  ASSERT_EQ(Bad->Witnesses.size(), 2u);
  EXPECT_EQ(Bad->Witnesses[0].Kind, RelationKind::InvariantSufficiency);
  EXPECT_EQ(Bad->Witnesses[1].Kind, RelationKind::PRightCommute);
  EXPECT_FALSE(Bad->Witnesses[1].Path.empty());
}

TEST(VerifierCounterexample, MissingScemaDependencyIsCaught) {
  CoursewareMissingEnrollDep Schema;
  VerifyReport R = verifyType(Schema);
  EXPECT_FALSE(R.sound());
  const EdgeFinding *Bad = nullptr;
  for (const EdgeFinding &F : R.Dependencies)
    if (F.AName == "enroll" && F.BName == "registerStudent")
      Bad = &F;
  ASSERT_NE(Bad, nullptr);
  EXPECT_FALSE(Bad->Declared);
  EXPECT_TRUE(Bad->Witnessed);
  for (const CounterexampleTrace &W : Bad->Witnesses)
    EXPECT_TRUE(replayWitness(Schema, W)) << W.str();
}

TEST(VerifierCounterexample, MissingCausalDependencyIsCaught) {
  ORSetMissingCausalDep Set;
  VerifyReport R = verifyType(Set);
  EXPECT_FALSE(R.sound());
  ASSERT_FALSE(R.SoundnessViolations.empty());
  EXPECT_NE(R.SoundnessViolations.front().find("causally ordered"),
            std::string::npos)
      << R.SoundnessViolations.front();
}

TEST(VerifierCounterexample, MergedSumGroupsAreCaught) {
  PNCounterMergedSumGroups Counter;
  VerifyReport R = verifyType(Counter);
  EXPECT_FALSE(R.sound());
  EXPECT_FALSE(R.SummarizationViolations.empty());
}

TEST(VerifierCounterexample, LossyFoldOfFoldsIsCaught) {
  GSetLossyFold Set;
  // Runs of two calls -- the pairwise law alone -- cannot see it.
  VerifierOptions Pairs;
  Pairs.Bound = 2;
  EXPECT_TRUE(verifyType(Set, Pairs).sound());

  VerifyReport R = verifyType(Set);
  EXPECT_FALSE(R.sound());
  EXPECT_TRUE(R.SoundnessViolations.empty());
  // One message per failing run: the 6 ordered pairs of adds whose union
  // has 3 elements, each followed by any of the 4 enumerated adds.
  ASSERT_EQ(R.SummarizationViolations.size(), 24u);
  EXPECT_NE(R.SummarizationViolations.front().find("disagrees with applying"),
            std::string::npos)
      << R.SummarizationViolations.front();
}

TEST(VerifierCounterexample, DoubleCountingFoldOfFoldsIsCaught) {
  CounterDoubleCountingFold Counter;
  VerifierOptions Pairs;
  Pairs.Bound = 2;
  EXPECT_TRUE(verifyType(Counter, Pairs).sound());

  VerifyReport R = verifyType(Counter);
  EXPECT_FALSE(R.sound());
  // add(a); add(b); add(c) with a + b >= 3 and c > 0: 3 x 2 runs.
  ASSERT_EQ(R.SummarizationViolations.size(), 6u);
  EXPECT_NE(R.SummarizationViolations.front().find("disagrees with applying"),
            std::string::npos)
      << R.SummarizationViolations.front();
}

TEST(VerifierOverCoordination, SpuriousConflictIsFlaggedNonFatally) {
  BankSpuriousDepositConflict Bank;
  VerifyReport R = verifyType(Bank);
  // Spurious edges break minimality but not soundness: the spec is safe,
  // just needlessly slow (deposits would funnel through a leader).
  EXPECT_TRUE(R.sound());
  EXPECT_FALSE(R.minimal());
  ASSERT_EQ(R.SpuriousEdges.size(), 1u);
  EXPECT_NE(R.SpuriousEdges.front().find("spurious"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Witness replay is a real certification check, not a rubber stamp.
//===----------------------------------------------------------------------===//

TEST(VerifierReplay, TamperedTraceIsRejected) {
  BankMissingWithdrawConflict Bank;
  Verifier V(Bank);
  auto Trace = V.refuteInvariantSufficiency(
      Call(types::BankAccount::Withdraw, {1}));
  ASSERT_TRUE(Trace.has_value());
  ASSERT_TRUE(replayWitness(Bank, *Trace));

  // Claiming the violation for a permissible call must fail replay.
  CounterexampleTrace Tampered = *Trace;
  Tampered.C1 = Call(types::BankAccount::Deposit, {1});
  EXPECT_FALSE(replayWitness(Bank, Tampered));

  // Padding the path with a call that breaks the invariant en route must
  // also fail replay (prefix permissibility is part of the certificate).
  Tampered = *Trace;
  Tampered.Path.insert(Tampered.Path.begin(),
                       Call(types::BankAccount::Withdraw, {5}));
  EXPECT_FALSE(replayWitness(Bank, Tampered));
}

TEST(VerifierReplay, SCommuteWitnessReplays) {
  // The movie schema's same-key add/delete pair breaks S-commutation at
  // the initial state; the trace must replay against a fresh instance.
  auto T = makeType("movie");
  Verifier V(*T);
  auto Trace = V.refuteSCommute(Call(0, {0}), Call(1, {0}));
  ASSERT_TRUE(Trace.has_value());
  EXPECT_TRUE(Trace->Path.empty());
  EXPECT_TRUE(replayWitness(*makeType("movie"), *Trace));
}

//===----------------------------------------------------------------------===//
// hamband-analysis-v1 JSON report.
//===----------------------------------------------------------------------===//

TEST(VerifierJson, ReportRoundTripsThroughParser) {
  VerifyReport R = verifyType(*makeType("bank-account"));
  obs::json::Value V = reportToJson(R);
  obs::json::Value Again;
  ASSERT_TRUE(obs::json::parse(V.write(), Again));

  ASSERT_NE(Again.find("name"), nullptr);
  EXPECT_EQ(Again.find("name")->Str, "bank-account");
  EXPECT_EQ(Again.find("bound")->asUInt(), DefaultVerifyBound);
  EXPECT_TRUE(Again.find("sound")->B);
  EXPECT_TRUE(Again.find("minimal")->B);
  EXPECT_TRUE(Again.find("exhausted")->B);

  // The withdraw/withdraw conflict edge is present with its two-part
  // certificate (invariant-insufficiency + P-R-commutation break).
  const obs::json::Value *Conflicts = Again.find("conflicts");
  ASSERT_NE(Conflicts, nullptr);
  ASSERT_EQ(Conflicts->Arr.size(), 1u);
  const obs::json::Value &Edge = Conflicts->Arr.front();
  EXPECT_EQ(Edge.find("a")->Str, "withdraw");
  EXPECT_TRUE(Edge.find("declared")->B);
  EXPECT_TRUE(Edge.find("witnessed")->B);
  EXPECT_EQ(Edge.find("witnesses")->Arr.size(), 2u);
}

TEST(VerifierJson, UnsoundReportSaysSo) {
  BankMissingWithdrawConflict Bank;
  obs::json::Value V = reportToJson(verifyType(Bank));
  obs::json::Value Again;
  ASSERT_TRUE(obs::json::parse(V.write(), Again));
  EXPECT_FALSE(Again.find("sound")->B);
  EXPECT_FALSE(Again.find("soundness_violations")->Arr.empty());
}

//===----------------------------------------------------------------------===//
// Bound semantics.
//===----------------------------------------------------------------------===//

TEST(VerifierBound, LargerBoundExploresMoreStates) {
  VerifierOptions Small;
  Small.Bound = 1;
  VerifierOptions Large;
  Large.Bound = 4;
  auto T = makeType("bank-account");
  Verifier VS(*T, Small);
  Verifier VL(*T, Large);
  EXPECT_LT(VS.numStates(), VL.numStates());
  EXPECT_TRUE(VS.exhausted());
  EXPECT_TRUE(VL.exhausted());
}

TEST(VerifierBound, TruncationIsReported) {
  VerifierOptions Opts;
  Opts.Bound = 6;
  Opts.MaxStates = 8; // Far below the reachable count at this bound.
  Verifier V(*makeType("two-phase-set"), Opts);
  EXPECT_FALSE(V.exhausted());
  EXPECT_LE(V.numStates(), 8u);
}

} // namespace
