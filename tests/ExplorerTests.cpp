//===- tests/ExplorerTests.cpp - Schedule exploration ---------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Tests for the choice-point API (sim::EventQueue enabled sets), the
// deterministic re-execution contract the explorer relies on (same decision
// prefix => identical enabled sets and state fingerprints), and the
// hamband_mc engine itself: convergence on a correct type, a certified and
// replayable counterexample against a corrupted coordination spec, and the
// reported partial-order reduction.
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/explore/Explorer.h"
#include "hamband/explore/Harness.h"
#include "hamband/sim/EventQueue.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace hamband;
using namespace hamband::sim;
using namespace hamband::explore;

namespace {

EventLabel label(std::uint32_t Node) {
  return EventLabel(EventKind::TwoSidedDelivery, Node, 0);
}

} // namespace

// -- EventQueue choice-point API ----------------------------------------

TEST(ChoicePoints, EnabledSetIsTheEarliestTimeBucket) {
  EventQueue Q;
  Q.push(SimTime{100}, label(0), [] {});
  Q.push(SimTime{100}, label(1), [] {});
  Q.push(SimTime{200}, label(2), [] {});
  EXPECT_EQ(Q.enabledCount(), 2u);
  std::vector<EnabledEvent> En = Q.enabled();
  ASSERT_EQ(En.size(), 2u);
  // Canonical insertion order within the bucket.
  EXPECT_EQ(En[0].Label.Node, 0u);
  EXPECT_EQ(En[1].Label.Node, 1u);
  EXPECT_EQ(En[0].At, SimTime{100});
}

TEST(ChoicePoints, PopNthPicksTheRequestedBranch) {
  EventQueue Q;
  int Fired = -1;
  Q.push(SimTime{5}, label(0), [&] { Fired = 0; });
  Q.push(SimTime{5}, label(1), [&] { Fired = 1; });
  Q.push(SimTime{5}, label(2), [&] { Fired = 2; });
  Event E;
  ASSERT_TRUE(Q.popNth(1, E));
  E.Fn();
  EXPECT_EQ(Fired, 1);
  // The remaining bucket keeps canonical order.
  std::vector<EnabledEvent> En = Q.enabled();
  ASSERT_EQ(En.size(), 2u);
  EXPECT_EQ(En[0].Label.Node, 0u);
  EXPECT_EQ(En[1].Label.Node, 2u);
}

TEST(ChoicePoints, CancelledEventsLeaveTheEnabledSet) {
  EventQueue Q;
  EventId Id = Q.push(SimTime{7}, label(0), [] {});
  Q.push(SimTime{7}, label(1), [] {});
  Q.cancel(Id);
  EXPECT_EQ(Q.enabledCount(), 1u);
  EXPECT_EQ(Q.enabled()[0].Label.Node, 1u);
}

TEST(ChoicePoints, DigestIgnoresIdHistory) {
  // Two queues reaching the same pending multiset through different id
  // histories must agree on the digest (the dedup key must not depend on
  // how many events were ever allocated).
  EventQueue A, B;
  EventId Dropped = B.push(SimTime{1}, label(9), [] {});
  B.cancel(Dropped);
  A.push(SimTime{10}, label(0), [] {});
  A.push(SimTime{20}, label(1), [] {});
  B.push(SimTime{10}, label(0), [] {});
  B.push(SimTime{20}, label(1), [] {});
  EXPECT_EQ(A.digest(), B.digest());
}

// -- Deterministic re-execution (satellite: same prefix => same run) ----

namespace {

/// Digest of one enabled set: folds (time, label) per member in canonical
/// order, so two runs agree iff their choice points line up exactly.
std::uint64_t enabledDigest(const std::vector<EnabledEvent> &En) {
  std::uint64_t H = 0x9e3779b97f4a7c15ull;
  for (const EnabledEvent &E : En) {
    H ^= static_cast<std::uint64_t>(E.At) + 0x9e3779b97f4a7c15ull +
         (H << 6) + (H >> 2);
    H ^= E.Label.digest() + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2);
  }
  return H;
}

struct RecordedRun {
  std::vector<std::uint64_t> ChoiceDigests;
  std::uint64_t Fingerprint = 0;
  bool Ok = false;
};

/// Runs \p RS once, forcing the decision prefix \p Prefix (branch 0 past
/// its end) and recording a digest of every consulted enabled set.
RecordedRun recordRun(const RunSpec &RS,
                      const std::vector<std::uint32_t> &Prefix,
                      std::size_t MaxRecorded = 512) {
  RecordedRun R;
  ScheduleControl Ctl;
  Ctl.Choose = [&](std::uint64_t Idx,
                   const std::vector<EnabledEvent> &En) -> std::size_t {
    if (R.ChoiceDigests.size() < MaxRecorded)
      R.ChoiceDigests.push_back(enabledDigest(En));
    std::uint32_t Pick = Idx < Prefix.size() ? Prefix[Idx] : 0;
    return Pick < En.size() ? Pick : 0;
  };
  RunOutcome Out = runSchedule(RS, nullptr, nullptr, nullptr, &Ctl);
  R.Fingerprint = Out.Fingerprint;
  R.Ok = Out.Ok;
  return R;
}

} // namespace

TEST(Determinism, SamePrefixSameEnabledSetsAndFingerprintAllTypes) {
  for (const std::string &Name : registeredTypeNames()) {
    RunSpec RS;
    RS.TypeName = Name;
    RS.Nodes = 3;
    RS.Calls = 3;
    RS.WorkSeed = 11;
    RecordedRun A = recordRun(RS, {});
    RecordedRun B = recordRun(RS, {});
    EXPECT_TRUE(A.Ok) << Name;
    EXPECT_EQ(A.ChoiceDigests, B.ChoiceDigests) << Name;
    EXPECT_EQ(A.Fingerprint, B.Fingerprint) << Name;
    EXPECT_FALSE(A.ChoiceDigests.empty()) << Name;
  }
}

TEST(Determinism, ForcedPrefixReExecutesIdentically) {
  RunSpec RS;
  RS.TypeName = "bank-account";
  RS.Nodes = 3;
  RS.Calls = 4;
  RS.WorkSeed = 7;
  // Force a non-default branch early and a default tail: both executions
  // must still walk the exact same tree.
  std::vector<std::uint32_t> Prefix = {0, 1, 0, 1};
  RecordedRun A = recordRun(RS, Prefix);
  RecordedRun B = recordRun(RS, Prefix);
  EXPECT_EQ(A.ChoiceDigests, B.ChoiceDigests);
  EXPECT_EQ(A.Fingerprint, B.Fingerprint);
  // And a different prefix consults the same first choice point (the
  // prefix only diverges the run *after* the first forced pick).
  RecordedRun C = recordRun(RS, {});
  ASSERT_FALSE(A.ChoiceDigests.empty());
  ASSERT_FALSE(C.ChoiceDigests.empty());
  EXPECT_EQ(A.ChoiceDigests[0], C.ChoiceDigests[0]);
}

// -- Explorer ------------------------------------------------------------

TEST(Explorer, CounterTreeConvergesCrashFree) {
  RunSpec RS;
  RS.TypeName = "counter";
  RS.Nodes = 3;
  RS.Calls = 3;
  RS.WorkSeed = 1;
  McOptions Opt;
  Opt.MaxRuns = 500;
  Opt.MaxCrashPoints = 0;
  McReport R = exploreType(RS, Opt);
  EXPECT_TRUE(R.ok()) << (R.Violation ? R.Violation->Failure : "?");
  // The tree converges well inside the run budget. (BudgetExhausted may
  // still be set: the depth bound MaxBranchIdx always truncates the long
  // poll-tie tail of each run.)
  EXPECT_LT(R.Explored, Opt.MaxRuns);
  EXPECT_GT(R.Explored, 1u);
  EXPECT_GT(R.ChoicePoints, R.BranchPoints);
  EXPECT_EQ(R.CrashPlacements, 0u);
}

TEST(Explorer, DporPrunesAtLeastFiveFold) {
  RunSpec RS;
  RS.TypeName = "counter";
  RS.Nodes = 3;
  RS.Calls = 3;
  RS.WorkSeed = 1;
  McOptions Opt;
  Opt.MaxRuns = 500;
  Opt.MaxCrashPoints = 0;
  McReport R = exploreType(RS, Opt);
  ASSERT_TRUE(R.ok());
  ASSERT_GT(R.Explored, 0u);
  // naive / explored >= 5 <=> log10(naive) - log10(explored) >= log10(5).
  long double ReductionLog10 =
      R.NaiveLog10 - std::log10(static_cast<long double>(R.Explored));
  EXPECT_GE(ReductionLog10, std::log10(5.0L));
}

TEST(Explorer, CorruptedBankYieldsReplayableCounterexample) {
  RunSpec RS;
  RS.TypeName = "bank-account";
  RS.Mutation = "drop-conflict:withdraw/withdraw";
  RS.Nodes = 3;
  RS.Calls = 6;
  RS.WorkSeed = 1;
  McOptions Opt;
  Opt.MaxRuns = 600;
  Opt.MaxCrashPoints = 0;
  McReport R = exploreType(RS, Opt);
  ASSERT_FALSE(R.ok());
  const McViolation &V = *R.Violation;
  EXPECT_FALSE(V.Failure.empty());

  // Round-trip the certificate through the dump format hamband_fuzz
  // --replay-trace consumes.
  std::string Path = testing::TempDir() + "/explorer_ce.ftrace";
  ASSERT_TRUE(writeTraceFile(Path, V.Spec, V.Trace));
  RunSpec Parsed;
  sim::FaultTrace Trace;
  ASSERT_TRUE(readTraceFile(Path, Parsed, Trace));
  std::remove(Path.c_str());
  EXPECT_EQ(Parsed.TypeName, RS.TypeName);
  EXPECT_EQ(Parsed.Mutation, RS.Mutation);
  EXPECT_EQ(Parsed.Calls, RS.Calls);
  EXPECT_EQ(Parsed.WorkSeed, RS.WorkSeed);
  EXPECT_EQ(Trace, V.Trace);

  // Replay must reproduce the trace bit-for-bit and re-trip the oracle.
  RunOutcome Replayed = runSchedule(Parsed, nullptr, &Trace);
  EXPECT_EQ(Replayed.Trace, V.Trace);
  EXPECT_FALSE(Replayed.Ok);
}

TEST(Explorer, CorrectBankSpecSurvivesTheSameScope) {
  // The control for the corrupted-spec fixture: the unmutated bank
  // account passes the identical exploration.
  RunSpec RS;
  RS.TypeName = "bank-account";
  RS.Nodes = 3;
  RS.Calls = 6;
  RS.WorkSeed = 1;
  McOptions Opt;
  Opt.MaxRuns = 600;
  Opt.MaxCrashPoints = 0;
  McReport R = exploreType(RS, Opt);
  EXPECT_TRUE(R.ok()) << (R.Violation ? R.Violation->Failure : "?");
}

TEST(Explorer, CrashPlacementsAreEnumerated) {
  RunSpec RS;
  RS.TypeName = "counter";
  RS.Nodes = 3;
  RS.Calls = 3;
  RS.WorkSeed = 2;
  McOptions Opt;
  Opt.MaxRuns = 400;
  Opt.MaxCrashPoints = 1;
  Opt.MaxStagePlacements = 2;
  McReport R = exploreType(RS, Opt);
  EXPECT_TRUE(R.ok()) << (R.Violation ? R.Violation->Failure : "?");
  EXPECT_GT(R.CrashPlacements, 0u);
}

// -- Harness --------------------------------------------------------------

TEST(Harness, MakeRunTypeValidatesSpecs) {
  RunSpec Good;
  Good.TypeName = "counter";
  EXPECT_NE(makeRunType(Good), nullptr);
  RunSpec Mutated;
  Mutated.TypeName = "bank-account";
  Mutated.Mutation = "drop-conflict:withdraw/withdraw";
  EXPECT_NE(makeRunType(Mutated), nullptr);
  RunSpec BadType;
  BadType.TypeName = "no-such-type";
  EXPECT_EQ(makeRunType(BadType), nullptr);
  RunSpec BadMutation;
  BadMutation.TypeName = "counter";
  BadMutation.Mutation = "drop-conflict:no/such";
  EXPECT_EQ(makeRunType(BadMutation), nullptr);
}

TEST(Harness, TraceHeaderRoundTripsWithAndWithoutMutation) {
  sim::FaultTrace T;
  T.Seed = 99;
  T.NumNodes = 3;
  RunSpec RS;
  RS.TypeName = "gset";
  RS.Nodes = 3;
  RS.Calls = 12;
  RS.WorkSeed = 1234;
  for (int Pass = 0; Pass < 2; ++Pass) {
    RS.Mutation = Pass ? "drop-dep:removeTags/addTag" : "";
    std::string Path = testing::TempDir() + "/harness_rt.ftrace";
    ASSERT_TRUE(writeTraceFile(Path, RS, T));
    RunSpec Parsed;
    sim::FaultTrace Back;
    ASSERT_TRUE(readTraceFile(Path, Parsed, Back));
    std::remove(Path.c_str());
    EXPECT_EQ(Parsed.TypeName, RS.TypeName);
    EXPECT_EQ(Parsed.Mutation, RS.Mutation);
    EXPECT_EQ(Parsed.Nodes, RS.Nodes);
    EXPECT_EQ(Parsed.Calls, RS.Calls);
    EXPECT_EQ(Parsed.WorkSeed, RS.WorkSeed);
    EXPECT_EQ(Back, T);
  }
}

TEST(Harness, TraceHeaderWithUnknownKeyOrBadCountIsRefused) {
  // A key this build does not know names a setting it cannot reproduce,
  // and a count that is not a whole positive number names no run.
  sim::FaultTrace T;
  T.Seed = 7;
  T.NumNodes = 3;
  RunSpec RS;
  RS.TypeName = "counter";
  RS.Nodes = 3;
  RS.Calls = 12;
  RS.WorkSeed = 5;
  std::string Path = testing::TempDir() + "/harness_bad.ftrace";
  ASSERT_TRUE(writeTraceFile(Path, RS, T));
  std::string Header, Body;
  {
    std::ifstream IS(Path);
    std::getline(IS, Header);
    std::stringstream Rest;
    Rest << IS.rdbuf();
    Body = Rest.str();
  }
  ASSERT_EQ(Header, "# hamband_fuzz type=counter nodes=3 calls=12 workseed=5");
  auto Parses = [&](const std::string &H) {
    std::ofstream(Path) << H << "\n" << Body;
    RunSpec Parsed;
    sim::FaultTrace Back;
    return readTraceFile(Path, Parsed, Back);
  };
  EXPECT_TRUE(Parses(Header));
  EXPECT_TRUE(Parses(Header + " batched=1 deltas=0 reconfig=1"));
  EXPECT_FALSE(Parses(Header + " shards=4 bogus=1"));
  EXPECT_FALSE(Parses(Header + " bogus=1"));
  for (const char *Bad :
       {"nodes=abc calls=12 workseed=5", "nodes=0 calls=12 workseed=5",
        "nodes=3x calls=12 workseed=5", "nodes=-3 calls=12 workseed=5",
        "nodes= calls=12 workseed=5", "nodes=99999999999 calls=12 workseed=5",
        "nodes=3 calls=abc workseed=5", "nodes=3 calls=0 workseed=5",
        "nodes=3 calls=12x workseed=5", "nodes=3 calls=12 workseed=5s"})
    EXPECT_FALSE(Parses(std::string("# hamband_fuzz type=counter ") + Bad))
        << Bad;
  std::remove(Path.c_str());
}

TEST(Harness, RunScheduleReportsScheduleAndStageCounts) {
  RunSpec RS;
  RS.TypeName = "counter";
  RS.Nodes = 3;
  RS.Calls = 4;
  RS.WorkSeed = 3;
  RunOutcome Out = runSchedule(RS);
  EXPECT_TRUE(Out.Ok) << Out.Failure;
  EXPECT_GT(Out.SchedChoices, 0u);
  EXPECT_GT(Out.BroadcastStages, 0u);
  EXPECT_NE(Out.Fingerprint, 0u);
  EXPECT_EQ(Out.States.size(), RS.Nodes);
}
