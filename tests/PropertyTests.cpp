//===- tests/PropertyTests.cpp - Cross-cutting property sweeps ----------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Parameterized properties across every registered data type, random
// seeds, and payload shapes: wire-format round trips, summarization
// algebra, category coherence, prepare idempotence, ring payload sweeps,
// and end-to-end determinism of the simulation.
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"
#include "hamband/benchlib/Runner.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/core/Verifier.h"
#include "hamband/runtime/RingBuffer.h"
#include "hamband/runtime/WireFormat.h"

#include <gtest/gtest.h>

using namespace hamband;
using namespace hamband::runtime;

namespace {

std::string sanitize(std::string Name) {
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name;
}

} // namespace

// GTEST_FLAG_SET only exists in googletest >= 1.11; older releases expose
// the flag as ::testing::FLAGS_gtest_death_test_style directly.
#ifdef GTEST_FLAG_SET
#define HAMBAND_SET_DEATH_TEST_STYLE(Style)                                  \
  GTEST_FLAG_SET(death_test_style, Style)
#else
#define HAMBAND_SET_DEATH_TEST_STYLE(Style)                                  \
  (::testing::FLAGS_gtest_death_test_style = Style)
#endif

// -- Per-type structural properties ------------------------------------------

class TypePropertyTest : public ::testing::TestWithParam<std::string> {
protected:
  void SetUp() override { Type = makeType(GetParam()); }
  std::unique_ptr<ObjectType> Type;
};

TEST_P(TypePropertyTest, CategoryDefinitionsAreCoherent) {
  const CoordinationSpec &S = Type->coordination();
  for (MethodId M = 0; M < Type->numMethods(); ++M) {
    switch (S.category(M)) {
    case MethodCategory::Reducible:
      EXPECT_TRUE(S.sumGroup(M).has_value());
      EXPECT_TRUE(S.isDependenceFree(M));
      EXPECT_FALSE(S.isConflicting(M));
      EXPECT_FALSE(S.syncGroup(M).has_value());
      break;
    case MethodCategory::IrreducibleFree:
      EXPECT_FALSE(S.isConflicting(M));
      EXPECT_TRUE(!S.sumGroup(M) || !S.isDependenceFree(M));
      break;
    case MethodCategory::Conflicting:
      EXPECT_TRUE(S.syncGroup(M).has_value());
      break;
    case MethodCategory::Query:
      EXPECT_FALSE(S.isUpdate(M));
      break;
    }
  }
}

TEST_P(TypePropertyTest, SyncGroupMembersAreMutuallyGrouped) {
  const CoordinationSpec &S = Type->coordination();
  for (unsigned G = 0; G < S.numSyncGroups(); ++G)
    for (MethodId M : S.syncGroupMembers(G))
      EXPECT_EQ(S.syncGroup(M), std::optional<unsigned>(G));
}

TEST_P(TypePropertyTest, SummarizeIsAssociativeOnSamples) {
  // (a+b)+c and a+(b+c) must act identically on every reachable state, for
  // every triple of enumerated calls of one summarizable method.
  const CoordinationSpec &S = Type->coordination();
  analysis::Verifier V(*Type);
  for (MethodId M = 0; M < Type->numMethods(); ++M) {
    if (!S.sumGroup(M))
      continue;
    std::vector<Call> Calls =
        Type->enumerateCalls(M, analysis::DefaultVerifyBound);
    for (const Call &A : Calls)
      for (const Call &B : Calls)
        for (const Call &C : Calls) {
          Call AB, AB_C, BC, A_BC;
          ASSERT_TRUE(Type->summarize(A, B, AB));
          ASSERT_TRUE(Type->summarize(AB, C, AB_C));
          ASSERT_TRUE(Type->summarize(B, C, BC));
          ASSERT_TRUE(Type->summarize(A, BC, A_BC));
          for (std::size_t I = 0; I < V.numStates(); ++I)
            EXPECT_TRUE(Type->applyCopy(V.state(I), AB_C)
                            ->equals(*Type->applyCopy(V.state(I), A_BC)))
                << GetParam() << " (" << A.str() << ", " << B.str() << ", "
                << C.str() << ") on " << V.state(I).str();
        }
  }
}

TEST_P(TypePropertyTest, PrepareIsIdempotent) {
  sim::Rng R(11);
  analysis::Verifier V(*Type);
  for (MethodId M = 0; M < Type->numMethods(); ++M) {
    if (Type->method(M).Kind != MethodKind::Update)
      continue;
    for (std::size_t I = 0; I < V.numStates(); ++I) {
      Call Client = Type->randomClientCall(M, 1, 1000, R);
      Call Once = Type->prepare(V.state(I), Client);
      Call Twice = Type->prepare(V.state(I), Once);
      EXPECT_EQ(Once, Twice) << GetParam();
    }
  }
}

TEST_P(TypePropertyTest, WireCallRoundTripsForEveryMethod) {
  const CoordinationSpec &S = Type->coordination();
  const unsigned Procs = 5;
  for (MethodId M = 0; M < Type->numMethods(); ++M) {
    if (!S.isUpdate(M))
      continue;
    for (const Call &C :
         Type->enumerateCalls(M, analysis::DefaultVerifyBound)) {
      WireCall In;
      In.TheCall = C;
      In.TheCall.Issuer = 3;
      In.TheCall.Req = 424242;
      In.BcastSeq = 17;
      unsigned K = 0;
      for (MethodId Dep : S.dependencies(M))
        In.Deps.push_back(semantics::DepEntry{
            static_cast<ProcessId>(K++ % Procs), Dep, K * 3 + 1});
      std::vector<std::uint8_t> Bytes = encodeCall(S, Procs, In);
      WireCall Out;
      ASSERT_TRUE(decodeCall(S, Procs, Bytes.data(), Bytes.size(), Out));
      EXPECT_EQ(Out.TheCall, In.TheCall);
      EXPECT_EQ(Out.BcastSeq, In.BcastSeq);
      EXPECT_EQ(Out.Deps.size(), In.Deps.size());
    }
  }
}

TEST_P(TypePropertyTest, RandomClientCallsAreWellFormed) {
  sim::Rng R(99);
  for (MethodId M = 0; M < Type->numMethods(); ++M) {
    for (int I = 0; I < 20; ++I) {
      Call C = Type->randomClientCall(M, 2, 500 + I, R);
      EXPECT_EQ(C.Method, M);
      EXPECT_EQ(C.Issuer, 2u);
      // Prepared + applied without tripping assertions, on a valid state.
      StatePtr St = Type->initialState();
      Call P = Type->prepare(*St, C);
      if (Type->method(M).Kind == MethodKind::Update)
        Type->apply(*St, P);
      else
        (void)Type->query(*St, P);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, TypePropertyTest,
    ::testing::ValuesIn(hamband::registeredTypeNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      return sanitize(Info.param);
    });

// -- Ring buffer payload sweep ------------------------------------------------

class RingPayloadTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RingPayloadTest, RoundTripsPayloadSize) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2, rdma::NetworkModel(), 1u << 20);
  RingGeometry Geom{16, 256};
  RingWriter W(Fab, 0, 1, 4096, 128, Geom);
  RingReader R(Fab, 1, 0, 4096, 128, Geom);
  std::size_t Size = GetParam();
  ASSERT_LE(Size, Geom.maxPayload());
  std::vector<std::uint8_t> Payload(Size);
  for (std::size_t I = 0; I < Size; ++I)
    Payload[I] = static_cast<std::uint8_t>(I * 7 + 1);
  ASSERT_TRUE(W.append(Payload));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, Payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingPayloadTest,
                         ::testing::Values(0u, 1u, 17u, 100u, 243u));

// -- Assertion guards (assertions are enabled in all build types) -------------

TEST(DeathGuards, MemoryRegionRejectsOutOfBounds) {
  HAMBAND_SET_DEATH_TEST_STYLE("threadsafe");
  rdma::MemoryRegion M(64);
  EXPECT_DEATH(M.writeU64(60, 1), "out of bounds");
  EXPECT_DEATH(M.readU64(63), "out of bounds");
}

TEST(DeathGuards, MemoryRegionAllocExhaustion) {
  HAMBAND_SET_DEATH_TEST_STYLE("threadsafe");
  rdma::MemoryRegion M(64);
  M.alloc(48);
  EXPECT_DEATH(M.alloc(32), "exhausted");
}

TEST(DeathGuards, RingWriterRejectsOversizedPayload) {
  HAMBAND_SET_DEATH_TEST_STYLE("threadsafe");
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2, rdma::NetworkModel(), 1u << 16);
  RingGeometry Geom{8, 64};
  RingWriter W(Fab, 0, 1, 1024, 128, Geom);
  std::vector<std::uint8_t> TooBig(Geom.maxPayload() + 1, 0);
  EXPECT_DEATH(W.append(TooBig), "exceeds cell size");
}

// -- Stress determinism --------------------------------------------------------

TEST(StressDeterminism, TwoSimulatorsExecuteIdentically) {
  // 10k randomly timed events on two engines must fire in the same order.
  auto Run = [](std::uint64_t Seed) {
    sim::Simulator S;
    sim::Rng R(Seed);
    std::vector<std::uint32_t> Order;
    for (std::uint32_t I = 0; I < 10000; ++I)
      S.schedule(R.uniformInt(0, 5000),
                 [&Order, I]() { Order.push_back(I); });
    S.run();
    return Order;
  };
  EXPECT_EQ(Run(7), Run(7));
  EXPECT_NE(Run(7), Run(8));
}

TEST(StressDeterminism, RingSurvivesThousandsOfLaps) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2, rdma::NetworkModel(), 1u << 20);
  RingGeometry Geom{8, 64};
  RingWriter W(Fab, 0, 1, 4096, 128, Geom);
  RingReader R(Fab, 1, 0, 4096, 128, Geom);
  std::uint32_t Sent = 0, Received = 0;
  for (unsigned Round = 0; Round < 1000; ++Round) {
    while (!W.full()) {
      std::vector<std::uint8_t> P(4);
      std::memcpy(P.data(), &Sent, 4);
      ASSERT_TRUE(W.append(P));
      ++Sent;
    }
    Sim.run();
    std::vector<std::uint8_t> Got;
    while (R.peek(Got)) {
      std::uint32_t V = 0;
      std::memcpy(&V, Got.data(), 4);
      ASSERT_EQ(V, Received);
      ++Received;
      R.consume();
    }
    R.forceFeedback();
    Sim.run();
  }
  EXPECT_EQ(Received, Sent);
  EXPECT_GT(Sent, 7000u); // Many laps of the 8-cell ring.
}

// -- End-to-end determinism ----------------------------------------------------

class DeterminismTest
    : public ::testing::TestWithParam<benchlib::RuntimeKind> {};

TEST_P(DeterminismTest, IdenticalSeedsGiveIdenticalRuns) {
  auto T = makeType("counter");
  benchlib::WorkloadSpec W;
  W.NumOps = 400;
  W.UpdateRatio = 0.3;
  benchlib::RunnerOptions Opts;
  Opts.Kind = GetParam();
  Opts.NumNodes = 3;
  Opts.Repetitions = 1;
  benchlib::RunResult A = benchlib::runOnce(*T, W, Opts, 9);
  benchlib::RunResult B = benchlib::runOnce(*T, W, Opts, 9);
  EXPECT_EQ(A.ThroughputOpsPerUs, B.ThroughputOpsPerUs);
  EXPECT_EQ(A.MeanResponseUs, B.MeanResponseUs);
  EXPECT_EQ(A.CompletedOps, B.CompletedOps);
  benchlib::RunResult Diff = benchlib::runOnce(*T, W, Opts, 10);
  // A different seed permutes the workload; results may legitimately
  // differ (not asserted), but the run must still complete.
  EXPECT_TRUE(Diff.Completed);
}

INSTANTIATE_TEST_SUITE_P(Kinds, DeterminismTest,
                         ::testing::Values(benchlib::RuntimeKind::Hamband,
                                           benchlib::RuntimeKind::Msg,
                                           benchlib::RuntimeKind::MuSmr));

// -- Randomized wire-format round trips ---------------------------------------

// Property: encodeCall/decodeCall round-trip arbitrary calls with
// arbitrary dependency arrays. The decoder reconstructs a sparse DepMap
// (zero counts are dropped), so equality is asserted on the dense block.
TEST(WireRandomized, CallRoundTripsUnderRandomDepsAndArgs) {
  sim::Rng R(314159);
  for (const std::string &Name : hamband::registeredTypeNames()) {
    auto Type = makeType(Name);
    const CoordinationSpec &S = Type->coordination();
    for (unsigned Iter = 0; Iter < 40; ++Iter) {
      unsigned Procs = 1 + static_cast<unsigned>(R.index(7));
      MethodId M = static_cast<MethodId>(R.index(Type->numMethods()));
      if (!S.isUpdate(M))
        continue;
      WireCall In;
      In.TheCall =
          Type->randomClientCall(M, static_cast<ProcessId>(R.index(Procs)),
                                 R.nextU64(), R);
      In.BcastSeq = R.nextU64();
      for (MethodId Dep : S.dependencies(M)) {
        // Random subset of processes, counts spanning 0..uint64 max.
        for (ProcessId P = 0; P < Procs; ++P) {
          if (R.index(2))
            continue;
          std::uint64_t Count =
              R.index(3) ? R.nextU64() % 1000 : ~std::uint64_t{0};
          In.Deps.push_back(semantics::DepEntry{P, Dep, Count});
        }
      }
      std::vector<std::uint8_t> Bytes = encodeCall(S, Procs, In);
      WireCall Out;
      ASSERT_TRUE(decodeCall(S, Procs, Bytes.data(), Bytes.size(), Out))
          << Name;
      EXPECT_EQ(Out.TheCall, In.TheCall) << Name;
      EXPECT_EQ(Out.BcastSeq, In.BcastSeq) << Name;
      EXPECT_EQ(denseDeps(S, Procs, M, Out.Deps),
                denseDeps(S, Procs, M, In.Deps))
          << Name;
      // Any strict prefix must be rejected, never mis-decoded.
      if (!Bytes.empty()) {
        WireCall Trunc;
        EXPECT_FALSE(decodeCall(S, Procs, Bytes.data(),
                                R.index(Bytes.size()), Trunc))
            << Name;
      }
    }
  }
}

// Edge shapes: a zero-argument, zero-dependency call (the smallest
// encodable payload) and a maximal one (full argument vector, every
// dependency cell saturated).
TEST(WireRandomized, CallRoundTripsAtPayloadExtremes) {
  auto Type = makeType("counter");
  const CoordinationSpec &S = Type->coordination();
  const unsigned Procs = 7;

  WireCall Tiny;
  Tiny.TheCall = Call(0, {}, 0, 0);
  Tiny.BcastSeq = 0;
  std::vector<std::uint8_t> TinyBytes = encodeCall(S, Procs, Tiny);
  WireCall TinyOut;
  ASSERT_TRUE(
      decodeCall(S, Procs, TinyBytes.data(), TinyBytes.size(), TinyOut));
  EXPECT_EQ(TinyOut.TheCall, Tiny.TheCall);
  EXPECT_TRUE(TinyOut.TheCall.Args.empty());
  EXPECT_TRUE(TinyOut.Deps.empty());

  WireCall Big;
  Big.TheCall = Call(0, std::vector<Value>(255, INT64_MIN), Procs - 1,
                     ~std::uint64_t{0});
  Big.BcastSeq = ~std::uint64_t{0};
  for (MethodId Dep : S.dependencies(0))
    for (ProcessId P = 0; P < Procs; ++P)
      Big.Deps.push_back(
          semantics::DepEntry{P, Dep, ~std::uint64_t{0}});
  std::vector<std::uint8_t> BigBytes = encodeCall(S, Procs, Big);
  WireCall BigOut;
  ASSERT_TRUE(
      decodeCall(S, Procs, BigBytes.data(), BigBytes.size(), BigOut));
  EXPECT_EQ(BigOut.TheCall, Big.TheCall);
  EXPECT_EQ(denseDeps(S, Procs, 0, BigOut.Deps),
            denseDeps(S, Procs, 0, Big.Deps));
}

// The mail and summary-slot codecs under the same random sweep. Mail
// shares the F ring with calls, call batches and summary-delta frames, so
// each record kind's marker test accepts only its own records.
TEST(WireRandomized, MailAndSummaryRoundTrip) {
  sim::Rng R(2718);
  auto Type = makeType("bank-account");
  const CoordinationSpec &S = Type->coordination();
  for (unsigned Iter = 0; Iter < 60; ++Iter) {
    MailMsg In;
    In.Kind = R.index(2) ? MailKind::ConfResponse : MailKind::ConfRequest;
    In.ReqId = R.nextU64();
    In.Ok = static_cast<std::uint8_t>(R.index(2));
    MethodId M = static_cast<MethodId>(R.index(Type->numMethods()));
    ProcessId Issuer = static_cast<ProcessId>(R.index(8));
    In.TheCall = Type->randomClientCall(M, Issuer, R.nextU64(), R);
    if (Iter == 0)
      In.TheCall.Args.clear(); // Zero-length argument edge.
    std::vector<std::uint8_t> Bytes = encodeMail(In);
    MailMsg Out;
    ASSERT_TRUE(decodeMail(Bytes.data(), Bytes.size(), Out));
    EXPECT_EQ(Out.Kind, In.Kind);
    EXPECT_EQ(Out.ReqId, In.ReqId);
    EXPECT_EQ(Out.Ok, In.Ok);
    EXPECT_EQ(Out.TheCall, In.TheCall);
    MailMsg Trunc;
    EXPECT_FALSE(decodeMail(Bytes.data(), Bytes.size() - 1, Trunc));
    std::vector<std::uint8_t> Unmarked(Bytes.begin() + 2, Bytes.end());
    EXPECT_FALSE(decodeMail(Unmarked.data(), Unmarked.size(), Trunc));

    WireCall WC;
    WC.TheCall = In.TheCall;
    std::vector<std::uint8_t> CallBytes = encodeCall(S, 8, WC);
    std::vector<std::uint8_t> BatchBytes = encodeCallBatch({CallBytes});
    SummaryDeltaFrame F;
    F.Image = CallBytes;
    std::vector<std::uint8_t> DeltaBytes = encodeSummaryDelta(F);
    for (const std::vector<std::uint8_t> *Rec :
         {&Bytes, &CallBytes, &BatchBytes, &DeltaBytes}) {
      const std::uint8_t *D = Rec->data();
      std::size_t L = Rec->size();
      EXPECT_EQ(isMail(D, L), Rec == &Bytes);
      EXPECT_EQ(isCallBatch(D, L), Rec == &BatchBytes);
      EXPECT_EQ(isSummaryDelta(D, L), Rec == &DeltaBytes);
      MailMsg NotMail;
      EXPECT_EQ(decodeMail(D, L, NotMail), Rec == &Bytes);
    }

    SummaryImage Img;
    Img.Seq = R.nextU64();
    Img.Summary = In.TheCall;
    for (std::size_t K = R.index(4); K > 0; --K)
      Img.AppliedCounts.emplace_back(
          static_cast<MethodId>(R.index(Type->numMethods())), R.nextU64());
    std::vector<std::uint8_t> SumBytes = encodeSummary(Img);
    SummaryImage SumOut;
    ASSERT_TRUE(decodeSummary(SumBytes.data(), SumBytes.size(), SumOut));
    EXPECT_EQ(SumOut.Seq, Img.Seq);
    EXPECT_EQ(SumOut.Summary, Img.Summary);
    EXPECT_EQ(SumOut.AppliedCounts, Img.AppliedCounts);
    SummaryImage SumTrunc;
    EXPECT_FALSE(
        decodeSummary(SumBytes.data(), SumBytes.size() - 1, SumTrunc));
  }
}
