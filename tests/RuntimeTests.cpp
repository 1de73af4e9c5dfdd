//===- tests/RuntimeTests.cpp - Hamband runtime tests -------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/baselines/MuSmrRuntime.h"
#include "hamband/rdma/Fabric.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/runtime/HambandCluster.h"
#include "hamband/runtime/RequestIdSet.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/Movie.h"
#include "hamband/types/ORSet.h"
#include "hamband/types/PNCounter.h"
#include "hamband/types/Schema.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

using namespace hamband;
using namespace hamband::runtime;
using namespace hamband::types;

namespace {

/// Runs the simulator in slices until \p Pred holds or \p CapUs elapses.
template <typename PredT>
bool runUntil(sim::Simulator &Sim, PredT Pred, double CapUs = 200000.0) {
  sim::SimTime Cap = Sim.now() + sim::micros(CapUs);
  while (Sim.now() < Cap) {
    if (Pred())
      return true;
    Sim.run(Sim.now() + sim::micros(20));
  }
  return Pred();
}

} // namespace

// -- Wire format --------------------------------------------------------------

TEST(WireFormat, ByteWriterReaderRoundTrip) {
  ByteWriter W;
  W.u8(7);
  W.u16(0xBEEF);
  W.u32(0xCAFEBABE);
  W.u64(0x0123456789ABCDEFull);
  W.i64(-42);
  std::vector<std::uint8_t> Bytes = W.take();
  ByteReader R(Bytes);
  EXPECT_EQ(R.u8(), 7);
  EXPECT_EQ(R.u16(), 0xBEEF);
  EXPECT_EQ(R.u32(), 0xCAFEBABEu);
  EXPECT_EQ(R.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.i64(), -42);
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R.remaining(), 0u);
}

TEST(WireFormat, ByteReaderDetectsTruncation) {
  std::vector<std::uint8_t> Bytes = {1, 2};
  ByteReader R(Bytes);
  R.u32();
  EXPECT_FALSE(R.ok());
}

TEST(WireFormat, CallRoundTripWithDeps) {
  BankAccount T;
  const CoordinationSpec &Spec = T.coordination();
  WireCall In;
  In.TheCall = Call(BankAccount::Withdraw, {5}, 2, 77);
  In.Deps.push_back(semantics::DepEntry{0, BankAccount::Deposit, 3});
  In.Deps.push_back(semantics::DepEntry{2, BankAccount::Deposit, 9});
  In.BcastSeq = 1234;
  std::vector<std::uint8_t> Bytes = encodeCall(Spec, 3, In);
  WireCall Out;
  ASSERT_TRUE(decodeCall(Spec, 3, Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.TheCall, In.TheCall);
  EXPECT_EQ(Out.BcastSeq, 1234u);
  ASSERT_EQ(Out.Deps.size(), 2u);
  EXPECT_EQ(Out.Deps[0].P, 0u);
  EXPECT_EQ(Out.Deps[0].Count, 3u);
  EXPECT_EQ(Out.Deps[1].P, 2u);
  EXPECT_EQ(Out.Deps[1].Count, 9u);
}

TEST(WireFormat, DepBlockSizeImpliedByMethod) {
  // A dependence-free method encodes no dependency block at all.
  BankAccount T;
  WireCall Dep;
  Dep.TheCall = Call(BankAccount::Deposit, {5}, 0, 1);
  WireCall Wd;
  Wd.TheCall = Call(BankAccount::Withdraw, {5}, 0, 1);
  std::size_t DepLen = encodeCall(T.coordination(), 4, Dep).size();
  std::size_t WdLen = encodeCall(T.coordination(), 4, Wd).size();
  EXPECT_EQ(WdLen, DepLen + 4 * 8); // |P| x |Dep(withdraw)| counts.
}

TEST(WireFormat, MailRoundTrip) {
  MailMsg In;
  In.Kind = MailKind::ConfRequest;
  In.ReqId = 991;
  In.TheCall = Call(1, {4, 5}, 3, 991);
  std::vector<std::uint8_t> Bytes = encodeMail(In);
  MailMsg Out;
  ASSERT_TRUE(decodeMail(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Kind, MailKind::ConfRequest);
  EXPECT_EQ(Out.ReqId, 991u);
  EXPECT_EQ(Out.TheCall, In.TheCall);
}

TEST(WireFormat, SummaryRoundTrip) {
  SummaryImage In;
  In.Seq = 42;
  In.Summary = Call(0, {100}, 1, 7);
  In.AppliedCounts = {{0, 13}};
  std::vector<std::uint8_t> Bytes = encodeSummary(In);
  SummaryImage Out;
  ASSERT_TRUE(decodeSummary(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Seq, 42u);
  EXPECT_EQ(Out.Summary, In.Summary);
  ASSERT_EQ(Out.AppliedCounts.size(), 1u);
  EXPECT_EQ(Out.AppliedCounts[0].second, 13u);
}

TEST(WireFormat, FlushImageRoundTripAndTruncation) {
  FlushImage In;
  In.Summaries = {{0, {1, 2, 3}}, {2, {4}}};
  In.Deltas = {{5, 6}, {}};
  In.FreeRecord = {7, 8, 9};
  std::vector<std::uint8_t> Bytes = encodeFlushImage(In);
  // The size helpers a flush budgets with add up to the encoded size.
  EXPECT_EQ(Bytes.size(), FlushImageBaseBytes + In.FreeRecord.size() +
                              flushImageSummaryBytes(3) +
                              flushImageSummaryBytes(1) +
                              flushImageDeltaBytes(2) +
                              flushImageDeltaBytes(0));
  FlushImage Out;
  ASSERT_TRUE(decodeFlushImage(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Summaries, In.Summaries);
  EXPECT_EQ(Out.Deltas, In.Deltas);
  EXPECT_EQ(Out.FreeRecord, In.FreeRecord);
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len)
    EXPECT_FALSE(decodeFlushImage(Bytes.data(), Len, Out)) << "length " << Len;
}

TEST(WireFormat, CallBatchRoundTripAndTruncation) {
  BankAccount T;
  const CoordinationSpec &Spec = T.coordination();
  WireCall A, B;
  A.TheCall = Call(BankAccount::Deposit, {5}, 1, 10);
  A.BcastSeq = 3;
  B.TheCall = Call(BankAccount::Withdraw, {2}, 1, 11);
  B.Deps.push_back(semantics::DepEntry{1, BankAccount::Deposit, 4});
  B.BcastSeq = 4;
  std::vector<std::uint8_t> Bytes =
      encodeCallBatch({encodeCall(Spec, 3, A), encodeCall(Spec, 3, B)});
  std::vector<WireCall> Out;
  ASSERT_TRUE(decodeCallBatch(Spec, 3, Bytes.data(), Bytes.size(), Out));
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].TheCall, A.TheCall);
  EXPECT_EQ(Out[1].TheCall, B.TheCall);
  EXPECT_EQ(Out[1].BcastSeq, 4u);
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len)
    EXPECT_FALSE(decodeCallBatch(Spec, 3, Bytes.data(), Len, Out))
        << "length " << Len;
}

TEST(WireFormat, SummaryDeltaRoundTripAndTruncation) {
  SummaryDeltaFrame In;
  In.Group = 2;
  In.ChunkIdx = 1;
  In.ChunkCount = 3;
  In.FromSeq = 7;
  In.ToSeq = 9;
  In.Epoch = 4;
  In.Image = encodeSummary({9, Call(0, {1, 2}, 1, 0), {{0, 9}}});
  std::vector<std::uint8_t> Bytes = encodeSummaryDelta(In);
  EXPECT_EQ(Bytes.size(), SummaryDeltaHeaderBytes + In.Image.size());
  SummaryDeltaFrame Out;
  ASSERT_TRUE(decodeSummaryDelta(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Group, 2u);
  EXPECT_EQ(Out.ChunkIdx, 1u);
  EXPECT_EQ(Out.ChunkCount, 3u);
  EXPECT_EQ(Out.FromSeq, 7u);
  EXPECT_EQ(Out.ToSeq, 9u);
  EXPECT_EQ(Out.Epoch, 4u);
  EXPECT_EQ(Out.Image, In.Image);
  for (std::size_t Len = 0; Len < Bytes.size(); ++Len)
    EXPECT_FALSE(decodeSummaryDelta(Bytes.data(), Len, Out))
        << "length " << Len;
}

TEST(WireFormat, SummaryImageBytesMatchesEncoding) {
  for (std::size_t Args : {0, 1, 57})
    for (std::size_t Counts : {0, 1, 4}) {
      SummaryImage Img;
      Img.Seq = 1;
      Img.Summary = Call(0, std::vector<Value>(Args, 7), 0, 0);
      for (std::size_t I = 0; I < Counts; ++I)
        Img.AppliedCounts.emplace_back(static_cast<MethodId>(I), I);
      EXPECT_EQ(summaryImageBytes(Args, Counts), encodeSummary(Img).size())
          << Args << " args, " << Counts << " counts";
    }
}

TEST(WireFormat, SummarySlotRoundTripRejectsTornAndClearSlots) {
  const std::size_t SlotBytes = 128;
  std::vector<std::uint8_t> Old = encodeSummarySlot(
      encodeSummary({5, Call(0, {100}, 1, 0), {{0, 5}}}), SlotBytes);
  std::vector<std::uint8_t> New = encodeSummarySlot(
      encodeSummary({6, Call(0, {101}, 1, 0), {{0, 6}}}), SlotBytes);
  ASSERT_EQ(New.size(), SlotBytes);
  SummaryImage Out;
  ASSERT_TRUE(decodeSummarySlot(New.data(), New.size(), Out));
  EXPECT_EQ(Out.Seq, 6u);
  EXPECT_EQ(Out.Summary, Call(0, {101}, 1, 0));

  // A torn overwrite: the new header and image over the old seq trailer.
  std::vector<std::uint8_t> Torn = New;
  std::copy(Old.end() - 9, Old.end(), Torn.end() - 9);
  EXPECT_FALSE(decodeSummarySlot(Torn.data(), Torn.size(), Out));

  // A slot never written (or mid-first-write) has its canary clear.
  std::vector<std::uint8_t> Clear = New;
  Clear.back() = 0;
  EXPECT_FALSE(decodeSummarySlot(Clear.data(), Clear.size(), Out));
}

TEST(WireFormat, DecodeRejectsGarbage) {
  BankAccount T;
  std::vector<std::uint8_t> Garbage = {0xFF, 0xFF, 0xFF};
  WireCall Out;
  EXPECT_FALSE(decodeCall(T.coordination(), 3, Garbage.data(),
                          Garbage.size(), Out));
}

// -- Memory map ---------------------------------------------------------------

TEST(MemoryMapTest, OffsetsAreDisjoint) {
  RingGeometry G{64, 128};
  MemoryMap Map(4, 2, 2, G, G);
  // Spot-check that major structures do not overlap.
  EXPECT_LT(Map.summarySlot(1, 3) + 512, Map.freeRingData(0) + 1);
  EXPECT_LE(Map.freeRingData(3) + G.dataBytes(), Map.freeRingFeedback(0));
  EXPECT_LE(Map.confRingData(1) + G.dataBytes(),
            Map.confRingFeedback(0, 0));
  EXPECT_LT(Map.backupSlot(), Map.heartbeat());
  EXPECT_LT(Map.heartbeat(), Map.proposalSlot(0, 0));
  EXPECT_LT(Map.proposalSlot(1, 3), Map.ackSlot(0, 0));
  EXPECT_GT(Map.totalBytes(), Map.ackSlot(1, 3));
}

TEST(MemoryMapTest, SlotsDistinctPerIndex) {
  RingGeometry G{64, 128};
  MemoryMap Map(3, 1, 1, G, G);
  EXPECT_NE(Map.summarySlot(0, 0), Map.summarySlot(0, 1));
  EXPECT_NE(Map.freeRingData(0), Map.freeRingData(1));
  EXPECT_NE(Map.proposalSlot(0, 1), Map.proposalSlot(0, 2));
}

TEST(MemoryMapTest, FreeRingGeometryFollowsTheType) {
  // 64-B lines; 16,384 of them when chunked summary images need the
  // largest record, 8,192 otherwise.
  const std::set<std::string> SummaryFree = {
      "orset", "shopping-cart", "gset-buffered", "movie", "auction"};
  unsigned WithGroups = 0;
  for (const std::string &Name : registeredTypeNames()) {
    auto T = makeType(Name);
    sim::Simulator Sim;
    HambandCluster C(Sim, 3, *T);
    const RingGeometry &G = C.memoryMap().freeGeom();
    EXPECT_EQ(G.CellSize, 64u) << Name;
    if (SummaryFree.count(Name)) {
      EXPECT_EQ(T->coordination().numSumGroups(), 0u) << Name;
      EXPECT_EQ(G.NumCells, 8192u) << Name;
    } else {
      ++WithGroups;
      EXPECT_EQ(G.NumCells, 16384u) << Name;
      EXPECT_EQ(G.maxRecordPayload(), 524275u) << Name;
    }
  }
  EXPECT_EQ(WithGroups, 8u);

  // An explicit geometry is honoured whatever the type.
  for (const char *Name : {"orset", "counter"}) {
    auto T = makeType(Name);
    sim::Simulator Sim;
    HambandConfig Cfg;
    Cfg.FreeGeom = RingGeometry{32, 128};
    HambandCluster C(Sim, 3, *T, {}, Cfg);
    EXPECT_EQ(C.memoryMap().freeGeom().NumCells, 32u) << Name;
    EXPECT_EQ(C.memoryMap().freeGeom().CellSize, 128u) << Name;
  }
}

// -- Ring buffers over the fabric ---------------------------------------------

struct RingTest : ::testing::Test {
  sim::Simulator Sim;
  rdma::Fabric Fab{Sim, 2, rdma::NetworkModel(), 1u << 20};
  RingGeometry Geom{8, 64};
  rdma::MemOffset Data = 256;
  rdma::MemOffset Feedback = 128;
  RingWriter W{Fab, 0, 1, Data, Feedback, Geom};
  RingReader R{Fab, 1, 0, Data, Feedback, Geom};
};

TEST_F(RingTest, AppendThenPeekRoundTrip) {
  std::vector<std::uint8_t> Payload = {1, 2, 3};
  ASSERT_TRUE(W.append(Payload));
  std::vector<std::uint8_t> Got;
  EXPECT_FALSE(R.peek(Got)); // Not delivered yet.
  Sim.run();
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, Payload);
  R.consume();
  EXPECT_FALSE(R.peek(Got));
  EXPECT_EQ(R.head(), 1u);
}

TEST_F(RingTest, FifoOrderPreserved) {
  for (std::uint8_t I = 0; I < 5; ++I)
    ASSERT_TRUE(W.append({I}));
  Sim.run();
  for (std::uint8_t I = 0; I < 5; ++I) {
    std::vector<std::uint8_t> Got;
    ASSERT_TRUE(R.peek(Got));
    EXPECT_EQ(Got[0], I);
    R.consume();
  }
}

TEST_F(RingTest, WriterBlocksWhenFull) {
  for (unsigned I = 0; I < Geom.NumCells; ++I)
    ASSERT_TRUE(W.append({static_cast<std::uint8_t>(I)}));
  EXPECT_TRUE(W.full());
  EXPECT_FALSE(W.append({0xFF}));
  Sim.run();
  // Consuming and feeding back reopens the ring.
  std::vector<std::uint8_t> Got;
  for (unsigned I = 0; I < Geom.NumCells; ++I) {
    ASSERT_TRUE(R.peek(Got));
    R.consume();
  }
  R.forceFeedback();
  Sim.run();
  EXPECT_FALSE(W.full());
  EXPECT_TRUE(W.append({0xFF}));
}

TEST_F(RingTest, CellsReusedAcrossLaps) {
  std::vector<std::uint8_t> Got;
  for (unsigned Lap = 0; Lap < 3; ++Lap) {
    for (unsigned I = 0; I < Geom.NumCells; ++I) {
      ASSERT_TRUE(W.append({static_cast<std::uint8_t>(Lap * 16 + I)}));
      Sim.run();
      ASSERT_TRUE(R.peek(Got));
      EXPECT_EQ(Got[0], Lap * 16 + I);
      R.consume();
    }
    R.forceFeedback();
    Sim.run();
  }
}

TEST_F(RingTest, ConsumedCellBytesRemainForCatchUp) {
  ASSERT_TRUE(W.append({9, 9}));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  R.consume();
  EXPECT_EQ(Fab.memory(1).readU8(Data + Geom.CellSize - 1), 0); // Canary.
  EXPECT_TRUE(R.readCellIgnoringCanary(0, Got));
  EXPECT_EQ(Got, (std::vector<std::uint8_t>{9, 9}));
}

TEST_F(RingTest, KeptCellIsReadableButNeverPeekedUntilALaterLapReplacesIt) {
  // A leader keeps its own log entries in its ring, one lap of them.
  for (std::uint8_t I = 0; I < Geom.NumCells; ++I)
    R.keep(I, {I, 0x4B});
  std::vector<std::uint8_t> Got;
  EXPECT_FALSE(R.peek(Got));
  EXPECT_EQ(R.head(), 0u);
  for (std::uint8_t I = 0; I < Geom.NumCells; ++I) {
    ASSERT_TRUE(R.readCellIgnoringCanary(I, Got));
    EXPECT_EQ(Got, (std::vector<std::uint8_t>{I, 0x4B}));
  }
  EXPECT_EQ(Sim.pendingEvents(), 0u); // A local store: nothing was posted.

  // Another writer takes over at the next lap: its write replaces cell 0.
  R.setHead(Geom.NumCells);
  R.forceFeedback();
  Sim.run();
  W.setTail(Geom.NumCells);
  ASSERT_TRUE(W.append({7}));
  Sim.run();
  EXPECT_FALSE(R.readCellIgnoringCanary(0, Got));
  ASSERT_TRUE(R.readCellIgnoringCanary(Geom.NumCells, Got));
  EXPECT_EQ(Got, (std::vector<std::uint8_t>{7}));
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, (std::vector<std::uint8_t>{7}));
}

// -- Spanning records (batched broadcast) ------------------------------------

namespace {

std::vector<std::uint8_t> patternPayload(std::size_t N) {
  std::vector<std::uint8_t> P(N);
  for (std::size_t I = 0; I < N; ++I)
    P[I] = static_cast<std::uint8_t>(I * 37 + 11);
  return P;
}

} // namespace

TEST_F(RingTest, SpanningRecordRoundTrip) {
  // Geom{8, 64}: one cell holds 51 payload bytes, so 100 bytes span 2.
  std::vector<std::uint8_t> Payload = patternPayload(100);
  ASSERT_EQ(Geom.cellsFor(Payload.size()), 2u);
  ASSERT_TRUE(W.appendRecord(Payload));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, Payload);
  R.consume();
  EXPECT_EQ(R.head(), 2u); // The whole span is consumed at once.
  EXPECT_FALSE(R.peek(Got));
  EXPECT_EQ(W.tail(), 2u);
}

TEST_F(RingTest, SpanningRecordInterleavesWithSingleCells) {
  ASSERT_TRUE(W.append({7}));
  ASSERT_TRUE(W.appendRecord(patternPayload(120)));
  ASSERT_TRUE(W.append({8}));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, (std::vector<std::uint8_t>{7}));
  R.consume();
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, patternPayload(120));
  R.consume();
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, (std::vector<std::uint8_t>{8}));
  R.consume();
  EXPECT_FALSE(R.peek(Got));
}

// The wrap-around edge case the batching layer depends on: a reservation
// that does not fit in the current lap's remainder must pad to the ring
// end and place the whole span at cell 0, published as one record -- the
// reader must never see a record split across the wrap.
TEST_F(RingTest, SpanningRecordPadsAndWrapsInOnePublish) {
  std::vector<std::uint8_t> Got;
  // Advance the tail to cell 7 of 8 and free the consumed cells.
  for (unsigned I = 0; I < 7; ++I) {
    ASSERT_TRUE(W.append({static_cast<std::uint8_t>(I)}));
    Sim.run();
    ASSERT_TRUE(R.peek(Got));
    R.consume();
  }
  R.forceFeedback();
  Sim.run();
  // A 2-cell span cannot fit in the single remaining cell of this lap.
  std::vector<std::uint8_t> Payload = patternPayload(90);
  ASSERT_EQ(Geom.cellsFor(Payload.size()), 2u);
  ASSERT_TRUE(W.appendRecord(Payload));
  EXPECT_EQ(W.tail(), 10u); // 7 singles + 1 pad + 2 span cells.
  Sim.run();
  // peek() skips the pad transparently and returns the span intact.
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, Payload);
  R.consume();
  EXPECT_EQ(R.head(), 10u);
  EXPECT_FALSE(R.peek(Got));
  // The ring keeps working on the next lap.
  ASSERT_TRUE(W.append({42}));
  Sim.run();
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, (std::vector<std::uint8_t>{42}));
}

TEST_F(RingTest, SpanningRecordBlocksUntilSpaceFrees) {
  // Occupy 7 of 8 cells, then free exactly one. Two cells are free, which
  // would fit the raw 2-cell span -- but the writer sits at position 7, so
  // the span needs a 1-cell wrap pad too. The pad must count against
  // capacity: reserving here would overwrite unconsumed cells.
  for (unsigned I = 0; I < 7; ++I)
    ASSERT_TRUE(W.append({static_cast<std::uint8_t>(I)}));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  R.consume();
  R.forceFeedback();
  Sim.run();
  std::vector<std::uint8_t> Payload = patternPayload(90);
  EXPECT_FALSE(W.canReserve(Geom.cellsFor(Payload.size())));
  EXPECT_FALSE(W.appendRecord(Payload));
  for (unsigned I = 0; I < 6; ++I) {
    ASSERT_TRUE(R.peek(Got));
    R.consume();
  }
  R.forceFeedback();
  Sim.run();
  EXPECT_TRUE(W.canReserve(Geom.cellsFor(Payload.size())));
  ASSERT_TRUE(W.appendRecord(Payload));
  Sim.run();
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, Payload);
}

TEST_F(RingTest, MaxRecordPayloadFitsExactly) {
  // Half the ring (4 cells of 64) minus header and canary.
  ASSERT_EQ(Geom.maxRecordPayload(), 4u * 64 - 12 - 1);
  std::vector<std::uint8_t> Payload =
      patternPayload(Geom.maxRecordPayload());
  ASSERT_TRUE(W.appendRecord(Payload));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  EXPECT_EQ(Got, Payload);
  R.consume();
  EXPECT_EQ(R.head(), 4u);
}

TEST_F(RingTest, MixedLineRecordsComeBackInOrderAcrossWraps) {
  // Geom{8, 64} is the F ring's 64-B line at a small count: records of
  // 1, 2 and 3 lines (up to 51, 115 and 179 payload bytes) stream through
  // several laps, and each one that would cross the ring end is preceded
  // by a pad filling the lap.
  obs::Registry WStats, RStats;
  W.attachStats(WStats);
  R.attachStats(RStats);
  const std::size_t Sizes[] = {40, 100, 170, 51, 52, 115, 116, 179, 0};
  std::uint64_t Tail = 0, PadCells = 0, Pads = 0, Spans = 0;
  std::vector<std::uint8_t> Got;
  for (unsigned I = 0; I < 60; ++I) {
    std::vector<std::uint8_t> Payload = patternPayload(Sizes[I % 9]);
    for (std::uint8_t &B : Payload)
      B = static_cast<std::uint8_t>(B + I);
    std::uint32_t Lines = Geom.cellsFor(Payload.size());
    ASSERT_EQ(Lines, 1u + (Payload.size() > 51) + (Payload.size() > 115));
    std::uint32_t Pos = static_cast<std::uint32_t>(Tail % Geom.NumCells);
    if (Pos + Lines > Geom.NumCells) {
      PadCells += Geom.NumCells - Pos;
      Tail += Geom.NumCells - Pos;
      ++Pads;
    }
    Tail += Lines;
    Spans += Lines > 1;
    ASSERT_TRUE(W.appendRecord(Payload)) << "record " << I;
    EXPECT_EQ(W.tail(), Tail) << "record " << I;
    Sim.run();
    ASSERT_TRUE(R.peek(Got)) << "record " << I;
    EXPECT_EQ(Got, Payload) << "record " << I;
    R.consume();
    EXPECT_EQ(R.head(), Tail) << "record " << I;
    Sim.run(); // Head feedback.
  }
  EXPECT_FALSE(R.peek(Got));
  obs::StatsSnapshot WS = WStats.snapshot(), RS = RStats.snapshot();
  EXPECT_GE(Tail / Geom.NumCells, 3u);
  EXPECT_GT(Pads, 0u);
  EXPECT_EQ(WS.counter("ring.pad_cells"), PadCells);
  EXPECT_EQ(RS.counter("ring.pad_skip"), Pads);
  EXPECT_EQ(WS.counter("ring.span_append"), Spans);
  EXPECT_EQ(WS.counter("ring.append"), 60u);
  EXPECT_EQ(WS.counter("ring.full_stall"), 0u);
  EXPECT_EQ(RS.counter("ring.consume"), 60u);
}

TEST(FreeRingCapacity, EmptySummaryFreeDefaultTakes4096RecordsOf115Bytes) {
  // 115 payload bytes + 12-B header + canary fill two lines exactly, so
  // 4,096 such records fill the default 8,192-line ring with no stall.
  const RingGeometry Geom = freeRingGeometry(0, std::nullopt);
  ASSERT_EQ(Geom.cellsFor(115), 2u);
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2, rdma::NetworkModel(), Geom.dataBytes() + 8192);
  const rdma::MemOffset Data = 4096, Feedback = 128;
  RingWriter W(Fab, 0, 1, Data, Feedback, Geom);
  RingReader R(Fab, 1, 0, Data, Feedback, Geom);
  obs::Registry Stats;
  W.attachStats(Stats);
  for (unsigned I = 0; I < 4096; ++I)
    ASSERT_TRUE(W.appendRecord(std::vector<std::uint8_t>(
        115, static_cast<std::uint8_t>(I))))
        << "record " << I;
  EXPECT_EQ(Stats.snapshot().counter("ring.full_stall"), 0u);
  EXPECT_EQ(W.tail(), 8192u);
  EXPECT_FALSE(W.appendRecord(std::vector<std::uint8_t>(1, 0)));
  Sim.run();
  std::vector<std::uint8_t> Got;
  for (unsigned I = 0; I < 4096; ++I) {
    ASSERT_TRUE(R.peek(Got)) << "record " << I;
    EXPECT_EQ(Got, std::vector<std::uint8_t>(
                       115, static_cast<std::uint8_t>(I)));
    R.consume();
  }
  EXPECT_FALSE(R.peek(Got));
}

TEST_F(RingTest, ConsumedSpanInteriorNeverMisparsedOnLaterLaps) {
  // A span whose payload bytes could look like a plausible record header
  // must not be re-parsed after consumption: consume() zeroes the span
  // cells' header regions.
  std::vector<std::uint8_t> Payload(100, 0x01);
  ASSERT_TRUE(W.appendRecord(Payload));
  Sim.run();
  std::vector<std::uint8_t> Got;
  ASSERT_TRUE(R.peek(Got));
  R.consume();
  // The reader is at cell 2 with nothing written there: no phantom
  // records from the stale span interior.
  EXPECT_FALSE(R.peek(Got));
  EXPECT_EQ(R.head(), 2u);
}

// -- Heartbeats and broadcast -------------------------------------------------

TEST(HeartbeatTest, SuspendedNodeGetsSuspected) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 3, rdma::NetworkModel(), 1u << 20);
  HeartbeatDetector::Config Cfg;
  std::vector<std::unique_ptr<HeartbeatDetector>> Ds;
  std::vector<rdma::NodeId> SuspectedBy0;
  for (rdma::NodeId N = 0; N < 3; ++N) {
    Ds.push_back(std::make_unique<HeartbeatDetector>(Fab, N, 64, Cfg));
    Ds.back()->start();
  }
  Ds[0]->onSuspect([&](rdma::NodeId P) { SuspectedBy0.push_back(P); });
  Sim.run(sim::millis(2));
  EXPECT_TRUE(SuspectedBy0.empty()); // Healthy cluster: no suspicion.
  Ds[2]->suspendBeating();
  Sim.run(sim::millis(4));
  ASSERT_EQ(SuspectedBy0.size(), 1u);
  EXPECT_EQ(SuspectedBy0[0], 2u);
  EXPECT_TRUE(Ds[0]->isSuspected(2));
  EXPECT_FALSE(Ds[0]->isSuspected(1));
}

TEST(BroadcastTest, StageFetchClear) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2, rdma::NetworkModel(), 1u << 20);
  ReliableBroadcast B0(Fab, 0, 512, 256);
  ReliableBroadcast B1(Fab, 1, 512, 256);
  B0.stage({1, 2, 3}, /*Epoch=*/7);
  ReliableBroadcast::BackupMessage Got;
  B1.fetch(0, [&](ReliableBroadcast::BackupMessage M) { Got = M; });
  Sim.run();
  EXPECT_EQ(Got.TheKind, ReliableBroadcast::Kind::Flush);
  EXPECT_EQ(Got.Epoch, 7u);
  EXPECT_EQ(Got.Payload, (std::vector<std::uint8_t>{1, 2, 3}));
  B0.clear();
  Got = ReliableBroadcast::BackupMessage();
  Got.TheKind = ReliableBroadcast::Kind::Flush;
  B1.fetch(0, [&](ReliableBroadcast::BackupMessage M) { Got = M; });
  Sim.run();
  EXPECT_EQ(Got.TheKind, ReliableBroadcast::Kind::None);
}

// A staged slot whose length field is corrupt (the canary still set) reads
// as empty: no length may carry the payload read past the slot, including
// one whose sum with the slot overhead wraps around 2^32.
TEST(BroadcastTest, CorruptLengthReadsAsEmpty) {
  sim::Simulator Sim;
  rdma::Fabric Fab(Sim, 2, rdma::NetworkModel(), 1u << 20);
  ReliableBroadcast B0(Fab, 0, 512, 256);
  ReliableBroadcast B1(Fab, 1, 512, 256);
  const std::uint32_t TooLong = 256 - ReliableBroadcast::OverheadBytes + 1;
  for (std::uint32_t Len : {TooLong, 0xFFFFFFF7u, 0xFFFFFFFFu}) {
    B0.stage({1, 2, 3}, /*Epoch=*/7);
    Fab.memory(0).write(512 + 5, &Len, 4); // After u8 kind | u32 epoch.
    ReliableBroadcast::BackupMessage Got;
    Got.TheKind = ReliableBroadcast::Kind::Flush;
    B1.fetch(0, [&](ReliableBroadcast::BackupMessage M) { Got = M; });
    Sim.run();
    EXPECT_EQ(Got.TheKind, ReliableBroadcast::Kind::None) << "len " << Len;
    EXPECT_TRUE(Got.Payload.empty()) << "len " << Len;
  }
}

// -- Dedup set ----------------------------------------------------------------

TEST(RequestIdSet, HoldsIdsInOrderBelowTheLastWordAndFarApart) {
  RequestIdSet S;
  const std::vector<RequestId> InOrder = {
      0, 63, 64, (std::uint64_t{1} << 32) + 7, std::uint64_t{1} << 63,
      UINT64_MAX};
  // Below the last word: into an existing word, and as new words.
  const std::vector<RequestId> Below = {65, 1000, std::uint64_t{1} << 40,
                                        (std::uint64_t{1} << 63) - 1};
  for (RequestId Id : InOrder)
    S.insert(Id);
  for (RequestId Id : Below)
    S.insert(Id);
  S.insert(1000); // Again: no change.
  std::set<RequestId> Want(InOrder.begin(), InOrder.end());
  Want.insert(Below.begin(), Below.end());
  std::set<std::uint64_t> Bases;
  for (RequestId Id : Want) {
    EXPECT_TRUE(S.count(Id)) << Id;
    Bases.insert(Id >> 6);
    // Neighbours share a word or sit next to one; they count only if
    // inserted themselves.
    for (RequestId Near : {Id - 1, Id + 1, Id ^ 32})
      EXPECT_EQ(S.count(Near), Want.count(Near) != 0) << Near;
  }
  EXPECT_EQ(S.bytes(), 16 * Bases.size());
}

TEST(RequestIdSet, EraseOfTheLastIdInAWordDropsTheWord) {
  RequestIdSet S;
  for (RequestId Id : {128, 130, 200})
    S.insert(Id);
  EXPECT_EQ(S.bytes(), 32u);
  S.erase(128);
  EXPECT_FALSE(S.count(128));
  EXPECT_TRUE(S.count(130));
  EXPECT_EQ(S.bytes(), 32u);
  S.erase(130); // The word of 128..191 is empty now.
  EXPECT_FALSE(S.count(130));
  EXPECT_TRUE(S.count(200));
  EXPECT_EQ(S.bytes(), 16u);
  S.erase(130); // Absent id, absent word: no change.
  S.erase(5);
  EXPECT_EQ(S.bytes(), 16u);
  S.insert(130); // An erased id may come back.
  EXPECT_TRUE(S.count(130));
  EXPECT_EQ(S.bytes(), 32u);
}

TEST(RequestIdSet, NeverCountsAnIdNotInserted) {
  // Inserts and erases in random order, clustered and far apart, against
  // a reference set; every probe must agree with it.
  sim::Rng R(0x5EED);
  RequestIdSet S;
  std::set<RequestId> Ref;
  auto randomId = [&] {
    return R.bernoulli(0.5) ? static_cast<RequestId>(R.index(4096))
                            : R.nextU64();
  };
  for (int I = 0; I < 20000; ++I) {
    RequestId Id = randomId();
    if (R.bernoulli(0.2) && !Ref.empty()) {
      auto It = Ref.lower_bound(Id);
      Id = It == Ref.end() ? *Ref.begin() : *It;
      S.erase(Id);
      Ref.erase(Id);
    } else {
      S.insert(Id);
      Ref.insert(Id);
    }
  }
  std::set<std::uint64_t> Bases;
  for (RequestId Id : Ref) {
    ASSERT_TRUE(S.count(Id)) << Id;
    Bases.insert(Id >> 6);
  }
  for (int I = 0; I < 20000; ++I) {
    RequestId Id = randomId();
    ASSERT_EQ(S.count(Id), Ref.count(Id) != 0) << Id;
  }
  EXPECT_EQ(S.bytes(), 16 * Bases.size());
}

TEST(RequestIdSet, FootprintPerId) {
  // Ids 64 or more apart take one 16-B word each.
  RequestIdSet Sparse;
  const std::uint64_t SparseN = 5000;
  for (std::uint64_t I = 0; I < SparseN; ++I)
    Sparse.insert(I * 100);
  EXPECT_LE(Sparse.bytes(), 16 * SparseN);
  // About a fifth of request ids are conflicting calls in the
  // courseware-fault benchmark; at 20% random density a word holds about
  // 13 of them.
  sim::Rng R(20);
  RequestIdSet Dense;
  std::uint64_t DenseN = 0;
  for (RequestId Id = 1; Id <= 200000; ++Id)
    if (R.bernoulli(0.2)) {
      Dense.insert(Id);
      ++DenseN;
    }
  EXPECT_LE(Dense.bytes(), 2 * DenseN);
}

// -- Full cluster -------------------------------------------------------------

struct ClusterTest : ::testing::Test {
  sim::Simulator Sim;

  std::unique_ptr<HambandCluster> makeCluster(const ObjectType &T,
                                              unsigned Nodes = 3) {
    auto C = std::make_unique<HambandCluster>(Sim, Nodes, T);
    C->start();
    return C;
  }
};

TEST_F(ClusterTest, ReducibleCallsReachEveryNode) {
  Counter T;
  auto C = makeCluster(T);
  int OkCount = 0;
  C->submit(0, Call(Counter::Add, {5}, 0, 1),
            [&](bool Ok, Value) { OkCount += Ok; });
  C->submit(1, Call(Counter::Add, {7}, 1, 2),
            [&](bool Ok, Value) { OkCount += Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return C->fullyReplicated(); }));
  EXPECT_EQ(OkCount, 2);
  for (rdma::NodeId N = 0; N < 3; ++N) {
    Value V = -1;
    C->submit(N, Call(Counter::Read, {}, N, 100 + N),
              [&](bool, Value Got) { V = Got; });
    runUntil(Sim, [&] { return V >= 0; });
    EXPECT_EQ(V, 12);
  }
  EXPECT_TRUE(C->converged());
}

TEST_F(ClusterTest, IrreducibleFreeCallsPropagateThroughRings) {
  ORSet T;
  auto C = makeCluster(T);
  bool Done = false;
  C->submit(0, Call(ORSet::Add, {7}, 0, 1),
            [&](bool Ok, Value) { Done = Ok; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C->fullyReplicated(); }));
  Value V = -1;
  C->submit(2, Call(ORSet::Contains, {7}, 2, 2),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 1);
}

TEST_F(ClusterTest, RemoveWaitsForItsAddEverywhere) {
  ORSet T;
  auto C = makeCluster(T);
  bool AddDone = false, RemDone = false;
  C->submit(0, Call(ORSet::Add, {7}, 0, 1),
            [&](bool, Value) { AddDone = true; });
  runUntil(Sim, [&] { return AddDone; });
  C->submit(0, Call(ORSet::Remove, {7}, 0, 2),
            [&](bool, Value) { RemDone = true; });
  ASSERT_TRUE(
      runUntil(Sim, [&] { return RemDone && C->fullyReplicated(); }));
  EXPECT_TRUE(C->converged());
  Value V = -1;
  C->submit(1, Call(ORSet::Contains, {7}, 1, 3),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 0);
}

TEST_F(ClusterTest, ConflictingCallsOrderedByLeader) {
  BankAccount T;
  auto C = makeCluster(T);
  unsigned G = 0;
  rdma::NodeId Leader = C->leaderOf(G, 0);
  bool DepDone = false;
  C->submit(Leader, Call(BankAccount::Deposit, {10}, Leader, 1),
            [&](bool, Value) { DepDone = true; });
  runUntil(Sim, [&] { return DepDone && C->fullyReplicated(); });

  // Two withdrawals that only jointly overdraft: exactly one of a third
  // must fail.
  int Ok = 0, Fail = 0;
  for (int I = 0; I < 3; ++I)
    C->submit(Leader, Call(BankAccount::Withdraw, {5}, Leader, 10 + I),
              [&](bool IsOk, Value) { IsOk ? ++Ok : ++Fail; });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Ok + Fail == 3 && C->fullyReplicated();
  }));
  EXPECT_EQ(Ok, 2);
  EXPECT_EQ(Fail, 1);
  EXPECT_TRUE(C->converged());
  Value V = -1;
  C->submit(1, Call(BankAccount::Balance, {}, 1, 99),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 0);
}

TEST_F(ClusterTest, ConflictingCallForwardedFromFollower) {
  BankAccount T;
  auto C = makeCluster(T);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  rdma::NodeId Follower = (Leader + 1) % 3;
  bool DepDone = false;
  C->submit(Follower, Call(BankAccount::Deposit, {10}, Follower, 1),
            [&](bool, Value) { DepDone = true; });
  runUntil(Sim, [&] { return DepDone && C->fullyReplicated(); });
  // Submit the conflicting call at a follower: it must be redirected to
  // the leader by mail and still complete.
  bool WdOk = false, WdDone = false;
  C->submit(Follower, Call(BankAccount::Withdraw, {4}, Follower, 2),
            [&](bool Ok, Value) {
              WdOk = Ok;
              WdDone = true;
            });
  ASSERT_TRUE(
      runUntil(Sim, [&] { return WdDone && C->fullyReplicated(); }));
  EXPECT_TRUE(WdOk);
  EXPECT_TRUE(C->converged());
}

TEST_F(ClusterTest, MixedWorkloadConvergesOnSchema) {
  Courseware T;
  auto C = makeCluster(T, 4);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  int Done = 0;
  auto Count = [&](bool, Value) { ++Done; };
  C->submit(Leader, Call(TwoEntitySchema::AddA, {1}, Leader, 1), Count);
  C->submit(2, Call(TwoEntitySchema::AddB, {7}, 2, 2), Count);
  runUntil(Sim, [&] { return Done == 2 && C->fullyReplicated(); });
  C->submit(Leader, Call(TwoEntitySchema::Rel, {1, 7}, Leader, 3), Count);
  ASSERT_TRUE(
      runUntil(Sim, [&] { return Done == 3 && C->fullyReplicated(); }));
  EXPECT_TRUE(C->converged());
  Value V = -1;
  C->submit(3, Call(TwoEntitySchema::QueryA, {1}, 3, 4),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 1);
}

TEST_F(ClusterTest, FollowerFailureToleratedForConflictFree) {
  Counter T;
  auto C = makeCluster(T, 4);
  int Done = 0;
  auto Count = [&](bool, Value) { ++Done; };
  C->submit(0, Call(Counter::Add, {1}, 0, 1), Count);
  runUntil(Sim, [&] { return Done == 1 && C->fullyReplicated(); });
  C->injectFailure(3);
  EXPECT_TRUE(C->isFailed(3));
  // Conflict-free traffic keeps flowing (the failed node still applies:
  // only its heartbeat stopped).
  C->submit(1, Call(Counter::Add, {2}, 1, 2), Count);
  ASSERT_TRUE(
      runUntil(Sim, [&] { return Done == 2 && C->fullyReplicated(); }));
  EXPECT_TRUE(C->converged());
}

TEST_F(ClusterTest, LeaderFailureTriggersLeaderChange) {
  BankAccount T;
  auto C = makeCluster(T, 4);
  rdma::NodeId OldLeader = C->leaderOf(0, 0);
  bool DepDone = false;
  C->submit(0, Call(BankAccount::Deposit, {100}, 0, 1),
            [&](bool, Value) { DepDone = true; });
  runUntil(Sim, [&] { return DepDone && C->fullyReplicated(); });

  C->injectFailure(OldLeader);
  // Eventually every non-failed node adopts a new leader.
  ASSERT_TRUE(runUntil(
      Sim,
      [&] {
        for (rdma::NodeId N = 0; N < 4; ++N)
          if (N != OldLeader && C->leaderOf(0, N) == OldLeader)
            return false;
        return true;
      },
      20000.0));
  rdma::NodeId NewLeader = C->leaderOf(0, (OldLeader + 1) % 4);
  EXPECT_NE(NewLeader, OldLeader);

  // The new leader serves conflicting calls.
  bool WdOk = false, WdDone = false;
  C->submit(NewLeader, Call(BankAccount::Withdraw, {5}, NewLeader, 2),
            [&](bool Ok, Value) {
              WdOk = Ok;
              WdDone = true;
            });
  ASSERT_TRUE(runUntil(Sim, [&] { return WdDone; }, 20000.0));
  EXPECT_TRUE(WdOk);
  ASSERT_TRUE(runUntil(Sim, [&] { return C->fullyReplicated(); }, 50000.0));
  EXPECT_TRUE(C->converged());
}

TEST_F(ClusterTest, SummariesCoalesceManyCallsIntoOneSlot) {
  Counter T;
  auto C = makeCluster(T);
  int Done = 0;
  const int N = 60;
  for (int I = 0; I < N; ++I) {
    C->submit(0, Call(Counter::Add, {1}, 0, 1 + I),
              [&](bool, Value) { ++Done; });
    // Interleave so summaries overwrite each other in flight.
    if (I % 8 == 0)
      Sim.run(Sim.now() + sim::micros(3));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == N && C->fullyReplicated();
  }));
  // Every node accounts for all N calls even though its poller only ever
  // parsed the *latest* summary image per traversal.
  for (rdma::NodeId Node = 0; Node < 3; ++Node)
    EXPECT_EQ(C->node(Node).applied(0, Counter::Add),
              static_cast<std::uint64_t>(N));
  Value V = -1;
  C->submit(2, Call(Counter::Read, {}, 2, 9999),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, N);
}

TEST_F(ClusterTest, PNCounterUsesTwoSummarySlotsPerPeer) {
  types::PNCounter T;
  auto C = makeCluster(T);
  int Done = 0;
  C->submit(0, Call(types::PNCounter::Increment, {10}, 0, 1),
            [&](bool, Value) { ++Done; });
  C->submit(0, Call(types::PNCounter::Decrement, {4}, 0, 2),
            [&](bool, Value) { ++Done; });
  C->submit(1, Call(types::PNCounter::Increment, {1}, 1, 3),
            [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 3 && C->fullyReplicated();
  }));
  for (rdma::NodeId N = 0; N < 3; ++N) {
    Value V = -99;
    C->submit(N, Call(types::PNCounter::ValueOf, {}, N, 100 + N),
              [&](bool, Value Got) { V = Got; });
    runUntil(Sim, [&] { return V != -99; });
    EXPECT_EQ(V, 7);
  }
}

TEST_F(ClusterTest, QueryReadsTheMaterializedViewAtQueryCpu) {
  // Every node holds three images, one per issuer. The poller keeps
  // Apply(S)(σ) materialized, so a query on an idle client lane is
  // answered exactly QueryCpu after its submit, folding nothing.
  Counter T;
  auto C = makeCluster(T);
  int Done = 0;
  for (rdma::NodeId N = 0; N < 3; ++N)
    C->submit(N, Call(Counter::Add, {N + 1}, N, 1 + N),
              [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 3 && C->fullyReplicated(); }));
  Sim.run(Sim.now() + sim::micros(20));
  const sim::SimTime Submitted = Sim.now();
  sim::SimTime Answered = 0;
  Value V = -1;
  C->submit(0, Call(Counter::Read, {}, 0, 100), [&](bool, Value Got) {
    V = Got;
    Answered = Sim.now();
  });
  ASSERT_TRUE(runUntil(Sim, [&] { return V >= 0; }));
  EXPECT_EQ(V, 6);
  EXPECT_EQ(Answered - Submitted, C->transport().model().QueryCpu);
}

TEST_F(ClusterTest, PollRoundThatInstallsImagesBillsOneRebuild) {
  Counter T;
  auto C = makeCluster(T);
  auto Count = [&](const char *Name) {
    return C->node(1).statsSnapshot().counter(Name);
  };
  // Rounds that install nothing bill nothing.
  Sim.run(Sim.now() + sim::micros(20));
  EXPECT_EQ(Count("node.view.rebuilds"), 0u);
  // Nodes 0 and 2 update at the same instant, so their slot writes land
  // at node 1 together and one of its poll rounds installs both images.
  int Done = 0;
  C->submit(0, Call(Counter::Add, {1}, 0, 1), [&](bool, Value) { ++Done; });
  C->submit(2, Call(Counter::Add, {1}, 2, 2), [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 2 && C->fullyReplicated(); }));
  EXPECT_EQ(C->node(1).applied(0, Counter::Add), 1u);
  EXPECT_EQ(C->node(1).applied(2, Counter::Add), 1u);
  EXPECT_EQ(Count("node.view.rebuilds"), 1u);
  EXPECT_EQ(Count("node.view.delta_folds"), 0u);
  Sim.run(Sim.now() + sim::micros(50));
  EXPECT_EQ(Count("node.view.rebuilds"), 1u);
}

TEST_F(ClusterTest, PeerDeltaFoldsIntoTheViewWithoutARebuild) {
  Counter T;
  HambandConfig Cfg;
  Cfg.Delta.Enabled = true;
  HambandCluster C(Sim, 3, T, rdma::NetworkModel(), Cfg);
  C.start();
  bool Done = false;
  C.submit(0, Call(Counter::Add, {4}, 0, 1), [&](bool, Value) { Done = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C.fullyReplicated(); }));
  for (rdma::NodeId N = 1; N < 3; ++N) {
    obs::StatsSnapshot S = C.node(N).statsSnapshot();
    EXPECT_EQ(S.counter("node.view.delta_folds"), 1u) << "node " << N;
    EXPECT_EQ(S.counter("node.view.rebuilds"), 0u) << "node " << N;
  }
  // The issuer folds its own call on the client lane.
  EXPECT_EQ(C.node(0).statsSnapshot().counter("node.view.delta_folds"), 0u);
}

TEST_F(ClusterTest, DuplicateConfRequestAppliedOnce) {
  BankAccount T;
  auto C = makeCluster(T);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  int Done = 0;
  C->submit(Leader, Call(BankAccount::Deposit, {10}, Leader, 1),
            [&](bool, Value) { ++Done; });
  runUntil(Sim, [&] { return Done == 1 && C->fullyReplicated(); });
  // The same request id submitted twice (a client retry): the dedup set
  // must keep the effect single.
  int OkCount = 0;
  for (int I = 0; I < 2; ++I) {
    C->submit(Leader, Call(BankAccount::Withdraw, {4}, Leader, 77),
              [&](bool Ok, Value) {
                OkCount += Ok;
                ++Done;
              });
    Sim.run(Sim.now() + sim::micros(50));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 3 && C->fullyReplicated();
  }));
  EXPECT_EQ(OkCount, 2); // Both attempts acknowledged...
  EXPECT_EQ(C->node(Leader).applied(Leader, BankAccount::Withdraw), 1u);
  Value V = -1;
  C->submit(1, Call(BankAccount::Balance, {}, 1, 9999),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 6); // ...but only one withdrawal applied.
}

TEST_F(ClusterTest, DuplicateConfRequestWhileOutstandingAnswersEach) {
  // The same request id submitted again before its first submission is
  // answered, from the group leader and from a non-leader origin: each
  // submission gets one answer, the request's outcome, and the call
  // applies once.
  BankAccount T;
  auto C = makeCluster(T);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  int Deposited = 0;
  C->submit(Leader, Call(BankAccount::Deposit, {100}, Leader, 1),
            [&](bool, Value) { ++Deposited; });
  ASSERT_TRUE(
      runUntil(Sim, [&] { return Deposited == 1 && C->fullyReplicated(); }));
  RequestId Id = 77;
  unsigned Withdrawn = 0;
  for (rdma::NodeId Origin : {Leader, (Leader + 1) % 3}) {
    for (double GapUs : {0.0, 1.0}) {
      int Answers = 0, Oks = 0;
      for (int I = 0; I < 2; ++I) {
        C->submit(Origin, Call(BankAccount::Withdraw, {1}, Origin, Id),
                  [&](bool Ok, Value) {
                    ++Answers;
                    Oks += Ok;
                  });
        Sim.run(Sim.now() + sim::micros(GapUs));
      }
      ASSERT_TRUE(runUntil(Sim, [&] {
        return Answers == 2 && C->fullyReplicated();
      })) << "origin " << Origin << " gap " << GapUs << " us";
      Sim.run(Sim.now() + sim::micros(50));
      EXPECT_EQ(Answers, 2);
      EXPECT_EQ(Oks, 2);
      ++Withdrawn;
      ++Id;
    }
  }
  EXPECT_EQ(C->node(Leader).applied(Leader, BankAccount::Withdraw), Withdrawn);
  for (rdma::NodeId N = 0; N < 3; ++N) {
    Value V = -1;
    C->submit(N, Call(BankAccount::Balance, {}, N, 9000 + N),
              [&](bool, Value Got) { V = Got; });
    runUntil(Sim, [&] { return V >= 0; });
    EXPECT_EQ(V, 100 - static_cast<Value>(Withdrawn)) << "node " << N;
  }
}

TEST_F(ClusterTest, ResubmittedCommittedConfIdsApplyNothing) {
  // Committed ids that arrive out of order and far apart sit in separate
  // words of the dedup set, some inserted below its last word. Each one
  // resubmitted, at the leader and at a non-leader, is answered Ok from
  // the set and applies nothing.
  BankAccount T;
  auto C = makeCluster(T);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  rdma::NodeId Other = (Leader + 1) % 3;
  int Done = 0;
  C->submit(Leader, Call(BankAccount::Deposit, {1000}, Leader, 1),
            [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 1 && C->fullyReplicated(); }));
  const std::vector<RequestId> Ids = {
      std::uint64_t{1} << 40, 5000, UINT64_MAX, 64, std::uint64_t{1} << 63,
      4999, 63, (std::uint64_t{1} << 32) + 7};
  auto withdrawEach = [&](rdma::NodeId Origin) {
    int Oks = 0;
    for (RequestId Id : Ids) {
      int Answered = 0;
      C->submit(Origin, Call(BankAccount::Withdraw, {1}, Origin, Id),
                [&](bool Ok, Value) {
                  Oks += Ok;
                  ++Answered;
                });
      EXPECT_TRUE(runUntil(Sim, [&] { return Answered == 1; })) << Id;
    }
    EXPECT_TRUE(runUntil(Sim, [&] { return C->fullyReplicated(); }));
    return Oks;
  };
  ASSERT_EQ(withdrawEach(Other), static_cast<int>(Ids.size()));
  std::set<std::uint64_t> Words;
  for (RequestId Id : Ids)
    Words.insert(Id >> 6);
  // Every replica delivered each entry, so each holds every id.
  const auto DedupBytes = static_cast<std::int64_t>(16 * Words.size());
  for (rdma::NodeId N = 0; N < 3; ++N)
    EXPECT_EQ(C->node(N).statsSnapshot().gauge("node.conf.dedup_bytes"),
              DedupBytes)
        << "node " << N;

  for (rdma::NodeId Origin : {Leader, Other})
    EXPECT_EQ(withdrawEach(Origin), static_cast<int>(Ids.size()))
        << "origin " << Origin;
  EXPECT_EQ(C->node(Leader).applied(Leader, BankAccount::Withdraw),
            Ids.size());
  for (rdma::NodeId N = 0; N < 3; ++N) {
    EXPECT_EQ(C->node(N).statsSnapshot().gauge("node.conf.dedup_bytes"),
              DedupBytes)
        << "node " << N;
    Value V = -1;
    C->submit(N, Call(BankAccount::Balance, {}, N, 9000 + N),
              [&](bool, Value Got) { V = Got; });
    runUntil(Sim, [&] { return V >= 0; });
    EXPECT_EQ(V, 1000 - static_cast<Value>(Ids.size())) << "node " << N;
  }
}

TEST_F(ClusterTest, RejectedConfRequestIsJudgedAgainOnResubmit) {
  // A rejected id stays out of the dedup set even after a higher id
  // commits, so no high-water mark of ids could stand in for the set:
  // resubmitted once the balance allows it, the call is judged again and
  // applies.
  BankAccount T;
  auto C = makeCluster(T);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  rdma::NodeId Other = (Leader + 1) % 3;
  auto run = [&](rdma::NodeId Origin, Call Cl) {
    int Result = -1;
    C->submit(Origin, std::move(Cl), [&](bool Ok, Value) { Result = Ok; });
    EXPECT_TRUE(runUntil(Sim, [&] {
      return Result >= 0 && C->fullyReplicated();
    }));
    return Result;
  };
  EXPECT_EQ(run(Leader, Call(BankAccount::Deposit, {10}, Leader, 1)), 1);
  EXPECT_EQ(run(Other, Call(BankAccount::Withdraw, {50}, Other, 500)), 0);
  EXPECT_EQ(run(Other, Call(BankAccount::Withdraw, {5}, Other, 600)), 1);
  EXPECT_EQ(run(Leader, Call(BankAccount::Deposit, {100}, Leader, 2)), 1);
  EXPECT_EQ(run(Other, Call(BankAccount::Withdraw, {50}, Other, 500)), 1);
  EXPECT_EQ(C->node(Leader).applied(Leader, BankAccount::Withdraw), 2u);
  Value V = -1;
  C->submit(Other, Call(BankAccount::Balance, {}, Other, 9000),
            [&](bool, Value Got) { V = Got; });
  runUntil(Sim, [&] { return V >= 0; });
  EXPECT_EQ(V, 55);
}

TEST_F(ClusterTest, FullFreeRingKeepsConfRequestsInPostOrder) {
  // Requests ride the F ring toward the leader, and a four-cell F ring
  // fills after four unread records. Requests posted while it is full
  // must queue behind the stalled ones, not overtake them when a cell
  // frees up: the leader has to read one origin's requests in the order
  // they were posted, so they commit in that order.
  BankAccount T;
  HambandConfig Cfg;
  Cfg.FreeGeom = RingGeometry{4, 256};
  Cfg.RecordApplyLog = true;
  HambandCluster C(Sim, 3, T, {}, Cfg);
  C.start();
  rdma::NodeId Leader = C.leaderOf(0, 0);
  rdma::NodeId Origin = (Leader + 1) % 3;
  int Done = 0;
  C.submit(Origin, Call(BankAccount::Deposit, {1000}, Origin, 1),
           [&](bool, Value) { ++Done; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done == 1 && C.fullyReplicated(); }));

  const int Requests = 40;
  for (int I = 0; I < Requests; ++I) {
    C.submit(Origin, Call(BankAccount::Withdraw, {1}, Origin, 100 + I),
             [&](bool Ok, Value) {
               EXPECT_TRUE(Ok);
               ++Done;
             });
    Sim.run(Sim.now() + sim::micros(0.2));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == 1 + Requests && C.fullyReplicated();
  }));
  EXPECT_GT(C.node(Origin).statsSnapshot().counter("ring.full_stall"), 0u);
  std::vector<RequestId> Order;
  for (const auto &[Issuer, Req] : C.node(Leader).confApplyLog()[0])
    Order.push_back(Req);
  ASSERT_EQ(Order.size(), static_cast<std::size_t>(Requests));
  for (int I = 0; I < Requests; ++I)
    EXPECT_EQ(Order[I], static_cast<RequestId>(100 + I)) << "position " << I;
}

TEST_F(ClusterTest, DefaultOrsetTrafficLapsEveryFreeRingTwice) {
  // At the default geometry an orset record takes one to three 64-B
  // lines. A closed loop of random adds and removes, eight outstanding
  // per origin, laps every F ring at least twice: records span lines and
  // pad at the wraps, and the replicas still converge.
  ORSet T;
  auto C = makeCluster(T);
  const MemoryMap &Map = C->memoryMap();
  const RingGeometry &G = Map.freeGeom();
  ASSERT_EQ(G.NumCells, 8192u);
  ASSERT_EQ(G.CellSize, 64u);
  const unsigned Nodes = C->numNodes();
  const unsigned PerOrigin = 14000;
  std::vector<unsigned> Issued(Nodes, 0);
  unsigned Answered = 0, Failed = 0;
  sim::Rng R(39);
  std::vector<MethodId> Updates = T.coordination().updateMethods();
  std::function<void(rdma::NodeId)> Next = [&](rdma::NodeId O) {
    if (Issued[O] == PerOrigin)
      return;
    RequestId Req = (static_cast<RequestId>(O) << 32) | ++Issued[O];
    C->submit(O, T.randomClientCall(R.pick(Updates), O, Req, R),
              [&, O](bool Ok, Value) {
                ++Answered;
                Failed += !Ok;
                Next(O);
              });
  };
  for (rdma::NodeId O = 0; O < Nodes; ++O)
    for (int K = 0; K < 8; ++K)
      Next(O);
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Answered == Nodes * PerOrigin && C->fullyReplicated();
  }, 2e6));
  EXPECT_EQ(Failed, 0u);
  EXPECT_TRUE(C->converged());
  // Each reader publishes its head in its writer's feedback slot.
  for (rdma::NodeId W = 0; W < Nodes; ++W)
    for (rdma::NodeId Rd = 0; Rd < Nodes; ++Rd) {
      if (Rd == W)
        continue;
      EXPECT_GE(C->transport().memory(W).readU64(Map.freeRingFeedback(Rd)),
                2ull * G.NumCells)
          << "ring " << W << " -> " << Rd;
    }
  std::uint64_t Spans = 0, PadCells = 0, Stalls = 0;
  for (rdma::NodeId N = 0; N < Nodes; ++N) {
    obs::StatsSnapshot S = C->node(N).statsSnapshot();
    Spans += S.counter("ring.span_append");
    PadCells += S.counter("ring.pad_cells");
    Stalls += S.counter("ring.full_stall");
  }
  EXPECT_GT(Spans, 0u);
  EXPECT_GT(PadCells, 0u);
  EXPECT_EQ(Stalls, 0u);
}

TEST_F(ClusterTest, OversizeConflictingEntryRejected) {
  // Under the SMR adapter an ORSet remove is a conflicting call carrying
  // every tag it observed. After 25 adds of one element its encoded entry
  // no longer fits one L-ring cell: the leader must reject it rather than
  // post it, and the cluster must stay consistent.
  ORSet Inner;
  baselines::SmrTypeAdapter T(Inner);
  auto C = makeCluster(T);
  rdma::NodeId Leader = C->leaderOf(0, 0);
  int Added = 0;
  for (RequestId I = 1; I <= 25; ++I)
    C->submit(Leader, Call(ORSet::Add, {7}, Leader, I),
              [&](bool Ok, Value) { Added += Ok; });
  ASSERT_TRUE(
      runUntil(Sim, [&] { return Added == 25 && C->fullyReplicated(); }));

  int Removed = -1;
  C->submit(Leader, Call(ORSet::Remove, {7}, Leader, 100),
            [&](bool Ok, Value) { Removed = Ok; });
  ASSERT_TRUE(
      runUntil(Sim, [&] { return Removed >= 0 && C->fullyReplicated(); }));
  EXPECT_EQ(Removed, 0);
  EXPECT_EQ(C->statsSnapshot().counter("node.conf.oversize_reject"), 1u);
  for (rdma::NodeId N = 0; N < 3; ++N) {
    Value V = -1;
    C->submit(N, Call(ORSet::Contains, {7}, N, 200 + N),
              [&](bool, Value Got) { V = Got; });
    runUntil(Sim, [&] { return V >= 0; });
    EXPECT_EQ(V, 1) << "node " << N;
  }
  EXPECT_TRUE(C->fullyReplicated());
  EXPECT_TRUE(C->converged());
}

TEST_F(ClusterTest, AccountingOracleForConflictFreeTypes) {
  // Independent oracle: the final counter value equals the sum of the
  // accepted add() amounts, regardless of interleaving.
  Counter T;
  auto C = makeCluster(T, 4);
  sim::Rng R(321);
  Value Expected = 0;
  int Done = 0, Issued = 0;
  for (int I = 0; I < 40; ++I) {
    Value Amount = R.uniformInt(1, 9);
    rdma::NodeId N = static_cast<rdma::NodeId>(R.index(4));
    ++Issued;
    C->submit(N, Call(Counter::Add, {Amount}, N, 100 + I),
              [&, Amount](bool Ok, Value) {
                if (Ok)
                  Expected += Amount;
                ++Done;
              });
    if (I % 5 == 0)
      Sim.run(Sim.now() + sim::micros(4));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == Issued && C->fullyReplicated();
  }));
  for (rdma::NodeId N = 0; N < 4; ++N) {
    Value V = -1;
    C->submit(N, Call(Counter::Read, {}, N, 9990 + N),
              [&](bool, Value Got) { V = Got; });
    runUntil(Sim, [&] { return V >= 0; });
    EXPECT_EQ(V, Expected);
  }
}

TEST_F(ClusterTest, DiagnosticsReportIdleAfterDrain) {
  Counter T;
  auto C = makeCluster(T);
  bool Done = false;
  C->submit(0, Call(Counter::Add, {1}, 0, 1),
            [&](bool, Value) { Done = true; });
  ASSERT_TRUE(runUntil(Sim, [&] { return Done && C->fullyReplicated(); }));
  for (rdma::NodeId N = 0; N < 3; ++N) {
    EXPECT_TRUE(C->node(N).idle());
    EXPECT_EQ(C->node(N).pendingFreeTotal(), 0u);
    EXPECT_EQ(C->node(N).conf().pendingTotal(), 0u);
    EXPECT_EQ(C->node(N).conf().leaderQueueTotal(), 0u);
    EXPECT_EQ(C->node(N).conf().requestCount(), 0u);
  }
  EXPECT_EQ(C->node(0).localUpdates(), 1u);
}

class ClusterConvergenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>> {};

TEST_P(ClusterConvergenceTest, RandomWorkloadConverges) {
  auto [Name, Nodes] = GetParam();
  auto T = makeType(Name);
  sim::Simulator Sim;
  HambandCluster C(Sim, Nodes, *T);
  C.start();
  const CoordinationSpec &Spec = T->coordination();
  sim::Rng R(1234);
  std::vector<MethodId> Updates = Spec.updateMethods();
  unsigned Done = 0, Issued = 0;
  for (unsigned I = 0; I < 60; ++I) {
    MethodId M = R.pick(Updates);
    rdma::NodeId Origin;
    if (Spec.category(M) == MethodCategory::Conflicting)
      Origin = C.leaderOf(*Spec.syncGroup(M), 0);
    else
      Origin = static_cast<rdma::NodeId>(R.index(Nodes));
    Call Cl = T->randomClientCall(M, Origin, 1000 + I, R);
    ++Issued;
    C.submit(Origin, Cl, [&Done](bool, Value) { ++Done; });
    // Stagger submissions.
    Sim.run(Sim.now() + sim::micros(2));
  }
  ASSERT_TRUE(runUntil(Sim, [&] {
    return Done == Issued && C.fullyReplicated();
  })) << Name;
  EXPECT_TRUE(C.converged()) << Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, ClusterConvergenceTest,
    ::testing::Combine(::testing::ValuesIn(hamband::registeredTypeNames()),
                       ::testing::Values(2u, 4u)),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_n" + std::to_string(std::get<1>(Info.param));
    });
