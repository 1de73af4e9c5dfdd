//===- tests/RdmaTests.cpp - Simulated fabric tests ---------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/obs/Metrics.h"
#include "hamband/rdma/Fabric.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <type_traits>

using namespace hamband;
using namespace hamband::rdma;

namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> L) {
  return std::vector<std::uint8_t>(L);
}

struct FabricTest : ::testing::Test {
  /// Declared first, so it outlives the fabric that setObs() wires into it.
  obs::Registry Obs;
  sim::Simulator Sim;
  Fabric Fab{Sim, 3, NetworkModel(), 1u << 20};
};

} // namespace

TEST_F(FabricTest, MemoryRegionReadWrite) {
  MemoryRegion &M = Fab.memory(0);
  M.writeU64(100, 0xdeadbeefcafef00dull);
  EXPECT_EQ(M.readU64(100), 0xdeadbeefcafef00dull);
  M.writeU8(50, 7);
  EXPECT_EQ(M.readU8(50), 7);
  M.zero(100, 8);
  EXPECT_EQ(M.readU64(100), 0u);
}

TEST_F(FabricTest, MemoryRegionAllocAligns) {
  MemoryRegion &M = Fab.memory(0);
  MemOffset A = M.alloc(3, 8);
  MemOffset B = M.alloc(8, 8);
  EXPECT_EQ(A % 8, 0u);
  EXPECT_EQ(B % 8, 0u);
  EXPECT_GE(B, A + 3);
}

TEST_F(FabricTest, MemoryRegionSlice) {
  MemoryRegion &M = Fab.memory(1);
  std::vector<std::uint8_t> Data = {1, 2, 3, 4, 5};
  M.write(10, Data.data(), Data.size());
  EXPECT_EQ(M.slice(10, 5), Data);
  EXPECT_EQ(M.slice(11, 3), bytes({2, 3, 4}));
}

namespace {

/// This process's resident set size in KiB, from /proc/self/statm.
std::uint64_t residentKiB() {
  std::ifstream Statm("/proc/self/statm");
  std::uint64_t SizePages = 0, ResidentPages = 0;
  Statm >> SizePages >> ResidentPages;
  return ResidentPages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) /
         1024;
}

constexpr std::size_t BigRegion = std::size_t(256) << 20;

} // namespace

TEST(MemoryRegionStorage, ConstructionLeavesPagesNonResident) {
  const std::uint64_t Before = residentKiB();
  ASSERT_GT(Before, 0u);
  MemoryRegion M(BigRegion);
  // A zero-filled 256 MiB region would add 262,144 KiB.
  EXPECT_LT(residentKiB(), Before + 4096);
}

TEST(MemoryRegionStorage, ReadsZeroAndReachesItsLastByte) {
  for (bool Concurrent : {false, true}) {
    MemoryRegion M(BigRegion, Concurrent);
    ASSERT_EQ(M.size(), BigRegion);
    EXPECT_EQ(M.readU64(0), 0u);
    EXPECT_EQ(M.readU64(M.size() - 8), 0u);
    M.writeU8(M.size() - 1, 0x5a);
    EXPECT_EQ(M.readU8(M.size() - 1), 0x5a);
    EXPECT_EQ(M.readU64(M.size() - 8), 0x5aull << 56);
  }
}

TEST(MemoryRegionStorage, ZeroSizeConstructs) {
  MemoryRegion M(0);
  EXPECT_EQ(M.size(), 0u);
  EXPECT_EQ(M.remaining(), 0u);
}

TEST(MemoryRegionStorage, MoveTransfersTheMapping) {
  static_assert(!std::is_copy_constructible_v<MemoryRegion>);
  static_assert(std::is_nothrow_move_constructible_v<MemoryRegion>);
  MemoryRegion A(4096, /*Concurrent=*/true);
  MemOffset Off = A.alloc(16);
  A.writeU64(Off, 42);
  MemoryRegion B(std::move(A));
  EXPECT_EQ(B.size(), 4096u);
  EXPECT_TRUE(B.concurrent());
  EXPECT_EQ(B.readU64(Off), 42u);
  EXPECT_EQ(B.remaining(), 4096u - 16);
  MemoryRegion C(64);
  C = std::move(B);
  EXPECT_EQ(C.size(), 4096u);
  EXPECT_EQ(C.readU64(Off), 42u);
}

namespace {

/// Bounds guards on a 64-byte region, plain or concurrent (the parameter).
class MemoryRegionBounds : public ::testing::TestWithParam<bool> {
protected:
  MemoryRegion M{64, GetParam()};
  std::uint8_t Buf[16] = {};
};

} // namespace

TEST_P(MemoryRegionBounds, ReadStablePastTheEndAborts) {
  EXPECT_DEATH(M.readStable(56, Buf, 16), "out of bounds");
  EXPECT_DEATH(M.readStable(64, Buf, 1), "out of bounds");
}

TEST_P(MemoryRegionBounds, AccessPastTheEndAborts) {
  EXPECT_DEATH(M.read(56, Buf, 16), "out of bounds");
  EXPECT_DEATH(M.write(56, Buf, 16), "out of bounds");
  EXPECT_DEATH(M.slice(60, 8), "out of bounds");
  EXPECT_DEATH(M.sliceStable(60, 8), "out of bounds");
  EXPECT_DEATH(M.zero(60, 8), "out of bounds");
  EXPECT_DEATH(M.readU64(60), "out of bounds");
  EXPECT_DEATH(M.readU64(64), "out of bounds");
  EXPECT_DEATH(M.writeU64(64, 1), "out of bounds");
}

TEST_P(MemoryRegionBounds, AllocPastTheEndAborts) {
  M.alloc(48);
  EXPECT_DEATH(M.alloc(32), "exhausted");
}

INSTANTIATE_TEST_SUITE_P(Modes, MemoryRegionBounds, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &Info) {
                           return Info.param ? "concurrent" : "plain";
                         });

TEST_F(FabricTest, WriteBecomesVisibleAfterWireLatency) {
  Fab.postWrite(0, 1, 200, bytes({9, 8, 7}));
  // Nothing visible before the write delivers.
  Sim.run(Fab.model().PostCpu + 1);
  EXPECT_EQ(Fab.memory(1).readU8(200), 0);
  Sim.run();
  EXPECT_EQ(Fab.memory(1).readU8(200), 9);
  EXPECT_EQ(Fab.memory(1).readU8(202), 7);
}

TEST_F(FabricTest, WriteCompletionFires) {
  bool Completed = false;
  Fab.postWrite(0, 1, 0, bytes({1}), UnprotectedRegion,
                [&](WcStatus St) {
                  Completed = true;
                  EXPECT_EQ(St, WcStatus::Success);
                });
  Sim.run();
  EXPECT_TRUE(Completed);
}

TEST_F(FabricTest, WritesSameChannelDeliverInOrder) {
  // Post a large write then a tiny one; FIFO per RC channel means the
  // second cannot overtake the first.
  std::vector<std::uint8_t> Big(4096, 0xAA);
  Fab.postWrite(0, 1, 0, Big);
  Fab.postWrite(0, 1, 0, bytes({0xBB}));
  Sim.run();
  // The small write delivered last.
  EXPECT_EQ(Fab.memory(1).readU8(0), 0xBB);
}

TEST_F(FabricTest, ReadReturnsRemoteSnapshot) {
  Fab.memory(2).writeU64(64, 4242);
  std::uint64_t Got = 0;
  Fab.postRead(0, 2, 64, 8,
               [&](WcStatus St, std::vector<std::uint8_t> Data) {
                 EXPECT_EQ(St, WcStatus::Success);
                 ASSERT_EQ(Data.size(), 8u);
                 std::memcpy(&Got, Data.data(), 8);
               });
  Sim.run();
  EXPECT_EQ(Got, 4242u);
}

TEST_F(FabricTest, PermissionDenialRejectsWrite) {
  RegionKey Key = Fab.createRegionKey();
  Fab.setWritePermission(1, 0, Key, false);
  WcStatus Got = WcStatus::Success;
  Fab.postWrite(0, 1, 300, bytes({5}), Key,
                [&](WcStatus St) { Got = St; });
  Sim.run();
  EXPECT_EQ(Got, WcStatus::AccessError);
  EXPECT_EQ(Fab.memory(1).readU8(300), 0); // Nothing written.
}

TEST_F(FabricTest, PermissionGrantRestoresWrite) {
  RegionKey Key = Fab.createRegionKey();
  Fab.setWritePermission(1, 0, Key, false);
  Fab.setWritePermission(1, 0, Key, true);
  WcStatus Got = WcStatus::AccessError;
  Fab.postWrite(0, 1, 300, bytes({5}), Key,
                [&](WcStatus St) { Got = St; });
  Sim.run();
  EXPECT_EQ(Got, WcStatus::Success);
  EXPECT_EQ(Fab.memory(1).readU8(300), 5);
}

TEST_F(FabricTest, PermissionsArePerTargetAndWriter) {
  RegionKey Key = Fab.createRegionKey();
  Fab.setWritePermission(1, 0, Key, false);
  EXPECT_FALSE(Fab.hasWritePermission(1, 0, Key));
  EXPECT_TRUE(Fab.hasWritePermission(1, 2, Key));  // Other writer fine.
  EXPECT_TRUE(Fab.hasWritePermission(2, 0, Key));  // Other target fine.
  EXPECT_TRUE(Fab.hasWritePermission(1, 0, UnprotectedRegion));
}

TEST_F(FabricTest, TwoSidedSendInvokesReceiver) {
  std::vector<std::uint8_t> Got;
  NodeId GotSrc = 99;
  Fab.setRecvHandler(1, [&](NodeId Src,
                            const std::vector<std::uint8_t> &Msg) {
    GotSrc = Src;
    Got = Msg;
  });
  Fab.send(0, 1, bytes({1, 2, 3}));
  Sim.run();
  EXPECT_EQ(GotSrc, 0u);
  EXPECT_EQ(Got, bytes({1, 2, 3}));
}

TEST_F(FabricTest, TwoSidedSlowerThanOneSided) {
  sim::SimTime WriteDone = 0, SendDone = 0;
  Fab.postWrite(0, 1, 0, bytes({1}), UnprotectedRegion,
                [&](WcStatus) { WriteDone = Sim.now(); });
  Fab.setRecvHandler(2, [&](NodeId, const std::vector<std::uint8_t> &) {
    SendDone = Sim.now();
  });
  Fab.send(0, 2, bytes({1}));
  Sim.run();
  EXPECT_GT(SendDone, WriteDone * 4);
}

TEST_F(FabricTest, CrashDropsCpuButKeepsMemoryAccessible) {
  bool HandlerRan = false;
  Fab.setRecvHandler(1, [&](NodeId, const std::vector<std::uint8_t> &) {
    HandlerRan = true;
  });
  Fab.crash(1);
  EXPECT_FALSE(Fab.isAlive(1));
  Fab.send(0, 1, bytes({1}));
  // One-sided access still works on the crashed node's memory.
  Fab.postWrite(0, 1, 128, bytes({0x77}));
  Sim.run();
  std::uint8_t ReadBack = 0;
  Fab.postRead(2, 1, 128, 1,
               [&](WcStatus, std::vector<std::uint8_t> Data) {
                 ReadBack = Data.at(0);
               });
  Sim.run();
  EXPECT_FALSE(HandlerRan);
  EXPECT_EQ(Fab.memory(1).readU8(128), 0x77);
  EXPECT_EQ(ReadBack, 0x77);
}

TEST_F(FabricTest, CrashedNodeCpuJobsDropped) {
  bool Ran = false;
  Fab.runOnCpu(1, sim::micros(1), [&] { Ran = true; });
  Fab.crash(1);
  Sim.run();
  EXPECT_FALSE(Ran);
}

TEST_F(FabricTest, CpuLaneSerializesWork) {
  sim::SimTime DoneA = 0, DoneB = 0;
  Fab.runOnCpu(0, sim::micros(1), [&] { DoneA = Sim.now(); });
  Fab.runOnCpu(0, sim::micros(1), [&] { DoneB = Sim.now(); });
  Sim.run();
  EXPECT_EQ(DoneA, sim::micros(1));
  EXPECT_EQ(DoneB, sim::micros(2));
}

TEST_F(FabricTest, CpuLanesRunInParallel) {
  sim::SimTime DoneA = 0, DoneB = 0;
  Fab.runOnCpu(0, sim::micros(1), [&] { DoneA = Sim.now(); },
               Fabric::LaneClient);
  Fab.runOnCpu(0, sim::micros(1), [&] { DoneB = Sim.now(); },
               Fabric::LanePoller);
  Sim.run();
  EXPECT_EQ(DoneA, sim::micros(1));
  EXPECT_EQ(DoneB, sim::micros(1));
}

TEST_F(FabricTest, DiagnosticCountersAdvance) {
  Fab.setObs(Obs);
  EXPECT_EQ(Obs.snapshot().counter("rdma.write"), 0u);
  Fab.postWrite(0, 1, 0, bytes({1, 2}));
  Fab.postRead(0, 1, 0, 2, [](WcStatus, std::vector<std::uint8_t>) {});
  Fab.send(0, 1, bytes({3}));
  Sim.run();
  obs::StatsSnapshot S = Obs.snapshot();
  EXPECT_EQ(S.counter("rdma.write"), 1u);
  EXPECT_EQ(S.counter("rdma.read"), 1u);
  EXPECT_EQ(S.counter("rdma.send"), 1u);
  EXPECT_EQ(S.counter("rdma.bytes_written"), 2u);
}

namespace {

/// A 4-node fabric whose node 0 posts verbs and keeps its client lane busy,
/// so completions pile up in the lane's completion queue.
struct CompletionQueueTest : ::testing::Test {
  explicit CompletionQueueTest(NetworkModel M = NetworkModel())
      : Fab(Sim, 4, M, 1u << 20) {}

  /// Occupies node 0's client lane for \p Busy after everything queued on
  /// it; LaneFreeAt records when the lane frees up.
  void keepLaneBusy(sim::SimDuration Busy) {
    Fab.runOnCpu(0, Busy, [this] { LaneFreeAt = Sim.now(); });
  }

  sim::Simulator Sim;
  Fabric Fab;
  sim::SimTime LaneFreeAt = 0;
};

} // namespace

TEST_F(CompletionQueueTest, CqesOfABusyLaneShareOnePoll) {
  obs::Registry R;
  Fab.setObs(R);
  std::vector<sim::SimTime> Done;
  for (NodeId Dst = 1; Dst <= 3; ++Dst)
    Fab.postWrite(0, Dst, 0, bytes({1}), UnprotectedRegion,
                  [&](WcStatus) { Done.push_back(Sim.now()); });
  // The lane stays busy until well after all three CQEs arrived.
  sim::SimTime Probe = 0;
  Fab.runOnCpu(0, sim::micros(5), [&] {
    LaneFreeAt = Sim.now();
    // Queued behind whatever polls the CQEs reserved on the lane.
    Fab.runOnCpu(0, 0, [&] { Probe = Sim.now(); });
  });
  Sim.run();
  sim::SimDuration Poll = Fab.model().PollCpu;
  ASSERT_EQ(Done.size(), 3u);
  for (sim::SimTime T : Done)
    EXPECT_EQ(T, LaneFreeAt + Poll);
  // The lane was charged one PollCpu for all three.
  EXPECT_EQ(Probe, LaneFreeAt + Poll);
  obs::StatsSnapshot S = R.snapshot();
  EXPECT_EQ(S.counter("rdma.cq_polls"), 1u);
  ASSERT_NE(S.histogram("rdma.cqes_per_poll"), nullptr);
  EXPECT_EQ(S.histogram("rdma.cqes_per_poll")->Sum, 3u);
}

namespace {
/// A poll long enough that a CQE can arrive while one is running.
struct SlowPollTest : CompletionQueueTest {
  static NetworkModel slowPoll() {
    NetworkModel M;
    M.PollCpu = sim::micros(1);
    return M;
  }
  SlowPollTest() : CompletionQueueTest(slowPoll()) {}
};
} // namespace

TEST_F(SlowPollTest, CqeArrivingAfterThePollStartedWaitsForTheNext) {
  sim::SimTime DoneA = 0, DoneB = 0;
  Fab.postWrite(0, 1, 0, bytes({1}), UnprotectedRegion,
                [&](WcStatus) { DoneA = Sim.now(); });
  Fab.postWrite(0, 2, 0, bytes({1}), UnprotectedRegion,
                [&](WcStatus) { DoneB = Sim.now(); });
  Sim.run();
  const NetworkModel &M = Fab.model();
  // A arrives on an idle lane and its poll starts at once. B arrives one
  // post later, while that poll runs, so a second poll reaps it.
  sim::SimTime ArriveA = M.PostCpu + M.writeWire(1) + M.CompletionDelay;
  ASSERT_LT(ArriveA + M.PostCpu, ArriveA + M.PollCpu);
  EXPECT_EQ(DoneA, ArriveA + M.PollCpu);
  EXPECT_EQ(DoneB, ArriveA + 2 * M.PollCpu);
}

TEST_F(CompletionQueueTest, OnePollReapsAtMostABatch) {
  obs::Registry R;
  Fab.setObs(R);
  constexpr unsigned NumWrites = 20;
  std::vector<sim::SimTime> Done;
  for (unsigned I = 0; I < NumWrites; ++I)
    Fab.postWrite(0, 1 + I % 3, 0, bytes({1}), UnprotectedRegion,
                  [&](WcStatus) { Done.push_back(Sim.now()); });
  keepLaneBusy(sim::micros(5));
  Sim.run();
  sim::SimDuration Poll = Fab.model().PollCpu;
  ASSERT_EQ(Done.size(), NumWrites);
  for (unsigned I = 0; I < NumWrites; ++I)
    EXPECT_EQ(Done[I], LaneFreeAt + (I < Fabric::CqPollBatch ? 1 : 2) * Poll)
        << "CQE " << I;
  obs::StatsSnapshot S = R.snapshot();
  EXPECT_EQ(S.counter("rdma.cq_polls"), 2u);
  ASSERT_NE(S.histogram("rdma.cqes_per_poll"), nullptr);
  EXPECT_EQ(S.histogram("rdma.cqes_per_poll")->Max, Fabric::CqPollBatch);
  EXPECT_EQ(S.histogram("rdma.cqes_per_poll")->Sum, NumWrites);
}

TEST_F(CompletionQueueTest, CompletionsRunInArrivalOrder) {
  // Posted write, read, send; they arrive read, write, send: the read's
  // wire is shorter than the 4 KiB write's, and the send completes only
  // once its kernel-stack cost has run.
  std::vector<std::string> Order;
  Fab.postWrite(0, 1, 0, std::vector<std::uint8_t>(4096, 1),
                UnprotectedRegion, [&](WcStatus) { Order.push_back("write"); });
  Fab.postRead(0, 2, 0, 1, [&](WcStatus, std::vector<std::uint8_t>) {
    Order.push_back("read");
  });
  Fab.send(0, 3, bytes({1}), [&](WcStatus) { Order.push_back("send"); });
  keepLaneBusy(sim::micros(5));
  Sim.run();
  EXPECT_EQ(Order, (std::vector<std::string>{"read", "write", "send"}));
}

TEST_F(CompletionQueueTest, CrashDropsQueuedCqes) {
  unsigned Ran = 0;
  for (NodeId Dst = 1; Dst <= 3; ++Dst)
    Fab.postWrite(0, Dst, 64, bytes({9}), UnprotectedRegion,
                  [&](WcStatus) { ++Ran; });
  keepLaneBusy(sim::micros(5));
  // Every CQE is queued behind the busy lane by now.
  Sim.run(sim::micros(4));
  Fab.crash(0);
  Sim.run();
  EXPECT_EQ(Ran, 0u);
  // The writes themselves landed.
  for (NodeId Dst = 1; Dst <= 3; ++Dst)
    EXPECT_EQ(Fab.memory(Dst).readU8(64), 9);
}

TEST(NetworkModelTest, CostHelpersScaleWithBytes) {
  NetworkModel M;
  EXPECT_GT(M.writeWire(4096), M.writeWire(8));
  EXPECT_GT(M.readWire(4096), M.readWire(8));
  EXPECT_GT(M.msgWire(4096), M.msgWire(8));
  // The kernel-stack path is an order of magnitude above one-sided ops.
  EXPECT_GT(M.msgWire(64), 5 * M.writeWire(64));
}
