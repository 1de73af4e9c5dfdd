//===- tests/ConsensusTests.cpp - Mu consensus unit tests ---------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Exercises MuConsensus directly (without a HambandNode) through its hook
// interface: normal-case replication, commit counting, permission-based
// single-leader safety, leader change and log catch-up.
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"
#include "hamband/runtime/MuConsensus.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <optional>
#include <set>

using namespace hamband;
using namespace hamband::runtime;

namespace {

/// A miniature node hosting one consensus instance: tracks the entries
/// it delivers (read from its own conf ring, fetched in catch-up or
/// committed as leader), and polls like the real poller does unless
/// paused.
struct MiniNode {
  MiniNode(rdma::Fabric &Fab, rdma::NodeId Self, const MemoryMap &Map,
           rdma::RegionKey Key, rdma::NodeId InitialLeader)
      : Fab(Fab), Self(Self),
        Members{0, std::vector<std::uint8_t>(Fab.numNodes(), 1)} {
    MuConsensus::Hooks Hooks;
    Hooks.ReceivedCount = [this]() { return Received; };
    Hooks.DeliverEntry = [this](std::uint64_t Idx,
                                std::vector<std::uint8_t> Payload) {
      Delivered.push_back(Idx);
      Entries[Idx] = std::move(Payload);
      bump();
    };
    Hooks.LeaderChanged = [this](rdma::NodeId NewLeader) {
      LeaderChanges.push_back(NewLeader);
    };
    Hooks.IsSuspected = [this](rdma::NodeId Peer) {
      return Suspected.count(Peer) != 0;
    };
    Cons = std::make_unique<MuConsensus>(Fab, Self, 0, InitialLeader, Map,
                                         Key, std::move(Hooks), Members);
    Cons->attachStats(Stats);
  }

  void bump() {
    while (Entries.count(Received))
      ++Received;
  }

  void poll() {
    if (Paused)
      return;
    Cons->pollLog();
    Cons->poll();
  }

  rdma::Fabric &Fab;
  rdma::NodeId Self;
  /// Every node active, as a fixed-membership HambandNode installs.
  Membership Members;
  obs::Registry Stats;
  std::unique_ptr<MuConsensus> Cons;
  std::map<std::uint64_t, std::vector<std::uint8_t>> Entries;
  /// Every delivered index, in delivery order.
  std::vector<std::uint64_t> Delivered;
  std::uint64_t Received = 0;
  bool Paused = false;
  std::set<rdma::NodeId> Suspected;
  std::vector<rdma::NodeId> LeaderChanges;
};

struct ConsensusTest : ::testing::Test {
  static constexpr unsigned N = 4;

  ConsensusTest()
      : Map(N, 0, 1, RingGeometry{64, 128}, RingGeometry{64, 128}),
        Fab(Sim, N, rdma::NetworkModel(), Map.totalBytes() + 4096) {
    Key = Fab.createRegionKey();
    for (rdma::NodeId I = 0; I < N; ++I)
      NodesVec.push_back(
          std::make_unique<MiniNode>(Fab, I, Map, Key, /*Leader=*/0));
    // Drive the pollers.
    schedulePolls();
  }

  void schedulePolls() {
    Sim.schedule(sim::micros(1), [this]() {
      for (auto &Nd : NodesVec)
        Nd->poll();
      schedulePolls();
    });
  }

  void run(double Us) { Sim.run(Sim.now() + sim::micros(Us)); }

  std::vector<std::uint8_t> entry(std::uint8_t Tag) {
    return std::vector<std::uint8_t>{Tag, 0x42};
  }

  sim::Simulator Sim;
  MemoryMap Map;
  rdma::Fabric Fab;
  rdma::RegionKey Key;
  std::vector<std::unique_ptr<MiniNode>> NodesVec;
};

} // namespace

TEST_F(ConsensusTest, LeaderReplicatesAndCommits) {
  MiniNode &Leader = *NodesVec[0];
  ASSERT_TRUE(Leader.Cons->isLeader());
  int Committed = 0;
  ASSERT_TRUE(Leader.Cons->leaderAppend(entry(1), [&](bool Ok) {
    EXPECT_TRUE(Ok);
    ++Committed;
  }));
  run(50);
  EXPECT_EQ(Committed, 1);
  for (unsigned I = 1; I < N; ++I) {
    ASSERT_EQ(NodesVec[I]->Received, 1u) << "node " << I;
    EXPECT_EQ(NodesVec[I]->Entries.at(0), entry(1));
  }
}

TEST_F(ConsensusTest, NonLeaderCannotAppend) {
  EXPECT_FALSE(NodesVec[1]->Cons->leaderAppend(entry(7), nullptr));
}

TEST_F(ConsensusTest, AppendsKeepLogOrder) {
  MiniNode &Leader = *NodesVec[0];
  for (std::uint8_t I = 0; I < 10; ++I)
    ASSERT_TRUE(Leader.Cons->leaderAppend(entry(I), nullptr));
  run(100);
  for (unsigned Node = 1; Node < N; ++Node) {
    ASSERT_EQ(NodesVec[Node]->Received, 10u);
    for (std::uint8_t I = 0; I < 10; ++I)
      EXPECT_EQ(NodesVec[Node]->Entries.at(I)[0], I);
  }
}

TEST_F(ConsensusTest, SuspicionElectsNewLeaderAndRevokesOld) {
  // Node 1 suspects the leader (node 0); nodes 2 and 3 do not suspect
  // anyone but will adopt node 1's higher epoch.
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  EXPECT_TRUE(NodesVec[1]->Cons->isLeader());
  for (unsigned I = 1; I < N; ++I)
    EXPECT_EQ(NodesVec[I]->Cons->currentLeader(), 1u) << "node " << I;
  // The deposed leader lost write permission on every live node's ring.
  for (unsigned I = 1; I < N; ++I)
    EXPECT_FALSE(Fab.hasWritePermission(I, 0, Key)) << "node " << I;
  EXPECT_TRUE(Fab.hasWritePermission(2, 1, Key));
  // The new leader can append; followers deliver.
  int Committed = 0;
  ASSERT_TRUE(
      NodesVec[1]->Cons->leaderAppend(entry(9), [&](bool Ok) {
        EXPECT_TRUE(Ok);
        ++Committed;
      }));
  run(100);
  EXPECT_EQ(Committed, 1);
  EXPECT_EQ(NodesVec[2]->Entries.at(0), entry(9));
  EXPECT_EQ(NodesVec[3]->Entries.at(0), entry(9));
}

TEST_F(ConsensusTest, DeposedLeaderAppendsFail) {
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  ASSERT_TRUE(NodesVec[1]->Cons->isLeader());
  // Node 0 (not polling the proposal? it does poll and adopts). After
  // adoption it is no longer leader and cannot append.
  EXPECT_FALSE(NodesVec[0]->Cons->isLeader());
  EXPECT_FALSE(NodesVec[0]->Cons->leaderAppend(entry(5), nullptr));
}

TEST_F(ConsensusTest, CatchUpEqualizesLogs) {
  MiniNode &Leader = *NodesVec[0];
  for (std::uint8_t I = 0; I < 5; ++I)
    ASSERT_TRUE(Leader.Cons->leaderAppend(entry(I), nullptr));
  run(100);
  ASSERT_EQ(NodesVec[1]->Received, 5u);

  // Simulate node 1 lagging: pretend it only received 2 entries. The new
  // leader (node 2) must replicate the missing tail to it.
  // (We fake the lag by rolling back its counters; the leader change
  // resumes its L-ring reader at the received count, and the consumed
  // cells stay unreadable until the new leader rewrites them.)
  NodesVec[1]->Entries.erase(2);
  NodesVec[1]->Entries.erase(3);
  NodesVec[1]->Entries.erase(4);
  NodesVec[1]->Received = 2;

  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[2]->Cons->onPeerSuspected(0);
  run(400);
  ASSERT_TRUE(NodesVec[2]->Cons->isLeader());
  // Catch-up replicated the missing entries to node 1.
  EXPECT_EQ(NodesVec[1]->Received, 5u);
  for (std::uint8_t I = 0; I < 5; ++I)
    EXPECT_EQ(NodesVec[1]->Entries.at(I)[0], I) << "entry " << int(I);
  // And the new leader continues from index 5.
  EXPECT_EQ(NodesVec[2]->Cons->nextIndex(), 5u);
}

TEST_F(ConsensusTest, CanAppendReflectsRingBackpressure) {
  MiniNode &Leader = *NodesVec[0];
  EXPECT_TRUE(Leader.Cons->canAppend());
  // Fill a follower ring (64 cells) without letting pollers drain: stop
  // time by not running the simulator between appends.
  for (unsigned I = 0; I < 64; ++I)
    ASSERT_TRUE(Leader.Cons->leaderAppend(entry(1), nullptr));
  EXPECT_FALSE(Leader.Cons->canAppend());
  run(100); // Followers consume and publish head feedback.
  EXPECT_TRUE(Leader.Cons->canAppend());
}

TEST_F(ConsensusTest, LeaderDeliversItsOwnCommitsOnceInIndexOrder) {
  MiniNode &Leader = *NodesVec[0];
  std::vector<std::uint64_t> CommittedAt;
  for (std::uint8_t I = 0; I < 5; ++I)
    ASSERT_TRUE(Leader.Cons->leaderAppend(entry(I), [&, I](bool Ok) {
      EXPECT_TRUE(Ok);
      // The hook ran first: the commit's entry is in the log copy.
      EXPECT_TRUE(Leader.Entries.count(I));
      CommittedAt.push_back(I);
    }));
  run(100);
  EXPECT_EQ(CommittedAt.size(), 5u);
  EXPECT_EQ(Leader.Delivered, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  for (std::uint8_t I = 0; I < 5; ++I)
    EXPECT_EQ(Leader.Entries.at(I), entry(I));
  // Its own ring holds them as consumed cells: the poller delivers none.
  EXPECT_EQ(Leader.Cons->pollLog(), 0u);
}

TEST_F(ConsensusTest, CommitLandingAfterTheLeaderAdoptedAnotherIsNotDelivered) {
  MiniNode &Leader = *NodesVec[0];
  std::optional<bool> Outcome;
  ASSERT_TRUE(Leader.Cons->leaderAppend(
      entry(3), [&](bool Ok) { Outcome = Ok; }));
  // An install of membership epoch 1 hands the group to node 1 at node 0
  // while its writes are in flight; the followers have not moved, so the
  // writes still land and commit.
  Leader.Cons->adoptLeadership(1, 1, 1);
  run(50);
  ASSERT_EQ(Outcome, std::optional<bool>(true));
  EXPECT_TRUE(Leader.Delivered.empty());
  for (unsigned I = 1; I < N; ++I)
    EXPECT_EQ(NodesVec[I]->Entries.at(0), entry(3)) << "node " << I;
}

TEST_F(ConsensusTest, LateVoterGetsTheLeadersOwnAppendsFromItsRing) {
  // Node 1 takes over from node 0 without waiting for node 3, which it
  // suspects and which does not poll, then appends five entries itself.
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[1]->Suspected.insert(3);
  NodesVec[3]->Paused = true;
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  MiniNode &Leader = *NodesVec[1];
  ASSERT_TRUE(Leader.Cons->isLeader());
  for (std::uint8_t I = 0; I < 5; ++I)
    ASSERT_TRUE(Leader.Cons->leaderAppend(entry(I), nullptr));
  run(100);
  ASSERT_EQ(NodesVec[3]->Received, 0u);
  // The leader's ring is its log copy: its appends are there.
  RingReader LeaderRing(Fab, 1, 1, Map.confRingData(0),
                        Map.confRingFeedback(0, 1), Map.confGeom());
  for (std::uint8_t I = 0; I < 5; ++I) {
    std::vector<std::uint8_t> Cell;
    ASSERT_TRUE(LeaderRing.readCellIgnoringCanary(I, Cell));
    EXPECT_EQ(Cell, entry(I));
  }

  // Node 3 wakes, adopts node 1 and acks late; the leader brings it up
  // to date from that ring.
  NodesVec[3]->Paused = false;
  run(200);
  EXPECT_EQ(NodesVec[3]->Cons->currentLeader(), 1u);
  ASSERT_EQ(NodesVec[3]->Received, 5u);
  for (std::uint8_t I = 0; I < 5; ++I)
    EXPECT_EQ(NodesVec[3]->Entries.at(I), entry(I)) << "entry " << int(I);
}

TEST_F(ConsensusTest, LeaderReElectedByCampaignAppendsAgain) {
  // Leader 0 appends three entries, node 1 takes over and appends three,
  // then node 0 campaigns back. Its writers of the first view are gone:
  // it appends again from index 6.
  for (std::uint8_t I = 0; I < 3; ++I)
    ASSERT_TRUE(NodesVec[0]->Cons->leaderAppend(entry(I), nullptr));
  run(100);
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  ASSERT_TRUE(NodesVec[1]->Cons->isLeader());
  for (std::uint8_t I = 3; I < 6; ++I)
    ASSERT_TRUE(NodesVec[1]->Cons->leaderAppend(entry(I), nullptr));
  run(100);

  for (unsigned I = 0; I < N; ++I) {
    NodesVec[I]->Suspected.erase(0);
    if (I != 1)
      NodesVec[I]->Suspected.insert(1);
  }
  NodesVec[0]->Cons->onPeerSuspected(1);
  MiniNode &Leader = *NodesVec[0];
  sim::SimTime Cap = Sim.now() + sim::millis(5);
  while (Sim.now() < Cap && !Leader.Cons->canAppend())
    run(1);
  ASSERT_TRUE(Leader.Cons->isLeader());
  EXPECT_EQ(Leader.Cons->nextIndex(), 6u);
  ASSERT_TRUE(Leader.Cons->canAppend());
  std::optional<bool> Outcome;
  ASSERT_TRUE(
      Leader.Cons->leaderAppend(entry(6), [&](bool Ok) { Outcome = Ok; }));
  run(100);
  EXPECT_EQ(Outcome, std::optional<bool>(true));
  for (unsigned I = 1; I < N; ++I)
    EXPECT_EQ(NodesVec[I]->Entries.at(6), entry(6)) << "node " << I;
}

TEST_F(ConsensusTest, VoterBeyondTheLeadersRingGetsNoWriter) {
  // Node 1 takes over without node 3, which it suspects and which does
  // not poll, and appends 70 entries through the 64-cell ring. When node
  // 3 wakes and acks from index 0, the leader's ring no longer holds
  // entries 0-5: node 3 needs a state transfer, and gets no entry under
  // another index.
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[1]->Suspected.insert(3);
  NodesVec[3]->Paused = true;
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  MiniNode &Leader = *NodesVec[1];
  ASSERT_TRUE(Leader.Cons->isLeader());
  for (std::uint8_t I = 0; I < 70; ++I) {
    while (!Leader.Cons->canAppend())
      run(1);
    ASSERT_TRUE(Leader.Cons->leaderAppend(entry(I), nullptr));
  }
  run(100);
  ASSERT_EQ(NodesVec[2]->Received, 70u);

  NodesVec[3]->Paused = false;
  run(200);
  EXPECT_EQ(NodesVec[3]->Cons->currentLeader(), 1u);
  EXPECT_TRUE(NodesVec[3]->Delivered.empty());
  EXPECT_EQ(Leader.Stats.counter("mu.voter_beyond_ring").value(), 1u);
  // The rest of the group goes on without it.
  ASSERT_TRUE(Leader.Cons->canAppend());
  ASSERT_TRUE(Leader.Cons->leaderAppend(entry(70), nullptr));
  run(100);
  EXPECT_EQ(NodesVec[2]->Entries.at(70), entry(70));
  EXPECT_TRUE(NodesVec[3]->Delivered.empty());
  EXPECT_EQ(Leader.Stats.counter("mu.voter_beyond_ring").value(), 1u);
}

TEST_F(ConsensusTest, LeaderWithoutWritersForAMajorityDoesNotAppend) {
  // As above, node 1 leads with node 3 asleep and laps node 3's entries
  // out of its 64-cell ring. Then node 1 stops for good and node 2 takes
  // over on acks from nodes 0 and 3; node 3 acks from index 0, beyond
  // node 2's ring too, so node 2 holds a writer for node 0 alone while
  // its majority needs two. It must not append: such an entry could
  // never decide.
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  NodesVec[1]->Suspected.insert(3);
  NodesVec[3]->Paused = true;
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  MiniNode &First = *NodesVec[1];
  ASSERT_TRUE(First.Cons->isLeader());
  for (std::uint8_t I = 0; I < 70; ++I) {
    while (!First.Cons->canAppend())
      run(1);
    ASSERT_TRUE(First.Cons->leaderAppend(entry(I), nullptr));
  }
  run(100);
  ASSERT_EQ(NodesVec[2]->Received, 70u);
  NodesVec[3]->Paused = false;
  run(200);
  ASSERT_EQ(NodesVec[3]->Cons->currentLeader(), 1u);

  NodesVec[1]->Paused = true;
  for (unsigned I : {0u, 2u, 3u})
    NodesVec[I]->Suspected.insert(1);
  NodesVec[2]->Cons->onPeerSuspected(1);
  run(200);
  MiniNode &Second = *NodesVec[2];
  ASSERT_TRUE(Second.Cons->isLeader());
  EXPECT_EQ(Second.Stats.counter("mu.voter_beyond_ring").value(), 1u);
  EXPECT_FALSE(Second.Cons->canAppend());
  std::optional<bool> Outcome;
  EXPECT_FALSE(
      Second.Cons->leaderAppend(entry(70), [&](bool Ok) { Outcome = Ok; }));
  run(100);
  EXPECT_EQ(Outcome, std::nullopt);
  EXPECT_EQ(NodesVec[0]->Received, 70u);
}

TEST_F(ConsensusTest, LateInstallOverridesAStaleCampaignWithoutSplitting) {
  // Nodes 0, 2 and 3 install membership epoch 1, which keeps leader 0.
  // Node 1 has not installed yet; it suspects node 0 and proposes a view
  // of the old membership, then installs too. The stale proposal must not
  // split the group: node 1 still suspects node 0, so it campaigns again
  // under the new membership, every node follows it, and it commits at
  // every node.
  for (std::uint8_t I = 0; I < 2; ++I)
    ASSERT_TRUE(NodesVec[0]->Cons->leaderAppend(entry(I), nullptr));
  run(100);
  for (unsigned I = 0; I < N; ++I)
    if (I != 1)
      NodesVec[I]->Cons->adoptLeadership(1, 0, 2);
  NodesVec[1]->Suspected.insert(0);
  NodesVec[1]->Cons->onPeerSuspected(0);
  run(200);
  NodesVec[1]->Cons->adoptLeadership(1, 0, 2);
  run(200);

  auto Agreed = [&]() -> MiniNode * {
    rdma::NodeId L = NodesVec[0]->Cons->currentLeader();
    for (auto &Nd : NodesVec)
      if (Nd->Cons->currentLeader() != L)
        return nullptr;
    return NodesVec[L]->Cons->canAppend() ? NodesVec[L].get() : nullptr;
  };
  sim::SimTime Cap = Sim.now() + sim::millis(5);
  while (Sim.now() < Cap && !Agreed())
    run(1);
  MiniNode *Leader = Agreed();
  ASSERT_NE(Leader, nullptr);
  EXPECT_EQ(Leader->Self, 1u);
  std::optional<bool> Outcome;
  ASSERT_TRUE(
      Leader->Cons->leaderAppend(entry(2), [&](bool Ok) { Outcome = Ok; }));
  run(100);
  EXPECT_EQ(Outcome, std::optional<bool>(true));
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(NodesVec[I]->Entries.at(2), entry(2)) << "node " << I;
}

TEST_F(ConsensusTest, CampaignForALaterViewOutlivesALateInstall) {
  // Nodes 0, 2 and 3 install membership epoch 1, which keeps leader 0.
  // Before node 1 installs it too, node 2 campaigns for the next view of
  // that membership and node 1 follows it, then suspects node 2 and
  // campaigns for the view after, adopting its own proposal. Node 1's
  // install is below the view it holds: view and campaign stand, and
  // node 1 takes over.
  constexpr std::uint64_t Installed = std::uint64_t{1} << 32;
  for (unsigned I = 0; I < N; ++I)
    if (I != 1)
      NodesVec[I]->Cons->adoptLeadership(1, 0, 0);
  NodesVec[2]->Suspected.insert(0);
  NodesVec[2]->Cons->onPeerSuspected(0);
  run(50);
  MiniNode &Late = *NodesVec[1];
  ASSERT_EQ(Late.Cons->epoch(), Installed + 1);
  ASSERT_EQ(Late.Cons->currentLeader(), 2u);

  Late.Suspected.insert(2);
  Late.Cons->onPeerSuspected(2);
  Late.poll();
  ASSERT_EQ(Late.Cons->epoch(), Installed + 2);
  ASSERT_EQ(Late.Cons->currentLeader(), 1u);
  Late.Cons->adoptLeadership(1, 0, 0);
  EXPECT_EQ(Late.Cons->epoch(), Installed + 2);

  sim::SimTime Cap = Sim.now() + sim::millis(5);
  while (Sim.now() < Cap && !Late.Cons->canAppend())
    run(1);
  ASSERT_TRUE(Late.Cons->canAppend());
  std::optional<bool> Outcome;
  ASSERT_TRUE(
      Late.Cons->leaderAppend(entry(1), [&](bool Ok) { Outcome = Ok; }));
  run(100);
  EXPECT_EQ(Outcome, std::optional<bool>(true));
  for (unsigned I = 0; I < N; ++I)
    EXPECT_EQ(NodesVec[I]->Entries.at(0), entry(1)) << "node " << I;
}

TEST_F(ConsensusTest, CatchUpOvertakenByAViewChangeStops) {
  // Node 1, eighteen entries behind (faked as in CatchUpEqualizesLogs),
  // wins epoch 1 and starts fetching them from node 2. Node 0 takes
  // epoch 2 while that fetch is under way: node 1 stops it and gets the
  // rest from node 0, each entry once.
  for (std::uint8_t I = 0; I < 20; ++I)
    ASSERT_TRUE(NodesVec[0]->Cons->leaderAppend(entry(I), nullptr));
  run(100);
  MiniNode &Candidate = *NodesVec[1];
  ASSERT_EQ(Candidate.Received, 20u);
  for (std::uint64_t I = 2; I < 20; ++I)
    Candidate.Entries.erase(I);
  Candidate.Received = 2;
  Candidate.Delivered = {0, 1};
  for (unsigned I = 1; I < N; ++I)
    NodesVec[I]->Suspected.insert(0);
  Candidate.Cons->onPeerSuspected(0);
  while (Candidate.Received < 5)
    run(1);
  ASSERT_LT(Candidate.Received, 20u);

  for (unsigned I = 0; I < N; ++I) {
    NodesVec[I]->Suspected.erase(0);
    if (I != 1)
      NodesVec[I]->Suspected.insert(1);
  }
  NodesVec[0]->Cons->onPeerSuspected(1);
  run(300);
  ASSERT_TRUE(NodesVec[0]->Cons->isLeader());
  ASSERT_TRUE(NodesVec[0]->Cons->leaderAppend(entry(20), nullptr));
  run(100);
  ASSERT_EQ(Candidate.Received, 21u);
  std::vector<std::uint64_t> Once(21);
  std::iota(Once.begin(), Once.end(), 0);
  EXPECT_EQ(Candidate.Delivered, Once);
  for (std::uint8_t I = 0; I <= 20; ++I)
    EXPECT_EQ(Candidate.Entries.at(I), entry(I)) << "entry " << int(I);
}
