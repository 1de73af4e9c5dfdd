//===- hamband/runtime/MuConsensus.h - Mu-style consensus -------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Mu-style [7] consensus instance, one per synchronization group
/// (Section 4, "Synchronization"). In the common case the designated
/// leader serializes the group's calls and replicates each entry with a
/// single one-sided write per follower into the L rings; an entry commits
/// once a majority of those writes complete.
///
/// Each node's L ring is its one copy of the group's log, the leader's
/// included: a follower's ring holds the entries the leader wrote there,
/// and a leader keeps each entry it appends, as a candidate each entry it
/// fetches, in its own ring as an already-consumed cell.
///
/// Fault tolerance follows Mu's permission scheme: only the recognized
/// leader holds write permission on a node's L ring. When a follower
/// suspects the leader (heartbeat), it campaigns by writing an epoch
/// proposal into its own single-writer proposal slot on every node. A node
/// that observes a higher-epoch proposal revokes the old leader's write
/// permission *before* granting the candidate's, then acks (with its
/// received-entry count) into its single-writer ack slot on the candidate.
/// With a majority of acks the candidate equalizes the logs (reading any
/// missing entries from the most advanced acker's ring -- consumed and
/// kept cells keep their bytes until the ring laps) and resumes as leader.
/// Therefore at most one node can ever append to a majority of L rings.
/// The leader is the lowest-id candidate of the highest epoch. The instance
/// owns its L-ring writers and this node's L-ring reader; every entry it
/// learns -- read from the ring, caught up, or committed as leader in its
/// own view -- reaches the node through one delivery hook.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_MUCONSENSUS_H
#define HAMBAND_RUNTIME_MUCONSENSUS_H

#include "hamband/obs/Metrics.h"
#include "hamband/runtime/MemoryMap.h"
#include "hamband/runtime/Reconfig.h"
#include "hamband/runtime/RingBuffer.h"

#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace hamband {
namespace runtime {

/// One consensus instance (one synchronization group) at one node.
class MuConsensus {
public:
  struct Hooks {
    /// Contiguous count of this group's entries this node has received
    /// (applied + buffered). The leader reports its append index.
    std::function<std::uint64_t()> ReceivedCount;
    /// Delivers entry \p Index: read from the L ring, caught up, or, at
    /// the leader, committed in its own view.
    std::function<void(std::uint64_t Index, std::vector<std::uint8_t>)>
        DeliverEntry;
    /// Fired when this node adopts a new leader (possibly itself), after
    /// the L-ring reader followed it.
    std::function<void(rdma::NodeId NewLeader)> LeaderChanged;
    /// Whether the local failure detector currently suspects a node. A
    /// candidate waits for acks from every unsuspected node (single
    /// failure assumption) so no applied entry can be lost.
    std::function<bool(rdma::NodeId)> IsSuspected;
  };

  /// Denies L-ring write permission on this node to everyone but
  /// \p InitialLeader. \p Members is the owning node's installed
  /// membership, read on every use: nodes outside it are excluded from
  /// replication targets, majorities and campaign quorums
  /// (docs/reconfig.md).
  MuConsensus(rdma::Transport &Fabric, rdma::NodeId Self, unsigned Group,
              rdma::NodeId InitialLeader, const MemoryMap &Map,
              rdma::RegionKey LogKey, Hooks TheHooks,
              const Membership &Members);

  rdma::NodeId currentLeader() const { return Leader; }
  bool isLeader() const { return Leader == Self && !CatchingUp && !Refused; }
  std::uint64_t epoch() const { return Epoch; }
  std::uint64_t nextIndex() const { return NextIndex; }
  /// Position of this node's L-ring reader.
  std::uint64_t logHead() const { return Reader.head(); }

  /// True when leaderAppend would accept an entry right now: a ready
  /// leader holding writers for a majority, none of whose rings is full.
  bool canAppend() const;

  /// Leader-only: keeps \p EntryBytes in this node's L ring as the next
  /// log entry and replicates it. \p OnCommitted fires with true once a
  /// majority of follower writes completed (the leader's own copy counts
  /// toward the majority; a commit in the appending view reaches
  /// DeliverEntry first), or false when the append cannot commit (lost
  /// leadership; the instance then appends nothing more until its next
  /// view change). Returns false without posting anything when
  /// canAppend() is false (caller retries).
  bool leaderAppend(std::vector<std::uint8_t> EntryBytes,
                    std::function<void(bool)> OnCommitted);

  /// Failure-detector hook: if \p Peer is the current leader, campaign.
  void onPeerSuspected(rdma::NodeId Peer);

  /// Deterministic leadership handoff during a membership installation:
  /// every member calls this with the same (Installed, NewLeader,
  /// LogIndex) computed from the drained, agreed state, so no campaign
  /// round is needed. It adopts view (\p Installed << 32, \p NewLeader)
  /// unless this node holds a later one, failing any in-flight appends
  /// of the old leadership; the new leader resumes appending at
  /// \p LogIndex with fresh writers to every active follower. Adopting it
  /// ends any campaign; a node that suspects the leader it then follows
  /// campaigns again.
  void adoptLeadership(std::uint32_t Installed, rdma::NodeId NewLeader,
                       std::uint64_t LogIndex);

  /// Delivers up to 64 entries from this node's L ring; returns how many.
  unsigned pollLog();

  /// Periodic poll (on the node's poller loop): observe proposals, grant
  /// permissions and ack; as a candidate, count acks and take over.
  void poll();

  /// Wires consensus metrics into the owning node's registry: mu.proposal,
  /// mu.view_change, mu.append, mu.commit, mu.voter_beyond_ring counters and
  /// the mu.campaign_ns span from campaign start to established leadership.
  /// Also attaches ring metrics to the L-ring writers (current and future).
  void attachStats(obs::Registry &R);

private:
  obs::Registry *Obs = nullptr;
  obs::Counter *CtrProposal = nullptr;
  obs::Counter *CtrViewChange = nullptr;
  obs::Counter *CtrAppend = nullptr;
  obs::Counter *CtrCommit = nullptr;
  obs::Counter *CtrVoterBeyondRing = nullptr;
  obs::Span CampaignSpan;

  /// Follower writes an append needs to commit.
  unsigned neededRemote() const;
  void campaign();
  /// Adopts a view, proposed or installed: a leader starts each view with
  /// fresh writers. Callers set Campaigning and CatchingUp.
  void adoptView(std::uint64_t NewEpoch, rdma::NodeId NewLeader);
  void becomeLeaderAfterCatchUp(std::uint64_t MaxReceived,
                                rdma::NodeId MaxHolder);
  /// Brings acked voter \p V up to NextIndex from this node's ring.
  void replicateMissingTo(rdma::NodeId V);
  RingWriter &writerTo(rdma::NodeId Follower);
  /// Re-aims the L-ring reader at the leader, from the received count.
  void followLeader();

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  unsigned Group;
  const MemoryMap &Map;
  rdma::RegionKey LogKey;
  Hooks TheHooks;
  const Membership &Members;

  rdma::NodeId Leader;
  /// Orders views: installed membership epoch << 32 | campaign round.
  std::uint64_t Epoch = 0;
  /// Leader state.
  std::uint64_t NextIndex = 0;
  bool CatchingUp = false;
  /// A majority refused an append of this view (permission revoked):
  /// append nothing more until a new view.
  bool Refused = false;
  std::map<rdma::NodeId, std::unique_ptr<RingWriter>> Writers;
  RingReader Reader; // This node's own L ring: its log copy.
  /// Candidate state.
  bool Campaigning = false;
  std::uint64_t CampaignEpoch = 0;
  /// Voter received-counts gathered from ack slots (index = voter).
  std::vector<std::uint64_t> AckReceived;
  std::vector<bool> AckSeen;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_MUCONSENSUS_H
