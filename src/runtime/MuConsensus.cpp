//===- runtime/MuConsensus.cpp - Mu-style consensus ---------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/MuConsensus.h"

#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::runtime;

namespace {
/// One append's completions, and the entry its commit delivers.
struct CommitTally {
  std::uint64_t Index = 0;
  std::vector<std::uint8_t> Entry;
  std::function<void(bool)> OnCommitted;
  unsigned Successes = 0;
  unsigned Failures = 0;
  bool Decided = false;
};
} // namespace

MuConsensus::MuConsensus(rdma::Transport &Fabric, rdma::NodeId Self,
                         unsigned Group, rdma::NodeId InitialLeader,
                         const MemoryMap &Map, rdma::RegionKey LogKey,
                         Hooks TheHooks, const Membership &Members)
    : Fabric(Fabric), Self(Self), Group(Group), Map(Map), LogKey(LogKey),
      TheHooks(std::move(TheHooks)), Members(Members), Leader(InitialLeader),
      Reader(Fabric, Self, InitialLeader, Map.confRingData(Group),
             Map.confRingFeedback(Group, Self), Map.confGeom(),
             rdma::Transport::LanePoller),
      AckReceived(Fabric.numNodes(), 0), AckSeen(Fabric.numNodes(), false) {
  for (rdma::NodeId W = 0; W < Fabric.numNodes(); ++W)
    Fabric.setWritePermission(Self, W, LogKey, W == Leader);
  if (Self == InitialLeader)
    for (rdma::NodeId F = 0; F < Fabric.numNodes(); ++F)
      if (F != Self && Members.isActive(F))
        writerTo(F);
}

void MuConsensus::adoptLeadership(std::uint32_t Installed,
                                  rdma::NodeId NewLeader,
                                  std::uint64_t LogIndex) {
  // A later view comes from a campaign of the new membership that this
  // node saw before its own install: it stands, and so does a campaign
  // of this node's for it. A campaign below the installed view is stale.
  std::uint64_t View = std::uint64_t{Installed} << 32;
  if (View > Epoch) {
    adoptView(View, NewLeader); // Re-aims a joiner's reader too.
    Campaigning = false;
    CatchingUp = false;
    if (Self == Leader) {
      NextIndex = LogIndex;
      for (rdma::NodeId F = 0; F < Fabric.numNodes(); ++F)
        if (F != Self && Members.isActive(F))
          writerTo(F);
    }
  }
  if (!Campaigning && Leader != Self && TheHooks.IsSuspected &&
      TheHooks.IsSuspected(Leader))
    campaign();
}

void MuConsensus::adoptView(std::uint64_t NewEpoch, rdma::NodeId NewLeader) {
  rdma::NodeId Old = Leader;
  bool Moved = NewEpoch != Epoch || NewLeader != Old;
  Epoch = NewEpoch;
  Leader = NewLeader;
  if (Moved && CtrViewChange)
    CtrViewChange->add();
  // Revoke the deposed leader's permission *before* granting the new
  // one; this is the Mu invariant that prevents two leaders.
  if (Old != Leader)
    Fabric.setWritePermission(Self, Old, LogKey, false);
  Fabric.setWritePermission(Self, Leader, LogKey, true);
  Refused = false;
  Writers.clear();
  followLeader();
  if (Moved && TheHooks.LeaderChanged)
    TheHooks.LeaderChanged(Leader);
}

void MuConsensus::followLeader() {
  Reader.setWriter(Leader);
  Reader.setHead(TheHooks.ReceivedCount ? TheHooks.ReceivedCount() : 0);
  if (Leader != Self)
    Reader.forceFeedback();
}

unsigned MuConsensus::pollLog() {
  unsigned Got = 0;
  std::vector<std::uint8_t> Bytes;
  for (; Got < 64 && Reader.peek(Bytes); ++Got) {
    std::uint64_t Index = Reader.head();
    Reader.consume();
    TheHooks.DeliverEntry(Index, std::move(Bytes));
  }
  return Got;
}

void MuConsensus::attachStats(obs::Registry &R) {
  Obs = &R;
  CtrProposal = &R.counter("mu.proposal");
  CtrViewChange = &R.counter("mu.view_change");
  CtrAppend = &R.counter("mu.append");
  CtrCommit = &R.counter("mu.commit");
  CtrVoterBeyondRing = &R.counter("mu.voter_beyond_ring");
  for (auto &[F, W] : Writers)
    W->attachStats(R);
  Reader.attachStats(R);
}

RingWriter &MuConsensus::writerTo(rdma::NodeId Follower) {
  auto It = Writers.find(Follower);
  if (It != Writers.end())
    return *It->second;
  auto W = std::make_unique<RingWriter>(
      Fabric, Self, Follower, Map.confRingData(Group),
      Map.confRingFeedback(Group, Follower), Map.confGeom(), LogKey,
      rdma::Transport::LaneClient);
  if (Obs)
    W->attachStats(*Obs);
  W->setTail(NextIndex);
  return *Writers.emplace(Follower, std::move(W)).first->second;
}

unsigned MuConsensus::neededRemote() const {
  // The leader's own log copy counts toward the majority.
  return Members.activeCount() / 2;
}

bool MuConsensus::canAppend() const {
  // A leader whose acked voters lie beyond its ring holds no writer for
  // them: with fewer writers than its majority needs, an append could
  // never decide.
  if (!isLeader() || Writers.size() < neededRemote())
    return false;
  for (const auto &[F, W] : Writers)
    if (W->full())
      return false;
  return true;
}

bool MuConsensus::leaderAppend(std::vector<std::uint8_t> EntryBytes,
                               std::function<void(bool)> OnCommitted) {
  if (!canAppend())
    return false;
  if (CtrAppend)
    CtrAppend->add();

  unsigned NeededRemote = neededRemote();
  auto Tally = std::make_shared<CommitTally>(CommitTally{
      NextIndex, std::move(EntryBytes), std::move(OnCommitted)});
  Reader.keep(NextIndex, Tally->Entry);
  unsigned NumFollowers = static_cast<unsigned>(Writers.size());
  auto Decide = [this, Tally, Term = Epoch](bool Ok) {
    Tally->Decided = true;
    if (Ok && CtrCommit)
      CtrCommit->add();
    Refused |= !Ok && Epoch == Term;
    // A commit of this view is delivered like a ring-read entry. One that
    // lands after a view change is not: the new leader's log decides the
    // entry's fate.
    if (Ok && Epoch == Term)
      TheHooks.DeliverEntry(Tally->Index, std::move(Tally->Entry));
    if (Tally->OnCommitted)
      Tally->OnCommitted(Ok);
  };
  auto OnOne = [Tally, NeededRemote, NumFollowers,
                Decide](rdma::WcStatus St) {
    if (St == rdma::WcStatus::Success)
      ++Tally->Successes;
    else
      ++Tally->Failures;
    if (Tally->Decided)
      return;
    if (Tally->Successes >= NeededRemote)
      Decide(true);
    else if (Tally->Failures > NumFollowers - NeededRemote)
      Decide(false); // A majority can no longer complete: deposed.
  };

  for (auto &[F, W] : Writers) {
    bool Appended = W->append(Tally->Entry, OnOne);
    assert(Appended && "ring fullness was checked above");
    (void)Appended;
  }
  ++NextIndex;
  if (NeededRemote == 0)
    Decide(true);
  return true;
}

void MuConsensus::onPeerSuspected(rdma::NodeId Peer) {
  if (Peer != Leader || Leader == Self || Campaigning)
    return;
  campaign();
}

void MuConsensus::campaign() {
  Campaigning = true;
  CampaignEpoch = Epoch + 1;
  if (CtrProposal)
    CtrProposal->add();
  if (Obs)
    CampaignSpan =
        obs::Span(*Obs, "mu.campaign_ns", Fabric.now());
  AckSeen.assign(Fabric.numNodes(), false);
  AckReceived.assign(Fabric.numNodes(), 0);
  std::vector<std::uint8_t> Proposal(16, 0);
  std::memcpy(Proposal.data(), &CampaignEpoch, 8);
  // The proposal slot is this candidate's single-writer cell on each node.
  Fabric.memory(Self).write(Map.proposalSlot(Group, Self), Proposal.data(),
                            Proposal.size());
  for (rdma::NodeId Peer = 0; Peer < Fabric.numNodes(); ++Peer)
    if (Peer != Self)
      Fabric.postWrite(Self, Peer, Map.proposalSlot(Group, Self), Proposal,
                       rdma::UnprotectedRegion, nullptr,
                       rdma::Transport::LaneBackground);
}

void MuConsensus::poll() {
  const rdma::MemoryRegion &Mem = Fabric.memory(Self);

  // 1) Observe proposals: the leader is the lowest-id candidate of the
  // highest epoch, so a lower-id proposal at our own epoch displaces the
  // candidate we adopted (an installed view has no proposals).
  rdma::NodeId BestCand = Leader;
  std::uint64_t BestEpoch = Epoch;
  for (rdma::NodeId Cand = 0; Cand < Fabric.numNodes(); ++Cand) {
    if (!Members.isActive(Cand))
      continue; // A removed node's stale proposal must not depose anyone.
    std::uint64_t E = Mem.readU64(Map.proposalSlot(Group, Cand));
    if (E > BestEpoch || (E == BestEpoch && E > 0 && Cand < BestCand)) {
      BestEpoch = E;
      BestCand = Cand;
    }
  }
  if (BestEpoch > Epoch || BestCand != Leader) {
    adoptView(BestEpoch, BestCand);
    if (Campaigning && (CampaignEpoch < Epoch || Leader != Self))
      Campaigning = false; // Lost the race to a higher epoch or lower id.
    CatchingUp = Leader == Self;
    // Ack with our received count so the new leader can equalize logs.
    std::vector<std::uint8_t> Ack(24, 0);
    std::uint64_t Received =
        TheHooks.ReceivedCount ? TheHooks.ReceivedCount() : 0;
    std::uint64_t Flag = 1;
    std::memcpy(Ack.data(), &Epoch, 8);
    std::memcpy(Ack.data() + 8, &Received, 8);
    std::memcpy(Ack.data() + 16, &Flag, 8);
    if (Leader == Self)
      Fabric.memory(Self).write(Map.ackSlot(Group, Self), Ack.data(),
                                Ack.size());
    else
      Fabric.postWrite(Self, Leader, Map.ackSlot(Group, Self),
                       std::move(Ack), rdma::UnprotectedRegion, nullptr,
                       rdma::Transport::LaneBackground);
  }

  // 2) Candidate / leader: gather acks.
  if (Leader != Self)
    return;
  bool NewAck = false;
  for (rdma::NodeId Voter = 0; Voter < Fabric.numNodes(); ++Voter) {
    if (AckSeen[Voter] || !Members.isActive(Voter))
      continue;
    std::uint8_t Raw[24];
    // Stable snapshot: on the shm transport a voter may be overwriting
    // its ack slot concurrently; a torn {epoch, received, flag} triple
    // must not be trusted. (Plain read on the simulator.)
    Mem.readStable(Map.ackSlot(Group, Voter), Raw, sizeof(Raw));
    std::uint64_t E = 0, Received = 0, Flag = 0;
    std::memcpy(&E, Raw, 8);
    std::memcpy(&Received, Raw + 8, 8);
    std::memcpy(&Flag, Raw + 16, 8);
    if (Flag != 1 || E != Epoch)
      continue;
    AckSeen[Voter] = true;
    AckReceived[Voter] = Received;
    NewAck = true;
    // An established leader brings a late voter (e.g. the deposed leader,
    // which is alive and eventually adopts us) up to date at once.
    if (!Campaigning && !CatchingUp)
      replicateMissingTo(Voter);
  }
  if (!NewAck || !Campaigning)
    return;

  // Wait for every node the detector has not suspected, so that any
  // entry a live follower applied is visible to the new leader (single
  // failure assumption; see header comment).
  unsigned Acks = 0;
  bool AllResponsive = true;
  for (rdma::NodeId V = 0; V < Fabric.numNodes(); ++V) {
    if (!Members.isActive(V))
      continue;
    if (AckSeen[V])
      ++Acks;
    else if (!TheHooks.IsSuspected || !TheHooks.IsSuspected(V))
      AllResponsive = false;
  }
  if (!AllResponsive || Acks < Members.activeCount() / 2 + 1)
    return;
  Campaigning = false;
  std::uint64_t MaxReceived =
      TheHooks.ReceivedCount ? TheHooks.ReceivedCount() : 0;
  rdma::NodeId Holder = Self;
  for (rdma::NodeId V = 0; V < Fabric.numNodes(); ++V) {
    if (AckSeen[V] && AckReceived[V] > MaxReceived) {
      MaxReceived = AckReceived[V];
      Holder = V;
    }
  }
  becomeLeaderAfterCatchUp(MaxReceived, Holder);
}

void MuConsensus::becomeLeaderAfterCatchUp(std::uint64_t MaxReceived,
                                           rdma::NodeId Holder) {
  std::uint64_t Mine =
      TheHooks.ReceivedCount ? TheHooks.ReceivedCount() : 0;
  // Read the missing entries (if any) from the most advanced acker's ring.
  // The reads chain so that entries are delivered in order.
  // Each in-flight read callback owns the chain closure; the closure holds
  // only a weak_ptr to itself, so finishing the chain releases it.
  auto FetchNext = std::make_shared<std::function<void(std::uint64_t)>>();
  std::weak_ptr<std::function<void(std::uint64_t)>> WeakFetch = FetchNext;
  *FetchNext = [this, MaxReceived, Holder, WeakFetch,
                Term = Epoch](std::uint64_t Index) {
    if (Index >= MaxReceived) {
      NextIndex = MaxReceived;
      CatchingUp = false;
      CampaignSpan.finish(Fabric.now());
      for (rdma::NodeId V = 0; V < Fabric.numNodes(); ++V)
        if (AckSeen[V])
          replicateMissingTo(V);
      return;
    }
    const RingGeometry G = Map.confGeom();
    rdma::MemOffset CellOff =
        Map.confRingData(Group) +
        static_cast<rdma::MemOffset>(Index % G.NumCells) * G.CellSize;
    auto Next = WeakFetch.lock();
    Fabric.postRead(
        Self, Holder, CellOff, G.CellSize,
        [this, Index, Next, G, Term](rdma::WcStatus,
                                     std::vector<std::uint8_t> Cell) {
          // A view change ends the catch-up: the new leader feeds us.
          if (Epoch != Term || Leader != Self)
            return;
          // The fetched entry joins this node's log copy, its own ring.
          std::vector<std::uint8_t> Payload;
          if (G.decodeCell(Cell, Index, Payload)) {
            Reader.keep(Index, Payload);
            TheHooks.DeliverEntry(Index, std::move(Payload));
          }
          if (Next)
            (*Next)(Index + 1);
        },
        rdma::Transport::LaneBackground);
  };
  (*FetchNext)(Mine);
}

void MuConsensus::replicateMissingTo(rdma::NodeId V) {
  if (V == Self || !Members.isActive(V) || Writers.count(V))
    return;
  // Clamp: a voter can never legitimately be ahead of the adopted log.
  std::uint64_t From = std::min(AckReceived[V], NextIndex);
  // Our own ring holds every entry this node received, fetched or
  // appended, until the ring laps. A voter behind that needs a state
  // transfer: it gets no writer, so no entry lands under another index.
  std::vector<std::vector<std::uint8_t>> Missing;
  for (std::uint64_t I = From; I < NextIndex; ++I)
    if (!Reader.readCellIgnoringCanary(I, Missing.emplace_back())) {
      if (CtrVoterBeyondRing)
        CtrVoterBeyondRing->add();
      return;
    }
  RingWriter &W = writerTo(V);
  W.setTail(From);
  for (const std::vector<std::uint8_t> &Bytes : Missing) {
    bool Appended = W.append(Bytes, nullptr);
    assert(Appended && "the voter acked, and fed back, head From");
    (void)Appended;
  }
}
