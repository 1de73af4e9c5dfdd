//===- runtime/ConfChannel.cpp - Conflicting-call path --------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/runtime/ConfChannel.h"
#include "hamband/runtime/HambandNode.h"

#include <algorithm>
#include <cassert>

using namespace hamband;
using namespace hamband::runtime;

ConfChannel::ConfChannel(
    rdma::Transport &Fabric, rdma::NodeId Self, const ObjectType &Type,
    const MemoryMap &Map, const HambandConfig &Cfg,
    const std::vector<rdma::RegionKey> &ConfKeys, const Membership &Members,
    unsigned LeaderOffset,
    const std::vector<std::vector<std::uint64_t>> &Applied,
    const HeartbeatDetector &Detector, obs::Registry &Stats, NodeHooks Hooks)
    : Fabric(Fabric), Self(Self), Type(Type), Spec(Type.coordination()),
      Cfg(Cfg), Members(Members), LeaderOffset(LeaderOffset),
      Applied(Applied), Hooks(std::move(Hooks)) {
  unsigned Groups = Spec.numSyncGroups();
  assert(ConfKeys.size() == Groups && "one region key per sync group");
  CtrDepStall = &Stats.counter("node.dep_stall.conf");
  CtrCrossEpochDrop = &Stats.counter("reconfig.cross_epoch_drop");
  CtrCrossEpochApply = &Stats.counter("reconfig.cross_epoch_apply");
  CtrOversizeReject = &Stats.counter("node.conf.oversize_reject");
  CtrParked = &Stats.counter("node.conf.parked");
  CtrRechecks = &Stats.counter("node.conf.rechecks");
  CtrCoalesced = &Stats.counter("node.conf.coalesced");
  HistParkNs = &Stats.histogram("node.conf.park_ns");
  GaugeDedupBytes = &Stats.gauge("node.conf.dedup_bytes");
  Pending.resize(Groups);
  AppliedIdx.assign(Groups, 0);
  AppliedInEntry.assign(Groups, 0);
  Seen.resize(Groups);
  Speculative.resize(Groups);
  LeaderQueue.resize(Groups);
  Accepted.resize(Groups);
  Log.resize(Groups);

  for (unsigned G = 0; G < Groups; ++G) {
    MuConsensus::Hooks H;
    H.ReceivedCount = [this, G]() { return receivedContig(G); };
    H.DeliverEntry = [this, G](std::uint64_t Idx,
                               std::vector<std::uint8_t> Payload) {
      // An entry is one bare call or a call batch of two or more.
      unsigned N = this->Fabric.numNodes();
      std::vector<WireCall> Calls(1);
      bool Ok =
          isCallBatch(Payload.data(), Payload.size())
              ? decodeCallBatch(Spec, N, Payload.data(), Payload.size(), Calls)
              : decodeCall(Spec, N, Payload.data(), Payload.size(), Calls[0]);
      assert(Ok && "malformed L-ring entry");
      if (Ok)
        deliver(G, Idx, std::move(Calls));
    };
    // Stale speculative entries belong to the deposed leadership; the
    // permissibility window restarts from the applied state.
    H.LeaderChanged = [this, G](rdma::NodeId NewLeader) {
      if (NewLeader != this->Self)
        Speculative[G].clear();
      LeaderMoved = true;
    };
    H.IsSuspected = [&Detector](rdma::NodeId P) {
      return Detector.isSuspected(P);
    };
    Consensus.push_back(std::make_unique<MuConsensus>(
        Fabric, Self, G, homeLeader(G), Map, ConfKeys[G], std::move(H),
        Members));
    Consensus[G]->attachStats(Stats);
  }
}

rdma::NodeId ConfChannel::homeLeader(unsigned G) const {
  // The first in-service node from the group's rotation slot: every
  // replica picks the same.
  unsigned N = Fabric.numNodes();
  for (unsigned K = 0; K < N; ++K) {
    rdma::NodeId Cand = (G + LeaderOffset + K) % N;
    if (Members.isActive(Cand))
      return Cand;
  }
  return (G + LeaderOffset) % N;
}

// -- Origin side -------------------------------------------------------------

void ConfChannel::submit(const Call &C, SubmitCallback Done) {
  auto [It, Fresh] = Requests.try_emplace(C.Req);
  if (!Fresh) {
    // Sent again, the copy could only be answered from the dedup set,
    // ahead of the outcome of the append it found there.
    It->second.Done = [First = std::move(It->second.Done),
                       Then = std::move(Done)](bool Ok, Value V) {
      if (First)
        First(Ok, V);
      if (Then)
        Then(Ok, V);
    };
    return;
  }
  const rdma::NetworkModel &M = Fabric.model();
  rdma::NodeId Leader = knownLeader(groupOf(C));
  It->second = Request{C, std::move(Done), Leader};
  // The leader parses and checks the call; a redirect only serializes it.
  Fabric.runOnCpu(
      Self, Leader == Self ? M.ParseCpu + M.ApplyCpu : M.ParseCpu,
      [this, Leader, C]() mutable {
        // Eager flush: earlier calls post their writes first, keeping the
        // unbatched PropConfSync / PropDep order at the leader.
        Hooks.Flush();
        dispatch(Leader, std::move(C));
      },
      rdma::Transport::LaneClient);
}

void ConfChannel::dispatch(rdma::NodeId Leader, Call C) {
  if (Leader == Self) {
    unsigned G = groupOf(C);
    sequence(G, Self, std::move(C), 0);
    return;
  }
  MailMsg Msg;
  Msg.Kind = MailKind::ConfRequest;
  Msg.ReqId = C.Req;
  Msg.TheCall = std::move(C);
  mail(Leader, std::move(Msg));
}

void ConfChannel::mail(rdma::NodeId To, MailMsg Msg) {
  Msg.Epoch = Members.Epoch;
  Hooks.Post(To, encodeMail(Msg));
}

void ConfChannel::route(RequestId Id) {
  auto It = Requests.find(Id);
  if (It == Requests.end())
    return;
  Request &R = It->second;
  R.SentTo = knownLeader(groupOf(R.TheCall));
  dispatch(R.SentTo, R.TheCall); // May answer, and erase R, at once.
}

void ConfChannel::onAnswer(rdma::NodeId From, RequestId Id,
                           ConfOutcome Outcome) {
  auto It = Requests.find(Id);
  // Only the node a request was last sent to answers for it, so no client
  // hears the verdict on a copy that a view change left behind.
  if (It == Requests.end() || It->second.SentTo != From)
    return;
  if (Outcome == ConfOutcome::Retry) {
    route(Id); // Only the current leader can decide.
    return;
  }
  SubmitCallback Done = std::move(It->second.Done);
  Requests.erase(It);
  if (Done)
    Done(Outcome == ConfOutcome::Committed, 0);
}

// -- Leader side -------------------------------------------------------------

bool ConfChannel::sequence(unsigned G, ProcessId Origin, Call C,
                           sim::SimTime WaitDeadline) {
  MuConsensus &Mu = *Consensus[G];
  RequestId Id = C.Req;
  if (Mu.currentLeader() != Self) {
    answer(Origin, Id, ConfOutcome::Retry);
    return false;
  }
  if (Seen[G].count(Id)) {
    answer(Origin, Id, ConfOutcome::Committed);
    return false;
  }
  if (!Mu.canAppend()) {
    // Catching up after an election, refused in this view, or a follower
    // ring momentarily full: retry from the poller, still bound by any
    // permissibility deadline.
    LeaderQueue[G].push_back({std::move(C), Origin, WaitDeadline,
                              std::nullopt});
    return false;
  }

  // Speculative permissibility: the call must keep the invariant after
  // every call of this group accepted here and not yet applied.
  const ObjectState &S = Hooks.Visible();
  Call Prepared = Type.prepare(S, C);
  if (!Type.invariantAfter(S, Speculative[G], Prepared)) {
    // Not (yet) permissible. A dependent call may become permissible once
    // its dependencies are delivered (e.g. worksOn waiting for its
    // addProject), so hold it briefly before rejecting -- this wait is
    // what makes dependent methods slower in Figure 11(b).
    sim::SimTime Now = Fabric.now();
    if (WaitDeadline == 0) {
      WaitDeadline = Now + Cfg.PermissibilityWait;
      CtrParked->add();
    }
    if (Now >= WaitDeadline) {
      endWait(WaitDeadline);
      answer(Origin, Id, ConfOutcome::Rejected);
    } else {
      LeaderQueue[G].push_back({std::move(C), Origin, WaitDeadline, viewOf(G)});
    }
    return true;
  }

  // The leader becomes the issuing process of the ordered call (the
  // request id keeps end-to-end identity for deduplication).
  Prepared.Issuer = Self;
  WireCall WC{Prepared, projectDeps(Spec, Applied, Prepared.Method),
              Mu.nextIndex(), Members.Epoch};
  std::vector<std::uint8_t> Entry = encodeCall(Spec, Fabric.numNodes(), WC);
  if (Entry.size() > Cfg.ConfGeom.maxPayload()) {
    // A log entry is one L-ring cell; an entry that cannot fit is refused
    // like an impermissible call instead of being posted.
    CtrOversizeReject->add();
    endWait(WaitDeadline);
    answer(Origin, Id, ConfOutcome::Rejected);
    return true;
  }
  // Accepted: the call holds its dedup id and speculative entry from here
  // on, so the calls judged after it see it.
  Seen[G].insert(Id);
  updateDedupGauge();
  Speculative[G].push_back(Prepared);
  std::vector<AcceptedCall> &List = Accepted[G];
  List.push_back({{std::move(C), Origin, WaitDeadline, std::nullopt},
                  std::move(WC),
                  std::move(Entry)});
  if (!Cfg.Batch.Enabled) {
    appendAccepted(G);
  } else if (List.size() == 1) {
    // The append takes the lane slot this call's posts would have taken;
    // every call accepted before it runs joins its entry.
    Fabric.runOnCpu(
        Self, 0, [this, G]() { appendAccepted(G); },
        rdma::Transport::LaneClient);
  }
  return true;
}

void ConfChannel::appendAccepted(unsigned G) {
  std::vector<AcceptedCall> Calls = std::move(Accepted[G]);
  Accepted[G].clear();
  MuConsensus &Mu = *Consensus[G];
  const std::size_t MaxEntry = Cfg.ConfGeom.maxPayload();
  std::size_t Next = 0;
  while (Next < Calls.size() && Mu.canAppend()) {
    // Pack the next entry: as many calls, in judging order, as the batch
    // framing fits into one cell (a lone call fits: it was size-checked).
    std::uint64_t Index = Mu.nextIndex();
    std::size_t End = Next;
    std::size_t Framed = 4; // u16 marker | u16 count
    for (; End < Calls.size(); ++End) {
      AcceptedCall &A = Calls[End];
      if (A.WC.BcastSeq != Index) {
        A.WC.BcastSeq = Index;
        A.Entry = encodeCall(Spec, Fabric.numNodes(), A.WC);
      }
      if (End > Next && Framed + 4 + A.Entry.size() > MaxEntry)
        break;
      Framed += 4 + A.Entry.size();
    }
    std::vector<std::uint8_t> Entry;
    std::vector<std::pair<ProcessId, RequestId>> Answers;
    if (End - Next == 1) {
      Entry = std::move(Calls[Next].Entry);
    } else {
      std::vector<std::vector<std::uint8_t>> Encoded;
      for (std::size_t I = Next; I < End; ++I)
        Encoded.push_back(std::move(Calls[I].Entry));
      Entry = encodeCallBatch(Encoded);
    }
    for (std::size_t I = Next; I < End; ++I)
      Answers.emplace_back(Calls[I].Parked.Origin, Calls[I].WC.TheCall.Req);
    bool Posted = Mu.leaderAppend(
        std::move(Entry),
        [this, G, Answers = std::move(Answers),
         Term = Mu.epoch()](bool Committed) {
          // A commit of this view reached the delivery hook first. One that
          // lands after this node was deposed is in no log copy here: the
          // new leader's log decides the entry's fate. An append refused
          // in this view is in no log this node knows of, so its dedup
          // entries go too.
          bool InView = Consensus[G]->epoch() == Term;
          if (!Committed && InView) {
            for (const auto &[Origin, Id] : Answers)
              Seen[G].erase(Id);
            updateDedupGauge();
          }
          for (const auto &[Origin, Id] : Answers)
            answer(Origin, Id,
                   Committed && InView ? ConfOutcome::Committed
                                       : ConfOutcome::Retry);
        });
    assert(Posted && "canAppend() was checked above");
    (void)Posted;
    for (std::size_t I = Next; I < End; ++I)
      endWait(Calls[I].Parked.WaitDeadline);
    CtrCoalesced->add(End - Next - 1);
    // Sequencing an entry occupies the leader beyond the raw verb posts.
    Fabric.runOnCpu(Self, Fabric.model().ConsensusEntryCpu, []() {},
                    rdma::Transport::LaneClient);
    Next = End;
  }
  if (Next < Calls.size())
    refuseAccepted(G, Calls, Next);
}

void ConfChannel::refuseAccepted(unsigned G, std::vector<AcceptedCall> &Calls,
                                 std::size_t From) {
  // Deposed, catching up or a follower ring full since the calls were
  // judged: they are in no log, so undo their acceptance newest first
  // (a deposition already cleared the speculative window) and park them
  // as if the instance had refused them at judging.
  for (std::size_t I = Calls.size(); I-- > From;) {
    const Call &Withdrawn = Calls[I].WC.TheCall;
    Seen[G].erase(Withdrawn.Req);
    if (!Speculative[G].empty() && Speculative[G].back() == Withdrawn)
      Speculative[G].pop_back();
    LeaderQueue[G].push_front(std::move(Calls[I].Parked));
  }
  updateDedupGauge();
}

unsigned ConfChannel::retryQueue(unsigned G) {
  if (LeaderQueue[G].empty())
    return 0;
  std::deque<Queued> Snapshot;
  Snapshot.swap(LeaderQueue[G]);
  if (knownLeader(G) != Self) {
    // Deposed: bounce every parked call so its origin retries against the
    // new leader.
    for (Queued &Q : Snapshot)
      answer(Q.Origin, Q.TheCall.Req, ConfOutcome::Retry);
    return 0;
  }
  // One pass per poll round; calls that still cannot proceed park again
  // (with their original wait deadline). A verdict of "impermissible"
  // stands until the view it read moves (an append, one earlier in this
  // pass included, or any change to Apply(S)(σ)); at the deadline it is
  // final.
  unsigned Rechecks = 0;
  for (Queued &Q : Snapshot) {
    if (!Q.JudgedAt || *Q.JudgedAt != viewOf(G)) {
      Rechecks += sequence(G, Q.Origin, std::move(Q.TheCall), Q.WaitDeadline);
    } else if (Fabric.now() < Q.WaitDeadline) {
      LeaderQueue[G].push_back(std::move(Q));
    } else {
      endWait(Q.WaitDeadline);
      answer(Q.Origin, Q.TheCall.Req, ConfOutcome::Rejected);
    }
  }
  CtrRechecks->add(Rechecks);
  return Rechecks;
}

void ConfChannel::endWait(sim::SimTime Deadline) {
  // The wait began PermissibilityWait before its deadline.
  if (Deadline != 0)
    HistParkNs->record(Fabric.now() - (Deadline - Cfg.PermissibilityWait));
}

void ConfChannel::answer(ProcessId Origin, RequestId Id,
                         ConfOutcome Outcome) {
  if (Origin == Self) {
    onAnswer(Self, Id, Outcome);
    return;
  }
  MailMsg Msg;
  Msg.Kind = MailKind::ConfResponse;
  Msg.ReqId = Id;
  Msg.Ok = static_cast<std::uint8_t>(Outcome);
  mail(Origin, std::move(Msg));
}

void ConfChannel::updateDedupGauge() {
  std::size_t Bytes = 0;
  for (const RequestIdSet &S : Seen)
    Bytes += S.bytes();
  GaugeDedupBytes->set(static_cast<std::int64_t>(Bytes));
}

// -- Poller ------------------------------------------------------------------

unsigned ConfChannel::pollLog() {
  unsigned Parsed = 0;
  for (auto &Mu : Consensus)
    Parsed += Mu->pollLog();
  return Parsed;
}

void ConfChannel::receiveMail(rdma::NodeId From, const std::uint8_t *Data,
                              std::size_t Len) {
  MailMsg Msg;
  if (!decodeMail(Data, Len, Msg))
    return;
  if (Msg.Kind == MailKind::ConfResponse)
    onAnswer(From, Msg.ReqId, static_cast<ConfOutcome>(Msg.Ok));
  else
    Inbox.emplace_back(From, std::move(Msg));
}

void ConfChannel::judgeInbox(bool InService) {
  if (InService)
    for (auto &[From, Msg] : std::exchange(Inbox, {}))
      judgeMailed(From, std::move(Msg));
}

void ConfChannel::judgeMailed(ProcessId Origin, MailMsg Msg) {
  if (Msg.Epoch != Members.Epoch) {
    // Sent under another membership epoch: the origin re-resolves the
    // leader under its installed epoch.
    CtrCrossEpochDrop->add();
    answer(Origin, Msg.ReqId, ConfOutcome::Retry);
    return;
  }
  if (Spec.category(Msg.TheCall.Method) != MethodCategory::Conflicting)
    return;
  // The leader flushes its own pending batch so the ordered entry never
  // overtakes this node's earlier unshipped calls.
  Hooks.Flush();
  sequence(groupOf(Msg.TheCall), Origin, std::move(Msg.TheCall), 0);
}

void ConfChannel::deliver(unsigned G, std::uint64_t Index,
                          std::vector<WireCall> Calls) {
  // Delivered entries count as seen, so a client retry of an already
  // committed request is answered without re-appending it.
  for (const WireCall &WC : Calls)
    Seen[G].insert(WC.TheCall.Req);
  updateDedupGauge();
  std::size_t N = Calls.size();
  if (Pending[G].emplace(Index, std::move(Calls)).second)
    PendingCalls += N;
}

unsigned ConfChannel::applyPending() {
  unsigned AppliedN = 0;
  for (unsigned G = 0; G < Pending.size(); ++G) {
    auto &M = Pending[G];
    std::size_t &Pos = AppliedInEntry[G];
    for (auto It = M.find(AppliedIdx[G]); It != M.end();
         It = M.find(AppliedIdx[G])) {
      // An entry's calls apply in order; one whose dependencies are not
      // yet satisfied stalls the rest of the entry and the log behind it.
      const std::vector<WireCall> &Calls = It->second;
      for (; Pos < Calls.size() && depsSatisfied(Applied, Calls[Pos].Deps);
           ++Pos) {
        const Call &C = Calls[Pos].TheCall;
        --PendingCalls;
        if (Calls[Pos].Epoch != Members.Epoch) {
          // Delivered before an epoch install that the drain stage should
          // have flushed; counted so the reconfig oracles can assert it
          // never happens.
          CtrCrossEpochApply->add();
          continue;
        }
        Hooks.Apply(C);
        logApplied(C);
        if (C.Issuer == Self && !Speculative[G].empty() &&
            Speculative[G].front() == C)
          Speculative[G].pop_front();
        ++AppliedN;
      }
      if (Pos < Calls.size())
        break;
      M.erase(It);
      ++AppliedIdx[G];
      Pos = 0;
    }
    if (M.count(AppliedIdx[G]))
      CtrDepStall->add();
  }
  return AppliedN;
}

unsigned ConfChannel::poll() {
  unsigned Rechecks = 0;
  for (unsigned G = 0; G < Consensus.size(); ++G) {
    Consensus[G]->poll();
    Rechecks += retryQueue(G);
  }
  if (std::exchange(LeaderMoved, false)) {
    // A view change is what moves a call to the new leader, in
    // request-id order (a client numbers its calls in submission order).
    std::vector<RequestId> Moved;
    for (const auto &[Id, R] : Requests)
      if (R.SentTo != knownLeader(groupOf(R.TheCall)))
        Moved.push_back(Id);
    std::sort(Moved.begin(), Moved.end());
    for (RequestId Id : Moved)
      route(Id);
  }
  return Rechecks;
}

void ConfChannel::onPeerSuspected(rdma::NodeId Peer) {
  for (auto &Mu : Consensus)
    Mu->onPeerSuspected(Peer);
}

// -- Membership reconfiguration ----------------------------------------------

void ConfChannel::importLog(const std::vector<std::uint64_t> &Next) {
  AppliedIdx = Next;
  AppliedInEntry.assign(AppliedIdx.size(), 0);
}

void ConfChannel::installMembership(const std::vector<std::uint64_t> &Next) {
  for (unsigned G = 0; G < Consensus.size(); ++G)
    Consensus[G]->adoptLeadership(Members.Epoch, homeLeader(G), Next[G]);
}

void ConfChannel::logApplied(const Call &C) {
  if (Cfg.RecordApplyLog)
    Log[groupOf(C)].push_back({C.Issuer, C.Req});
}

// -- Introspection -----------------------------------------------------------

void ConfChannel::digest(
    const std::function<void(std::uint64_t)> &Mix) const {
  for (unsigned G = 0; G < Consensus.size(); ++G) {
    Mix(AppliedIdx[G]);
    Mix(AppliedInEntry[G]);
    Mix(Consensus[G]->logHead());
    Mix(Pending[G].size());
    Mix(LeaderQueue[G].size());
    Mix(Accepted[G].size());
    Mix(Speculative[G].size());
    Mix(knownLeader(G));
  }
  Mix(Inbox.size());
  Mix(Requests.size());
}
