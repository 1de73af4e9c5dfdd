//===- hamband/runtime/ConfChannel.h - Conflicting-call path ----*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conflicting-call path of Section 4: each call goes to its
/// synchronization group's Mu leader, which orders it and answers
/// "committed", "rejected" or "retry". One request table holds every call
/// submitted at the node; a call at the leader skips only the mail hop,
/// and its answer reaches the handler of a ConfResponse mail, where
/// "retry" or a view change re-routes it. Mail rides the node's F ring
/// toward the peer, behind the free calls and summary frames posted
/// before it. The node owns A, its installed membership, the stored
/// state, the visible cache and the F rings; the channel reads A and the
/// membership and reaches the rest through five hooks.
///
/// A log entry is one L-ring cell holding one call, or, with batching on,
/// the calls the leader accepted within one client-lane burst
/// (docs/batching.md): the append of an accepted call waits only for the
/// lane slot its posts would have taken anyway.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_CONFCHANNEL_H
#define HAMBAND_RUNTIME_CONFCHANNEL_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Metrics.h"
#include "hamband/runtime/HeartbeatDetector.h"
#include "hamband/runtime/MuConsensus.h"
#include "hamband/runtime/Reconfig.h"
#include "hamband/runtime/RequestIdSet.h"
#include "hamband/runtime/Runtime.h"
#include "hamband/runtime/WireFormat.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

namespace hamband {
namespace runtime {

struct HambandConfig;

/// One node's conflicting calls, from submission to apply.
class ConfChannel {
public:
  struct NodeHooks {
    /// Apply(S)(σ) at this node.
    std::function<const ObjectState &()> Visible;
    /// A version of Apply(S)(σ) that moves whenever it changes.
    std::function<std::uint64_t()> ViewVersion;
    /// Applies one ordered call to the stored state and A.
    std::function<void(const Call &)> Apply;
    /// Ships the pending flush, so earlier calls precede an ordered one.
    std::function<void()> Flush;
    /// Appends an encodeMail record to the F ring toward a peer.
    std::function<void(rdma::NodeId, std::vector<std::uint8_t>)> Post;
  };
  /// Per group, the (issuer, request) sequence this node applied.
  using ApplyLog = std::vector<std::vector<std::pair<ProcessId, RequestId>>>;

  /// \p Members is the node's installed membership, read on every use.
  /// Group g's home leader is the first active node from
  /// (g + \p LeaderOffset) % N; a keyed cluster offsets each shard so
  /// shard leaders spread across the nodes.
  ConfChannel(rdma::Transport &Fabric, rdma::NodeId Self,
              const ObjectType &Type, const MemoryMap &Map,
              const HambandConfig &Cfg,
              const std::vector<rdma::RegionKey> &ConfKeys,
              const Membership &Members, unsigned LeaderOffset,
              const std::vector<std::vector<std::uint64_t>> &Applied,
              const HeartbeatDetector &Detector, obs::Registry &Stats,
              NodeHooks Hooks);

  /// Records a client call in the request table, then orders it here (this
  /// node leads its group) or mails it to the leader. A request id that is
  /// still outstanding here is not sent again: \p Done joins its answer.
  void submit(const Call &C, SubmitCallback Done);

  /// Takes mail \p From wrote on its F ring: an answer is handled at
  /// once, a request waits in the inbox for judgeInbox.
  void receiveMail(rdma::NodeId From, const std::uint8_t *Data,
                   std::size_t Len);

  // Poller steps, in poll order. pollLog returns entries parsed and
  // applyPending calls applied.
  unsigned pollLog();
  /// Judges the inbox's requests, unless the node is not \p InService.
  void judgeInbox(bool InService);
  unsigned applyPending();
  /// Consensus polls, leader retry queues and view-change re-routes;
  /// returns how many parked calls it judged again (the node bills each
  /// one ApplyCpu).
  unsigned poll();
  /// Checks a poll round makes here, each billed one PollCpu: every
  /// group's L ring and its consensus slots.
  unsigned pollChecks() const {
    return 2 * static_cast<unsigned>(Consensus.size());
  }

  void onPeerSuspected(rdma::NodeId Peer);

  // Membership reconfiguration (docs/reconfig.md).
  /// Resumes every group's log at \p Next (a joiner's state transfer).
  void importLog(const std::vector<std::uint64_t> &Next);
  /// Hands group g to its leader under the newly installed membership at
  /// log index \p Next[g].
  void installMembership(const std::vector<std::uint64_t> &Next);
  /// Records \p C in the apply log (under Cfg.RecordApplyLog).
  void logApplied(const Call &C);

  // Introspection (tests, metrics, the node's digests).
  rdma::NodeId knownLeader(unsigned G) const {
    return Consensus[G]->currentLeader();
  }
  MuConsensus *consensus(unsigned G) { return Consensus[G].get(); }
  /// Contiguously received L-ring position of \p G; drained members agree
  /// on it (docs/reconfig.md).
  std::uint64_t receivedContig(unsigned G) const {
    std::uint64_t R = AppliedIdx[G];
    while (Pending[G].count(R))
      ++R;
    return R;
  }
  /// Delivered calls not yet applied (calls, not entries).
  std::size_t pendingTotal() const { return PendingCalls; }
  /// Calls parked at the leader, plus those accepted and not yet appended.
  std::size_t leaderQueueTotal() const {
    return total(LeaderQueue) + total(Accepted);
  }
  std::size_t requestCount() const { return Requests.size(); }
  bool idle() const {
    return pendingTotal() == 0 && leaderQueueTotal() == 0 && Requests.empty();
  }
  /// True while calls this node accepted are unapplied.
  bool speculating() const { return total(Speculative) != 0; }
  /// The speculative window of \p G: accepted calls not yet applied.
  const std::deque<Call> &speculative(unsigned G) const {
    return Speculative[G];
  }
  /// Whether \p G's dedup set holds request \p Id.
  bool deduplicates(unsigned G, RequestId Id) const {
    return Seen[G].count(Id);
  }
  const ApplyLog &applyLog() const { return Log; }
  void digest(const std::function<void(std::uint64_t)> &Mix) const;

private:
  /// Rejected is terminal for the client; Retry means this node cannot
  /// decide (deposed, or the epoch changed).
  enum class ConfOutcome : std::uint8_t { Rejected, Committed, Retry };
  /// A call submitted here, until answered by the node it was last sent to.
  struct Request {
    Call TheCall;
    SubmitCallback Done;
    rdma::NodeId SentTo = 0;
  };
  /// What a permissibility judgement in a group reads: Apply(S)(σ) and
  /// the group's speculative window, which moves with its log position.
  struct ViewStamp {
    std::uint64_t Version = 0;
    std::uint64_t LogPos = 0;
    bool operator==(const ViewStamp &) const = default;
  };
  /// A call parked at the leader. WaitDeadline ends its permissibility
  /// wait (0: never judged impermissible). A call judged impermissible
  /// keeps the view it was judged against and is judged again only once
  /// that view moves; at its deadline an unchanged view rejects it. A call
  /// parked because the instance cannot append (no JudgedAt) is retried
  /// every poll round.
  struct Queued {
    Call TheCall;
    ProcessId Origin = 0;
    sim::SimTime WaitDeadline = 0;
    std::optional<ViewStamp> JudgedAt;
  };
  /// A call the leader judged and accepted, not yet appended. Its dedup id
  /// and speculative entry are in place; Entry is its encodeCall bytes at
  /// index WC.BcastSeq.
  struct AcceptedCall {
    Queued Parked; // As judged: what a refused append parks again.
    WireCall WC;
    std::vector<std::uint8_t> Entry;
  };

  template <typename T> static std::size_t total(const std::vector<T> &V) {
    std::size_t N = 0;
    for (const T &X : V)
      N += X.size();
    return N;
  }
  unsigned groupOf(const Call &C) const { return *Spec.syncGroup(C.Method); }
  rdma::NodeId homeLeader(unsigned G) const;
  /// Orders \p C here (\p Leader is this node) or mails it to \p Leader.
  void dispatch(rdma::NodeId Leader, Call C);
  void mail(rdma::NodeId To, MailMsg Msg);
  /// Sends request \p Id to its group's current leader.
  void route(RequestId Id);
  /// Leader side of a ConfRequest mail: orders or answers its call.
  void judgeMailed(ProcessId Origin, MailMsg Msg);
  /// Leader side: appends \p C for \p Origin, parks it, or answers.
  /// Returns true when it judged the call's permissibility.
  bool sequence(unsigned G, ProcessId Origin, Call C,
                sim::SimTime WaitDeadline);
  /// Appends \p G's accepted calls, in judging order, as entries of at
  /// most one L-ring cell each; parks again the calls the instance refuses.
  void appendAccepted(unsigned G);
  /// Withdraws \p Calls from \p From on, whose append was refused -- the
  /// newest accepted calls -- from the dedup set and the speculative
  /// window, and parks them at the head of the retry queue in judging
  /// order.
  void refuseAccepted(unsigned G, std::vector<AcceptedCall> &Calls,
                      std::size_t From);
  /// Judges again the parked calls whose view moved; returns how many.
  unsigned retryQueue(unsigned G);
  /// The log position counts accepted calls too: the speculative window
  /// holds them before their entry is appended.
  ViewStamp viewOf(unsigned G) const {
    return {Hooks.ViewVersion(),
            Consensus[G]->nextIndex() + Accepted[G].size()};
  }
  /// Ends the permissibility wait that runs out at \p Deadline (0: the
  /// call never waited) when its call is appended or rejected.
  void endWait(sim::SimTime Deadline);
  void answer(ProcessId Origin, RequestId Id, ConfOutcome Outcome);
  /// Sets node.conf.dedup_bytes after a change to a dedup set.
  void updateDedupGauge();
  /// Origin side: completes request \p Id, or re-routes it on Retry.
  void onAnswer(rdma::NodeId From, RequestId Id, ConfOutcome Outcome);
  /// The one insert into the pending log, called from the instance's
  /// delivery hook: ring-read, caught-up and self-committed entries alike.
  void deliver(unsigned G, std::uint64_t Index, std::vector<WireCall> Calls);

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  const ObjectType &Type;
  const CoordinationSpec &Spec;
  const HambandConfig &Cfg;
  const Membership &Members;
  unsigned LeaderOffset;
  const std::vector<std::vector<std::uint64_t>> &Applied;
  NodeHooks Hooks;

  std::vector<std::unique_ptr<MuConsensus>> Consensus; // [group]
  // Per group: delivered entries awaiting apply, by index, each a list of
  // calls; the next index to apply and the calls of that entry already
  // applied; requests delivered or accepted here, minus appends refused
  // in their view (dedup; exact, since a rejected id may come back);
  // calls accepted here and not yet applied (speculative
  // permissibility); calls waiting to be judged; calls accepted and
  // waiting for their append.
  std::vector<std::map<std::uint64_t, std::vector<WireCall>>> Pending;
  std::size_t PendingCalls = 0;
  std::vector<std::uint64_t> AppliedIdx;
  std::vector<std::size_t> AppliedInEntry;
  std::vector<RequestIdSet> Seen;
  std::vector<std::deque<Call>> Speculative;
  std::vector<std::deque<Queued>> LeaderQueue;
  std::vector<std::vector<AcceptedCall>> Accepted;
  std::unordered_map<RequestId, Request> Requests;
  bool LeaderMoved = false; // Since the last poll round's re-route.
  /// Mailed requests and their origins, not yet judged.
  std::vector<std::pair<ProcessId, MailMsg>> Inbox;
  ApplyLog Log;

  obs::Counter *CtrDepStall = nullptr;
  obs::Counter *CtrCrossEpochDrop = nullptr;
  obs::Counter *CtrCrossEpochApply = nullptr;
  obs::Counter *CtrOversizeReject = nullptr;
  obs::Counter *CtrParked = nullptr;
  obs::Counter *CtrRechecks = nullptr;
  /// Calls appended behind another call of the same entry.
  obs::Counter *CtrCoalesced = nullptr;
  obs::Histogram *HistParkNs = nullptr;
  obs::Gauge *GaugeDedupBytes = nullptr;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_CONFCHANNEL_H
