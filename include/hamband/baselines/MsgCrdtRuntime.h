//===- hamband/baselines/MsgCrdtRuntime.h - MSG CRDT baseline ---*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The message-passing op-based CRDT baseline ("MSG") of Section 5. Each
/// update is prepared and applied at the issuing replica, then shipped to
/// every peer as a two-sided message through the (simulated) kernel
/// network stack; peers acknowledge receipt and the call completes at the
/// issuer once all acks arrive. Dependency maps piggyback on the messages
/// exactly as in Hamband so delivery stays causal where the type needs it.
///
/// Only conflict-free object types are supported (the paper's MSG baseline
/// appears in the CRDT experiments, Figures 8 and 9).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BASELINES_MSGCRDTRUNTIME_H
#define HAMBAND_BASELINES_MSGCRDTRUNTIME_H

#include "hamband/rdma/Fabric.h"
#include "hamband/runtime/Runtime.h"
#include "hamband/runtime/WireFormat.h"

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

namespace hamband {
namespace baselines {

/// The MSG deployment: one op-based CRDT replica per node over two-sided
/// messaging.
class MsgCrdtRuntime : public runtime::ReplicaRuntime {
public:
  MsgCrdtRuntime(sim::Simulator &Sim, unsigned NumNodes,
                 const ObjectType &Type,
                 rdma::NetworkModel Model = rdma::NetworkModel());
  ~MsgCrdtRuntime() override;

  void start();

  unsigned numNodes() const override {
    return static_cast<unsigned>(Replicas.size());
  }
  rdma::Transport &transport() override { return *Fab; }
  rdma::Fabric &fabric() { return *Fab; }
  const ObjectType &objectType() const override { return Type; }
  void submit(rdma::NodeId Origin, const Call &C,
              runtime::SubmitCallback Done) override;
  bool fullyReplicated() const override;
  void injectFailure(rdma::NodeId Node) override { Failed[Node] = true; }
  bool isFailed(rdma::NodeId Node) const override { return Failed[Node]; }
  rdma::NodeId leaderOf(unsigned, rdma::NodeId) const override {
    return 0; // No synchronization groups in the MSG baseline.
  }
  std::uint64_t replicationBacklog() const override;

  /// Test/bench introspection.
  const ObjectState &state(rdma::NodeId Node) const;
  std::uint64_t applied(rdma::NodeId Node, ProcessId From,
                        MethodId U) const;

private:
  struct Replica {
    StatePtr Stored;
    std::vector<std::vector<std::uint64_t>> Applied; // [proc][method]
    std::deque<runtime::WireCall> Pending[16];       // per issuer (<=16)
    std::uint64_t SeqOut = 0;
    /// Outstanding local updates awaiting acks: seq -> (#acks, callback).
    std::unordered_map<std::uint64_t,
                       std::pair<unsigned, runtime::SubmitCallback>>
        AwaitingAcks;
  };

  void onMessage(rdma::NodeId Dst, rdma::NodeId Src,
                 const std::vector<std::uint8_t> &Msg);
  void applyPending(rdma::NodeId Node);

  const ObjectType &Type;
  const CoordinationSpec &Spec;
  std::unique_ptr<rdma::Fabric> Fab;
  std::vector<std::unique_ptr<Replica>> Replicas;
  std::vector<bool> Failed;
  std::uint64_t Outstanding = 0;
};

} // namespace baselines
} // namespace hamband

#endif // HAMBAND_BASELINES_MSGCRDTRUNTIME_H
