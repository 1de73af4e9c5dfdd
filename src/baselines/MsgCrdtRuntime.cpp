//===- baselines/MsgCrdtRuntime.cpp - MSG CRDT baseline ----------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/baselines/MsgCrdtRuntime.h"

#include <cassert>
#include <cstring>

using namespace hamband;
using namespace hamband::baselines;
using hamband::runtime::WireCall;

namespace {
/// Message kinds on the wire.
constexpr std::uint8_t MsgOp = 0;
constexpr std::uint8_t MsgAck = 1;
} // namespace

MsgCrdtRuntime::MsgCrdtRuntime(sim::Simulator &Sim, unsigned NumNodes,
                               const ObjectType &Type,
                               rdma::NetworkModel Model)
    : Type(Type), Spec(Type.coordination()), Failed(NumNodes, false) {
  assert(NumNodes <= 16 && "Replica::Pending is sized for 16 nodes");
  assert(Spec.numSyncGroups() == 0 &&
         "the MSG baseline supports conflict-free types only");
  // A tiny region suffices; the MSG baseline never uses one-sided verbs.
  Fab = std::make_unique<rdma::Fabric>(Sim, NumNodes, Model, 1u << 16);
  for (unsigned N = 0; N < NumNodes; ++N) {
    auto R = std::make_unique<Replica>();
    R->Stored = Type.initialState();
    R->Applied.assign(NumNodes,
                      std::vector<std::uint64_t>(Type.numMethods(), 0));
    Replicas.push_back(std::move(R));
  }
}

MsgCrdtRuntime::~MsgCrdtRuntime() = default;

void MsgCrdtRuntime::start() {
  for (rdma::NodeId N = 0; N < numNodes(); ++N)
    Fab->setRecvHandler(N, [this, N](rdma::NodeId Src,
                                     const std::vector<std::uint8_t> &Msg) {
      onMessage(N, Src, Msg);
    });
}

const ObjectState &MsgCrdtRuntime::state(rdma::NodeId Node) const {
  return *Replicas[Node]->Stored;
}

std::uint64_t MsgCrdtRuntime::applied(rdma::NodeId Node, ProcessId From,
                                      MethodId U) const {
  return Replicas[Node]->Applied[From][U];
}

void MsgCrdtRuntime::submit(rdma::NodeId Origin, const Call &C,
                            runtime::SubmitCallback Done) {
  assert(Origin < numNodes());
  Replica &R = *Replicas[Origin];
  const rdma::NetworkModel &M = Fab->model();

  if (Spec.category(C.Method) == MethodCategory::Query) {
    Fab->runOnCpu(
        Origin, M.QueryCpu,
        [this, Origin, C, Done = std::move(Done)]() {
          Value V = Type.query(*Replicas[Origin]->Stored, C);
          Done(true, V);
        },
        rdma::Fabric::LaneClient);
    return;
  }

  ++Outstanding;
  Fab->runOnCpu(
      Origin, 2 * M.ApplyCpu,
      [this, Origin, C, Done = std::move(Done), &R]() mutable {
        Call P = Type.prepare(*R.Stored, C);
        if (!Type.permissible(*R.Stored, P)) {
          --Outstanding;
          Done(false, 0);
          return;
        }
        Type.apply(*R.Stored, P);
        R.Applied[Origin][P.Method] += 1;

        WireCall WC;
        WC.TheCall = P;
        WC.Deps = runtime::projectDeps(Spec, R.Applied, P.Method);
        WC.BcastSeq = R.SeqOut++;

        unsigned Peers = numNodes() - 1;
        if (Peers == 0) {
          --Outstanding;
          Done(true, 0);
          return;
        }
        R.AwaitingAcks.emplace(
            WC.BcastSeq,
            std::make_pair(Peers,
                           [this, Done = std::move(Done)](bool Ok,
                                                          Value V) {
                             --Outstanding;
                             Done(Ok, V);
                           }));

        std::vector<std::uint8_t> Body =
            encodeCall(Spec, numNodes(), WC);
        std::vector<std::uint8_t> Msg(1 + 8 + Body.size());
        Msg[0] = MsgOp;
        std::memcpy(Msg.data() + 1, &WC.BcastSeq, 8);
        std::memcpy(Msg.data() + 9, Body.data(), Body.size());
        for (rdma::NodeId Peer = 0; Peer < numNodes(); ++Peer)
          if (Peer != Origin)
            Fab->send(Origin, Peer, Msg, nullptr,
                      rdma::Fabric::LaneClient);
      },
      rdma::Fabric::LaneClient);
}

void MsgCrdtRuntime::onMessage(rdma::NodeId Dst, rdma::NodeId Src,
                               const std::vector<std::uint8_t> &Msg) {
  if (Msg.empty())
    return;
  Replica &R = *Replicas[Dst];
  if (Msg[0] == MsgAck) {
    std::uint64_t Seq = 0;
    std::memcpy(&Seq, Msg.data() + 1, 8);
    auto It = R.AwaitingAcks.find(Seq);
    if (It == R.AwaitingAcks.end())
      return;
    if (--It->second.first == 0) {
      runtime::SubmitCallback Done = std::move(It->second.second);
      R.AwaitingAcks.erase(It);
      Done(true, 0);
    }
    return;
  }

  // An op: decode, enqueue in issuer order, apply what is enabled, ack.
  std::uint64_t Seq = 0;
  std::memcpy(&Seq, Msg.data() + 1, 8);
  WireCall WC;
  if (!decodeCall(Spec, numNodes(), Msg.data() + 9, Msg.size() - 9, WC))
    return;
  R.Pending[Src].push_back(std::move(WC));
  applyPending(Dst);

  std::vector<std::uint8_t> Ack(9);
  Ack[0] = MsgAck;
  std::memcpy(Ack.data() + 1, &Seq, 8);
  Fab->send(Dst, Src, std::move(Ack), nullptr, rdma::Fabric::LanePoller);
}

void MsgCrdtRuntime::applyPending(rdma::NodeId Node) {
  Replica &R = *Replicas[Node];
  const rdma::NetworkModel &M = Fab->model();
  bool Progress = true;
  unsigned AppliedN = 0;
  while (Progress) {
    Progress = false;
    for (unsigned Src = 0; Src < numNodes(); ++Src) {
      auto &Q = R.Pending[Src];
      while (!Q.empty() && runtime::depsSatisfied(R.Applied, Q.front().Deps)) {
        const Call &C = Q.front().TheCall;
        Type.apply(*R.Stored, C);
        R.Applied[C.Issuer][C.Method] += 1;
        Q.pop_front();
        ++AppliedN;
        Progress = true;
      }
    }
  }
  if (AppliedN)
    Fab->runOnCpu(Node, AppliedN * M.ApplyCpu, []() {},
                  rdma::Fabric::LanePoller);
}

std::uint64_t MsgCrdtRuntime::replicationBacklog() const {
  std::uint64_t Backlog = 0;
  for (unsigned From = 0; From < numNodes(); ++From) {
    for (MethodId U = 0; U < Type.numMethods(); ++U) {
      std::uint64_t MaxSeen = 0;
      for (const auto &R : Replicas)
        MaxSeen = std::max(MaxSeen, R->Applied[From][U]);
      for (const auto &R : Replicas)
        Backlog += MaxSeen - R->Applied[From][U];
    }
  }
  return Backlog;
}

bool MsgCrdtRuntime::fullyReplicated() const {
  if (Outstanding != 0)
    return false;
  for (const auto &R : Replicas) {
    for (unsigned Src = 0; Src < numNodes(); ++Src)
      if (!R->Pending[Src].empty())
        return false;
    if (R->Applied != Replicas[0]->Applied)
      return false;
  }
  return true;
}
