//===- rdma/Fabric.cpp - Simulated RDMA fabric ----------------------------==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/rdma/Fabric.h"

#include <cassert>
#include <deque>

using namespace hamband;
using namespace hamband::rdma;

namespace {
/// Key identifying a (writer, region) permission entry.
using PermKey = std::pair<NodeId, RegionKey>;
} // namespace

/// One lane's completion queue. A CQE waits here from its arrival until a
/// poll on the lane reaps it.
struct Fabric::CompletionQueue {
  struct Entry {
    sim::SimTime Arrived;
    std::function<void()> Fn;
  };
  std::deque<Entry> Entries;
  /// Polls scheduled on the lane that have not run yet, and the start time
  /// of the latest one. Every queued CQE arrived by that start.
  unsigned PollsPending = 0;
  sim::SimTime LastPollStart = 0;
};

struct Fabric::NodeCtx {
  explicit NodeCtx(std::size_t MemBytes) : Mem(MemBytes) {}

  MemoryRegion Mem;
  bool Alive = true;
  sim::SimTime CpuFreeAt[Fabric::NumCpuLanes] = {};
  CompletionQueue Cq[Fabric::NumCpuLanes];
  RecvHandler OnRecv;
  /// Explicit permission entries; absence means "allowed".
  std::map<PermKey, bool> WritePerm;
};

Fabric::Fabric(sim::Simulator &Sim, unsigned NumNodes, NetworkModel Model,
               std::size_t MemBytesPerNode)
    : Sim(Sim), Model(Model) {
  assert(NumNodes >= 1 && "a cluster needs at least one node");
  Nodes.reserve(NumNodes);
  for (unsigned I = 0; I < NumNodes; ++I)
    Nodes.push_back(std::make_unique<NodeCtx>(MemBytesPerNode));
  ChannelLast.assign(static_cast<std::size_t>(NumNodes) * NumNodes, 0);
}

Fabric::~Fabric() = default;

void Fabric::setObs(obs::Registry &R) {
  CtrWrite = &R.counter("rdma.write");
  CtrRead = &R.counter("rdma.read");
  CtrSend = &R.counter("rdma.send");
  CtrBytes = &R.counter("rdma.bytes_written");
  HistWireNs = &R.histogram("rdma.wire_ns");
  CtrCqPolls = &R.counter("rdma.cq_polls");
  HistCqesPerPoll = &R.histogram("rdma.cqes_per_poll");
}

Fabric::NodeCtx &Fabric::node(NodeId Id) {
  assert(Id < Nodes.size() && "node id out of range");
  return *Nodes[Id];
}

const Fabric::NodeCtx &Fabric::node(NodeId Id) const {
  assert(Id < Nodes.size() && "node id out of range");
  return *Nodes[Id];
}

MemoryRegion &Fabric::memory(NodeId Node) { return node(Node).Mem; }

const MemoryRegion &Fabric::memory(NodeId Node) const {
  return node(Node).Mem;
}

sim::SimTime Fabric::channelDeliveryTime(NodeId Src, NodeId Dst,
                                         sim::SimDuration Wire) {
  std::size_t Idx = static_cast<std::size_t>(Src) * Nodes.size() + Dst;
  sim::SimTime At = Sim.now() + Wire;
  if (At < ChannelLast[Idx])
    At = ChannelLast[Idx];
  ChannelLast[Idx] = At;
  return At;
}

void Fabric::runOnCpu(NodeId Node, sim::SimDuration Cost,
                      std::function<void()> Fn, unsigned Lane) {
  assert(Lane < NumCpuLanes && "bad cpu lane");
  NodeCtx &Ctx = node(Node);
  if (!Ctx.Alive)
    return;
  sim::SimTime Start = std::max(Sim.now(), Ctx.CpuFreeAt[Lane]);
  Ctx.CpuFreeAt[Lane] = Start + Cost;
  sim::SimTime Done = Ctx.CpuFreeAt[Lane];
  Sim.scheduleAt(Done, {sim::EventKind::CpuTask, Node},
                 [this, Node, Fn = std::move(Fn)]() {
                   if (Nodes[Node]->Alive)
                     Fn();
                 });
}

void Fabric::complete(NodeId Node, unsigned Lane, std::function<void()> Fn) {
  NodeCtx &Ctx = node(Node);
  if (!Ctx.Alive)
    return;
  CompletionQueue &Cq = Ctx.Cq[Lane];
  Cq.Entries.push_back({Sim.now(), std::move(Fn)});
  // A scheduled poll that has not started yet reaps this CQE too.
  if (Cq.PollsPending == 0 || Cq.LastPollStart < Sim.now())
    schedulePoll(Node, Lane);
}

void Fabric::schedulePoll(NodeId Node, unsigned Lane) {
  NodeCtx &Ctx = node(Node);
  CompletionQueue &Cq = Ctx.Cq[Lane];
  sim::SimTime Start = std::max(Sim.now(), Ctx.CpuFreeAt[Lane]);
  Cq.LastPollStart = Start;
  ++Cq.PollsPending;
  runOnCpu(
      Node, Model.PollCpu,
      [this, Node, Lane, Start]() { poll(Node, Lane, Start); }, Lane);
}

void Fabric::poll(NodeId Node, unsigned Lane, sim::SimTime Start) {
  CompletionQueue &Cq = node(Node).Cq[Lane];
  --Cq.PollsPending;
  // Like ibv_poll_cq into a fixed work-completion array: the poll takes at
  // most CqPollBatch CQEs, all of which arrived by the time it started.
  std::function<void()> Reaped[CqPollBatch];
  unsigned N = 0;
  while (N < CqPollBatch && !Cq.Entries.empty() &&
         Cq.Entries.front().Arrived <= Start) {
    Reaped[N++] = std::move(Cq.Entries.front().Fn);
    Cq.Entries.pop_front();
  }
  if (CtrCqPolls) {
    CtrCqPolls->add();
    HistCqesPerPoll->record(N);
  }
  // A callback that crashes the node ends the batch; crash() has emptied
  // the queue.
  for (unsigned I = 0; I < N && Nodes[Node]->Alive; ++I)
    Reaped[I]();
  // CQEs left behind (a full batch, or arrivals after the start) need a
  // later poll if none is scheduled.
  if (!Cq.Entries.empty() && Cq.PollsPending == 0)
    schedulePoll(Node, Lane);
}

void Fabric::postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                       std::vector<std::uint8_t> Data, RegionKey Key,
                       CompletionFn OnComplete, unsigned Lane) {
  assert(Dst < Nodes.size() && "destination out of range");
  if (CtrWrite) {
    CtrWrite->add();
    CtrBytes->add(Data.size());
  }
  auto Payload = std::make_shared<std::vector<std::uint8_t>>(std::move(Data));
  runOnCpu(
      Src, Model.PostCpu,
      [this, Src, Dst, DstOff, Payload, Key, Lane,
       OnComplete = std::move(OnComplete)]() {
        sim::SimDuration Wire = Model.writeWire(Payload->size());
        if (Hook)
          Wire += Hook->onOneSidedOp(Src, Dst, /*IsWrite=*/true,
                                     Payload->size());
        if (HistWireNs)
          HistWireNs->record(Wire);
        sim::SimTime DeliverAt = channelDeliveryTime(Src, Dst, Wire);
        Sim.scheduleAt(DeliverAt,
                       {sim::EventKind::OneSidedDelivery, Dst, Src},
                       [this, Src, Dst, DstOff, Payload, Key, Lane,
                        OnComplete]() {
          // Permission is checked by the responder NIC at access time. A
          // crashed node's NIC still serves one-sided traffic.
          WcStatus Status = WcStatus::Success;
          if (!hasWritePermission(Dst, Src, Key))
            Status = WcStatus::AccessError;
          else
            Nodes[Dst]->Mem.write(DstOff, Payload->data(), Payload->size());
          if (!OnComplete)
            return;
          Sim.schedule(Model.CompletionDelay,
                       {sim::EventKind::Completion, Src, Dst},
                       [this, Src, Status, OnComplete, Lane]() {
                         complete(
                             Src, Lane,
                             [Status, OnComplete]() { OnComplete(Status); });
                       });
        });
      },
      Lane);
}

void Fabric::postRead(NodeId Src, NodeId Dst, MemOffset DstOff,
                      std::size_t Len, ReadCompletionFn OnComplete,
                      unsigned Lane) {
  assert(Dst < Nodes.size() && "destination out of range");
  assert(OnComplete && "a read without a completion is useless");
  if (CtrRead)
    CtrRead->add();
  runOnCpu(
      Src, Model.PostCpu,
      [this, Src, Dst, DstOff, Len, Lane,
       OnComplete = std::move(OnComplete)]() {
        sim::SimDuration Wire = Model.readWire(Len);
        if (Hook)
          Wire += Hook->onOneSidedOp(Src, Dst, /*IsWrite=*/false, Len);
        if (HistWireNs)
          HistWireNs->record(Wire);
        sim::SimTime SampleAt = channelDeliveryTime(Src, Dst, Wire);
        Sim.scheduleAt(SampleAt, {sim::EventKind::ReadSample, Dst, Src},
                       [this, Src, Dst, DstOff, Len, Lane, OnComplete]() {
          auto Data = std::make_shared<std::vector<std::uint8_t>>(
              Nodes[Dst]->Mem.slice(DstOff, Len));
          Sim.schedule(Model.CompletionDelay,
                       {sim::EventKind::Completion, Src, Dst},
                       [this, Src, Data, OnComplete, Lane]() {
                         complete(Src, Lane, [Data, OnComplete]() {
                           OnComplete(WcStatus::Success, std::move(*Data));
                         });
                       });
        });
      },
      Lane);
}

void Fabric::send(NodeId Src, NodeId Dst, std::vector<std::uint8_t> Msg,
                  CompletionFn OnComplete, unsigned Lane) {
  assert(Dst < Nodes.size() && "destination out of range");
  if (CtrSend)
    CtrSend->add();
  auto Payload = std::make_shared<std::vector<std::uint8_t>>(std::move(Msg));
  runOnCpu(
      Src, Model.MsgStackSendCpu,
      [this, Src, Dst, Payload, Lane,
       OnComplete = std::move(OnComplete)]() {
        sim::SimTime DeliverAt =
            channelDeliveryTime(Src, Dst, Model.msgWire(Payload->size()));
        Sim.scheduleAt(DeliverAt, {sim::EventKind::TwoSidedDelivery, Dst, Src},
                       [this, Src, Dst, Payload]() {
          NodeCtx &Ctx = *Nodes[Dst];
          if (!Ctx.Alive || !Ctx.OnRecv)
            return; // Dropped at a dead receiver.
          runOnCpu(
              Dst, Model.MsgStackRecvCpu,
              [&Ctx, Src, Payload]() { Ctx.OnRecv(Src, *Payload); },
              LanePoller);
        });
        if (OnComplete)
          complete(Src, Lane,
                   [OnComplete]() { OnComplete(WcStatus::Success); });
      },
      Lane);
}

void Fabric::setRecvHandler(NodeId Node, RecvHandler Handler) {
  node(Node).OnRecv = std::move(Handler);
}

RegionKey Fabric::createRegionKey() { return NextRegionKey++; }

void Fabric::setWritePermission(NodeId Target, NodeId Writer, RegionKey Key,
                                bool Allowed) {
  node(Target).WritePerm[PermKey(Writer, Key)] = Allowed;
}

bool Fabric::hasWritePermission(NodeId Target, NodeId Writer,
                                RegionKey Key) const {
  if (Key == UnprotectedRegion)
    return true;
  const NodeCtx &Ctx = node(Target);
  auto It = Ctx.WritePerm.find(PermKey(Writer, Key));
  return It == Ctx.WritePerm.end() ? true : It->second;
}

void Fabric::crash(NodeId Node) {
  NodeCtx &Ctx = node(Node);
  Ctx.Alive = false;
  for (CompletionQueue &Cq : Ctx.Cq)
    Cq = CompletionQueue();
}

bool Fabric::isAlive(NodeId Node) const { return node(Node).Alive; }
