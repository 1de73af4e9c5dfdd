//===- hamband/rdma/Fabric.h - Simulated RDMA fabric -----------*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic Transport backend: a simulated RDMA cluster of N
/// nodes, each with a CPU and a registered memory region, connected by
/// Reliable-Connection queue pairs over a discrete-event simulator. The
/// fabric implements the verbs the Hamband runtime needs:
///
///  - one-sided WRITE / READ: remote memory is accessed after wire latency
///    with *no* remote CPU involvement, mirroring ibverbs RDMA_WRITE/READ;
///  - two-sided SEND / RECV: the receiver's CPU runs a handler and pays
///    kernel-network-stack costs. Only the message-passing baseline sends,
///    so these are members of the fabric, not of the Transport interface;
///  - per-region write permissions, which the Mu-style consensus uses to
///    guarantee at most one leader can append to replicated logs;
///  - failure injection: a crashed node's CPU stops and its two-sided
///    traffic is dropped, but its registered memory remains remotely
///    readable/writable (the RDMA failure model the paper builds on); a
///    FabricFaultHook may delay one-sided verbs on the wire.
///
/// Delivery between each ordered pair of nodes is FIFO, as on an RC queue
/// pair, and each node's CPU is a serial resource: closures handed to
/// runOnCpu() execute one at a time, which is what actually bounds
/// throughput in the experiments.
///
/// Each (node, lane) has a completion queue. A verb's completion appends a
/// CQE there; one poll task on the lane (NetworkModel::PollCpu) reaps
/// every CQE that arrived by the time the poll started, up to
/// CqPollBatch, and runs their callbacks in arrival order. A CQE that
/// arrives after the poll started waits for the next poll.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RDMA_FABRIC_H
#define HAMBAND_RDMA_FABRIC_H

#include "hamband/rdma/Transport.h"
#include "hamband/sim/Simulator.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace hamband {
namespace rdma {

/// Simulated RDMA cluster over a discrete-event simulator.
class Fabric : public Transport {
public:
  /// Handler invoked on the receiver CPU for two-sided messages.
  using RecvHandler =
      std::function<void(NodeId Src, const std::vector<std::uint8_t> &Msg)>;

  /// Most CQEs one poll reaps: the size of its work-completion array.
  static constexpr unsigned CqPollBatch = 16;

  Fabric(sim::Simulator &Sim, unsigned NumNodes,
         NetworkModel Model = NetworkModel(),
         std::size_t MemBytesPerNode = 64u << 20);
  ~Fabric() override;

  TransportKind kind() const override { return TransportKind::Sim; }
  sim::Simulator *simulatorOrNull() override { return &Sim; }

  unsigned numNodes() const override {
    return static_cast<unsigned>(Nodes.size());
  }
  sim::Simulator &simulator() { return Sim; }
  const NetworkModel &model() const override { return Model; }
  sim::SimTime now() const override { return Sim.now(); }

  /// Direct access to a node's registered memory. Local code uses this for
  /// its *own* memory; remote access must go through the verbs so that it
  /// pays wire latency.
  MemoryRegion &memory(NodeId Node) override;
  const MemoryRegion &memory(NodeId Node) const override;

  /// Posts a one-sided RDMA WRITE of \p Data to (\p Dst, \p DstOff).
  /// The bytes become visible in the destination memory after wire latency
  /// without involving the destination CPU. \p OnComplete (optional) runs
  /// on the source lane's first poll after the completion-queue delay.
  /// Writes from the same source to the same destination are delivered in
  /// post order (RC FIFO).
  void postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                 std::vector<std::uint8_t> Data,
                 RegionKey Key = UnprotectedRegion,
                 CompletionFn OnComplete = nullptr,
                 unsigned Lane = LaneClient) override;

  /// Posts a one-sided RDMA READ of \p Len bytes from (\p Dst, \p DstOff).
  /// The remote memory is sampled after wire latency; the data reaches the
  /// issuer with the completion.
  void postRead(NodeId Src, NodeId Dst, MemOffset DstOff, std::size_t Len,
                ReadCompletionFn OnComplete,
                unsigned Lane = LaneClient) override;

  /// Sends a two-sided message through the (simulated) kernel stack,
  /// delivered once after NetworkModel::msgWire. The receiver's
  /// RecvHandler runs on its poller lane; if the receiver has crashed the
  /// message is silently dropped and the completion still succeeds
  /// (TCP-like: the sender cannot tell).
  void send(NodeId Src, NodeId Dst, std::vector<std::uint8_t> Msg,
            CompletionFn OnComplete = nullptr, unsigned Lane = LaneClient);

  /// Installs the two-sided receive handler for \p Node.
  void setRecvHandler(NodeId Node, RecvHandler Handler);

  /// Runs \p Fn on \p Node's CPU lane \p Lane after the lane has executed
  /// everything already queued, charging \p Cost of CPU time. Work within
  /// a lane is serial; lanes run in parallel. If the node crashed, \p Fn
  /// is dropped.
  void runOnCpu(NodeId Node, sim::SimDuration Cost, std::function<void()> Fn,
                unsigned Lane = LaneClient) override;

  /// A per-node timer is just a simulator event: it fires even on a
  /// crashed node, exactly as raw Sim.schedule() always has.
  void runAfter(NodeId Node, sim::SimDuration Delay,
                std::function<void()> Fn) override {
    Sim.schedule(Delay, {sim::EventKind::Timer, Node}, std::move(Fn));
  }

  /// The single simulator thread IS every node's execution context, so a
  /// driver-side call into node state simply runs inline.
  void callOn(NodeId Node, std::function<void()> Fn) override {
    (void)Node;
    Fn();
  }

  /// Allocates a fresh region key for permission-controlled writes.
  RegionKey createRegionKey() override;

  /// Grants or revokes \p Writer's permission to WRITE regions tagged
  /// \p Key on \p Target. Checked at delivery time on the responder, like
  /// ibverbs memory-window permissions.
  void setWritePermission(NodeId Target, NodeId Writer, RegionKey Key,
                          bool Allowed) override;

  /// Returns whether \p Writer may write \p Key-tagged regions on
  /// \p Target.
  bool hasWritePermission(NodeId Target, NodeId Writer,
                          RegionKey Key) const override;

  /// Crashes \p Node: its CPU stops (pending and future closures dropped,
  /// queued CQEs discarded) and incoming two-sided messages are discarded.
  /// One-sided access to its memory keeps working, per the RDMA failure
  /// model.
  void crash(NodeId Node) override;

  /// True if the node has not crashed.
  bool isAlive(NodeId Node) const override;

  /// Installs (or clears, with nullptr) the fault hook consulted whenever
  /// a one-sided verb reaches the wire. The hook must outlive the fabric
  /// or be cleared before destruction.
  void setFaultHook(FabricFaultHook *H) { Hook = H; }

  /// Wires verb-level metrics (rdma.write / rdma.read / rdma.send /
  /// rdma.bytes_written, the rdma.wire_ns simulated-latency histogram, and
  /// the completion-queue rdma.cq_polls / rdma.cqes_per_poll) into \p R,
  /// which must outlive the fabric's last verb.
  void setObs(obs::Registry &R) override;

  /// On the simulator, "no queued node work" is the event queue's
  /// idleness.
  bool idle() const override { return Sim.idle(); }

private:
  struct CompletionQueue;
  struct NodeCtx;

  NodeCtx &node(NodeId Id);
  const NodeCtx &node(NodeId Id) const;

  /// Appends a CQE running \p Fn to (\p Node, \p Lane)'s completion queue
  /// and makes sure a poll will reap it. Dropped on a crashed node.
  void complete(NodeId Node, unsigned Lane, std::function<void()> Fn);

  /// Queues one poll of (\p Node, \p Lane)'s completion queue on the lane.
  void schedulePoll(NodeId Node, unsigned Lane);

  /// The poll task that started at \p Start: reaps and runs the CQEs.
  void poll(NodeId Node, unsigned Lane, sim::SimTime Start);

  /// Computes the FIFO delivery time for the (Src, Dst) channel.
  sim::SimTime channelDeliveryTime(NodeId Src, NodeId Dst,
                                   sim::SimDuration Wire);

  sim::Simulator &Sim;
  NetworkModel Model;
  FabricFaultHook *Hook = nullptr;
  std::vector<std::unique_ptr<NodeCtx>> Nodes;
  /// Last delivery time per ordered (src, dst) pair, for RC FIFO order.
  std::vector<sim::SimTime> ChannelLast;
  RegionKey NextRegionKey = 1;

  obs::Counter *CtrWrite = nullptr;
  obs::Counter *CtrRead = nullptr;
  obs::Counter *CtrSend = nullptr;
  obs::Counter *CtrBytes = nullptr;
  obs::Histogram *HistWireNs = nullptr;
  obs::Counter *CtrCqPolls = nullptr;
  obs::Histogram *HistCqesPerPoll = nullptr;
};

} // namespace rdma
} // namespace hamband

#endif // HAMBAND_RDMA_FABRIC_H
