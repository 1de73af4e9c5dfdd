//===- hamband/rdma/ShmTransport.h - Shared-memory transport ---*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent Transport backend: every node is an OS thread with a
/// concurrent-mode MemoryRegion, and one-sided verbs are genuine shared-
/// memory accesses performed inline by the posting thread. There is no
/// simulated latency and no determinism -- this backend exists so the
/// bench figures can measure wall-clock operations per second over the
/// exact protocol code (rings, canaries, permission checks) the simulator
/// validates. See docs/transport.md for the memory-ordering argument and
/// the sim/shm feature matrix.
///
/// Execution model per node: one worker thread owning a FIFO task queue
/// and a timer heap. runOnCpu/callOn/completions are tasks (dropped once
/// the node crashes); runAfter deadlines fire even on a crashed node,
/// matching raw simulator timers. Lane numbers and CPU costs are accepted
/// and ignored: a node's three lanes collapse onto its single thread,
/// which over-serializes relative to the simulator but never reorders, so
/// protocol behavior is preserved.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RDMA_SHMTRANSPORT_H
#define HAMBAND_RDMA_SHMTRANSPORT_H

#include "hamband/rdma/Transport.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

namespace hamband {
namespace rdma {

/// Shared-memory concurrent transport: one OS thread per node.
class ShmTransport : public Transport {
public:
  ShmTransport(unsigned NumNodes, NetworkModel Model = NetworkModel(),
               std::size_t MemBytesPerNode = 64u << 20);
  ~ShmTransport() override;

  TransportKind kind() const override { return TransportKind::Shm; }

  unsigned numNodes() const override {
    return static_cast<unsigned>(Nodes.size());
  }
  const NetworkModel &model() const override { return Model; }

  /// Wall-clock nanoseconds since construction (steady clock).
  sim::SimTime now() const override;

  MemoryRegion &memory(NodeId Node) override;
  const MemoryRegion &memory(NodeId Node) const override;

  void postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                 std::vector<std::uint8_t> Data,
                 RegionKey Key = UnprotectedRegion,
                 CompletionFn OnComplete = nullptr,
                 unsigned Lane = LaneClient) override;

  void postRead(NodeId Src, NodeId Dst, MemOffset DstOff, std::size_t Len,
                ReadCompletionFn OnComplete,
                unsigned Lane = LaneClient) override;

  void runOnCpu(NodeId Node, sim::SimDuration Cost, std::function<void()> Fn,
                unsigned Lane = LaneClient) override;

  void runAfter(NodeId Node, sim::SimDuration Delay,
                std::function<void()> Fn) override;

  void callOn(NodeId Node, std::function<void()> Fn) override;

  RegionKey createRegionKey() override;
  void setWritePermission(NodeId Target, NodeId Writer, RegionKey Key,
                          bool Allowed) override;
  bool hasWritePermission(NodeId Target, NodeId Writer,
                          RegionKey Key) const override;

  void crash(NodeId Node) override;
  bool isAlive(NodeId Node) const override;

  void setObs(obs::Registry &R) override;

  void pauseWorld() override;
  void resumeWorld() override;
  void shutdown() override;

  bool idle() const override;

private:
  struct Task {
    std::function<void()> Fn;
    /// Dropped unexecuted once the node crashed (runOnCpu, callOn,
    /// completions). Timer tasks are exempt, like raw simulator events.
    bool NeedsAlive = true;
  };

  struct ShmNode {
    explicit ShmNode(std::size_t MemBytes)
        : Mem(MemBytes, /*Concurrent=*/true) {}
    MemoryRegion Mem;
    std::mutex Mu;
    std::condition_variable Cv;
    std::deque<Task> Queue;
    std::multimap<std::uint64_t, Task> Timers; // deadline ns -> task
    std::atomic<bool> Alive{true};
    std::thread Worker;
  };

  void workerLoop(ShmNode &N);
  void enqueue(NodeId Node, std::function<void()> Fn, bool NeedsAlive);

  NetworkModel Model;
  std::chrono::steady_clock::time_point Epoch;
  std::vector<std::unique_ptr<ShmNode>> Nodes;

  /// Workers hold this shared for the duration of each task body;
  /// pauseWorld() takes it exclusive, so once acquired no task is
  /// mid-flight and none can start.
  mutable std::shared_mutex WorldMu;

  std::atomic<bool> Stop{false};
  bool Joined = false; // main-thread only
  std::atomic<unsigned> Executing{0};

  mutable std::mutex PermMu;
  std::map<std::uint64_t, bool> Perm; // (target,writer,key) packed
  RegionKey NextRegionKey = 1;        // guarded by PermMu

  obs::Counter *CtrWrite = nullptr;
  obs::Counter *CtrRead = nullptr;
  obs::Counter *CtrBytes = nullptr;
};

} // namespace rdma
} // namespace hamband

#endif // HAMBAND_RDMA_SHMTRANSPORT_H
