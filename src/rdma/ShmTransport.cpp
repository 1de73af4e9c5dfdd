//===- rdma/ShmTransport.cpp - Shared-memory transport --------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/rdma/ShmTransport.h"

#include <cassert>

using namespace hamband;
using namespace hamband::rdma;

namespace {

std::uint64_t permKey(NodeId Target, NodeId Writer, RegionKey Key) {
  return (static_cast<std::uint64_t>(Target) << 48) |
         (static_cast<std::uint64_t>(Writer) << 32) | Key;
}

} // namespace

ShmTransport::ShmTransport(unsigned NumNodes, NetworkModel Model,
                           std::size_t MemBytesPerNode)
    : Model(Model), Epoch(std::chrono::steady_clock::now()) {
  Nodes.reserve(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    Nodes.push_back(std::make_unique<ShmNode>(MemBytesPerNode));
  // Workers start idle; every structure they may touch exists by now.
  for (auto &N : Nodes)
    N->Worker = std::thread([this, Node = N.get()]() { workerLoop(*Node); });
}

ShmTransport::~ShmTransport() { shutdown(); }

sim::SimTime ShmTransport::now() const {
  return static_cast<sim::SimTime>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

MemoryRegion &ShmTransport::memory(NodeId Node) {
  assert(Node < Nodes.size());
  return Nodes[Node]->Mem;
}

const MemoryRegion &ShmTransport::memory(NodeId Node) const {
  assert(Node < Nodes.size());
  return Nodes[Node]->Mem;
}

void ShmTransport::workerLoop(ShmNode &N) {
  std::unique_lock<std::mutex> L(N.Mu);
  while (!Stop.load(std::memory_order_acquire)) {
    // Promote due timers into the task queue. Timers fire even on a
    // crashed node (their Task is marked NeedsAlive=false), matching raw
    // simulator events; the closures re-check whatever aliveness they
    // care about.
    std::uint64_t NowNs = now();
    while (!N.Timers.empty() && N.Timers.begin()->first <= NowNs) {
      N.Queue.push_back(std::move(N.Timers.begin()->second));
      N.Timers.erase(N.Timers.begin());
    }
    if (!N.Queue.empty()) {
      Task T = std::move(N.Queue.front());
      N.Queue.pop_front();
      Executing.fetch_add(1, std::memory_order_acq_rel);
      L.unlock();
      {
        // Task bodies run under the world lock (shared): pauseWorld()'s
        // exclusive acquisition therefore means "no task mid-flight".
        std::shared_lock<std::shared_mutex> World(WorldMu);
        if (!T.NeedsAlive || N.Alive.load(std::memory_order_acquire))
          T.Fn();
      }
      Executing.fetch_sub(1, std::memory_order_acq_rel);
      L.lock();
      continue;
    }
    if (N.Timers.empty())
      N.Cv.wait(L);
    else
      N.Cv.wait_until(
          L, Epoch + std::chrono::nanoseconds(N.Timers.begin()->first));
  }
}

void ShmTransport::enqueue(NodeId Node, std::function<void()> Fn,
                           bool NeedsAlive) {
  assert(Node < Nodes.size());
  ShmNode &N = *Nodes[Node];
  {
    std::lock_guard<std::mutex> G(N.Mu);
    N.Queue.push_back(Task{std::move(Fn), NeedsAlive});
  }
  N.Cv.notify_one();
}

void ShmTransport::postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                             std::vector<std::uint8_t> Data, RegionKey Key,
                             CompletionFn OnComplete, unsigned Lane) {
  (void)Lane;
  assert(Src < Nodes.size() && Dst < Nodes.size());
  if (!Nodes[Src]->Alive.load(std::memory_order_acquire))
    return; // A crashed initiator posts nothing (its CPU is stopped).
  if (CtrWrite)
    CtrWrite->add();
  if (CtrBytes)
    CtrBytes->add(Data.size());
  WcStatus St = WcStatus::Success;
  if (!hasWritePermission(Dst, Src, Key)) {
    St = WcStatus::AccessError;
  } else {
    // Executed inline by the posting thread: per-(src,dst) FIFO is the
    // thread's own program order, and the concurrent MemoryRegion stores
    // bytes in increasing address order with release semantics, so a
    // record's trailing canary publishes everything before it.
    Nodes[Dst]->Mem.write(DstOff, Data.data(), Data.size());
  }
  if (OnComplete)
    enqueue(Src, [OnComplete = std::move(OnComplete), St]() {
      OnComplete(St);
    }, /*NeedsAlive=*/true);
}

void ShmTransport::postRead(NodeId Src, NodeId Dst, MemOffset DstOff,
                            std::size_t Len, ReadCompletionFn OnComplete,
                            unsigned Lane) {
  (void)Lane;
  assert(Src < Nodes.size() && Dst < Nodes.size());
  if (!Nodes[Src]->Alive.load(std::memory_order_acquire))
    return;
  if (CtrRead)
    CtrRead->add();
  // The Transport contract promises a consistent snapshot; double-read
  // until stable, then validate-by-structure at the caller (canaries,
  // sequence numbers) exactly as on real RDMA hardware.
  std::vector<std::uint8_t> Data = Nodes[Dst]->Mem.sliceStable(DstOff, Len);
  if (OnComplete)
    enqueue(Src,
            [OnComplete = std::move(OnComplete), Data = std::move(Data)]() {
              OnComplete(WcStatus::Success, std::move(Data));
            },
            /*NeedsAlive=*/true);
}

void ShmTransport::runOnCpu(NodeId Node, sim::SimDuration Cost,
                            std::function<void()> Fn, unsigned Lane) {
  (void)Cost;
  (void)Lane;
  assert(Node < Nodes.size());
  if (!Nodes[Node]->Alive.load(std::memory_order_acquire))
    return;
  enqueue(Node, std::move(Fn), /*NeedsAlive=*/true);
}

void ShmTransport::runAfter(NodeId Node, sim::SimDuration Delay,
                            std::function<void()> Fn) {
  assert(Node < Nodes.size());
  ShmNode &N = *Nodes[Node];
  std::uint64_t Deadline = now() + Delay;
  {
    std::lock_guard<std::mutex> G(N.Mu);
    N.Timers.emplace(Deadline, Task{std::move(Fn), /*NeedsAlive=*/false});
  }
  N.Cv.notify_one();
}

void ShmTransport::callOn(NodeId Node, std::function<void()> Fn) {
  enqueue(Node, std::move(Fn), /*NeedsAlive=*/true);
}

RegionKey ShmTransport::createRegionKey() {
  std::lock_guard<std::mutex> G(PermMu);
  return NextRegionKey++;
}

void ShmTransport::setWritePermission(NodeId Target, NodeId Writer,
                                      RegionKey Key, bool Allowed) {
  assert(Key != UnprotectedRegion && "cannot restrict the null region");
  std::lock_guard<std::mutex> G(PermMu);
  Perm[permKey(Target, Writer, Key)] = Allowed;
}

bool ShmTransport::hasWritePermission(NodeId Target, NodeId Writer,
                                      RegionKey Key) const {
  if (Key == UnprotectedRegion)
    return true;
  std::lock_guard<std::mutex> G(PermMu);
  auto It = Perm.find(permKey(Target, Writer, Key));
  return It == Perm.end() ? true : It->second;
}

void ShmTransport::crash(NodeId Node) {
  assert(Node < Nodes.size());
  Nodes[Node]->Alive.store(false, std::memory_order_release);
  // Queued NeedsAlive tasks are dropped at dispatch; memory stays
  // remotely accessible, per the RDMA failure model.
}

bool ShmTransport::isAlive(NodeId Node) const {
  assert(Node < Nodes.size());
  return Nodes[Node]->Alive.load(std::memory_order_acquire);
}

void ShmTransport::setObs(obs::Registry &R) {
  CtrWrite = &R.counter("rdma.write");
  CtrRead = &R.counter("rdma.read");
  CtrBytes = &R.counter("rdma.bytes_written");
}

void ShmTransport::pauseWorld() { WorldMu.lock(); }

void ShmTransport::resumeWorld() { WorldMu.unlock(); }

void ShmTransport::shutdown() {
  if (Joined)
    return;
  Stop.store(true, std::memory_order_release);
  for (auto &N : Nodes) {
    std::lock_guard<std::mutex> G(N->Mu);
    N->Cv.notify_all();
  }
  for (auto &N : Nodes)
    if (N->Worker.joinable())
      N->Worker.join();
  // Discard queued work without running it, releasing whatever the
  // closures captured.
  for (auto &N : Nodes) {
    N->Queue.clear();
    N->Timers.clear();
  }
  Joined = true;
}

bool ShmTransport::idle() const {
  // Queues first, Executing last: a worker increments Executing while
  // still holding its queue lock, so a task popped between our two reads
  // is caught by the Executing check rather than slipping past both.
  for (const auto &N : Nodes) {
    std::lock_guard<std::mutex> G(N->Mu);
    if (!N->Queue.empty())
      return false;
  }
  return Executing.load(std::memory_order_acquire) == 0;
}
