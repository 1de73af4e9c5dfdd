//===- hamband/rdma/Transport.h - Pluggable RDMA transport -----*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract verbs surface the Hamband runtime is written against: the
/// one-sided verbs it posts, per-node serial CPU contexts and timers. Two
/// backends implement it (docs/transport.md):
///
///  - Fabric: the discrete-event simulated fabric. Deterministic, drives
///    fault injection and bit-for-bit trace replay; all times are virtual
///    nanoseconds from the NetworkModel. It alone also carries two-sided
///    SEND/RECV, which only the MSG baseline uses.
///  - ShmTransport: a shared-memory backend where every node runs on its
///    own OS thread and one-sided verbs are genuine concurrent memory
///    accesses. Times are wall-clock nanoseconds; bench figures measure
///    real ops/s.
///
/// The verb contract both backends honor:
///
///  - postWrite: the payload lands in the destination region without any
///    destination CPU involvement; writes from one source to one
///    destination are observed in post order (RC FIFO). Within one write
///    the bytes become visible in increasing address order and the LAST
///    byte carries release semantics, which is what the single-writer
///    ring's trailing canary relies on.
///  - postRead: returns a consistent snapshot of the remote range (the
///    simulator samples atomically; the shm backend re-reads until
///    stable).
///  - runOnCpu / completions: execute in the target node's serial
///    execution context and are dropped once the node has crashed.
///    runAfter timers keep firing on a crashed node (matching raw
///    simulator timers); their closures must re-check aliveness.
///  - completions of one lane run in the order they arrived; on the
///    simulator one poll of the lane's completion queue runs several.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RDMA_TRANSPORT_H
#define HAMBAND_RDMA_TRANSPORT_H

#include "hamband/obs/Metrics.h"
#include "hamband/rdma/MemoryRegion.h"
#include "hamband/rdma/NetworkModel.h"
#include "hamband/sim/SimTime.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hamband {
namespace sim {
class Simulator;
} // namespace sim
namespace rdma {

/// Identifier of a protected memory region for permission checks.
using RegionKey = std::uint32_t;

/// Region key meaning "no permission check".
inline constexpr RegionKey UnprotectedRegion = 0;

/// Completion status of a posted verb.
enum class WcStatus {
  Success,
  /// The responder rejected the access (permission revoked). This is how a
  /// deposed Mu leader learns it can no longer append to follower logs.
  AccessError,
};

/// Completion callback for writes.
using CompletionFn = std::function<void(WcStatus)>;

/// Completion callback for reads; Data is empty on error.
using ReadCompletionFn =
    std::function<void(WcStatus, std::vector<std::uint8_t> Data)>;

/// Which transport backend a cluster runs on.
enum class TransportKind {
  /// Discrete-event simulator (deterministic, virtual time).
  Sim,
  /// Shared-memory threads (concurrent, wall-clock time).
  Shm,
};

/// Short display name ("sim" / "shm").
const char *transportKindName(TransportKind K);

/// Parses "sim" / "shm"; returns false on anything else.
bool transportKindFromName(const std::string &Name, TransportKind &K);

/// Abstract N-node RDMA transport: registered memory, one-sided verbs,
/// per-node serial CPU contexts and timers.
class Transport {
public:
  /// Each node models a small multi-core host (the paper's nodes have 8
  /// cores and run dedicated threads). On the simulator, work on
  /// different lanes proceeds in parallel and work on one lane is serial;
  /// the shm backend serializes all lanes of a node on its one OS thread
  /// (which is what makes the node state thread-confined).
  enum CpuLane : unsigned {
    /// Client-request handling and protocol leader work.
    LaneClient = 0,
    /// The buffer-traversal threads (F-ring, L-ring and slot polling).
    LanePoller = 1,
    /// Heartbeats, failure detection, recovery, leader change.
    LaneBackground = 2,
  };
  static constexpr unsigned NumCpuLanes = 3;

  Transport() = default;
  virtual ~Transport();

  Transport(const Transport &) = delete;
  Transport &operator=(const Transport &) = delete;

  virtual TransportKind kind() const = 0;

  /// Short backend name ("sim" / "shm") for logs and bench records.
  const char *name() const { return transportKindName(kind()); }

  /// Deterministic backends support fault injection and trace replay.
  bool deterministic() const { return kind() == TransportKind::Sim; }

  /// The driving simulator, or nullptr on non-simulated backends. Code
  /// needing determinism (fault injection, replay) must check this.
  virtual sim::Simulator *simulatorOrNull() { return nullptr; }

  virtual unsigned numNodes() const = 0;
  virtual const NetworkModel &model() const = 0;

  /// Current time in nanoseconds: virtual on the simulator, wall-clock
  /// (since transport construction) on the shm backend.
  virtual sim::SimTime now() const = 0;

  /// Direct access to a node's registered memory. Local code uses this for
  /// its *own* memory; remote access must go through the verbs.
  virtual MemoryRegion &memory(NodeId Node) = 0;
  virtual const MemoryRegion &memory(NodeId Node) const = 0;

  /// Posts a one-sided RDMA WRITE of \p Data to (\p Dst, \p DstOff); see
  /// the file comment for the visibility/ordering contract.
  virtual void postWrite(NodeId Src, NodeId Dst, MemOffset DstOff,
                         std::vector<std::uint8_t> Data,
                         RegionKey Key = UnprotectedRegion,
                         CompletionFn OnComplete = nullptr,
                         unsigned Lane = LaneClient) = 0;

  /// Posts a one-sided RDMA READ of \p Len bytes from (\p Dst, \p DstOff).
  virtual void postRead(NodeId Src, NodeId Dst, MemOffset DstOff,
                        std::size_t Len, ReadCompletionFn OnComplete,
                        unsigned Lane = LaneClient) = 0;

  /// Runs \p Fn in \p Node's serial execution context after everything
  /// already queued, charging \p Cost of (virtual) CPU time. Dropped when
  /// the node crashed.
  virtual void runOnCpu(NodeId Node, sim::SimDuration Cost,
                        std::function<void()> Fn,
                        unsigned Lane = LaneClient) = 0;

  /// Fires \p Fn on \p Node's timer after \p Delay. Like a raw simulator
  /// timer this keeps firing on a crashed node; the closure must re-check
  /// aliveness if it matters (verbs posted from a crashed node are
  /// dropped anyway).
  virtual void runAfter(NodeId Node, sim::SimDuration Delay,
                        std::function<void()> Fn) = 0;

  /// Invokes \p Fn in \p Node's execution context with no simulated cost:
  /// immediately inline on the simulator (whose driver thread IS every
  /// node), enqueued to the node's thread on the shm backend. The entry
  /// point for driver-side calls into node state.
  virtual void callOn(NodeId Node, std::function<void()> Fn) = 0;

  /// Allocates a fresh region key for permission-controlled writes.
  virtual RegionKey createRegionKey() = 0;

  /// Grants or revokes \p Writer's permission to WRITE regions tagged
  /// \p Key on \p Target. Checked on the responder, like ibverbs
  /// memory-window permissions.
  virtual void setWritePermission(NodeId Target, NodeId Writer,
                                  RegionKey Key, bool Allowed) = 0;

  /// Returns whether \p Writer may write \p Key-tagged regions on
  /// \p Target.
  virtual bool hasWritePermission(NodeId Target, NodeId Writer,
                                  RegionKey Key) const = 0;

  /// Crashes \p Node: its CPU stops (pending and future closures dropped).
  /// One-sided access to its memory keeps working, per the RDMA failure
  /// model.
  virtual void crash(NodeId Node) = 0;

  /// True if the node has not crashed.
  virtual bool isAlive(NodeId Node) const = 0;

  /// Wires verb-level metrics into \p R, which must outlive the
  /// transport's last verb.
  virtual void setObs(obs::Registry &R) = 0;

  // -- Concurrency control (no-ops on the single-threaded simulator) -------

  /// Stops the world: returns once every node thread is parked between
  /// tasks, so the caller may inspect (or compare) node state race-free.
  virtual void pauseWorld() {}

  /// Undoes pauseWorld().
  virtual void resumeWorld() {}

  /// Permanently stops all node threads, discarding queued work without
  /// running it. Must be called before state captured by queued closures
  /// dies. Idempotent; a no-op on the simulator.
  virtual void shutdown() {}

  /// True when no queued or executing node work remains (timers pending do
  /// not count). On the simulator this is the event queue's idleness.
  virtual bool idle() const = 0;
};

} // namespace rdma
} // namespace hamband

#endif // HAMBAND_RDMA_TRANSPORT_H
