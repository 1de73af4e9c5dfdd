//===- hamband/rdma/NetworkModel.h - Fabric cost model ---------*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Latency and CPU cost parameters of the simulated cluster. The defaults
/// model the paper's testbed: a 40Gbps InfiniBand network where one-sided
/// RDMA verbs complete in a microsecond or two, while messages that cross
/// the kernel network stack (the message-passing CRDT baseline) cost tens
/// of microseconds. Every Hamband result in the paper is driven by this
/// ratio, so it is the key thing the simulation must preserve.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RDMA_NETWORKMODEL_H
#define HAMBAND_RDMA_NETWORKMODEL_H

#include "hamband/sim/SimTime.h"

#include <cstdint>

namespace hamband {
namespace rdma {

/// Identifier of a node (process) in the cluster.
using NodeId = std::uint32_t;

/// Fault hook consulted by the simulated fabric when a one-sided verb
/// reaches the wire. The deterministic fault-injection subsystem
/// (sim/FaultInjector.h) implements this; the fabric itself stays
/// policy-free. One-sided verbs ride a Reliable-Connection QP, which
/// retransmits until delivery, so a fault never loses a verb: it only
/// delays it.
class FabricFaultHook {
public:
  virtual ~FabricFaultHook() = default;

  /// A one-sided WRITE (\p IsWrite) or READ is about to be put on the
  /// (\p Src, \p Dst) channel. Returns the extra wire latency to add before
  /// delivery (0: no fault). Per-channel FIFO order is preserved, so
  /// delaying one verb transitively delays everything behind it on the
  /// same (src, dst) channel, which is how congestion or a partitioned
  /// link behaves on RC transport.
  virtual sim::SimDuration onOneSidedOp(NodeId Src, NodeId Dst, bool IsWrite,
                                        std::size_t Bytes) = 0;
};

/// Cost parameters for the simulated fabric.
///
/// All durations are simulated nanoseconds (see sim::SimTime helpers).
/// The defaults are calibrated so that protocol-level numbers land in the
/// ranges the paper reports for its hardware (e.g. sub-2us one-sided
/// writes, ~25us kernel-stack messages, consensus round trips of a few
/// microseconds).
struct NetworkModel {
  /// Time from posting a one-sided WRITE until the bytes are visible in the
  /// remote memory (NIC-to-NIC, no remote CPU involved).
  sim::SimDuration WriteWireBase = sim::micros(0.9);

  /// Time from posting a one-sided READ until the remote memory is sampled.
  sim::SimDuration ReadWireBase = sim::micros(1.3);

  /// Extra wire time per payload byte (40Gbps is ~0.2ns per byte).
  double WirePerByteNs = 0.2;

  /// Delay from remote completion until the issuer observes the completion
  /// entry in its completion queue.
  sim::SimDuration CompletionDelay = sim::micros(0.4);

  /// Issuer CPU time to post any verb (doorbell + WQE).
  sim::SimDuration PostCpu = sim::nanos(120);

  /// CPU time for one poll of a completion queue or a buffer canary. One
  /// completion-queue poll reaps up to 16 ready CQEs
  /// (Fabric::CqPollBatch).
  sim::SimDuration PollCpu = sim::nanos(80);

  /// Sender-side CPU for a two-sided kernel-stack message (syscall,
  /// copies, protocol processing). Used by the MSG baseline; calibrated
  /// against the era's ~0.3M msgs/s/core kernel send paths.
  sim::SimDuration MsgStackSendCpu = sim::micros(2.8);

  /// Receiver-side CPU for a two-sided kernel-stack message (interrupt,
  /// stack traversal, copy to user space).
  sim::SimDuration MsgStackRecvCpu = sim::micros(2.5);

  /// Receiver-side interrupt/softirq overhead beyond MsgStackRecvCpu,
  /// folded into the wire latency of a two-sided message.
  sim::SimDuration MsgWireBase = sim::micros(25.0);

  /// Per-byte cost of two-sided messages.
  double MsgPerByteNs = 0.4;

  /// CPU time to apply one update call to the local object state.
  sim::SimDuration ApplyCpu = sim::nanos(150);

  /// CPU time to execute one query against local state, on the client
  /// lane. A Hamband query reads the Apply(S)(σ) its poller keeps
  /// materialized (Section 3.3 QUERY rule) and pays nothing more.
  sim::SimDuration QueryCpu = sim::nanos(60);

  /// Poller CPU time per summary call folded into the materialized
  /// Apply(S)(σ): one per peer delta joined, and one per held image when
  /// a poll round rebuilds the view after a whole image was replaced.
  /// Summary folds are a handful of arithmetic ops on hot cache lines.
  sim::SimDuration ApplySummaryCpu = sim::nanos(10);

  /// CPU time to parse one buffered call (deserialize + dep check).
  sim::SimDuration ParseCpu = sim::nanos(100);

  /// Leader CPU to sequence one consensus log entry beyond the raw verb
  /// posts (WQE batching, entry bookkeeping); calibrated so a single Mu
  /// leader saturates below 1M entries/s, as reported for Mu [7].
  sim::SimDuration ConsensusEntryCpu = sim::nanos(450);

  /// Returns the wire duration of a one-sided write of \p Bytes bytes.
  sim::SimDuration writeWire(std::size_t Bytes) const {
    return WriteWireBase +
           static_cast<sim::SimDuration>(WirePerByteNs * Bytes);
  }

  /// Returns the wire duration of a one-sided read of \p Bytes bytes.
  sim::SimDuration readWire(std::size_t Bytes) const {
    return ReadWireBase +
           static_cast<sim::SimDuration>(WirePerByteNs * Bytes);
  }

  /// Returns the wire duration of a two-sided message of \p Bytes bytes.
  sim::SimDuration msgWire(std::size_t Bytes) const {
    return MsgWireBase + static_cast<sim::SimDuration>(MsgPerByteNs * Bytes);
  }
};

} // namespace rdma
} // namespace hamband

#endif // HAMBAND_RDMA_NETWORKMODEL_H
