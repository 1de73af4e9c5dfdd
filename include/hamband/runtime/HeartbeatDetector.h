//===- hamband/runtime/HeartbeatDetector.h - Failure detection --*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The heartbeat failure detector of Section 4: "each node has a heartbeat
/// thread that periodically updates a local counter. This counter is
/// periodically read by other nodes to determine whether that node is
/// still alive or not." Beats are plain local stores; checks are one-sided
/// RDMA reads of the peers' counters, so detection needs no CPU on the
/// monitored node. A peer whose counter stays unchanged for SuspectAfter
/// consecutive checks is suspected (once); suspicion drives broadcast
/// recovery and consensus leader change.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_RUNTIME_HEARTBEATDETECTOR_H
#define HAMBAND_RUNTIME_HEARTBEATDETECTOR_H

#include "hamband/rdma/Transport.h"

#include <functional>
#include <vector>

namespace hamband {
namespace runtime {

/// Per-node heartbeat thread plus detector of all peers.
class HeartbeatDetector {
public:
  struct Config {
    sim::SimDuration BeatInterval = sim::micros(20);
    sim::SimDuration CheckInterval = sim::micros(60);
    unsigned SuspectAfter = 4;
  };

  /// \p HeartbeatOff is the offset of the counter in every node's memory
  /// (the layout is symmetric).
  HeartbeatDetector(rdma::Transport &Fabric, rdma::NodeId Self,
                    rdma::MemOffset HeartbeatOff, Config Cfg);

  /// Starts the beat timer and the peer checks.
  void start();

  /// Failure injection per the paper: the heartbeat thread stops beating;
  /// everything else on the node keeps running.
  void suspendBeating() { Beating = false; }

  /// Undoes suspendBeating(): the beat timer (which keeps ticking while
  /// suspended) resumes advancing the counter on its next tick.
  void resumeBeating() { Beating = true; }

  /// Registers a suspicion callback; fired at most once per peer.
  void onSuspect(std::function<void(rdma::NodeId)> Fn) {
    SuspectFn = std::move(Fn);
  }

  bool isSuspected(rdma::NodeId Peer) const { return Suspected[Peer]; }

  /// Includes or excludes \p Peer from the check loop. Membership changes
  /// stop monitoring removed nodes (their counter legitimately freezes)
  /// and start monitoring joiners; re-monitoring resets the miss count and
  /// any previous suspicion so a joiner starts with a clean slate.
  void setMonitored(rdma::NodeId Peer, bool M);

private:
  void beat();
  void checkPeers();

  rdma::Transport &Fabric;
  rdma::NodeId Self;
  rdma::MemOffset HeartbeatOff;
  Config Cfg;
  bool Beating = true;
  std::uint64_t Counter = 0;
  std::vector<std::uint64_t> LastSeen;
  std::vector<unsigned> Misses;
  std::vector<bool> Suspected;
  std::vector<bool> Monitored;
  std::function<void(rdma::NodeId)> SuspectFn;
};

} // namespace runtime
} // namespace hamband

#endif // HAMBAND_RUNTIME_HEARTBEATDETECTOR_H
