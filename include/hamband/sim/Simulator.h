//===- hamband/sim/Simulator.h - Discrete-event simulator ------*- C++ -*-===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event simulation engine that drives every replicated node,
/// network transfer and timer in this project. A single simulator instance
/// owns the virtual clock; components schedule closures at future virtual
/// times and the engine executes them in timestamp order.
///
/// Using simulated time (rather than wall-clock threads) is what lets the
/// whole 3..7 node "cluster" of the paper run deterministically in one
/// process: throughput and response-time metrics are computed from the
/// virtual clock, so results are reproducible bit-for-bit from a seed.
///
/// When several events tie at the earliest virtual time, an installed
/// schedule chooser may pick which one fires — the choice-point hook the
/// exhaustive explorer (`hamband_mc`) and fault-trace replay fork on.
/// Without a chooser the insertion-order tie-break applies, unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_SIM_SIMULATOR_H
#define HAMBAND_SIM_SIMULATOR_H

#include "hamband/sim/EventQueue.h"
#include "hamband/sim/SimTime.h"

#include <cstdint>
#include <functional>
#include <utility>

namespace hamband {
namespace sim {

/// Discrete-event simulator with a virtual nanosecond clock.
class Simulator {
public:
  /// Consulted by runOne() whenever >= 2 events are enabled (tie at the
  /// earliest time). Receives the queue (for enabled()) and the enabled
  /// count; returns the index to pop. Out-of-range picks fall back to 0.
  using ScheduleChooser =
      std::function<std::size_t(EventQueue &Queue, std::size_t NumEnabled)>;

  /// Observes every executed event's label (after pop, before the closure
  /// runs). Used by the explorer's sleep sets; unset in normal runs.
  using PopObserver = std::function<void(const EventLabel &Label)>;

  /// Current virtual time.
  SimTime now() const { return Now; }

  /// Schedules \p Fn to run \p Delay after the current time.
  EventId schedule(SimDuration Delay, std::function<void()> Fn) {
    return Queue.push(Now + Delay, std::move(Fn));
  }

  /// Schedules a labeled event \p Delay after the current time.
  EventId schedule(SimDuration Delay, EventLabel Label,
                   std::function<void()> Fn) {
    return Queue.push(Now + Delay, Label, std::move(Fn));
  }

  /// Schedules \p Fn at the absolute virtual time \p At (clamped to now).
  EventId scheduleAt(SimTime At, std::function<void()> Fn) {
    return Queue.push(At < Now ? Now : At, std::move(Fn));
  }

  /// Schedules a labeled event at the absolute time \p At (clamped to now).
  EventId scheduleAt(SimTime At, EventLabel Label, std::function<void()> Fn) {
    return Queue.push(At < Now ? Now : At, Label, std::move(Fn));
  }

  /// Cancels a pending event; no-op if it already fired.
  void cancel(EventId Id) { Queue.cancel(Id); }

  /// Installs (or, with nullptr, removes) the tie-break chooser.
  void setScheduleChooser(ScheduleChooser C) { Chooser = std::move(C); }

  /// Installs (or removes) the executed-event observer.
  void setPopObserver(PopObserver O) { Observer = std::move(O); }

  /// Executes the single earliest pending event (or the chooser's pick
  /// among ties). Returns false if none.
  bool runOne();

  /// Runs until the queue drains, \p Until is passed, or \p MaxEvents have
  /// fired, whichever comes first. Returns the number of events executed.
  std::uint64_t run(SimTime Until = SimTimeMax,
                    std::uint64_t MaxEvents = UINT64_MAX);

  /// Requests that run() return after the currently executing event.
  void stop() { StopRequested = true; }

  /// True when no events are pending.
  bool idle() const { return Queue.empty(); }

  /// Number of pending events (diagnostics).
  std::size_t pendingEvents() const { return Queue.size(); }

  /// Hash of the pending-event multiset (state fingerprints).
  std::uint64_t queueDigest() const { return Queue.digest(); }

private:
  EventQueue Queue;
  ScheduleChooser Chooser;
  PopObserver Observer;
  SimTime Now = 0;
  bool StopRequested = false;
};

} // namespace sim
} // namespace hamband

#endif // HAMBAND_SIM_SIMULATOR_H
