//===- sim/Simulator.cpp - Discrete-event simulator ----------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/sim/Simulator.h"

#include <cassert>

using namespace hamband::sim;

bool Simulator::runOne() {
  Event Ev;
  if (Chooser) {
    std::size_t N = Queue.enabledCount();
    if (N > 1) {
      std::size_t Pick = Chooser(Queue, N);
      if (Pick >= N)
        Pick = 0;
      if (!Queue.popNth(Pick, Ev))
        return false;
    } else if (!Queue.pop(Ev)) {
      return false;
    }
  } else if (!Queue.pop(Ev)) {
    return false;
  }
  assert(Ev.At >= Now && "event queue went backwards in time");
  Now = Ev.At;
  if (Observer)
    Observer(Ev.Label);
  Ev.Fn();
  return true;
}

std::uint64_t Simulator::run(SimTime Until, std::uint64_t MaxEvents) {
  StopRequested = false;
  std::uint64_t Count = 0;
  while (Count < MaxEvents && !StopRequested) {
    SimTime Next = Queue.nextTime();
    if (Next == SimTimeMax)
      break; // Drained.
    if (Next > Until) {
      // Do not execute past the horizon, but advance the clock to it so
      // callers can treat run(Until) as "sleep until".
      Now = Until;
      break;
    }
    if (!runOne())
      break;
    ++Count;
  }
  return Count;
}
