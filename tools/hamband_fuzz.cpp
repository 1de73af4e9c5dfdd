//===- tools/hamband_fuzz.cpp - Randomized fault-schedule fuzzer ----------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs N randomized fault schedules against the full Hamband runtime, one
// registered data type per run, and checks after quiescence that:
//
//  - every live replica satisfies the type's integrity invariant;
//  - all live replicas converge (equal visible states and applied tables);
//  - the run agrees with the executable concrete semantics (Lemma 3): the
//    same client sequence fed to RdmaConfiguration converges and keeps the
//    invariant, and for observation-independent conflict-free types under
//    soft faults the two worlds agree state-for-state;
//  - the recorded fault trace replays bit-for-bit: re-executing the run in
//    replay mode (decisions taken from the trace, no RNG) produces an
//    identical trace.
//
// The run harness (and thus the full oracle battery, including the
// apply-log and ring-cursor checks) is shared with `hamband_mc`: see
// include/hamband/explore/Harness.h. A counterexample trace dumped by
// either tool replays here bit-for-bit.
//
// Every run is reproducible from the base seed and its run index:
//
//   hamband_fuzz --runs 100 --seed 42            # the full sweep
//   hamband_fuzz --runs 100 --seed 42 --batch    # + batched-twin diffing
//   hamband_fuzz --runs 100 --seed 42 --deltas   # + delta-twin diffing
//   hamband_fuzz --seed 42 --only 17 --verbose   # re-run one schedule
//   hamband_fuzz --seed 42 --only 17 --dump t.ftrace
//   hamband_fuzz --replay-trace t.ftrace         # re-execute a dumped run
//
// With --batch every schedule also runs against a *batched* cluster
// (reduction-aware call batching on the broadcast hot path, see
// docs/batching.md): the twin run is subjected to the same checks and its
// own bit-for-bit replay, and for crash-free schedules over
// observation-independent types the batched and unbatched final states
// are diffed replica by replica -- batching must be invisible.
//
// --deltas does the same for delta-state summary propagation (bounded
// SummaryDelta frames, plus a full image for a receiver that finds a gap
// and asks for it, see docs/deltas.md):
// a delta twin of every schedule, and a delta+batched twin when both
// flags are given. Like batching, delta shipping is a transport-level
// optimization and must be invisible in the final states.
//
// On failure, --minimize greedily shrinks the fault schedule (removing
// timed faults and zeroing probabilities while the failure persists) and
// prints the minimal failing plan.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/explore/Harness.h"
#include "hamband/sim/FaultInjector.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace hamband;
using namespace hamband::explore;
using namespace hamband::sim;

namespace {

struct Options {
  std::uint64_t Seed = 42;
  unsigned Runs = 20;
  unsigned Calls = 30;
  unsigned Nodes = 0;   // 0 = derived per run (3 or 4).
  long Only = -1;       // Run only this run index.
  std::string Type;     // Empty = rotate over all registered types.
  std::string DumpFile; // Write the failing (or --only) trace here.
  std::string ReplayFile;
  bool Verbose = false;
  bool NoReplay = false;
  bool Minimize = false;
  bool Batch = false;  // Also run a batched twin and diff the outcomes.
  bool Deltas = false; // Also run a delta-propagation twin and diff.
  bool Reconfig = false; // Run an online membership transition mid-workload.
  bool Stats = false; // Dump the merged metrics snapshot as JSON.
  std::string Transport = "sim"; // Only "sim" is accepted; see below.
  unsigned Shards = 1;           // Only 1 is accepted; see below.
};

std::uint64_t mixSeed(std::uint64_t A, std::uint64_t B) {
  std::uint64_t Z = A + 0x9e3779b97f4a7c15ull * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Four fault intensities the sweep rotates through.
FaultSpec specForProfile(unsigned Profile) {
  FaultSpec S;
  switch (Profile % 4) {
  case 0: // Network noise: one-sided delays and one partition.
    S.OneSidedDelayProb = 0.05;
    S.NumPartitions = 1;
    break;
  case 1: // The paper's injection: suspend a node, then recover it.
    S.OneSidedDelayProb = 0.02;
    S.NumSuspends = 1;
    break;
  case 2: // Hard crash: CPU stops for good, memory stays accessible.
    S.OneSidedDelayProb = 0.02;
    S.NumCrashes = 1;
    break;
  case 3: // Crash a broadcast source in the backup-slot window.
    S.CrashOnStageProb = 0.01;
    S.NumPartitions = 1;
    break;
  }
  return S;
}

RunSpec configForRun(const Options &Opt, unsigned RunIdx,
                     const std::vector<std::string> &Types) {
  RunSpec Cfg;
  Cfg.TypeName = Opt.Type.empty() ? Types[RunIdx % Types.size()] : Opt.Type;
  Cfg.Nodes = Opt.Nodes ? Opt.Nodes : 3 + (RunIdx / 2) % 2;
  Cfg.Calls = Opt.Calls;
  Cfg.WorkSeed = mixSeed(Opt.Seed, 2 * RunIdx);
  Cfg.FaultSeed = mixSeed(Opt.Seed, 2 * RunIdx + 1);
  Cfg.Spec = specForProfile(RunIdx);
  Cfg.Reconfig = Opt.Reconfig;
  return Cfg;
}

bool runFails(const RunSpec &Cfg, const FaultPlan &Plan) {
  return !runSchedule(Cfg, &Plan, nullptr).Ok;
}

/// Greedy schedule minimization: drop timed faults and zero probability
/// knobs as long as the run still fails.
FaultPlan minimizePlan(const RunSpec &Cfg, FaultPlan Plan) {
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (std::size_t I = 0; I < Plan.Timed.size();) {
      FaultPlan Cand = Plan;
      Cand.Timed.erase(Cand.Timed.begin() + I);
      if (runFails(Cfg, Cand)) {
        Plan = std::move(Cand);
        Progress = true;
      } else {
        ++I;
      }
    }
  }
  double FaultSpec::*Knobs[] = {&FaultSpec::OneSidedDelayProb,
                                &FaultSpec::CrashOnStageProb};
  for (auto Knob : Knobs) {
    if (Plan.Spec.*Knob == 0)
      continue;
    FaultPlan Cand = Plan;
    Cand.Spec.*Knob = 0;
    if (runFails(Cfg, Cand))
      Plan = std::move(Cand);
  }
  return Plan;
}

void printPlan(const FaultPlan &Plan) {
  std::printf("  plan: seed=%" PRIu64 " nodes=%u probs[1s-delay=%g "
              "stage-crash=%g]\n",
              Plan.Seed, Plan.NumNodes, Plan.Spec.OneSidedDelayProb,
              Plan.Spec.CrashOnStageProb);
  for (const TimedFault &F : Plan.Timed)
    std::printf("  at %" PRIu64 "ns %s node/link %u %u until %" PRIu64 "\n",
                F.At, faultKindName(F.Kind), F.A, F.B, F.Until);
}

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--runs N] [--seed S] [--calls N] [--nodes N]\n"
      "          [--type NAME] [--only RUN] [--dump FILE]\n"
      "          [--replay-trace FILE] [--minimize] [--no-replay]\n"
      "          [--batch] [--deltas] [--reconfig] [--stats] [--verbose]\n"
      "          [--transport sim] [--shards 1]\n",
      Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--runs" && (V = Next()))
      Opt.Runs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--seed" && (V = Next()))
      Opt.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--calls" && (V = Next()))
      Opt.Calls = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--nodes" && (V = Next()))
      Opt.Nodes = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--type" && (V = Next()))
      Opt.Type = V;
    else if (A == "--only" && (V = Next()))
      Opt.Only = std::strtol(V, nullptr, 10);
    else if (A == "--dump" && (V = Next()))
      Opt.DumpFile = V;
    else if (A == "--replay-trace" && (V = Next()))
      Opt.ReplayFile = V;
    else if (A == "--minimize")
      Opt.Minimize = true;
    else if (A == "--batch")
      Opt.Batch = true;
    else if (A == "--deltas")
      Opt.Deltas = true;
    else if (A == "--reconfig")
      Opt.Reconfig = true;
    else if (A == "--no-replay")
      Opt.NoReplay = true;
    else if (A == "--stats")
      Opt.Stats = true;
    else if (A == "--verbose")
      Opt.Verbose = true;
    else if (A == "--transport" && (V = Next()))
      Opt.Transport = V;
    else if (A == "--shards" && (V = Next()))
      Opt.Shards = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else
      return usage(Argv[0]);
  }

  // Fault schedules are defined in simulated time and their traces replay
  // bit-for-bit only against the deterministic simulator; the concurrent
  // shm transport has neither property (see docs/transport.md).
  if (Opt.Transport != "sim") {
    std::fprintf(stderr,
                 "error: --transport %s is not supported: fault-schedule "
                 "fuzzing and trace replay are sim-only (the shm backend "
                 "is not deterministic and cannot replay traces)\n",
                 Opt.Transport.c_str());
    return 2;
  }

  // Same story for the sharded keyspace: fuzz schedules and dumped
  // traces are defined against a single unsharded cluster, and a
  // multi-shard deployment multiplexes several independent coordination
  // instances whose interleaving is not captured by one FaultTrace. The
  // option exists so drivers can probe for support and fail closed.
  if (Opt.Shards != 1) {
    std::fprintf(stderr,
                 "error: --shards %u is not supported: fault-schedule "
                 "fuzzing and trace replay run against a single unsharded "
                 "cluster (sharded deployments are exercised by the "
                 "sharding equivalence corpus instead)\n",
                 Opt.Shards);
    return 2;
  }

  if (!Opt.ReplayFile.empty()) {
    RunSpec Cfg;
    FaultTrace Recorded;
    if (!readTraceFile(Opt.ReplayFile, Cfg, Recorded)) {
      std::fprintf(stderr, "error: cannot load trace %s\n",
                   Opt.ReplayFile.c_str());
      return 2;
    }
    if (!makeRunType(Cfg)) {
      std::fprintf(stderr,
                   "error: trace names unknown type '%s' or invalid "
                   "mutation '%s'\n",
                   Cfg.TypeName.c_str(), Cfg.Mutation.c_str());
      return 2;
    }
    // A reconfig run consults extra decision points (the transition's
    // stage events) that a pre-epoch trace never recorded, so replaying
    // one under --reconfig could only diverge. Fail closed instead.
    if (Opt.Reconfig && !Cfg.Reconfig) {
      std::fprintf(stderr,
                   "error: --reconfig replay needs a trace recorded with "
                   "reconfig=1; %s was dumped from a fixed-membership run\n",
                   Opt.ReplayFile.c_str());
      return 2;
    }
    RunOutcome R = runSchedule(Cfg, nullptr, &Recorded);
    bool Identical = R.Trace == Recorded;
    std::printf("replayed %s: type=%s%s%s events=%zu checks=%s trace=%s\n",
                Opt.ReplayFile.c_str(), Cfg.TypeName.c_str(),
                Cfg.Mutation.empty() ? "" : "#",
                Cfg.Mutation.empty() ? "" : Cfg.Mutation.c_str(),
                R.Trace.Events.size(), R.Ok ? "pass" : "FAIL",
                Identical ? "identical" : "DIVERGED");
    if (!R.Ok)
      std::printf("  %s\n", R.Failure.c_str());
    // A counterexample trace from hamband_mc is *expected* to fail its
    // oracles -- replay certifies the reproduction, i.e. that the trace
    // re-executes bit-for-bit. Against a corrupted (mutated) spec the
    // exit code therefore reflects trace identity only.
    if (!Cfg.Mutation.empty())
      return Identical ? 0 : 1;
    return (R.Ok && Identical) ? 0 : 1;
  }

  std::vector<std::string> Types = registeredTypeNames();
  if (!Opt.Type.empty() &&
      std::find(Types.begin(), Types.end(), Opt.Type) == Types.end()) {
    std::fprintf(stderr, "error: unknown type '%s'; registered:",
                 Opt.Type.c_str());
    for (const std::string &T : Types)
      std::fprintf(stderr, " %s", T.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  unsigned First = Opt.Only >= 0 ? static_cast<unsigned>(Opt.Only) : 0;
  unsigned Last =
      Opt.Only >= 0 ? static_cast<unsigned>(Opt.Only) + 1 : Opt.Runs;
  unsigned Failures = 0;
  obs::StatsSnapshot Merged;
  for (unsigned RunIdx = First; RunIdx < Last; ++RunIdx) {
    RunSpec Cfg = configForRun(Opt, RunIdx, Types);
    RunOutcome R = runSchedule(Cfg, nullptr, nullptr,
                               Opt.Stats ? &Merged : nullptr);

    // Serialization round trip + bit-for-bit replay of the trace.
    std::string Ser = R.Trace.serialize();
    FaultTrace Round;
    if (!FaultTrace::deserialize(Ser, Round) || !(Round == R.Trace)) {
      R.Ok = false;
      R.Failure += "; trace serialization round trip failed";
    }
    if (!Opt.NoReplay) {
      RunOutcome Rep = runSchedule(Cfg, nullptr, &R.Trace);
      if (!(Rep.Trace == R.Trace)) {
        R.Ok = false;
        R.Failure += "; replay produced a different trace";
      } else if (!Rep.Ok) {
        R.Ok = false;
        R.Failure += "; replayed run failed: " + Rep.Failure;
      }
    }

    // Twin runs: the same workload and fault plan against a cluster with
    // one transport-level optimization enabled. A twin faces every check
    // the baseline run does, including its own bit-for-bit replay (its
    // trace differs -- flushes and delta frames change the
    // number and timing of stage events -- so it replays separately).
    // For crash-free schedules over observation-independent types the
    // final state is a pure function of the call multiset, so the twin
    // must agree with the baseline replica by replica. (Crashes are
    // excluded because probabilistic stage-crash decisions fire at
    // different points once the stage sequence changes.)
    auto runTwin = [&](const char *Label, bool Batched, bool Deltas) {
      RunSpec CfgT = Cfg;
      CfgT.Batched = Batched;
      CfgT.Deltas = Deltas;
      RunOutcome RT = runSchedule(CfgT, nullptr, nullptr,
                                  Opt.Stats ? &Merged : nullptr);
      if (!RT.Ok) {
        R.Ok = false;
        R.Failure += std::string("; ") + Label + " twin failed: " +
                     RT.Failure;
      }
      if (!Opt.NoReplay) {
        RunOutcome RepT = runSchedule(CfgT, nullptr, &RT.Trace);
        if (!(RepT.Trace == RT.Trace)) {
          R.Ok = false;
          R.Failure += std::string("; ") + Label +
                       " replay produced a different trace";
        } else if (!RepT.Ok) {
          R.Ok = false;
          R.Failure += std::string("; ") + Label +
                       " replayed run failed: " + RepT.Failure;
        }
      }
      if (!R.HadCrash && !RT.HadCrash &&
          isObservationIndependent(Cfg.TypeName) && R.States != RT.States) {
        R.Ok = false;
        for (unsigned P = 0; P < Cfg.Nodes; ++P)
          if (R.States[P] != RT.States[P])
            R.Failure += std::string("; ") + Label +
                         "/baseline state diff at node " +
                         std::to_string(P) + ": baseline=" + R.States[P] +
                         " " + Label + "=" + RT.States[P];
      }
    };
    if (Opt.Batch)
      runTwin("batched", /*Batched=*/true, /*Deltas=*/false);
    if (Opt.Deltas)
      runTwin("delta", /*Batched=*/false, /*Deltas=*/true);
    if (Opt.Batch && Opt.Deltas)
      runTwin("delta+batched", /*Batched=*/true, /*Deltas=*/true);

    if (Opt.Verbose || !R.Ok) {
      std::printf("run %3u type=%-18s nodes=%u faults=%zu ok=%u rej=%u "
                  "lost=%u skip=%u",
                  RunIdx, Cfg.TypeName.c_str(), Cfg.Nodes,
                  R.Trace.Events.size(), R.CompletedOk, R.Rejected,
                  R.LostAtCrashed, R.Skipped);
      if (Cfg.Reconfig)
        std::printf(" epoch=%u%s retries=%u", R.FinalEpoch,
                    R.ReconfigInstalled ? "" : "(aborted)",
                    R.WrongEpochRetries);
      std::printf(" %s\n", R.Ok ? "PASS" : "FAIL");
    }
    if (!Opt.DumpFile.empty() && (!R.Ok || Opt.Only >= 0))
      writeTraceFile(Opt.DumpFile, Cfg, R.Trace);
    if (!R.Ok) {
      ++Failures;
      std::printf("  failure: %s\n  repro: --seed %" PRIu64 " --only %u\n",
                  R.Failure.c_str(), Opt.Seed, RunIdx);
      if (Opt.Minimize) {
        FaultPlan Min = minimizePlan(
            Cfg, FaultPlan::generate(Cfg.FaultSeed, Cfg.Spec, Cfg.Nodes));
        std::printf("  minimized failing schedule:\n");
        printPlan(Min);
      }
    }
  }
  std::printf("%u/%u schedules passed\n", (Last - First) - Failures,
              Last - First);
  if (Opt.Stats)
    std::printf("%s\n", Merged.toJson().c_str());
  return Failures ? 1 : 0;
}
