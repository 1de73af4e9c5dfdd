//===- tools/hamband_mc.cpp - Exhaustive protocol-state-space explorer ----===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Bounded exhaustive schedule exploration of the live Hamband cluster:
// every interleaving of fabric events (and crash points) up to a bound is
// executed through the shared run harness and judged by its full oracle
// battery -- convergence, integrity, conflicting-call order agreement,
// per-issuer delivery order, ring-cursor integrity, recovery atomicity
// after each injected crash point, and refinement of the executable
// concrete semantics. Dynamic partial-order reduction, sleep sets and
// state-fingerprint dedup prune the tree (see docs/analysis.md).
//
//   hamband_mc --type counter --calls 4            # one type
//   hamband_mc --type all --calls 4 --crashes 1    # the CI sweep
//   hamband_mc --type counter --calls 3 --deltas   # delta-mode cluster
//   hamband_mc --type bank-account --crashes 1 --batch  # batched cluster
//   M=drop-conflict:withdraw/withdraw              # a corrupted spec
//   hamband_mc --type bank-account --mutate $M --dump ce.ftrace
//   hamband_fuzz --replay-trace ce.ftrace          # reproduces the CE
//
// Exit code 0 = every explored schedule passed every oracle, 1 = a
// violation was found (a minimized counterexample trace is printed and,
// with --dump, serialized for hamband_fuzz --replay-trace), 2 = usage or
// configuration error. --json emits a `hamband-mc-v1` report with the
// explored / pruned / deduped counts and the naive-vs-explored reduction
// factor.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/explore/Explorer.h"
#include "hamband/obs/Json.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace hamband;
using namespace hamband::explore;

namespace {

struct Options {
  std::string Type = "all";
  std::string Mutation;
  unsigned Calls = 4;
  unsigned Nodes = 3;
  unsigned Crashes = 1;
  std::uint64_t Seed = 1;
  std::uint64_t Budget = 400;     // Max executed schedules per type.
  std::uint64_t MaxBranch = 4000; // Depth bound on branching.
  std::string DumpFile;
  bool Json = false;
  bool Verbose = false;
  // Explore the cluster with delta-state summary propagation enabled
  // (bounded SummaryDelta frames, full images on request, see
  // docs/deltas.md).
  bool Deltas = false;
  // Explore the batched cluster (docs/batching.md): flushes coalesce
  // conflict-free calls, and a group leader puts the conflicting calls it
  // accepts in one client-lane burst into one log entry.
  bool Batch = false;
  // Explore the cluster with an online membership transition folded into
  // the workload (docs/reconfig.md): the last provisioned node joins at
  // the workload midpoint, adding the transition's stage decisions to the
  // explored schedule space.
  bool Reconfig = false;
  std::string Transport = "sim"; // Only "sim" is accepted; see below.
  unsigned Shards = 1;           // Only 1 is accepted; see below.
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--type NAME|all] [--calls N] [--nodes N] [--crashes K]\n"
      "          [--seed S] [--budget RUNS] [--max-branch IDX]\n"
      "          [--mutate KIND:mA/mB] [--dump FILE] [--json] [--verbose]\n"
      "          [--batch] [--deltas] [--reconfig] [--transport sim]\n"
      "          [--shards 1]\n",
      Argv0);
  return 2;
}

double reductionFactor(const McReport &R) {
  if (!R.Explored)
    return 1.0;
  long double Log10 =
      R.NaiveLog10 - std::log10(static_cast<long double>(R.Explored));
  if (Log10 > 300)
    return 1e300;
  if (Log10 < 0)
    return 1.0;
  return static_cast<double>(std::pow(10.0L, Log10));
}

obs::json::Value reportToJson(const McReport &R) {
  using obs::json::Value;
  Value O = Value::makeObject();
  O.add("type", Value::makeString(R.Base.TypeName));
  O.add("mutation", Value::makeString(R.Base.Mutation));
  O.add("nodes", Value::makeUInt(R.Base.Nodes));
  O.add("calls", Value::makeUInt(R.Base.Calls));
  O.add("work_seed", Value::makeUInt(R.Base.WorkSeed));
  O.add("deltas", Value::makeBool(R.Base.Deltas));
  O.add("reconfig", Value::makeBool(R.Base.Reconfig));
  O.add("ok", Value::makeBool(R.ok()));
  O.add("explored", Value::makeUInt(R.Explored));
  O.add("choice_points", Value::makeUInt(R.ChoicePoints));
  O.add("branch_points", Value::makeUInt(R.BranchPoints));
  O.add("pruned_dependence", Value::makeUInt(R.PrunedDependence));
  O.add("pruned_sleep", Value::makeUInt(R.PrunedSleep));
  O.add("deduped_subtrees", Value::makeUInt(R.DedupedSubtrees));
  O.add("crash_placements", Value::makeUInt(R.CrashPlacements));
  O.add("naive_log10", Value::makeDouble(static_cast<double>(R.NaiveLog10)));
  O.add("reduction_factor", Value::makeDouble(reductionFactor(R)));
  O.add("budget_exhausted", Value::makeBool(R.BudgetExhausted));
  // Batched explorations add whether any schedule coalesced conflicting
  // calls into a shared log entry.
  if (R.Base.Batched) {
    O.add("batched", Value::makeBool(true));
    O.add("coalesced_calls", Value::makeUInt(R.CoalescedCalls));
  }
  Value Viols = obs::json::Value::makeArray();
  if (R.Violation) {
    const McViolation &V = *R.Violation;
    Value VO = Value::makeObject();
    VO.add("failure", Value::makeString(V.Failure));
    VO.add("placement", Value::makeString(V.Placement));
    VO.add("forced_picks", Value::makeUInt(V.ForcedPicks));
    VO.add("trace_events", Value::makeUInt(V.Trace.Events.size()));
    Viols.Arr.push_back(std::move(VO));
  }
  O.add("violations", std::move(Viols));
  return O;
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
    if (A == "--type" && (V = Next()))
      Opt.Type = V;
    else if (A == "--mutate" && (V = Next()))
      Opt.Mutation = V;
    else if (A == "--calls" && (V = Next()))
      Opt.Calls = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--nodes" && (V = Next()))
      Opt.Nodes = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--crashes" && (V = Next()))
      Opt.Crashes = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--seed" && (V = Next()))
      Opt.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--budget" && (V = Next()))
      Opt.Budget = std::strtoull(V, nullptr, 10);
    else if (A == "--max-branch" && (V = Next()))
      Opt.MaxBranch = std::strtoull(V, nullptr, 10);
    else if (A == "--dump" && (V = Next()))
      Opt.DumpFile = V;
    else if (A == "--json")
      Opt.Json = true;
    else if (A == "--verbose")
      Opt.Verbose = true;
    else if (A == "--batch")
      Opt.Batch = true;
    else if (A == "--deltas")
      Opt.Deltas = true;
    else if (A == "--reconfig")
      Opt.Reconfig = true;
    else if (A == "--transport" && (V = Next()))
      Opt.Transport = V;
    else if (A == "--shards" && (V = Next()))
      Opt.Shards = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else
      return usage(Argv[0]);
  }

  // Exploration forks by deterministic re-execution from a decision
  // prefix; only the simulated transport re-executes bit-identically.
  if (Opt.Transport != "sim") {
    std::fprintf(stderr,
                 "error: --transport %s is not supported: exhaustive "
                 "exploration forks schedules by deterministic "
                 "re-execution, which only the sim transport provides\n",
                 Opt.Transport.c_str());
    return 2;
  }
  // One unsharded cluster: a multi-shard deployment multiplexes several
  // coordination instances whose interleaving one decision prefix (and
  // one FaultTrace) does not capture.
  if (Opt.Shards != 1) {
    std::fprintf(stderr,
                 "error: --shards %u is not supported: exploration and "
                 "counterexample replay run against a single unsharded "
                 "cluster\n",
                 Opt.Shards);
    return 2;
  }
  if (Opt.Nodes < 1 || Opt.Calls < 1) {
    std::fprintf(stderr, "error: --nodes and --calls must be >= 1\n");
    return 2;
  }

  std::vector<std::string> Types;
  if (Opt.Type == "all") {
    Types = registeredTypeNames();
  } else {
    if (!isTypeRegistered(Opt.Type)) {
      std::fprintf(stderr, "error: unknown type '%s'; registered:",
                   Opt.Type.c_str());
      for (const std::string &T : registeredTypeNames())
        std::fprintf(stderr, " %s", T.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
    Types.push_back(Opt.Type);
  }
  if (!Opt.Mutation.empty()) {
    if (Opt.Type == "all") {
      std::fprintf(stderr,
                   "error: --mutate requires a single --type (the edge "
                   "names are type-specific)\n");
      return 2;
    }
    RunSpec Probe;
    Probe.TypeName = Opt.Type;
    Probe.Mutation = Opt.Mutation;
    if (!makeRunType(Probe)) {
      std::fprintf(stderr,
                   "error: invalid mutation '%s' for type '%s' (want "
                   "drop-conflict:<mA>/<mB> or drop-dep:<m>/<on> naming "
                   "an existing edge)\n",
                   Opt.Mutation.c_str(), Opt.Type.c_str());
      return 2;
    }
  }

  McOptions MO;
  MO.MaxRuns = Opt.Budget;
  MO.MaxBranchIdx = Opt.MaxBranch;
  MO.MaxCrashPoints = Opt.Crashes;

  obs::json::Value Out = obs::json::Value::makeObject();
  Out.add("schema", obs::json::Value::makeString("hamband-mc-v1"));
  Out.add("nodes", obs::json::Value::makeUInt(Opt.Nodes));
  Out.add("calls", obs::json::Value::makeUInt(Opt.Calls));
  Out.add("budget", obs::json::Value::makeUInt(Opt.Budget));
  Out.add("max_branch", obs::json::Value::makeUInt(Opt.MaxBranch));
  Out.add("crashes", obs::json::Value::makeUInt(Opt.Crashes));
  obs::json::Value Reports = obs::json::Value::makeArray();

  bool AllOk = true;
  for (const std::string &TN : Types) {
    RunSpec RS;
    RS.TypeName = TN;
    RS.Mutation = Opt.Mutation;
    RS.Nodes = Opt.Nodes;
    RS.Calls = Opt.Calls;
    RS.WorkSeed = Opt.Seed;
    RS.Batched = Opt.Batch;
    RS.Deltas = Opt.Deltas;
    RS.Reconfig = Opt.Reconfig;
    McReport R = exploreType(RS, MO);
    AllOk &= R.ok();
    std::string Coalesced =
        Opt.Batch ? " coalesced=" + std::to_string(R.CoalescedCalls) : "";
    if (!Opt.Json || Opt.Verbose)
      std::printf("%-18s%s explored=%" PRIu64 " choice-points=%" PRIu64
                  " branch-points=%" PRIu64 " pruned[dep=%" PRIu64
                  " sleep=%" PRIu64 "] deduped=%" PRIu64
                  " crash-placements=%" PRIu64 " reduction=%.3gx%s%s %s\n",
                  TN.c_str(), Opt.Mutation.empty() ? "" : "(mutated)",
                  R.Explored, R.ChoicePoints, R.BranchPoints,
                  R.PrunedDependence, R.PrunedSleep, R.DedupedSubtrees,
                  R.CrashPlacements, reductionFactor(R),
                  R.BudgetExhausted ? " (budget exhausted)" : "",
                  Coalesced.c_str(), R.ok() ? "OK" : "VIOLATION");
    if (R.Violation) {
      const McViolation &V = *R.Violation;
      if (!Opt.Json || Opt.Verbose)
        std::printf("  violation: %s\n  placement=%s forced-picks=%u "
                    "trace-events=%zu\n",
                    V.Failure.c_str(), V.Placement.c_str(), V.ForcedPicks,
                    V.Trace.Events.size());
      if (!Opt.DumpFile.empty()) {
        if (writeTraceFile(Opt.DumpFile, V.Spec, V.Trace)) {
          if (!Opt.Json || Opt.Verbose)
            std::printf("  counterexample dumped to %s (replay with "
                        "hamband_fuzz --replay-trace)\n",
                        Opt.DumpFile.c_str());
        } else {
          std::fprintf(stderr, "error: cannot write %s\n",
                       Opt.DumpFile.c_str());
        }
      }
    }
    Reports.Arr.push_back(reportToJson(R));
  }
  Out.add("types", std::move(Reports));
  Out.add("ok", obs::json::Value::makeBool(AllOk));
  if (Opt.Json)
    std::printf("%s\n", Out.write().c_str());
  return AllOk ? 0 : 1;
}
