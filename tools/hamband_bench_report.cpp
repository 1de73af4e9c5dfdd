//===- tools/hamband_bench_report.cpp - Regression bench report -----------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs the headline figure points, the extension sweeps and every point
// of the paper's evaluation through benchlib and emits a machine-readable
// hamband-bench-v1 JSON report, then gates it:
//
//   hamband_bench_report --out BENCH.json          # run and emit
//   hamband_bench_report --smoke --out BENCH.json  # tiny op count for CI
//   hamband_bench_report --transport both --out B.json  # + shm wall-clock
//   hamband_bench_report --check BENCH.json        # validate and gate
//   hamband_bench_report --compare A.json B.json   # hold A to baseline B
//
// --transport selects the backend dimension: "sim" (default) emits the
// simulated-time sections below; "shm" emits only the wall-clock
// shared-memory points fig8_shm/fig8_shm_batched; "both" emits all
// sections side by side.
//
// The simulated-time sections:
//
//  - fig8, fig8_batched, fig9: the headline points, 4 nodes, 25% updates,
//    --ops calls. fig8 is reduction throughput on the counter, unbatched
//    and (fig8_batched) with reduction-aware call batching; fig9 is
//    buffering latency on the ORSet.
//  - fig_shard: keyspace scaling. A conflicting-call workload (movie
//    addCustomer/deleteCustomer -- one sync group, so the unsharded
//    cluster funnels every call through a single leader node) over
//    ShardObjects distinct objects, at each of ShardCounts, plus one
//    zipfian hot-key companion point at the top shard count.
//  - fig_bigstate: what delta-state propagation (docs/deltas.md) buys on
//    large resident state. Each replica is pre-seeded with a
//    BigElems-element summary (gset and two-phase-set;
//    HambandCluster::seedReducibleState), then an update-only workload
//    runs with full-image shipping and again with delta shipping,
//    recording rdma.bytes_written per delivered call. The lww-register
//    entry is the contrast case -- its image is a single stamped value, so
//    deltas cannot help -- and is recorded ungated.
//  - fig_reconfig: online membership reconfiguration (docs/reconfig.md).
//    The fig8 counter point runs with a membership transition triggered at
//    40% of issued ops -- "add" provisions the fourth node as a standby
//    and joins it mid-run, "remove" retires the last serving node -- and
//    records the throughput split around the transition (steady / during
//    / after), the transition length and the number of closed-epoch
//    client retries. Its op count is pinned (not --ops/--smoke scaled):
//    the after-phase average needs a long window to amortize the
//    pipeline-refill dip right after reopen.
//  - paper: every point behind the paper's evaluation (Section 5): Figs
//    8-13 against the MSG and Mu baselines, the abstract's headline
//    aggregate and the design ablations, each with the call count, node
//    count and configuration its figure uses. Its sizes are pinned too, so
//    every report carries the same numbers.
//  - stats: the fig9 run's merged hamband-stats-v1 snapshot, so a report
//    carries the runtime's own counters next to the driver's figures.
//
// Every point's response mean and percentiles, in every section, come
// from the driver's exact per-call samples (benchlib::RunResult). Its
// throughput counts the calls answered up to the moment the last call
// is issued; the drain from there to full replication is its drain_us.
//
// The gates are the constants below, not options. --check requires every
// simulated-time section, validates the shape of every point, and gates:
//
//  - the paper's relative claims: the headline's 17x MSG and 2.7x Mu
//    throughput, Hamband ahead of both baselines at every Fig 8 and Fig 9
//    point, 1.4x Mu per Fig 10 size, above Mu per Fig 11 ratio, a failure
//    always costing throughput in Fig 12, and Fig 13's none > follower >
//    leader order;
//  - batching: fig8_batched throughput at least 1.25x fig8's;
//  - shards: the top shard count's throughput at least 2x the 1-shard
//    point's;
//  - delta bytes: every gated fig_bigstate entry ships at least 5x fewer
//    transport bytes per delivered call in delta mode than in full-image
//    mode;
//  - reconfig retention: every fig_reconfig point keeps at least 70% of
//    its steady throughput during the transition, and recovers to 95% of
//    the capacity-adjusted steady rate after it (a removal takes a serving
//    node's capacity with it; an addition must at least hold steady).
//
// The shm numbers measure real threads on real memory and depend on the
// host's core count: --check validates their shape only, and --compare
// never examines them.
//
// --compare A B exits nonzero when the throughput of any simulated-time
// point -- every point of the sections above, named as it prints them --
// differs by more than 5% between the reports, when one report lacks a
// point the other carries, or when a name occurs twice in one report; each
// failure names its point. scripts/bench_regress.sh holds a run to the
// committed baseline with it, and its output lists the old and new value
// of every point.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Runner.h"
#include "hamband/core/TypeRegistry.h"
#include "hamband/obs/Json.h"
#include "hamband/runtime/HambandCluster.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace hamband;
using namespace hamband::benchlib;
namespace json = hamband::obs::json;

namespace {

struct Options {
  std::uint64_t Ops = 6000;
  unsigned Reps = 1;
  bool Smoke = false;
  std::string Out;        // Empty = stdout.
  std::string CheckFile;  // --check mode.
  std::string CompareA;   // --compare mode.
  std::string CompareB;
  /// Backend dimension: "sim", "shm", or "both".
  std::string Transport = "sim";
};

/// The fig_shard sweep's shard counts; its zipf companion runs at the last.
constexpr unsigned ShardCounts[] = {1, 2, 4, 8};
/// Distinct objects in the fig_shard keyspace, and under --smoke.
constexpr std::uint64_t ShardObjects = 100000, SmokeShardObjects = 1000;
/// Elements pre-seeded into each fig_bigstate summary, and under --smoke.
constexpr std::uint64_t BigElems = 100000, SmokeBigElems = 5000;

RunResult runFigPoint(const std::string &TypeName, unsigned Nodes,
                      double UpdateRatio, const Options &Opt,
                      bool Batched = false,
                      rdma::TransportKind Transport =
                          rdma::TransportKind::Sim) {
  auto Type = makeType(TypeName);
  WorkloadSpec W;
  W.NumOps = Opt.Ops;
  W.UpdateRatio = UpdateRatio;
  RunnerOptions RO;
  RO.Kind = RuntimeKind::Hamband;
  RO.NumNodes = Nodes;
  RO.Repetitions = Opt.Reps;
  RO.Cfg.Batch.Enabled = Batched;
  RO.Transport = Transport;

  return runWorkload(*Type, W, RO);
}

/// One fig_shard sweep entry: the movie conflicting-call workload
/// (addCustomer/deleteCustomer only -- a single sync group, so the
/// 1-shard baseline is bottlenecked on one leader node) over a keyspace
/// of \p Objects objects, deployed at the given shard count.
RunResult runShardPoint(unsigned Shards, double ZipfSkew,
                        std::uint64_t Objects, const Options &Opt) {
  auto Type = makeType("movie");
  WorkloadSpec W;
  W.NumOps = Opt.Ops;
  W.UpdateRatio = 1.0;
  W.UpdateMethods = {0, 1}; // addCustomer, deleteCustomer.
  W.NumObjects = Objects;
  W.ZipfSkew = ZipfSkew;
  RunnerOptions RO;
  RO.Kind = RuntimeKind::Hamband;
  RO.NumNodes = 4;
  RO.Repetitions = Opt.Reps;
  RO.Transport = rdma::TransportKind::Sim;
  RO.NumShards = Shards;

  return runWorkload(*Type, W, RO);
}

/// One fig_reconfig point: the fig8 counter workload with an online
/// membership transition triggered at 40% of issued ops. "add" runs 4
/// provisioned / 3 serving nodes and joins the standby mid-run;
/// "remove" runs 4 serving nodes and retires the last one. The driver
/// splits throughput around the transition and retries closed-epoch
/// rejections, so the point measures what clients see across the fence.
RunResult runReconfigPoint(const char *Action, const Options &Opt) {
  auto Type = makeType("counter");
  WorkloadSpec W;
  // Pinned independently of --ops/--smoke: the retention measurement
  // needs a long post-transition window so the pipeline-refill dip
  // right after reopen amortizes into the after-phase average. The run
  // is deterministic simulated time, so the extra ops cost wall clock
  // only.
  W.NumOps = 24000;
  W.UpdateRatio = 0.25;
  RunnerOptions RO;
  RO.Kind = RuntimeKind::Hamband;
  RO.NumNodes = 4;
  RO.Repetitions = Opt.Reps;
  RO.Transport = rdma::TransportKind::Sim;
  RO.ReconfigAction = Action;

  return runWorkload(*Type, W, RO);
}

/// One fig_bigstate mode point: the update-only workload over a seeded
/// big state, plus the transport bytes it shipped per delivered call.
struct BigStatePoint {
  RunResult R;
  std::uint64_t BytesWritten = 0;
  double BytesPerCall = 0;
};

/// Runs the fig_bigstate workload for one (type, mode) cell. With
/// \p Elems > 0 every replica's sum-group-0 summary is pre-seeded with
/// the elements {0..Elems-1} for every source, so a call issued at any
/// node makes that node re-ship an Elems-sized image in full-image mode.
/// Repetitions are pinned to 1: the run is deterministic simulated time,
/// and bytes_per_call divides one run's rdma.bytes_written by that same
/// run's delivered-call count.
BigStatePoint runBigStatePoint(const std::string &TypeName,
                               std::uint64_t Elems, bool Deltas,
                               const Options &Opt) {
  auto Type = makeType(TypeName);
  WorkloadSpec W;
  W.NumOps = Opt.Smoke ? 60 : 240;
  W.UpdateRatio = 1.0;
  W.UpdateMethods = {
      Type->methodId(TypeName == "lww-register" ? "write" : "add")};
  RunnerOptions RO;
  RO.Kind = RuntimeKind::Hamband;
  RO.NumNodes = 4;
  RO.Repetitions = 1;
  RO.Transport = rdma::TransportKind::Sim;
  RO.Cfg.Delta.Enabled = Deltas;
  if (Elems) {
    MethodId Add = Type->methodId("add");
    RO.PreSeed = [&, Add](runtime::HambandCluster &C) {
      std::vector<Value> Seed;
      Seed.reserve(Elems);
      for (std::uint64_t I = 0; I < Elems; ++I)
        Seed.push_back(static_cast<Value>(I));
      for (unsigned N = 0; N < RO.NumNodes; ++N)
        C.seedReducibleState(
            /*Group=*/0, /*Issuer=*/N,
            Call(Add, Seed, static_cast<ProcessId>(N), /*Req=*/0), Elems);
    };
  }
  BigStatePoint B;
  B.R = runWorkload(*Type, W, RO);
  B.BytesWritten = B.R.ClusterStats.counter("rdma.bytes_written");
  if (B.R.CompletedOps)
    B.BytesPerCall = static_cast<double>(B.BytesWritten) /
                     static_cast<double>(B.R.CompletedOps);
  return B;
}

/// One point of the paper section: a runWorkload call with the
/// parameters its figure uses, and the labels that identify it.
struct PaperPoint {
  std::string Type;
  RuntimeKind Kind = RuntimeKind::Hamband;
  unsigned Nodes = 4;
  double UpdatePct = 25;
  std::uint64_t Ops = 24000;
  std::string Variant = "base";
  runtime::HambandConfig Cfg;
  /// Node failed at 40% of issued ops.
  std::optional<unsigned> FailNode;
  /// Record the mean response per method (Figs 11b and 13b).
  bool PerMethod = false;
};

struct PaperFigure {
  const char *Name;
  std::vector<PaperPoint> Points;
};

constexpr RuntimeKind AllKinds[] = {RuntimeKind::Hamband, RuntimeKind::Msg,
                                    RuntimeKind::MuSmr};

/// Every point of Figs 8-13 and the ablations, in figure order.
std::vector<PaperFigure> paperFigures() {
  std::vector<PaperFigure> Figs;
  auto Point = [](std::string Type, RuntimeKind Kind, unsigned Nodes,
                  double UpdatePct, std::uint64_t Ops) {
    PaperPoint P;
    P.Type = std::move(Type);
    P.Kind = Kind;
    P.Nodes = Nodes;
    P.UpdatePct = UpdatePct;
    P.Ops = Ops;
    return P;
  };
  const double Ratios[] = {25, 15, 5};

  // Fig 8: reducible updates against both baselines on 4 nodes, then
  // counter node scaling (Hamband at every ratio, the baselines at 25%).
  PaperFigure &F8 = Figs.emplace_back(PaperFigure{"fig8", {}});
  for (const char *T : {"counter", "lww-register", "gset"})
    for (RuntimeKind K : AllKinds)
      for (double R : Ratios)
        F8.Points.push_back(Point(T, K, 4, R, 30000));
  for (unsigned Nodes : {3u, 5u, 7u}) {
    for (double R : Ratios)
      F8.Points.push_back(Point("counter", RuntimeKind::Hamband, Nodes, R,
                                30000));
    F8.Points.push_back(Point("counter", RuntimeKind::MuSmr, Nodes, 25, 30000));
    F8.Points.push_back(Point("counter", RuntimeKind::Msg, Nodes, 25, 30000));
  }

  // Fig 9: irreducible conflict-free updates through the F rings.
  PaperFigure &F9 = Figs.emplace_back(PaperFigure{"fig9", {}});
  for (const char *T : {"orset", "gset-buffered", "shopping-cart"})
    for (RuntimeKind K : AllKinds)
      for (double R : Ratios)
        F9.Points.push_back(Point(T, K, 4, R, 30000));

  // Fig 10: pure updates on the movie schema's two sync groups (the
  // paper's 2M/4M/8M calls, scaled down 100x).
  PaperFigure &F10 = Figs.emplace_back(PaperFigure{"fig10", {}});
  for (std::uint64_t Ops : {20000ull, 40000ull, 80000ull})
    for (RuntimeKind K : {RuntimeKind::Hamband, RuntimeKind::MuSmr})
      F10.Points.push_back(Point("movie", K, 4, 100, Ops));

  // Fig 11: the project-management schema mixes all three categories.
  PaperFigure &F11 = Figs.emplace_back(PaperFigure{"fig11", {}});
  for (double R : {50.0, 25.0, 10.0})
    for (RuntimeKind K : {RuntimeKind::Hamband, RuntimeKind::MuSmr}) {
      F11.Points.push_back(Point("project-management", K, 4, R, 24000));
      F11.Points.back().PerMethod = true;
    }

  // Fig 12: a conflict-free workload loses node 3 mid-run.
  PaperFigure &F12 = Figs.emplace_back(PaperFigure{"fig12", {}});
  for (const char *T : {"counter", "orset"})
    for (double R : Ratios)
      for (bool Failure : {false, true}) {
        PaperPoint P = Point(T, RuntimeKind::Hamband, 4, R, 24000);
        P.Variant = Failure ? "failure" : "no-failure";
        if (Failure)
          P.FailNode = 3;
        F12.Points.push_back(std::move(P));
      }

  // Fig 13: courseware with no failure, a follower failure and a failure
  // of group 0's initial leader (node 0). Detection is scaled to the
  // shortened run the way the paper's millisecond timeouts relate to its
  // runs.
  PaperFigure &F13 = Figs.emplace_back(PaperFigure{"fig13", {}});
  const std::pair<const char *, std::optional<unsigned>> Scenarios[] = {
      {"fail:none", std::nullopt}, {"fail:follower", 3}, {"fail:leader", 0}};
  for (const auto &[Variant, FailNode] : Scenarios) {
    PaperPoint P = Point("courseware", RuntimeKind::Hamband, 4, 25, 24000);
    P.Variant = Variant;
    P.FailNode = FailNode;
    P.Cfg.Heartbeat.CheckInterval = sim::micros(400);
    P.Cfg.Heartbeat.SuspectAfter = 6;
    P.PerMethod = true;
    F13.Points.push_back(std::move(P));
  }

  // Ablations of the design choices: (i) summaries vs buffers, (ii) the
  // traversal threads' poll interval.
  PaperFigure &Ab = Figs.emplace_back(PaperFigure{"ablations", {}});
  for (const char *T : {"gset", "gset-buffered"}) {
    Ab.Points.push_back(Point(T, RuntimeKind::Hamband, 4, 25, 24000));
    Ab.Points.back().Variant = "summary_vs_buffer";
  }
  for (double PollUs : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    PaperPoint P = Point("orset", RuntimeKind::Hamband, 4, 25, 24000);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "poll_us:%g", PollUs);
    P.Variant = Buf;
    P.Cfg.PollInterval = sim::micros(PollUs);
    Ab.Points.push_back(std::move(P));
  }
  return Figs;
}

RunResult runPaperPoint(const PaperPoint &P, unsigned Reps) {
  auto Type = makeType(P.Type);
  WorkloadSpec W;
  W.NumOps = P.Ops;
  W.UpdateRatio = P.UpdatePct / 100.0;
  W.FailNode = P.FailNode;
  RunnerOptions RO;
  RO.Kind = P.Kind;
  RO.NumNodes = P.Nodes;
  RO.Repetitions = Reps;
  RO.Cfg = P.Cfg;
  return runWorkload(*Type, W, RO);
}

json::Value paperPointToJson(const PaperPoint &P, const RunResult &R) {
  json::Value O = json::Value::makeObject();
  O.add("runtime", json::Value::makeString(runtimeKindName(P.Kind)));
  O.add("type", json::Value::makeString(P.Type));
  O.add("nodes", json::Value::makeUInt(P.Nodes));
  O.add("update_pct", json::Value::makeDouble(P.UpdatePct));
  O.add("ops", json::Value::makeUInt(P.Ops));
  O.add("variant", json::Value::makeString(P.Variant));
  O.add("throughput_ops_us", json::Value::makeDouble(R.ThroughputOpsPerUs));
  O.add("mean_response_us", json::Value::makeDouble(R.MeanResponseUs));
  O.add("update_response_us",
        json::Value::makeDouble(R.MeanUpdateResponseUs));
  O.add("query_response_us", json::Value::makeDouble(R.MeanQueryResponseUs));
  O.add("resp_p50_us", json::Value::makeDouble(R.P50ResponseUs));
  O.add("resp_p99_us", json::Value::makeDouble(R.P99ResponseUs));
  O.add("drain_us", json::Value::makeDouble(R.DrainUs));
  O.add("rejected", json::Value::makeUInt(R.RejectedOps));
  O.add("stale_mean", json::Value::makeDouble(R.MeanBacklogCalls));
  O.add("stale_max", json::Value::makeDouble(R.MaxBacklogCalls));
  O.add("completed", json::Value::makeBool(R.Completed));
  if (P.PerMethod) {
    json::Value M = json::Value::makeObject();
    for (const auto &[Method, S] : R.PerMethod)
      M.add(Method, json::Value::makeDouble(S.mean()));
    O.add("per_method_response_us", std::move(M));
  }
  return O;
}

/// The abstract's headline: Hamband's throughput and response ratios
/// against MSG and Mu, averaged over the conflict-free matrix of Figs 8
/// and 9 (5 types x 3 update ratios x {4, 7} nodes, 12,000 calls).
json::Value runHeadline(unsigned Reps) {
  struct Aggregate {
    double TputRatioSum = 0;
    double RespRatioSum = 0;
    unsigned Points = 0;

    void add(const RunResult &H, const RunResult &Other) {
      if (!H.Completed || !Other.Completed ||
          Other.ThroughputOpsPerUs <= 0 || H.MeanResponseUs <= 0)
        return;
      TputRatioSum += H.ThroughputOpsPerUs / Other.ThroughputOpsPerUs;
      RespRatioSum += Other.MeanResponseUs / H.MeanResponseUs;
      ++Points;
    }
    double tput() const { return Points ? TputRatioSum / Points : 0; }
    double resp() const { return Points ? RespRatioSum / Points : 0; }
  } VsMsg, VsMu;
  unsigned Cells = 0;
  for (const char *TypeName :
       {"counter", "lww-register", "gset", "orset", "shopping-cart"}) {
    auto Type = makeType(TypeName);
    for (double Ratio : {0.25, 0.15, 0.05})
      for (unsigned Nodes : {4u, 7u}) {
        WorkloadSpec W;
        W.NumOps = 12000;
        W.UpdateRatio = Ratio;
        RunResult R[3];
        for (unsigned K = 0; K < 3; ++K) {
          RunnerOptions RO;
          RO.Kind = AllKinds[K];
          RO.NumNodes = Nodes;
          RO.Repetitions = Reps;
          R[K] = runWorkload(*Type, W, RO);
        }
        VsMsg.add(R[0], R[1]);
        VsMu.add(R[0], R[2]);
        ++Cells;
      }
  }
  json::Value O = json::Value::makeObject();
  O.add("cells", json::Value::makeUInt(Cells));
  O.add("ops", json::Value::makeUInt(12000));
  O.add("tput_vs_msg", json::Value::makeDouble(VsMsg.tput()));
  O.add("tput_vs_mu", json::Value::makeDouble(VsMu.tput()));
  O.add("resp_vs_msg", json::Value::makeDouble(VsMsg.resp()));
  O.add("resp_vs_mu", json::Value::makeDouble(VsMu.resp()));
  O.add("points", json::Value::makeUInt(VsMsg.Points));
  O.add("completed",
        json::Value::makeBool(VsMsg.Points == Cells && VsMu.Points == Cells));
  std::printf("paper headline: %.1fx MSG and %.2fx Mu throughput; %.1fx "
              "lower response than MSG, %.2fx lower than Mu (%u points)\n",
              VsMsg.tput(), VsMu.tput(), VsMsg.resp(), VsMu.resp(),
              VsMsg.Points);
  return O;
}

json::Value pointToJson(const std::string &TypeName, unsigned Nodes,
                        double UpdateRatio, const RunResult &R,
                        const char *Transport = "sim") {
  json::Value O = json::Value::makeObject();
  O.add("type", json::Value::makeString(TypeName));
  O.add("transport", json::Value::makeString(Transport));
  O.add("nodes", json::Value::makeUInt(Nodes));
  O.add("update_pct", json::Value::makeDouble(UpdateRatio * 100.0));
  O.add("throughput_ops_us", json::Value::makeDouble(R.ThroughputOpsPerUs));
  O.add("mean_response_us", json::Value::makeDouble(R.MeanResponseUs));
  O.add("p50_response_us", json::Value::makeDouble(R.P50ResponseUs));
  O.add("p99_response_us", json::Value::makeDouble(R.P99ResponseUs));
  O.add("max_response_us", json::Value::makeDouble(R.MaxResponseUs));
  O.add("drain_us", json::Value::makeDouble(R.DrainUs));
  O.add("completed_ops", json::Value::makeUInt(R.CompletedOps));
  O.add("completed", json::Value::makeBool(R.Completed));
  return O;
}

/// The report's required numeric fields per figure point.
const std::vector<const char *> PointFields = {
    "throughput_ops_us", "mean_response_us", "p50_response_us",
    "p99_response_us",   "max_response_us",
};

bool finiteNonNegative(const json::Value *V) {
  return V && V->isNumber() && std::isfinite(V->asDouble()) &&
         V->asDouble() >= 0;
}

/// Requires every field in \p Fields to be a finite, non-negative number
/// and the run to have completed.
bool checkPointObject(const json::Value *P, const std::string &Name,
                      std::string &Err,
                      const std::vector<const char *> &Fields = PointFields) {
  if (!P || !P->isObject()) {
    Err = Name + " missing or not an object";
    return false;
  }
  for (const char *F : Fields)
    if (!finiteNonNegative(P->find(F))) {
      Err = Name + "." + F + " missing or not a finite number";
      return false;
    }
  const json::Value *C = P->find("completed");
  if (!C || !C->isBool() || !C->B) {
    Err = Name + " run did not complete";
    return false;
  }
  return true;
}

bool checkPoint(const json::Value &Doc, const char *Fig, std::string &Err) {
  return checkPointObject(Doc.find(Fig), Fig, Err);
}

// The report's gates (see the file header). The paper's relative claims
// (Section 5 and the abstract):
constexpr double HeadlineMinVsMsg = 17.0;
constexpr double HeadlineMinVsMu = 2.7;
constexpr double Fig10MinVsMu = 1.4;
// The extension sweeps' floors:
constexpr double MinBatchSpeedup = 1.25;    // fig8_batched / fig8
constexpr double MinShardSpeedup = 2.0;     // top shard count / 1 shard
constexpr double MinDeltaBytesFactor = 5.0; // full / delta bytes per call
constexpr double MinReconfigDuring = 0.70;  // during / steady
constexpr double MinReconfigAfter = 0.95;   // after / adjusted steady
// --compare's relative throughput tolerance.
constexpr double CompareTolerance = 0.05;

/// The paper section's figures, in report order.
const char *const PaperFigs[] = {"fig8",  "fig9",  "fig10",    "fig11",
                                 "fig12", "fig13", "ablations"};

std::string paperPointName(const char *Fig, const json::Value &P) {
  auto Str = [&P](const char *F) {
    const json::Value *V = P.find(F);
    return V && V->isString() ? V->Str : std::string("?");
  };
  auto Num = [&P](const char *F) {
    const json::Value *V = P.find(F);
    return V && V->isNumber() ? std::to_string(V->asUInt()) : "?";
  };
  return std::string("paper.") + Fig + "/" + Str("type") + "/" +
         Str("runtime") + "/nodes:" + Num("nodes") + "/upd:" +
         Num("update_pct") + "/ops:" + Num("ops") + "/" + Str("variant");
}

/// The point of \p Fig identified like \p P but with the given runtime
/// and variant, or nullptr.
const json::Value *paperTwin(const json::Value &Fig, const json::Value &P,
                             const char *Runtime, const char *Variant) {
  auto Num = [](const json::Value &X, const char *F) {
    return X.find(F)->asDouble();
  };
  for (const json::Value &Q : Fig.Arr)
    if (Q.find("runtime")->Str == Runtime &&
        Q.find("variant")->Str == Variant &&
        Q.find("type")->Str == P.find("type")->Str &&
        Num(Q, "nodes") == Num(P, "nodes") &&
        Num(Q, "update_pct") == Num(P, "update_pct") &&
        Num(Q, "ops") == Num(P, "ops"))
      return &Q;
  return nullptr;
}

double tputOf(const json::Value &P) {
  return P.find("throughput_ops_us")->asDouble();
}

/// Validates the paper section's shape, then gates its relative claims.
bool checkPaper(const json::Value &Doc, std::string &Err) {
  const json::Value *PaperP = Doc.find("paper");
  if (!PaperP) {
    Err = "paper missing";
    return false;
  }
  const json::Value &Paper = *PaperP;
  const std::vector<const char *> Fields = {
      "nodes",           "update_pct",         "ops",
      "throughput_ops_us", "mean_response_us", "update_response_us",
      "query_response_us", "resp_p50_us",      "resp_p99_us",
      "rejected",        "stale_mean",         "stale_max"};
  for (const char *F : PaperFigs) {
    const json::Value *Fig = Paper.find(F);
    if (!Fig || !Fig->isArray() || Fig->Arr.empty()) {
      Err = std::string("paper.") + F + " missing or empty";
      return false;
    }
    for (const json::Value &P : Fig->Arr) {
      std::string Name = paperPointName(F, P);
      for (const char *S : {"runtime", "type", "variant"})
        if (!P.find(S) || !P.find(S)->isString()) {
          Err = Name + " missing its " + S + " label";
          return false;
        }
      if (!checkPointObject(&P, Name, Err, Fields))
        return false;
      if (const json::Value *M = P.find("per_method_response_us"))
        for (const auto &[Method, V] : M->Obj)
          if (!finiteNonNegative(&V)) {
            Err = Name + ".per_method_response_us." + Method +
                  " not a finite number";
            return false;
          }
    }
  }
  const json::Value *Head = Paper.find("headline");
  if (!checkPointObject(Head, "paper.headline", Err,
                        {"cells", "ops", "tput_vs_msg", "tput_vs_mu",
                         "resp_vs_msg", "resp_vs_mu", "points"}))
    return false;

  // The claims. Each failure names the point that breaks it.
  double VsMsg = Head->find("tput_vs_msg")->asDouble();
  double VsMu = Head->find("tput_vs_mu")->asDouble();
  std::printf("paper headline: %.2fx MSG (floor %.1fx), %.2fx Mu (floor "
              "%.1fx) throughput\n",
              VsMsg, HeadlineMinVsMsg, VsMu, HeadlineMinVsMu);
  if (VsMsg < HeadlineMinVsMsg || VsMu < HeadlineMinVsMu) {
    Err = "paper.headline throughput ratio below the abstract's claim";
    return false;
  }
  // Figs 8 and 9: Hamband beats each baseline point it is paired with.
  for (const char *F : {"fig8", "fig9"}) {
    double MinVs[2] = {INFINITY, INFINITY};
    for (const json::Value &B : Paper.find(F)->Arr) {
      const std::string &RT = B.find("runtime")->Str;
      if (RT == "hamband")
        continue;
      const json::Value *H = paperTwin(*Paper.find(F), B, "hamband", "base");
      if (!H) {
        Err = paperPointName(F, B) + " has no hamband twin";
        return false;
      }
      if (tputOf(*H) <= tputOf(B) ||
          H->find("mean_response_us")->asDouble() >=
              B.find("mean_response_us")->asDouble()) {
        Err = paperPointName(F, *H) + " does not beat " + RT +
              " on throughput and mean response";
        return false;
      }
      double &Min = MinVs[RT == "mu"];
      Min = std::min(Min, tputOf(*H) / tputOf(B));
    }
    std::printf("paper %s: hamband ahead of every baseline point (min "
                "%.2fx MSG, %.2fx Mu throughput)\n",
                F, MinVs[0], MinVs[1]);
  }
  // Figs 10 and 11: Hamband over Mu at every size / ratio.
  for (const auto &[F, Floor] :
       {std::make_pair("fig10", Fig10MinVsMu), std::make_pair("fig11", 1.0)})
    for (const json::Value &H : Paper.find(F)->Arr) {
      if (H.find("runtime")->Str != "hamband")
        continue;
      const json::Value *Mu = paperTwin(*Paper.find(F), H, "mu", "base");
      if (!Mu || tputOf(H) <= tputOf(*Mu) ||
          tputOf(H) < Floor * tputOf(*Mu)) {
        char Buf[64];
        std::snprintf(Buf, sizeof(Buf), " not above %.1fx its mu twin",
                      Floor);
        Err = paperPointName(F, H) + Buf;
        return false;
      }
    }
  // Fig 12: a failure always costs throughput.
  for (const json::Value &P : Paper.find("fig12")->Arr) {
    if (P.find("variant")->Str != "failure")
      continue;
    const json::Value *Base =
        paperTwin(*Paper.find("fig12"), P, "hamband", "no-failure");
    if (!Base || tputOf(P) >= tputOf(*Base)) {
      Err = paperPointName("fig12", P) +
            " not below its no-failure twin's throughput";
      return false;
    }
  }
  // Fig 13: none > follower > leader.
  double Prev = INFINITY;
  for (const char *V : {"fail:none", "fail:follower", "fail:leader"}) {
    const json::Value *P = nullptr;
    for (const json::Value &Q : Paper.find("fig13")->Arr)
      if (Q.find("variant")->Str == V)
        P = &Q;
    if (!P || tputOf(*P) >= Prev) {
      Err = std::string("paper.fig13 throughput not ordered none > "
                        "follower > leader at ") +
            V;
      return false;
    }
    Prev = tputOf(*P);
  }
  std::printf("paper fig10-13: hamband >= %.1fx Mu per fig10 size, above "
              "Mu per fig11 ratio; failures cost throughput (fig12, fig13 "
              "none > follower > leader)\n",
              Fig10MinVsMu);
  return true;
}

bool loadDoc(const std::string &Path, json::Value &Doc, std::string &Err) {
  std::ifstream IS(Path);
  if (!IS) {
    Err = "cannot open " + Path;
    return false;
  }
  std::stringstream SS;
  SS << IS.rdbuf();
  if (!json::parse(SS.str(), Doc)) {
    Err = "malformed JSON in " + Path;
    return false;
  }
  const json::Value *Schema = Doc.find("schema");
  if (!Schema || !Schema->isString() || Schema->Str != "hamband-bench-v1") {
    Err = "bad or missing schema tag in " + Path;
    return false;
  }
  return true;
}

/// PointFields followed by \p Extra.
std::vector<const char *> pointFieldsAnd(std::vector<const char *> Extra) {
  Extra.insert(Extra.begin(), PointFields.begin(), PointFields.end());
  return Extra;
}

/// The array at \p Doc.Sec.Key, or nullptr when it is missing or empty.
const json::Value *sweepArray(const json::Value &Doc, const char *Sec,
                              const char *Key) {
  const json::Value *S = Doc.find(Sec);
  const json::Value *A = S ? S->find(Key) : nullptr;
  return A && A->isArray() && !A->Arr.empty() ? A : nullptr;
}

/// fig8_batched: a sound point with at least MinBatchSpeedup times fig8's
/// throughput.
bool checkBatching(const json::Value &Doc, std::string &Err) {
  if (!checkPoint(Doc, "fig8_batched", Err))
    return false;
  double Base = tputOf(*Doc.find("fig8"));
  double Batched = tputOf(*Doc.find("fig8_batched"));
  double Speedup = Base > 0 ? Batched / Base : 0;
  std::printf("fig8 batching speedup: %.2fx (batched %.4f / unbatched "
              "%.4f ops/us, floor %.2fx)\n",
              Speedup, Batched, Base, MinBatchSpeedup);
  if (Speedup < MinBatchSpeedup) {
    Err = "batching speedup below floor";
    return false;
  }
  return true;
}

/// fig_shard: sound points with positive shard counts, including a 1-shard
/// baseline and a multi-shard point, and a sound zipf companion. The top
/// shard count's throughput must be at least MinShardSpeedup times the
/// 1-shard point's.
bool checkShardSweep(const json::Value &Doc, std::string &Err) {
  const json::Value *Points = sweepArray(Doc, "fig_shard", "points");
  if (!Points) {
    Err = "fig_shard.points missing or empty";
    return false;
  }
  const std::vector<const char *> Fields = pointFieldsAnd({"shards"});
  double Shard1Tput = 0, TopTput = 0;
  std::uint64_t TopShards = 0;
  for (std::size_t I = 0; I < Points->Arr.size(); ++I) {
    const json::Value &P = Points->Arr[I];
    std::string Name = "fig_shard.points[" + std::to_string(I) + "]";
    if (!checkPointObject(&P, Name, Err, Fields))
      return false;
    std::uint64_t Shards = P.find("shards")->asUInt();
    if (Shards == 0) {
      Err = Name + ".shards not positive";
      return false;
    }
    if (Shards == 1)
      Shard1Tput = tputOf(P);
    if (Shards >= TopShards) {
      TopShards = Shards;
      TopTput = tputOf(P);
    }
  }
  if (!checkPointObject(Doc.find("fig_shard")->find("zipf"), "fig_shard.zipf",
                        Err, Fields))
    return false;
  if (Shard1Tput <= 0 || TopShards < 2) {
    Err = "fig_shard needs a 1-shard baseline and a multi-shard point";
    return false;
  }
  double Speedup = TopTput / Shard1Tput;
  std::printf("fig_shard speedup: %.2fx (%llu shards %.4f / 1 shard %.4f "
              "ops/us, floor %.2fx)\n",
              Speedup, static_cast<unsigned long long>(TopShards), TopTput,
              Shard1Tput, MinShardSpeedup);
  if (Speedup < MinShardSpeedup) {
    Err = "shard speedup below floor";
    return false;
  }
  return true;
}

/// fig_bigstate: every entry carries a sound full-image point and a sound
/// delta point, each with a positive bytes_per_call, and their ratio as
/// bytes_factor. At least one entry is gated, and every gated entry's
/// factor must be at least MinDeltaBytesFactor.
bool checkBigState(const json::Value &Doc, std::string &Err) {
  const json::Value *Entries = sweepArray(Doc, "fig_bigstate", "types");
  if (!Entries) {
    Err = "fig_bigstate.types missing or empty";
    return false;
  }
  const std::vector<const char *> Fields = pointFieldsAnd({"bytes_per_call"});
  unsigned Gated = 0;
  for (const json::Value &E : Entries->Arr) {
    const json::Value *TN = E.find("type");
    const json::Value *G = E.find("gated");
    std::string Name = "fig_bigstate." +
                       (TN && TN->isString() ? TN->Str : std::string("?"));
    if (!TN || !TN->isString() || !G || !G->isBool()) {
      Err = Name + " entry missing type or gated flag";
      return false;
    }
    for (const char *Mode : {"full", "delta"}) {
      const json::Value *P = E.find(Mode);
      if (!checkPointObject(P, Name + "." + Mode, Err, Fields))
        return false;
      if (P->find("bytes_per_call")->asDouble() <= 0) {
        Err = Name + "." + Mode + ".bytes_per_call not positive";
        return false;
      }
    }
    const json::Value *F = E.find("bytes_factor");
    if (!finiteNonNegative(F)) {
      Err = Name + ".bytes_factor missing or not a finite number";
      return false;
    }
    std::printf("fig_bigstate %s: full/delta bytes-per-call factor %.2fx "
                "(%s, floor %.2fx)\n",
                TN->Str.c_str(), F->asDouble(),
                G->B ? "gated" : "ungated contrast", MinDeltaBytesFactor);
    if (G->B && F->asDouble() < MinDeltaBytesFactor) {
      Err = "fig_bigstate " + TN->Str + " delta bytes reduction below floor";
      return false;
    }
    Gated += G->B;
  }
  if (!Gated) {
    Err = "fig_bigstate has no gated entry";
    return false;
  }
  return true;
}

/// fig_reconfig: every point is a sound figure point with an add/remove
/// action whose transition installed. It must keep MinReconfigDuring of
/// its steady throughput during the transition and MinReconfigAfter of the
/// capacity-adjusted steady rate after it.
bool checkReconfig(const json::Value &Doc, std::string &Err) {
  const json::Value *Points = sweepArray(Doc, "fig_reconfig", "points");
  if (!Points) {
    Err = "fig_reconfig.points missing or empty";
    return false;
  }
  const std::vector<const char *> Fields = pointFieldsAnd(
      {"steady_tput_ops_us", "during_tput_ops_us", "after_tput_ops_us",
       "transition_us", "serving_before", "serving_after"});
  for (const json::Value &P : Points->Arr) {
    const json::Value *Act = P.find("action");
    if (!Act || !Act->isString() ||
        (Act->Str != "add" && Act->Str != "remove")) {
      Err = "fig_reconfig point missing an add/remove action";
      return false;
    }
    std::string Name = "fig_reconfig." + Act->Str;
    if (!checkPointObject(&P, Name, Err, Fields))
      return false;
    const json::Value *Inst = P.find("installed");
    if (!Inst || !Inst->isBool() || !Inst->B) {
      Err = Name + " transition did not install";
      return false;
    }
    double Steady = P.find("steady_tput_ops_us")->asDouble();
    double During = P.find("during_tput_ops_us")->asDouble();
    double After = P.find("after_tput_ops_us")->asDouble();
    double Before = P.find("serving_before")->asDouble();
    double Now = P.find("serving_after")->asDouble();
    // A removal takes serving capacity with it, so the after-phase floor
    // scales by the capacity ratio (capped at 1: an addition must at least
    // hold the steady rate, not multiply it -- per-node costs grow with
    // the replica count).
    double Capacity = Before > 0 ? std::min(1.0, Now / Before) : 1.0;
    double DuringR = Steady > 0 ? During / Steady : 0;
    double AfterR = Steady > 0 ? After / (Steady * Capacity) : 0;
    std::printf("fig_reconfig %s: during-transition retention %.0f%% "
                "(%.4f / %.4f ops/us, floor %.0f%%), after %.0f%% of the "
                "capacity-adjusted steady rate (x%.2f, floor %.0f%%)\n",
                Act->Str.c_str(), DuringR * 100.0, During, Steady,
                MinReconfigDuring * 100.0, AfterR * 100.0, Capacity,
                MinReconfigAfter * 100.0);
    if (Steady <= 0 || DuringR < MinReconfigDuring ||
        AfterR < MinReconfigAfter) {
      Err = "fig_reconfig " + Act->Str + " throughput retention below floor";
      return false;
    }
  }
  return true;
}

/// The embedded stats snapshot must round-trip as hamband-stats-v1.
bool checkStats(const json::Value &Doc, std::string &Err) {
  const json::Value *Stats = Doc.find("stats");
  obs::StatsSnapshot S;
  if (!Stats || !obs::StatsSnapshot::fromJson(Stats->write(), S)) {
    Err = "embedded stats snapshot missing or not a valid hamband-stats-v1 "
          "document";
    return false;
  }
  return true;
}

/// The wall-clock shm points are validated when present: --transport sim
/// omits them, and no floor applies to them.
bool checkShm(const json::Value &Doc, std::string &Err) {
  for (const char *Fig : {"fig8_shm", "fig8_shm_batched"})
    if (Doc.find(Fig) && !checkPoint(Doc, Fig, Err))
      return false;
  return true;
}

int checkMode(const Options &Opt) {
  json::Value Doc;
  std::string Err;
  if (!loadDoc(Opt.CheckFile, Doc, Err) || !checkPoint(Doc, "fig8", Err) ||
      !checkPoint(Doc, "fig9", Err) || !checkBatching(Doc, Err) ||
      !checkShm(Doc, Err) || !checkPaper(Doc, Err) ||
      !checkShardSweep(Doc, Err) || !checkBigState(Doc, Err) ||
      !checkReconfig(Doc, Err) || !checkStats(Doc, Err)) {
    std::fprintf(stderr, "check failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("%s: ok\n", Opt.CheckFile.c_str());
  return 0;
}

/// Every simulated-time point of a report, named as --compare prints it:
/// fig8, fig8_batched, fig9, fig_shard/shards=<N> per sweep point,
/// fig_shard/zipf, fig_bigstate/<type>/<full|delta>, fig_reconfig/<action>
/// and every paper point by paperPointName. A missing point, and a missing
/// or empty sweep array (by its path, e.g. fig_shard.points), stands as its
/// name with no value.
std::vector<std::pair<std::string, const json::Value *>>
simPoints(const json::Value &Doc) {
  std::vector<std::pair<std::string, const json::Value *>> Out;
  auto Label = [](const json::Value &P, const char *F) {
    const json::Value *V = P.find(F);
    return V && V->isString() ? V->Str : std::string("?");
  };
  auto Each = [&](const char *Sec, const char *Key, auto Add) {
    if (const json::Value *A = sweepArray(Doc, Sec, Key))
      for (const json::Value &P : A->Arr)
        Add(P);
    else
      Out.emplace_back(std::string(Sec) + "." + Key, nullptr);
  };
  for (const char *Sec : {"fig8", "fig8_batched", "fig9"})
    Out.emplace_back(Sec, Doc.find(Sec));
  Each("fig_shard", "points", [&](const json::Value &P) {
    const json::Value *S = P.find("shards");
    Out.emplace_back("fig_shard/shards=" + std::to_string(S ? S->asUInt() : 0),
                     &P);
  });
  const json::Value *Shard = Doc.find("fig_shard");
  Out.emplace_back("fig_shard/zipf", Shard ? Shard->find("zipf") : nullptr);
  Each("fig_bigstate", "types", [&](const json::Value &E) {
    for (const char *Mode : {"full", "delta"})
      Out.emplace_back("fig_bigstate/" + Label(E, "type") + "/" + Mode,
                       E.find(Mode));
  });
  Each("fig_reconfig", "points", [&](const json::Value &P) {
    Out.emplace_back("fig_reconfig/" + Label(P, "action"), &P);
  });
  for (const char *F : PaperFigs)
    Each("paper", F, [&](const json::Value &P) {
      Out.emplace_back(paperPointName(F, P), &P);
    });
  return Out;
}

int compareMode(const Options &Opt) {
  const std::string Paths[2] = {Opt.CompareA, Opt.CompareB};
  json::Value Docs[2];
  std::string Err;
  if (!loadDoc(Paths[0], Docs[0], Err) || !loadDoc(Paths[1], Docs[1], Err)) {
    std::fprintf(stderr, "compare failed: %s\n", Err.c_str());
    return 1;
  }
  // Every point either report carries must be in both, once: one missing
  // on either side reads as throughput 0 and fails, and a name that occurs
  // twice in one report fails rather than hide one of its points.
  std::map<std::string, std::array<std::optional<double>, 2>> Points;
  bool Ok = true;
  for (int I = 0; I < 2; ++I)
    for (const auto &[Name, P] : simPoints(Docs[I])) {
      std::optional<double> &X = Points[Name][I];
      if (X) {
        std::fprintf(stderr, "compare failed: %s occurs twice in %s\n",
                     Name.c_str(), Paths[I].c_str());
        Ok = false;
      }
      const json::Value *T = P ? P->find("throughput_ops_us") : nullptr;
      X = T ? T->asDouble() : 0.0;
    }
  for (const auto &[Name, X] : Points) {
    double XA = X[0].value_or(0), XB = X[1].value_or(0);
    if (XA <= 0 || XB <= 0) {
      std::fprintf(stderr,
                   "compare failed: %s missing or non-positive "
                   "throughput\n",
                   Name.c_str());
      Ok = false;
      continue;
    }
    double Rel = std::fabs(XA - XB) / XB;
    std::printf("%s throughput: %s=%.4f %s=%.4f relative diff %.2f%% "
                "(tolerance %.2f%%)\n",
                Name.c_str(), Paths[0].c_str(), XA, Paths[1].c_str(), XB,
                Rel * 100.0, CompareTolerance * 100.0);
    if (Rel > CompareTolerance) {
      std::fprintf(stderr, "compare failed: %s outside tolerance\n",
                   Name.c_str());
      Ok = false;
    }
  }
  return Ok ? 0 : 1;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--ops N] [--reps N] [--smoke] [--out FILE]\n"
               "          [--transport sim|shm|both]\n"
               "       %s --check FILE\n"
               "       %s --compare A.json B.json\n",
               Argv0, Argv0, Argv0);
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
    if (A == "--ops" && (V = Next()))
      Opt.Ops = std::strtoull(V, nullptr, 10);
    else if (A == "--reps" && (V = Next()))
      Opt.Reps = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
    else if (A == "--smoke")
      Opt.Smoke = true;
    else if (A == "--out" && (V = Next()))
      Opt.Out = V;
    else if (A == "--check" && (V = Next()))
      Opt.CheckFile = V;
    else if (A == "--transport" && (V = Next()))
      Opt.Transport = V;
    else if (A == "--compare") {
      const char *VA = Next();
      const char *VB = Next();
      if (!VA || !VB)
        return usage(Argv[0]);
      Opt.CompareA = VA;
      Opt.CompareB = VB;
    } else
      return usage(Argv[0]);
  }
  if (Opt.Smoke)
    Opt.Ops = std::min<std::uint64_t>(Opt.Ops, 600);

  if (!Opt.CheckFile.empty())
    return checkMode(Opt);
  if (!Opt.CompareA.empty())
    return compareMode(Opt);
  if (Opt.Transport != "sim" && Opt.Transport != "shm" &&
      Opt.Transport != "both") {
    std::fprintf(stderr, "error: --transport must be sim, shm, or both\n");
    return 2;
  }
  const bool RunSim = Opt.Transport != "shm";
  const bool RunShm = Opt.Transport != "sim";

  json::Value Doc = json::Value::makeObject();
  Doc.add("schema", json::Value::makeString("hamband-bench-v1"));
  Doc.add("ops", json::Value::makeUInt(Opt.Ops));
  Doc.add("reps", json::Value::makeUInt(std::max(1u, Opt.Reps)));

  double SimTput = 0, SimBTput = 0, Fig9P99 = 0;
  if (RunSim) {
    // Fig8 point: reducible updates (counter), 4 nodes, 25% update ratio
    // -- the headline throughput configuration -- plus the same point
    // with the call-batching layer enabled. Fig9 point: irreducible
    // conflict-free updates through the F rings (ORSet), same shape.
    RunResult Fig8 = runFigPoint("counter", 4, 0.25, Opt);
    RunResult Fig8B = runFigPoint("counter", 4, 0.25, Opt, true);
    RunResult Fig9 = runFigPoint("orset", 4, 0.25, Opt);
    SimTput = Fig8.ThroughputOpsPerUs;
    SimBTput = Fig8B.ThroughputOpsPerUs;
    Fig9P99 = Fig9.P99ResponseUs;
    Doc.add("fig8", pointToJson("counter", 4, 0.25, Fig8));
    json::Value Fig8BJson = pointToJson("counter", 4, 0.25, Fig8B);
    Fig8BJson.add("batched", json::Value::makeBool(true));
    Doc.add("fig8_batched", std::move(Fig8BJson));
    Doc.add("fig9", pointToJson("orset", 4, 0.25, Fig9));

    // Embed the fig9 run's merged snapshot so a report carries the
    // runtime's own counters and node histograms next to the driver's
    // figures.
    json::Value Stats;
    if (json::parse(Fig9.ClusterStats.toJson(), Stats))
      Doc.add("stats", std::move(Stats));

    // fig_shard: keyspace scaling sweep plus one zipfian hot-key
    // companion at the top shard count.
    {
      const std::uint64_t Objects =
          Opt.Smoke ? SmokeShardObjects : ShardObjects;
      json::Value Sweep = json::Value::makeObject();
      Sweep.add("type", json::Value::makeString("movie"));
      Sweep.add("nodes", json::Value::makeUInt(4));
      Sweep.add("objects", json::Value::makeUInt(Objects));
      auto ShardJson = [&](unsigned S, double Skew) {
        json::Value PJ =
            pointToJson("movie", 4, 1.0, runShardPoint(S, Skew, Objects, Opt));
        PJ.add("shards", json::Value::makeUInt(S));
        PJ.add("objects", json::Value::makeUInt(Objects));
        PJ.add("zipf_skew", json::Value::makeDouble(Skew));
        return PJ;
      };
      json::Value Points = json::Value::makeArray();
      for (unsigned S : ShardCounts)
        Points.Arr.push_back(ShardJson(S, 0.0));
      double Shard1Tput = tputOf(Points.Arr.front());
      double TopTput = tputOf(Points.Arr.back());
      Sweep.add("points", std::move(Points));
      const unsigned TopShards = ShardCounts[std::size(ShardCounts) - 1];
      Sweep.add("zipf", ShardJson(TopShards, 0.99));
      Doc.add("fig_shard", std::move(Sweep));
      if (Shard1Tput > 0)
        std::printf("fig_shard: %.4f ops/us at 1 shard, %.4f at %u shards "
                    "(%.2fx)\n",
                    Shard1Tput, TopTput, TopShards, TopTput / Shard1Tput);
    }

    // fig_bigstate: bytes shipped per delivered call with a big resident
    // state, full-image mode vs delta mode, per reducible set type. The
    // lww-register entry has a constant-size image and is the ungated
    // contrast case.
    {
      struct BigCase {
        const char *Type;
        bool Seeded;
        bool Gated;
      };
      const BigCase Cases[] = {
          {"gset", true, true},
          {"two-phase-set", true, true},
          {"lww-register", false, false},
      };
      const std::uint64_t SeedElems = Opt.Smoke ? SmokeBigElems : BigElems;
      json::Value Big = json::Value::makeObject();
      Big.add("nodes", json::Value::makeUInt(4));
      Big.add("elements", json::Value::makeUInt(SeedElems));
      json::Value Entries = json::Value::makeArray();
      for (const BigCase &BC : Cases) {
        std::uint64_t Elems = BC.Seeded ? SeedElems : 0;
        BigStatePoint Full = runBigStatePoint(BC.Type, Elems, false, Opt);
        BigStatePoint Delta = runBigStatePoint(BC.Type, Elems, true, Opt);
        json::Value E = json::Value::makeObject();
        E.add("type", json::Value::makeString(BC.Type));
        E.add("gated", json::Value::makeBool(BC.Gated));
        E.add("seeded_elements", json::Value::makeUInt(Elems));
        for (const auto &Mode :
             {std::make_pair("full", &Full), std::make_pair("delta", &Delta)}) {
          json::Value PJ = pointToJson(BC.Type, 4, 1.0, Mode.second->R);
          PJ.add("deltas", json::Value::makeBool(Mode.second == &Delta));
          PJ.add("bytes_written",
                 json::Value::makeUInt(Mode.second->BytesWritten));
          PJ.add("bytes_per_call",
                 json::Value::makeDouble(Mode.second->BytesPerCall));
          E.add(Mode.first, std::move(PJ));
        }
        double Factor = Delta.BytesPerCall > 0
                            ? Full.BytesPerCall / Delta.BytesPerCall
                            : 0;
        E.add("bytes_factor", json::Value::makeDouble(Factor));
        std::printf("fig_bigstate %s: %.0f B/call full-image, %.0f B/call "
                    "delta (%.2fx%s)\n",
                    BC.Type, Full.BytesPerCall, Delta.BytesPerCall, Factor,
                    BC.Gated ? "" : ", ungated contrast");
        Entries.Arr.push_back(std::move(E));
      }
      Big.add("types", std::move(Entries));
      Doc.add("fig_bigstate", std::move(Big));
    }

    // fig_reconfig: throughput retention across an online membership
    // transition, one point per direction.
    {
      json::Value Rec = json::Value::makeObject();
      Rec.add("type", json::Value::makeString("counter"));
      Rec.add("nodes", json::Value::makeUInt(4));
      Rec.add("at_fraction",
              json::Value::makeDouble(RunnerOptions::ReconfigAtFraction));
      json::Value Points = json::Value::makeArray();
      for (const char *Action : {"add", "remove"}) {
        RunResult P = runReconfigPoint(Action, Opt);
        bool IsAdd = std::strcmp(Action, "add") == 0;
        json::Value J = pointToJson("counter", 4, 0.25, P);
        J.add("action", json::Value::makeString(Action));
        // Serving-node counts around the transition: the after-phase
        // gate scales its floor by the capacity change for removals.
        J.add("serving_before", json::Value::makeUInt(IsAdd ? 3 : 4));
        J.add("serving_after", json::Value::makeUInt(IsAdd ? 4 : 3));
        J.add("steady_tput_ops_us",
              json::Value::makeDouble(P.SteadyThroughputOpsPerUs));
        J.add("during_tput_ops_us",
              json::Value::makeDouble(P.DuringThroughputOpsPerUs));
        J.add("after_tput_ops_us",
              json::Value::makeDouble(P.AfterThroughputOpsPerUs));
        J.add("transition_us", json::Value::makeDouble(P.TransitionUs));
        J.add("installed", json::Value::makeBool(P.ReconfigInstalled));
        J.add("wrong_epoch_retries",
              json::Value::makeUInt(P.WrongEpochRetries));
        std::printf("fig_reconfig %s: steady %.4f, during %.4f, after "
                    "%.4f ops/us across a %.0f us transition (%llu "
                    "closed-epoch retries)\n",
                    Action, P.SteadyThroughputOpsPerUs,
                    P.DuringThroughputOpsPerUs,
                    P.AfterThroughputOpsPerUs, P.TransitionUs,
                    static_cast<unsigned long long>(P.WrongEpochRetries));
        Points.Arr.push_back(std::move(J));
      }
      Rec.add("points", std::move(Points));
      Doc.add("fig_reconfig", std::move(Rec));
    }

    // The paper section: every figure point, then the headline aggregate.
    {
      json::Value Paper = json::Value::makeObject();
      for (const PaperFigure &F : paperFigures()) {
        json::Value Points = json::Value::makeArray();
        for (const PaperPoint &P : F.Points)
          Points.Arr.push_back(paperPointToJson(P, runPaperPoint(P, Opt.Reps)));
        Paper.add(F.Name, std::move(Points));
      }
      Paper.add("headline", runHeadline(Opt.Reps));
      Doc.add("paper", std::move(Paper));
    }
  }

  double ShmTput = 0, ShmBTput = 0;
  if (RunShm) {
    // The same fig8 point on real threads over real shared memory:
    // throughput here is wall-clock operations per microsecond on this
    // host, measured over the exact protocol code the simulator runs.
    RunResult Shm = runFigPoint("counter", 4, 0.25, Opt, false,
                                rdma::TransportKind::Shm);
    RunResult ShmB = runFigPoint("counter", 4, 0.25, Opt, true,
                                 rdma::TransportKind::Shm);
    ShmTput = Shm.ThroughputOpsPerUs;
    ShmBTput = ShmB.ThroughputOpsPerUs;
    Doc.add("fig8_shm", pointToJson("counter", 4, 0.25, Shm, "shm"));
    json::Value ShmBJson = pointToJson("counter", 4, 0.25, ShmB, "shm");
    ShmBJson.add("batched", json::Value::makeBool(true));
    Doc.add("fig8_shm_batched", std::move(ShmBJson));
  }

  std::string Text = Doc.write();
  Text += "\n";
  if (Opt.Out.empty()) {
    std::fputs(Text.c_str(), stdout);
  } else {
    std::ofstream OS(Opt.Out);
    OS << Text;
    if (!OS) {
      std::fprintf(stderr, "error: cannot write %s\n", Opt.Out.c_str());
      return 1;
    }
    if (RunSim)
      std::printf("wrote %s (fig8 tput %.4f ops/us, batched %.4f ops/us, "
                  "fig9 p99 %.2f us)\n",
                  Opt.Out.c_str(), SimTput, SimBTput, Fig9P99);
    if (RunShm)
      std::printf("wrote %s (fig8_shm wall-clock tput %.4f ops/us, "
                  "batched %.4f ops/us)\n",
                  Opt.Out.c_str(), ShmTput, ShmBTput);
  }
  return 0;
}
