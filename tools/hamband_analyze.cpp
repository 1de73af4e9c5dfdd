//===- tools/hamband_analyze.cpp - Coordination analysis CLI ------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line coordination analyzer: prints, for a registered data type
/// (or all of them), the Section 3.3 analysis a Hamband deployment is
/// built from -- method categories, the conflict graph and its
/// synchronization groups, dependency sets, summarization groups. --check
/// adds the bounded-exhaustive verifier's one-line verdict on the declared
/// spec and runs the bounded model checker; --verify prints the
/// verifier's full report with certified counterexamples (see
/// docs/analysis.md for the hamband-analysis-v1 JSON schema emitted under
/// --json).
///
/// Usage:  hamband_analyze [--check] [--verify] [--bound N] [--json]
///                         [type-name | all]
///
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"
#include "hamband/core/Verifier.h"
#include "hamband/semantics/ModelChecker.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace hamband;

namespace {

/// The one-line verdict of a verification report.
std::string verdict(const analysis::VerifyReport &R) {
  return std::string(R.sound() ? "sound" : "UNSOUND") + ", " +
         (R.minimal() ? "minimal" : "over-coordinated");
}

void printType(const ObjectType &T, bool RunChecks, unsigned Bound) {
  const CoordinationSpec &S = T.coordination();
  std::printf("== %s ==\n", T.name().c_str());
  std::printf("%-18s %-26s %s\n", "method", "category", "details");
  for (MethodId M = 0; M < T.numMethods(); ++M) {
    std::string Details;
    if (auto G = S.syncGroup(M))
      Details += "sync-group " + std::to_string(*G) + " ";
    if (auto G = S.sumGroup(M))
      Details += "sum-group " + std::to_string(*G) + " ";
    const auto &Deps = S.dependencies(M);
    if (!Deps.empty()) {
      Details += "dep on {";
      for (std::size_t I = 0; I < Deps.size(); ++I)
        Details +=
            (I ? ", " : "") + std::string(T.method(Deps[I]).Name);
      Details += "} ";
    }
    std::printf("%-18s %-26s %s\n", T.method(M).Name.c_str(),
                categoryName(S.category(M)), Details.c_str());
  }

  std::printf("conflict edges:");
  bool Any = false;
  for (MethodId A = 0; A < T.numMethods(); ++A)
    for (MethodId B = A; B < T.numMethods(); ++B)
      if (S.conflicts(A, B)) {
        std::printf(" (%s, %s)", T.method(A).Name.c_str(),
                    T.method(B).Name.c_str());
        Any = true;
      }
  std::printf(Any ? "\n" : " none\n");
  std::printf("synchronization groups: %u, summarization groups: %u\n",
              S.numSyncGroups(), S.numSumGroups());

  if (!RunChecks) {
    std::printf("\n");
    return;
  }

  analysis::VerifierOptions VOpts;
  VOpts.Bound = Bound;
  analysis::VerifyReport V = analysis::verifyType(T, VOpts);
  std::printf("verifying declared spec at bound %u... %s\n", V.Bound,
              verdict(V).c_str());

  std::printf("model checking all interleavings (2 processes, 1 call "
              "per method)... ");
  semantics::ModelCheckOptions Opts;
  semantics::ModelCheckResult R = semantics::modelCheck(
      T, semantics::defaultBudget(T, Opts.NumProcesses, 1), Opts);
  if (R.Ok)
    std::printf("ok (%llu configurations, %llu leaves)\n",
                static_cast<unsigned long long>(R.Configurations),
                static_cast<unsigned long long>(R.QuiescentLeaves));
  else
    std::printf("FAILED:\n%s\n", R.Error.c_str());
  std::printf("\n");
}

/// Renders one verification report as text. Returns false on a soundness
/// violation (a witnessed-but-undeclared edge or a summarization failure).
bool printVerifyReport(const analysis::VerifyReport &R) {
  std::printf("== %s (bound %u) ==\n", R.TypeName.c_str(), R.Bound);
  std::printf("states explored: %llu%s\n",
              static_cast<unsigned long long>(R.StatesExplored),
              R.Exhausted ? "" : " (truncated; freedom claims partial)");
  for (const analysis::EdgeFinding &F : R.Conflicts) {
    std::printf("conflict (%s, %s): declared=%s witnessed=%s\n",
                F.AName.c_str(), F.BName.c_str(), F.Declared ? "yes" : "no",
                F.Witnessed ? "yes" : "no");
    for (const analysis::CounterexampleTrace &T : F.Witnesses)
      std::printf("  witness: %s\n", T.str().c_str());
  }
  for (const analysis::EdgeFinding &F : R.Dependencies) {
    std::printf("dependency %s -> %s: declared=%s witnessed=%s%s\n",
                F.AName.c_str(), F.BName.c_str(), F.Declared ? "yes" : "no",
                F.Witnessed ? "yes" : "no", F.Causal ? " (causal)" : "");
    for (const analysis::CounterexampleTrace &T : F.Witnesses)
      std::printf("  witness: %s\n", T.str().c_str());
  }
  for (const std::string &S : R.SoundnessViolations)
    std::printf("SOUNDNESS VIOLATION: %s\n", S.c_str());
  for (const std::string &S : R.SummarizationViolations)
    std::printf("SUMMARIZATION VIOLATION: %s\n", S.c_str());
  for (const std::string &S : R.SpuriousEdges)
    std::printf("warning: %s\n", S.c_str());
  std::printf("verdict: %s\n\n", verdict(R).c_str());
  return R.sound();
}

/// Renders one keyed-lift report as text. Returns the overall gate:
/// relations preserved per key and the lift itself sound at its bound.
bool printKeyedLiftReport(const analysis::KeyedLiftReport &R) {
  std::printf("== %s -> %s (keyed lift, bound %u) ==\n", R.BaseName.c_str(),
              R.LiftName.c_str(), R.Bound);
  std::printf("states explored: %llu\n",
              static_cast<unsigned long long>(R.StatesExplored));
  for (const std::string &S : R.DroppedSummarizations)
    std::printf("note: summarization dropped for '%s' (reducible -> "
                "irreducible-free; keyed summaries do not fit one slot)\n",
                S.c_str());
  for (const std::string &S : R.Issues)
    std::printf("LIFT VIOLATION: %s\n", S.c_str());
  for (const std::string &S : R.LiftViolations)
    std::printf("LIFT UNSOUND: %s\n", S.c_str());
  std::printf("verdict: %s, lift %s\n\n",
              R.preserved() ? "relations preserved" : "RELATIONS CHANGED",
              R.LiftSound ? "sound" : "UNSOUND");
  return R.ok();
}

/// Runs the bounded-exhaustive verifier over \p Names, plus the keyed-lift
/// preservation check for each base type. Text mode streams per-type
/// reports; JSON mode emits one hamband-analysis-v1 envelope (with a
/// "keyed_lifts" array). Exit status is nonzero iff some type is unsound
/// at the bound or some keyed lift changes a relation; spurious
/// (over-coordination) edges only warn.
int runVerify(const std::vector<std::string> &Names, unsigned Bound,
              bool Json) {
  analysis::VerifierOptions Opts;
  Opts.Bound = Bound;
  bool AllSound = true;
  obs::json::Value Types = obs::json::Value::makeArray();
  obs::json::Value Lifts = obs::json::Value::makeArray();
  for (const std::string &N : Names) {
    analysis::VerifyReport R = analysis::verifyType(*makeType(N), Opts);
    AllSound &= R.sound();
    if (Json)
      Types.Arr.push_back(analysis::reportToJson(R));
    else
      printVerifyReport(R);
  }
  for (const std::string &N : Names) {
    analysis::KeyedLiftReport R = analysis::verifyKeyedLift(N, Opts);
    AllSound &= R.ok();
    if (Json)
      Lifts.Arr.push_back(analysis::keyedLiftReportToJson(R));
    else
      printKeyedLiftReport(R);
  }
  if (Json) {
    obs::json::Value Env = obs::json::Value::makeObject();
    Env.add("schema", obs::json::Value::makeString("hamband-analysis-v1"));
    Env.add("bound", obs::json::Value::makeUInt(Bound));
    Env.add("types", std::move(Types));
    Env.add("keyed_lifts", std::move(Lifts));
    std::printf("%s\n", Env.write().c_str());
  }
  return AllSound ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  bool RunChecks = false;
  bool RunVerify = false;
  bool Json = false;
  unsigned Bound = analysis::DefaultVerifyBound;
  std::string Name = "all";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--check") == 0)
      RunChecks = true;
    else if (std::strcmp(argv[I], "--verify") == 0)
      RunVerify = true;
    else if (std::strcmp(argv[I], "--json") == 0)
      Json = true;
    else if (std::strcmp(argv[I], "--bound") == 0 && I + 1 < argc)
      Bound = static_cast<unsigned>(std::atoi(argv[++I]));
    else
      Name = argv[I];
  }

  std::vector<std::string> Names;
  if (Name == "all") {
    Names = registeredTypeNames();
  } else if (isTypeRegistered(Name)) {
    Names.push_back(Name);
  } else {
    std::fprintf(stderr, "error: unknown type '%s'; registered:\n",
                 Name.c_str());
    for (const std::string &N : registeredTypeNames())
      std::fprintf(stderr, "  %s\n", N.c_str());
    return 1;
  }

  if (RunVerify)
    return runVerify(Names, Bound, Json);
  for (const std::string &N : Names)
    printType(*makeType(N), RunChecks, Bound);
  return 0;
}
