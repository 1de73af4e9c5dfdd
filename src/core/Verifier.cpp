//===- core/Verifier.cpp - Bounded-exhaustive verifier ---------------------=//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/Verifier.h"
#include "hamband/core/TypeRegistry.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <unordered_map>

using namespace hamband;
using namespace hamband::analysis;
using JV = hamband::obs::json::Value;

const char *analysis::relationName(RelationKind K) {
  switch (K) {
  case RelationKind::SCommute:
    return "s-commute";
  case RelationKind::InvariantSufficiency:
    return "invariant-sufficiency";
  case RelationKind::PRightCommute:
    return "p-right-commute";
  case RelationKind::PLeftCommute:
    return "p-left-commute";
  }
  return "unknown";
}

std::string CounterexampleTrace::str() const {
  std::ostringstream OS;
  OS << "[" << relationName(Kind) << "] ";
  if (Path.empty()) {
    OS << "at the initial state";
  } else {
    OS << "after ";
    for (std::size_t I = 0; I < Path.size(); ++I)
      OS << (I ? "; " : "") << Path[I].str();
  }
  OS << " (state " << State << "): ";
  if (HasC2)
    OS << "calls (" << C1.str() << ", " << C2.str() << "): ";
  else
    OS << "call " << C1.str() << ": ";
  OS << Detail;
  return OS.str();
}

// -- Reachability ------------------------------------------------------------

namespace {

/// One explored state with its BFS predecessor link.
struct VNode {
  StatePtr State;
  std::int32_t Parent = -1;
  Call Via; ///< Effect call that produced this state; unset for the root.
};

} // namespace

struct Verifier::Impl {
  std::vector<VNode> Nodes;
  /// hash -> node indices, for structural dedup.
  std::unordered_map<std::size_t, std::vector<std::uint32_t>> Buckets;

  /// Returns the index of an existing structurally equal state, or -1.
  std::int64_t lookup(const ObjectState &S) const {
    auto It = Buckets.find(S.hash());
    if (It == Buckets.end())
      return -1;
    for (std::uint32_t I : It->second)
      if (Nodes[I].State->equals(S))
        return I;
    return -1;
  }

  void add(StatePtr S, std::int32_t Parent, Call Via) {
    Buckets[S->hash()].push_back(static_cast<std::uint32_t>(Nodes.size()));
    Nodes.push_back(VNode{std::move(S), Parent, std::move(Via)});
  }
};

Verifier::Verifier(const ObjectType &Type, VerifierOptions Opts)
    : Type(Type), Opts(Opts), State(std::make_unique<Impl>()) {
  // The complete bounded alphabet: every enumerated effect call of every
  // update method.
  std::vector<Call> Alphabet;
  for (MethodId M = 0; M < Type.numMethods(); ++M)
    if (Type.method(M).Kind == MethodKind::Update)
      for (Call &C : Type.enumerateCalls(M, Opts.Bound))
        Alphabet.push_back(std::move(C));

  State->add(Type.initialState(), -1, Call());
  std::vector<unsigned> Depth{0};

  bool Truncated = false;
  for (std::size_t F = 0; F < State->Nodes.size(); ++F) {
    if (Depth[F] >= Opts.Bound)
      continue;
    for (const Call &C : Alphabet) {
      // Run the issuing-side prepare so effect calls are well-formed
      // (idempotent on already-prepared enumerated calls).
      Call Effect = Type.prepare(*State->Nodes[F].State, C);
      StatePtr Next = Type.applyCopy(*State->Nodes[F].State, Effect);
      // Only invariant-preserving transitions are reachable: the runtime
      // never executes an impermissible call.
      if (!Type.invariant(*Next))
        continue;
      if (State->lookup(*Next) >= 0)
        continue;
      if (State->Nodes.size() >= Opts.MaxStates) {
        Truncated = true;
        break;
      }
      State->add(std::move(Next), static_cast<std::int32_t>(F),
                 std::move(Effect));
      Depth.push_back(Depth[F] + 1);
    }
    if (Truncated)
      break;
  }
  Exhausted = !Truncated;
}

Verifier::~Verifier() = default;

std::size_t Verifier::numStates() const { return State->Nodes.size(); }

const ObjectState &Verifier::state(std::size_t I) const {
  assert(I < State->Nodes.size() && "state index out of range");
  return *State->Nodes[I].State;
}

// -- Trace construction ------------------------------------------------------

namespace {

/// Replays \p Path from the initial state, requiring every prefix to keep
/// the invariant. Returns nullptr when a prefix breaks it.
StatePtr replayPath(const ObjectType &Type, const std::vector<Call> &Path) {
  StatePtr S = Type.initialState();
  for (const Call &C : Path) {
    Type.apply(*S, C);
    if (!Type.invariant(*S))
      return nullptr;
  }
  return S;
}

/// Greedy single-call minimization: drop any call whose removal preserves
/// both path permissibility and the violation.
template <typename PredT>
std::vector<Call> minimizePath(const ObjectType &Type, std::vector<Call> Path,
                               const PredT &Violates) {
  bool Improved = true;
  while (Improved && !Path.empty()) {
    Improved = false;
    for (std::size_t I = 0; I < Path.size(); ++I) {
      std::vector<Call> Cand;
      Cand.reserve(Path.size() - 1);
      for (std::size_t J = 0; J < Path.size(); ++J)
        if (J != I)
          Cand.push_back(Path[J]);
      StatePtr Final = replayPath(Type, Cand);
      if (Final && Violates(*Final)) {
        Path = std::move(Cand);
        Improved = true;
        break;
      }
    }
  }
  return Path;
}

/// Walks parent links to reconstruct the call path to node \p I.
std::vector<Call> pathToNode(const std::vector<VNode> &Nodes,
                             std::size_t I) {
  std::vector<Call> Path;
  for (std::int64_t Cur = static_cast<std::int64_t>(I);
       Nodes[static_cast<std::size_t>(Cur)].Parent >= 0;
       Cur = Nodes[static_cast<std::size_t>(Cur)].Parent)
    Path.push_back(Nodes[static_cast<std::size_t>(Cur)].Via);
  std::reverse(Path.begin(), Path.end());
  return Path;
}

/// Shared search skeleton: find the first (BFS-order, hence
/// shortest-path) reachable state violating \p Violates, minimize the
/// path, and render the trace with \p MakeDetail(finalState).
template <typename PredT, typename DetailT>
std::optional<CounterexampleTrace>
makeTrace(const ObjectType &Type, const std::vector<VNode> &Nodes,
          RelationKind Kind, const Call &C1, const Call &C2, bool HasC2,
          const PredT &Violates, const DetailT &MakeDetail) {
  for (std::size_t I = 0; I < Nodes.size(); ++I) {
    if (!Violates(*Nodes[I].State))
      continue;
    CounterexampleTrace T;
    T.Kind = Kind;
    T.C1 = C1;
    T.C2 = C2;
    T.HasC2 = HasC2;
    T.Path = minimizePath(Type, pathToNode(Nodes, I), Violates);
    StatePtr Final = replayPath(Type, T.Path);
    assert(Final && Violates(*Final) && "minimization lost the violation");
    T.State = Final->str();
    T.Detail = MakeDetail(*Final);
    return T;
  }
  return std::nullopt;
}

} // namespace

std::optional<CounterexampleTrace>
Verifier::refuteSCommute(const Call &C1, const Call &C2) const {
  auto Violates = [&](const ObjectState &S) {
    StatePtr AB = Type.applyCopy(S, C1);
    Type.apply(*AB, C2);
    StatePtr BA = Type.applyCopy(S, C2);
    Type.apply(*BA, C1);
    return !AB->equals(*BA);
  };
  auto Detail = [&](const ObjectState &S) {
    StatePtr AB = Type.applyCopy(S, C1);
    Type.apply(*AB, C2);
    StatePtr BA = Type.applyCopy(S, C2);
    Type.apply(*BA, C1);
    return "order c1;c2 yields " + AB->str() + " but c2;c1 yields " +
           BA->str();
  };
  return makeTrace(Type, State->Nodes, RelationKind::SCommute, C1, C2,
                   /*HasC2=*/true, Violates, Detail);
}

std::optional<CounterexampleTrace>
Verifier::refuteInvariantSufficiency(const Call &C) const {
  // Every explored state satisfies the invariant, so any state where C is
  // impermissible refutes invariant-sufficiency.
  auto Violates = [&](const ObjectState &S) {
    return !Type.permissible(S, C);
  };
  auto Detail = [&](const ObjectState &S) {
    return "invariant holds but applying the call yields the violating "
           "state " +
           Type.applyCopy(S, C)->str();
  };
  return makeTrace(Type, State->Nodes, RelationKind::InvariantSufficiency,
                   C, Call(), /*HasC2=*/false, Violates, Detail);
}

std::optional<CounterexampleTrace>
Verifier::refutePRCommute(const Call &C1, const Call &C2) const {
  auto Violates = [&](const ObjectState &S) {
    return Type.permissible(S, C1) && Type.permissible(S, C2) &&
           !Type.permissible(*Type.applyCopy(S, C2), C1);
  };
  auto Detail = [&](const ObjectState &S) {
    return "both calls are permissible, but after c2 the state " +
           Type.applyCopy(S, C2)->str() + " makes c1 impermissible";
  };
  return makeTrace(Type, State->Nodes, RelationKind::PRightCommute, C1, C2,
                   /*HasC2=*/true, Violates, Detail);
}

std::optional<CounterexampleTrace>
Verifier::refutePLCommute(const Call &Dependent, const Call &Enabler) const {
  auto Violates = [&](const ObjectState &S) {
    return !Type.permissible(S, Dependent) &&
           Type.permissible(*Type.applyCopy(S, Enabler), Dependent);
  };
  auto Detail = [&](const ObjectState &S) {
    return "the call is impermissible here but becomes permissible after " +
           Enabler.str() + " (state " + Type.applyCopy(S, Enabler)->str() +
           ")";
  };
  return makeTrace(Type, State->Nodes, RelationKind::PLeftCommute, Dependent,
                   Enabler, /*HasC2=*/true, Violates, Detail);
}

bool analysis::replayWitness(const ObjectType &Type,
                             const CounterexampleTrace &T) {
  StatePtr S = replayPath(Type, T.Path);
  if (!S)
    return false;
  switch (T.Kind) {
  case RelationKind::SCommute: {
    StatePtr AB = Type.applyCopy(*S, T.C1);
    Type.apply(*AB, T.C2);
    StatePtr BA = Type.applyCopy(*S, T.C2);
    Type.apply(*BA, T.C1);
    return !AB->equals(*BA);
  }
  case RelationKind::InvariantSufficiency:
    return Type.invariant(*S) && !Type.permissible(*S, T.C1);
  case RelationKind::PRightCommute:
    return Type.permissible(*S, T.C1) && Type.permissible(*S, T.C2) &&
           !Type.permissible(*Type.applyCopy(*S, T.C2), T.C1);
  case RelationKind::PLeftCommute:
    return !Type.permissible(*S, T.C1) &&
           Type.permissible(*Type.applyCopy(*S, T.C2), T.C1);
  }
  return false;
}

// -- Call-level decisions ----------------------------------------------------

std::vector<CounterexampleTrace>
Verifier::conflictWitness(const Call &C1, const Call &C2) const {
  if (auto S = refuteSCommute(C1, C2))
    return {*S};
  // P-concurrence of c1 w.r.t. c2 fails only when c1 is neither
  // invariant-sufficient nor P-R-commuting past c2; certify with both.
  if (auto Inv1 = refuteInvariantSufficiency(C1))
    if (auto PR = refutePRCommute(C1, C2))
      return {*Inv1, *PR};
  if (auto Inv2 = refuteInvariantSufficiency(C2))
    if (auto PR = refutePRCommute(C2, C1))
      return {*Inv2, *PR};
  return {};
}

std::vector<CounterexampleTrace>
Verifier::dependencyWitness(const Call &Dependent, const Call &On) const {
  auto Inv = refuteInvariantSufficiency(Dependent);
  if (!Inv)
    return {};
  auto PL = refutePLCommute(Dependent, On);
  if (!PL)
    return {};
  return {*Inv, *PL};
}

// -- Method-level verification -----------------------------------------------

namespace {

std::string edgeMessage(const ObjectType &T, const char *What, MethodId A,
                        MethodId B, const char *Verdict) {
  std::ostringstream OS;
  OS << T.name() << ": " << What << " " << T.method(A).Name << " -> "
     << T.method(B).Name << " " << Verdict;
  return OS.str();
}

/// Folds \p Run[B, E) left to right through summarize(), as the runtime
/// folds calls into an image. On a refused pair returns false and names
/// the pair in \p Refused.
bool foldRun(const ObjectType &T, const std::vector<const Call *> &Run,
             std::size_t B, std::size_t E, Call &Out, std::string &Refused) {
  Out = *Run[B];
  for (std::size_t I = B + 1; I < E; ++I) {
    Call Next;
    if (!T.summarize(Out, *Run[I], Next)) {
      Refused = "summarize(" + Out.str() + ", " + Run[I]->str() + ")";
      return false;
    }
    Out = std::move(Next);
  }
  return true;
}

/// Checks one run of same-group calls: at every split point,
/// summarize(fold(left), fold(right)) must act on every state in \p Nodes
/// like applying the run in order. Returns the first violation, or an
/// empty string.
std::string checkRun(const ObjectType &T, const std::vector<VNode> &Nodes,
                     const std::vector<const Call *> &Run) {
  std::vector<StatePtr> InOrder; // Built on first use.
  for (std::size_t K = 1; K < Run.size(); ++K) {
    Call Left, Right, Sum;
    std::string Refused;
    if (!foldRun(T, Run, 0, K, Left, Refused) ||
        !foldRun(T, Run, K, Run.size(), Right, Refused))
      return Refused + " failed within one summarization group";
    auto Join = [&] {
      return "summarize(" + Left.str() + ", " + Right.str() + ")";
    };
    if (!T.summarize(Left, Right, Sum))
      return Join() + " failed within one summarization group";
    if (InOrder.empty())
      for (const VNode &N : Nodes) {
        InOrder.push_back(N.State->clone());
        for (const Call *C : Run)
          T.apply(*InOrder.back(), *C);
      }
    for (std::size_t I = 0; I < Nodes.size(); ++I) {
      if (T.applyCopy(*Nodes[I].State, Sum)->equals(*InOrder[I]))
        continue;
      std::string Calls;
      for (const Call *C : Run)
        Calls += (Calls.empty() ? "" : "; ") + C->str();
      return Join() + " = " + Sum.str() + " disagrees with applying " +
             Calls + " in order on state " + Nodes[I].State->str();
    }
  }
  return {};
}

} // namespace

VerifyReport Verifier::verify() const {
  VerifyReport R;
  R.TypeName = Type.name();
  R.Bound = Opts.Bound;
  R.StatesExplored = State->Nodes.size();
  R.Exhausted = Exhausted;

  const CoordinationSpec &Spec = Type.coordination();
  const unsigned N = Type.numMethods();

  std::vector<MethodId> Updates;
  std::vector<std::vector<Call>> Calls(N);
  for (MethodId M = 0; M < N; ++M) {
    if (Type.method(M).Kind != MethodKind::Update)
      continue;
    Updates.push_back(M);
    Calls[M] = Type.enumerateCalls(M, Opts.Bound);
  }

  // Invariant-sufficiency refutations depend only on the single call;
  // cache them across the quadratic pair loops.
  struct InvEntry {
    bool Computed = false;
    std::optional<CounterexampleTrace> Trace;
  };
  std::vector<std::vector<InvEntry>> InvCache(N);
  for (MethodId M : Updates)
    InvCache[M].resize(Calls[M].size());
  auto invTrace =
      [&](MethodId M, std::size_t I) -> const std::optional<CounterexampleTrace> & {
    InvEntry &E = InvCache[M][I];
    if (!E.Computed) {
      E.Trace = refuteInvariantSufficiency(Calls[M][I]);
      E.Computed = true;
    }
    return E.Trace;
  };

  // Conflict relation, both directions.
  for (std::size_t IA = 0; IA < Updates.size(); ++IA) {
    for (std::size_t IB = IA; IB < Updates.size(); ++IB) {
      MethodId A = Updates[IA], B = Updates[IB];
      bool Declared = Spec.conflicts(A, B);
      std::vector<CounterexampleTrace> Witness;
      for (std::size_t I = 0; I < Calls[A].size() && Witness.empty(); ++I) {
        for (std::size_t J = 0; J < Calls[B].size(); ++J) {
          const Call &CA = Calls[A][I], &CB = Calls[B][J];
          // Two concurrent calls are distinct events: skip the degenerate
          // identical pairing; causally ordered pairs never race.
          if (A == B && CA == CB)
            continue;
          if (!Type.concurrentlyIssuable(CA, CB))
            continue;
          if (auto S = refuteSCommute(CA, CB)) {
            Witness = {*S};
            break;
          }
          if (const auto &Inv = invTrace(A, I))
            if (auto PR = refutePRCommute(CA, CB)) {
              Witness = {*Inv, *PR};
              break;
            }
          if (const auto &Inv = invTrace(B, J))
            if (auto PR = refutePRCommute(CB, CA)) {
              Witness = {*Inv, *PR};
              break;
            }
        }
      }
      if (!Declared && Witness.empty())
        continue;
      EdgeFinding F;
      F.A = A;
      F.B = B;
      F.AName = Type.method(A).Name;
      F.BName = Type.method(B).Name;
      F.Declared = Declared;
      F.Witnessed = !Witness.empty();
      F.Witnesses = std::move(Witness);
      if (F.Witnessed && !Declared) {
        std::string Msg = edgeMessage(Type, "conflict", A, B,
                                      "is witnessed but not declared");
        for (const CounterexampleTrace &T : F.Witnesses)
          Msg += "\n  " + T.str();
        R.SoundnessViolations.push_back(std::move(Msg));
      }
      if (Declared && !F.Witnessed)
        R.SpuriousEdges.push_back(edgeMessage(
            Type, "declared conflict", A, B,
            "has no witness at the bound (spurious over-coordination: it "
            "inflates a synchronization group)"));
      R.Conflicts.push_back(std::move(F));
    }
  }

  // Dependency relation, both directions.
  for (MethodId M : Updates) {
    for (MethodId On : Updates) {
      // Methods sharing a synchronization group are ordered by the leader
      // already; dependency edges between them are neither required nor
      // meaningful.
      if (Spec.syncGroup(M) && Spec.syncGroup(On) &&
          *Spec.syncGroup(M) == *Spec.syncGroup(On))
        continue;
      const auto &DeclaredDeps = Spec.dependencies(M);
      bool Declared = std::find(DeclaredDeps.begin(), DeclaredDeps.end(),
                                On) != DeclaredDeps.end();
      std::vector<CounterexampleTrace> Witness;
      for (std::size_t I = 0; I < Calls[M].size() && Witness.empty(); ++I) {
        const auto &Inv = invTrace(M, I);
        if (!Inv)
          continue;
        for (const Call &C1 : Calls[On]) {
          if (auto PL = refutePLCommute(Calls[M][I], C1)) {
            Witness = {*Inv, *PL};
            break;
          }
        }
      }
      // A dependency can also be justified by causal ordering: the type
      // pins an instance of M after an instance of On (e.g. removeTags
      // after the addTag whose tag it observed). The predicate is
      // symmetric at the effect level -- which call observed the other is
      // the spec's knowledge, not derivable from the state machine -- so
      // a causal pair justifies a declared edge in either orientation and
      // is a soundness hole only when no orientation is declared.
      bool Causal = false;
      for (const Call &C1 : Calls[On]) {
        for (const Call &C2 : Calls[M])
          if (!Type.concurrentlyIssuable(C1, C2)) {
            Causal = true;
            break;
          }
        if (Causal)
          break;
      }
      if (Causal && !Declared) {
        const auto &RevDeps = Spec.dependencies(On);
        if (std::find(RevDeps.begin(), RevDeps.end(), M) != RevDeps.end())
          Causal = false; // The reverse edge already orders the pair.
      }
      if (!Declared && Witness.empty() && !Causal)
        continue;
      EdgeFinding F;
      F.A = M;
      F.B = On;
      F.AName = Type.method(M).Name;
      F.BName = Type.method(On).Name;
      F.Declared = Declared;
      F.Causal = Causal;
      F.Witnessed = !Witness.empty() || Causal;
      F.Witnesses = std::move(Witness);
      if (F.Witnessed && !Declared) {
        std::string Msg =
            edgeMessage(Type, "dependency of", M, On,
                        Causal && F.Witnesses.empty()
                            ? "is causally ordered but declared in "
                              "neither direction"
                            : "is witnessed but not declared");
        for (const CounterexampleTrace &T : F.Witnesses)
          Msg += "\n  " + T.str();
        R.SoundnessViolations.push_back(std::move(Msg));
      }
      if (Declared && !F.Witnessed)
        R.SpuriousEdges.push_back(edgeMessage(
            Type, "declared dependency of", M, On,
            "has no witness at the bound (spurious over-coordination: it "
            "forces needless delivery ordering)"));
      R.Dependencies.push_back(std::move(F));
    }
  }

  // Summarization groups must be closed and exact over every reachable
  // state at the bound, also on folded arguments: the runtime folds each
  // call into an image and joins images (SummaryChannel's own image,
  // pending delta and held image). Every run of 2 to Bound calls from one
  // group's alphabet is checked at every split point; one message per
  // failing run.
  const unsigned MaxRun = std::max(Opts.Bound, 2u);
  for (unsigned G = 0; G < Spec.numSumGroups(); ++G) {
    std::vector<const Call *> Alphabet;
    for (MethodId M : Updates)
      if (Spec.sumGroup(M) == G)
        for (const Call &C : Calls[M])
          Alphabet.push_back(&C);
    if (Alphabet.empty())
      continue;
    for (unsigned Len = 2; Len <= MaxRun; ++Len) {
      // Odometer over Alphabet^Len.
      std::vector<std::size_t> Digits(Len, 0);
      std::vector<const Call *> Run(Len);
      for (;;) {
        for (unsigned I = 0; I < Len; ++I)
          Run[I] = Alphabet[Digits[I]];
        std::string Msg = checkRun(Type, State->Nodes, Run);
        if (!Msg.empty())
          R.SummarizationViolations.push_back(Type.name() + ": " + Msg);
        unsigned Pos = Len;
        while (Pos > 0 && ++Digits[Pos - 1] == Alphabet.size())
          Digits[--Pos] = 0;
        if (Pos == 0)
          break;
      }
    }
  }

  return R;
}

VerifyReport analysis::verifyType(const ObjectType &Type,
                                  VerifierOptions Opts) {
  return Verifier(Type, Opts).verify();
}

// -- JSON report -------------------------------------------------------------

namespace {

JV traceToJson(const CounterexampleTrace &T) {
  JV V = JV::makeObject();
  V.add("relation", JV::makeString(relationName(T.Kind)));
  JV Path = JV::makeArray();
  for (const Call &C : T.Path)
    Path.Arr.push_back(JV::makeString(C.str()));
  V.add("path", std::move(Path));
  V.add("c1", JV::makeString(T.C1.str()));
  if (T.HasC2)
    V.add("c2", JV::makeString(T.C2.str()));
  V.add("state", JV::makeString(T.State));
  V.add("detail", JV::makeString(T.Detail));
  return V;
}

JV edgeToJson(const EdgeFinding &F) {
  JV V = JV::makeObject();
  V.add("a", JV::makeString(F.AName));
  V.add("b", JV::makeString(F.BName));
  V.add("declared", JV::makeBool(F.Declared));
  V.add("witnessed", JV::makeBool(F.Witnessed));
  V.add("causal", JV::makeBool(F.Causal));
  JV W = JV::makeArray();
  for (const CounterexampleTrace &T : F.Witnesses)
    W.Arr.push_back(traceToJson(T));
  V.add("witnesses", std::move(W));
  return V;
}

JV stringsToJson(const std::vector<std::string> &Strs) {
  JV V = JV::makeArray();
  for (const std::string &S : Strs)
    V.Arr.push_back(JV::makeString(S));
  return V;
}

} // namespace

JV analysis::reportToJson(const VerifyReport &R) {
  JV V = JV::makeObject();
  V.add("name", JV::makeString(R.TypeName));
  V.add("bound", JV::makeUInt(R.Bound));
  V.add("states_explored", JV::makeUInt(R.StatesExplored));
  V.add("exhausted", JV::makeBool(R.Exhausted));
  V.add("sound", JV::makeBool(R.sound()));
  V.add("minimal", JV::makeBool(R.minimal()));
  JV Conflicts = JV::makeArray();
  for (const EdgeFinding &F : R.Conflicts)
    Conflicts.Arr.push_back(edgeToJson(F));
  V.add("conflicts", std::move(Conflicts));
  JV Deps = JV::makeArray();
  for (const EdgeFinding &F : R.Dependencies)
    Deps.Arr.push_back(edgeToJson(F));
  V.add("dependencies", std::move(Deps));
  V.add("soundness_violations", stringsToJson(R.SoundnessViolations));
  V.add("spurious_edges", stringsToJson(R.SpuriousEdges));
  V.add("summarization_violations",
        stringsToJson(R.SummarizationViolations));
  return V;
}

// Renders one ordered method pair as "a -> b".
static std::string pairStr(const ObjectType &T, MethodId A, MethodId B,
                           const char *Arrow) {
  return T.method(A).Name + Arrow + T.method(B).Name;
}

KeyedLiftReport analysis::verifyKeyedLift(const std::string &BaseName,
                                          VerifierOptions Opts) {
  KeyedLiftReport R;
  R.BaseName = BaseName;
  if (!isTypeRegistered(BaseName)) {
    R.Issues.push_back("unknown base type '" + BaseName + "'");
    return R;
  }
  std::unique_ptr<ObjectType> Base = makeType(BaseName);
  std::unique_ptr<ObjectType> Lift = makeKeyedType(BaseName);
  R.LiftName = Lift->name();

  const CoordinationSpec &BS = Base->coordination();
  const CoordinationSpec &LS = Lift->coordination();
  if (Base->numMethods() != Lift->numMethods()) {
    std::ostringstream OS;
    OS << "method count changed: base has " << Base->numMethods()
       << ", lift has " << Lift->numMethods();
    R.Issues.push_back(OS.str());
    return R;
  }

  // Method-for-method comparison: the lift must keep every relation the
  // base declares, per key. The one sanctioned difference is the
  // summarization drop -- a base-Reducible method travels the lift's
  // irreducible conflict-free path (KeyedObjectType cannot summarize
  // across keys into one fixed summary slot) -- which we surface as an
  // explicit notice, never as a silent spec change.
  for (MethodId M = 0; M < Base->numMethods(); ++M) {
    const std::string &Name = Base->method(M).Name;
    if (Lift->method(M).Name != Name) {
      R.Issues.push_back("method " + std::to_string(M) + " renamed: '" +
                         Name + "' vs '" + Lift->method(M).Name + "'");
      continue;
    }
    if (BS.isUpdate(M) != LS.isUpdate(M)) {
      R.Issues.push_back("update/query flag changed for '" + Name + "'");
      continue;
    }
    MethodCategory BC = BS.category(M), LC = LS.category(M);
    if (BC == MethodCategory::Reducible &&
        LC == MethodCategory::IrreducibleFree) {
      R.DroppedSummarizations.push_back(Name);
    } else if (BC != LC) {
      R.Issues.push_back("category changed for '" + Name + "': " +
                         categoryName(BC) + " -> " + categoryName(LC));
    }
    if (BS.isUpdate(M) && BS.dependencies(M) != LS.dependencies(M)) {
      std::ostringstream OS;
      OS << "dependency set changed for '" << Name << "':";
      for (MethodId D : BS.dependencies(M))
        OS << " base:" << Base->method(D).Name;
      for (MethodId D : LS.dependencies(M))
        OS << " lift:" << Lift->method(D).Name;
      R.Issues.push_back(OS.str());
    }
  }
  for (MethodId A = 0; A < Base->numMethods(); ++A)
    for (MethodId B = A; B < Base->numMethods(); ++B)
      if (BS.conflicts(A, B) != LS.conflicts(A, B))
        R.Issues.push_back(std::string("conflict edge ") +
                           (BS.conflicts(A, B) ? "dropped" : "added") +
                           " by the lift: " + pairStr(*Base, A, B, " >< "));

  // The lift must also be sound in its own right: run it through the
  // bounded-exhaustive verifier. The keyed state space multiplies the
  // per-key spaces, so cap the bound at 2 to stay tractable.
  VerifierOptions LiftOpts = Opts;
  LiftOpts.Bound = std::min(Opts.Bound, 2u);
  R.Bound = LiftOpts.Bound;
  VerifyReport VR = verifyType(*Lift, LiftOpts);
  R.StatesExplored = VR.StatesExplored;
  R.LiftSound = VR.sound();
  R.LiftViolations = VR.SoundnessViolations;
  R.LiftViolations.insert(R.LiftViolations.end(),
                          VR.SummarizationViolations.begin(),
                          VR.SummarizationViolations.end());
  return R;
}

JV analysis::keyedLiftReportToJson(const KeyedLiftReport &R) {
  JV V = JV::makeObject();
  V.add("base", JV::makeString(R.BaseName));
  V.add("lift", JV::makeString(R.LiftName));
  V.add("bound", JV::makeUInt(R.Bound));
  V.add("states_explored", JV::makeUInt(R.StatesExplored));
  V.add("preserved", JV::makeBool(R.preserved()));
  V.add("lift_sound", JV::makeBool(R.LiftSound));
  V.add("ok", JV::makeBool(R.ok()));
  V.add("issues", stringsToJson(R.Issues));
  V.add("dropped_summarizations", stringsToJson(R.DroppedSummarizations));
  V.add("lift_violations", stringsToJson(R.LiftViolations));
  return V;
}
