//===- hamband/core/Verifier.h - Bounded-exhaustive verifier ----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded-exhaustive verification of the Section 3.2 coordination
/// relations and the Section 3.3 summarization law; the only code that
/// decides a per-type law. The Verifier computes a BFS reachability
/// fixpoint over the type's *complete* bounded call alphabet
/// (ObjectType::enumerateCalls) and decides every relation in both
/// directions at the bound:
///
///  - A violation (a real conflict or dependency) comes with a
///    *certified, minimized counterexample trace*: a permissible call
///    sequence from the initial state, the offending call pair, and the
///    state where S-commutation or permissibility breaks. Traces are
///    machine-checkable -- replayWitness() re-executes them.
///  - A freedom claim ("these methods never conflict") is exhaustive at
///    the bound: no reachable state within Bound calls over the
///    enumerated alphabet refutes it.
///
/// On top of the relation decisions, verify() cross-checks the declared
/// CoordinationSpec in both directions:
///
///  - *Soundness*: every witnessed conflict/dependency edge must be
///    declared (a missing edge is a convergence/integrity bug).
///  - *Minimality*: every declared edge must have a witness at the bound;
///    an unwitnessed edge is flagged as *spurious over-coordination* --
///    it inflates a synchronization group or forces needless leader
///    ordering, a direct performance defect in the paper's own terms.
///    Dependency edges justified by causal ordering rather than
///    permissibility (ObjectType::concurrentlyIssuable pins an instance
///    of the dependent method after its enabler, e.g. the ORSet's
///    removeTags after the observed addTag) count as witnessed.
///
/// verify() also checks each summarization group on folded arguments, as
/// the runtime joins them: every run of 2 to Bound calls from the group's
/// alphabet, split at every point, must satisfy
/// summarize(fold(left), fold(right)) == the run applied in order, on
/// every reachable state. This covers associativity, the in-place join
/// the runtime folds and joins deltas with (ObjectType::joinInto, which
/// summarize() wraps) and the pairwise law of Section 3.3.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_CORE_VERIFIER_H
#define HAMBAND_CORE_VERIFIER_H

#include "hamband/core/ObjectType.h"
#include "hamband/obs/Json.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace hamband {
namespace analysis {

/// Tuning knobs for the bounded exploration.
struct VerifierOptions {
  /// Maximum call-sequence length explored from the initial state, and
  /// the bound handed to ObjectType::enumerateCalls.
  unsigned Bound = 3;
  /// Hard cap on the number of distinct reachable states kept; hitting it
  /// marks the report as not exhausted.
  std::size_t MaxStates = 4096;
};

/// The default verification bound used by the CLI and the CI gate.
inline constexpr unsigned DefaultVerifyBound = 3;

/// The call-level relations the verifier can refute.
enum class RelationKind {
  /// c1 and c2 applied in either order yield different states.
  SCommute,
  /// A reachable invariant state where C1 is impermissible.
  InvariantSufficiency,
  /// C1 and C2 both permissible, but C1 impermissible after C2.
  PRightCommute,
  /// C1 impermissible now but permissible after C2 (C2 enables C1).
  PLeftCommute,
};

/// Short name for a relation kind ("s-commute", ...).
const char *relationName(RelationKind K);

/// A certified counterexample: replaying Path from the initial state
/// (every prefix invariant-preserving) reaches a state where the claimed
/// relation violation manifests for (C1, C2). Minimized: no single call
/// can be dropped from Path without losing the violation.
struct CounterexampleTrace {
  RelationKind Kind = RelationKind::SCommute;
  std::vector<Call> Path;
  Call C1;
  Call C2;       ///< Unused for InvariantSufficiency.
  bool HasC2 = true;
  std::string State;  ///< Rendered state at the end of Path.
  std::string Detail; ///< Human-readable explanation of the violation.

  /// One-line rendering: relation, path, pair, state, detail.
  std::string str() const;
};

/// Re-executes \p T's counterexample and returns true when the claimed
/// violation manifests exactly as recorded (the certification check).
bool replayWitness(const ObjectType &Type, const CounterexampleTrace &T);

/// Verdict for one method-level edge (conflict or dependency).
struct EdgeFinding {
  MethodId A = 0; ///< For dependencies: the dependent method.
  MethodId B = 0; ///< For dependencies: the method depended on.
  std::string AName;
  std::string BName;
  bool Declared = false;
  bool Witnessed = false;
  /// Dependency justified by causal ordering (concurrentlyIssuable)
  /// rather than a permissibility witness.
  bool Causal = false;
  std::vector<CounterexampleTrace> Witnesses;
};

/// Everything verify() decides about one type at one bound.
struct VerifyReport {
  std::string TypeName;
  unsigned Bound = 0;
  std::uint64_t StatesExplored = 0;
  /// True when the reachability fixpoint closed within MaxStates; false
  /// means freedom claims cover only the truncated state set.
  bool Exhausted = false;
  /// Method pairs that are declared or witnessed conflicts.
  std::vector<EdgeFinding> Conflicts;
  /// Ordered method pairs that are declared or witnessed dependencies.
  std::vector<EdgeFinding> Dependencies;
  /// Witnessed-but-undeclared edges, with their traces rendered.
  std::vector<std::string> SoundnessViolations;
  /// Declared-but-unwitnessed edges (spurious over-coordination).
  std::vector<std::string> SpuriousEdges;
  /// Summarization-group closure failures over the reachable states, one
  /// per failing run of calls.
  std::vector<std::string> SummarizationViolations;

  /// No missing edge and no summarization failure at the bound.
  bool sound() const {
    return SoundnessViolations.empty() && SummarizationViolations.empty();
  }
  /// No spurious declared edge at the bound.
  bool minimal() const { return SpuriousEdges.empty(); }
};

/// Bounded-exhaustive decision procedure for one ObjectType. Construction
/// runs the BFS reachability fixpoint; the refute*/witness methods and
/// verify() then quantify over the explored states.
class Verifier {
public:
  explicit Verifier(const ObjectType &Type, VerifierOptions Opts = {});
  ~Verifier();

  const ObjectType &type() const { return Type; }
  const VerifierOptions &options() const { return Opts; }
  std::size_t numStates() const;
  /// Reachable state \p I < numStates(), in BFS order (0 is σ0). Every
  /// reachable state satisfies the invariant.
  const ObjectState &state(std::size_t I) const;
  bool exhausted() const { return Exhausted; }

  /// Each refutation returns nullopt when the property *holds* over every
  /// reachable state at the bound, or a certified minimized trace.
  std::optional<CounterexampleTrace> refuteSCommute(const Call &C1,
                                                    const Call &C2) const;
  std::optional<CounterexampleTrace>
  refuteInvariantSufficiency(const Call &C) const;
  std::optional<CounterexampleTrace> refutePRCommute(const Call &C1,
                                                     const Call &C2) const;
  /// \p Dependent impermissible before but permissible after \p Enabler.
  std::optional<CounterexampleTrace>
  refutePLCommute(const Call &Dependent, const Call &Enabler) const;

  /// Decides c1 >< c2 (Section 3.2 conflict). Empty result: the pair is
  /// conflict-free at the bound. Non-empty: the certifying trace(s) --
  /// one S-commutation break, or the invariant-insufficiency plus
  /// P-R-commutation break that refute P-concurrence.
  std::vector<CounterexampleTrace> conflictWitness(const Call &C1,
                                                   const Call &C2) const;

  /// Decides dependence of \p Dependent on \p On: both the
  /// invariant-insufficiency of Dependent and the failed
  /// P-L-commutation, or empty when independent at the bound.
  std::vector<CounterexampleTrace> dependencyWitness(const Call &Dependent,
                                                     const Call &On) const;

  /// Full both-direction check of the declared CoordinationSpec.
  VerifyReport verify() const;

private:
  struct Impl;
  const ObjectType &Type;
  VerifierOptions Opts;
  bool Exhausted = false;
  std::unique_ptr<Impl> State;
};

/// Convenience wrapper: explore and verify in one call.
VerifyReport verifyType(const ObjectType &Type, VerifierOptions Opts = {});

/// Serializes one report as the per-type object of the
/// `hamband-analysis-v1` JSON schema (see docs/analysis.md).
obs::json::Value reportToJson(const VerifyReport &R);

/// Verdict of verifyKeyedLift: does the keyed multi-object lift
/// (makeKeyedType) preserve the base type's coordination relations?
struct KeyedLiftReport {
  std::string BaseName;
  std::string LiftName;
  /// Bound used for the lift's own verification run.
  unsigned Bound = 0;
  /// Relation mismatches between the base and lift specs (query flags,
  /// categories, conflict edges, dependency edges). Empty = preserved.
  std::vector<std::string> Issues;
  /// Base-Reducible methods the lift demotes to the irreducible
  /// conflict-free path. This is the documented, deliberate
  /// summarization drop (a keyed summary would not fit a fixed slot) --
  /// reported explicitly rather than as a silent spec difference, and
  /// semantics-preserving because reduce is faithful.
  std::vector<std::string> DroppedSummarizations;
  /// Soundness violations from the lift's own bounded verification.
  std::vector<std::string> LiftViolations;
  /// The lift's own verify() was sound at the bound.
  bool LiftSound = false;
  std::uint64_t StatesExplored = 0;

  /// Every base relation survives the lift method-for-method.
  bool preserved() const { return Issues.empty(); }
  /// Overall gate: relations preserved and the lift itself verifies.
  bool ok() const { return preserved() && LiftSound; }
};

/// Verifies that the keyed lift of registered type \p BaseName preserves
/// the base coordination relations per key: update/query flags, method
/// categories (modulo the explicit summarization drop), conflict edges
/// and dependency edges must match method-for-method, and the lift must
/// itself be sound under the bounded-exhaustive verifier (capped at
/// bound 2: the keyed state space squares the base one).
KeyedLiftReport verifyKeyedLift(const std::string &BaseName,
                                VerifierOptions Opts = {});

/// Serializes one keyed-lift report for the `hamband-analysis-v1`
/// envelope's "keyed_lifts" array.
obs::json::Value keyedLiftReportToJson(const KeyedLiftReport &R);

} // namespace analysis
} // namespace hamband

#endif // HAMBAND_CORE_VERIFIER_H
