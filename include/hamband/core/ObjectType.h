//===- hamband/core/ObjectType.h - Object data types ------------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The object data type model of Section 3.1: a class is the tuple
/// `<Σ, I, updates, queries>`. An ObjectType bundles the state factory, the
/// integrity invariant I, the update/query method definitions, the declared
/// CoordinationSpec, the summarization function, and the bounded call
/// enumerator over which analysis::Verifier checks the declared spec.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_CORE_OBJECTTYPE_H
#define HAMBAND_CORE_OBJECTTYPE_H

#include "hamband/core/Call.h"
#include "hamband/core/CoordinationSpec.h"
#include "hamband/core/ObjectState.h"
#include "hamband/sim/Rng.h"

#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace hamband {

/// Whether a method mutates the state or only observes it.
enum class MethodKind { Update, Query };

/// Static description of one method of an object class.
struct MethodInfo {
  std::string Name;
  MethodKind Kind = MethodKind::Update;
  /// Number of int64 parameters; the default enumerateCalls() and
  /// randomClientCall() generate this many.
  unsigned Arity = 0;
};

/// An object class `<Σ, I, u := d, q := d>` (Figure 3) together with its
/// coordination metadata.
///
/// Implementations must make apply() a *total, deterministic* function of
/// (state, call args): permissibility is enforced by the semantics and the
/// runtime via invariant(), never inside apply(). Calls that would break
/// the invariant must still produce a well-defined (invariant-violating)
/// state so that the verifier can evaluate P(σ, c).
class ObjectType {
public:
  virtual ~ObjectType();

  /// Class name, e.g. "counter".
  virtual std::string name() const = 0;

  virtual unsigned numMethods() const = 0;
  virtual const MethodInfo &method(MethodId M) const = 0;

  /// Looks a method up by name; asserts when absent.
  MethodId methodId(std::string_view Name) const;

  /// σ0: the initial state; must satisfy the invariant.
  virtual StatePtr initialState() const = 0;

  /// The integrity property I(σ).
  virtual bool invariant(const ObjectState &S) const = 0;

  /// False when I(σ) is `true` for every state: permissible() and
  /// invariantAfter() then hold without cloning the state.
  virtual bool hasInvariant() const { return true; }

  /// Executes update call \p C on \p S in place.
  virtual void apply(ObjectState &S, const Call &C) const = 0;

  /// Executes query call \p C against \p S.
  virtual Value query(const ObjectState &S, const Call &C) const = 0;

  /// Op-based "prepare" hook: rewrites a client call at the issuing
  /// replica using its local state before the call is applied/propagated
  /// (e.g. the ORSet turns remove(e) into removeTags(e, observed tags)).
  /// The default is the identity.
  virtual Call prepare(const ObjectState &S, const Call &C) const;

  /// The declared coordination relations (finalized).
  virtual const CoordinationSpec &coordination() const = 0;

  /// The summarization primitive, in place: \p Into := Summarize(\p Into,
  /// \p Delta) (Section 3.3), so that Into'(σ) == Delta(Into(σ)) for all
  /// σ. Either argument may itself be a fold: the runtime folds each call
  /// into its own image and joins a peer's delta into the image it holds,
  /// both through this call, without copying the image. Returns false,
  /// leaving \p Into unchanged, when the calls cannot be summarized
  /// (different groups or non-summarizable methods). The default
  /// summarizes nothing.
  virtual bool joinInto(Call &Into, const Call &Delta) const;

  /// Summarize(c, c'): \p Out := joinInto on a copy of \p First. Not
  /// virtual, so the summarize() that analysis::Verifier checks, on calls
  /// and on folds alike, is exactly the join the runtime runs. \p Out is
  /// unchanged when it returns false.
  bool summarize(const Call &First, const Call &Second, Call &Out) const;

  // -- Delta-state propagation (docs/deltas.md) ---------------------------

  /// The delta join under its docs/deltas.md name: summarize(\p Base,
  /// \p Delta). The runtime joins in place through joinInto().
  bool applyDelta(const Call &Base, const Call &Delta, Call &Out) const {
    return summarize(Base, Delta, Out);
  }

  /// Splits a summary call into contiguous chunks of at most
  /// \p MaxArgsPerChunk arguments each, in argument order (the summary
  /// whole when it already fits one chunk). The chunks are wire pieces,
  /// not summaries: the receiver concatenates their arguments in index
  /// order to rebuild \p Summary exactly and never folds a chunk, so any
  /// summary can be split.
  std::vector<Call> decomposeSummary(const Call &Summary,
                                     std::size_t MaxArgsPerChunk) const;

  /// Whether two calls can ever be issued *concurrently* at two replicas.
  /// The conflict relation only matters for concurrent pairs: a pair that
  /// is causally ordered by construction (e.g. an ORSet removeTags and the
  /// very addTag whose unique tag it observed) is ordered by the
  /// dependency machinery and never races. The default is true.
  virtual bool concurrentlyIssuable(const Call &A, const Call &B) const;

  /// Bounded-exhaustive argument enumerator for the verifier
  /// (analysis::Verifier): every effect-form call on \p M over the type's
  /// argument domain at \p Bound. This is the *complete* call alphabet the
  /// bounded verification quantifies over, so freedom claims are
  /// exhaustive at the bound. The default enumerates all argument tuples
  /// over the value domain {0 .. min(Bound, 3) - 1}; types with
  /// structured arguments (tags, timestamps, batches) override it and
  /// must return prepared (effect-form) calls.
  virtual std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const;

  /// Generates a random *client-form* call on \p M (before prepare()),
  /// stamped with \p Issuer and \p Req. Used by the semantics explorer and
  /// the benchmark workload generator. The default draws each argument
  /// uniformly from a small key space; types with structured arguments
  /// (e.g. the LWW register's unique timestamps) override it.
  virtual Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                                sim::Rng &R) const;

  // -- Convenience helpers ------------------------------------------------

  /// P(σ, c): the invariant holds after applying \p C to \p S. The default
  /// is true for a type without an invariant and otherwise applies \p C to
  /// a full clone of \p S; types whose state partitions
  /// into independent pieces (KeyedObjectType) override it to clone and
  /// check only the piece \p C touches.
  virtual bool permissible(const ObjectState &S, const Call &C) const;

  /// Speculative permissibility on the leader's conflicting-call path:
  /// I(c(p_k(... p_1(σ)))) -- whether \p C keeps the invariant once the
  /// already-appended-but-not-yet-delivered \p Pending calls land on \p S.
  /// The default clones \p S whole and replays everything; partitioned
  /// types override it to restrict the replay to \p C's piece.
  virtual bool invariantAfter(const ObjectState &S,
                              const std::deque<Call> &Pending,
                              const Call &C) const;

  /// Applies \p C to a clone of \p S and returns the result.
  StatePtr applyCopy(const ObjectState &S, const Call &C) const;

  /// The category of method \p M per the coordination spec.
  MethodCategory category(MethodId M) const {
    return coordination().category(M);
  }
};

/// Appends each value of \p From that \p Into lacks, in \p From's order:
/// the join of set-valued summaries, which keeps an image's argument
/// order.
void appendUnion(std::vector<Value> &Into, const std::vector<Value> &From);

} // namespace hamband

#endif // HAMBAND_CORE_OBJECTTYPE_H
