//===- hamband/types/Counter.h - Replicated counter CRDT --------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The op-based Counter of Shapiro et al. [81], the simplest reducible
/// WRDT: `add(n)` calls S-commute, are invariant-sufficient (I = true) and
/// summarize as `add(n1+n2)`, so every replica propagates a single summary
/// slot per process. Used in Figures 8 and 12 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_COUNTER_H
#define HAMBAND_TYPES_COUNTER_H

#include "hamband/core/ObjectType.h"

namespace hamband {
namespace types {

/// State of the counter: a single running total.
struct CounterState : StateBase<CounterState> {
  Value Total = 0;

  bool operator==(const CounterState &O) const { return Total == O.Total; }
  std::size_t hashValue() const {
    return std::hash<Value>()(static_cast<Value>(Total));
  }
  std::string str() const override;
};

/// Replicated counter with methods add(n) [update, reducible] and
/// read() [query].
class Counter : public ObjectType {
public:
  static constexpr MethodId Add = 0;
  static constexpr MethodId Read = 1;

  Counter();

  std::string name() const override { return "counter"; }
  unsigned numMethods() const override { return 2; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return false; }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool joinInto(Call &Into, const Call &Delta) const override;

private:
  CoordinationSpec Spec;
  MethodInfo Methods[2];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_COUNTER_H
