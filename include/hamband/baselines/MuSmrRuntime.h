//===- hamband/baselines/MuSmrRuntime.h - Mu SMR baseline -------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Mu SMR baseline of Section 5. As the paper observes, "linearizable
/// data types are a special case of WRDTs where the conflict relation is
/// complete": this baseline therefore wraps the object type with a
/// CoordinationSpec in which *every* update method conflicts with every
/// other, producing a single synchronization group whose single Mu leader
/// totally orders all updates -- exactly an SMR. A Mu SMR deployment is a
/// runtime::HambandCluster over the adapted type; the adapter must outlive
/// the cluster. Queries stay local reads at each replica (the common
/// local-read optimization; this is what lets Mu's throughput improve as
/// the update ratio drops in Figure 8).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BASELINES_MUSMRRUNTIME_H
#define HAMBAND_BASELINES_MUSMRRUNTIME_H

#include "hamband/core/ObjectType.h"

namespace hamband {
namespace baselines {

/// Wraps an object type, replacing its coordination spec with the
/// complete conflict relation (one synchronization group, no summaries,
/// no dependencies).
class SmrTypeAdapter : public ObjectType {
public:
  explicit SmrTypeAdapter(const ObjectType &Inner);

  std::string name() const override { return Inner.name() + "+smr"; }
  unsigned numMethods() const override { return Inner.numMethods(); }
  const MethodInfo &method(MethodId M) const override {
    return Inner.method(M);
  }
  StatePtr initialState() const override { return Inner.initialState(); }
  bool invariant(const ObjectState &S) const override {
    return Inner.invariant(S);
  }
  void apply(ObjectState &S, const Call &C) const override {
    Inner.apply(S, C);
  }
  Value query(const ObjectState &S, const Call &C) const override {
    return Inner.query(S, C);
  }
  Call prepare(const ObjectState &S, const Call &C) const override {
    return Inner.prepare(S, C);
  }
  const CoordinationSpec &coordination() const override { return Spec; }
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override {
    return Inner.randomClientCall(M, Issuer, Req, R);
  }

private:
  const ObjectType &Inner;
  CoordinationSpec Spec;
};

} // namespace baselines
} // namespace hamband

#endif // HAMBAND_BASELINES_MUSMRRUNTIME_H
