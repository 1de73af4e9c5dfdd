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
/// totally orders all updates -- exactly an SMR. Queries stay local reads
/// at each replica (the common local-read optimization; this is what lets
/// Mu's throughput improve as the update ratio drops in Figure 8).
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_BASELINES_MUSMRRUNTIME_H
#define HAMBAND_BASELINES_MUSMRRUNTIME_H

#include "hamband/runtime/HambandCluster.h"

#include <memory>

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

/// A Mu SMR deployment: the Hamband runtime driving the SMR-adapted type,
/// i.e. one consensus instance ordering every update.
class MuSmrRuntime : public runtime::ReplicaRuntime {
public:
  MuSmrRuntime(sim::Simulator &Sim, unsigned NumNodes,
               const ObjectType &Type,
               rdma::NetworkModel Model = rdma::NetworkModel(),
               runtime::HambandConfig Cfg = runtime::HambandConfig());

  void start() { Cluster->start(); }
  runtime::HambandCluster &cluster() { return *Cluster; }

  unsigned numNodes() const override { return Cluster->numNodes(); }
  rdma::Transport &transport() override { return Cluster->transport(); }
  rdma::Fabric &fabric() { return Cluster->fabric(); }
  const ObjectType &objectType() const override { return *Adapter; }
  void submit(rdma::NodeId Origin, const Call &C,
              runtime::SubmitCallback Done) override {
    Cluster->submit(Origin, C, std::move(Done));
  }
  bool fullyReplicated() const override {
    return Cluster->fullyReplicated();
  }
  void injectFailure(rdma::NodeId Node) override {
    Cluster->injectFailure(Node);
  }
  bool isFailed(rdma::NodeId Node) const override {
    return Cluster->isFailed(Node);
  }
  rdma::NodeId leaderOf(unsigned Group,
                        rdma::NodeId Observer) const override {
    return Cluster->leaderOf(Group, Observer);
  }
  std::uint64_t replicationBacklog() const override {
    return Cluster->replicationBacklog();
  }

private:
  std::unique_ptr<SmrTypeAdapter> Adapter;
  std::unique_ptr<runtime::HambandCluster> Cluster;
};

} // namespace baselines
} // namespace hamband

#endif // HAMBAND_BASELINES_MUSMRRUNTIME_H
