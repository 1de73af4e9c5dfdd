//===- benchlib/Workload.cpp - Workload generation ----------------------===//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/benchlib/Workload.h"

#include <cassert>
#include <cmath>

using namespace hamband;
using namespace hamband::benchlib;

CallGenerator::CallGenerator(const ObjectType &Type,
                             const WorkloadSpec &Spec, unsigned NodeIndex)
    : Type(Type), Spec(Spec),
      Rng(Spec.Seed * 0x9e3779b97f4a7c15ull + NodeIndex + 1) {
  const CoordinationSpec &Coord = Type.coordination();
  if (!Spec.UpdateMethods.empty())
    Updates = Spec.UpdateMethods;
  else
    Updates = Coord.updateMethods();
  if (!Spec.QueryMethods.empty()) {
    Queries = Spec.QueryMethods;
  } else {
    for (MethodId M = 0; M < Type.numMethods(); ++M)
      if (!Coord.isUpdate(M))
        Queries.push_back(M);
  }
  assert(!Updates.empty() || Spec.UpdateRatio == 0.0);
  if (Spec.NumObjects > 1 && Spec.ZipfSkew > 0) {
    // Zipfian generator constants (Gray et al., as popularized by YCSB):
    // zeta(n, theta) makes each subsequent draw O(1).
    const double Theta = Spec.ZipfSkew;
    const double N = static_cast<double>(Spec.NumObjects);
    for (std::uint64_t I = 1; I <= Spec.NumObjects; ++I)
      Zetan += 1.0 / std::pow(static_cast<double>(I), Theta);
    Zeta2 = 1.0 + 1.0 / std::pow(2.0, Theta);
    Alpha = 1.0 / (1.0 - Theta);
    Eta = (1.0 - std::pow(2.0 / N, 1.0 - Theta)) / (1.0 - Zeta2 / Zetan);
  }
}

std::uint64_t CallGenerator::drawObjectIndex() {
  if (Spec.NumObjects <= 1)
    return 0;
  if (Spec.ZipfSkew <= 0)
    return Rng.index(static_cast<std::size_t>(Spec.NumObjects));
  const double U = Rng.uniformReal();
  const double Uz = U * Zetan;
  if (Uz < 1.0)
    return 0;
  if (Uz < Zeta2)
    return 1;
  auto Idx = static_cast<std::uint64_t>(
      static_cast<double>(Spec.NumObjects) *
      std::pow(Eta * U - Eta + 1.0, Alpha));
  return std::min(Idx, Spec.NumObjects - 1);
}

Call CallGenerator::next(ProcessId Issuer, RequestId Req) {
  bool Update = Queries.empty() || Rng.bernoulli(Spec.UpdateRatio);
  LastWasUpdate = Update;
  MethodId M = Update ? Rng.pick(Updates) : Rng.pick(Queries);
  LastObject = Spec.NumObjects > 0 ? drawObjectIndex() : 0;
  return Type.randomClientCall(M, Issuer, Req, Rng);
}
