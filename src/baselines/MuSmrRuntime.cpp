//===- baselines/MuSmrRuntime.cpp - Mu SMR baseline --------------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/baselines/MuSmrRuntime.h"

using namespace hamband;
using namespace hamband::baselines;

SmrTypeAdapter::SmrTypeAdapter(const ObjectType &Inner)
    : Inner(Inner), Spec(Inner.numMethods()) {
  const CoordinationSpec &InnerSpec = Inner.coordination();
  std::vector<MethodId> Updates;
  for (MethodId M = 0; M < Inner.numMethods(); ++M) {
    if (!InnerSpec.isUpdate(M)) {
      Spec.setQuery(M);
      continue;
    }
    Updates.push_back(M);
  }
  // The complete conflict relation: every update totally ordered.
  for (MethodId A : Updates)
    for (MethodId B : Updates)
      Spec.addConflict(A, B);
  Spec.finalize();
}
