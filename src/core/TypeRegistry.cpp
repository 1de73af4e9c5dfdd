//===- core/TypeRegistry.cpp - Data type registry ---------------------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/TypeRegistry.h"

#include "hamband/core/KeyedObjectType.h"
#include "hamband/types/Auction.h"
#include "hamband/types/BankAccount.h"
#include "hamband/types/Counter.h"
#include "hamband/types/GSet.h"
#include "hamband/types/LWWRegister.h"
#include "hamband/types/Movie.h"
#include "hamband/types/ORSet.h"
#include "hamband/types/PNCounter.h"
#include "hamband/types/Schema.h"
#include "hamband/types/ShoppingCart.h"
#include "hamband/types/TwoPhaseSet.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

using namespace hamband;

namespace {

struct RegistryEntry {
  const char *Name;
  std::unique_ptr<ObjectType> (*Make)();
};

template <typename T> std::unique_ptr<ObjectType> make() {
  return std::make_unique<T>();
}

std::unique_ptr<ObjectType> makeBufferedGSet() {
  return std::make_unique<types::GSet>(types::GSet::Mode::Buffered);
}

// Kept sorted by name.
const RegistryEntry Registry[] = {
    {"auction", &make<types::Auction>},
    {"bank-account", &make<types::BankAccount>},
    {"counter", &make<types::Counter>},
    {"courseware", &make<types::Courseware>},
    {"gset", &make<types::GSet>},
    {"gset-buffered", &makeBufferedGSet},
    {"lww-register", &make<types::LWWRegister>},
    {"movie", &make<types::Movie>},
    {"orset", &make<types::ORSet>},
    {"pn-counter", &make<types::PNCounter>},
    {"project-management", &make<types::ProjectManagement>},
    {"shopping-cart", &make<types::ShoppingCart>},
    {"two-phase-set", &make<types::TwoPhaseSet>},
};

} // namespace

std::vector<std::string> hamband::registeredTypeNames() {
  std::vector<std::string> Names;
  for (const RegistryEntry &E : Registry)
    Names.push_back(E.Name);
  return Names;
}

bool hamband::isTypeRegistered(const std::string &Name) {
  for (const RegistryEntry &E : Registry)
    if (Name == E.Name)
      return true;
  return false;
}

std::unique_ptr<ObjectType> hamband::makeType(const std::string &Name) {
  for (const RegistryEntry &E : Registry)
    if (Name == E.Name)
      return E.Make();
  assert(false && "unknown data type name");
  std::abort();
}

namespace {

/// KeyedObjectType holds a reference to its base; this wrapper keeps the
/// base instance alive for the lift's lifetime. The base member is
/// constructed (and thus valid) before the KeyedObjectType subobject
/// reads it.
class OwnedKeyedType : public KeyedObjectType {
public:
  OwnedKeyedType(std::unique_ptr<ObjectType> B, Value SampleKeyDomain)
      : KeyedObjectType(*B, SampleKeyDomain), Owned(std::move(B)) {}

private:
  std::unique_ptr<ObjectType> Owned;
};

} // namespace

std::unique_ptr<ObjectType>
hamband::makeKeyedType(const std::string &BaseName, Value SampleKeyDomain) {
  return std::make_unique<OwnedKeyedType>(makeType(BaseName),
                                          SampleKeyDomain);
}

namespace {

/// Forwards every behavior hook to the owned base type but serves a
/// rebuilt CoordinationSpec with one declared edge removed. The runtime
/// then routes the affected methods down the wrong coordination path,
/// which is exactly the class of bug the explorer's oracles certify.
class MutatedType : public ObjectType {
public:
  MutatedType(std::unique_ptr<ObjectType> B, CoordinationSpec S,
              std::string Mutation)
      : Base(std::move(B)), Spec(std::move(S)),
        Name(Base->name() + "#" + std::move(Mutation)) {}

  std::string name() const override { return Name; }
  unsigned numMethods() const override { return Base->numMethods(); }
  const MethodInfo &method(MethodId M) const override {
    return Base->method(M);
  }
  StatePtr initialState() const override { return Base->initialState(); }
  bool invariant(const ObjectState &S) const override {
    return Base->invariant(S);
  }
  bool hasInvariant() const override { return Base->hasInvariant(); }
  void apply(ObjectState &S, const Call &C) const override {
    Base->apply(S, C);
  }
  Value query(const ObjectState &S, const Call &C) const override {
    return Base->query(S, C);
  }
  Call prepare(const ObjectState &S, const Call &C) const override {
    return Base->prepare(S, C);
  }
  const CoordinationSpec &coordination() const override { return Spec; }
  bool joinInto(Call &Into, const Call &Delta) const override {
    return Base->joinInto(Into, Delta);
  }
  bool concurrentlyIssuable(const Call &A, const Call &B) const override {
    return Base->concurrentlyIssuable(A, B);
  }
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override {
    return Base->enumerateCalls(M, Bound);
  }
  Call randomClientCall(MethodId M, ProcessId Issuer, RequestId Req,
                        sim::Rng &R) const override {
    return Base->randomClientCall(M, Issuer, Req, R);
  }
  bool permissible(const ObjectState &S, const Call &C) const override {
    return Base->permissible(S, C);
  }
  bool invariantAfter(const ObjectState &S, const std::deque<Call> &Pending,
                      const Call &C) const override {
    return Base->invariantAfter(S, Pending, C);
  }

private:
  std::unique_ptr<ObjectType> Base;
  CoordinationSpec Spec;
  std::string Name;
};

/// Method-name lookup without methodId()'s assert.
bool lookupMethod(const ObjectType &T, const std::string &Name,
                  MethodId &Out) {
  for (MethodId M = 0; M < T.numMethods(); ++M)
    if (T.method(M).Name == Name) {
      Out = M;
      return true;
    }
  return false;
}

} // namespace

std::unique_ptr<ObjectType>
hamband::makeMutatedType(const std::string &BaseName,
                         const std::string &Mutation) {
  if (!isTypeRegistered(BaseName))
    return nullptr;
  std::size_t Colon = Mutation.find(':');
  if (Colon == std::string::npos)
    return nullptr;
  std::string Kind = Mutation.substr(0, Colon);
  if (Kind != "drop-conflict" && Kind != "drop-dep")
    return nullptr;
  std::size_t Slash = Mutation.find('/', Colon + 1);
  if (Slash == std::string::npos)
    return nullptr;
  std::string NameA = Mutation.substr(Colon + 1, Slash - Colon - 1);
  std::string NameB = Mutation.substr(Slash + 1);

  std::unique_ptr<ObjectType> Base = makeType(BaseName);
  MethodId A = 0, B = 0;
  if (!lookupMethod(*Base, NameA, A) || !lookupMethod(*Base, NameB, B))
    return nullptr;

  const CoordinationSpec &Orig = Base->coordination();
  bool DropConflict = Kind == "drop-conflict";
  if (DropConflict && !Orig.conflicts(A, B))
    return nullptr;
  if (!DropConflict) {
    const std::vector<MethodId> &D = Orig.dependencies(A);
    if (std::find(D.begin(), D.end(), B) == D.end())
      return nullptr;
  }

  CoordinationSpec S(Orig.numMethods());
  for (MethodId M = 0; M < Orig.numMethods(); ++M) {
    if (!Orig.isUpdate(M)) {
      S.setQuery(M);
      continue;
    }
    for (MethodId On : Orig.dependencies(M))
      if (DropConflict || !(M == A && On == B))
        S.addDependency(M, On);
    if (std::optional<unsigned> G = Orig.sumGroup(M))
      S.setSumGroup(M, *G);
  }
  for (MethodId X = 0; X < Orig.numMethods(); ++X)
    for (MethodId Y = X; Y < Orig.numMethods(); ++Y) {
      if (!Orig.conflicts(X, Y))
        continue;
      if (DropConflict && ((X == A && Y == B) || (X == B && Y == A)))
        continue;
      S.addConflict(X, Y);
    }
  S.finalize();
  return std::make_unique<MutatedType>(std::move(Base), std::move(S),
                                       Mutation);
}
