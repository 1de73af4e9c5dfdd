//===- core/KeyedObjectType.cpp - Keyed multi-object lift ------------------=//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/KeyedObjectType.h"

#include <cassert>
#include <sstream>

using namespace hamband;

// -- KeyedState -------------------------------------------------------------

std::unique_ptr<ObjectState> KeyedState::clone() const {
  auto Out = std::make_unique<KeyedState>();
  for (const auto &[Key, Sub] : Objects)
    Out->Objects.emplace(Key, Sub->clone());
  return Out;
}

bool KeyedState::equals(const ObjectState &O) const {
  const auto &Other = static_cast<const KeyedState &>(O);
  if (Objects.size() != Other.Objects.size())
    return false;
  auto It = Other.Objects.begin();
  for (const auto &[Key, Sub] : Objects) {
    if (It->first != Key || !Sub->equals(*It->second))
      return false;
    ++It;
  }
  return true;
}

std::size_t KeyedState::hash() const {
  std::size_t H = 0x9b4d1c3a;
  for (const auto &[Key, Sub] : Objects) {
    H = hashCombine(H, static_cast<std::size_t>(Key));
    H = hashCombine(H, Sub->hash());
  }
  return H;
}

std::string KeyedState::str() const {
  std::ostringstream OS;
  OS << "{";
  bool First = true;
  for (const auto &[Key, Sub] : Objects) {
    if (!First)
      OS << ", ";
    First = false;
    OS << Key << ": " << Sub->str();
  }
  OS << "}";
  return OS.str();
}

const ObjectState *KeyedState::object(Value Key) const {
  auto It = Objects.find(Key);
  return It == Objects.end() ? nullptr : It->second.get();
}

// -- KeyedObjectType --------------------------------------------------------

KeyedObjectType::KeyedObjectType(const ObjectType &Base,
                                 Value SampleKeyDomain)
    : Base(Base), SampleKeyDomain(SampleKeyDomain),
      Spec(Base.numMethods()) {
  const CoordinationSpec &BS = Base.coordination();
  for (MethodId M = 0; M < Base.numMethods(); ++M) {
    MethodInfo Info = Base.method(M);
    ++Info.Arity; // The key argument.
    Methods.push_back(std::move(Info));
    if (!BS.isUpdate(M)) {
      Spec.setQuery(M);
      continue;
    }
    for (MethodId On : BS.dependencies(M))
      Spec.addDependency(M, On);
  }
  for (MethodId A = 0; A < Base.numMethods(); ++A)
    for (MethodId B = A; B < Base.numMethods(); ++B)
      if (BS.conflicts(A, B))
        Spec.addConflict(A, B);
  // No setSumGroup: keyed folds cannot fit a fixed summary slot, so
  // base-reducible methods are lifted to IrreducibleFree (see header).
  Spec.finalize();
}

Call KeyedObjectType::keyCall(Value Key, Call Inner) {
  Call Out(Inner.Method, {}, Inner.Issuer, Inner.Req);
  Out.Args.reserve(Inner.Args.size() + 1);
  Out.Args.push_back(Key);
  for (Value V : Inner.Args)
    Out.Args.push_back(V);
  return Out;
}

Value KeyedObjectType::callKey(const Call &C) {
  assert(!C.Args.empty() && "keyed call without a key argument");
  return C.Args[0];
}

Call KeyedObjectType::stripKey(const Call &C) {
  assert(!C.Args.empty() && "keyed call without a key argument");
  Call Out(C.Method, {}, C.Issuer, C.Req);
  Out.Args.assign(C.Args.begin() + 1, C.Args.end());
  return Out;
}

StatePtr KeyedObjectType::initialState() const {
  return std::make_unique<KeyedState>();
}

bool KeyedObjectType::invariant(const ObjectState &S) const {
  const auto &KS = static_cast<const KeyedState &>(S);
  for (const auto &[Key, Sub] : KS.Objects)
    if (!Base.invariant(*Sub))
      return false;
  return true;
}

void KeyedObjectType::apply(ObjectState &S, const Call &C) const {
  auto &KS = static_cast<KeyedState &>(S);
  Value Key = callKey(C);
  auto It = KS.Objects.find(Key);
  if (It == KS.Objects.end())
    It = KS.Objects.emplace(Key, Base.initialState()).first;
  Base.apply(*It->second, stripKey(C));
}

Value KeyedObjectType::query(const ObjectState &S, const Call &C) const {
  const auto &KS = static_cast<const KeyedState &>(S);
  Call Inner = stripKey(C);
  if (const ObjectState *Sub = KS.object(callKey(C)))
    return Base.query(*Sub, Inner);
  StatePtr Fresh = Base.initialState();
  return Base.query(*Fresh, Inner);
}

Call KeyedObjectType::prepare(const ObjectState &S, const Call &C) const {
  const auto &KS = static_cast<const KeyedState &>(S);
  Value Key = callKey(C);
  Call Inner = stripKey(C);
  if (const ObjectState *Sub = KS.object(Key))
    return keyCall(Key, Base.prepare(*Sub, Inner));
  StatePtr Fresh = Base.initialState();
  return keyCall(Key, Base.prepare(*Fresh, Inner));
}

bool KeyedObjectType::concurrentlyIssuable(const Call &A,
                                           const Call &B) const {
  if (callKey(A) != callKey(B))
    return true;
  return Base.concurrentlyIssuable(stripKey(A), stripKey(B));
}

std::vector<Call> KeyedObjectType::enumerateCalls(MethodId M,
                                                  unsigned Bound) const {
  std::vector<Call> Out;
  for (Value Key = 0; Key < SampleKeyDomain; ++Key)
    for (const Call &C : Base.enumerateCalls(M, Bound))
      Out.push_back(keyCall(Key, C));
  return Out;
}

Call KeyedObjectType::randomClientCall(MethodId M, ProcessId Issuer,
                                       RequestId Req, sim::Rng &R) const {
  Value Key = static_cast<Value>(R.index(
      static_cast<std::size_t>(SampleKeyDomain)));
  return keyCall(Key, Base.randomClientCall(M, Issuer, Req, R));
}

StatePtr KeyedObjectType::substateCopy(const ObjectState &S,
                                       Value Key) const {
  const auto &KS = static_cast<const KeyedState &>(S);
  if (const ObjectState *Sub = KS.object(Key))
    return Sub->clone();
  return Base.initialState();
}

bool KeyedObjectType::permissible(const ObjectState &S,
                                  const Call &C) const {
  if (!hasInvariant())
    return true;
  StatePtr Sub = substateCopy(S, callKey(C));
  Base.apply(*Sub, stripKey(C));
  return Base.invariant(*Sub);
}

bool KeyedObjectType::invariantAfter(const ObjectState &S,
                                     const std::deque<Call> &Pending,
                                     const Call &C) const {
  if (!hasInvariant())
    return true;
  Value Key = callKey(C);
  StatePtr Sub = substateCopy(S, Key);
  // Pending calls of other keys land in other substates and cannot change
  // whether this key's invariant survives C.
  for (const Call &P : Pending)
    if (callKey(P) == Key)
      Base.apply(*Sub, stripKey(P));
  Base.apply(*Sub, stripKey(C));
  return Base.invariant(*Sub);
}
