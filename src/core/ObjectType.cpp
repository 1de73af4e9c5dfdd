//===- core/ObjectType.cpp - Object data types -----------------------------=//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/core/ObjectType.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace hamband;

ObjectState::~ObjectState() = default;

ObjectType::~ObjectType() = default;

MethodId ObjectType::methodId(std::string_view Name) const {
  for (MethodId M = 0; M < numMethods(); ++M)
    if (method(M).Name == Name)
      return M;
  assert(false && "unknown method name");
  std::abort();
}

Call ObjectType::prepare(const ObjectState &, const Call &C) const {
  return C;
}

bool ObjectType::joinInto(Call &, const Call &) const { return false; }

bool ObjectType::summarize(const Call &First, const Call &Second,
                           Call &Out) const {
  Call Joined = First;
  if (!joinInto(Joined, Second))
    return false;
  Out = std::move(Joined);
  return true;
}

void hamband::appendUnion(std::vector<Value> &Into,
                          const std::vector<Value> &From) {
  for (Value V : From)
    if (std::find(Into.begin(), Into.end(), V) == Into.end())
      Into.push_back(V);
}

std::vector<Call> ObjectType::decomposeSummary(
    const Call &Summary, std::size_t MaxArgsPerChunk) const {
  assert(MaxArgsPerChunk > 0 && "a chunk carries at least one argument");
  if (Summary.Args.size() <= MaxArgsPerChunk)
    return {Summary};
  std::vector<Call> Chunks;
  for (std::size_t I = 0; I < Summary.Args.size(); I += MaxArgsPerChunk) {
    std::size_t End = std::min(I + MaxArgsPerChunk, Summary.Args.size());
    Chunks.emplace_back(Summary.Method,
                        std::vector<Value>(Summary.Args.begin() + I,
                                           Summary.Args.begin() + End),
                        Summary.Issuer, Summary.Req);
  }
  return Chunks;
}

bool ObjectType::concurrentlyIssuable(const Call &, const Call &) const {
  return true;
}

std::vector<Call> ObjectType::enumerateCalls(MethodId M,
                                             unsigned Bound) const {
  const MethodInfo &Info = method(M);
  std::vector<Call> Out;
  if (Info.Arity == 0) {
    Out.emplace_back(M, std::vector<Value>{});
    return Out;
  }
  // All tuples over {0 .. D-1}^Arity via an odometer. D is capped so the
  // alphabet stays small even at large bounds; the bound's main job is the
  // reachability depth, not the value domain.
  const Value D = static_cast<Value>(std::min(Bound, 3u) < 2u
                                        ? 2u
                                        : std::min(Bound, 3u));
  std::vector<Value> Args(Info.Arity, 0);
  for (;;) {
    Out.emplace_back(M, Args);
    unsigned Pos = 0;
    while (Pos < Info.Arity && ++Args[Pos] == D) {
      Args[Pos] = 0;
      ++Pos;
    }
    if (Pos == Info.Arity)
      break;
  }
  return Out;
}

Call ObjectType::randomClientCall(MethodId M, ProcessId Issuer,
                                  RequestId Req, sim::Rng &R) const {
  const MethodInfo &Info = method(M);
  std::vector<Value> Args;
  for (unsigned A = 0; A < Info.Arity; ++A)
    Args.push_back(R.uniformInt(0, 3));
  return Call(M, std::move(Args), Issuer, Req);
}

bool ObjectType::permissible(const ObjectState &S, const Call &C) const {
  if (!hasInvariant())
    return true;
  StatePtr Post = applyCopy(S, C);
  return invariant(*Post);
}

bool ObjectType::invariantAfter(const ObjectState &S,
                                const std::deque<Call> &Pending,
                                const Call &C) const {
  if (!hasInvariant())
    return true;
  StatePtr Spec = S.clone();
  for (const Call &P : Pending)
    apply(*Spec, P);
  apply(*Spec, C);
  return invariant(*Spec);
}

StatePtr ObjectType::applyCopy(const ObjectState &S, const Call &C) const {
  StatePtr Copy = S.clone();
  apply(*Copy, C);
  return Copy;
}
