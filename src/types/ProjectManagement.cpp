//===- types/ProjectManagement.cpp - Relational schema WRDTs ----------------//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
// Implements TwoEntitySchema and its two instantiations. The file carries
// the schema machinery; Courseware.cpp and Movie.cpp hold the remaining
// schema constructors.
//===----------------------------------------------------------------------===//

#include "hamband/types/Schema.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::size_t SchemaState::hashValue() const {
  std::size_t H = 0x11d3aa0f;
  for (Value V : EntityA)
    H = hashCombine(H, std::hash<Value>()(V));
  H = hashCombine(H, 0x9d);
  for (Value V : EntityB)
    H = hashCombine(H, std::hash<Value>()(V));
  H = hashCombine(H, 0x3b);
  for (const auto &[A, B] : Rel) {
    H = hashCombine(H, std::hash<Value>()(A));
    H = hashCombine(H, std::hash<Value>()(B));
  }
  return H;
}

std::string SchemaState::str() const {
  std::ostringstream OS;
  OS << "schema{A:";
  for (Value V : EntityA)
    OS << V << ' ';
  OS << "B:";
  for (Value V : EntityB)
    OS << V << ' ';
  OS << "R:";
  for (const auto &[A, B] : Rel)
    OS << '(' << A << ',' << B << ')';
  OS << '}';
  return OS.str();
}

TwoEntitySchema::TwoEntitySchema(std::string ClassName,
                                 const std::array<const char *, 5> &Names,
                                 bool RelArgsAB)
    : ClassName(std::move(ClassName)), RelArgsAB(RelArgsAB), Spec(5) {
  Methods[AddA] = MethodInfo{Names[0], MethodKind::Update, 1};
  Methods[DelA] = MethodInfo{Names[1], MethodKind::Update, 1};
  Methods[Rel] = MethodInfo{Names[2], MethodKind::Update, 2};
  Methods[AddB] = MethodInfo{Names[3], MethodKind::Update, 1};
  Methods[QueryA] = MethodInfo{Names[4], MethodKind::Query, 1};
  Spec.setQuery(QueryA);
  // addA(a)/delA(a) on the same key do not S-commute; delA(a) cascades the
  // rows a relationship insert may have added, so delA/rel do not
  // S-commute either (and rel is impermissible after delA).
  Spec.addConflict(AddA, DelA);
  Spec.addConflict(DelA, Rel);
  // The relationship insert relies on both referenced entities existing.
  Spec.addDependency(Rel, AddA);
  Spec.addDependency(Rel, AddB);
  // Grow-only entity-B inserts summarize by union.
  Spec.setSumGroup(AddB, 0);
  Spec.finalize();
}

const MethodInfo &TwoEntitySchema::method(MethodId M) const {
  assert(M < 5);
  return Methods[M];
}

StatePtr TwoEntitySchema::initialState() const {
  return std::make_unique<SchemaState>();
}

bool TwoEntitySchema::invariant(const ObjectState &S) const {
  const auto &St = static_cast<const SchemaState &>(S);
  for (const auto &[A, B] : St.Rel)
    if (!St.EntityA.count(A) || !St.EntityB.count(B))
      return false;
  return true;
}

std::pair<Value, Value> TwoEntitySchema::relKeys(const Call &C) const {
  assert(C.Args.size() == 2);
  return RelArgsAB ? std::pair<Value, Value>(C.Args[0], C.Args[1])
                   : std::pair<Value, Value>(C.Args[1], C.Args[0]);
}

void TwoEntitySchema::apply(ObjectState &S, const Call &C) const {
  auto &St = static_cast<SchemaState &>(S);
  switch (C.Method) {
  case AddA:
    assert(C.Args.size() == 1);
    St.EntityA.insert(C.Args[0]);
    return;
  case DelA: {
    assert(C.Args.size() == 1);
    St.EntityA.erase(C.Args[0]);
    // Referential cascade: drop the relationship rows of the entity.
    for (auto It = St.Rel.begin(); It != St.Rel.end();) {
      if (It->first == C.Args[0])
        It = St.Rel.erase(It);
      else
        ++It;
    }
    return;
  }
  case Rel:
    St.Rel.insert(relKeys(C));
    return;
  case AddB:
    for (Value V : C.Args)
      St.EntityB.insert(V);
    return;
  default:
    assert(false && "apply() on a non-update method");
  }
}

Value TwoEntitySchema::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == QueryA && C.Args.size() == 1);
  const auto &St = static_cast<const SchemaState &>(S);
  Value Count = 0;
  for (auto It = St.Rel.lower_bound({C.Args[0], INT64_MIN});
       It != St.Rel.end() && It->first == C.Args[0]; ++It)
    ++Count;
  return Count;
}

bool TwoEntitySchema::joinInto(Call &Into, const Call &Delta) const {
  if (Into.Method != AddB || Delta.Method != AddB)
    return false;
  appendUnion(Into.Args, Delta.Args);
  Into.Issuer = Delta.Issuer;
  Into.Req = Delta.Req;
  return true;
}

ProjectManagement::ProjectManagement()
    : TwoEntitySchema("project-management",
                      {"addProject", "deleteProject", "worksOn",
                       "addEmployee", "query"},
                      /*RelArgsAB=*/false) {}

std::vector<Call> TwoEntitySchema::enumerateCalls(MethodId M,
                                                  unsigned Bound) const {
  if (M == QueryA)
    return ObjectType::enumerateCalls(M, Bound);
  // Two keys per entity set suffice: the relations only distinguish
  // same-key from different-key calls, and the bound governs how many
  // rows a path can build up.
  switch (M) {
  case AddA:
  case DelA:
    return {Call(M, {0}), Call(M, {1})};
  case Rel: {
    std::vector<Call> Out;
    for (Value A = 0; A < 2; ++A)
      for (Value B = 0; B < 2; ++B)
        Out.emplace_back(Rel, RelArgsAB ? std::vector<Value>{A, B}
                                        : std::vector<Value>{B, A});
    return Out;
  }
  default:
    return {Call(AddB, {0}), Call(AddB, {1}), Call(AddB, {0, 1})};
  }
}
