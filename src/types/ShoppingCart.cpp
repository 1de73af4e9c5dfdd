//===- types/ShoppingCart.cpp - Shopping cart CRDT ---------------------------/
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "hamband/types/ShoppingCart.h"
#include "hamband/types/ORSet.h"

#include <cassert>
#include <sstream>

using namespace hamband;
using namespace hamband::types;

std::size_t CartState::hashValue() const {
  std::size_t H = 0x2c9277b5;
  for (const auto &[Key, Qty] : Entries) {
    H = hashCombine(H, std::hash<Value>()(Key.first));
    H = hashCombine(H, std::hash<Value>()(Key.second));
    H = hashCombine(H, std::hash<Value>()(Qty));
  }
  return H;
}

std::string CartState::str() const {
  std::ostringstream OS;
  OS << "cart{";
  bool FirstEntry = true;
  for (const auto &[Key, Qty] : Entries) {
    if (!FirstEntry)
      OS << ',';
    OS << Key.first << 'x' << Qty << ':' << Key.second;
    FirstEntry = false;
  }
  OS << '}';
  return OS.str();
}

ShoppingCart::ShoppingCart() : Spec(3) {
  Methods[AddItem] = MethodInfo{"addItem", MethodKind::Update, 2};
  Methods[RemoveItem] = MethodInfo{"removeItem", MethodKind::Update, 1};
  Methods[Quantity] = MethodInfo{"quantity", MethodKind::Query, 1};
  Spec.setQuery(Quantity);
  Spec.addDependency(RemoveItem, AddItem);
  Spec.finalize();
}

const MethodInfo &ShoppingCart::method(MethodId M) const {
  assert(M < 3);
  return Methods[M];
}

StatePtr ShoppingCart::initialState() const {
  return std::make_unique<CartState>();
}

bool ShoppingCart::invariant(const ObjectState &) const { return true; }

void ShoppingCart::apply(ObjectState &S, const Call &C) const {
  auto &St = static_cast<CartState &>(S);
  if (C.Method == AddItem) {
    assert(C.Args.size() == 3 && "addItem must be prepared (i, q, tag)");
    St.Entries[{C.Args[0], C.Args[2]}] = C.Args[1];
    return;
  }
  assert(C.Method == RemoveItem && C.Args.size() >= 2 &&
         "removeItem must be prepared (i, count, tags...)");
  Value Item = C.Args[0];
  std::size_t Count = static_cast<std::size_t>(C.Args[1]);
  for (std::size_t I = 0; I < Count; ++I)
    St.Entries.erase({Item, C.Args[2 + I]});
}

Value ShoppingCart::query(const ObjectState &S, const Call &C) const {
  assert(C.Method == Quantity && C.Args.size() == 1);
  const auto &St = static_cast<const CartState &>(S);
  Value Total = 0;
  for (auto It = St.Entries.lower_bound({C.Args[0], INT64_MIN});
       It != St.Entries.end() && It->first.first == C.Args[0]; ++It)
    Total += It->second;
  return Total;
}

Call ShoppingCart::prepare(const ObjectState &S, const Call &C) const {
  if (C.Method == AddItem) {
    if (C.Args.size() == 3)
      return C;
    assert(C.Args.size() == 2);
    Call Out = C;
    Out.Args.push_back(ORSet::makeTag(C.Issuer, C.Req));
    return Out;
  }
  if (C.Method == RemoveItem) {
    if (C.Args.size() >= 2)
      return C;
    assert(C.Args.size() == 1);
    const auto &St = static_cast<const CartState &>(S);
    Call Out(RemoveItem, {C.Args[0], 0}, C.Issuer, C.Req);
    for (auto It = St.Entries.lower_bound({C.Args[0], INT64_MIN});
         It != St.Entries.end() && It->first.first == C.Args[0]; ++It)
      Out.Args.push_back(It->first.second);
    Out.Args[1] = static_cast<Value>(Out.Args.size() - 2);
    return Out;
  }
  return C;
}

/// True when prepared removeItem \p R observed the tag of prepared addItem
/// \p A.
static bool removeObservedAdd(const Call &R, const Call &A) {
  if (R.Args.size() < 2 || A.Args.size() != 3 || R.Args[0] != A.Args[0])
    return false;
  std::size_t Count = static_cast<std::size_t>(R.Args[1]);
  for (std::size_t I = 0; I < Count && 2 + I < R.Args.size(); ++I)
    if (R.Args[2 + I] == A.Args[2])
      return true;
  return false;
}

bool ShoppingCart::concurrentlyIssuable(const Call &A, const Call &B) const {
  if (A.Method == AddItem && B.Method == RemoveItem)
    return !removeObservedAdd(B, A);
  if (A.Method == RemoveItem && B.Method == AddItem)
    return !removeObservedAdd(A, B);
  return true;
}

std::vector<Call> ShoppingCart::enumerateCalls(MethodId M,
                                               unsigned Bound) const {
  if (M != AddItem && M != RemoveItem)
    return ObjectType::enumerateCalls(M, Bound);
  // Prepared effect calls over two items with unique tags; removes cover
  // the observed-tag subsets per item, including the empty observation.
  if (M == AddItem)
    return {
        Call(AddItem, {0, 2, 200}),
        Call(AddItem, {1, 1, 201}),
        Call(AddItem, {0, 3, 202}),
    };
  return {
      Call(RemoveItem, {0, 1, 200}),
      Call(RemoveItem, {0, 1, 202}),
      Call(RemoveItem, {0, 2, 200, 202}),
      Call(RemoveItem, {1, 1, 201}),
      Call(RemoveItem, {1, 0}),
  };
}
