//===- hamband/types/ShoppingCart.h - Shopping cart CRDT --------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shopping-cart use-case of Shapiro et al. [81] (the Dynamo cart):
/// a multiset of items built on observed-remove entries. addItem(i, q)
/// inserts a uniquely tagged (item, qty) entry; removeItem(i) removes the
/// entries observed at the issuing replica. Like the ORSet, both updates
/// are irreducible conflict-free and removeItem is dependent on addItem.
/// Used in Figure 9.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_SHOPPINGCART_H
#define HAMBAND_TYPES_SHOPPINGCART_H

#include "hamband/core/ObjectType.h"

#include <map>
#include <tuple>

namespace hamband {
namespace types {

/// State: live cart entries keyed by (item, tag) with a quantity each.
struct CartState : StateBase<CartState> {
  std::map<std::pair<Value, Value>, Value> Entries;

  bool operator==(const CartState &O) const { return Entries == O.Entries; }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Shopping cart: addItem(i, q) / removeItem(i) [irreducible conflict-free
/// updates], quantity(i) [query].
class ShoppingCart : public ObjectType {
public:
  static constexpr MethodId AddItem = 0;
  static constexpr MethodId RemoveItem = 1;
  static constexpr MethodId Quantity = 2;

  ShoppingCart();

  std::string name() const override { return "shopping-cart"; }
  unsigned numMethods() const override { return 3; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return false; }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  Call prepare(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool concurrentlyIssuable(const Call &A, const Call &B) const override;
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;

private:
  CoordinationSpec Spec;
  MethodInfo Methods[3];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_SHOPPINGCART_H
