//===- hamband/types/Movie.h - Movie-store schema WRDT ----------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The movie use-case of Section 5: two independent relations (customers
/// and movies), each with add/delete methods that S-conflict pairwise on
/// the same key but never across relations. The conflict graph therefore
/// has *two* connected components, i.e. two synchronization groups with
/// two independent leaders -- the property Figure 10 measures against the
/// single-leader Mu SMR. There are no dependencies.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_MOVIE_H
#define HAMBAND_TYPES_MOVIE_H

#include "hamband/core/ObjectType.h"

#include <set>

namespace hamband {
namespace types {

/// State: the customer and movie key sets.
struct MovieState : StateBase<MovieState> {
  std::set<Value> Customers;
  std::set<Value> Movies;

  bool operator==(const MovieState &O) const {
    return Customers == O.Customers && Movies == O.Movies;
  }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Movie store: addCustomer/deleteCustomer and addMovie/deleteMovie
/// [two synchronization groups], hasCustomer [query].
class Movie : public ObjectType {
public:
  static constexpr MethodId AddCustomer = 0;
  static constexpr MethodId DeleteCustomer = 1;
  static constexpr MethodId AddMovie = 2;
  static constexpr MethodId DeleteMovie = 3;
  static constexpr MethodId HasCustomer = 4;

  Movie();

  std::string name() const override { return "movie"; }
  unsigned numMethods() const override { return 5; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  bool hasInvariant() const override { return false; }
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }

private:
  CoordinationSpec Spec;
  MethodInfo Methods[5];
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_MOVIE_H
