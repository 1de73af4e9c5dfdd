//===- hamband/core/CoordinationSpec.h - Method coordination ----*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Method-level coordination metadata (Section 3.3): the conflict relation
/// and its induced conflict graph, synchronization groups (connected
/// components), dependency sets Dep(u), summarization groups SumGroup(u),
/// and the resulting three-way method categorization -- reducible,
/// irreducible conflict-free, and conflicting.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_CORE_COORDINATIONSPEC_H
#define HAMBAND_CORE_COORDINATIONSPEC_H

#include "hamband/core/Call.h"
#include "hamband/core/SymMatrix.h"

#include <optional>
#include <vector>

namespace hamband {

/// The three coordination categories of update methods (Section 3.3).
enum class MethodCategory {
  /// Conflict-free, dependence-free and summarizable: propagated as a
  /// single remotely written summary call (rule REDUCE).
  Reducible,
  /// Conflict-free but dependent or not summarizable: propagated through
  /// per-issuer conflict-free buffers F (rule FREE).
  IrreducibleFree,
  /// Member of a synchronization group: ordered by the group's leader into
  /// the conflicting buffers L (rule CONF).
  Conflicting,
  /// Query methods never mutate state and execute locally (rule QUERY).
  Query,
};

/// Returns a short name for a category ("reducible", ...).
const char *categoryName(MethodCategory C);

/// Declared coordination relations for an object class.
///
/// Build one by adding conflict edges, dependency edges and summarization
/// groups, then call finalize() to compute the connected components of the
/// conflict graph (the synchronization groups) and each method's category.
class CoordinationSpec {
public:
  explicit CoordinationSpec(unsigned NumMethods = 0);

  unsigned numMethods() const { return NumMethods; }

  /// Marks \p M as a query method (excluded from the update relations).
  void setQuery(MethodId M);

  /// Declares that calls on \p A and \p B may conflict (S-conflict or
  /// P-conflict). Symmetric; A == B declares a self-conflict loop (e.g.
  /// withdraw/withdraw in the bank account).
  void addConflict(MethodId A, MethodId B);

  /// Declares that calls on \p M may be dependent on preceding calls on
  /// \p On (permissible-left-commutativity fails).
  void addDependency(MethodId M, MethodId On);

  /// Places \p M in summarization group \p Group. Calls on a group must be
  /// closed under ObjectType::summarize.
  void setSumGroup(MethodId M, unsigned Group);

  /// Computes synchronization groups and categories. Must be called once
  /// after all edges are declared and before any accessor below.
  void finalize();
  bool finalized() const { return Finalized; }

  /// Whether methods \p A and \p B conflict.
  bool conflicts(MethodId A, MethodId B) const;

  /// Whether any conflict edge touches \p M.
  bool isConflicting(MethodId M) const;

  /// Dep(u): the sorted set of methods \p M depends on.
  const std::vector<MethodId> &dependencies(MethodId M) const;

  /// True if Dep(u) is empty.
  bool isDependenceFree(MethodId M) const {
    return dependencies(M).empty();
  }

  /// SumGroup(u), or nullopt if not summarizable.
  std::optional<unsigned> sumGroup(MethodId M) const;

  /// SyncGroup(u): the conflict-graph component of \p M, or nullopt for
  /// conflict-free methods.
  std::optional<unsigned> syncGroup(MethodId M) const;

  /// Number of synchronization groups.
  unsigned numSyncGroups() const;

  /// Members of synchronization group \p G (sorted by method id).
  const std::vector<MethodId> &syncGroupMembers(unsigned G) const;

  /// Number of summarization groups (max declared group index + 1).
  unsigned numSumGroups() const { return NumSumGroups; }

  /// The category of \p M.
  MethodCategory category(MethodId M) const;

  /// True if \p M is an update method.
  bool isUpdate(MethodId M) const { return !IsQuery[M]; }

  /// All update method ids, ascending.
  std::vector<MethodId> updateMethods() const;

private:
  unsigned NumMethods = 0;
  bool Finalized = false;
  std::vector<bool> IsQuery;
  SymmetricMatrix ConflictMatrix; // NumMethods x NumMethods.
  std::vector<std::vector<MethodId>> Deps;
  std::vector<std::optional<unsigned>> SumGroups;
  unsigned NumSumGroups = 0;
  // Computed by finalize():
  std::vector<std::optional<unsigned>> SyncGroups;
  std::vector<std::vector<MethodId>> SyncGroupList;
  std::vector<MethodCategory> Categories;
};

} // namespace hamband

#endif // HAMBAND_CORE_COORDINATIONSPEC_H
