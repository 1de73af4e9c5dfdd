//===- hamband/types/Schema.h - Relational schema WRDTs ---------*- C++ -*-==//
//
// Part of the Hamband reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A parametric two-entity relational schema with a foreign-key-constrained
/// relationship, covering the project-management and courseware use-cases
/// of Section 5 (adopted from Hamsaz [39] and Özsu-Valduriez [71]).
///
/// The schema has entity sets A and B and a relationship Rel ⊆ A × B with
/// the referential-integrity invariant: every row references live rows.
/// Methods and their (paper-matching) categories:
///
///   addA(a)        conflicting  (S-conflicts with delA on the same key)
///   delA(a)        conflicting  (cascades Rel rows of a)
///   rel(..)        conflicting  (P-conflicts with delA), Dep = {addA, addB}
///   addB(b...)     reducible    (grow-only, summarizes by union)
///   query(a)       query        (number of Rel rows of a)
///
/// {addA, delA, rel} form one synchronization group -- exactly the
/// project-management and courseware analyses reported in the paper.
///
//===----------------------------------------------------------------------===//

#ifndef HAMBAND_TYPES_SCHEMA_H
#define HAMBAND_TYPES_SCHEMA_H

#include "hamband/core/ObjectType.h"

#include <array>
#include <set>
#include <utility>

namespace hamband {
namespace types {

/// State: the two entity sets and the relationship rows (A-key, B-key).
struct SchemaState : StateBase<SchemaState> {
  std::set<Value> EntityA;
  std::set<Value> EntityB;
  std::set<std::pair<Value, Value>> Rel;

  bool operator==(const SchemaState &O) const {
    return EntityA == O.EntityA && EntityB == O.EntityB && Rel == O.Rel;
  }
  std::size_t hashValue() const;
  std::string str() const override;
};

/// Parametric two-entity schema; see the file comment. Subclasses only
/// provide the class/method names and the argument order of the
/// relationship method.
class TwoEntitySchema : public ObjectType {
public:
  static constexpr MethodId AddA = 0;
  static constexpr MethodId DelA = 1;
  static constexpr MethodId Rel = 2;
  static constexpr MethodId AddB = 3;
  static constexpr MethodId QueryA = 4;

  /// \p RelArgsAB: true when the relationship method's first argument is
  /// the A-key (courseware's enroll(course, student)); false when it is
  /// the B-key (project management's worksOn(employee, project)).
  TwoEntitySchema(std::string ClassName,
                  const std::array<const char *, 5> &Names, bool RelArgsAB);

  std::string name() const override { return ClassName; }
  unsigned numMethods() const override { return 5; }
  const MethodInfo &method(MethodId M) const override;
  StatePtr initialState() const override;
  bool invariant(const ObjectState &S) const override;
  void apply(ObjectState &S, const Call &C) const override;
  Value query(const ObjectState &S, const Call &C) const override;
  const CoordinationSpec &coordination() const override { return Spec; }
  bool joinInto(Call &Into, const Call &Delta) const override;
  std::vector<Call> enumerateCalls(MethodId M, unsigned Bound) const override;

private:
  /// Decodes the relationship call's (A-key, B-key) pair.
  std::pair<Value, Value> relKeys(const Call &C) const;

  std::string ClassName;
  bool RelArgsAB;
  CoordinationSpec Spec;
  MethodInfo Methods[5];
};

/// The project-management schema: addProject, deleteProject,
/// worksOn(employee, project), addEmployee, query (Figure 11).
class ProjectManagement : public TwoEntitySchema {
public:
  ProjectManagement();
};

/// The courseware schema: addCourse, deleteCourse,
/// enroll(course, student), registerStudent, query (Figure 13).
class Courseware : public TwoEntitySchema {
public:
  Courseware();
};

} // namespace types
} // namespace hamband

#endif // HAMBAND_TYPES_SCHEMA_H
