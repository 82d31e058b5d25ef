#ifndef ECRINT_CORE_PROJECT_IO_H_
#define ECRINT_CORE_PROJECT_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "ecr/catalog.h"
#include "core/assertion_store.h"
#include "core/equivalence.h"

namespace ecrint::core {

// The tool's persistent working state: component schemas plus the DDA's
// phase-2/3 decisions. The paper's tool "performs essential bookkeeping";
// this is that bookkeeping, serializable so a DDA session can stop and
// resume. Text format:
//
//   %schemas
//   schema sc1 { ... }          # DDL blocks
//   %equivalences
//   sc1.Student.Name = sc2.Grad_student.Name
//   %assertions
//   sc1.Student 3 sc2.Grad_student    # menu code between the two refs
struct Project {
  ecr::Catalog catalog;
  std::vector<std::pair<ecr::AttributePath, ecr::AttributePath>> equivalences;
  std::vector<Assertion> assertions;

  // Replays the stored decisions into fresh phase-2/3 state. Fails if a
  // stored decision no longer applies (e.g. attribute removed or the
  // assertions now conflict).
  Result<EquivalenceMap> BuildEquivalence() const;
  Result<AssertionStore> BuildAssertions() const;
};

// Serializes live tool state. Equivalence classes are stored as pair chains
// (first member = each other member).
std::string SerializeProject(const ecr::Catalog& catalog,
                             const EquivalenceMap& equivalence,
                             const AssertionStore& assertions);

Result<Project> ParseProject(const std::string& text);

// The textual forms of attribute paths ("sc1.Student.Name") and object
// references ("sc1.Student") shared by project files, the wire verbs and
// the journal.
Result<ecr::AttributePath> ParsePath(const std::string& token);
Result<ObjectRef> ParseRef(const std::string& token);

Status SaveProjectFile(const std::string& path, const ecr::Catalog& catalog,
                       const EquivalenceMap& equivalence,
                       const AssertionStore& assertions);

Result<Project> LoadProjectFile(const std::string& path);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_PROJECT_IO_H_
