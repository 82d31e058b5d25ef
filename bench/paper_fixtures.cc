#include "paper_fixtures.h"

#include <cstdlib>
#include <iostream>
#include <vector>

#include "ecr/ddl_parser.h"

namespace ecrint::bench {

namespace {

constexpr char kUniversityDdl[] = R"(
schema sc1 {
  entity Student {
    Name: char key;
    GPA: real;
  }
  entity Department {
    Dname: char key;
  }
  relationship Majors (Student [1,1], Department [0,n]);
}
schema sc2 {
  entity Grad_student {
    Name: char key;
    GPA: real;
    Support_type: char;
  }
  entity Faculty {
    Name: char key;
    Rank: char;
  }
  entity Department {
    Dname: char key;
  }
  relationship Study (Grad_student [1,1], Department [0,n]);
  relationship Works (Faculty [1,1], Department [1,n]);
}
)";

void Die(const Status& status) {
  std::cerr << "fixture error: " << status << "\n";
  std::exit(1);
}

void Check(const Status& status) {
  if (!status.ok()) Die(status);
}

}  // namespace

ecr::Catalog UniversityCatalog() {
  ecr::Catalog catalog;
  Result<std::vector<std::string>> names =
      ecr::ParseInto(catalog, kUniversityDdl);
  if (!names.ok()) Die(names.status());
  return catalog;
}

core::EquivalenceMap UniversityEquivalences(const ecr::Catalog& catalog,
                                            bool include_faculty_name) {
  Result<core::EquivalenceMap> map =
      core::EquivalenceMap::Create(catalog, {"sc1", "sc2"});
  if (!map.ok()) Die(map.status());
  Check(map->DeclareEquivalent({"sc1", "Student", "Name"},
                               {"sc2", "Grad_student", "Name"}));
  Check(map->DeclareEquivalent({"sc1", "Student", "GPA"},
                               {"sc2", "Grad_student", "GPA"}));
  Check(map->DeclareEquivalent({"sc1", "Department", "Dname"},
                               {"sc2", "Department", "Dname"}));
  if (include_faculty_name) {
    Check(map->DeclareEquivalent({"sc1", "Student", "Name"},
                                 {"sc2", "Faculty", "Name"}));
  }
  return *std::move(map);
}

core::AssertionStore UniversityAssertions() {
  core::AssertionStore store;
  Check(store
            .Assert({"sc1", "Department"}, {"sc2", "Department"},
                    core::AssertionType::kEquals)
            .status());
  Check(store
            .Assert({"sc1", "Student"}, {"sc2", "Grad_student"},
                    core::AssertionType::kContains)
            .status());
  Check(store
            .Assert({"sc1", "Student"}, {"sc2", "Faculty"},
                    core::AssertionType::kDisjointIntegrable)
            .status());
  Check(store
            .Assert({"sc1", "Majors"}, {"sc2", "Study"},
                    core::AssertionType::kEquals)
            .status());
  return store;
}

core::EquivalenceMap TruthEquivalences(const workload::Workload& workload) {
  Result<core::EquivalenceMap> map =
      core::EquivalenceMap::Create(workload.catalog, workload.schema_names);
  if (!map.ok()) Die(map.status());
  for (const workload::TrueAttributeMatch& match :
       workload.attribute_matches) {
    // Renames can make domains diverge only in edge cases; skip those.
    (void)map->DeclareEquivalent(match.first, match.second);
  }
  return *std::move(map);
}

core::AssertionStore TruthAssertions(const workload::Workload& workload) {
  core::AssertionStore store;
  std::vector<core::Assertion> batch;
  batch.reserve(workload.object_relations.size());
  for (const workload::TrueObjectRelation& relation :
       workload.object_relations) {
    batch.push_back(
        core::Assertion{relation.first, relation.second, relation.assertion});
  }
  Result<core::ConflictReport> r = store.AssertBatch(batch);
  if (!r.ok()) Die(r.status());  // ground truth is consistent by design
  return store;
}

}  // namespace ecrint::bench
