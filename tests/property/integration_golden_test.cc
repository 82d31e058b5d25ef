// Golden output of phase 4: every part of an IntegrationResult (outline,
// relationship IS-A edges, clusters, structure provenance, derived
// attributes, and mappings with their attribute order) rendered as text for
// generated worlds and two hand-written projects, through both the n-ary
// driver and the binary ladder. The recorded text lives next to this file in
// integration_golden.txt. A diff means integration output changed; on a
// mismatch the fresh rendering is written to the test temp directory so the
// two can be compared with diff(1).

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/integrator.h"
#include "core/nary.h"
#include "core/project_io.h"
#include "ecr/printer.h"
#include "workload/generator.h"

namespace ecrint::core {
namespace {

const char* OriginName(ecr::ObjectOrigin origin) {
  switch (origin) {
    case ecr::ObjectOrigin::kComponent:
      return "component";
    case ecr::ObjectOrigin::kEquivalent:
      return "equivalent";
    case ecr::ObjectOrigin::kDerived:
      return "derived";
  }
  return "?";
}

void RenderClusters(const char* label, const std::vector<Cluster>& clusters,
                    std::string& out) {
  out += label;
  out += ":\n";
  for (const Cluster& cluster : clusters) {
    out += " ";
    for (const ObjectRef& member : cluster.members) {
      out += " " + member.ToString();
    }
    out += "\n";
  }
}

std::string Render(const Result<IntegrationResult>& result) {
  if (!result.ok()) return "error: " + result.status().ToString() + "\n";
  const ecr::Schema& schema = result->schema;
  std::string out = ecr::ToOutline(schema);
  for (ecr::RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const ecr::RelationshipSet& rel = schema.relationship(i);
    if (rel.parents.empty()) continue;
    out += "rel-is-a " + rel.name + ":";
    for (ecr::RelationshipId parent : rel.parents) {
      out += " " + schema.relationship(parent).name;
    }
    out += "\n";
  }
  RenderClusters("object clusters", result->object_clusters, out);
  RenderClusters("relationship clusters", result->relationship_clusters, out);
  out += "structures:\n";
  for (const IntegratedStructureInfo& info : result->structures) {
    out += "  " + std::string(StructureKindName(info.kind)) + " " +
           info.name + " " + OriginName(info.origin) + " <-";
    for (const ObjectRef& source : info.sources) {
      out += " " + source.ToString();
    }
    out += "\n";
  }
  out += "derived attributes:\n";
  for (const DerivedAttributeInfo& info : result->derived_attributes) {
    out += "  " + info.owner + "." + info.name + " <-";
    for (const ecr::AttributePath& path : info.components) {
      out += " " + path.ToString();
    }
    out += "\n";
  }
  out += "mappings:\n";
  for (const StructureMapping& mapping : result->mappings) {
    out += "  " + mapping.source.ToString() + " -> " + mapping.target + " (" +
           StructureKindName(mapping.kind) + ")\n";
    for (const AttributeMapping& a : mapping.attributes) {
      out += "    " + a.source_attribute + " -> " + a.target_owner + "." +
             a.target_attribute + "\n";
    }
  }
  return out;
}

// Both drivers over one catalog, equivalence map and assertion store.
std::string RenderBoth(const std::string& title, const ecr::Catalog& catalog,
                       const std::vector<std::string>& schemas,
                       const EquivalenceMap& equivalence,
                       const AssertionStore& assertions) {
  std::string out = "=== " + title + " / n-ary\n";
  out += Render(Integrate(catalog, schemas, equivalence, assertions));
  out += "=== " + title + " / binary ladder\n";
  out += Render(
      IntegrateBinaryLadder(catalog, schemas, equivalence, assertions));
  return out;
}

struct Tally {
  int overlaps = 0;
  int disjoint_integrable = 0;
};

std::string RenderWorld(uint64_t seed, int schemas, Tally& tally) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = 6;
  config.attributes_per_concept = 3;
  config.num_schemas = schemas;
  config.rename_noise = 0.25;
  config.partial_extent = 0.6;
  config.relationships_per_schema = 2;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  EXPECT_TRUE(w.ok()) << w.status();
  if (!w.ok()) return "";
  Result<EquivalenceMap> equivalence =
      EquivalenceMap::Create(w->catalog, w->schema_names);
  EXPECT_TRUE(equivalence.ok()) << equivalence.status();
  if (!equivalence.ok()) return "";
  for (const workload::TrueAttributeMatch& match : w->attribute_matches) {
    (void)equivalence->DeclareEquivalent(match.first, match.second);
  }
  AssertionStore assertions;
  for (const workload::TrueObjectRelation& relation : w->object_relations) {
    tally.overlaps += relation.assertion == AssertionType::kMayBe;
    tally.disjoint_integrable +=
        relation.assertion == AssertionType::kDisjointIntegrable;
    Result<ConflictReport> r =
        assertions.Assert(relation.first, relation.second, relation.assertion);
    EXPECT_TRUE(r.ok()) << r.status();
  }
  return RenderBoth("world seed " + std::to_string(seed) + ", " +
                        std::to_string(schemas) + " schemas",
                    w->catalog, w->schema_names, *equivalence, assertions);
}

std::string RenderProject(const std::string& title, const std::string& text) {
  Result<Project> project = ParseProject(text);
  EXPECT_TRUE(project.ok()) << project.status();
  if (!project.ok()) return "";
  Result<EquivalenceMap> equivalence = project->BuildEquivalence();
  Result<AssertionStore> assertions = project->BuildAssertions();
  EXPECT_TRUE(equivalence.ok()) << equivalence.status();
  EXPECT_TRUE(assertions.ok()) << assertions.status();
  if (!equivalence.ok() || !assertions.ok()) return "";
  return RenderBoth(title, project->catalog, project->catalog.SchemaNames(),
                    *equivalence, *assertions);
}

// The paper's university example.
constexpr char kUniversity[] = R"(%schemas
schema sc1 {
  entity Student { Name: char key; GPA: real; }
  entity Department { Dname: char key; }
  relationship Majors (Student [1,1], Department [0,n]);
}
schema sc2 {
  entity Grad_student { Name: char key; GPA: real; Support_type: char; }
  entity Faculty { Name: char key; Rank: char; }
  entity Department { Dname: char key; }
  relationship Study (Grad_student [1,1], Department [0,n]);
  relationship Works (Faculty [1,1], Department [1,n]);
}
%equivalences
sc1.Student.Name = sc2.Grad_student.Name
sc1.Student.GPA = sc2.Grad_student.GPA
sc1.Department.Dname = sc2.Department.Dname
%assertions
sc1.Department 1 sc2.Department
sc1.Student 3 sc2.Grad_student
sc1.Student 4 sc2.Faculty
sc1.Majors 1 sc2.Study
)";

// Overlapping objects and relationships (D_ nodes of both kinds), and one
// pair asserted disjoint-integrable and then disjoint-nonintegrable: it
// keeps its D_ generalization but lands in separate clusters.
constexpr char kMixed[] = R"(%schemas
schema s1 {
  entity Person { Name: char key; Age: int; }
  entity Student { Name: char key; GPA: real; }
  entity Staff { Sid: int key; Office: char; }
  relationship Advises (Staff [0,n], Student [1,1]);
}
schema s2 {
  entity Pupil { Name: char key; Year: int; }
  entity Employee { Eid: int key; Salary: real; }
  entity Club { Cname: char key; }
  relationship Mentors (Employee [0,n], Pupil [0,1]);
  relationship Joins (Pupil [0,n], Club [0,n]);
}
%equivalences
s1.Student.Name = s2.Pupil.Name
s1.Staff.Sid = s2.Employee.Eid
%assertions
s1.Student 5 s2.Pupil
s1.Staff 4 s2.Employee
s1.Staff 0 s2.Employee
s1.Advises 5 s2.Mentors
s1.Person 0 s2.Club
)";

TEST(IntegrationGoldenTest, OutputMatchesRecordedText) {
  std::string actual;
  Tally tally;
  const int kSchemas[] = {2, 3, 4};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    actual += RenderWorld(seed, kSchemas[seed % 3], tally);
  }
  // The worlds must exercise both kinds of D_ generalization.
  EXPECT_GT(tally.overlaps, 0);
  EXPECT_GT(tally.disjoint_integrable, 0);
  actual += RenderProject("university", kUniversity);
  actual += RenderProject("overlaps and disjointness", kMixed);

  std::ifstream in(std::string(ECRINT_GOLDEN_DIR) +
                   "/integration_golden.txt");
  ASSERT_TRUE(in.good()) << "missing integration_golden.txt";
  std::stringstream expected;
  expected << in.rdbuf();
  if (expected.str() != actual) {
    std::string path = ::testing::TempDir() + "integration_golden.actual";
    std::ofstream(path) << actual;
    ADD_FAILURE() << "integration output differs from "
                     "integration_golden.txt; fresh rendering written to "
                  << path;
  }
}

}  // namespace
}  // namespace ecrint::core
