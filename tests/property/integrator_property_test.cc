// Property tests for phase 4 over generated workloads: for any consistent
// DDA input the integrator must produce a structurally valid ECR schema
// whose lattice honours every assertion, with complete mappings and
// faithful attribute provenance. Also checks the binary ladder agrees with
// the n-ary driver on lattice shape.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/integrator.h"
#include "core/nary.h"
#include "ecr/validate.h"
#include "workload/generator.h"

namespace ecrint::core {
namespace {

struct Prepared {
  workload::Workload workload;
  EquivalenceMap equivalence;
  AssertionStore assertions;
};

Prepared Prepare(uint64_t seed, int schemas, double noise) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = 14;
  config.num_schemas = schemas;
  config.rename_noise = noise;
  config.partial_extent = 0.5;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  EXPECT_TRUE(w.ok());
  Result<EquivalenceMap> equivalence =
      EquivalenceMap::Create(w->catalog, w->schema_names);
  EXPECT_TRUE(equivalence.ok());
  for (const workload::TrueAttributeMatch& match : w->attribute_matches) {
    (void)equivalence->DeclareEquivalent(match.first, match.second);
  }
  AssertionStore assertions;
  for (const workload::TrueObjectRelation& relation : w->object_relations) {
    Result<ConflictReport> r =
        assertions.Assert(relation.first, relation.second,
                          relation.assertion);
    EXPECT_TRUE(r.ok()) << r.status();
  }
  return {*std::move(w), *std::move(equivalence), std::move(assertions)};
}

class IntegratorPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntegratorPropertyTest, ResultIsValidAndHonoursAssertions) {
  Prepared p = Prepare(GetParam(), 3, 0.25);
  Result<IntegrationResult> result =
      Integrate(p.workload.catalog, p.workload.schema_names, p.equivalence,
                p.assertions);
  ASSERT_TRUE(result.ok()) << result.status();
  const ecr::Schema& s = result->schema;

  // (1) structural validity.
  EXPECT_TRUE(ecr::CheckSchemaValid(s).ok());

  // (2) every component structure maps to an existing integrated structure.
  std::map<ObjectRef, std::string> target_of;
  for (const StructureMapping& mapping : result->mappings) {
    target_of[mapping.source] = mapping.target;
    if (mapping.kind == StructureKind::kObjectClass) {
      EXPECT_NE(s.FindObject(mapping.target), ecr::kNoObject)
          << mapping.target;
    } else {
      EXPECT_GE(s.FindRelationship(mapping.target), 0) << mapping.target;
    }
    // (3) attribute mappings land on attributes declared directly on their
    // target structure, not on ones it inherits.
    for (const AttributeMapping& attribute : mapping.attributes) {
      ecr::ObjectId owner = s.FindObject(attribute.target_owner);
      bool found = false;
      if (owner != ecr::kNoObject) {
        for (const ecr::Attribute& a : s.object(owner).attributes) {
          found |= a.name == attribute.target_attribute;
        }
      } else {
        ecr::RelationshipId rel = s.FindRelationship(attribute.target_owner);
        ASSERT_GE(rel, 0) << attribute.target_owner;
        for (const ecr::Attribute& a : s.relationship(rel).attributes) {
          found |= a.name == attribute.target_attribute;
        }
      }
      EXPECT_TRUE(found) << attribute.target_owner << "."
                         << attribute.target_attribute;
    }
  }

  // (4) the lattice honours every ground-truth assertion.
  for (const workload::TrueObjectRelation& relation :
       p.workload.object_relations) {
    ASSERT_TRUE(target_of.count(relation.first));
    ASSERT_TRUE(target_of.count(relation.second));
    ecr::ObjectId a = s.FindObject(target_of[relation.first]);
    ecr::ObjectId b = s.FindObject(target_of[relation.second]);
    ASSERT_NE(a, ecr::kNoObject);
    ASSERT_NE(b, ecr::kNoObject);
    switch (relation.assertion) {
      case AssertionType::kEquals:
        EXPECT_EQ(a, b) << relation.first.ToString() << " = "
                        << relation.second.ToString();
        break;
      case AssertionType::kContains:
        EXPECT_TRUE(b == a || s.HasAncestor(b, a))
            << relation.first.ToString() << " contains "
            << relation.second.ToString();
        break;
      case AssertionType::kContainedIn:
        EXPECT_TRUE(a == b || s.HasAncestor(a, b));
        break;
      case AssertionType::kMayBe:
      case AssertionType::kDisjointIntegrable: {
        // Both must share a common generalization.
        std::set<ecr::ObjectId> ancestors;
        std::vector<ecr::ObjectId> stack = {a};
        while (!stack.empty()) {
          ecr::ObjectId node = stack.back();
          stack.pop_back();
          if (!ancestors.insert(node).second) continue;
          for (ecr::ObjectId parent : s.object(node).parents) {
            stack.push_back(parent);
          }
        }
        bool shared = false;
        stack = {b};
        std::set<ecr::ObjectId> seen;
        while (!stack.empty() && !shared) {
          ecr::ObjectId node = stack.back();
          stack.pop_back();
          if (!seen.insert(node).second) continue;
          shared |= ancestors.count(node) > 0;
          for (ecr::ObjectId parent : s.object(node).parents) {
            stack.push_back(parent);
          }
        }
        EXPECT_TRUE(shared) << relation.first.ToString() << " ~ "
                            << relation.second.ToString();
        break;
      }
      case AssertionType::kDisjointNonintegrable:
        break;  // nothing to honour
    }
  }

  // (5) no object class repeats an attribute name, its own or one it
  // inherits: placement reserves names against ancestors, and assembly
  // adds them unchecked.
  for (ecr::ObjectId id = 0; id < s.num_objects(); ++id) {
    std::set<std::string> inherited;
    std::set<ecr::ObjectId> visited;
    std::vector<ecr::ObjectId> stack = s.object(id).parents;
    while (!stack.empty()) {
      ecr::ObjectId node = stack.back();
      stack.pop_back();
      if (!visited.insert(node).second) continue;
      for (const ecr::Attribute& a : s.object(node).attributes) {
        inherited.insert(a.name);
      }
      for (ecr::ObjectId parent : s.object(node).parents) {
        stack.push_back(parent);
      }
    }
    std::set<std::string> own;
    for (const ecr::Attribute& a : s.object(id).attributes) {
      EXPECT_TRUE(own.insert(a.name).second)
          << s.object(id).name << "." << a.name;
      EXPECT_EQ(inherited.count(a.name), 0u)
          << s.object(id).name << "." << a.name;
    }
  }

  // (6) derived attributes' components really exist in their source
  // schemas.
  for (const DerivedAttributeInfo& info : result->derived_attributes) {
    EXPECT_GE(info.components.size(), 2u);
    for (const ecr::AttributePath& component : info.components) {
      Result<const ecr::Schema*> source =
          p.workload.catalog.GetSchema(component.schema);
      ASSERT_TRUE(source.ok());
      ecr::ObjectId id = (*source)->FindObject(component.object);
      bool found = false;
      if (id != ecr::kNoObject) {
        for (const ecr::Attribute& a : (*source)->object(id).attributes) {
          found |= a.name == component.attribute;
        }
      }
      EXPECT_TRUE(found) << component.ToString();
    }
  }
}

TEST_P(IntegratorPropertyTest, BinaryLadderAgreesOnLatticeShape) {
  // Four schemas: the ladder re-seeds each intermediate result, which is
  // where D_-generalization pairs over one class once tripped the
  // entity-disjointness seed (regression).
  Prepared p = Prepare(GetParam(), 4, 0.0);
  Result<IntegrationResult> nary =
      Integrate(p.workload.catalog, p.workload.schema_names, p.equivalence,
                p.assertions);
  ASSERT_TRUE(nary.ok()) << nary.status();
  Result<IntegrationResult> ladder = IntegrateBinaryLadder(
      p.workload.catalog, p.workload.schema_names, p.equivalence,
      p.assertions);
  ASSERT_TRUE(ladder.ok()) << ladder.status();

  EXPECT_TRUE(ecr::CheckSchemaValid(ladder->schema).ok());
  // Same merge structure: every pair of component structures lands on the
  // same integrated node in one driver iff it does in the other.
  auto targets = [](const IntegrationResult& result) {
    std::map<ObjectRef, std::string> out;
    for (const StructureMapping& mapping : result.mappings) {
      out[mapping.source] = mapping.target;
    }
    return out;
  };
  std::map<ObjectRef, std::string> nt = targets(*nary);
  std::map<ObjectRef, std::string> lt = targets(*ladder);
  ASSERT_EQ(nt.size(), lt.size());
  for (const auto& [a, ta] : nt) {
    for (const auto& [b, tb] : nt) {
      EXPECT_EQ(ta == tb, lt.at(a) == lt.at(b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegratorPropertyTest,
                         ::testing::Values(3, 17, 42, 99, 1234));

}  // namespace
}  // namespace ecrint::core
