// Clusters as phase 4 reports them (IntegrationResult::object_clusters and
// relationship_clusters), checked against a brute-force oracle: a separate
// O(n²) IsIntegrating scan over the universe with its own union-find, the
// way clusters were computed before the lattice scan took them over.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "core/integrator.h"
#include "ecr/builder.h"
#include "workload/generator.h"

namespace ecrint::core {
namespace {

// Partitions `universe` into clusters using the store's established
// relations: members sorted, clusters ordered by their smallest member.
// Members unknown to the store stay singletons.
std::vector<Cluster> OracleClusters(const AssertionStore& store,
                                    const std::vector<ObjectRef>& universe) {
  int n = static_cast<int>(universe.size());
  std::vector<int> id(n);
  for (int i = 0; i < n; ++i) id[i] = store.IdOf(universe[i]);
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (store.IsIntegrating(id[i], id[j])) parent[find(i)] = find(j);
    }
  }

  std::map<int, Cluster> by_root;
  for (int i = 0; i < n; ++i) by_root[find(i)].members.push_back(universe[i]);
  std::vector<Cluster> clusters;
  for (auto& [root, cluster] : by_root) {
    std::sort(cluster.members.begin(), cluster.members.end());
    clusters.push_back(std::move(cluster));
  }
  std::sort(clusters.begin(), clusters.end(),
            [](const Cluster& a, const Cluster& b) {
              return a.members.front() < b.members.front();
            });
  return clusters;
}

std::vector<std::vector<ObjectRef>> Members(
    const std::vector<Cluster>& clusters) {
  std::vector<std::vector<ObjectRef>> out;
  for (const Cluster& cluster : clusters) out.push_back(cluster.members);
  return out;
}

// Component structures of `schemas` in integration order.
void Universes(const ecr::Catalog& catalog,
               const std::vector<std::string>& schemas,
               std::vector<ObjectRef>& objects,
               std::vector<ObjectRef>& relationships) {
  for (const std::string& name : schemas) {
    const ecr::Schema* schema = *catalog.GetSchema(name);
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      objects.push_back({name, schema->object(i).name});
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      relationships.push_back({name, schema->relationship(i).name});
    }
  }
}

// --- the former BuildClusters cases, now through Integrate ------------------

const ObjectRef A{"s1", "A"};
const ObjectRef B{"s2", "B"};
const ObjectRef C{"s2", "C"};
const ObjectRef D{"s3", "D"};

// s1 {A}, s2 {B, C}, s3 {D}: one keyed entity set per structure.
ecr::Catalog FourEntities() {
  ecr::Catalog catalog;
  for (const auto& [schema, entities] :
       std::vector<std::pair<std::string, std::vector<std::string>>>{
           {"s1", {"A"}}, {"s2", {"B", "C"}}, {"s3", {"D"}}}) {
    ecr::SchemaBuilder builder(schema);
    for (const std::string& entity : entities) {
      builder.Entity(entity).Attr("k", ecr::Domain::Char(), true);
    }
    EXPECT_TRUE(catalog.AddSchema(*builder.Build()).ok());
  }
  return catalog;
}

// Integrates `schemas` from the store exactly as given (no within-schema
// seeding), checks the object clusters against the oracle over the same
// universe, and returns them.
std::vector<std::vector<ObjectRef>> ClustersOf(
    const AssertionStore& store, const std::vector<std::string>& schemas) {
  ecr::Catalog catalog = FourEntities();
  IntegrationOptions options;
  options.seed_category_containment = false;
  options.seed_entity_disjointness = false;
  Result<IntegrationResult> result = Integrate(
      catalog, schemas, *EquivalenceMap::Create(catalog, schemas), store,
      options);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  std::vector<ObjectRef> objects;
  std::vector<ObjectRef> relationships;
  Universes(catalog, schemas, objects, relationships);
  EXPECT_EQ(Members(result->object_clusters),
            Members(OracleClusters(store, objects)));
  return Members(result->object_clusters);
}

TEST(ClusterTest, NoAssertionsGivesSingletons) {
  AssertionStore store;
  EXPECT_EQ(ClustersOf(store, {"s1", "s2"}),
            (std::vector<std::vector<ObjectRef>>{{A}, {B}, {C}}));
}

TEST(ClusterTest, IntegratingAssertionsConnect) {
  AssertionStore store;
  ASSERT_TRUE(store.Assert(A, B, AssertionType::kEquals).ok());
  ASSERT_TRUE(store.Assert(C, D, AssertionType::kDisjointIntegrable).ok());
  EXPECT_EQ(ClustersOf(store, {"s1", "s2", "s3"}),
            (std::vector<std::vector<ObjectRef>>{{A, B}, {C, D}}));
}

TEST(ClusterTest, DisjointNonintegrableDoesNotConnect) {
  // The paper: clusters connect by "any assertion except disjoint
  // disintegrable".
  AssertionStore store;
  ASSERT_TRUE(
      store.Assert(A, B, AssertionType::kDisjointNonintegrable).ok());
  EXPECT_EQ(ClustersOf(store, {"s1", "s2"}),
            (std::vector<std::vector<ObjectRef>>{{A}, {B}, {C}}));
}

TEST(ClusterTest, DerivedRelationsConnectTransitively) {
  AssertionStore store;
  ASSERT_TRUE(store.Assert(A, B, AssertionType::kContainedIn).ok());
  ASSERT_TRUE(store.Assert(B, C, AssertionType::kContainedIn).ok());
  // A ⊆ C is derived; all three must land in one cluster regardless.
  EXPECT_EQ(ClustersOf(store, {"s1", "s2"}),
            (std::vector<std::vector<ObjectRef>>{{A, B, C}}));
}

TEST(ClusterTest, UniverseControlsMembership) {
  AssertionStore store;
  ASSERT_TRUE(store.Assert(A, B, AssertionType::kEquals).ok());
  // D unknown to the store still appears as a singleton; B, outside the
  // integrated schemas, does not appear.
  EXPECT_EQ(ClustersOf(store, {"s1", "s3"}),
            (std::vector<std::vector<ObjectRef>>{{A}, {D}}));
}

TEST(ClusterTest, DeterministicOrder) {
  AssertionStore store;
  ASSERT_TRUE(store.Assert(D, C, AssertionType::kEquals).ok());
  // Universe order D, B, C, A: clusters still come sorted by smallest
  // member, members sorted.
  EXPECT_EQ(ClustersOf(store, {"s3", "s2", "s1"}),
            (std::vector<std::vector<ObjectRef>>{{A}, {B}, {C, D}}));
}

// --- property: Integrate's clusters equal the oracle's ----------------------

class ClusterOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusterOracleTest, IntegrateMatchesOracleAtEveryAssertionPrefix) {
  workload::GeneratorConfig config;
  config.seed = GetParam();
  config.num_concepts = 12;
  config.num_schemas = 3;
  config.partial_extent = 0.5;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  ASSERT_TRUE(w.ok()) << w.status();
  EquivalenceMap equivalence =
      *EquivalenceMap::Create(w->catalog, w->schema_names);
  std::vector<ObjectRef> objects;
  std::vector<ObjectRef> relationships;
  Universes(w->catalog, w->schema_names, objects, relationships);

  AssertionStore store;
  for (size_t prefix = 0; prefix <= w->object_relations.size(); ++prefix) {
    if (prefix > 0) {
      const workload::TrueObjectRelation& r = w->object_relations[prefix - 1];
      ASSERT_TRUE(store.Assert(r.first, r.second, r.assertion).ok());
    }
    AssertionStore seeded = store;
    ASSERT_TRUE(
        SeedForIntegration(seeded, w->catalog, w->schema_names).ok());
    Result<IntegrationResult> result =
        IntegrateSeeded(w->catalog, w->schema_names, equivalence, seeded);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(Members(result->object_clusters),
              Members(OracleClusters(seeded, objects)))
        << "after " << prefix << " assertions";
    EXPECT_EQ(Members(result->relationship_clusters),
              Members(OracleClusters(seeded, relationships)))
        << "after " << prefix << " assertions";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterOracleTest,
                         ::testing::Values(3u, 17u, 42u, 99u, 1234u));

}  // namespace
}  // namespace ecrint::core
