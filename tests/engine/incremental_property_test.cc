// Property: over generated workloads and random edit sequences, an Engine
// with incremental recomputation produces the same integration result as
// one that calls FullRebuild() before every Integrate(). This is the confluence claim the
// dirty tracking rests on — extending a cached closure by the appended
// assertions reaches the same fixpoint as replaying the full log.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "ecr/printer.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace ecrint::engine {
namespace {

workload::Workload Make(uint64_t seed) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = 12;
  config.num_schemas = 2;
  config.rename_noise = 0.0;  // every ground-truth equivalence declares
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  EXPECT_TRUE(w.ok()) << w.status();
  return *std::move(w);
}

Engine Load(const workload::Workload& w) {
  Engine engine;
  for (const std::string& name : w.schema_names) {
    Result<const ecr::Schema*> schema = w.catalog.GetSchema(name);
    EXPECT_TRUE(schema.ok());
    EXPECT_TRUE(engine.AddSchema(**schema).ok());
  }
  for (const workload::TrueAttributeMatch& match : w.attribute_matches) {
    EXPECT_TRUE(engine.AssertEquivalence(match.first, match.second).ok());
  }
  for (const workload::TrueObjectRelation& relation : w.object_relations) {
    EXPECT_TRUE(engine
                    .AssertRelation(relation.first, relation.second,
                                    relation.assertion)
                    .ok());
  }
  return engine;
}

std::map<core::ObjectRef, std::string> Targets(
    const core::IntegrationResult& result) {
  std::map<core::ObjectRef, std::string> out;
  for (const core::StructureMapping& mapping : result.mappings) {
    out[mapping.source] = mapping.target;
  }
  return out;
}

// Integrates both engines, `full` from scratch, and requires identical
// results: same integrated schema (by outline) and same source -> target
// structure mapping.
void ExpectSameIntegration(Engine& incremental, Engine& full,
                           const std::string& context) {
  Result<const core::IntegrationResult*> a = incremental.Integrate();
  ASSERT_TRUE(full.FullRebuild().ok()) << context;
  Result<const core::IntegrationResult*> b = full.Integrate();
  ASSERT_TRUE(a.ok()) << context << ": " << a.status();
  ASSERT_TRUE(b.ok()) << context << ": " << b.status();
  EXPECT_EQ(ecr::ToOutline((*a)->schema), ecr::ToOutline((*b)->schema))
      << context;
  EXPECT_EQ(Targets(**a), Targets(**b)) << context;
}

int64_t IncrementalReuses(const Engine& engine) {
  auto it = engine.trace().phases().find("integrate");
  if (it == engine.trace().phases().end()) return 0;
  auto cit = it->second.counters.find("incremental_reuses");
  return cit == it->second.counters.end() ? 0 : cit->second;
}

class IncrementalPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalPropertyTest, EditSequenceMatchesFullRebuild) {
  workload::Workload w = Make(GetParam());
  Engine incremental = Load(w);
  Engine full = Load(w);
  ExpectSameIntegration(incremental, full, "initial");

  std::mt19937_64 rng(GetParam() * 7919 + 1);
  for (int round = 0; round < 6; ++round) {
    std::string context = "round " + std::to_string(round);
    if (round % 3 == 2 && !w.attribute_matches.empty()) {
      // Equivalence edit: retract one declared pair and re-declare it. The
      // equivalence generation bumps, so the incremental engine must fall
      // back to a full rebuild — and still agree.
      const workload::TrueAttributeMatch& match =
          w.attribute_matches[rng() % w.attribute_matches.size()];
      ASSERT_TRUE(incremental.RetractEquivalence(match.first).ok());
      ASSERT_TRUE(full.RetractEquivalence(match.first).ok());
      ExpectSameIntegration(incremental, full, context + " (retracted eq)");
      ASSERT_TRUE(
          incremental.AssertEquivalence(match.first, match.second).ok());
      ASSERT_TRUE(full.AssertEquivalence(match.first, match.second).ok());
    } else {
      // Assertion edit: retract a random Screen 8 answer (non-append
      // change, drops the seeded closure), integrate, then re-assert it
      // (append — the incremental engine extends the cached closure).
      int n =
          static_cast<int>(incremental.assertions().user_assertions().size());
      ASSERT_GT(n, 0);
      int index = static_cast<int>(rng() % static_cast<uint64_t>(n));
      core::Assertion edit =
          incremental.assertions().user_assertions()[index];
      ASSERT_TRUE(incremental.RetractRelation(index).ok());
      ASSERT_TRUE(full.RetractRelation(index).ok());
      ExpectSameIntegration(incremental, full, context + " (retracted)");
      ASSERT_TRUE(
          incremental.AssertRelation(edit.first, edit.second, edit.type)
              .ok());
      ASSERT_TRUE(
          full.AssertRelation(edit.first, edit.second, edit.type).ok());
    }
    ExpectSameIntegration(incremental, full, context + " (restored)");
  }

  // The agreement above must not be vacuous: the incremental engine has to
  // have taken its fast path, and the from-scratch engine never does.
  EXPECT_GE(IncrementalReuses(incremental), 1);
  EXPECT_EQ(IncrementalReuses(full), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalPropertyTest,
                         ::testing::Values(3, 17, 42, 99, 1234));

}  // namespace
}  // namespace ecrint::engine
