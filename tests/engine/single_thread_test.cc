// The core runs on the calling thread: importing a project, integrating it
// and ranking its object pairs start no threads. This file is its own test
// binary, so the thread count it reads belongs to these calls alone.

#include <gtest/gtest.h>

#include <filesystem>
#include <utility>

#include "core/project_io.h"
#include "engine/engine.h"
#include "workload/generator.h"

namespace ecrint::engine {
namespace {

// Threads of this process, one /proc/self/task entry each.
int ThreadCount() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

TEST(SingleThreadTest, ImportIntegrateAndRankStartNoThreads) {
  workload::GeneratorConfig config;
  config.num_concepts = 250;
  config.num_schemas = 2;
  config.concept_coverage = 0.9;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  ASSERT_TRUE(w.ok()) << w.status();

  core::Project project;
  project.catalog = w->catalog;
  for (const workload::TrueAttributeMatch& match : w->attribute_matches) {
    project.equivalences.emplace_back(match.first, match.second);
  }
  for (const workload::TrueObjectRelation& relation : w->object_relations) {
    project.assertions.push_back(
        core::Assertion{relation.first, relation.second, relation.assertion});
  }
  ASSERT_EQ(ThreadCount(), 1);

  Engine engine;
  ASSERT_TRUE(engine.ImportProject(std::move(project)).ok());
  Result<const core::IntegrationResult*> integrated = engine.Integrate();
  ASSERT_TRUE(integrated.ok()) << integrated.status();
  Result<std::vector<core::ObjectPair>> ranked =
      engine.RankedPairs(w->schema_names[0], w->schema_names[1],
                         core::StructureKind::kObjectClass);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  EXPECT_FALSE(ranked->empty());

  EXPECT_EQ(ThreadCount(), 1);
}

}  // namespace
}  // namespace ecrint::engine
