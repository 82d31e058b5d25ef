// Runs the full pipeline plus one incremental edit round on the 250-class
// workload and prints the Engine's phase trace as JSON on stdout (all
// diagnostics go to stderr), with the last, incremental Integrate's share
// of it under "incremental_edit". bench/run_benches.sh embeds the JSON into
// BENCH_engine.json so the recorded numbers carry the phase breakdown and
// the cache-hit/recompute counters alongside the wall times.

#include <cstdlib>
#include <iostream>

#include "engine/engine.h"
#include "paper_fixtures.h"
#include "workload/generator.h"

using namespace ecrint;  // NOLINT: harness brevity

int main() {
  workload::GeneratorConfig config;
  config.num_concepts = 250;
  config.num_schemas = 2;
  config.concept_coverage = 0.9;
  Result<workload::Workload> workload = workload::GenerateWorkload(config);
  if (!workload.ok()) {
    std::cerr << "generate: " << workload.status() << "\n";
    return 1;
  }

  engine::Engine engine;
  for (const std::string& name : workload->schema_names) {
    Result<const ecr::Schema*> schema = workload->catalog.GetSchema(name);
    if (!schema.ok() || !engine.AddSchema(**schema).ok()) return 1;
  }
  for (const workload::TrueAttributeMatch& match :
       workload->attribute_matches) {
    (void)engine.AssertEquivalence(match.first, match.second);
  }
  for (const workload::TrueObjectRelation& relation :
       workload->object_relations) {
    if (!engine.AssertRelation(relation.first, relation.second,
                               relation.assertion)
             .ok()) {
      return 1;
    }
  }

  // Full pipeline, then one incremental edit round: retract the last
  // assertion (forces a full re-seed on the next Integrate), integrate,
  // re-assert it, integrate again — the last call must take the
  // incremental path.
  if (!engine.Integrate().ok()) return 1;
  int last = static_cast<int>(engine.assertions().user_assertions().size()) - 1;
  core::Assertion edit = engine.assertions().user_assertions()[last];
  if (!engine.RetractRelation(last).ok()) return 1;
  if (!engine.Integrate().ok()) return 1;
  if (!engine.AssertRelation(edit.first, edit.second, edit.type).ok()) {
    return 1;
  }
  engine::PhaseTrace before = engine.trace();
  if (!engine.Integrate().ok()) return 1;

  // The incremental Integrate on its own: what it added to each phase.
  engine::PhaseTrace edit_trace;
  for (const auto& [name, stats] : engine.trace().phases()) {
    auto prior = before.phases().find(name);
    engine::PhaseStats earlier =
        prior == before.phases().end() ? engine::PhaseStats{} : prior->second;
    if (stats.calls == earlier.calls) continue;
    edit_trace.Charge(name, stats.wall_ns - earlier.wall_ns,
                      stats.calls - earlier.calls);
    for (const auto& [counter, value] : stats.counters) {
      int64_t delta = value - earlier.counters[counter];
      if (delta != 0) edit_trace.Count(name, counter, delta);
    }
  }

  const auto& phases = engine.trace().phases();
  auto integrate = phases.find("integrate");
  if (integrate == phases.end() ||
      integrate->second.counters.count("incremental_reuses") == 0) {
    std::cerr << "SHAPE MISMATCH: no incremental reuse recorded\n";
    return 1;
  }
  std::cerr << "SHAPE OK: incremental path exercised\n";
  // {"phases": {...whole run...}, "incremental_edit": {"phases": {...}}}
  std::string json = engine.TraceJson();
  json.pop_back();
  std::cout << json << ", \"incremental_edit\": " << edit_trace.ToJson()
            << "}\n";
  return 0;
}
