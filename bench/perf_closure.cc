// Scalability of phase 3: the assertion closure. Measures asserting chains
// (worst-case propagation depth), dense ground-truth assertion sets, and
// the cost of conflict detection with rollback.
//
// The kernel is a change-driven worklist over bitset-packed relation rows,
// so cost tracks the number of cells that actually narrow, not the N^3
// triple loop of a full path-consistency recompute. The chain workload
// narrows Θ(N^2) cells (every pair becomes comparable), so BM_AssertChain's
// ->Complexity() fit lands around N^2 — sub-cubic is the invariant the
// bench CI suite (tools/ci.sh --suite bench) guards via BM_AssertChain/64.

#include <benchmark/benchmark.h>

#include "core/assertion_store.h"
#include "paper_fixtures.h"
#include "workload/generator.h"

namespace ecrint {
namespace {

using core::AssertionStore;
using core::AssertionType;
using core::ObjectRef;

ObjectRef Ref(int i) { return {"s" + std::to_string(i % 7), "O" + std::to_string(i)}; }

// A containment chain O0 ⊆ O1 ⊆ ... ⊆ On: every new link derives relations
// to all previous objects.
void BM_AssertChain(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    AssertionStore store;
    for (int i = 0; i + 1 < n; ++i) {
      benchmark::DoNotOptimize(
          store.Assert(Ref(i), Ref(i + 1), AssertionType::kContainedIn));
    }
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AssertChain)->Arg(8)->Arg(16)->Arg(32)->Arg(64)
    ->Complexity();

// Replaying a synthetic workload's full ground-truth assertion set.
void BM_AssertGroundTruth(benchmark::State& state) {
  workload::GeneratorConfig config;
  config.num_concepts = static_cast<int>(state.range(0));
  config.num_schemas = 3;
  Result<workload::Workload> w = workload::GenerateWorkload(config);
  if (!w.ok()) std::abort();
  for (auto _ : state) {
    core::AssertionStore store = bench::TruthAssertions(*w);
    benchmark::DoNotOptimize(store);
  }
}
BENCHMARK(BM_AssertGroundTruth)->Arg(10)->Arg(25)->Arg(50);

// Conflict detection cost: the rejected assertion must snapshot, propagate
// to the contradiction, and roll back.
void BM_ConflictDetection(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  AssertionStore store;
  for (int i = 0; i + 1 < n; ++i) {
    (void)store.Assert(Ref(i), Ref(i + 1), AssertionType::kContainedIn)
        .status();
  }
  for (auto _ : state) {
    Result<core::ConflictReport> r = store.Assert(
        Ref(0), Ref(n - 1), AssertionType::kDisjointNonintegrable);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ConflictDetection)->Arg(8)->Arg(32)->Arg(64);

// Querying derived facts over a populated store.
void BM_DerivedFacts(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  AssertionStore store;
  for (int i = 0; i + 1 < n; ++i) {
    (void)store.Assert(Ref(i), Ref(i + 1), AssertionType::kContainedIn)
        .status();
  }
  for (auto _ : state) {
    std::vector<AssertionStore::DerivedFact> facts = store.DerivedFacts();
    benchmark::DoNotOptimize(facts);
  }
}
BENCHMARK(BM_DerivedFacts)->Arg(16)->Arg(64);

}  // namespace
}  // namespace ecrint

BENCHMARK_MAIN();
