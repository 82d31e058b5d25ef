#ifndef ECRINT_CORE_INTEGRATOR_H_
#define ECRINT_CORE_INTEGRATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "ecr/catalog.h"
#include "core/assertion_store.h"
#include "core/equivalence.h"
#include "core/integration_result.h"

namespace ecrint::core {

// Knobs for phase 4. Defaults reproduce the paper's behaviour. The lattice
// is always transitively reduced (a ⊂ b ⊂ c keeps only a→b→c, not a→c, as
// in the paper's figures), and generated names use 4-character fragments
// (D_Stud_Facu).
struct IntegrationOptions {
  // Preload within-schema structure into the assertion closure (see
  // core/seeding.h). Disable to integrate exactly and only from DDA input.
  bool seed_category_containment = true;
  bool seed_entity_disjointness = true;
  // Name of the produced schema.
  std::string result_name = "integrated";
};

// Integrates the named component schemas into one schema, following the
// paper's phase 4:
//   * "equals" groups merge into E_ classes,
//   * "contains"/"contained-in" pairs become IS-A (category) edges,
//   * "may be" (overlap) and "disjoint integrable" pairs get a D_ derived
//     generalization with the originals as categories,
//   * equivalent attributes merge into D_ derived attributes placed at the
//     most specific class that generalizes all their owners,
//   * relationship sets integrate analogously (participants generalized
//     through the object lattice, cardinality constraints widened),
//   * component↔integrated mappings are emitted for request translation.
//
// Works n-ary: any number of distinct schemas ≥ 1 (the paper's tool
// integrates two per run; the methodology — and this function — handles n
// at once). Naming a schema twice is an InvalidArgument error.
// `assertions` is taken by value because within-schema structure is seeded
// into the closure first; pass your store as-is.
Result<IntegrationResult> Integrate(const ecr::Catalog& catalog,
                                    const std::vector<std::string>& schemas,
                                    const EquivalenceMap& equivalence,
                                    AssertionStore assertions,
                                    const IntegrationOptions& options = {});

// Seeds within-schema structure (category containment, entity disjointness
// per `options`) of the named schemas into `assertions`. This is the first —
// and by far the most expensive — step of Integrate; callers that re-run
// integration after small assertion edits can seed once, keep the seeded
// store, and call IntegrateSeeded. Contradictions between DDA assertions and
// component structure surface here.
Status SeedForIntegration(AssertionStore& assertions,
                          const ecr::Catalog& catalog,
                          const std::vector<std::string>& schemas,
                          const IntegrationOptions& options = {});

// Wall time of IntegrateSeeded's stages, in nanoseconds, in the order they
// run; together they cover the whole call.
struct IntegrateTimings {
  int64_t lattice_ns = 0;        // universes and both lattice pair scans
  int64_t clusters_ns = 0;       // grouping the scans' integrating pairs
  int64_t placement_ns = 0;      // attribute merging, copying and naming
  int64_t mappings_ns = 0;       // provenance and component mappings
  int64_t assembly_ns = 0;       // integrated object classes
  int64_t relationships_ns = 0;  // integrated relationship sets
};

// Phase 4 proper, over an already-seeded closure. `seeded` must hold the
// user assertions plus the output of SeedForIntegration for the same
// catalog/schemas/options; because path-consistency closure is confluent
// (the fixpoint is the intersection of all derivable constraints, so it is
// independent of assertion order), a cached seeded store extended by one
// incremental Assert yields exactly the matrix a full replay would.
// `timings`, when given, receives the per-stage split of the call.
Result<IntegrationResult> IntegrateSeeded(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& seeded,
    const IntegrationOptions& options = {},
    IntegrateTimings* timings = nullptr);

}  // namespace ecrint::core

#endif  // ECRINT_CORE_INTEGRATOR_H_
