#ifndef ECRINT_CORE_SEEDING_H_
#define ECRINT_CORE_SEEDING_H_

#include <vector>

#include "common/status.h"
#include "ecr/schema.h"
#include "core/assertion_store.h"

namespace ecrint::core {

// Which structural facts of a component schema to preload into an
// AssertionStore before DDA assertions are checked.
struct SeedOptions {
  // category C of P  =>  C contained-in P. Lets the closure combine
  // cross-schema assertions with within-schema IS-A structure.
  bool category_containment = true;
  // The ECR model makes distinct entity sets of one schema disjoint; seed
  // that as disjoint-nonintegrable so contradictory cross-schema assertions
  // (e.g. equating one foreign class with two disjoint local ones) are
  // caught. Never connects a cluster.
  bool entity_disjointness = true;
};

// Appends the schema's structural seed assertions to `out` in the order
// SeedSchemaRelations would assert them, without touching any store. Lets
// callers seed several schemas in one AssertBatch.
void CollectSchemaSeedAssertions(const ecr::Schema& schema,
                                 const SeedOptions& options,
                                 std::vector<Assertion>& out);

// Preloads the schema's structural relations. Returns kConflict if the
// store's existing assertions contradict the schema structure.
Status SeedSchemaRelations(AssertionStore& store, const ecr::Schema& schema,
                           const SeedOptions& options = {});

}  // namespace ecrint::core

#endif  // ECRINT_CORE_SEEDING_H_
