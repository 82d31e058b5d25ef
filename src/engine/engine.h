#ifndef ECRINT_ENGINE_ENGINE_H_
#define ECRINT_ENGINE_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/assertion_store.h"
#include "core/equivalence.h"
#include "core/integration_result.h"
#include "core/integrator.h"
#include "core/object_ref.h"
#include "core/project_io.h"
#include "core/request_translation.h"
#include "core/resemblance.h"
#include "ecr/catalog.h"
#include "engine/diagnostics.h"
#include "engine/phase_trace.h"
#include "heuristics/suggest.h"

namespace ecrint::engine {

struct EngineOptions {
  core::IntegrationOptions integration;
};

// Versions of every Engine state plane, exported for copy-on-write snapshot
// publication (src/service/snapshot.h). Two stamps compare equal exactly
// when no observable engine state changed between them, and each component
// tells the publisher which snapshot parts it may share with the previous
// one: `schema_generation` guards the catalog, (`schema_generation`,
// `equivalence_generation`) guard the equivalence map, and
// `integration_version` counts assignments/resets of the cached
// IntegrationResult (it is NOT the validity tag — a stale cached result
// keeps its version until recomputed or discarded).
struct EngineStamp {
  int64_t schema_generation = -1;
  int64_t equivalence_generation = -1;
  int64_t assertion_epoch = -1;
  int64_t assertion_log_size = -1;
  int64_t integration_version = -1;

  friend bool operator==(const EngineStamp&, const EngineStamp&) = default;
};

// The integration pipeline behind every frontend: owns the project state —
// catalog, equivalence map, assertion store, integration result — and
// exposes the paper's four phases as explicit operations. Three
// cross-cutting capabilities distinguish it from hand-wired glue:
//
//  * Incremental recomputation. Derived artifacts (OCS rankings, the seeded
//    assertion closure, the integration result) carry validity tags; an
//    equivalence edit invalidates only rankings whose schema pair the
//    touched class spans, and an appended assertion extends the cached
//    seeded closure in place — sound because path-consistency closure is
//    confluent (its fixpoint is the intersection of all derivable
//    constraints, independent of assertion order), so one incremental
//    Assert on a seeded store reaches exactly the matrix a full replay
//    would. The user-facing equivalence map itself is NOT auto-rebuilt on
//    schema edits: when declarations are replayed is DDA-visible (replays
//    drop declarations whose attributes disappeared), so frontends control
//    it via ResetEquivalence/RebuildEquivalence exactly as before.
//
//  * Structured diagnostics. Failures append a Diagnostic (stable code,
//    ObjectRefs, Screen-9 derivation chain) to diagnostics() instead of
//    only flowing out as status strings.
//
//  * Phase tracing. Every operation charges wall time and work counters to
//    its phase; trace().ToJson() feeds bench/run_benches.sh.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  // --- phase 1: schema collection -----------------------------------------
  // Parses DDL text (one or more `schema ... { ... }` blocks) into the
  // catalog; returns the schema names defined.
  Result<std::vector<std::string>> DefineSchema(std::string_view ddl);
  Result<ecr::Schema*> CreateSchema(const std::string& name);
  Status AddSchema(ecr::Schema schema);
  Status DropSchema(const std::string& name);
  // Direct mutation handle for form-style editing; every grab marks the
  // schema layer dirty (conservative — derived caches revalidate lazily).
  ecr::Catalog& MutableCatalog();
  const ecr::Catalog& catalog() const { return catalog_; }

  // --- phase 2: attribute equivalence -------------------------------------
  // Declares two attributes equivalent: applied live to the current map,
  // appended to the ordered edit log (so rebuilds replay edits in the order
  // they happened), and invalidates only rankings the merged class spans.
  Status AssertEquivalence(const ecr::AttributePath& a,
                           const ecr::AttributePath& b);
  // Removes one attribute from its class (the screen's delete).
  Status RetractEquivalence(const ecr::AttributePath& path);
  // Drops the map; the next use lazily rebuilds it over the current catalog
  // (frontends call this when leaving schema collection).
  void ResetEquivalence();
  // Rebuilds now: fresh map over all schemas, edit log replayed in order,
  // edits whose attributes no longer exist silently dropped.
  Status RebuildEquivalence();
  bool has_equivalence() const { return equivalence_.has_value(); }
  // The current map, building it on demand (empty-map fallback when the
  // catalog cannot be registered, mirroring the legacy session).
  const core::EquivalenceMap& Equivalence();
  // Precondition: has_equivalence().
  const core::EquivalenceMap& equivalence() const { return *equivalence_; }

  // --- phase 2/3 analysis --------------------------------------------------
  // Screen 8's ranked pair list, cached per (schema1, schema2, kind,
  // include_zero) until a schema or relevant equivalence edit invalidates.
  Result<std::vector<core::ObjectPair>> RankedPairs(
      const std::string& schema1, const std::string& schema2,
      core::StructureKind kind, bool include_zero = false);
  // Heuristic attribute-equivalence proposals (never mutate the map).
  Result<std::vector<heuristics::EquivalenceSuggestion>> Suggest(
      const std::string& schema1, const std::string& schema2,
      const heuristics::SynonymDictionary& synonyms, double threshold = 0.6,
      double object_threshold = 0.0, int max_results = 0);

  // --- phase 3: assertions -------------------------------------------------
  // Records `first <type> second`. On conflict the store is unchanged, a
  // Screen-9 Diagnostic is appended, and the status carries the legacy
  // conflict text.
  Result<core::ConflictReport> AssertRelation(const core::ObjectRef& first,
                                              const core::ObjectRef& second,
                                              core::AssertionType type);
  // Withdraws user assertion `index` (entry order); the store is rebuilt
  // from the surviving assertions (always consistent — dropping an
  // assertion only weakens the closure).
  Status RetractRelation(int index);
  const core::AssertionStore& assertions() const { return assertions_; }

  // --- phase 4: integration ------------------------------------------------
  // Integrates `schemas` (empty = all, in definition order). Returns the
  // cached result when nothing changed; otherwise re-integrates — on top of
  // the incrementally extended seeded closure when possible, from scratch
  // when not. The result pointer stays valid until the next Integrate /
  // FullRebuild / ImportProject.
  Result<const core::IntegrationResult*> Integrate(
      std::vector<std::string> schemas = {});
  // Replay's stand-in for an Integrate whose result a later journaled
  // integrate replaces (engine/replay.h, ReplayTail). Leaves Stamp()
  // exactly as Integrate would, without building: a would-be cache hit
  // does nothing; otherwise the cached result is emptied,
  // integration_version bumps, and the inputs (schemas and the four
  // validity tags) are kept as pending. The next Integrate or
  // SupersededIntegrate over the same schemas and unchanged tags sees the
  // state the skipped one saw, so it really builds and bumps the version
  // only if that build fails — a success followed by a cache hit, or a
  // failure followed by a failure, as in the original execution. A skipped
  // integrate that would have failed appends no Diagnostic; the service
  // reads diagnostics only as per-request deltas, so nothing observable
  // changes.
  void SupersededIntegrate(std::vector<std::string> schemas = {});
  const std::optional<core::IntegrationResult>& integration() const {
    return integration_;
  }
  // Drops the cached integration result without touching the other derived
  // caches (frontends call this when the "show results" precondition lapses,
  // e.g. every schema was deleted).
  void DiscardIntegration() {
    integration_.reset();
    integration_pending_ = false;
    ++integration_version_;
  }

  // Escape hatch: drop every derived artifact and rebuild the equivalence
  // map; the next Integrate replays everything from first principles.
  Status FullRebuild();

  // --- request translation -------------------------------------------------
  // View-design direction: component request -> integrated schema.
  Result<core::Request> TranslateRequest(const core::Request& request);
  // Federation direction: integrated request -> component fanout plan.
  Result<core::FanoutPlan> TranslateRequestToComponents(
      const core::Request& request);

  // --- persistence ---------------------------------------------------------
  // Adopts a saved project (validated first; on failure the engine is
  // untouched) and rebuilds phase-2/3 state from its decisions.
  Status ImportProject(core::Project project);
  std::string ExportProject();

  // --- observability -------------------------------------------------------
  // Closure kernel work totals across the two stores the engine drives: the
  // live assertion store and the cached seeded closure. The service plane
  // samples these around each verb to emit closure.* metrics deltas.
  core::ClosureStats ClosureTotals() const {
    core::ClosureStats totals = assertions_.closure_stats();
    if (seeded_.has_value()) totals += seeded_->closure_stats();
    return totals;
  }
  // Independent constraint clusters in the live assertion store (closure
  // never derives across one), reported as the closure.clusters gauge.
  int ClosureClusterCount() const { return assertions_.num_clusters(); }

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  void ClearDiagnostics() { diagnostics_.clear(); }
  const PhaseTrace& trace() const { return trace_; }
  std::string TraceJson() const { return trace_.ToJson(); }

  // Current state versions (the snapshot publisher's change detector).
  EngineStamp Stamp() const {
    return {schema_generation_, equivalence_generation_, assertion_epoch_,
            static_cast<int64_t>(assertions_.user_assertions().size()),
            integration_version_};
  }

  // True when integration() holds a result computed from the *current*
  // schema / equivalence / assertion state (a repeat Integrate over the
  // same schemas would cache-hit). Checkpoints record this so recovery
  // knows whether to rebuild the integration result.
  bool IntegrationCurrent() const {
    return integration_.has_value() && IntegratedTagsCurrent();
  }
  // The schema list the cached integration result was computed over.
  const std::vector<std::string>& integrated_schemas() const {
    return integrated_schemas_;
  }

  // Crash-recovery hook: overwrites the generation counters with a stamp
  // recorded from the engine this one is a replica of (checkpoint import
  // reaches the same logical state through different internal steps, so
  // the counters diverge even though the state is identical). Re-tags
  // derived caches that are valid for the current state so their validity
  // survives the renumbering, and drops the rest. Replaying the journal
  // suffix after adoption then bumps the counters exactly as the original
  // execution did, which is what makes recovered state Stamp()-identical
  // to a serial replay of the full verb log. Fails (engine untouched) when
  // the stamp's assertion log size contradicts the store — a corrupt or
  // mismatched checkpoint.
  Status AdoptReplayStamp(const EngineStamp& stamp);

 private:
  // One ordered phase-2 edit; replayed in order by RebuildEquivalence so a
  // rebuilt map matches the live-mutated one even when declares and removes
  // interleave.
  struct EquivalenceEdit {
    bool declare = true;
    ecr::AttributePath first;
    ecr::AttributePath second;  // unused for removes
  };

  struct RankCacheEntry {
    std::string schema1, schema2;
    core::StructureKind kind;
    bool include_zero;
    int64_t schema_generation;
    int64_t equivalence_generation;
    std::vector<core::ObjectPair> pairs;
  };

  const core::EquivalenceMap& EnsureEquivalence();
  // The integrated_* validity tags name the current state.
  bool IntegratedTagsCurrent() const {
    return integrated_schema_generation_ == schema_generation_ &&
           integrated_equivalence_generation_ == equivalence_generation_ &&
           integrated_assertion_epoch_ == assertion_epoch_ &&
           integrated_log_pos_ ==
               static_cast<int>(assertions_.user_assertions().size());
  }
  // `names` resolved the way Integrate resolves them (empty = all).
  std::vector<std::string> IntegrateNames(std::vector<std::string> schemas);
  // Tags the integration (or the pending superseded one) with `names` and
  // the current state.
  void TagIntegration(std::vector<std::string> names);
  // The integrated_* tags name `names` over the current state: with a
  // cached result, an Integrate of `names` is a cache hit; while
  // integration_pending_, it resumes the superseded one.
  bool TaggedFor(const std::vector<std::string>& names) const {
    return integrated_schemas_ == names && IntegratedTagsCurrent();
  }
  void MarkSchemasDirty();
  // Invalidates rankings whose schema pair the class of `touched` spans;
  // untouched entries are revalidated against the new generation.
  void InvalidateRanksTouching(const ecr::AttributePath& touched);
  void InvalidateAllRanks();
  void AddDiagnostic(Diagnostic diagnostic);

  EngineOptions options_;
  ecr::Catalog catalog_;
  core::AssertionStore assertions_;
  std::optional<core::EquivalenceMap> equivalence_;
  std::vector<EquivalenceEdit> equivalence_log_;
  std::optional<core::IntegrationResult> integration_;

  // Dirty tracking. Schema and equivalence generations tag derived caches;
  // the assertion epoch bumps on any non-append store change (retract,
  // import), while plain appends keep the epoch and extend the log.
  int64_t schema_generation_ = 0;
  int64_t equivalence_generation_ = 0;
  int64_t assertion_epoch_ = 0;
  int64_t integration_version_ = 0;

  std::vector<RankCacheEntry> rank_cache_;

  // Exact-duplicate detector for AssertRelation's idempotent fast path:
  // one key per recorded user assertion, valid only while the tags match
  // the store's epoch and log size (anything else rebuilds it lazily).
  std::unordered_set<std::string> assertion_keys_;
  int64_t dedup_epoch_ = -1;
  int64_t dedup_log_size_ = -1;

  // Cached seeded closure: seeds + user assertions [0, seeded_log_pos_).
  std::optional<core::AssertionStore> seeded_;
  std::vector<std::string> seeded_schemas_;
  int64_t seeded_schema_generation_ = -1;
  int64_t seeded_assertion_epoch_ = -1;
  int seeded_log_pos_ = 0;

  // Validity tag of integration_, or of the pending superseded integrate
  // while integration_pending_ (integration_ is then empty).
  std::vector<std::string> integrated_schemas_;
  int64_t integrated_schema_generation_ = -1;
  int64_t integrated_equivalence_generation_ = -1;
  int64_t integrated_assertion_epoch_ = -1;
  int integrated_log_pos_ = -1;
  bool integration_pending_ = false;

  std::vector<Diagnostic> diagnostics_;
  PhaseTrace trace_;
};

}  // namespace ecrint::engine

#endif  // ECRINT_ENGINE_ENGINE_H_
