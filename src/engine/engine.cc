#include "engine/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ecr/ddl_parser.h"

namespace ecrint::engine {

namespace {

// Schemas that hold at least one member of the equivalence class of `path`.
std::set<std::string> ClassSchemas(const core::EquivalenceMap& map,
                                   const ecr::AttributePath& path) {
  std::set<std::string> out;
  for (const ecr::AttributePath& member : map.ClassMembers(path)) {
    out.insert(member.schema);
  }
  return out;
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

// ---------------------------------------------------------------------------
// Phase 1: schema collection.
// ---------------------------------------------------------------------------

Result<std::vector<std::string>> Engine::DefineSchema(std::string_view ddl) {
  PhaseTrace::Scope scope(trace_, "collect");
  Result<std::vector<std::string>> names =
      ecr::ParseInto(catalog_, std::string(ddl));
  if (!names.ok()) {
    AddDiagnostic(StatusDiagnostic("schema-parse-failed", names.status()));
    return names;
  }
  trace_.Count("collect", "schemas_defined",
               static_cast<int64_t>(names->size()));
  MarkSchemasDirty();
  return names;
}

Result<ecr::Schema*> Engine::CreateSchema(const std::string& name) {
  PhaseTrace::Scope scope(trace_, "collect");
  Result<ecr::Schema*> schema = catalog_.CreateSchema(name);
  if (schema.ok()) MarkSchemasDirty();
  return schema;
}

Status Engine::AddSchema(ecr::Schema schema) {
  PhaseTrace::Scope scope(trace_, "collect");
  ECRINT_RETURN_IF_ERROR(catalog_.AddSchema(std::move(schema)));
  MarkSchemasDirty();
  return Status::Ok();
}

Status Engine::DropSchema(const std::string& name) {
  PhaseTrace::Scope scope(trace_, "collect");
  ECRINT_RETURN_IF_ERROR(catalog_.DropSchema(name));
  MarkSchemasDirty();
  return Status::Ok();
}

ecr::Catalog& Engine::MutableCatalog() {
  MarkSchemasDirty();
  return catalog_;
}

void Engine::MarkSchemasDirty() { ++schema_generation_; }

// ---------------------------------------------------------------------------
// Phase 2: attribute equivalence.
// ---------------------------------------------------------------------------

const core::EquivalenceMap& Engine::EnsureEquivalence() {
  if (!equivalence_.has_value()) {
    Status status = RebuildEquivalence();
    if (!status.ok()) {
      // Degenerate fallback (unregisterable catalog): an empty map, so
      // queries answer "nothing equivalent" instead of failing.
      equivalence_.emplace(*core::EquivalenceMap::Create(catalog_, {}));
    }
  }
  return *equivalence_;
}

const core::EquivalenceMap& Engine::Equivalence() {
  return EnsureEquivalence();
}

Status Engine::RebuildEquivalence() {
  PhaseTrace::Scope scope(trace_, "equivalence");
  Result<core::EquivalenceMap> map =
      core::EquivalenceMap::Create(catalog_, catalog_.SchemaNames());
  if (!map.ok()) return map.status();
  equivalence_ = *std::move(map);
  for (const EquivalenceEdit& edit : equivalence_log_) {
    // Replays may reference attributes deleted since; ignore those.
    if (edit.declare) {
      (void)equivalence_->DeclareEquivalent(edit.first, edit.second);
    } else {
      (void)equivalence_->RemoveFromClass(edit.first);
    }
  }
  trace_.Count("equivalence", "rebuilds");
  InvalidateAllRanks();
  return Status::Ok();
}

void Engine::ResetEquivalence() {
  equivalence_.reset();
  InvalidateAllRanks();
}

Status Engine::AssertEquivalence(const ecr::AttributePath& a,
                                 const ecr::AttributePath& b) {
  PhaseTrace::Scope scope(trace_, "equivalence");
  EnsureEquivalence();
  // Idempotent fast path: re-declaring an equivalence that already holds
  // changes nothing observable, so the map, the edit log, and the
  // generation counter all stay put — downstream caches (rankings, the
  // snapshot publisher's stamp comparison) remain valid. Replaying the
  // original declare through RebuildEquivalence reaches the same map, so
  // skipping the log entry is sound.
  if (equivalence_->AreEquivalent(a, b)) {
    trace_.Count("equivalence", "redundant_declares");
    return Status::Ok();
  }
  Status status = equivalence_->DeclareEquivalent(a, b);
  if (!status.ok()) {
    AddDiagnostic(StatusDiagnostic("equivalence-rejected", status));
    return status;
  }
  equivalence_log_.push_back({true, a, b});
  trace_.Count("equivalence", "declared");
  // The merged class now contains both sides; only rankings between schemas
  // it spans can have changed.
  InvalidateRanksTouching(a);
  return Status::Ok();
}

Status Engine::RetractEquivalence(const ecr::AttributePath& path) {
  PhaseTrace::Scope scope(trace_, "equivalence");
  EnsureEquivalence();
  // The affected schema set is the class as it stands BEFORE the removal.
  std::set<std::string> affected = ClassSchemas(*equivalence_, path);
  Status status = equivalence_->RemoveFromClass(path);
  if (!status.ok()) {
    AddDiagnostic(StatusDiagnostic("equivalence-rejected", status));
    return status;
  }
  equivalence_log_.push_back({false, path, {}});
  trace_.Count("equivalence", "removed");
  ++equivalence_generation_;
  std::vector<RankCacheEntry> kept;
  for (RankCacheEntry& entry : rank_cache_) {
    if (affected.count(entry.schema1) && affected.count(entry.schema2)) {
      trace_.Count("rank", "entries_invalidated");
      continue;
    }
    entry.equivalence_generation = equivalence_generation_;
    trace_.Count("rank", "entries_kept");
    kept.push_back(std::move(entry));
  }
  rank_cache_ = std::move(kept);
  return Status::Ok();
}

void Engine::InvalidateRanksTouching(const ecr::AttributePath& touched) {
  ++equivalence_generation_;
  std::set<std::string> affected = ClassSchemas(*equivalence_, touched);
  std::vector<RankCacheEntry> kept;
  for (RankCacheEntry& entry : rank_cache_) {
    // A ranking changes only when the touched class has members in both of
    // its schemas; anything else is provably unaffected and re-tagged.
    if (affected.count(entry.schema1) && affected.count(entry.schema2)) {
      trace_.Count("rank", "entries_invalidated");
      continue;
    }
    entry.equivalence_generation = equivalence_generation_;
    trace_.Count("rank", "entries_kept");
    kept.push_back(std::move(entry));
  }
  rank_cache_ = std::move(kept);
}

void Engine::InvalidateAllRanks() {
  ++equivalence_generation_;
  rank_cache_.clear();
}

// ---------------------------------------------------------------------------
// Phase 2/3 analysis.
// ---------------------------------------------------------------------------

Result<std::vector<core::ObjectPair>> Engine::RankedPairs(
    const std::string& schema1, const std::string& schema2,
    core::StructureKind kind, bool include_zero) {
  PhaseTrace::Scope scope(trace_, "rank");
  const core::EquivalenceMap& equivalence = EnsureEquivalence();
  for (const RankCacheEntry& entry : rank_cache_) {
    if (entry.schema1 == schema1 && entry.schema2 == schema2 &&
        entry.kind == kind && entry.include_zero == include_zero &&
        entry.schema_generation == schema_generation_ &&
        entry.equivalence_generation == equivalence_generation_) {
      trace_.Count("rank", "cache_hits");
      return entry.pairs;
    }
  }
  Result<std::vector<core::ObjectPair>> ranked = core::RankObjectPairs(
      catalog_, equivalence, schema1, schema2, kind, include_zero);
  if (!ranked.ok()) return ranked;
  trace_.Count("rank", "recomputes");
  trace_.Count("rank", "pairs_ranked", static_cast<int64_t>(ranked->size()));
  rank_cache_.push_back({schema1, schema2, kind, include_zero,
                         schema_generation_, equivalence_generation_,
                         *ranked});
  return ranked;
}

Result<std::vector<heuristics::EquivalenceSuggestion>> Engine::Suggest(
    const std::string& schema1, const std::string& schema2,
    const heuristics::SynonymDictionary& synonyms, double threshold,
    double object_threshold, int max_results) {
  PhaseTrace::Scope scope(trace_, "suggest");
  Result<std::vector<heuristics::EquivalenceSuggestion>> suggestions =
      heuristics::SuggestAttributeEquivalences(catalog_, schema1, schema2,
                                               synonyms, threshold,
                                               object_threshold, max_results);
  if (suggestions.ok()) {
    trace_.Count("suggest", "suggestions",
                 static_cast<int64_t>(suggestions->size()));
  }
  return suggestions;
}

// ---------------------------------------------------------------------------
// Phase 3: assertions.
// ---------------------------------------------------------------------------

namespace {

std::string AssertionKey(const core::ObjectRef& first,
                         const core::ObjectRef& second,
                         core::AssertionType type) {
  std::string key = first.ToString();
  key.push_back('\x01');
  key += std::to_string(static_cast<int>(type));
  key.push_back('\x01');
  key += second.ToString();
  return key;
}

}  // namespace

Result<core::ConflictReport> Engine::AssertRelation(
    const core::ObjectRef& first, const core::ObjectRef& second,
    core::AssertionType type) {
  PhaseTrace::Scope scope(trace_, "assert");
  // Idempotent fast path: an exact repeat of a recorded user assertion is
  // a no-op for the store (the constraint is already in the closure), so
  // answering without touching it keeps the log, the epoch, and every
  // derived cache — and with them the engine stamp — unchanged. The key
  // set is rebuilt lazily whenever the store changed through any other
  // door (retract, import, epoch bump).
  std::string key = AssertionKey(first, second, type);
  int64_t log_size = static_cast<int64_t>(assertions_.user_assertions().size());
  if (dedup_epoch_ != assertion_epoch_ || dedup_log_size_ != log_size) {
    assertion_keys_.clear();
    for (const core::Assertion& assertion : assertions_.user_assertions()) {
      assertion_keys_.insert(
          AssertionKey(assertion.first, assertion.second, assertion.type));
    }
    dedup_epoch_ = assertion_epoch_;
    dedup_log_size_ = log_size;
  }
  if (assertion_keys_.count(key) != 0) {
    trace_.Count("assert", "redundant_asserts");
    return core::ConflictReport{};
  }
  Result<core::ConflictReport> result =
      assertions_.Assert(first, second, type);
  if (!result.ok()) {
    trace_.Count("assert", "conflicts");
    if (assertions_.last_conflict().has_value()) {
      AddDiagnostic(ConflictDiagnostic(*assertions_.last_conflict()));
    } else {
      AddDiagnostic(StatusDiagnostic("assertion-conflict", result.status()));
    }
    return result;
  }
  trace_.Count("assert", "asserted");
  assertion_keys_.insert(std::move(key));
  dedup_log_size_ = static_cast<int64_t>(assertions_.user_assertions().size());
  // Eagerly extend the cached seeded closure with the accepted assertion,
  // so a following Integrate is a pure cache hit on the assertion layer
  // instead of replaying the delta at integrate time. Sound by closure
  // confluence. Guard on the exact log position so retracts/imports (epoch
  // bumps) and schema edits fall back to the full path.
  if (seeded_.has_value() &&
      seeded_schema_generation_ == schema_generation_ &&
      seeded_assertion_epoch_ == assertion_epoch_ &&
      seeded_log_pos_ ==
          static_cast<int>(assertions_.user_assertions().size()) - 1) {
    if (seeded_->Assert(assertions_.user_assertions().back()).ok()) {
      ++seeded_log_pos_;
      trace_.Count("assert", "seeded_extended");
    } else {
      // Accepted against the user assertions but contradicts seeded schema
      // structure. Drop the cache: Integrate's full path reproduces the
      // error with exactly the from-scratch blame order.
      seeded_.reset();
    }
  }
  return result;
}

Status Engine::RetractRelation(int index) {
  PhaseTrace::Scope scope(trace_, "assert");
  const std::vector<core::Assertion>& current = assertions_.user_assertions();
  if (index < 0 || index >= static_cast<int>(current.size())) {
    return InvalidArgumentError("no user assertion #" +
                                std::to_string(index));
  }
  std::vector<core::Assertion> survivors;
  survivors.reserve(current.size() - 1);
  for (int i = 0; i < static_cast<int>(current.size()); ++i) {
    if (i != index) survivors.push_back(current[i]);
  }
  // A subset of a consistent assertion set stays consistent (constraints
  // only ever intersect), so replay cannot conflict.
  core::AssertionStore rebuilt;
  Result<core::ConflictReport> replayed = rebuilt.AssertBatch(survivors);
  if (!replayed.ok()) {
    return InternalError("assertion replay conflicted after retract: " +
                         replayed.status().message());
  }
  assertions_ = std::move(rebuilt);
  ++assertion_epoch_;  // non-append change: seeded closure no longer extends
  trace_.Count("assert", "retracted");
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Phase 4: integration.
// ---------------------------------------------------------------------------

std::vector<std::string> Engine::IntegrateNames(
    std::vector<std::string> schemas) {
  return schemas.empty() ? catalog_.SchemaNames() : std::move(schemas);
}

void Engine::TagIntegration(std::vector<std::string> names) {
  integrated_schemas_ = std::move(names);
  integrated_schema_generation_ = schema_generation_;
  integrated_equivalence_generation_ = equivalence_generation_;
  integrated_assertion_epoch_ = assertion_epoch_;
  integrated_log_pos_ = static_cast<int>(assertions_.user_assertions().size());
}

Result<const core::IntegrationResult*> Engine::Integrate(
    std::vector<std::string> schemas) {
  PhaseTrace::Scope scope(trace_, "integrate");
  std::vector<std::string> names = IntegrateNames(std::move(schemas));
  int log_size = static_cast<int>(assertions_.user_assertions().size());

  if (integration_.has_value() && TaggedFor(names)) {
    trace_.Count("integrate", "cache_hits");
    return &*integration_;
  }
  // A pending superseded integrate saw exactly this state and already
  // bumped the version: this build is its result, so only a failure (which
  // the original execution repeated) counts as one more assignment.
  const bool resumes_pending = integration_pending_ && TaggedFor(names);
  integration_pending_ = false;

  const core::EquivalenceMap& equivalence = EnsureEquivalence();
  // Reuse the cached seeded closure when the schema layer is unchanged and
  // it has absorbed the whole assertion log. AssertRelation extends it on
  // every append (closure confluence makes the extended store bit-equal in
  // its `possible` matrix to a full replay); every other assertion change
  // bumps the epoch, so a stale closure never matches here.
  Result<core::IntegrationResult> result = InternalError("unreachable");
  if (seeded_.has_value() && seeded_schemas_ == names &&
      seeded_schema_generation_ == schema_generation_ &&
      seeded_assertion_epoch_ == assertion_epoch_ &&
      seeded_log_pos_ == log_size) {
    trace_.Count("integrate", "incremental_reuses");
  } else {
    trace_.Count("integrate", "full_rebuilds");
    PhaseTrace::Scope seed_scope(trace_, "integrate.seed");
    core::AssertionStore seeded = assertions_;
    Status status = core::SeedForIntegration(seeded, catalog_, names,
                                             options_.integration);
    if (status.ok()) {
      trace_.Count("integrate", "assertions_derived",
                   static_cast<int64_t>(seeded.user_assertions().size()) -
                       log_size);
      seeded_ = std::move(seeded);
      seeded_schemas_ = names;
      seeded_schema_generation_ = schema_generation_;
      seeded_assertion_epoch_ = assertion_epoch_;
      seeded_log_pos_ = log_size;
    } else {
      seeded_.reset();
      result = status;
    }
  }
  if (seeded_.has_value()) {  // empty only when seeding just failed
    core::IntegrateTimings timings;
    result = core::IntegrateSeeded(catalog_, names, equivalence, *seeded_,
                                   options_.integration, &timings);
    trace_.Charge("integrate.lattice", timings.lattice_ns);
    trace_.Charge("integrate.clusters", timings.clusters_ns);
    trace_.Charge("integrate.placement", timings.placement_ns);
    trace_.Charge("integrate.mappings", timings.mappings_ns);
    trace_.Charge("integrate.assembly", timings.assembly_ns);
    trace_.Charge("integrate.relationships", timings.relationships_ns);
  }

  {
    // Freeing the previous result is part of every rebuild's wall time.
    PhaseTrace::Scope release(trace_, "integrate.release");
    integration_.reset();
  }
  if (!resumes_pending || !result.ok()) ++integration_version_;
  if (!result.ok()) {
    AddDiagnostic(StatusDiagnostic("integration-failed", result.status()));
    return result.status();
  }
  integration_ = *std::move(result);
  TagIntegration(std::move(names));
  trace_.Count("integrate", "clusters_built",
               static_cast<int64_t>(integration_->object_clusters.size() +
                                    integration_->relationship_clusters
                                        .size()));
  return &*integration_;
}

void Engine::SupersededIntegrate(std::vector<std::string> schemas) {
  std::vector<std::string> names = IntegrateNames(std::move(schemas));
  if (integration_pending_ && TaggedFor(names)) {
    (void)Integrate(std::move(names));
    return;
  }
  PhaseTrace::Scope scope(trace_, "integrate");
  if (integration_.has_value() && TaggedFor(names)) {
    trace_.Count("integrate", "cache_hits");
    return;
  }
  EnsureEquivalence();  // Integrate materializes the map before building.
  integration_.reset();
  ++integration_version_;
  integration_pending_ = true;
  TagIntegration(std::move(names));
  trace_.Count("integrate", "superseded");
}

Status Engine::FullRebuild() {
  seeded_.reset();
  integration_.reset();
  integration_pending_ = false;
  ++integration_version_;
  rank_cache_.clear();
  ++schema_generation_;
  ++assertion_epoch_;
  trace_.Count("integrate", "explicit_full_rebuilds");
  return RebuildEquivalence();
}

// ---------------------------------------------------------------------------
// Request translation.
// ---------------------------------------------------------------------------

Result<core::Request> Engine::TranslateRequest(const core::Request& request) {
  PhaseTrace::Scope scope(trace_, "translate");
  if (!integration_.has_value()) {
    return FailedPreconditionError(
        "no integration result; run Integrate first");
  }
  return core::TranslateToIntegrated(*integration_, request);
}

Result<core::FanoutPlan> Engine::TranslateRequestToComponents(
    const core::Request& request) {
  PhaseTrace::Scope scope(trace_, "translate");
  if (!integration_.has_value()) {
    return FailedPreconditionError(
        "no integration result; run Integrate first");
  }
  return core::TranslateToComponents(*integration_, request);
}

// ---------------------------------------------------------------------------
// Persistence.
// ---------------------------------------------------------------------------

Status Engine::ImportProject(core::Project project) {
  PhaseTrace::Scope scope(trace_, "project");
  // Validate the decisions against the schemas before adopting anything.
  ECRINT_RETURN_IF_ERROR(project.BuildEquivalence().status());
  ECRINT_ASSIGN_OR_RETURN(core::AssertionStore store,
                          project.BuildAssertions());
  catalog_ = std::move(project.catalog);
  equivalence_log_.clear();
  for (auto& [a, b] : project.equivalences) {
    equivalence_log_.push_back({true, std::move(a), std::move(b)});
  }
  assertions_ = std::move(store);
  integration_.reset();
  integration_pending_ = false;
  ++integration_version_;
  seeded_.reset();
  MarkSchemasDirty();
  ++assertion_epoch_;
  return RebuildEquivalence();
}

std::string Engine::ExportProject() {
  PhaseTrace::Scope scope(trace_, "project");
  return core::SerializeProject(catalog_, EnsureEquivalence(), assertions_);
}

Status Engine::AdoptReplayStamp(const EngineStamp& stamp) {
  if (stamp.assertion_log_size !=
      static_cast<int64_t>(assertions_.user_assertions().size())) {
    return InternalError(
        "replay stamp records " + std::to_string(stamp.assertion_log_size) +
        " user assertions but the store holds " +
        std::to_string(assertions_.user_assertions().size()));
  }
  // Which caches are valid for the state as it stands right now? Those keep
  // their validity across the renumbering; everything else is dropped so a
  // stale tag cannot coincide with an adopted counter value.
  bool integration_current = IntegrationCurrent();
  bool seeded_current = seeded_.has_value() &&
                        seeded_schema_generation_ == schema_generation_ &&
                        seeded_assertion_epoch_ == assertion_epoch_;

  schema_generation_ = stamp.schema_generation;
  equivalence_generation_ = stamp.equivalence_generation;
  assertion_epoch_ = stamp.assertion_epoch;
  integration_version_ = stamp.integration_version;

  if (integration_current) {
    integrated_schema_generation_ = schema_generation_;
    integrated_equivalence_generation_ = equivalence_generation_;
    integrated_assertion_epoch_ = assertion_epoch_;
  } else {
    integrated_schema_generation_ = -1;
    integrated_equivalence_generation_ = -1;
    integrated_assertion_epoch_ = -1;
    integrated_log_pos_ = -1;
    integration_pending_ = false;
  }
  if (seeded_current) {
    seeded_schema_generation_ = schema_generation_;
    seeded_assertion_epoch_ = assertion_epoch_;
  } else {
    seeded_.reset();
  }
  rank_cache_.clear();
  return Status::Ok();
}

void Engine::AddDiagnostic(Diagnostic diagnostic) {
  diagnostics_.push_back(std::move(diagnostic));
}

}  // namespace ecrint::engine
