#include "service/service.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "core/assertion.h"
#include "core/project_io.h"
#include "ecr/printer.h"
#include "service/verbs.h"

namespace ecrint::service {

namespace {

// Splits a multi-line engine artifact (outline, project text) into wire
// payload lines, dropping a trailing empty piece from a terminal newline.
std::vector<std::string> ToLines(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}

ServiceResponse ErrorResponse(ServiceError error) {
  ServiceResponse response;
  response.error = std::move(error);
  return response;
}

// The refusal a read replica hands every client-facing mutation. An empty
// `leader` is a fenced node: deposed at a higher epoch without learning
// the new leader's address, so there is nothing to redirect to yet.
ServiceError NotLeaderError(const std::string& leader) {
  ServiceError error;
  error.code = ServiceErrorCode::kNotLeader;
  error.message = leader.empty()
                      ? "read replica: fenced at a newer epoch, leader "
                        "address not yet known"
                      : "read replica: writes go to the leader at " + leader;
  error.leader = leader;
  return error;
}

// A write failure response; prefers the engine's structured diagnostic
// (which carries the Screen-9 derivation chain) over the bare status text.
ServiceResponse WriteFailure(const engine::Engine& engine,
                             size_t diagnostics_before,
                             const Status& status) {
  ServiceError error = ErrorFromStatus(status);
  if (engine.diagnostics().size() > diagnostics_before) {
    error.message = engine.diagnostics().back().ToString();
  }
  return ErrorResponse(std::move(error));
}

// --- verb bodies -----------------------------------------------------------

ServiceResponse ExportBody(engine::Engine& engine) {
  ServiceResponse response;
  response.lines = ToLines(engine.ExportProject());
  return response;
}

ServiceResponse RankBody(const EngineSnapshot& snapshot,
                         const ServiceCommand& command) {
  Result<std::vector<core::ObjectPair>> ranked =
      SnapshotRankedPairs(snapshot, command.schema1, command.schema2,
                          command.kind, command.include_zero);
  if (!ranked.ok()) {
    return ErrorResponse(ErrorFromStatus(ranked.status()));
  }
  ServiceResponse response;
  for (const core::ObjectPair& pair : *ranked) {
    response.lines.push_back(pair.first.ToString() + " " +
                             pair.second.ToString() + " " +
                             FormatFixed(pair.attribute_ratio, 4));
  }
  return response;
}

ServiceResponse SuggestBody(const EngineSnapshot& snapshot,
                            const ServiceCommand& command) {
  Result<std::vector<heuristics::EquivalenceSuggestion>> suggestions =
      SnapshotSuggest(snapshot, command.schema1, command.schema2,
                      command.threshold,
                      /*object_threshold=*/0.0, /*max_results=*/0);
  if (!suggestions.ok()) {
    return ErrorResponse(ErrorFromStatus(suggestions.status()));
  }
  ServiceResponse response;
  for (const heuristics::EquivalenceSuggestion& s : *suggestions) {
    response.lines.push_back(s.first.ToString() + " = " + s.second.ToString() +
                             "  # " + s.rationale);
  }
  return response;
}

ServiceResponse TranslateBody(const EngineSnapshot& snapshot,
                              const ServiceCommand& command) {
  const core::Request& request = command.request;
  ServiceResponse response;
  if (command.to_components) {
    Result<core::FanoutPlan> plan =
        SnapshotTranslateToComponents(snapshot, request);
    if (!plan.ok()) {
      return ErrorResponse(ErrorFromStatus(plan.status()));
    }
    response.lines = ToLines(plan->ToString());
  } else {
    Result<core::Request> translated = SnapshotTranslate(snapshot, request);
    if (!translated.ok()) {
      return ErrorResponse(ErrorFromStatus(translated.status()));
    }
    response.lines = ToLines(translated->ToString());
  }
  return response;
}

ServiceResponse OutlineBody(const EngineSnapshot& snapshot) {
  Result<std::string> outline = SnapshotIntegratedOutline(snapshot);
  if (!outline.ok()) {
    return ErrorResponse(ErrorFromStatus(outline.status()));
  }
  ServiceResponse response;
  response.lines = ToLines(*outline);
  return response;
}

}  // namespace

const char* ServiceErrorCodeName(ServiceErrorCode code) {
  switch (code) {
    case ServiceErrorCode::kOverloaded:
      return "OVERLOADED";
    case ServiceErrorCode::kTimeout:
      return "TIMEOUT";
    case ServiceErrorCode::kBadRequest:
      return "BAD_REQUEST";
    case ServiceErrorCode::kConflict:
      return "CONFLICT";
    case ServiceErrorCode::kUnavailable:
      return "UNAVAILABLE";
    case ServiceErrorCode::kNotLeader:
      return "NOT_LEADER";
  }
  return "BAD_REQUEST";
}

ServiceError ErrorFromStatus(const Status& status) {
  ServiceError error;
  error.code = status.code() == StatusCode::kConflict
                   ? ServiceErrorCode::kConflict
                   : ServiceErrorCode::kBadRequest;
  error.message = status.ToString();
  return error;
}

IntegrationService::IntegrationService(ServiceConfig config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock : common::RealClock()),
      fs_(config.fs != nullptr ? config.fs : common::RealFs()),
      sessions_(clock_, config.session_idle_timeout_ns) {
  // Resolve every instrument the request path touches up front: the
  // registry hands out stable pointers, so the hot path never takes the
  // registry mutex or builds "requests.<verb>" strings per request.
  auto stats_for = [this](const std::string& verb) {
    return VerbStats{metrics_.GetCounter("requests." + verb),
                     metrics_.GetHistogram("latency." + verb)};
  };
  for (const Verb& verb : Verbs()) {
    if (verb.parse != nullptr) {
      op_stats_[static_cast<size_t>(verb.op)] = stats_for(verb.name);
    }
  }
  batch_stats_ = stats_for("batch");
  for (int code = 0; code < static_cast<int>(error_counters_.size()); ++code) {
    error_counters_[code] = metrics_.GetCounter(
        std::string("errors.") +
        ServiceErrorCodeName(static_cast<ServiceErrorCode>(code)));
  }
  snapshots_published_ = metrics_.GetCounter("snapshots.published");
  sessions_reaped_ = metrics_.GetCounter("sessions.reaped");
  degraded_flips_ = metrics_.GetCounter("journal.degraded_flips");
  enospc_degrades_ = metrics_.GetCounter("journal.enospc");
  stale_epoch_rejects_ = metrics_.GetCounter("repl.stale_epoch_rejects");
  cache_hits_ = metrics_.GetCounter("cache.hits");
  sessions_live_ = metrics_.GetGauge("sessions.live");
  queue_depth_ = metrics_.GetGauge("queue.depth");
  epoch_gauge_ = metrics_.GetGauge("repl.epoch");
  batch_size_ = metrics_.GetHistogram("batch.size");
  leader_addr_ = config_.leader_addr;
  // Scan the session table at most ~4x per idle timeout (capped at once a
  // second) instead of on every request.
  int64_t quarter = config_.session_idle_timeout_ns / 4;
  reap_interval_ns_ = quarter < 1'000'000'000 ? quarter : 1'000'000'000;
}

void IntegrationService::MaybeReapSessions() {
  int64_t now = clock_->NowNs();
  int64_t last = last_reap_ns_.load(std::memory_order_relaxed);
  if (now - last < reap_interval_ns_) return;
  if (!last_reap_ns_.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
    return;  // Another request took this interval's scan.
  }
  if (int reaped = sessions_.ReapIdle(); reaped > 0) {
    sessions_reaped_->Increment(reaped);
    sessions_live_->Set(sessions_.size());
  }
}

void IntegrationService::EnsureProject(const std::string& project) {
  std::unique_lock<std::shared_mutex> lock(projects_mutex_);
  std::unique_ptr<ProjectState>& slot = projects_[project];
  if (slot) return;
  slot = std::make_unique<ProjectState>();
  if (!config_.data_dir.empty()) {
    // Recover the engine from the project's journal + checkpoint (a
    // fresh directory on first use). Recovery failure does not fail
    // the open: the project comes up degraded — reads serve whatever
    // state was recovered (possibly none), writes get UNAVAILABLE.
    RecoveryStats stats;
    Result<std::unique_ptr<RecoveryManager>> opened = RecoveryManager::Open(
        fs_, config_.data_dir + "/" + ProjectDirName(project),
        config_.durability, slot->engine, &stats, &metrics_);
    if (opened.ok()) {
      slot->durability = *std::move(opened);
      // A recovered follower resumes the leader's stream where its own
      // journal left off.
      slot->replica_applied_seq = slot->durability->next_seq() - 1;
      // The persisted epoch survives restarts: a node that died after a
      // failover comes back already fenced at the promoted epoch.
      slot->epoch = slot->durability->epoch();
      if (slot->epoch > 0) {
        epoch_gauge_->Set(static_cast<int64_t>(slot->epoch));
      }
    } else {
      DegradeProject(*slot, opened.status());
    }
  }
  // Publish the (empty or recovered) generation up front so readers
  // opened before the first write still get a snapshot instead of null.
  slot->snapshots.Publish(slot->engine);
  snapshots_published_->Increment();
}

std::string IntegrationService::OpenSession(const std::string& project) {
  EnsureProject(project);
  std::string id = sessions_.Open(project);
  sessions_live_->Set(sessions_.size());
  return id;
}

Status IntegrationService::CloseSession(const std::string& session_id) {
  Status status = sessions_.Close(session_id);
  sessions_live_->Set(sessions_.size());
  return status;
}

IntegrationService::ProjectState* IntegrationService::FindProject(
    const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(projects_mutex_);
  auto it = projects_.find(name);
  return it == projects_.end() ? nullptr : it->second.get();
}

IntegrationService::ProjectState* IntegrationService::ProjectForSession(
    const std::string& session_id, ServiceError* error) {
  Result<std::string> project_name = sessions_.ProjectOf(session_id);
  if (!project_name.ok()) {
    *error = ErrorFromStatus(project_name.status());
    return nullptr;
  }
  ProjectState* project = FindProject(*project_name);
  if (project == nullptr) {
    *error = {ServiceErrorCode::kBadRequest,
              "no project '" + *project_name + "'"};
  }
  return project;
}

void IntegrationService::RecordClosureMetrics(ProjectState& project,
                                              const core::ClosureStats& before) {
  const core::ClosureStats after = project.engine.ClosureTotals();
  // Deltas are clamped at zero: totals are monotone within one store, but a
  // retract or re-seed swaps stores, which can shrink the lifetime sums.
  auto delta = [](int64_t now, int64_t then) {
    return now > then ? now - then : 0;
  };
  // Increment(0) still registers the instrument, so every closure.* name is
  // present in MetricsJson() from the first write onward.
  metrics_.GetCounter("closure.worklist_pops")
      ->Increment(delta(after.worklist_pops, before.worklist_pops));
  metrics_.GetCounter("closure.row_compositions")
      ->Increment(delta(after.row_compositions, before.row_compositions));
  metrics_.GetCounter("closure.narrowings")
      ->Increment(delta(after.narrowings, before.narrowings));
  metrics_.GetCounter("closure.conflicts")
      ->Increment(delta(after.conflicts, before.conflicts));
  int64_t kernel_ns = delta(after.kernel_ns, before.kernel_ns);
  if (kernel_ns > 0) {
    metrics_.GetHistogram("closure.kernel")->Record(kernel_ns / 1000);
  }
  metrics_.GetGauge("closure.clusters")
      ->Set(project.engine.ClosureClusterCount());
}

template <typename Apply>
void IntegrationService::ApplyRun(ProjectState& project, bool journaled,
                                  Apply&& apply) {
  const core::ClosureStats closure_before = project.engine.ClosureTotals();
  apply();
  RecordClosureMetrics(project, closure_before);
  if (project.snapshots.Publish(project.engine)) {
    snapshots_published_->Increment();
  }
  // After publish so the checkpoint captures the published stamp.
  if (journaled) project.durability->MaybeCheckpoint(project.engine);
}

void IntegrationService::DegradeProject(ProjectState& project,
                                        const Status& cause) {
  project.degraded = true;
  project.degraded_reason = cause.ToString();
  // ENOSPC/EDQUOT get their own counter and refusal text: a full disk is
  // an operator-recoverable condition (free space, restart), not a dying
  // device.
  project.degraded_disk_full = cause.code() == StatusCode::kResourceExhausted;
  if (project.degraded_disk_full) enospc_degrades_->Increment();
  degraded_flips_->Increment();
}

ServiceError IntegrationService::UnavailableError(
    const ProjectState& project) const {
  ServiceError error;
  error.code = ServiceErrorCode::kUnavailable;
  error.message = project.degraded_disk_full
                      ? "project is read-only (journal device full: " +
                            project.degraded_reason + ")"
                      : "project is read-only (journal failure: " +
                            project.degraded_reason + ")";
  error.retry_after_ms = config_.durability.degraded_retry_after_ms;
  return error;
}

// ---------------------------------------------------------------------------
// Replication plane: the hooks the leader stream drives on a follower (and
// the position probe both roles answer). They take the same write mutex as
// client writes but bypass the NOT_LEADER gate — the leader's stream IS the
// write path on a replica.
// ---------------------------------------------------------------------------

Result<IntegrationService::ReplicationPosition>
IntegrationService::SampleReplicationPosition(const std::string& project) {
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return NotFoundError("no project '" + project + "'");
  }
  std::lock_guard<std::mutex> lock(state->write_mutex);
  // Under the write mutex the journal's next_seq and the engine state are
  // mutually consistent: the stamp is exactly the state with every record
  // <= seq folded in.
  ReplicationPosition position;
  position.seq = state->durability != nullptr
                     ? state->durability->next_seq() - 1
                     : state->replica_applied_seq;
  position.epoch = state->epoch;
  position.stamp = state->engine.Stamp();
  return position;
}

// ---------------------------------------------------------------------------
// Failover plane.
// ---------------------------------------------------------------------------

std::string IntegrationService::CurrentLeaderAddr() const {
  std::lock_guard<std::mutex> lock(role_mutex_);
  return leader_addr_;
}

bool IntegrationService::LeadsWrites() const {
  std::lock_guard<std::mutex> lock(role_mutex_);
  return !fenced_ && leader_addr_.empty();
}

uint64_t IntegrationService::ProjectEpoch(const std::string& project) {
  ProjectState* state = FindProject(project);
  if (state == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state->write_mutex);
  return state->epoch;
}

void IntegrationService::AdoptReplicationEpoch(const std::string& project,
                                               uint64_t epoch) {
  if (epoch == 0) return;
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) return;
  std::lock_guard<std::mutex> lock(state->write_mutex);
  if (epoch <= state->epoch) return;
  state->epoch = epoch;
  if (state->durability != nullptr) {
    // Durably carried by the next checkpoint (the leader's own checkpoint
    // bytes already embed it during a bootstrap).
    state->durability->set_epoch(epoch);
  }
  epoch_gauge_->Set(static_cast<int64_t>(epoch));
}

Result<uint64_t> IntegrationService::PromoteProject(
    const std::string& project) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  uint64_t new_epoch = 0;
  {
    std::lock_guard<std::mutex> lock(state->write_mutex);
    if (state->degraded) {
      return FailedPreconditionError(
          "cannot promote a degraded project: " + state->degraded_reason);
    }
    new_epoch = state->epoch + 1;
    state->epoch = new_epoch;
    if (state->durability != nullptr) {
      state->durability->set_epoch(new_epoch);
      // Persist the fence immediately: a promoted leader that crashes and
      // restarts must come back at its promoted epoch, not the one it was
      // elected over. An atomic-write failure is non-fatal here for the
      // same reason it is in MaybeCheckpoint — the node still leads, the
      // fence just isn't durable until the next checkpoint lands.
      (void)state->durability->WriteCheckpoint(state->engine);
    }
  }
  {
    std::lock_guard<std::mutex> lock(role_mutex_);
    leader_addr_.clear();
    fenced_ = false;
  }
  epoch_gauge_->Set(static_cast<int64_t>(new_epoch));
  return new_epoch;
}

Status IntegrationService::DemoteProject(const std::string& project,
                                         uint64_t epoch,
                                         const std::string& leader_addr) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  {
    std::lock_guard<std::mutex> lock(state->write_mutex);
    const bool leads = LeadsWrites();
    // A demotion must carry a strictly newer epoch to depose a leader;
    // re-pointing an existing follower at the same epoch is legal (it
    // learned the address out of band).
    if (epoch < state->epoch || (epoch == state->epoch && leads)) {
      stale_epoch_rejects_->Increment();
      return FailedPreconditionError(
          "stale demotion: epoch " + std::to_string(epoch) +
          " does not supersede current epoch " +
          std::to_string(state->epoch));
    }
    state->epoch = epoch;
    if (state->durability != nullptr && !state->degraded) {
      state->durability->set_epoch(epoch);
      (void)state->durability->WriteCheckpoint(state->engine);
    }
  }
  {
    std::lock_guard<std::mutex> lock(role_mutex_);
    // The hint is only adopted when it can actually be followed. An empty
    // hint (the demoter learned the epoch but not the leader's address) or
    // one pointing back at this very node (a stale follower echoing OUR
    // address) must not become leader_addr_: blanking it would mean "this
    // node leads" — split-brain at the new epoch — and self-adopting would
    // bounce every redirected client straight back here. Either way the
    // epoch above already rose, so the node fences: writes are refused
    // with an address-less NOT_LEADER until a usable address arrives.
    const bool self_hint = !config_.advertised_addr.empty() &&
                           leader_addr == config_.advertised_addr;
    if (leader_addr.empty() || self_hint) {
      leader_addr_.clear();
      fenced_ = true;
    } else {
      leader_addr_ = leader_addr;
      fenced_ = false;
    }
  }
  epoch_gauge_->Set(static_cast<int64_t>(epoch));
  return Status::Ok();
}

Result<engine::EngineStamp> IntegrationService::ApplyReplicated(
    const std::string& project, uint64_t seq, std::string_view payload) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  std::lock_guard<std::mutex> lock(state->write_mutex);
  if (state->degraded) {
    return FailedPreconditionError("replica project is degraded: " +
                                   state->degraded_reason);
  }
  ECRINT_ASSIGN_OR_RETURN(engine::ReplayVerb verb,
                          engine::DecodeReplayVerb(payload));
  uint64_t expected = state->durability != nullptr
                          ? state->durability->next_seq()
                          : state->replica_applied_seq + 1;
  if (seq != expected) {
    return InvalidArgumentError("replication seq mismatch: expected " +
                                std::to_string(expected) + ", got " +
                                std::to_string(seq));
  }
  if (state->durability != nullptr) {
    // The follower journals the leader's record at the leader's seq, so a
    // restarted follower recovers locally and resubscribes from where the
    // stream left off.
    Status logged = state->durability->LogRun({&verb, 1});
    if (!logged.ok()) {
      DegradeProject(*state, logged);
      return logged;
    }
  }
  ApplyRun(*state, state->durability != nullptr, [&] {
    // Outcome ignored: the engine is deterministic, so a verb the leader
    // rejected replays to the identical rejection here — and the leader
    // journaled it regardless.
    (void)engine::ApplyReplayVerb(state->engine, verb);
  });
  state->replica_applied_seq = seq;
  return state->engine.Stamp();
}

Status IntegrationService::InstallReplicatedCheckpoint(
    const std::string& project, std::string_view bytes, uint64_t seq) {
  EnsureProject(project);
  ProjectState* state = FindProject(project);
  if (state == nullptr) {
    return InternalError("project vanished after EnsureProject");
  }
  std::lock_guard<std::mutex> lock(state->write_mutex);
  if (state->degraded) {
    return FailedPreconditionError("replica project is degraded: " +
                                   state->degraded_reason);
  }
  ECRINT_ASSIGN_OR_RETURN(CheckpointView checkpoint, ParseCheckpointAny(bytes));
  if (checkpoint.seq != seq) {
    return InvalidArgumentError(
        "checkpoint seq " + std::to_string(checkpoint.seq) +
        " does not match advertised seq " + std::to_string(seq));
  }
  // The leader's checkpoint carries its epoch; adopt a newer one (never
  // regress — this node may already know of a later failover).
  if (checkpoint.epoch > state->epoch) {
    state->epoch = checkpoint.epoch;
    epoch_gauge_->Set(static_cast<int64_t>(state->epoch));
  }
  // Build the replacement engine on the side so a bad checkpoint leaves
  // the current state (and its published snapshot) untouched.
  engine::Engine fresh;
  ECRINT_RETURN_IF_ERROR(RestoreCheckpoint(checkpoint, fresh));
  state->engine = std::move(fresh);
  state->integrate_lines_version = -1;
  state->integrate_lines.clear();
  if (state->durability != nullptr) {
    state->durability->set_epoch(state->epoch);
    Status installed = state->durability->InstallCheckpoint(bytes, seq);
    if (!installed.ok()) {
      DegradeProject(*state, installed);
      return installed;
    }
  }
  state->replica_applied_seq = seq;
  if (state->snapshots.Publish(state->engine)) {
    snapshots_published_->Increment();
  }
  return Status::Ok();
}

Status IntegrationService::ResetReplicatedProject(const std::string& project) {
  ProjectState* state = FindProject(project);
  if (state == nullptr) return Status::Ok();
  std::lock_guard<std::mutex> lock(state->write_mutex);
  engine::Engine fresh;
  engine::BeginReplay(fresh);
  state->engine = std::move(fresh);
  state->integrate_lines_version = -1;
  state->integrate_lines.clear();
  state->replica_applied_seq = 0;
  if (state->durability != nullptr) {
    Status reset = state->durability->Reset();
    if (!reset.ok()) {
      DegradeProject(*state, reset);
      return reset;
    }
  }
  if (state->snapshots.Publish(state->engine)) {
    snapshots_published_->Increment();
  }
  return Status::Ok();
}

int IntegrationService::CheckpointProjects() {
  std::vector<ProjectState*> all;
  {
    std::shared_lock<std::shared_mutex> lock(projects_mutex_);
    for (auto& [name, project] : projects_) all.push_back(project.get());
  }
  int written = 0;
  for (ProjectState* project : all) {
    std::lock_guard<std::mutex> lock(project->write_mutex);
    if (project->degraded || project->durability == nullptr) continue;
    if (project->durability->WriteCheckpoint(project->engine).ok()) {
      ++written;
    }
  }
  return written;
}

// ---------------------------------------------------------------------------
// Command plane: the one entry every request takes.
// ---------------------------------------------------------------------------

namespace {

// The replay-journal record for a write command; nullopt for export, which
// mutates nothing and is never journaled.
std::optional<engine::ReplayVerb> ReplayVerbFor(const ServiceCommand& command) {
  switch (command.op) {
    case ServiceCommand::Op::kDefine:
      return engine::DefineVerb(command.text);
    case ServiceCommand::Op::kEquiv:
      return engine::EquivalenceVerb(command.path_a, command.path_b);
    case ServiceCommand::Op::kAssert:
      return engine::RelationVerb(command.first, command.type_code,
                                  command.second);
    case ServiceCommand::Op::kIntegrate:
      return engine::IntegrateVerb(command.schemas);
    default:
      return std::nullopt;
  }
}

}  // namespace

ServiceResponse IntegrationService::ApplyWrite(ProjectState& project,
                                               const engine::ReplayVerb& verb) {
  engine::Engine& engine = project.engine;
  const size_t diagnostics_before = engine.diagnostics().size();
  Result<std::vector<std::string>> applied =
      engine::ApplyReplayVerb(engine, verb);
  if (!applied.ok()) {
    return WriteFailure(engine, diagnostics_before, applied.status());
  }
  ServiceResponse response;
  switch (verb.kind) {
    case engine::ReplayVerb::Kind::kDefine:
      response.lines = *std::move(applied);
      break;
    case engine::ReplayVerb::Kind::kEquivalence:
      response.lines.push_back("declared " + verb.first_path.ToString() +
                               " = " + verb.second_path.ToString());
      break;
    case engine::ReplayVerb::Kind::kRelation:
      response.lines.push_back("asserted " + verb.first.ToString() + " " +
                               std::to_string(verb.type_code) + " " +
                               verb.second.ToString());
      break;
    case engine::ReplayVerb::Kind::kIntegrate: {
      // Rendering the outline + derived lines dominates a cache-hit
      // integrate; the integration_version tags exactly the result object
      // the lines were rendered from, so a version match reuses them.
      const int64_t version = engine.Stamp().integration_version;
      if (project.integrate_lines_version != version) {
        const core::IntegrationResult& result = *engine.integration();
        project.integrate_lines = ToLines(ecr::ToOutline(result.schema));
        for (const core::DerivedAttributeInfo& info :
             result.derived_attributes) {
          std::string line = "derived " + info.owner + "." + info.name + " <-";
          for (const ecr::AttributePath& component : info.components) {
            line += " ";
            line += component.ToString();
          }
          project.integrate_lines.push_back(std::move(line));
        }
        project.integrate_lines_version = version;
      }
      response.lines = project.integrate_lines;
      break;
    }
  }
  return response;
}

ServiceResponse IntegrationService::ReadCommandBody(
    const EngineSnapshot& snapshot, const ServiceCommand& command) {
  ServiceResponse response;
  switch (command.op) {
    case ServiceCommand::Op::kPing:
      response.lines.push_back("pong");
      return response;
    case ServiceCommand::Op::kRank:
      return RankBody(snapshot, command);
    case ServiceCommand::Op::kSuggest:
      return SuggestBody(snapshot, command);
    case ServiceCommand::Op::kTranslate:
      return TranslateBody(snapshot, command);
    case ServiceCommand::Op::kOutline:
      return OutlineBody(snapshot);
    case ServiceCommand::Op::kMetrics:
      response.lines.push_back(metrics_.MetricsJson());
      return response;
    default:
      return ErrorResponse(
          {ServiceErrorCode::kBadRequest, "not a read command"});
  }
}

std::vector<ServiceResponse> IntegrationService::Execute(
    const std::string& session_id, std::span<const ServiceCommand> commands,
    BatchReadCache* cache, bool batch_frame) {
  const int64_t start_ns = clock_->NowNs();
  std::vector<ServiceResponse> out(commands.size());
  std::vector<int64_t> finished_ns(commands.size(), 0);
  // Counted before anything runs, so a `metrics` request sees itself.
  bool needs_project = false;
  for (const ServiceCommand& command : commands) {
    op_stats_[static_cast<size_t>(command.op)].requests->Increment();
    needs_project |= !VerbOf(command.op).session_free();
  }
  if (batch_frame) {
    batch_stats_.requests->Increment();
    batch_size_->Record(static_cast<int64_t>(commands.size()));
  }

  if (!needs_project) {
    // Ping only: liveness needs neither a session nor an admission slot.
    for (ServiceResponse& response : out) response.lines.push_back("pong");
  } else {
    // Opportunistic (throttled) reaping keeps the session table tight
    // without a timer thread.
    MaybeReapSessions();
    std::optional<ServiceError> refused;
    Result<std::string> project_name = sessions_.TouchAndProject(session_id);
    ProjectState* project = nullptr;
    if (!project_name.ok()) {
      refused = ErrorFromStatus(project_name.status());
    } else if ((project = FindProject(*project_name)) == nullptr) {
      refused = ServiceError(ServiceErrorCode::kBadRequest,
                             "no project '" + *project_name + "'");
    } else {
      // ONE admission charge for the whole call.
      const int64_t deadline = commands.front().deadline_ns > 0
                                   ? commands.front().deadline_ns
                                   : start_ns + config_.default_deadline_ns;
      int64_t in_flight =
          in_flight_.fetch_add(1, std::memory_order_relaxed) + 1;
      queue_depth_->Set(in_flight);
      if (in_flight > config_.queue_depth) {
        refused = ServiceError(ServiceErrorCode::kOverloaded,
                               "request queue at capacity (" +
                                   std::to_string(config_.queue_depth) + ")");
      } else if (start_ns >= deadline) {
        refused = ServiceError(ServiceErrorCode::kTimeout,
                               "deadline expired before execution");
      } else {
        RunCommands(*project, *project_name, deadline, commands, out,
                    finished_ns, cache);
      }
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    if (refused.has_value()) {
      for (ServiceResponse& response : out) response.error = *refused;
    }
  }

  // Exactly one latency sample per counted request, cache hits included.
  const int64_t end_ns = clock_->NowNs();
  for (size_t k = 0; k < commands.size(); ++k) {
    const int64_t done_ns = finished_ns[k] > 0 ? finished_ns[k] : end_ns;
    op_stats_[static_cast<size_t>(commands[k].op)].latency->Record(
        (done_ns - start_ns) / 1000);
    if (out[k].error.has_value()) {
      error_counters_[static_cast<int>(out[k].error->code)]->Increment();
    }
  }
  if (batch_frame) batch_stats_.latency->Record((end_ns - start_ns) / 1000);
  return out;
}

void IntegrationService::RunCommands(ProjectState& project,
                                     const std::string& project_name,
                                     int64_t deadline_ns,
                                     std::span<const ServiceCommand> commands,
                                     std::vector<ServiceResponse>& out,
                                     std::vector<int64_t>& finished_ns,
                                     BatchReadCache* cache) {
  const size_t n = commands.size();
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    const bool write = VerbOf(commands[begin].op).write();
    end = begin;
    while (end < n && VerbOf(commands[end].op).write() == write) ++end;
    if (write) {
      RunWrites(project, deadline_ns, commands, begin, end, out);
      std::fill(finished_ns.begin() + begin, finished_ns.begin() + end,
                clock_->NowNs());
      continue;
    }
    // Read run: every read in the run shares ONE snapshot acquisition.
    // Cache lookups validate against this same snapshot, so a read that
    // follows a write run in the batch can never be served a pre-write
    // answer.
    std::shared_ptr<const EngineSnapshot> snapshot =
        project.snapshots.Current();
    for (size_t k = begin; k < end; ++k) {
      const bool cacheable =
          cache != nullptr && VerbOf(commands[k].op).cacheable();
      std::optional<ServiceResponse> hit;
      if (cacheable) hit = cache->Lookup(k, project_name, *snapshot);
      if (hit.has_value()) {
        cache_hits_->Increment();
        out[k] = *std::move(hit);
      } else {
        out[k] = ReadCommandBody(*snapshot, commands[k]);
        // Only successful responses are cached: admission errors are
        // transient and session errors name a specific session.
        if (cacheable && out[k].ok()) {
          cache->Insert(k, project_name, *snapshot, out[k]);
        }
      }
      finished_ns[k] = clock_->NowNs();
    }
  }
}

void IntegrationService::RunWrites(ProjectState& project, int64_t deadline_ns,
                                   std::span<const ServiceCommand> commands,
                                   size_t begin, size_t end,
                                   std::vector<ServiceResponse>& out) {
  std::lock_guard<std::mutex> lock(project.write_mutex);
  // Time queued behind other writers counts against the deadline: a client
  // whose deadline lapsed while waiting sees TIMEOUT, not a late mutation.
  if (clock_->NowNs() >= deadline_ns) {
    for (size_t k = begin; k < end; ++k) {
      out[k] = ErrorResponse({ServiceErrorCode::kTimeout,
                              "deadline expired while queued for write"});
    }
    return;
  }
  // One role probe for the run: a promote/demote racing it lands before or
  // after the whole run, never between two of its writes. A read replica
  // (or a fenced deposed leader) refuses: the leader's replication stream
  // is its only writer, entering through ApplyReplicated.
  const bool leads = LeadsWrites();
  const std::string leader = leads ? std::string() : CurrentLeaderAddr();
  // Gate, then collect the run's journal records. Export is not journaled
  // and works in degraded mode and on replicas. A gated write gets its
  // error now; every write still without one runs below.
  std::vector<engine::ReplayVerb> records;
  for (size_t k = begin; k < end; ++k) {
    std::optional<engine::ReplayVerb> verb = ReplayVerbFor(commands[k]);
    if (!verb.has_value()) continue;
    if (!leads) {
      out[k] = ErrorResponse(NotLeaderError(leader));
    } else if (project.degraded) {
      out[k] = ErrorResponse(UnavailableError(project));
    } else {
      records.push_back(*std::move(verb));
    }
  }
  bool logged = !records.empty() && project.durability != nullptr;
  if (logged) {
    // WAL-first with group commit: every record is appended and covered by
    // ONE durability barrier before any verb runs, so a journal failure
    // leaves memory and the published snapshot untouched (the run happened
    // nowhere) and the project flips to degraded read-only mode.
    Status status = project.durability->LogRun(records);
    if (!status.ok()) {
      logged = false;
      DegradeProject(project, status);
      for (size_t k = begin; k < end; ++k) {
        if (!out[k].error.has_value() &&
            commands[k].op != ServiceCommand::Op::kExport) {
          out[k] = ErrorResponse(UnavailableError(project));
        }
      }
    }
  }
  // Apply in command order: each journaled record goes through
  // engine::ApplyReplayVerb exactly as recovery and replicas replay it;
  // an export reads the engine as the writes before it left it.
  ApplyRun(project, logged, [&] {
    size_t next_record = 0;
    for (size_t k = begin; k < end; ++k) {
      if (out[k].error.has_value()) continue;
      out[k] = commands[k].op == ServiceCommand::Op::kExport
                   ? ExportBody(project.engine)
                   : ApplyWrite(project, records[next_record++]);
    }
  });
}

std::shared_ptr<const EngineSnapshot> IntegrationService::CurrentSnapshot(
    const std::string& session_id) {
  ServiceError error;
  ProjectState* project = ProjectForSession(session_id, &error);
  if (project == nullptr) return nullptr;
  return project->snapshots.Current();
}

}  // namespace ecrint::service
