#ifndef ECRINT_SERVICE_SERVICE_H_
#define ECRINT_SERVICE_SERVICE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fs.h"
#include "common/result.h"
#include "core/object_ref.h"
#include "core/request_translation.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "service/metrics.h"
#include "service/recovery.h"
#include "service/session.h"
#include "service/snapshot.h"

namespace ecrint::service {

// What a client sees when the service refuses or fails a request. The six
// codes partition every failure the service plane can produce:
//   OVERLOADED  - admission control shed the request (queue at capacity);
//                 retry with backoff, the project state is untouched.
//   TIMEOUT     - the request's deadline expired before execution started;
//                 the project state is untouched.
//   CONFLICT    - the engine rejected the mutation as contradictory (the
//                 paper's Screen-9 case); message carries the derivation.
//   BAD_REQUEST - anything else the caller got wrong: unknown verb or
//                 session, parse errors, missing schemas/attributes,
//                 operations out of phase order.
//   UNAVAILABLE - the project's journal device failed, so mutations are
//                 refused (degraded read-only mode); nothing was applied.
//                 Carries a retry-after hint; reads keep working against
//                 the last published snapshot.
//   NOT_LEADER  - this node is a read replica: mutations must go to the
//                 leader, whose address rides along in `leader`. Reads keep
//                 working here. Appended last so existing binary status
//                 bytes are unchanged.
enum class ServiceErrorCode {
  kOverloaded,
  kTimeout,
  kBadRequest,
  kConflict,
  kUnavailable,
  kNotLeader,
};

// Wire name of a code ("OVERLOADED", "TIMEOUT", ...).
const char* ServiceErrorCodeName(ServiceErrorCode code);

struct ServiceError {
  ServiceErrorCode code = ServiceErrorCode::kBadRequest;
  std::string message;
  // For UNAVAILABLE: how long the client should wait before retrying
  // (0 = no hint).
  int64_t retry_after_ms = 0;
  // For NOT_LEADER: where writes should go (host:port).
  std::string leader;

  ServiceError() = default;
  ServiceError(ServiceErrorCode code_in, std::string message_in,
               int64_t retry_after_ms_in = 0, std::string leader_in = {})
      : code(code_in),
        message(std::move(message_in)),
        retry_after_ms(retry_after_ms_in),
        leader(std::move(leader_in)) {}
};

// Maps an engine/library Status onto the service error vocabulary:
// kConflict -> CONFLICT, everything else -> BAD_REQUEST (admission codes
// never come from a Status).
ServiceError ErrorFromStatus(const Status& status);

struct ServiceResponse {
  std::optional<ServiceError> error;
  std::vector<std::string> lines;  // payload, one wire line each

  bool ok() const { return !error.has_value(); }
};

// One parsed request in protocol-independent form. The router builds these
// from text tokens or binary frame arguments through the verb table
// (service/verbs.h); the service executes them with Execute. Which payload
// fields matter depends on `op`.
struct ServiceCommand {
  enum class Op {
    kPing,
    kDefine,
    kEquiv,
    kAssert,
    kIntegrate,
    kExport,
    kRank,
    kSuggest,
    kTranslate,
    kOutline,
    kMetrics,
  };
  Op op = Op::kPing;
  // Absolute deadline; 0 = service default. A batch runs under its first
  // command's deadline.
  int64_t deadline_ns = 0;

  std::string text;                   // define: raw DDL
  ecr::AttributePath path_a, path_b;  // equiv
  core::ObjectRef first, second;      // assert
  int type_code = 0;                  // assert
  std::vector<std::string> schemas;   // integrate
  std::string schema1, schema2;       // rank / suggest
  core::StructureKind kind = core::StructureKind::kObjectClass;  // rank
  bool include_zero = false;          // rank
  double threshold = 0.6;             // suggest
  core::Request request;              // translate
  bool to_components = false;         // translate
};

struct ServiceConfig {
  // Admission bound: requests in flight (queued on a write lock or
  // executing) beyond this are refused with OVERLOADED instead of queuing
  // without bound.
  int queue_depth = 64;
  // Deadline applied when a request does not carry its own.
  int64_t default_deadline_ns = 5'000'000'000;  // 5 s
  // Sessions idle longer than this are reaped (opportunistically, on the
  // request path).
  int64_t session_idle_timeout_ns = 600'000'000'000;  // 10 min
  // Time source; null means the real steady clock. Tests inject a
  // ManualClock so deadline and reaping behaviour never sleeps.
  const common::Clock* clock = nullptr;
  // Root of the durability tree: each project journals and checkpoints
  // under <data_dir>/<encoded-project-name>/. Empty disables durability
  // entirely (the pre-journal in-memory behaviour).
  std::string data_dir;
  // Filesystem behind the durability tree; null means the real POSIX
  // filesystem. Tests inject MemFs or FaultInjectingFs.
  common::Fs* fs = nullptr;
  DurabilityOptions durability;
  // Non-empty makes this service a read replica: client-facing mutations
  // are refused with NOT_LEADER carrying this address, and the replication
  // plane (ApplyReplicated et al.) is the only writer.
  std::string leader_addr;
  // The address other nodes reach THIS node at (ecrint_serve --advertise).
  // Only used defensively: a demotion whose leader hint points back at this
  // address is a stale follower echoing our own address, and adopting it
  // would redirect clients in a loop — the node fences instead. Empty
  // disables the self-hint check.
  std::string advertised_addr;
};

// The multi-session, thread-safe service plane over engine::Engine.
//
// Concurrency model: one engine per project, guarded by a per-project
// write mutex — writers (define / equiv / assert / integrate / export)
// serialize per project, and after every successful mutation the writer
// republishes an immutable EngineSnapshot. Readers (rank / suggest /
// translate / outline) never touch the engine: they grab the current
// snapshot shared_ptr and compute from it, so any number run concurrently
// — on client threads or common::ThreadPool workers — while a writer is
// mid-mutation.
//
// Every request passes admission control (bounded in-flight count,
// per-request deadline) and charges a per-verb latency histogram plus
// request/error counters to the MetricsRegistry.
//
// Optional per-item read cache consulted by Execute for cacheable verbs.
// Implemented by the router (which owns the ResponseCache and knows each
// item's wire-level key). The service calls it with the project name and
// the snapshot the read run actually executes against — reads that follow
// a write run in the same batch are therefore validated against the
// post-write snapshot, never the pre-batch one, so a hit is exactly as
// fresh as re-executing would be.
class BatchReadCache {
 public:
  virtual ~BatchReadCache() = default;
  // A still-valid cached response for commands[index] under `snapshot`,
  // or nullopt to execute the read normally.
  virtual std::optional<ServiceResponse> Lookup(
      size_t index, const std::string& project,
      const EngineSnapshot& snapshot) = 0;
  // Offers the freshly executed ok() response for commands[index].
  virtual void Insert(size_t index, const std::string& project,
                      const EngineSnapshot& snapshot,
                      const ServiceResponse& response) = 0;
};

class IntegrationService {
 public:
  explicit IntegrationService(ServiceConfig config = {});

  IntegrationService(const IntegrationService&) = delete;
  IntegrationService& operator=(const IntegrationService&) = delete;

  // --- session plane -------------------------------------------------------
  // Opens a session bound to `project`, creating the project (with an
  // empty published snapshot) on first use. Returns the session id.
  std::string OpenSession(const std::string& project);
  Status CloseSession(const std::string& session_id);
  SessionManager& sessions() { return sessions_; }

  // --- command plane -------------------------------------------------------
  // The one command entry: a lone request is a batch of one. The call pays
  // ONE admission charge (in-flight bound, then the first command's
  // deadline), then consecutive reads share a single snapshot acquisition
  // (and the response cache, when `cache` is non-null) and consecutive
  // writes run in a single write-lock pass: every journal record of the
  // run is appended, ONE durability barrier covers them, and only then are
  // the writes applied in order. A failed append or barrier answers
  // UNAVAILABLE for every journaled write of the run and leaves the engine
  // and the published snapshot untouched. Responses come back in command
  // order. Every command bumps requests.<verb> before it runs and records
  // one latency.<verb> sample (time until its answer was final); a
  // `batch_frame` call also records requests.batch, latency.batch and
  // batch.size. Ping-only calls need no session and skip admission.
  std::vector<ServiceResponse> Execute(
      const std::string& session_id, std::span<const ServiceCommand> commands,
      BatchReadCache* cache = nullptr, bool batch_frame = false);
  ServiceResponse Execute(const std::string& session_id,
                          const ServiceCommand& command) {
    return std::move(Execute(session_id, {&command, 1}).front());
  }

  // Checkpoints every healthy durable project now (shutdown/drain path);
  // returns how many checkpoints were written. A no-op without a data dir.
  int CheckpointProjects();

  // --- replication plane ---------------------------------------------------
  // These are the hooks src/service/replication.{h,cc} drives; normal
  // clients never see them. They bypass the NOT_LEADER gate (the leader's
  // stream IS the write path on a follower) but respect degraded mode.

  // Creates `project` (running recovery and publishing the initial
  // snapshot) if it does not exist yet; idempotent.
  void EnsureProject(const std::string& project);

  // Where a node's replication stream stands: the last sequence folded into
  // the engine and the stamp of that state. On the leader seq comes from
  // the journal; on a diskless follower from the applied-record counter.
  // `epoch` is the leader epoch of the stream (see the failover plane).
  struct ReplicationPosition {
    uint64_t seq = 0;
    uint64_t epoch = 0;
    engine::EngineStamp stamp;
  };
  Result<ReplicationPosition> SampleReplicationPosition(
      const std::string& project);

  // --- failover plane ------------------------------------------------------
  // The node's role is dynamic: it starts from config.leader_addr (empty =
  // leader) and changes at runtime when an operator promotes this node or
  // demotes it behind a new leader. Every stream carries a monotonically
  // increasing *leader epoch* (0 = failover never happened): a promote
  // bumps it, and both sides reject traffic from a stale epoch, so a
  // deposed leader that comes back cannot split-brain the cluster.

  // The leader address NOT_LEADER refusals carry; empty when none is
  // known — which means this node leads, UNLESS it is fenced (see
  // LeadsWrites). Role decisions must go through LeadsWrites, never
  // through CurrentLeaderAddr().empty().
  std::string CurrentLeaderAddr() const;

  // True when this node currently accepts client writes. False for a
  // follower (CurrentLeaderAddr names its leader) and for a *fenced* node:
  // one deposed at a higher epoch without learning the new leader's
  // address (empty or self-pointing demotion hint). A fenced node refuses
  // writes with NOT_LEADER carrying no address; only a promote (or a
  // demotion with a usable address) ends the fence.
  bool LeadsWrites() const;

  // The leader epoch of `project`'s stream (0 for an unknown project).
  uint64_t ProjectEpoch(const std::string& project);

  // Raises `project`'s epoch to `epoch` if higher — a follower adopting
  // the epoch its leader announced. Never lowers; no-op when stale.
  void AdoptReplicationEpoch(const std::string& project, uint64_t epoch);

  // Makes this node the write leader of `project`'s stream at a new,
  // higher epoch: clears the NOT_LEADER gate, bumps the project epoch,
  // and (when durable) persists it in a checkpoint so a restart keeps the
  // fence. Returns the new epoch.
  Result<uint64_t> PromoteProject(const std::string& project);

  // The inverse: fences this node behind `leader_addr` at `epoch`.
  // Rejects a stale demotion — `epoch` below the project's epoch, or equal
  // to it while this node believes it leads that epoch — with
  // FailedPrecondition (counted in repl.stale_epoch_rejects). A hint that
  // is empty or points back at this node (config.advertised_addr) is not
  // adopted: the epoch still rises but the node fences with the leader
  // unknown instead of redirecting clients at itself (or, worse, blanking
  // the address and claiming leadership at the new epoch).
  Status DemoteProject(const std::string& project, uint64_t epoch,
                       const std::string& leader_addr);

  // Applies one leader journal record (an encoded ReplayVerb at the
  // leader's `seq`) to a follower: journals it locally when durable,
  // replays it through engine::ApplyReplayVerb (a rejected verb replays to
  // the same rejection — that is the point), republishes the snapshot, and
  // returns the resulting stamp. `seq` must be exactly the next expected
  // sequence; a mismatch is an error and the caller resubscribes.
  Result<engine::EngineStamp> ApplyReplicated(const std::string& project,
                                              uint64_t seq,
                                              std::string_view payload);

  // Replaces a follower project's state with a checkpoint fetched from the
  // leader (`bytes` is the serialized checkpoint, either format, covering
  // records <= `seq`), persisting it locally when durable.
  Status InstallReplicatedCheckpoint(const std::string& project,
                                     std::string_view bytes, uint64_t seq);

  // Discards a diverged follower project back to the empty post-publication
  // state (seq 0) so the next bootstrap starts from nothing.
  Status ResetReplicatedProject(const std::string& project);

  // The current snapshot of a session's project (null if the session or
  // project is unknown). Exposed for readers that drive snapshot
  // operations directly (tests, the stress harness).
  std::shared_ptr<const EngineSnapshot> CurrentSnapshot(
      const std::string& session_id);

  MetricsRegistry& metrics() { return metrics_; }
  const ServiceConfig& config() const { return config_; }
  const common::Clock* clock() const { return clock_; }
  common::Fs* fs() { return fs_; }

 private:
  // One hosted project: the single-writer engine behind its lock, plus the
  // published snapshot chain and (when a data dir is configured) its
  // write-ahead journal.
  struct ProjectState {
    std::mutex write_mutex;
    engine::Engine engine;  // guarded by write_mutex
    SnapshotManager snapshots;
    // Null when durability is disabled or recovery failed at open.
    std::unique_ptr<RecoveryManager> durability;  // guarded by write_mutex
    // Degraded read-only mode: the journal device failed (or recovery
    // did), so mutations are refused with UNAVAILABLE while reads keep
    // serving the last published snapshot.
    bool degraded = false;            // guarded by write_mutex
    std::string degraded_reason;      // guarded by write_mutex
    // True when the degradation was a full disk (ENOSPC/EDQUOT): the
    // refusal says so explicitly — an operator who frees space can clear
    // it, unlike a dying device. Guarded by write_mutex.
    bool degraded_disk_full = false;
    // Integrate response cache: the outline + derived lines last rendered,
    // valid while the engine's integration_version matches (a repeat
    // integrate that cache-hits in the engine skips re-rendering too).
    // Guarded by write_mutex.
    int64_t integrate_lines_version = -1;
    std::vector<std::string> integrate_lines;
    // Last leader sequence applied on a DISKLESS follower (durable
    // followers track it through the journal's next_seq instead). Guarded
    // by write_mutex.
    uint64_t replica_applied_seq = 0;
    // Leader epoch of this project's replication stream; mirrors the
    // durability layer's persisted epoch when one exists. Guarded by
    // write_mutex.
    uint64_t epoch = 0;
  };

  // Per-verb instruments, resolved once at construction so the hot path
  // never takes the registry mutex or builds a name string.
  struct VerbStats {
    Counter* requests = nullptr;
    Histogram* latency = nullptr;
  };

  // Publishes closure.* deltas for the write that just ran. `before` is the
  // engine's closure totals sampled before the verb body. Caller holds
  // write_mutex.
  void RecordClosureMetrics(ProjectState& project,
                            const core::ClosureStats& before);

  // Flips the project to degraded read-only mode. Caller holds write_mutex.
  void DegradeProject(ProjectState& project, const Status& cause);
  ServiceError UnavailableError(const ProjectState& project) const;

  ProjectState* FindProject(const std::string& name);
  ProjectState* ProjectForSession(const std::string& session_id,
                                  ServiceError* error);

  // Reaps idle sessions at most once per reap interval (an atomic probe on
  // every other request) instead of scanning the table per request.
  void MaybeReapSessions();

  // Execute's run executor: segments commands into read runs and write
  // runs. `finished_ns[k]` is set to the time command k's answer became
  // final.
  void RunCommands(ProjectState& project, const std::string& project_name,
                   int64_t deadline_ns,
                   std::span<const ServiceCommand> commands,
                   std::vector<ServiceResponse>& out,
                   std::vector<int64_t>& finished_ns, BatchReadCache* cache);
  void RunWrites(ProjectState& project, int64_t deadline_ns,
                 std::span<const ServiceCommand> commands, size_t begin,
                 size_t end, std::vector<ServiceResponse>& out);

  // Verb bodies (caller holds write_mutex / owns the snapshot).
  ServiceResponse IntegrateBody(ProjectState& project,
                                const std::vector<std::string>& schemas);
  ServiceResponse WriteCommandBody(ProjectState& project,
                                   const ServiceCommand& command);
  ServiceResponse ReadCommandBody(const EngineSnapshot& snapshot,
                                  const ServiceCommand& command);

  ServiceConfig config_;
  const common::Clock* clock_;
  common::Fs* fs_;
  SessionManager sessions_;
  MetricsRegistry metrics_;

  // Instruments resolved once (the registry hands out stable pointers),
  // indexed by ServiceCommand::Op.
  std::array<VerbStats, static_cast<size_t>(ServiceCommand::Op::kMetrics) + 1>
      op_stats_{};
  VerbStats batch_stats_;
  std::array<Counter*, 6> error_counters_{};
  Counter* snapshots_published_ = nullptr;
  Counter* sessions_reaped_ = nullptr;
  Counter* degraded_flips_ = nullptr;
  Counter* enospc_degrades_ = nullptr;
  Counter* stale_epoch_rejects_ = nullptr;
  Counter* cache_hits_ = nullptr;
  Gauge* sessions_live_ = nullptr;
  Gauge* queue_depth_ = nullptr;
  Gauge* epoch_gauge_ = nullptr;
  Histogram* batch_size_ = nullptr;

  // Dynamic role state (see the failover plane). Guarded by role_mutex_;
  // the node leads iff leader_addr_ is empty AND it is not fenced. Fenced
  // = deposed at a higher epoch without a usable new-leader address.
  mutable std::mutex role_mutex_;
  std::string leader_addr_;
  bool fenced_ = false;

  // Guards the project table only; per-project state has its own locks.
  // Readers (every request) take it shared, project creation exclusive.
  std::shared_mutex projects_mutex_;
  std::map<std::string, std::unique_ptr<ProjectState>> projects_;

  std::atomic<int64_t> in_flight_{0};
  std::atomic<int64_t> last_reap_ns_{0};
  int64_t reap_interval_ns_ = 0;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_SERVICE_H_
