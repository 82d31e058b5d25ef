// The traced run: replays a workload's seeded request stream in-process and
// times every layer boundary through its public functions, each layer on
// its own replica fed the same stream:
//
//   request           codec encode + RequestRouter::HandleFrame + decode (A)
//   service.execute   IntegrationService::Execute (B)
//   engine.<verb>     engine::Engine, with the service's call sequence (C)
//   core.* / heuristics.suggest / ecr.ddl_parse
//                     AssertionStore::Assert and core::IntegrateSeeded on a
//                     seeded store of C's assertions, OcsMatrix::Create,
//                     TranslateToIntegrated, SuggestAttributeEquivalences,
//                     ecr::ParseSchema, on C's state
//   journal.*         Journal append / group-commit sync and checkpoints on
//                     the same filesystem; RecoveryManager::Open over B's
//                     data directory at the end (recovery.*)
//
// Spans (name, verb, start, end, parent, request id) stay in memory and are
// written to <state>/spans.jsonl at exit. A layer's self time is its span
// minus the next layer down on the same request. A twin of A (A0) handles
// every request untraced, so the tracing overhead is the difference of the
// two. The service.net time is a loopback round trip through a NetServer
// over A0 minus A0's HandleFrame for the same requests on the same state.
// Nothing here adds tracing inside src/.

#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "core/assertion_store.h"
#include "core/integrator.h"
#include "core/request_translation.h"
#include "core/resemblance.h"
#include "ecr/ddl_parser.h"
#include "ecr/printer.h"
#include "heuristics/suggest.h"
#include "heuristics/synonyms.h"
#include "service/journal.h"
#include "service/net.h"
#include "service/recovery.h"
#include "service/router.h"
#include "service/service.h"
#include "worlds.h"

namespace e2e {
namespace {

namespace core = ecrint::core;
namespace engine = ecrint::engine;
namespace service = ecrint::service;
using ecrint::Result;
using ecrint::Status;

struct Entry {
  std::string project;
  BinaryRequest request;
  bool expect_conflict = false;
};

// Produces a workload's request stream one entry at a time: the seed
// streams first, then the workload's own requests, as the load generator
// sends them (sequentially here).
class Stream {
 public:
  Stream(const std::string& workload, uint64_t seed, const Sizes& sizes)
      : workload_(workload), seed_(seed), sizes_(sizes) {
    if (workload == "dda_edit") {
      dda_world_ = std::make_unique<World>(DdaWorld(seed, 0, sizes));
      dda_steps_ = std::make_unique<DdaSteps>(seed, *dda_world_);
      Queue(dda_world_->project, SeedRequests(*dda_world_));
    } else {
      for (const char* lane : {"a", "b", "batch"}) {
        lanes_.emplace_back();
        lanes_.back().name = lane;
      }
    }
  }

  bool Next(Entry* entry) {
    if (pending_.empty() && !Refill()) return false;
    *entry = std::move(pending_.front());
    pending_.pop_front();
    return true;
  }

 private:
  struct Lane {
    std::string name;
    int index = -1;
    std::unique_ptr<World> world;
    std::vector<BinaryRequest> stream;
    size_t at = 0;
  };

  void Queue(const std::string& project, std::vector<BinaryRequest> requests) {
    for (BinaryRequest& request : requests) {
      pending_.push_back({project, std::move(request), false});
    }
  }

  bool Refill() {
    if (workload_ == "dda_edit") {
      DdaStep step;
      if (!dda_steps_->Next(&step)) return false;
      const std::string& project = dda_world_->project;
      const std::vector<std::string>& names = dda_world_->truth.schema_names;
      pending_.push_back({project, step.edit,
                          step.kind == DdaStep::Kind::kContradiction});
      pending_.push_back({project, MakeRequest(WireVerb::kIntegrate), false});
      pending_.push_back({project, MakeRequest(WireVerb::kOutline), false});
      if (step.rank) {
        pending_.push_back(
            {project, MakeRequest(WireVerb::kRank, {names[0], names[1]}),
             false});
      }
      return true;
    }
    // ingest_durable: one write from each lane in turn; after every 8
    // writes the reader reads a project some lane has integrated.
    for (Lane& lane : lanes_) {
      if (lane.world == nullptr || lane.at >= lane.stream.size()) {
        ++lane.index;
        lane.world = std::make_unique<World>(
            IngestWorld(seed_, lane.name, lane.index, sizes_));
        lane.stream = IngestStream(
            *lane.world, seed_ + static_cast<uint64_t>(lane.index));
        lane.at = 0;
      }
      const BinaryRequest& request = lane.stream[lane.at++];
      if (request.verb == WireVerb::kIntegrate) integrated_ = lane.world->project;
      pending_.push_back({lane.world->project, request, false});
      if (++writes_ % 8 == 0 && !integrated_.empty()) {
        pending_.push_back(
            {integrated_,
             (writes_ / 8) % 2 == 0
                 ? MakeRequest(WireVerb::kOutline)
                 : MakeRequest(WireVerb::kRank, {"view1", "view2"}),
             false});
      }
    }
    return true;
  }

  std::string workload_;
  uint64_t seed_;
  Sizes sizes_;
  std::deque<Entry> pending_;
  std::unique_ptr<World> dda_world_;
  std::unique_ptr<DdaSteps> dda_steps_;
  std::vector<Lane> lanes_;
  std::string integrated_;
  int64_t writes_ = 0;
};

struct Span {
  std::string name;
  std::string verb;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

// Per-project state of the engine (C) and core (D) replicas.
struct ProjectReplicas {
  engine::Engine engine;
  std::optional<core::AssertionStore> seeded;  // D: seeds + C's assertions
  // Writes checkpoints of `engine` as the server does every 256 verbs;
  // opening it recovers (nothing) into `checkpoint_engine`.
  std::unique_ptr<service::RecoveryManager> checkpoints;
  engine::Engine checkpoint_engine;
  int64_t writes = 0;
  std::string session_b;
  service::RouterSession session_a;
  service::RouterSession session_a0;
};

bool ToCommand(const BinaryRequest& request, service::ServiceCommand* command) {
  using Op = service::ServiceCommand::Op;
  const std::vector<std::string>& args = request.args;
  switch (request.verb) {
    case WireVerb::kDefine:
      command->op = Op::kDefine;
      command->text = args.at(0);
      return true;
    case WireVerb::kEquiv: {
      Result<ecrint::ecr::AttributePath> a = ParseAttributePath(args.at(0));
      Result<ecrint::ecr::AttributePath> b = ParseAttributePath(args.at(1));
      if (!a.ok() || !b.ok()) return false;
      command->op = Op::kEquiv;
      command->path_a = *a;
      command->path_b = *b;
      return true;
    }
    case WireVerb::kAssert: {
      Result<core::ObjectRef> first = ParseObjectRef(args.at(0));
      Result<core::ObjectRef> second = ParseObjectRef(args.at(2));
      if (!first.ok() || !second.ok()) return false;
      command->op = Op::kAssert;
      command->first = *first;
      command->type_code = std::atoi(args.at(1).c_str());
      command->second = *second;
      return true;
    }
    case WireVerb::kIntegrate:
      command->op = Op::kIntegrate;
      command->schemas = args;
      return true;
    case WireVerb::kRank:
      command->op = Op::kRank;
      command->schema1 = args.at(0);
      command->schema2 = args.at(1);
      for (size_t i = 2; i < args.size(); ++i) {
        if (args[i] == "rel") {
          command->kind = core::StructureKind::kRelationshipSet;
        }
        if (args[i] == "zero") command->include_zero = true;
      }
      return true;
    case WireVerb::kSuggest:
      command->op = Op::kSuggest;
      command->schema1 = args.at(0);
      command->schema2 = args.at(1);
      if (args.size() > 2) command->threshold = std::atof(args[2].c_str());
      return true;
    case WireVerb::kTranslate: {
      Result<core::ObjectRef> structure = ParseObjectRef(args.at(0));
      if (!structure.ok()) return false;
      command->op = Op::kTranslate;
      command->request.structure = *structure;
      if (args.size() > 1) {
        const std::string& list = args[1];
        size_t start = 0;
        while (start <= list.size()) {
          size_t comma = list.find(',', start);
          if (comma == std::string::npos) comma = list.size();
          if (comma > start) {
            command->request.attributes.push_back(
                list.substr(start, comma - start));
          }
          start = comma + 1;
        }
      }
      return true;
    }
    case WireVerb::kOutline:
      command->op = Op::kOutline;
      return true;
    default:
      return false;
  }
}

class Tracer {
 public:
  explicit Tracer(const std::string& state) : state_(state) {
    std::filesystem::remove_all(state + "/replicas");
    for (const char* dir : {"A", "A0", "B", "J", "R"}) {
      std::filesystem::create_directories(state + "/replicas/" + dir);
    }
    service_a_ = MakeService("A");
    service_a0_ = MakeService("A0");
    service_b_ = MakeService("B");
    router_a_ = std::make_unique<service::RequestRouter>(service_a_.get());
    router_a0_ = std::make_unique<service::RequestRouter>(service_a0_.get());
    Result<std::unique_ptr<service::Journal>> journal = service::Journal::Open(
        ecrint::common::RealFs(), state + "/replicas/J/journal.wal", 1,
        service::FsyncPolicy::kAlways, 8);
    if (journal.ok()) journal_ = *std::move(journal);
    synonyms_ = std::make_unique<ecrint::heuristics::SynonymDictionary>(
        ecrint::heuristics::SynonymDictionary::WithBuiltins());
    spans_.reserve(1 << 16);
  }

  bool ok() const { return journal_ != nullptr; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  void Process(const Entry& entry) {
    ProjectReplicas& replicas = Replicas(entry.project);
    int64_t id = next_request_++;
    ++attempted_;
    const char* verb = service::WireVerbName(entry.request.verb);

    // A: codec + router, traced.
    int64_t root = Begin("request", verb, -1, id);
    int64_t encode = Begin("protocol.encode", verb, root, id);
    std::string frame = service::EncodeBinaryRequest(entry.request);
    End(encode);
    int64_t handle = Begin("router.handle", verb, root, id);
    std::string reply = router_a_->HandleFrame(Body(frame), &replicas.session_a);
    End(handle);
    int64_t decode = Begin("protocol.decode", verb, root, id);
    ServiceResponse response_a = Decode(reply);
    End(decode);
    End(root);

    // A0: the same work untraced (tracing overhead).
    int64_t t0 = NowNs();
    std::string frame0 = service::EncodeBinaryRequest(entry.request);
    std::string reply0 =
        router_a0_->HandleFrame(Body(frame0), &replicas.session_a0);
    ServiceResponse response_a0 = Decode(reply0);
    untraced_ns_.push_back(NowNs() - t0);

    // B: the service plane.
    service::ServiceCommand command;
    ServiceResponse response_b;
    bool built = ToCommand(entry.request, &command);
    int64_t execute = Begin("service.execute", verb, handle, id);
    if (built) response_b = service_b_->Execute(replicas.session_b, command);
    End(execute);

    bool write = IsWriteVerb(entry.request.verb);
    if (write) RunJournal(entry, replicas, execute, id);
    std::optional<std::vector<std::string>> engine_lines =
        RunEngine(entry, replicas, execute, id);

    // Checks: the expected outcome, and every replica agreeing.
    bool expected = entry.expect_conflict
                        ? IsCode(response_a, service::ServiceErrorCode::kConflict)
                        : response_a.ok();
    if (!expected) {
      Fail(std::string(verb) + " on " + entry.project + ": " +
           Describe(response_a));
    } else if (!built || Describe(response_b) != Describe(response_a) ||
               response_b.lines != response_a.lines ||
               response_a0.lines != response_a.lines) {
      Fail(std::string(verb) + " on " + entry.project +
           ": the router, untraced and service replicas disagree");
    } else if (engine_lines.has_value() && *engine_lines != response_a.lines) {
      Fail(std::string(verb) + " on " + entry.project +
           ": the engine replica disagrees with the service");
    }
    if (!write && reads_.size() < 200) reads_.push_back(entry);
  }

  // Times what a probe of each read verb costs where the workload never
  // sends it, so every per-layer metric is defined on every workload.
  void ProbeMissingReads() {
    if (reads_.empty()) return;
    const std::string project = reads_.front().project;
    const ecrint::ecr::Catalog& catalog = Replicas(project).engine.catalog();
    std::vector<std::string> names = catalog.SchemaNames();
    if (names.size() < 2) return;
    const ecrint::ecr::Schema& schema = **catalog.GetSchema(names[0]);
    std::vector<BinaryRequest> probes;
    if (!Seen("suggest")) {
      probes.push_back(
          MakeRequest(WireVerb::kSuggest, {names[0], names[1], "0.8"}));
    }
    if (!Seen("translate")) {
      for (int o = 0; o < schema.num_objects() && o < 3; ++o) {
        probes.push_back(MakeRequest(WireVerb::kTranslate,
                                     {names[0] + "." + schema.object(o).name}));
      }
    }
    if (!Seen("rank")) {
      probes.push_back(MakeRequest(WireVerb::kRank, {names[0], names[1]}));
    }
    if (!Seen("outline")) probes.push_back(MakeRequest(WireVerb::kOutline));
    for (BinaryRequest& probe : probes) {
      Process({project, std::move(probe), false});
    }
    probed_ = static_cast<int64_t>(probes.size());
  }

  // Snapshot acquisition through the service, alone and with 2 callers.
  void MeasureSnapshots() {
    if (replicas_.empty()) return;
    const std::string& session = replicas_.begin()->second->session_a.session_id;
    auto loop = [this, &session](std::vector<double>* out, int64_t* nulls) {
      for (int batch = 0; batch < 200; ++batch) {
        int64_t t0 = NowNs();
        for (int i = 0; i < 100; ++i) {
          std::shared_ptr<const service::EngineSnapshot> snapshot =
              service_a_->CurrentSnapshot(session);
          if (snapshot == nullptr) ++*nulls;
        }
        out->push_back(static_cast<double>(NowNs() - t0) / 1e3 / 100);
      }
    };
    int64_t nulls[3] = {0, 0, 0};
    loop(&acquire_alone_us_, &nulls[0]);
    std::vector<double> first, second;
    std::thread other(loop, &second, &nulls[1]);
    loop(&first, &nulls[2]);
    other.join();
    if (nulls[0] + nulls[1] + nulls[2] > 0) Fail("CurrentSnapshot returned null");
    acquire_two_us_ = first;
    acquire_two_us_.insert(acquire_two_us_.end(), second.begin(), second.end());
  }

  // Loopback round trip through a NetServer over A0, minus A0's
  // HandleFrame for the same requests on the same state.
  void MeasureNet() {
    service::NetOptions options;
    options.port = 0;
    options.net_threads = 1;
    service::NetServer server(router_a0_.get(), nullptr, options);
    Result<int> port = server.Start();
    if (!port.ok()) {
      Fail("net server: " + port.status().ToString());
      return;
    }
    std::thread runner([&server] { server.Run(); });
    Conn conn;
    std::string error;
    if (conn.Open(*port, &error)) {
      std::map<std::string, std::vector<const Entry*>> by_project;
      for (const Entry& entry : reads_) by_project[entry.project].push_back(&entry);
      for (const auto& [project, entries] : by_project) {
        if (!conn.Bind(project, &error)) break;
        service::RouterSession direct;
        direct.protocol_version = service::kProtocolBinaryVersion;
        std::string open = service::EncodeBinaryRequest(
            MakeRequest(WireVerb::kOpen, {project}));
        router_a0_->HandleFrame(Body(open), &direct);
        for (const Entry* entry : entries) {
          ServiceResponse response;
          conn.Call(entry->request, &response);  // warm the response cache
          for (int i = 0; i < 3; ++i) {
            int64_t t0 = NowNs();
            if (!conn.Call(entry->request, &response)) break;
            int64_t t1 = NowNs();
            std::string frame = service::EncodeBinaryRequest(entry->request);
            std::string_view body = Body(frame);
            int64_t t2 = NowNs();
            router_a0_->HandleFrame(body, &direct);
            int64_t t3 = NowNs();
            rtt_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
            direct_us_.push_back(static_cast<double>(t3 - t2) / 1e3);
          }
        }
      }
    } else {
      Fail("net: " + error);
    }
    conn.Close();
    server.Shutdown();
    runner.join();
  }

  // Recovery: B's data directory reopened by RecoveryManager, one engine
  // per project, checked against the engine replica.
  void MeasureRecovery() {
    service_b_.reset();
    for (auto& [project, replicas] : replicas_) {
      engine::Engine recovered;
      service::RecoveryStats stats;
      int64_t t0 = NowNs();
      Result<std::unique_ptr<service::RecoveryManager>> manager =
          service::RecoveryManager::Open(
              ecrint::common::RealFs(),
              state_ + "/replicas/B/" + service::ProjectDirName(project),
              service::DurabilityOptions{}, recovered, &stats, nullptr);
      int64_t t1 = NowNs();
      if (!manager.ok()) {
        Fail("recovery of " + project + ": " + manager.status().ToString());
        continue;
      }
      recovery_ms_ += static_cast<double>(t1 - t0) / 1e6;
      replayed_records_ += stats.replayed_records;
      if (recovered.ExportProject() != replicas->engine.ExportProject()) {
        Fail("recovered " + project + " differs from the engine replica");
      }
    }
  }

  std::string LayerJson() const;
  bool WriteSpans(const std::string& path) const;

 private:
  std::unique_ptr<service::IntegrationService> MakeService(
      const std::string& dir) {
    service::ServiceConfig config;
    config.data_dir = state_ + "/replicas/" + dir;
    return std::make_unique<service::IntegrationService>(config);
  }

  ProjectReplicas& Replicas(const std::string& project) {
    auto it = replicas_.find(project);
    if (it != replicas_.end()) return *it->second;
    auto replicas = std::make_unique<ProjectReplicas>();
    engine::BeginReplay(replicas->engine);
    // As after `proto 2` on a connection: the response cache hands back
    // frames in the session's protocol.
    replicas->session_a.protocol_version = service::kProtocolBinaryVersion;
    replicas->session_a0.protocol_version = service::kProtocolBinaryVersion;
    std::string open =
        service::EncodeBinaryRequest(MakeRequest(WireVerb::kOpen, {project}));
    router_a_->HandleFrame(Body(open), &replicas->session_a);
    router_a0_->HandleFrame(Body(open), &replicas->session_a0);
    replicas->session_b = service_b_->OpenSession(project);
    service::RecoveryStats stats;
    Result<std::unique_ptr<service::RecoveryManager>> manager =
        service::RecoveryManager::Open(
            ecrint::common::RealFs(),
            state_ + "/replicas/R/" + service::ProjectDirName(project),
            service::DurabilityOptions{}, replicas->checkpoint_engine, &stats,
            nullptr);
    if (manager.ok()) replicas->checkpoints = *std::move(manager);
    return *replicas_.emplace(project, std::move(replicas)).first->second;
  }

  static std::string_view Body(const std::string& frame) {
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    service::ExtractFrame(frame, &body, &consumed, &error);
    return body;
  }

  static ServiceResponse Decode(const std::string& reply) {
    Result<service::DecodedResponse> decoded =
        service::DecodeBinaryResponse(Body(reply));
    if (!decoded.ok() || decoded->items.size() != 1) {
      ServiceResponse bad;
      bad.error = service::ServiceError(service::ServiceErrorCode::kBadRequest,
                                        "undecodable response");
      return bad;
    }
    return std::move(decoded->items[0]);
  }

  void RunJournal(const Entry& entry, ProjectReplicas& replicas,
                  int64_t parent, int64_t id) {
    Result<engine::ReplayVerb> verb = ToReplayVerb(entry.request);
    if (!verb.ok()) return;
    std::string payload = engine::EncodeReplayVerb(*verb);
    int64_t append = Begin("journal.append", "", parent, id);
    Status appended = journal_->AppendDeferred(payload);
    End(append);
    int64_t sync = Begin("journal.fsync", "", parent, id);
    Status synced = journal_->CommitBatch();
    End(sync);
    if (!appended.ok() || !synced.ok()) Fail("journal: " + synced.ToString());
    // The server checkpoints every 256 journaled verbs per project.
    if (++replicas.writes % 256 == 0 && replicas.checkpoints != nullptr) {
      int64_t checkpoint = Begin("journal.checkpoint", "", parent, id);
      Status written = replicas.checkpoints->WriteCheckpoint(replicas.engine);
      End(checkpoint);
      if (!written.ok()) Fail("checkpoint: " + written.ToString());
    }
  }

  // Runs the entry on the engine replica (C) and the core pieces under it
  // (D). Returns the payload lines the service would send, for reads the
  // engine answers itself.
  std::optional<std::vector<std::string>> RunEngine(const Entry& entry,
                                                    ProjectReplicas& replicas,
                                                    int64_t parent,
                                                    int64_t id) {
    const char* verb = service::WireVerbName(entry.request.verb);
    engine::Engine& engine = replicas.engine;
    const std::vector<std::string>& args = entry.request.args;
    std::optional<std::vector<std::string>> lines;
    int64_t span = Begin(std::string("engine.") + verb, verb, parent, id);
    switch (entry.request.verb) {
      case WireVerb::kDefine:
      case WireVerb::kEquiv:
      case WireVerb::kAssert:
      case WireVerb::kIntegrate: {
        Result<engine::ReplayVerb> replay = ToReplayVerb(entry.request);
        if (replay.ok()) (void)engine::ApplyReplayVerb(engine, *replay);
        break;
      }
      case WireVerb::kRank: {
        lines.emplace();
        if (!ExpectedReadLines(engine, entry.request, &*lines)) lines.reset();
        break;
      }
      case WireVerb::kSuggest: {
        double threshold = args.size() > 2 ? std::atof(args[2].c_str()) : 0.6;
        (void)engine.Suggest(args.at(0), args.at(1), *synonyms_, threshold);
        break;
      }
      case WireVerb::kTranslate: {
        lines.emplace();
        if (!ExpectedReadLines(engine, entry.request, &*lines)) lines.reset();
        break;
      }
      case WireVerb::kOutline:
        if (engine.integration().has_value()) {
          lines = SplitLines(ecrint::ecr::ToOutline(engine.integration()->schema));
        }
        break;
      default:
        break;
    }
    End(span);
    RunCore(entry, replicas, span, id);
    return lines;
  }

  void RunCore(const Entry& entry, ProjectReplicas& replicas, int64_t parent,
               int64_t id) {
    engine::Engine& engine = replicas.engine;
    const std::vector<std::string>& args = entry.request.args;
    switch (entry.request.verb) {
      case WireVerb::kDefine: {
        int64_t span = Begin("ecr.ddl_parse", "define", parent, id);
        Result<ecrint::ecr::Schema> schema = ecrint::ecr::ParseSchema(args.at(0));
        End(span);
        if (!schema.ok()) Fail("ddl parse: " + schema.status().ToString());
        replicas.seeded.reset();  // the schemas changed: reseed
        break;
      }
      case WireVerb::kAssert: {
        if (!replicas.seeded.has_value()) break;
        Result<engine::ReplayVerb> replay = ToReplayVerb(entry.request);
        Result<core::AssertionType> type =
            core::AssertionTypeFromCode(replay.ok() ? replay->type_code : -1);
        if (!replay.ok() || !type.ok()) break;
        core::ClosureStats before = replicas.seeded->closure_stats();
        int64_t span = Begin("core.closure_assert", "assert", parent, id);
        (void)replicas.seeded->Assert({replay->first, replay->second, *type});
        End(span);
        core::ClosureStats after = replicas.seeded->closure_stats();
        closure_pops_ += after.worklist_pops - before.worklist_pops;
        closure_compositions_ += after.row_compositions - before.row_compositions;
        ++closure_asserts_;
        break;
      }
      case WireVerb::kIntegrate: {
        std::vector<std::string> schemas = engine.catalog().SchemaNames();
        if (!replicas.seeded.has_value()) {
          // Untimed: rebuild the seeded closure the engine caches.
          replicas.seeded.emplace();
          for (const core::Assertion& assertion :
               engine.assertions().user_assertions()) {
            (void)replicas.seeded->Assert(assertion);
          }
          if (!core::SeedForIntegration(*replicas.seeded, engine.catalog(),
                                        schemas)
                   .ok()) {
            replicas.seeded.reset();
            break;
          }
        }
        int64_t span = Begin("core.integrate", "integrate", parent, id);
        Result<core::IntegrationResult> result = core::IntegrateSeeded(
            engine.catalog(), schemas, engine.Equivalence(), *replicas.seeded);
        End(span);
        if (!result.ok()) Fail("core integrate: " + result.status().ToString());
        break;
      }
      case WireVerb::kRank: {
        core::StructureKind kind = core::StructureKind::kObjectClass;
        for (size_t i = 2; i < args.size(); ++i) {
          if (args[i] == "rel") kind = core::StructureKind::kRelationshipSet;
        }
        int64_t span = Begin("core.ocs_build", "rank", parent, id);
        Result<core::OcsMatrix> matrix = core::OcsMatrix::Create(
            engine.catalog(), engine.Equivalence(), args.at(0), args.at(1),
            kind);
        End(span);
        if (!matrix.ok()) Fail("ocs: " + matrix.status().ToString());
        break;
      }
      case WireVerb::kSuggest: {
        double threshold = args.size() > 2 ? std::atof(args[2].c_str()) : 0.6;
        int64_t span = Begin("heuristics.suggest", "suggest", parent, id);
        (void)ecrint::heuristics::SuggestAttributeEquivalences(
            engine.catalog(), args.at(0), args.at(1), *synonyms_, threshold);
        End(span);
        break;
      }
      case WireVerb::kTranslate: {
        if (!engine.integration().has_value()) break;
        service::ServiceCommand command;
        if (!ToCommand(entry.request, &command)) break;
        int64_t span = Begin("core.translate", "translate", parent, id);
        (void)core::TranslateToIntegrated(*engine.integration(),
                                          command.request);
        End(span);
        break;
      }
      default:
        break;
    }
  }

  int64_t Begin(std::string name, std::string verb, int64_t parent,
                int64_t request) {
    spans_.push_back({std::move(name), std::move(verb), NowNs(), 0, parent,
                      request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t span) { spans_[span].end_ns = NowNs(); }

  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 8) failures_.push_back(what);
  }

  bool Seen(const std::string& verb) const {
    for (const Span& span : spans_) {
      if (span.name == "router.handle" && span.verb == verb) return true;
    }
    return false;
  }

  std::string state_;
  std::unique_ptr<service::IntegrationService> service_a_, service_a0_,
      service_b_;
  std::unique_ptr<service::RequestRouter> router_a_, router_a0_;
  std::unique_ptr<service::Journal> journal_;
  std::unique_ptr<ecrint::heuristics::SynonymDictionary> synonyms_;
  std::map<std::string, std::unique_ptr<ProjectReplicas>> replicas_;
  std::vector<Span> spans_;
  std::vector<int64_t> untraced_ns_;
  std::vector<Entry> reads_;
  int64_t next_request_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
  int64_t probed_ = 0;
  int64_t closure_pops_ = 0;
  int64_t closure_compositions_ = 0;
  int64_t closure_asserts_ = 0;
  std::vector<double> acquire_alone_us_, acquire_two_us_;
  std::vector<double> rtt_us_, direct_us_;
  double recovery_ms_ = 0;
  int64_t replayed_records_ = 0;
};

// The verbs whose router / service times are reported one by one.
const char* const kVerbs[] = {"define", "equiv",   "assert",    "integrate",
                              "rank",   "suggest", "translate", "outline"};

std::string Tracer::LayerJson() const {
  // Durations by span name (and by name + verb), in microseconds.
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, std::vector<double>> by_name_verb;
  // Per request: the duration of each layer's span, for self times.
  struct Layers {
    double request = 0, router = 0, service = 0, engine = 0, below_engine = 0,
           journal = 0;
  };
  std::map<int64_t, Layers> per_request;
  for (const Span& span : spans_) {
    double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    by_name[span.name].push_back(us);
    if (!span.verb.empty()) by_name_verb[span.name + "." + span.verb].push_back(us);
    Layers& layers = per_request[span.request];
    if (span.name == "request") layers.request += us;
    if (span.name == "router.handle") layers.router += us;
    if (span.name == "service.execute") layers.service += us;
    if (span.name.rfind("engine.", 0) == 0) layers.engine += us;
    if (span.name.rfind("core.", 0) == 0 || span.name == "ecr.ddl_parse" ||
        span.name == "heuristics.suggest") {
      layers.below_engine += us;
    }
    if (span.name.rfind("journal.", 0) == 0) layers.journal += us;
  }
  auto median = [](std::vector<double> values) { return Quantile(values, 0.5); };
  auto named = [&](const std::string& name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : median(it->second);
  };
  auto verb_median = [&](const std::string& name, const std::string& verb) {
    auto it = by_name_verb.find(name + "." + verb);
    return it == by_name_verb.end() ? 0.0 : median(it->second);
  };
  std::vector<double> router_self, service_self, engine_self, request_us;
  for (const auto& [id, layers] : per_request) {
    router_self.push_back(layers.router - layers.service);
    service_self.push_back(layers.service - layers.engine - layers.journal);
    engine_self.push_back(layers.engine - layers.below_engine);
    request_us.push_back(layers.request);
  }
  std::vector<double> untraced;
  for (int64_t ns : untraced_ns_) untraced.push_back(static_cast<double>(ns) / 1e3);

  int64_t reuses = 0, rebuilds = 0, redundant = 0, assert_calls = 0;
  for (const auto& [project, replicas] : replicas_) {
    const auto& phases = replicas->engine.trace().phases();
    auto count = [&phases](const std::string& phase, const std::string& name) {
      auto it = phases.find(phase);
      if (it == phases.end()) return int64_t{0};
      auto c = it->second.counters.find(name);
      return c == it->second.counters.end() ? int64_t{0} : c->second;
    };
    reuses += count("integrate", "incremental_reuses");
    rebuilds += count("integrate", "incremental_reuses") +
                count("integrate", "full_rebuilds") +
                count("integrate", "ladder_rebuilds");
    redundant += count("assert", "redundant_asserts");
    auto it = phases.find("assert");
    if (it != phases.end()) assert_calls += it->second.calls;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  JsonWriter out;
  out.Num("protocol.encode_us", named("protocol.encode"))
      .Num("protocol.decode_us", named("protocol.decode"));
  for (const char* verb : kVerbs) {
    out.Num(std::string("router.handle_us.") + verb,
            verb_median("router.handle", verb));
  }
  for (const char* verb : kVerbs) {
    out.Num(std::string("service.execute_us.") + verb,
            verb_median("service.execute", verb));
  }
  std::vector<double> alone = acquire_alone_us_, two = acquire_two_us_;
  std::vector<double> rtt = rtt_us_, direct = direct_us_;
  out.Num("snapshot.acquire_us", median(alone))
      .Num("snapshot.acquire_us_2way", median(two))
      .Num("journal.append_us", named("journal.append"))
      .Num("journal.fsync_us", named("journal.fsync"))
      .Num("journal.checkpoint_ms", named("journal.checkpoint") / 1e3)
      .Num("recovery.replayed_records", static_cast<double>(replayed_records_))
      .Num("recovery.replay_ms", recovery_ms_)
      .Num("engine.assert_us", named("engine.assert"))
      .Num("engine.integrate_ms", named("engine.integrate") / 1e3)
      .Num("engine.rank_ms", named("engine.rank") / 1e3)
      .Num("engine.suggest_ms", named("engine.suggest") / 1e3)
      .Num("engine.incremental_share", ratio(reuses, rebuilds))
      .Num("engine.redundant_assert_ratio", ratio(redundant, assert_calls))
      .Num("core.closure_assert_us", named("core.closure_assert"))
      .Num("core.closure_pops_per_assert",
           ratio(static_cast<double>(closure_pops_), closure_asserts_))
      .Num("core.closure_compositions_per_assert",
           ratio(static_cast<double>(closure_compositions_), closure_asserts_))
      .Num("core.integrate_ms", named("core.integrate") / 1e3)
      .Num("core.ocs_build_ms", named("core.ocs_build") / 1e3)
      .Num("core.translate_us", named("core.translate"))
      .Num("heuristics.suggest_ms", named("heuristics.suggest") / 1e3)
      .Num("ecr.ddl_parse_us", named("ecr.ddl_parse"))
      .Num("net.self_us", median(rtt) - median(direct))
      .Num("router.self_us", median(router_self))
      .Num("service.self_us", median(service_self))
      .Num("engine.self_us", median(engine_self))
      .Num("trace.overhead_us", median(request_us) - median(untraced))
      .Num("trace.requests", static_cast<double>(per_request.size()))
      .Num("trace.probes", static_cast<double>(probed_))
      .Num("trace.spans", static_cast<double>(spans_.size()));
  return out.Finish();
}

bool Tracer::WriteSpans(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans_) {
    out << JsonWriter()
               .Str("name", span.name)
               .Str("verb", span.verb)
               .Int("start_ns", span.start_ns)
               .Int("end_ns", span.end_ns)
               .Int("parent", span.parent)
               .Int("request", span.request)
               .Finish()
        << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace

int TraceMain(const Args& args) {
  std::string workload = args.Get("workload", "");
  uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  std::string state = args.Get("state", ".");
  double seconds = args.GetDouble("seconds", 5);
  Sizes sizes = SizesFor(args.Has("smoke"));
  Tracer tracer(state);
  if (!tracer.ok()) {
    std::fprintf(stderr, "trace: cannot open a journal under %s\n",
                 state.c_str());
    return 2;
  }
  Stream stream(workload, seed, sizes);
  int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  Entry entry;
  while (NowNs() < end && stream.Next(&entry)) tracer.Process(entry);
  tracer.ProbeMissingReads();
  tracer.MeasureSnapshots();
  tracer.MeasureNet();
  tracer.MeasureRecovery();
  bool written = tracer.WriteSpans(state + "/spans.jsonl");
  std::string failures = "[";
  for (size_t i = 0; i < tracer.failures().size(); ++i) {
    if (i > 0) failures += ", ";
    failures += JsonQuote(tracer.failures()[i].substr(0, 300));
  }
  failures += "]";
  bool ok = tracer.failed() == 0 && written;
  std::printf("%s\n", JsonWriter()
                          .Bool("ok", ok)
                          .Int("attempted", tracer.attempted())
                          .Int("failed", tracer.failed())
                          .Raw("failures", failures)
                          .Raw("layer", tracer.LayerJson())
                          .Str("spans", state + "/spans.jsonl")
                          .Finish()
                          .c_str());
  return ok ? 0 : 1;
}

}  // namespace e2e
