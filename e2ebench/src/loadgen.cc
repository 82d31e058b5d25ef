// e2e_loadgen — load generator and output checker for the e2ebench
// workloads, driven by run.py against a separately started ecrint_serve.
//
//   e2e_loadgen seed    --workload W --seed N --state DIR [--smoke]
//   e2e_loadgen run     --workload W --seed N --state DIR --port P
//                       --seconds T [--smoke]
//   e2e_loadgen crash   --workload W --seed N --state DIR [--smoke]
//   e2e_loadgen recover --workload W --seed N --state DIR
//                       --logs NAME[,NAME...] [--smoke]
//   e2e_loadgen trace   --workload W --seed N --state DIR --seconds T
//                       [--smoke]
//
// `seed` brings a fresh server to the workload's starting state; `run`
// measures the workload, checks every response, reconciles the client's
// per-verb counts with the server's `metrics`, and checks every project's
// `export` against an in-process engine fed the acknowledged writes;
// `crash` writes the workload's fixed crash state (a seed-determined write
// stream, the same whatever the timed window did) for run.py to kill with
// SIGKILL; `recover` runs after run.py restarted a killed server, and checks
// that every write acknowledged in the named logs survived; `trace` is the
// in-process layer-by-layer replay (traced.cc). Each mode prints one JSON
// line on stdout and exits nonzero when a check failed.
//
// `seed`, `crash` and `recover` first generate their inputs, then print
// "ready" and read the server's port from stdin: run.py starts the server
// only then, so set-up and recovery times count the server's work, not the
// load generator's start-up.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "client.h"
#include "traced.h"
#include "worlds.h"

namespace e2e {
namespace {

using ecrint::service::ServiceErrorCode;

// Failure bookkeeping shared by every thread of a mode.
class Failures {
 public:
  void Attempt(int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
  }
  void Fail(const std::string& what, int64_t n = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    failed_ += n;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  std::string MessagesJson() const {
    std::string out = "[";
    for (size_t i = 0; i < messages_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonQuote(messages_[i].substr(0, 300));
    }
    return out + "]";
  }

 private:
  std::mutex mutex_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

struct Settings {
  std::string workload;
  uint64_t seed = 1;
  int port = 0;
  std::string state;
  double seconds = 10;
  bool smoke = false;
  Sizes sizes;
};

// What the client sent, for reconciliation and per-request ratios.
struct Traffic {
  VerbCounts verbs;
  int64_t frames = 0;
  int64_t batch_items = 0;
  int64_t user_bytes = 0;  // encoded frames of acknowledged writes

  void Add(const Conn& conn) {
    MergeCounts(conn.sent(), &verbs);
    frames += conn.frames_sent();
    batch_items += conn.batch_items_sent();
  }
  std::string Json() const {
    JsonWriter verbs_json;
    for (const auto& [verb, count] : verbs) verbs_json.Int(verb, count);
    return JsonWriter()
        .Raw("verbs", verbs_json.Finish())
        .Int("frames", frames)
        .Int("batch_items", batch_items)
        .Int("user_bytes", user_bytes)
        .Finish();
  }
  bool Load(const JsonValue& json) {
    if (json.kind != JsonValue::Kind::kObject) return false;
    for (const auto& [verb, count] : json["verbs"].object) {
      verbs[verb] += static_cast<int64_t>(count.number);
    }
    frames += static_cast<int64_t>(json["frames"].number);
    batch_items += static_cast<int64_t>(json["batch_items"].number);
    user_bytes += static_cast<int64_t>(json["user_bytes"].number);
    return true;
  }
};

int64_t WriteBytes(const BinaryRequest& request) {
  return static_cast<int64_t>(
      ecrint::service::EncodeBinaryRequest(request).size());
}

bool ConnectOrFail(Conn* conn, const Settings& settings, Failures* failures) {
  std::string error;
  if (conn->Open(settings.port, &error)) return true;
  failures->Fail("connect: " + error);
  return false;
}

// Announces that the inputs are ready and reads the server's port from
// stdin.
bool AwaitPort(Settings* settings, Failures* failures) {
  std::printf("ready\n");
  std::fflush(stdout);
  if (std::scanf("%d", &settings->port) != 1 || settings->port <= 0) {
    failures->Fail("no server port on stdin");
    return false;
  }
  return true;
}

// Sends a project's write stream in batch frames of up to 256 items (one
// group commit each).
bool SendStream(Conn* conn, const std::string& project,
                const std::vector<BinaryRequest>& requests, AckLog* acks,
                Traffic* traffic, Failures* failures) {
  std::string error;
  if (!conn->Bind(project, &error)) {
    failures->Fail(error);
    return false;
  }
  for (size_t start = 0; start < requests.size(); start += 256) {
    std::vector<BinaryRequest> chunk(
        requests.begin() + start,
        requests.begin() + std::min(requests.size(), start + 256));
    std::vector<ServiceResponse> responses;
    failures->Attempt(static_cast<int64_t>(chunk.size()));
    if (!conn->CallBatch(chunk, &responses)) {
      failures->Fail("batch transport error", chunk.size());
      return false;
    }
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (!responses[i].ok()) {
        failures->Fail("write " + project + " " +
                       ecrint::service::WireVerbName(chunk[i].verb) + ": " +
                       Describe(responses[i]));
        continue;
      }
      acks->Add(project, chunk[i]);
      traffic->user_bytes += WriteBytes(chunk[i]);
    }
  }
  return true;
}

// --- shared checks --------------------------------------------------------------

// Per project, the acknowledged writes in order (seed stream first).
std::map<std::string, std::vector<std::string>> PayloadsByProject(
    const AckLog& log) {
  std::map<std::string, std::vector<std::string>> out;
  for (const auto& [project, payload] : log.entries) {
    out[project].push_back(payload);
  }
  return out;
}

// Compares every project's `export` with an in-process engine fed that
// project's acknowledged writes.
void CheckExports(Conn* conn, const AckLog& log, Failures* failures) {
  for (const auto& [project, payloads] : PayloadsByProject(log)) {
    Reference reference;
    for (const std::string& payload : payloads) {
      reference.Apply(payload, /*with_integrate=*/false);
    }
    std::vector<std::string> expected =
        SplitLines(reference.engine().ExportProject());
    std::string error;
    ServiceResponse response;
    failures->Attempt();
    if (!conn->Bind(project, &error)) {
      failures->Fail(error);
      continue;
    }
    if (!conn->Call(MakeRequest(WireVerb::kExport), &response) ||
        !response.ok()) {
      failures->Fail("export " + project + ": " + Describe(response));
      continue;
    }
    if (response.lines != expected) {
      failures->Fail("export of " + project +
                     " differs from the reference engine fed the same " +
                     std::to_string(payloads.size()) + " writes");
    }
  }
}

// Sends `metrics` and checks that, for every verb, the client's sent count
// equals the server's requests.<verb>, and that batch.size (a count kept
// in a microsecond histogram) sums to the batch items sent.
bool ReconcileCounts(Conn* conn, const Traffic& traffic, Failures* failures,
                     JsonValue* metrics_out, std::string* report) {
  ServiceResponse response;
  failures->Attempt();
  if (!conn->Call(MakeRequest(WireVerb::kMetrics), &response) ||
      !response.ok() || response.lines.empty() ||
      !ParseJson(response.lines[0], metrics_out)) {
    failures->Fail("metrics: " + Describe(response));
    return false;
  }
  VerbCounts client = traffic.verbs;
  ++client["metrics"];  // the request just sent counts itself
  static const char* kCommandVerbs[] = {
      "ping", "define", "equiv",     "assert",  "integrate", "export",
      "rank", "suggest", "translate", "outline", "metrics",  "batch"};
  bool ok = true;
  JsonWriter rows;
  for (const char* verb : kCommandVerbs) {
    int64_t sent = client.count(verb) ? client[verb] : 0;
    int64_t served = static_cast<int64_t>(
        (*metrics_out)["counters"][std::string("requests.") + verb].NumberOr(0));
    rows.Raw(verb, "[" + std::to_string(sent) + ", " + std::to_string(served) +
                       "]");
    if (sent != served) {
      ok = false;
      failures->Fail(std::string("reconcile: sent ") + std::to_string(sent) +
                     " " + verb + " but the server counted " +
                     std::to_string(served));
    }
  }
  const JsonValue& batch = (*metrics_out)["histograms"]["batch.size"];
  int64_t batch_items = static_cast<int64_t>(batch["sum_us"].NumberOr(0));
  if (batch_items != traffic.batch_items) {
    ok = false;
    failures->Fail("reconcile: sent " + std::to_string(traffic.batch_items) +
                   " batch items but batch.size sums to " +
                   std::to_string(batch_items));
  }
  *report = JsonWriter()
                .Raw("verbs_sent_served", rows.Finish())
                .Int("batch_items", batch_items)
                .Bool("ok", ok)
                .Finish();
  return ok;
}

// Per-layer counts read from the server's `metrics` after the timed window.
std::string ServerLayerJson(const JsonValue& m, const Traffic& traffic) {
  const JsonValue& c = m["counters"];
  auto counter = [&c](const std::string& name) {
    return c[name].NumberOr(0);
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  double reads = 0;
  double latency_counts = 0;
  for (const char* verb : {"rank", "suggest", "translate", "outline"}) {
    reads += counter(std::string("requests.") + verb);
    latency_counts +=
        m["histograms"][std::string("latency.") + verb]["count"].NumberOr(0);
  }
  double writes = 0;
  double requests = 0;
  for (const char* verb : {"define", "equiv", "assert", "integrate"}) {
    writes += counter(std::string("requests.") + verb);
  }
  for (const auto& [name, value] : c.object) {
    if (name.rfind("requests.", 0) == 0 && name != "requests.batch") {
      requests += value.number;
    }
  }
  double frames = static_cast<double>(traffic.frames);
  return JsonWriter()
      .Num("net.wakeups_per_req", ratio(counter("net.epoll_wakeups"), frames))
      .Num("net.writev_per_req", ratio(counter("net.writev_calls"), frames))
      .Num("net.bytes_out_per_req", ratio(counter("net.bytes_out"), frames))
      .Num("net.backpressure_stalls", counter("net.backpressure_stalls"))
      .Num("router.cache_hit_ratio", ratio(counter("cache.hits"), reads))
      .Num("router.cache_evictions_per_kreq",
           ratio(counter("cache.evictions"), requests / 1000.0))
      .Num("service.queue_depth_max", m["gauges"]["queue.depth"]["max"].NumberOr(0))
      .Num("service.overloaded", counter("errors.OVERLOADED"))
      .Num("service.timeouts", counter("errors.TIMEOUT"))
      .Num("service.latency_coverage", ratio(latency_counts, reads))
      .Num("snapshot.published_per_write",
           ratio(counter("snapshots.published"), writes))
      .Num("journal.fsyncs_per_write", ratio(counter("journal.fsyncs"), writes))
      .Num("journal.append_bytes_per_write",
           ratio(counter("journal.append_bytes"), writes))
      .Finish();
}

// --- workloads ---------------------------------------------------------------------

struct WritePhase {
  Samples edits;  // write send -> covering integrate reply, us
  Samples writes;  // single-write round trips, us
  Samples reads_under_writes;  // us
  int64_t writes_acked = 0;
  double seconds = 0;
};

// dda_edit: one closed-loop client runs edit -> integrate -> outline (and
// every 10th step rank) one request at a time.
WritePhase RunDdaEdits(const Settings& settings, Conn* conn, double seconds,
                       AckLog* acks, Traffic* traffic, Failures* failures,
                       std::vector<std::string>* projects) {
  WritePhase phase;
  int generation = 0;
  auto world = std::make_unique<World>(DdaWorld(settings.seed, 0, settings.sizes));
  auto steps = std::make_unique<DdaSteps>(settings.seed, *world);
  projects->push_back(world->project);
  std::string error;
  if (!conn->Bind(world->project, &error)) {
    failures->Fail(error);
    return phase;
  }
  const BinaryRequest integrate = MakeRequest(WireVerb::kIntegrate);
  const BinaryRequest outline = MakeRequest(WireVerb::kOutline);
  std::vector<std::string> last_outline;
  ServiceResponse response;
  failures->Attempt();
  if (!conn->Call(outline, &response) || !response.ok()) {
    failures->Fail("initial outline: " + Describe(response));
    return phase;
  }
  last_outline = response.lines;
  int64_t start = NowNs();
  int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNs() < end) {
    DdaStep step;
    if (!steps->Next(&step)) {
      // Held-back relations used up: continue on a fresh copy of the world.
      world = std::make_unique<World>(
          DdaWorld(settings.seed, ++generation, settings.sizes));
      steps = std::make_unique<DdaSteps>(settings.seed + generation, *world);
      projects->push_back(world->project);
      if (!SendStream(conn, world->project, SeedRequests(*world), acks,
                      traffic, failures)) {
        return phase;
      }
      failures->Attempt();
      if (!conn->Call(outline, &response) || !response.ok()) {
        failures->Fail("outline after reseed: " + Describe(response));
        return phase;
      }
      last_outline = response.lines;
      continue;
    }
    bool contradiction = step.kind == DdaStep::Kind::kContradiction;
    ServiceResponse edit_reply, integrate_reply, outline_reply;
    failures->Attempt(3);
    int64_t t0 = NowNs();
    if (!conn->Call(step.edit, &edit_reply)) {
      failures->Fail("edit: transport error", 3);
      return phase;
    }
    int64_t t1 = NowNs();
    if (!conn->Call(integrate, &integrate_reply)) {
      failures->Fail("integrate: transport error", 2);
      return phase;
    }
    int64_t t2 = NowNs();
    if (!conn->Call(outline, &outline_reply)) {
      failures->Fail("outline: transport error");
      return phase;
    }
    int64_t t3 = NowNs();
    if (contradiction ? !IsCode(edit_reply, ServiceErrorCode::kConflict)
                      : !edit_reply.ok()) {
      failures->Fail(std::string(contradiction ? "contradiction" : "edit") +
                     " " + step.edit.args[0] + " " + step.edit.args[1] +
                     " got " + Describe(edit_reply));
    }
    if (!integrate_reply.ok()) {
      failures->Fail("integrate: " + Describe(integrate_reply));
    }
    if (!outline_reply.ok()) {
      failures->Fail("outline: " + Describe(outline_reply));
    } else if (contradiction && outline_reply.lines != last_outline) {
      failures->Fail("outline changed after a rejected contradiction");
    }
    last_outline = outline_reply.lines;
    acks->Add(world->project, step.edit);
    acks->Add(world->project, integrate);
    traffic->user_bytes += WriteBytes(step.edit) + WriteBytes(integrate);
    phase.writes_acked += 2;
    phase.edits.Add(t0, static_cast<double>(t2 - t0) / 1e3);
    phase.writes.Add(t0, static_cast<double>(t1 - t0) / 1e3);
    phase.reads_under_writes.Add(t2, static_cast<double>(t3 - t2) / 1e3);
    if (step.rank) {
      const std::vector<std::string>& names = world->truth.schema_names;
      ServiceResponse rank_reply;
      failures->Attempt();
      int64_t r0 = NowNs();
      if (!conn->Call(MakeRequest(WireVerb::kRank, {names[0], names[1]}),
                      &rank_reply) ||
          !rank_reply.ok()) {
        failures->Fail("rank: " + Describe(rank_reply));
      }
      phase.reads_under_writes.Add(r0, static_cast<double>(NowNs() - r0) / 1e3);
    }
  }
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return phase;
}

// ingest_durable: two single-write connections and one 16-item batch
// connection stream the ground truth of fresh projects; one connection
// reads outline/rank on projects the writers have integrated.
WritePhase RunIngest(const Settings& settings, double seconds, AckLog* acks,
                     Traffic* traffic, Failures* failures,
                     std::vector<std::string>* integrated_projects) {
  WritePhase phase;
  std::mutex mutex;  // guards the shared outputs below
  std::vector<std::string> integrated;
  std::atomic<bool> stop{false};
  int64_t start = NowNs();
  int64_t end = start + static_cast<int64_t>(seconds * 1e9);

  auto writer = [&](const std::string& lane, bool batch) {
    Conn conn;
    if (!ConnectOrFail(&conn, settings, failures)) return;
    AckLog local_acks;
    Samples local_writes, local_edits;
    int64_t local_bytes = 0;
    int64_t acked = 0;
    for (int index = 0; NowNs() < end; ++index) {
      World world = IngestWorld(settings.seed, lane, index, settings.sizes);
      std::vector<BinaryRequest> stream =
          IngestStream(world, settings.seed + static_cast<uint64_t>(index));
      std::string error;
      if (!conn.Bind(world.project, &error)) {
        failures->Fail(error);
        break;
      }
      bool announced = false;
      int64_t previous_send = 0;
      size_t step = batch ? 16 : 1;
      for (size_t at = 0; at < stream.size() && NowNs() < end; at += step) {
        std::vector<BinaryRequest> chunk(
            stream.begin() + at,
            stream.begin() + std::min(stream.size(), at + step));
        std::vector<ServiceResponse> responses;
        failures->Attempt(static_cast<int64_t>(chunk.size()));
        int64_t t0 = NowNs();
        bool transport_ok;
        if (batch) {
          transport_ok = conn.CallBatch(chunk, &responses);
        } else {
          responses.resize(1);
          transport_ok = conn.Call(chunk[0], &responses[0]);
        }
        int64_t t1 = NowNs();
        if (!transport_ok) {
          failures->Fail(lane + ": transport error", chunk.size());
          stop = true;
          break;
        }
        bool integrated_now = false;
        for (size_t i = 0; i < chunk.size(); ++i) {
          if (!responses[i].ok()) {
            failures->Fail(world.project + " " +
                           ecrint::service::WireVerbName(chunk[i].verb) +
                           ": " + Describe(responses[i]));
            continue;
          }
          local_acks.Add(world.project, chunk[i]);
          local_bytes += WriteBytes(chunk[i]);
          ++acked;
          integrated_now |= chunk[i].verb == WireVerb::kIntegrate;
        }
        if (!batch) {
          local_writes.Add(t0, static_cast<double>(t1 - t0) / 1e3);
          if (chunk[0].verb == WireVerb::kIntegrate && previous_send > 0) {
            local_edits.Add(previous_send,
                            static_cast<double>(t1 - previous_send) / 1e3);
          }
        }
        previous_send = t0;
        if (integrated_now && !announced) {
          announced = true;
          std::lock_guard<std::mutex> lock(mutex);
          integrated.push_back(world.project);
        }
      }
      if (stop) break;
    }
    std::lock_guard<std::mutex> lock(mutex);
    acks->Merge(local_acks);
    traffic->Add(conn);
    traffic->user_bytes += local_bytes;
    phase.writes_acked += acked;
    phase.writes.Merge(local_writes);
    phase.edits.Merge(local_edits);
  };

  auto reader = [&]() {
    Conn conn;
    if (!ConnectOrFail(&conn, settings, failures)) return;
    Samples local_reads;
    int64_t round = 0;
    while (NowNs() < end && !stop) {
      std::string project;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (!integrated.empty()) {
          size_t recent = std::min<size_t>(4, integrated.size());
          project = integrated[integrated.size() - 1 - (round % recent)];
        }
      }
      ++round;
      if (project.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      std::string error;
      if (conn.project() != project && !conn.Bind(project, &error)) {
        failures->Fail(error);
        break;
      }
      for (int i = 0; i < 8 && NowNs() < end; ++i) {
        BinaryRequest request =
            i % 2 == 0 ? MakeRequest(WireVerb::kOutline)
                       : MakeRequest(WireVerb::kRank, {"view1", "view2"});
        ServiceResponse response;
        failures->Attempt();
        int64_t t0 = NowNs();
        if (!conn.Call(request, &response)) {
          failures->Fail("reader: transport error");
          stop = true;
          break;
        }
        local_reads.Add(t0, static_cast<double>(NowNs() - t0) / 1e3);
        if (!response.ok()) failures->Fail("reader: " + Describe(response));
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    traffic->Add(conn);
    phase.reads_under_writes = std::move(local_reads);
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer, "a", false);
  threads.emplace_back(writer, "b", false);
  threads.emplace_back(writer, "batch", true);
  threads.emplace_back(reader);
  for (std::thread& thread : threads) thread.join();
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  *integrated_projects = std::move(integrated);
  return phase;
}

Settings ReadSettings(const Args& args) {
  Settings settings;
  settings.workload = args.Get("workload", "");
  settings.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  settings.port = static_cast<int>(args.GetInt("port", 0));
  settings.state = args.Get("state", ".");
  settings.seconds = args.GetDouble("seconds", 10);
  settings.smoke = args.Has("smoke");
  settings.sizes = SizesFor(settings.smoke);
  return settings;
}

using ProjectStreams =
    std::vector<std::pair<std::string, std::vector<BinaryRequest>>>;

// Sends the streams over one connection, then saves the acknowledged
// writes to <state>/<log> and prints the mode's result line (`done_ns`:
// when the last stream was acknowledged).
int SendStreamsMain(Settings settings, const ProjectStreams& streams,
                    const std::string& log) {
  Failures failures;
  Conn conn;
  AckLog acks;
  Traffic traffic;
  if (AwaitPort(&settings, &failures) &&
      ConnectOrFail(&conn, settings, &failures)) {
    if (streams.empty()) {
      // Nothing to send: ready once a session opens. (Not `ping`: the
      // router answers a binary ping itself and never counts it in
      // requests.ping, which would break the count reconciliation.)
      std::string error;
      failures.Attempt();
      if (!conn.Bind("ing-a-0", &error)) failures.Fail(error);
    }
    for (const auto& [project, requests] : streams) {
      if (!SendStream(&conn, project, requests, &acks, &traffic, &failures)) {
        break;
      }
    }
  }
  int64_t done_ns = NowNs();
  traffic.Add(conn);
  std::string path = settings.state + "/" + log;
  std::remove(path.c_str());
  bool saved = acks.Save(path) &&
               WriteFile(path + ".traffic.json", traffic.Json());
  if (!saved) failures.Fail("cannot write the state directory");
  std::printf("%s\n", JsonWriter()
                          .Bool("ok", failures.failed() == 0)
                          .Int("done_ns", done_ns)
                          .Int("attempted", failures.attempted())
                          .Int("failed", failures.failed())
                          .Raw("failures", failures.MessagesJson())
                          .Finish()
                          .c_str());
  return failures.failed() == 0 ? 0 : 1;
}

// The workload's starting state. ingest_durable starts empty.
int SeedMain(const Settings& settings) {
  ProjectStreams streams;
  if (settings.workload == "dda_edit") {
    World world = DdaWorld(settings.seed, 0, settings.sizes);
    streams.emplace_back(world.project, SeedRequests(world));
  }
  return SendStreamsMain(settings, streams, "seed.log");
}

// The crash state recovery_s recovers, fixed by the seed: dda_edit's seeded
// project; for ingest_durable, each write lane's project stream (as the
// timed window writes it) cut after crash_writes_per_lane writes.
int CrashMain(const Settings& settings) {
  ProjectStreams streams;
  if (settings.workload == "dda_edit") {
    World world = DdaWorld(settings.seed, 0, settings.sizes);
    streams.emplace_back(world.project, SeedRequests(world));
  } else {
    for (const char* lane : {"a", "b", "batch"}) {
      int left = settings.sizes.crash_writes_per_lane;
      for (int index = 0; left > 0; ++index) {
        World world = IngestWorld(settings.seed, lane, index, settings.sizes);
        std::vector<BinaryRequest> stream =
            IngestStream(world, settings.seed + static_cast<uint64_t>(index));
        if (static_cast<int>(stream.size()) > left) stream.resize(left);
        left -= static_cast<int>(stream.size());
        streams.emplace_back(world.project, std::move(stream));
      }
    }
  }
  return SendStreamsMain(settings, streams, "crash.log");
}

int RunMain(const Settings& settings) {
  Failures failures;
  Traffic traffic;
  AckLog seed_log;
  std::string seed_traffic;
  JsonValue seed_traffic_json;
  if (!seed_log.Load(settings.state + "/seed.log") ||
      !ReadFile(settings.state + "/seed.log.traffic.json", &seed_traffic) ||
      !ParseJson(seed_traffic, &seed_traffic_json) ||
      !traffic.Load(seed_traffic_json)) {
    std::fprintf(stderr, "run: no seed state in %s\n", settings.state.c_str());
    return 2;
  }
  AckLog acks;
  WritePhase writes;
  // The write loop has the whole window.
  if (settings.workload == "dda_edit") {
    Conn conn;
    if (ConnectOrFail(&conn, settings, &failures)) {
      std::vector<std::string> projects;
      writes = RunDdaEdits(settings, &conn, settings.seconds, &acks, &traffic,
                           &failures, &projects);
      traffic.Add(conn);
    }
  } else {
    std::vector<std::string> integrated;
    writes = RunIngest(settings, settings.seconds, &acks, &traffic, &failures,
                       &integrated);
    if (integrated.empty()) failures.Fail("ingest: no project was integrated");
  }

  // After the timed window: reconcile, then check every project's export.
  Conn control;
  JsonValue metrics;
  std::string reconcile_report = "null";
  std::string layer = "{}";
  bool reconciled = false;
  // `metrics` needs a session; any project of the run will do.
  std::string any_project = !seed_log.entries.empty() ? seed_log.entries[0].first
                            : !acks.entries.empty()   ? acks.entries[0].first
                                                      : "e2ebench";
  std::string bind_error;
  if (ConnectOrFail(&control, settings, &failures) &&
      control.Bind(any_project, &bind_error)) {
    reconciled = ReconcileCounts(&control, traffic, &failures, &metrics,
                                 &reconcile_report);
    layer = ServerLayerJson(metrics, traffic);
    AckLog all = seed_log;
    all.Merge(acks);
    CheckExports(&control, all, &failures);
  } else if (!bind_error.empty()) {
    failures.Fail("control connection: " + bind_error);
  }
  if (!acks.Save(settings.state + "/run.log")) {
    failures.Fail("cannot write the state directory");
  }

  JsonWriter e2e;
  e2e.Num("edit_p50_ms", writes.edits.Robust(0.5) / 1e3)
      .Num("edit_p90_ms", writes.edits.Robust(0.9) / 1e3)
      .Num("write_p50_us", writes.writes.Robust(0.5))
      .Num("write_p99_us", writes.writes.Robust(0.99))
      .Num("writes_per_s",
           writes.seconds > 0
               ? static_cast<double>(writes.writes_acked) / writes.seconds
               : 0)
      .Num("read_under_write_p90_us", writes.reads_under_writes.Robust(0.9));
  JsonWriter details;
  details.Int("edit_samples", static_cast<int64_t>(writes.edits.size()))
      .Int("write_samples", static_cast<int64_t>(writes.writes.size()))
      .Int("read_under_write_samples",
           static_cast<int64_t>(writes.reads_under_writes.size()))
      .Raw("reconcile", reconcile_report)
      .Raw("traffic", traffic.Json());
  bool ok = failures.failed() == 0 && reconciled;
  std::printf("%s\n",
              JsonWriter()
                  .Bool("ok", ok)
                  .Int("attempted", failures.attempted())
                  .Int("failed", failures.failed())
                  .Raw("failures", failures.MessagesJson())
                  .Raw("e2e", e2e.Finish())
                  .Raw("layer", layer)
                  .Int("user_bytes", traffic.user_bytes)
                  .Raw("details", details.Finish())
                  .Finish()
                  .c_str());
  return ok ? 0 : 1;
}

int RecoverMain(Settings settings, const std::string& logs) {
  Failures failures;
  AckLog all;
  for (size_t at = 0; at <= logs.size();) {
    size_t comma = std::min(logs.find(',', at), logs.size());
    std::string name = logs.substr(at, comma - at);
    if (name.empty() || !all.Load(settings.state + "/" + name)) {
      std::fprintf(stderr, "recover: cannot load '%s' from %s\n", name.c_str(),
                   settings.state.c_str());
      return 2;
    }
    at = comma + 1;
  }
  std::map<std::string, std::vector<std::string>> projects =
      PayloadsByProject(all);
  Conn conn;
  int64_t outlined_ns = 0;
  if (AwaitPort(&settings, &failures) &&
      ConnectOrFail(&conn, settings, &failures)) {
    // Every project must answer `outline` as it did before the crash: with
    // the integrated schema when an integrate was acknowledged, else with
    // the "run integrate first" refusal.
    for (const auto& [project, payloads] : projects) {
      bool integrated = false;
      for (const std::string& payload : payloads) {
        integrated |= payload.rfind("integrate", 0) == 0;
      }
      std::string error;
      ServiceResponse response;
      failures.Attempt();
      if (!conn.Bind(project, &error)) {
        failures.Fail(error);
        continue;
      }
      if (!conn.Call(MakeRequest(WireVerb::kOutline), &response)) {
        failures.Fail("outline " + project + ": transport error");
        continue;
      }
      bool expected = integrated
                          ? response.ok()
                          : IsCode(response, ServiceErrorCode::kBadRequest);
      if (!expected) {
        failures.Fail("outline " + project + " after restart: " +
                      Describe(response));
      }
    }
    outlined_ns = NowNs();
    CheckExports(&conn, all, &failures);
  }
  bool ok = failures.failed() == 0;
  std::printf("%s\n", JsonWriter()
                          .Bool("ok", ok)
                          .Int("outlined_ns", outlined_ns)
                          .Int("projects", static_cast<int64_t>(projects.size()))
                          .Int("writes", static_cast<int64_t>(all.entries.size()))
                          .Int("attempted", failures.attempted())
                          .Int("failed", failures.failed())
                          .Raw("failures", failures.MessagesJson())
                          .Finish()
                          .c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "e2e_loadgen: refusing to run a non-Release build\n");
  return 2;
#endif
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: e2e_loadgen seed|run|crash|recover|trace --workload "
                 "W --seed N --state DIR [--port P --seconds T] "
                 "[--logs NAME,...] [--smoke]\n");
    return 2;
  }
  std::string mode = argv[1];
  e2e::Args args(argc, argv, 2);
  e2e::Settings settings = e2e::ReadSettings(args);
  if (settings.workload != "dda_edit" &&
      settings.workload != "ingest_durable") {
    std::fprintf(stderr, "unknown workload '%s'\n", settings.workload.c_str());
    return 2;
  }
  if (mode == "seed") return e2e::SeedMain(settings);
  if (mode == "run") return e2e::RunMain(settings);
  if (mode == "crash") return e2e::CrashMain(settings);
  if (mode == "recover") return e2e::RecoverMain(settings, args.Get("logs", ""));
  if (mode == "trace") return e2e::TraceMain(args);
  std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
  return 2;
}
