// The service plane end to end: verb semantics over sessions, admission
// control (queue depth, deadlines) driven by a ManualClock — no test ever
// sleeps — engine-failure mapping onto the four wire codes, idle-session
// reaping, and the router's line protocol.

#include "service/service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "commands.h"
#include "common/clock.h"
#include "service/protocol.h"
#include "service/router.h"
#include "service/verbs.h"

namespace ecrint::service {
namespace {

constexpr const char* kUniversityDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } }\n"
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

// A service on a manual clock plus one open session, the fixture every
// test starts from.
class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() {
    config_.clock = &clock_;
    service_ = std::make_unique<IntegrationService>(config_);
    session_ = service_->OpenSession("uni");
  }

  // Declares the standard equivalences and asserts Student = Grad.
  void SeedProject() {
    ASSERT_TRUE(Run(DefineCmd(kUniversityDdl)).ok());
    ASSERT_TRUE(
        Run(EquivCmd({"sc1", "Student", "Name"}, {"sc2", "Grad", "Name"}))
            .ok());
    ASSERT_TRUE(
        Run(EquivCmd({"sc1", "Student", "GPA"}, {"sc2", "Grad", "GPA"}))
            .ok());
    ASSERT_TRUE(
        Run(AssertCmd({"sc1", "Student"}, /*type_code=*/1, {"sc2", "Grad"}))
            .ok());
  }

  // Runs one command on the fixture's session.
  ServiceResponse Run(const ServiceCommand& command) {
    return service_->Execute(session_, command);
  }

  common::ManualClock clock_;
  ServiceConfig config_;
  std::unique_ptr<IntegrationService> service_;
  std::string session_;
};

TEST_F(ServiceTest, WriteReadPipeline) {
  SeedProject();
  ServiceResponse integrated = Run(IntegrateCmd());
  ASSERT_TRUE(integrated.ok());
  EXPECT_FALSE(integrated.lines.empty());

  ServiceResponse ranked = Run(RankCmd(
      "sc1", "sc2", core::StructureKind::kObjectClass, /*include_zero=*/true));
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked.lines.size(), 1u);
  // Two shared attribute classes across four attribute slots.
  EXPECT_EQ(ranked.lines[0], "sc1.Student sc2.Grad 0.5000");

  ServiceResponse outline = Run(OpCmd(ServiceCommand::Op::kOutline));
  ASSERT_TRUE(outline.ok());
  EXPECT_FALSE(outline.lines.empty());

  ServiceResponse exported = Run(OpCmd(ServiceCommand::Op::kExport));
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported.lines[0], "# ecrint project file");
}

TEST_F(ServiceTest, UnknownSessionIsBadRequest) {
  ServiceResponse response =
      service_->Execute("s999", OpCmd(ServiceCommand::Op::kOutline));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kBadRequest);
}

TEST_F(ServiceTest, ConflictingAssertionMapsToConflict) {
  SeedProject();
  // Student = Grad already holds; DISJOINT contradicts it.
  ServiceResponse response =
      Run(AssertCmd({"sc1", "Student"}, /*type_code=*/0, {"sc2", "Grad"}));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kConflict);
  EXPECT_FALSE(response.error->message.empty());
}

TEST_F(ServiceTest, ExpiredDeadlineIsTimeout) {
  SeedProject();
  clock_.AdvanceNs(1'000'000);
  // An absolute deadline already in the past: refused before execution.
  ServiceResponse response =
      Run(OpCmd(ServiceCommand::Op::kOutline, /*deadline_ns=*/500'000));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kTimeout);
}

TEST_F(ServiceTest, QueueDepthZeroShedsEverything) {
  ServiceConfig config;
  config.clock = &clock_;
  config.queue_depth = 0;
  IntegrationService strict(config);
  std::string session = strict.OpenSession("p");
  ServiceResponse response =
      strict.Execute(session, DefineCmd(kUniversityDdl));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, ServiceErrorCode::kOverloaded);
}

TEST_F(ServiceTest, IdleSessionsAreReaped) {
  std::string idle = service_->OpenSession("uni");
  EXPECT_EQ(service_->sessions().size(), 2);
  // Activity keeps a session alive across the timeout window...
  clock_.AdvanceNs(config_.session_idle_timeout_ns / 2);
  ASSERT_TRUE(Run(DefineCmd(kUniversityDdl)).ok());
  clock_.AdvanceNs(config_.session_idle_timeout_ns / 2 + 1);
  // ...while `idle` is now past its lease: the next request from anyone
  // reaps it (opportunistic, no timer thread), and its own requests fail.
  ASSERT_TRUE(
      Run(EquivCmd({"sc1", "Student", "Name"}, {"sc2", "Grad", "Name"}))
          .ok());
  EXPECT_EQ(service_->sessions().size(), 1);
  ServiceResponse stale =
      service_->Execute(idle, OpCmd(ServiceCommand::Op::kOutline));
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.error->code, ServiceErrorCode::kBadRequest);
}

TEST_F(ServiceTest, SnapshotIsolatesReadersFromWrites) {
  SeedProject();
  ASSERT_TRUE(Run(IntegrateCmd()).ok());
  std::shared_ptr<const EngineSnapshot> held =
      service_->CurrentSnapshot(session_);
  ASSERT_NE(held, nullptr);

  // A write after the grab does not disturb the held snapshot.
  ASSERT_TRUE(
      Run(DefineCmd("schema sc3 { entity E { A: char key; } }")).ok());
  EXPECT_EQ(held->catalog->SchemaNames().size(), 2u);
  std::shared_ptr<const EngineSnapshot> fresh =
      service_->CurrentSnapshot(session_);
  EXPECT_EQ(fresh->catalog->SchemaNames().size(), 3u);
  // The untouched integration result is shared, not copied.
  EXPECT_EQ(held->integration.get(), fresh->integration.get());
}

TEST_F(ServiceTest, MetricsCountRequestsAndErrors) {
  SeedProject();
  (void)service_->Execute("s999",
                          OpCmd(ServiceCommand::Op::kOutline));  // BAD_REQUEST
  std::string json = service_->metrics().MetricsJson();
  EXPECT_NE(json.find("\"requests.define\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"requests.equiv\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"errors.BAD_REQUEST\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"snapshots.published\""), std::string::npos);
  EXPECT_NE(json.find("latency.define"), std::string::npos);
}

TEST_F(ServiceTest, ClosureMetricsSurfaceKernelActivity) {
  SeedProject();
  // Integrate seeds schema structure through the closure kernel, so the
  // closure.* instruments must show pops/narrowings and a kernel sample.
  ASSERT_TRUE(Run(IntegrateCmd()).ok());
  std::string json = service_->metrics().MetricsJson();
  EXPECT_NE(json.find("closure.worklist_pops"), std::string::npos);
  EXPECT_NE(json.find("closure.row_compositions"), std::string::npos);
  EXPECT_NE(json.find("closure.narrowings"), std::string::npos);
  EXPECT_NE(json.find("closure.kernel"), std::string::npos);
  EXPECT_NE(json.find("closure.clusters"), std::string::npos);
  EXPECT_GT(service_->metrics().GetCounter("closure.worklist_pops")->value(),
            0);
  // A rejected contradiction bumps the conflict counter.
  ASSERT_FALSE(
      Run(AssertCmd({"sc1", "Student"}, /*type_code=*/0, {"sc2", "Grad"}))
          .ok());
  EXPECT_GT(service_->metrics().GetCounter("closure.conflicts")->value(), 0);
}

// --- router / line protocol ----------------------------------------------

class RouterTest : public ServiceTest {
 protected:
  RouterTest() : router_(service_.get()) {}

  // Sends one line, expects success, returns the payload lines.
  std::vector<std::string> Ok(const std::string& line) {
    Result<ServiceResponse> response =
        ParseResponse(router_.HandleLine(line, &wire_session_));
    EXPECT_TRUE(response.ok()) << line;
    EXPECT_TRUE(response->ok()) << line << ": "
                                << response->error->message;
    return response->lines;
  }

  // Sends one line, expects failure, returns the error.
  ServiceError Err(const std::string& line) {
    Result<ServiceResponse> response =
        ParseResponse(router_.HandleLine(line, &wire_session_));
    EXPECT_TRUE(response.ok()) << line;
    EXPECT_FALSE(response->ok()) << line;
    return response->error.value_or(ServiceError{});
  }

  RequestRouter router_;
  RouterSession wire_session_;
};

TEST_F(RouterTest, FullSessionOverTheWire) {
  EXPECT_EQ(Ok("ping"), std::vector<std::string>{"pong"});
  Ok("open uni2");
  Ok("define " + EscapeField(kUniversityDdl));
  Ok("equiv sc1.Student.Name sc2.Grad.Name");
  Ok("equiv sc1.Student.GPA sc2.Grad.GPA");
  Ok("assert sc1.Student 1 sc2.Grad");
  std::vector<std::string> ranked = Ok("rank sc1 sc2 zero");
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_EQ(ranked[0], "sc1.Student sc2.Grad 0.5000");
  EXPECT_FALSE(Ok("integrate").empty());
  EXPECT_FALSE(Ok("outline").empty());
  EXPECT_FALSE(Ok("suggest sc1 sc2").empty());
  Ok("close");
}

TEST_F(RouterTest, VerbsRequireASession) {
  ServiceError error = Err("outline");
  EXPECT_EQ(error.code, ServiceErrorCode::kBadRequest);
}

TEST_F(RouterTest, UnknownVerbAndBadArguments) {
  Ok("open uni");
  EXPECT_EQ(Err("frobnicate").code, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("equiv one two").code, ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("assert sc1.Student nine sc2.Grad").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("rank sc1").code, ServiceErrorCode::kBadRequest);
}

TEST_F(RouterTest, DeadlineZeroExpiresEveryRequest) {
  // A nonzero clock, so the computed absolute deadline (now + 0) is
  // distinguishable from the "no deadline set" sentinel 0.
  clock_.AdvanceNs(1);
  Ok("open uni");
  Ok("deadline 0");
  EXPECT_EQ(Err("outline").code, ServiceErrorCode::kTimeout);
  Ok("deadline default");
  SeedProject();  // direct API writes still work
  ASSERT_TRUE(Run(IntegrateCmd()).ok());
  EXPECT_FALSE(Ok("outline").empty());
}

TEST_F(RouterTest, DemoteRejectsMalformedEpochs) {
  Ok("open uni");
  // strtoull on its own would accept every one of these: "-1" negates to
  // 2^64-1, "+2" parses, overflow saturates silently. Any of them poisons
  // the fence — epoch 2^64-1 can never be superseded because promote's
  // epoch+1 wraps to 0.
  EXPECT_EQ(Err("demote -1 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("demote +2 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("demote 2x 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);
  EXPECT_EQ(Err("demote 99999999999999999999 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);  // ERANGE
  EXPECT_EQ(Err("demote 18446744073709551615 10.0.0.9:7400").code,
            ServiceErrorCode::kBadRequest);  // 2^64-1: increment would wrap
  // The largest usable epoch and a plain small one still parse.
  EXPECT_FALSE(Ok("demote 2 10.0.0.9:7400").empty());
  EXPECT_FALSE(Ok("demote 18446744073709551614 10.0.0.9:7400").empty());
}

// Every request that bumps requests.<verb> records exactly one
// latency.<verb> sample: text lines, binary singles, batch items, cache
// hits and ping alike.
TEST_F(RouterTest, EveryCountedRequestHasOneLatencySample) {
  Ok("ping");
  Ok("open uni");
  Ok("ping");
  Ok("define " + EscapeField(kUniversityDdl));
  Ok("equiv sc1.Student.Name sc2.Grad.Name");
  Ok("integrate");
  for (int i = 0; i < 3; ++i) Ok("rank sc1 sc2 zero");  // hits after one
  Ok("outline");
  Ok("metrics");

  RouterSession binary;
  ASSERT_EQ(router_.HandleLine("open uni", &binary).substr(0, 2), "ok");
  ASSERT_EQ(router_.HandleLine("proto 2", &binary).substr(0, 2), "ok");
  auto send = [&](const std::string& frame) {
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    ASSERT_EQ(ExtractFrame(frame, &body, &consumed, &error),
              FrameStatus::kComplete);
    (void)router_.HandleFrame(body, &binary);
  };
  const BinaryRequest ping{WireVerb::kPing, {}};
  const BinaryRequest rank{WireVerb::kRank, {"sc1", "sc2", "zero"}};
  send(EncodeBinaryRequest(ping));
  send(EncodeBinaryRequest(rank));
  send(EncodeBinaryRequest({WireVerb::kAssert, {"sc1.Student", "1",
                                                 "sc2.Grad"}}));
  send(EncodeBinaryBatch(
      {ping, rank, rank,
       {WireVerb::kEquiv, {"sc1.Student.GPA", "sc2.Grad.GPA"}},
       {WireVerb::kSuggest, {"sc1", "sc2"}},
       {WireVerb::kTranslate, {"sc1.Student"}},
       {WireVerb::kOutline, {}},
       {WireVerb::kExport, {}},
       {WireVerb::kMetrics, {}}}));

  MetricsRegistry& metrics = service_->metrics();
  EXPECT_GE(metrics.GetCounter("cache.hits")->value(), 3);
  EXPECT_EQ(metrics.GetCounter("requests.ping")->value(), 4);
  EXPECT_EQ(metrics.GetCounter("requests.batch")->value(), 1);
  for (const Verb& verb : Verbs()) {
    if (verb.parse == nullptr) continue;  // answered by the router
    const std::string name = verb.name;
    EXPECT_GT(metrics.GetCounter("requests." + name)->value(), 0) << name;
    EXPECT_EQ(metrics.GetHistogram("latency." + name)->count(),
              metrics.GetCounter("requests." + name)->value())
        << name;
  }
  EXPECT_EQ(metrics.GetHistogram("latency.batch")->count(),
            metrics.GetCounter("requests.batch")->value());
}

}  // namespace
}  // namespace ecrint::service
