// Pipelined batch execution: a batch produces exactly the responses the
// same commands produce one at a time, a write run's journal records are
// covered by ONE group-commit fsync (not one per record), a failed commit
// barrier answers UNAVAILABLE for every write of the run and applies none
// of them, lone writes keep their per-policy fsync counts, and the binary
// batch frame carries the whole flow end to end through the router —
// under the connection's deadline.

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fs.h"
#include "service/protocol.h"
#include "service/recovery.h"
#include "service/router.h"
#include "service/service.h"

namespace ecrint::service {
namespace {

constexpr const char* kInlineDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } } "
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

ServiceCommand DefineCommand() {
  ServiceCommand command;
  command.op = ServiceCommand::Op::kDefine;
  command.text = kInlineDdl;
  return command;
}

ServiceCommand EquivCommand(const std::string& attr) {
  ServiceCommand command;
  command.op = ServiceCommand::Op::kEquiv;
  command.path_a = {"sc1", "Student", attr};
  command.path_b = {"sc2", "Grad", attr};
  return command;
}

ServiceCommand AssertCommand() {
  ServiceCommand command;
  command.op = ServiceCommand::Op::kAssert;
  command.first = {"sc1", "Student"};
  command.type_code = 1;
  command.second = {"sc2", "Grad"};
  return command;
}

ServiceCommand IntegrateCommand() {
  ServiceCommand command;
  command.op = ServiceCommand::Op::kIntegrate;
  return command;
}

ServiceCommand SimpleCommand(ServiceCommand::Op op) {
  ServiceCommand command;
  command.op = op;
  return command;
}

ServiceCommand RankCommand() {
  ServiceCommand command;
  command.op = ServiceCommand::Op::kRank;
  command.schema1 = "sc1";
  command.schema2 = "sc2";
  command.include_zero = true;
  return command;
}

// The canonical mixed script: writes, reads between them, a trailing
// read run. Exercises read-run / write-run segmentation.
std::vector<ServiceCommand> MixedScript() {
  return {SimpleCommand(ServiceCommand::Op::kPing),
          DefineCommand(),
          EquivCommand("Name"),
          RankCommand(),
          EquivCommand("GPA"),
          AssertCommand(),
          IntegrateCommand(),
          SimpleCommand(ServiceCommand::Op::kOutline),
          RankCommand(),
          SimpleCommand(ServiceCommand::Op::kExport)};
}

void ExpectSameResponses(const std::vector<ServiceResponse>& batch,
                         const std::vector<ServiceResponse>& sequential) {
  ASSERT_EQ(batch.size(), sequential.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    // Compare the full wire serialization: status, message, payload.
    EXPECT_EQ(FormatResponse(batch[i]), FormatResponse(sequential[i]))
        << "command " << i;
  }
}

TEST(BatchTest, MatchesSequentialExecution) {
  std::vector<ServiceCommand> script = MixedScript();

  IntegrationService batch_service{ServiceConfig{}};
  std::string batch_session = batch_service.OpenSession("uni");
  std::vector<ServiceResponse> batched =
      batch_service.Execute(batch_session, script);

  IntegrationService seq_service{ServiceConfig{}};
  std::string seq_session = seq_service.OpenSession("uni");
  std::vector<ServiceResponse> sequential;
  for (const ServiceCommand& command : script) {
    sequential.push_back(seq_service.Execute(seq_session, command));
  }

  ExpectSameResponses(batched, sequential);
  for (const ServiceResponse& response : batched) {
    EXPECT_TRUE(response.ok());
  }
}

TEST(BatchTest, EmptyBatchIsANoOp) {
  IntegrationService service{ServiceConfig{}};
  std::string session = service.OpenSession("uni");
  EXPECT_TRUE(
      service.Execute(session, std::span<const ServiceCommand>()).empty());
}

TEST(BatchTest, UnknownSessionFailsEveryCommand) {
  IntegrationService service{ServiceConfig{}};
  std::vector<ServiceCommand> commands = {DefineCommand(), RankCommand()};
  std::vector<ServiceResponse> out = service.Execute("nope", commands);
  ASSERT_EQ(out.size(), 2u);
  for (const ServiceResponse& response : out) {
    ASSERT_FALSE(response.ok());
  }
}

TEST(BatchTest, RecordsBatchSizeHistogram) {
  IntegrationService service{ServiceConfig{}};
  std::string session = service.OpenSession("uni");
  Histogram* sizes = service.metrics().GetHistogram("batch.size");
  int64_t before = sizes->count();
  (void)service.Execute(session, MixedScript(), /*cache=*/nullptr,
                        /*batch_frame=*/true);
  EXPECT_EQ(sizes->count(), before + 1);
  EXPECT_GE(sizes->sum_us(),
            static_cast<int64_t>(MixedScript().size()));
}

// --- group commit ----------------------------------------------------------

// Under FsyncPolicy::kAlways a batch write run of W journaled verbs costs
// ONE fsync (the group-commit barrier); the same verbs one at a time cost
// W. The FaultInjectingFs wrapper counts the actual Sync calls.
TEST(BatchGroupCommitTest, OneFsyncCoversTheWholeWriteRun) {
  // The script's write run: define, equiv, equiv, assert, integrate = 5
  // journaled verbs.
  std::vector<ServiceCommand> writes = {DefineCommand(), EquivCommand("Name"),
                                        EquivCommand("GPA"), AssertCommand(),
                                        IntegrateCommand()};

  auto syncs_for = [&](bool as_batch) {
    common::MemFs base;
    common::FaultInjectingFs counting(&base, common::FaultPlan{});
    ServiceConfig config;
    config.data_dir = "data";
    config.fs = &counting;
    config.durability.fsync = FsyncPolicy::kAlways;
    config.durability.checkpoint_interval_records = 0;  // isolate the WAL
    IntegrationService service(config);
    std::string session = service.OpenSession("uni");
    int64_t before = counting.syncs_seen();
    if (as_batch) {
      for (const ServiceResponse& response :
           service.Execute(session, writes)) {
        EXPECT_TRUE(response.ok());
      }
    } else {
      for (const ServiceCommand& command : writes) {
        EXPECT_TRUE(service.Execute(session, command).ok());
      }
    }
    return counting.syncs_seen() - before;
  };

  EXPECT_EQ(syncs_for(/*as_batch=*/false),
            static_cast<int64_t>(writes.size()));
  EXPECT_EQ(syncs_for(/*as_batch=*/true), 1);
}

TEST(BatchGroupCommitTest, FsyncMetricCountsBarriersNotRecords) {
  common::MemFs fs;
  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &fs;
  config.durability.fsync = FsyncPolicy::kAlways;
  config.durability.checkpoint_interval_records = 0;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");

  Counter* fsyncs = service.metrics().GetCounter("journal.fsyncs");
  Counter* appends = service.metrics().GetCounter("journal.appends");
  int64_t fsyncs_before = fsyncs->value();
  int64_t appends_before = appends->value();

  std::vector<ServiceCommand> writes = {DefineCommand(), EquivCommand("Name"),
                                        AssertCommand()};
  for (const ServiceResponse& response :
       service.Execute(session, writes)) {
    ASSERT_TRUE(response.ok());
  }
  EXPECT_EQ(appends->value(), appends_before + 3);  // every record journaled
  EXPECT_EQ(fsyncs->value(), fsyncs_before + 1);    // one barrier
}

// The barrier fails: every write of the run answers UNAVAILABLE (its
// record never became durable) and none of them was applied, the project
// degrades, and later writes keep refusing until restart.
TEST(BatchGroupCommitTest, CommitFailureFailsExecutedWrites) {
  common::MemFs base;
  common::FaultPlan plan;
  plan.fail_sync_at = 0;  // the group-commit barrier is the first Sync
  common::FaultInjectingFs faulty(&base, plan);
  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &faulty;
  config.durability.fsync = FsyncPolicy::kAlways;
  config.durability.checkpoint_interval_records = 0;
  config.durability.degraded_retry_after_ms = 777;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");
  std::shared_ptr<const EngineSnapshot> before =
      service.CurrentSnapshot(session);

  std::vector<ServiceCommand> writes = {DefineCommand(), EquivCommand("Name"),
                                        AssertCommand()};
  std::vector<ServiceResponse> out = service.Execute(session, writes);
  ASSERT_EQ(out.size(), 3u);
  // All or nothing: the engine and the published snapshot are untouched.
  EXPECT_EQ(service.CurrentSnapshot(session), before);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_FALSE(out[i].ok()) << "write " << i;
    EXPECT_EQ(out[i].error->code, ServiceErrorCode::kUnavailable)
        << "write " << i;
    EXPECT_EQ(out[i].error->retry_after_ms, 777) << "write " << i;
  }
  // Degraded: the next write (batched or not) also refuses.
  ServiceResponse later = service.Execute(session, EquivCommand("GPA"));
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.error->code, ServiceErrorCode::kUnavailable);
  // Reads still serve from the published snapshot.
  ServiceResponse ping = service.Execute(
      session, SimpleCommand(ServiceCommand::Op::kPing));
  EXPECT_TRUE(ping.ok());
}

// --- lone writes -----------------------------------------------------------

// A service journaling through a fault-injecting filesystem.
struct DurableService {
  explicit DurableService(FsyncPolicy policy, common::FaultPlan plan = {})
      : fs(&base, plan) {
    ServiceConfig config;
    config.data_dir = "data";
    config.fs = &fs;
    config.durability.fsync = policy;
    config.durability.fsync_batch_records = 3;
    config.durability.checkpoint_interval_records = 0;  // isolate the WAL
    service = std::make_unique<IntegrationService>(config);
    session = service->OpenSession("uni");
  }

  common::MemFs base;
  common::FaultInjectingFs fs;
  std::unique_ptr<IntegrationService> service;
  std::string session;
};

// A lone write whose barrier fails answers UNAVAILABLE and leaves the
// engine (as export shows it) and the published snapshot exactly as they
// were before the write.
TEST(LoneWriteDurabilityTest, BarrierFailureLeavesStateUntouched) {
  common::FaultPlan plan;
  plan.fail_sync_at = 1;  // define's barrier is Sync 0, equiv's is Sync 1
  DurableService node(FsyncPolicy::kAlways, plan);
  IntegrationService& service = *node.service;
  ASSERT_TRUE(service.Execute(node.session, DefineCommand()).ok());
  ServiceResponse exported_before =
      service.Execute(node.session, SimpleCommand(ServiceCommand::Op::kExport));
  ASSERT_TRUE(exported_before.ok());
  std::shared_ptr<const EngineSnapshot> before =
      service.CurrentSnapshot(node.session);

  ServiceResponse refused = service.Execute(node.session, EquivCommand("Name"));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error->code, ServiceErrorCode::kUnavailable);

  std::shared_ptr<const EngineSnapshot> after =
      service.CurrentSnapshot(node.session);
  EXPECT_EQ(after, before);
  EXPECT_EQ(after->stamp, before->stamp);
  ServiceResponse exported_after =
      service.Execute(node.session, SimpleCommand(ServiceCommand::Op::kExport));
  ASSERT_TRUE(exported_after.ok());
  EXPECT_EQ(exported_after.lines, exported_before.lines);
}

// Lone writes sync per the fsync policy: one fsync each under kAlways,
// one per 3 records under kBatch with fsync_batch_records = 3, none under
// kNever.
TEST(LoneWriteDurabilityTest, FsyncCountsFollowThePolicy) {
  auto syncs_for = [](FsyncPolicy policy) {
    DurableService node(policy);
    int64_t before = node.fs.syncs_seen();
    std::vector<ServiceCommand> writes = {
        DefineCommand(), EquivCommand("Name"), EquivCommand("GPA"),
        AssertCommand(), IntegrateCommand(), IntegrateCommand()};
    for (const ServiceCommand& write : writes) {
      EXPECT_TRUE(node.service->Execute(node.session, write).ok());
    }
    return node.fs.syncs_seen() - before;
  };
  EXPECT_EQ(syncs_for(FsyncPolicy::kAlways), 6);
  EXPECT_EQ(syncs_for(FsyncPolicy::kBatch), 2);
  EXPECT_EQ(syncs_for(FsyncPolicy::kNever), 0);
}

// --- router-level binary batch --------------------------------------------

class BinaryBatchRouterTest : public ::testing::Test {
 protected:
  BinaryBatchRouterTest() : service_(ServiceConfig{}), router_(&service_) {}

  // Opens a session in binary mode.
  void OpenBinary(RouterSession* session) {
    ASSERT_EQ(router_.HandleLine("open uni", session).substr(0, 2), "ok");
    ASSERT_EQ(router_.HandleLine("proto 2", session).substr(0, 2), "ok");
    ASSERT_EQ(session->protocol_version, kProtocolBinaryVersion);
  }

  // Round-trips one frame through the router and decodes the reply.
  DecodedResponse Exchange(const std::string& frame, RouterSession* session) {
    std::string_view body;
    size_t consumed = 0;
    std::string error;
    EXPECT_EQ(ExtractFrame(frame, &body, &consumed, &error),
              FrameStatus::kComplete);
    std::string reply = router_.HandleFrame(body, session);
    std::string_view reply_body;
    EXPECT_EQ(ExtractFrame(reply, &reply_body, &consumed, &error),
              FrameStatus::kComplete);
    Result<DecodedResponse> decoded = DecodeBinaryResponse(reply_body);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return *decoded;
  }

  static BinaryRequest Req(WireVerb verb, std::vector<std::string> args = {}) {
    BinaryRequest request;
    request.verb = verb;
    request.args = std::move(args);
    return request;
  }

  int64_t CacheHits() {
    return service_.metrics().GetCounter("cache.hits")->value();
  }

  IntegrationService service_;
  RequestRouter router_;
};

TEST_F(BinaryBatchRouterTest, MixedBatchExecutesEndToEnd) {
  RouterSession session;
  OpenBinary(&session);

  std::vector<BinaryRequest> batch = {
      Req(WireVerb::kPing),
      Req(WireVerb::kDefine, {kInlineDdl}),
      Req(WireVerb::kEquiv, {"sc1.Student.Name", "sc2.Grad.Name"}),
      Req(WireVerb::kAssert, {"sc1.Student", "1", "sc2.Grad"}),
      Req(WireVerb::kIntegrate),
      Req(WireVerb::kOutline),
      Req(WireVerb::kRank, {"sc1", "sc2", "zero"}),
  };
  DecodedResponse decoded =
      Exchange(EncodeBinaryBatch(batch), &session);
  ASSERT_TRUE(decoded.batch);
  ASSERT_EQ(decoded.items.size(), batch.size());
  for (size_t i = 0; i < decoded.items.size(); ++i) {
    EXPECT_TRUE(decoded.items[i].ok()) << "item " << i;
  }
  EXPECT_EQ(decoded.items[0].lines, std::vector<std::string>{"pong"});
  EXPECT_FALSE(decoded.items[5].lines.empty());  // outline text
}

TEST_F(BinaryBatchRouterTest, SessionVerbsAreRejectedInsideABatch) {
  RouterSession session;
  OpenBinary(&session);

  std::vector<BinaryRequest> batch = {
      Req(WireVerb::kPing),
      Req(WireVerb::kOpen, {"other"}),
      Req(WireVerb::kProto, {"1"}),
      Req(WireVerb::kDefine, {kInlineDdl}),
  };
  DecodedResponse decoded = Exchange(EncodeBinaryBatch(batch), &session);
  ASSERT_EQ(decoded.items.size(), 4u);
  EXPECT_TRUE(decoded.items[0].ok());
  ASSERT_FALSE(decoded.items[1].ok());
  EXPECT_NE(decoded.items[1].error->message.find("not allowed in batch"),
            std::string::npos);
  ASSERT_FALSE(decoded.items[2].ok());
  // The rejected proto did not flip the connection out of binary mode...
  EXPECT_EQ(session.protocol_version, kProtocolBinaryVersion);
  // ...and the non-session command after it still executed.
  EXPECT_TRUE(decoded.items[3].ok());
}

TEST_F(BinaryBatchRouterTest, PerItemParseErrorsDoNotPoisonTheBatch) {
  RouterSession session;
  OpenBinary(&session);
  (void)Exchange(
      EncodeBinaryBatch({Req(WireVerb::kDefine, {kInlineDdl})}), &session);

  std::vector<BinaryRequest> batch = {
      Req(WireVerb::kEquiv, {"not-a-path"}),        // wrong arity
      Req(WireVerb::kRank, {"sc1", "sc2", "zero"}),  // fine
      Req(WireVerb::kAssert, {"sc1.Student", "nine", "sc2.Grad"}),
  };
  DecodedResponse decoded = Exchange(EncodeBinaryBatch(batch), &session);
  ASSERT_EQ(decoded.items.size(), 3u);
  EXPECT_FALSE(decoded.items[0].ok());
  EXPECT_TRUE(decoded.items[1].ok());
  EXPECT_FALSE(decoded.items[2].ok());
}

TEST_F(BinaryBatchRouterTest, BatchWithoutSessionFailsNonPingItems) {
  RouterSession session;
  session.protocol_version = kProtocolBinaryVersion;  // never opened

  std::vector<BinaryRequest> batch = {
      Req(WireVerb::kPing),
      Req(WireVerb::kOutline),
  };
  DecodedResponse decoded = Exchange(EncodeBinaryBatch(batch), &session);
  ASSERT_EQ(decoded.items.size(), 2u);
  EXPECT_TRUE(decoded.items[0].ok());  // ping needs no session
  EXPECT_FALSE(decoded.items[1].ok());
}

TEST_F(BinaryBatchRouterTest, RepeatedReadBatchHitsTheResponseCache) {
  RouterSession session;
  OpenBinary(&session);
  (void)Exchange(EncodeBinaryBatch({
                     Req(WireVerb::kDefine, {kInlineDdl}),
                     Req(WireVerb::kEquiv,
                         {"sc1.Student.Name", "sc2.Grad.Name"}),
                     Req(WireVerb::kIntegrate),
                 }),
                 &session);

  std::vector<BinaryRequest> reads = {
      Req(WireVerb::kOutline),
      Req(WireVerb::kRank, {"sc1", "sc2", "zero"}),
      Req(WireVerb::kRank, {"sc1", "sc2", "zero"}),  // duplicate in-batch
  };
  int64_t hits0 = CacheHits();
  DecodedResponse first = Exchange(EncodeBinaryBatch(reads), &session);
  // The duplicate rank inside the FIRST batch already hits the entry its
  // twin inserted one item earlier (same read run, same snapshot).
  EXPECT_EQ(CacheHits(), hits0 + 1);
  DecodedResponse second = Exchange(EncodeBinaryBatch(reads), &session);
  // The repeat batch is served entirely from the cache...
  EXPECT_EQ(CacheHits(), hits0 + 4);
  // ...and is answer-identical to the computed one.
  ASSERT_EQ(second.items.size(), first.items.size());
  for (size_t i = 0; i < first.items.size(); ++i) {
    EXPECT_EQ(second.items[i].lines, first.items[i].lines) << "item " << i;
  }
}

TEST_F(BinaryBatchRouterTest, WriteInsideABatchIsVisibleToFollowingReads) {
  RouterSession session;
  OpenBinary(&session);
  (void)Exchange(EncodeBinaryBatch({
                     Req(WireVerb::kDefine, {kInlineDdl}),
                     Req(WireVerb::kEquiv,
                         {"sc1.Student.Name", "sc2.Grad.Name"}),
                 }),
                 &session);
  // Warm the rank entry under the pre-write snapshot.
  (void)Exchange(
      EncodeBinaryBatch({Req(WireVerb::kRank, {"sc1", "sc2", "zero"})}),
      &session);

  // One batch: read, write that changes the ranking, same read again. The
  // trailing read runs against the post-write snapshot, so the warm
  // pre-write entry must NOT be served to it.
  std::vector<BinaryRequest> batch = {
      Req(WireVerb::kRank, {"sc1", "sc2", "zero"}),
      Req(WireVerb::kEquiv, {"sc1.Student.GPA", "sc2.Grad.GPA"}),
      Req(WireVerb::kRank, {"sc1", "sc2", "zero"}),
  };
  DecodedResponse decoded = Exchange(EncodeBinaryBatch(batch), &session);
  ASSERT_EQ(decoded.items.size(), 3u);
  ASSERT_TRUE(decoded.items[0].ok());
  ASSERT_TRUE(decoded.items[1].ok());
  ASSERT_TRUE(decoded.items[2].ok());
  // The new equivalence raises the shared-attribute score, so the answer
  // after the write differs from the answer before it.
  EXPECT_NE(decoded.items[2].lines, decoded.items[0].lines);
  // And the post-write answer is the one that stays warm.
  DecodedResponse repeat = Exchange(
      EncodeBinaryBatch({Req(WireVerb::kRank, {"sc1", "sc2", "zero"})}),
      &session);
  EXPECT_EQ(repeat.items[0].lines, decoded.items[2].lines);
}

// `deadline 0` covers batch frames too: every item answers TIMEOUT and
// nothing reaches the engine.
TEST(BinaryBatchDeadlineTest, DeadlineZeroTimesOutEveryBatchItem) {
  common::ManualClock clock(/*start_ns=*/1);
  ServiceConfig config;
  config.clock = &clock;
  IntegrationService service(config);
  RequestRouter router(&service);
  RouterSession session;
  ASSERT_EQ(router.HandleLine("open uni", &session).substr(0, 2), "ok");
  ASSERT_EQ(router.HandleLine("deadline 0", &session).substr(0, 2), "ok");
  ASSERT_EQ(router.HandleLine("proto 2", &session).substr(0, 2), "ok");
  const engine::EngineStamp stamp =
      service.CurrentSnapshot(session.session_id)->stamp;

  BinaryRequest define{WireVerb::kDefine, {kInlineDdl}};
  BinaryRequest equiv{WireVerb::kEquiv, {"sc1.Student.Name", "sc2.Grad.Name"}};
  BinaryRequest rank{WireVerb::kRank, {"sc1", "sc2"}};
  std::string frame = EncodeBinaryBatch({define, equiv, rank});
  std::string_view body;
  size_t consumed = 0;
  std::string error;
  ASSERT_EQ(ExtractFrame(frame, &body, &consumed, &error),
            FrameStatus::kComplete);
  std::string reply = router.HandleFrame(body, &session);
  std::string_view reply_body;
  ASSERT_EQ(ExtractFrame(reply, &reply_body, &consumed, &error),
            FrameStatus::kComplete);
  Result<DecodedResponse> decoded = DecodeBinaryResponse(reply_body);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->items.size(), 3u);
  for (size_t i = 0; i < decoded->items.size(); ++i) {
    ASSERT_FALSE(decoded->items[i].ok()) << "item " << i;
    EXPECT_EQ(decoded->items[i].error->code, ServiceErrorCode::kTimeout)
        << "item " << i;
  }
  EXPECT_EQ(service.CurrentSnapshot(session.session_id)->stamp, stamp);
}

}  // namespace
}  // namespace ecrint::service
