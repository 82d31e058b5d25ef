// Crash recovery, end to end: checkpoint format roundtrips, the
// crash-at-every-byte property (recovered state serves exactly what a
// serial replay of whatever journal prefix survived serves: stamp, export,
// outline, translate; see replay_oracle.h), the fault-injection
// matrix (a dying journal device flips the project to degraded read-only
// instead of crashing or corrupting), and checkpoint-failure semantics.

#include "service/recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "checkpoint_v1.h"
#include "commands.h"
#include "common/checksum.h"
#include "common/fs.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "replay_oracle.h"
#include "service/journal.h"
#include "service/service.h"

namespace ecrint::service {
namespace {

// --- checkpoint format -----------------------------------------------------

TEST(CheckpointTest, SerializeParseRoundtrip) {
  Checkpoint checkpoint;
  checkpoint.seq = 42;
  checkpoint.stamp = {3, 7, 1, 2, 5};
  checkpoint.integrated = true;
  checkpoint.integrated_schemas = {"sc1", "sc2"};
  checkpoint.project_text = "%schema sc1\nentity Student\n";

  Result<Checkpoint> parsed = ParseCheckpoint(SerializeCheckpoint(checkpoint));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_EQ(parsed->stamp, checkpoint.stamp);
  EXPECT_TRUE(parsed->integrated);
  EXPECT_EQ(parsed->integrated_schemas, checkpoint.integrated_schemas);
  EXPECT_EQ(parsed->project_text, checkpoint.project_text);
}

TEST(CheckpointTest, RoundtripWithoutIntegration) {
  Checkpoint checkpoint;
  checkpoint.seq = 1;
  checkpoint.stamp = {1, 1, 0, 0, 0};
  checkpoint.project_text = "x";
  Result<Checkpoint> parsed = ParseCheckpoint(SerializeCheckpoint(checkpoint));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->integrated);
  EXPECT_TRUE(parsed->integrated_schemas.empty());
}

TEST(CheckpointTest, EpochRoundtripsInBothFormatsAndZeroIsOmitted) {
  Checkpoint checkpoint;
  checkpoint.seq = 5;
  checkpoint.stamp = {1, 1, 0, 0, 0};
  checkpoint.project_text = "x";

  // Epoch 0 (failover never happened) is not emitted at all, so every
  // checkpoint written before epochs existed stays byte-identical.
  std::string v1 = SerializeCheckpoint(checkpoint);
  EXPECT_EQ(v1.find("epoch"), std::string::npos);
  std::string v2 = SerializeCheckpointV2(checkpoint);
  EXPECT_EQ(v2.find("epoch"), std::string::npos);
  Result<Checkpoint> parsed_v1 = ParseCheckpoint(v1);
  ASSERT_TRUE(parsed_v1.ok());
  EXPECT_EQ(parsed_v1->epoch, 0u);

  // A promoted leader's fence survives both serializers.
  checkpoint.epoch = 3;
  parsed_v1 = ParseCheckpoint(SerializeCheckpoint(checkpoint));
  ASSERT_TRUE(parsed_v1.ok());
  EXPECT_EQ(parsed_v1->epoch, 3u);
  Result<CheckpointView> parsed_v2 =
      ParseCheckpointAny(SerializeCheckpointV2(checkpoint));
  ASSERT_TRUE(parsed_v2.ok()) << parsed_v2.status().ToString();
  EXPECT_EQ(parsed_v2->epoch, 3u);
  EXPECT_EQ(parsed_v2->seq, 5u);
}

TEST(CheckpointTest, RejectsDamage) {
  Checkpoint checkpoint;
  checkpoint.seq = 9;
  checkpoint.stamp = {1, 1, 0, 0, 0};
  std::string good = SerializeCheckpoint(checkpoint);

  EXPECT_FALSE(ParseCheckpoint("").ok());
  EXPECT_FALSE(ParseCheckpoint("not a checkpoint\n").ok());
  // Wrong magic/version line.
  EXPECT_FALSE(ParseCheckpoint("ecrint-checkpoint v9\nseq 1\n").ok());
  // Truncation that loses the stamp line.
  EXPECT_FALSE(ParseCheckpoint(good.substr(0, good.find("stamp"))).ok());
  // Garbage where the sequence number belongs.
  std::string bad_seq = good;
  bad_seq.replace(bad_seq.find("seq 9"), 5, "seq x");
  EXPECT_FALSE(ParseCheckpoint(bad_seq).ok());
}

// --- checkpoint v2 (sectioned, mmap-parseable) -----------------------------

Checkpoint SampleCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.seq = 42;
  checkpoint.stamp = {3, 7, 1, 2, 5};
  checkpoint.integrated = true;
  checkpoint.integrated_schemas = {"sc1", "sc2"};
  checkpoint.project_text = "%schema sc1\nentity Student\n";
  return checkpoint;
}

TEST(CheckpointV2Test, SerializeParseRoundtrip) {
  Checkpoint checkpoint = SampleCheckpoint();
  std::string bytes = SerializeCheckpointV2(checkpoint);
  ASSERT_EQ(bytes.substr(0, kCheckpointV2Magic.size()), kCheckpointV2Magic);

  Result<CheckpointView> parsed = ParseCheckpointAny(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_TRUE(parsed->stamp == checkpoint.stamp);
  EXPECT_TRUE(parsed->integrated);
  EXPECT_EQ(parsed->integrated_schemas, checkpoint.integrated_schemas);
  EXPECT_EQ(parsed->project_text, checkpoint.project_text);
  // Zero-copy: the view aliases the serialized buffer, no private copy.
  EXPECT_GE(parsed->project_text.data(), bytes.data());
  EXPECT_LE(parsed->project_text.data() + parsed->project_text.size(),
            bytes.data() + bytes.size());
}

TEST(CheckpointV2Test, V1FormatStillParses) {
  Checkpoint checkpoint = SampleCheckpoint();
  std::string v1 = SerializeCheckpoint(checkpoint);
  Result<CheckpointView> parsed = ParseCheckpointAny(v1);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 42u);
  EXPECT_TRUE(parsed->stamp == checkpoint.stamp);
  EXPECT_EQ(parsed->integrated_schemas, checkpoint.integrated_schemas);
  EXPECT_EQ(parsed->project_text, checkpoint.project_text);
}

// The torn-file property: a v2 checkpoint truncated at ANY byte boundary
// — inside the magic, the header, the section table, or a section body —
// is rejected with a clean error, never a crash or a half-parsed state.
TEST(CheckpointV2Test, TruncationAtEveryByteIsRejected) {
  std::string bytes = SerializeCheckpointV2(SampleCheckpoint());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<CheckpointView> parsed = ParseCheckpointAny(bytes.substr(0, cut));
    EXPECT_FALSE(parsed.ok()) << "cut at " << cut << " parsed anyway";
  }
}

// Single-bit corruption anywhere past the magic is caught by the table or
// section checksums.
TEST(CheckpointV2Test, FlippedByteIsRejected) {
  std::string good = SerializeCheckpointV2(SampleCheckpoint());
  for (size_t at : {kCheckpointV2Magic.size() + 1,  // header
                    kCheckpointV2HeaderBytes + 2,   // section table
                    good.size() - 3}) {             // project section body
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    EXPECT_FALSE(ParseCheckpointAny(bad).ok()) << "flip at " << at;
  }
}

// Sections with unknown tags are skipped (forward compatibility): a newer
// writer may add sections an old reader has never heard of.
TEST(CheckpointV2Test, UnknownSectionTagIsSkipped) {
  std::string bytes = SerializeCheckpointV2(SampleCheckpoint());
  // Patch the PROJECT entry's tag to an unknown value; the parser must
  // then complain about the MISSING project section, proving it skipped
  // the unknown tag without tripping over its (now unchecked) payload.
  size_t project_entry = kCheckpointV2HeaderBytes + kCheckpointV2EntryBytes;
  std::string bad = bytes;
  bad[project_entry] = 0x77;  // tag low byte: kSectionProject -> unknown
  // Re-stamp the table checksum for the patched table.
  std::string_view table(bad.data() + kCheckpointV2HeaderBytes,
                         2 * kCheckpointV2EntryBytes);
  uint32_t crc = common::Crc32c(table);
  bad[12] = static_cast<char>(crc & 0xFF);
  bad[13] = static_cast<char>((crc >> 8) & 0xFF);
  bad[14] = static_cast<char>((crc >> 16) & 0xFF);
  bad[15] = static_cast<char>((crc >> 24) & 0xFF);
  Result<CheckpointView> parsed = ParseCheckpointAny(bad);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("missing"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ProjectDirNameTest, EncodesHostileNames) {
  EXPECT_EQ(ProjectDirName("uni"), "uni");
  EXPECT_EQ(ProjectDirName("a_b-C9"), "a_b-C9");
  // Path separators and dots are neutralized: no escape from the data dir.
  std::string evil = ProjectDirName("../evil");
  EXPECT_EQ(evil.find('/'), std::string::npos);
  EXPECT_EQ(evil.find('.'), std::string::npos);
  EXPECT_NE(ProjectDirName("a/b"), ProjectDirName("a%2Fb"));
  EXPECT_NE(ProjectDirName("a b"), ProjectDirName("a_b"));
}

// --- shared machinery for the property tests -------------------------------

// The client command a journaled verb arrives as.
ServiceCommand CommandFor(const engine::ReplayVerb& verb) {
  switch (verb.kind) {
    case engine::ReplayVerb::Kind::kDefine:
      return DefineCmd(verb.ddl);
    case engine::ReplayVerb::Kind::kEquivalence:
      return EquivCmd(verb.first_path, verb.second_path);
    case engine::ReplayVerb::Kind::kRelation:
      return AssertCmd(verb.first, verb.type_code, verb.second);
    case engine::ReplayVerb::Kind::kIntegrate:
      return IntegrateCmd(verb.schemas);
  }
  return {};
}

// Routes a ReplayVerb through the real service entry point as a lone
// request.
ServiceResponse Drive(IntegrationService& service, const std::string& session,
                      const engine::ReplayVerb& verb) {
  return service.Execute(session, CommandFor(verb));
}

constexpr const char* kProjectDir = "data/uni";
constexpr const char* kJournalPath = "data/uni/journal.wal";
constexpr const char* kCheckpointPath = "data/uni/checkpoint.ecr";

struct ScriptRun {
  std::vector<ServiceResponse> responses;  // one per verb
  engine::EngineStamp live_stamp;          // the service's stamp at the end
};

// Drives the script through a durable service over `fs`. `frame` > 1 sends
// the verbs as batch frames of that many items (the last one shorter);
// otherwise each verb is a lone request.
ScriptRun RunScript(common::Fs* fs, int checkpoint_interval,
                    size_t frame = 1) {
  ServiceConfig config;
  config.data_dir = "data";
  config.fs = fs;
  config.durability.checkpoint_interval_records = checkpoint_interval;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");
  std::vector<ServiceCommand> commands;
  for (const engine::ReplayVerb& verb : ScriptVerbs()) {
    commands.push_back(CommandFor(verb));
  }
  ScriptRun run;
  for (size_t begin = 0; begin < commands.size(); begin += frame) {
    std::span<const ServiceCommand> items(
        commands.data() + begin, std::min(frame, commands.size() - begin));
    for (ServiceResponse& response :
         service.Execute(session, items, nullptr, /*batch_frame=*/frame > 1)) {
      run.responses.push_back(std::move(response));
    }
  }
  Result<IntegrationService::ReplicationPosition> position =
      service.SampleReplicationPosition("uni");
  EXPECT_TRUE(position.ok()) << position.status().ToString();
  if (position.ok()) run.live_stamp = position->stamp;
  return run;
}

// --- the tentpole property test --------------------------------------------

// Journal K verbs through the real service, then simulate a crash at EVERY
// byte boundary of the journal: recovery must reproduce exactly the state
// a serial replay of the surviving whole-record prefix produces —
// identical EngineStamp, export, integration, outline and translation —
// while building only the prefix's last integrate, and must truncate the
// torn tail so the journal is append-ready again.
TEST(RecoveryPropertyTest, CrashAtEveryByteMatchesSerialReplay) {
  common::MemFs fs;
  std::vector<ServiceResponse> responses =
      RunScript(&fs, /*checkpoint_interval=*/0).responses;
  // The script's two poisoned verbs really were rejected (and journaled).
  EXPECT_TRUE(responses[0].ok());
  EXPECT_FALSE(responses[1].ok());
  EXPECT_FALSE(responses[3].ok());
  EXPECT_TRUE(responses[9].ok());
  // So were the integrates over an unknown schema; the one after succeeded.
  EXPECT_FALSE(responses[17].ok());
  EXPECT_FALSE(responses[18].ok());
  EXPECT_TRUE(responses[19].ok());

  Result<std::string> journal = fs.ReadFileToString(kJournalPath);
  ASSERT_TRUE(journal.ok());
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  JournalScanResult full = ScanJournal(*journal);
  ASSERT_TRUE(full.clean);
  ASSERT_EQ(full.records.size(), verbs.size());

  // Precompute the serial-replay reference for every prefix length.
  std::vector<ReferenceState> references;
  for (size_t k = 0; k <= verbs.size(); ++k) {
    references.push_back(SerialReplay(verbs, k));
  }

  for (size_t cut = 0; cut <= journal->size(); ++cut) {
    common::MemFs crashed;
    crashed.SetFile(kJournalPath, journal->substr(0, cut));

    engine::Engine engine;
    RecoveryStats stats;
    auto manager =
        RecoveryManager::Open(&crashed, kProjectDir, DurabilityOptions{},
                              engine, &stats, /*metrics=*/nullptr);
    ASSERT_TRUE(manager.ok()) << "cut at " << cut << ": "
                              << manager.status().ToString();

    JournalScanResult prefix = ScanJournal(journal->substr(0, cut));
    size_t k = prefix.records.size();
    EXPECT_EQ(stats.replayed_records, static_cast<int64_t>(k))
        << "cut at " << cut;
    EXPECT_EQ(stats.truncated_bytes,
              static_cast<int64_t>(cut - prefix.valid_bytes))
        << "cut at " << cut;
    // Only the last integrate of the tail is built.
    const int64_t integrates = IntegratesIn(verbs, k);
    EXPECT_EQ(stats.integrates_built, integrates > 0 ? 1 : 0)
        << "cut at " << cut;
    EXPECT_EQ(stats.integrates_superseded, std::max<int64_t>(integrates - 1, 0))
        << "cut at " << cut;
    ExpectServes(engine, references[k], "cut at " + std::to_string(cut));
    // The torn tail is gone and sequencing resumes after the survivors.
    EXPECT_EQ(crashed.ReadFileToString(kJournalPath)->size(),
              prefix.valid_bytes)
        << "cut at " << cut;
    uint64_t last_seq = k == 0 ? 0 : prefix.records.back().seq;
    EXPECT_EQ((*manager)->next_seq(), last_seq + 1) << "cut at " << cut;
  }
}

// Same property with checkpoints in the mix: crashes land on a journal
// that only holds the suffix past the last checkpoint, and recovery =
// checkpoint restore + suffix replay must still match a full serial
// replay from scratch. Every 4 records, the last checkpoint (seq 20)
// holds a current integration; every 6, it lands after a rejected
// integrate (seq 18) and its suffix holds a superseded integrate.
TEST(RecoveryPropertyTest, CrashAtEveryByteWithCheckpoint) {
  const std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  for (int interval : {4, 6}) {
    common::MemFs fs;
    RunScript(&fs, interval);
    const std::string where = "interval " + std::to_string(interval);

    Result<std::string> checkpoint_bytes =
        fs.ReadFileToString(kCheckpointPath);
    ASSERT_TRUE(checkpoint_bytes.ok()) << where;
    // The service writes v2 sectioned checkpoints now.
    Result<CheckpointView> checkpoint = ParseCheckpointAny(*checkpoint_bytes);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    ASSERT_GT(checkpoint->seq, 0u) << where;
    EXPECT_EQ(checkpoint->integrated, interval == 4) << where;

    Result<std::string> journal = fs.ReadFileToString(kJournalPath);
    ASSERT_TRUE(journal.ok()) << where;
    ASSERT_LT(checkpoint->seq, verbs.size()) << where;  // suffix non-empty

    for (size_t cut = 0; cut <= journal->size(); ++cut) {
      common::MemFs crashed;
      crashed.SetFile(kCheckpointPath, *checkpoint_bytes);
      crashed.SetFile(kJournalPath, journal->substr(0, cut));

      engine::Engine engine;
      RecoveryStats stats;
      auto manager =
          RecoveryManager::Open(&crashed, kProjectDir, DurabilityOptions{},
                                engine, &stats, /*metrics=*/nullptr);
      ASSERT_TRUE(manager.ok()) << where << " cut at " << cut << ": "
                                << manager.status().ToString();
      EXPECT_TRUE(stats.restored_checkpoint) << where << " cut at " << cut;
      EXPECT_EQ(stats.checkpoint_seq, checkpoint->seq)
          << where << " cut at " << cut;

      JournalScanResult prefix = ScanJournal(journal->substr(0, cut));
      size_t applied = checkpoint->seq + prefix.records.size();
      ExpectServes(engine, SerialReplay(verbs, applied),
                   where + " cut at " + std::to_string(cut));
    }
  }
}

// Replay == live for batch frames: however the script is cut into frames
// (one frame, runs of 2, runs of 3), the service ends Stamp()-identical to
// a serial replay of the script and to what recovery rebuilds from its
// journal, and every item gets the reply its lone request gets.
TEST(RecoveryPropertyTest, BatchFramesMatchSerialReplay) {
  const std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  const ReferenceState reference = SerialReplay(verbs, verbs.size());
  common::MemFs lone_fs;
  const ScriptRun lone = RunScript(&lone_fs, /*checkpoint_interval=*/0);
  EXPECT_TRUE(lone.live_stamp == reference.stamp);

  for (size_t frame : {verbs.size(), size_t{2}, size_t{3}}) {
    common::MemFs fs;
    const ScriptRun run = RunScript(&fs, /*checkpoint_interval=*/0, frame);
    EXPECT_TRUE(run.live_stamp == reference.stamp) << "frame " << frame;
    ASSERT_EQ(run.responses.size(), lone.responses.size());
    for (size_t i = 0; i < run.responses.size(); ++i) {
      EXPECT_EQ(run.responses[i].ok(), lone.responses[i].ok())
          << "frame " << frame << " verb " << i;
      EXPECT_EQ(run.responses[i].lines, lone.responses[i].lines)
          << "frame " << frame << " verb " << i;
      if (!run.responses[i].ok() && !lone.responses[i].ok()) {
        EXPECT_EQ(run.responses[i].error->message,
                  lone.responses[i].error->message)
            << "frame " << frame << " verb " << i;
      }
    }

    engine::Engine engine;
    auto manager = RecoveryManager::Open(&fs, kProjectDir, DurabilityOptions{},
                                         engine, /*stats=*/nullptr,
                                         /*metrics=*/nullptr);
    ASSERT_TRUE(manager.ok()) << manager.status().ToString();
    EXPECT_TRUE(engine.Stamp() == run.live_stamp) << "frame " << frame;
    ExpectServes(engine, reference, "frame " + std::to_string(frame));
  }
}

// A recovered service keeps working: restart on the same filesystem, read
// the project back, and append new mutations.
TEST(RecoveryTest, ServiceRestartResumesWriting) {
  common::MemFs fs;
  std::string exported_before;
  {
    ServiceConfig config;
    config.data_dir = "data";
    config.fs = &fs;
    IntegrationService service(config);
    std::string session = service.OpenSession("uni");
    ASSERT_TRUE(service.Execute(session, DefineCmd(kUniversityDdl)).ok());
    ServiceResponse exported =
        service.Execute(session, ExportCmd());
    ASSERT_TRUE(exported.ok());
    exported_before = exported.lines.empty() ? "" : exported.lines[0];
  }
  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &fs;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");
  ServiceResponse exported =
      service.Execute(session, ExportCmd());
  ASSERT_TRUE(exported.ok());
  ASSERT_FALSE(exported.lines.empty());
  EXPECT_EQ(exported.lines[0], exported_before);
  // The journal position carried over: new writes land after the old.
  EXPECT_TRUE(service
                  .Execute(session, EquivCmd({"sc1", "Student", "Name"},
                                             {"sc2", "Grad", "Name"}))
                  .ok());
  JournalScanResult scan = ScanJournal(*fs.ReadFileToString(kJournalPath));
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1].seq, 2u);
}

// --- fault-injection matrix ------------------------------------------------

// For every append index in the script: the failing write returns
// UNAVAILABLE with a retry-after hint, nothing after it mutates, reads
// still serve, and a restart on the surviving bytes recovers exactly the
// serial replay of the journaled prefix.
TEST(RecoveryFaultTest, AppendFailureAtEveryIndexDegradesThenRecovers) {
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  for (size_t fail_at = 0; fail_at < verbs.size(); ++fail_at) {
    common::MemFs base;
    common::FaultPlan plan;
    plan.fail_append_at = static_cast<int64_t>(fail_at);
    common::FaultInjectingFs faulty(&base, plan);

    ServiceConfig config;
    config.data_dir = "data";
    config.fs = &faulty;
    config.durability.checkpoint_interval_records = 0;
    config.durability.degraded_retry_after_ms = 1234;
    IntegrationService service(config);
    std::string session = service.OpenSession("uni");

    for (size_t i = 0; i < verbs.size(); ++i) {
      ServiceResponse response = Drive(service, session, verbs[i]);
      if (i < fail_at) continue;  // pre-fault behaviour covered elsewhere
      // The faulted write and everything after it: UNAVAILABLE + hint.
      ASSERT_FALSE(response.ok()) << "fail_at=" << fail_at << " verb " << i;
      EXPECT_EQ(response.error->code, ServiceErrorCode::kUnavailable)
          << "fail_at=" << fail_at << " verb " << i;
      EXPECT_EQ(response.error->retry_after_ms, 1234);
    }
    EXPECT_EQ(service.metrics().GetCounter("journal.degraded_flips")->value(),
              1);
    // Reads still work against the last published snapshot.
    EXPECT_TRUE(service.Execute(session, ExportCmd()).ok());
    ASSERT_TRUE(service.CurrentSnapshot(session) != nullptr);

    // Restart on the surviving device: state == serial replay of the
    // journaled prefix (the faulted record never made it in whole).
    Result<std::string> journal = base.ReadFileToString(kJournalPath);
    std::string surviving = journal.ok() ? *journal : std::string();
    JournalScanResult scan = ScanJournal(surviving);
    EXPECT_EQ(scan.records.size(), fail_at);

    common::MemFs recovered_fs;
    recovered_fs.SetFile(kJournalPath, surviving);
    engine::Engine engine;
    RecoveryStats stats;
    auto manager =
        RecoveryManager::Open(&recovered_fs, kProjectDir, DurabilityOptions{},
                              engine, &stats, /*metrics=*/nullptr);
    ASSERT_TRUE(manager.ok());
    ExpectServes(engine, SerialReplay(verbs, scan.records.size()),
                 "fail_at=" + std::to_string(fail_at));
  }
}

// Same matrix for short writes: the failure tears a record mid-byte, and
// recovery must drop the torn tail, not trip over it.
TEST(RecoveryFaultTest, ShortWriteTornTailIsDroppedOnRecovery) {
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  for (size_t torn_bytes : {1u, 7u, 15u, 17u, 40u}) {
    common::MemFs base;
    common::FaultPlan plan;
    plan.fail_append_at = 4;
    plan.short_write_bytes = static_cast<int64_t>(torn_bytes);
    common::FaultInjectingFs faulty(&base, plan);

    ServiceConfig config;
    config.data_dir = "data";
    config.fs = &faulty;
    config.durability.checkpoint_interval_records = 0;
    IntegrationService service(config);
    std::string session = service.OpenSession("uni");
    for (const engine::ReplayVerb& verb : verbs) {
      (void)Drive(service, session, verb);
    }

    std::string surviving = *base.ReadFileToString(kJournalPath);
    JournalScanResult scan = ScanJournal(surviving);
    EXPECT_FALSE(scan.clean) << "torn_bytes=" << torn_bytes;
    EXPECT_EQ(scan.records.size(), 4u);

    common::MemFs recovered_fs;
    recovered_fs.SetFile(kJournalPath, surviving);
    engine::Engine engine;
    RecoveryStats stats;
    auto manager =
        RecoveryManager::Open(&recovered_fs, kProjectDir, DurabilityOptions{},
                              engine, &stats, /*metrics=*/nullptr);
    ASSERT_TRUE(manager.ok());
    EXPECT_EQ(stats.truncated_bytes, static_cast<int64_t>(torn_bytes));
    ExpectServes(engine, SerialReplay(verbs, 4),
                 "torn_bytes=" + std::to_string(torn_bytes));
  }
}

// Fsync barrier failure counts as device death too: the project degrades
// even though the bytes of the current record reached the file.
TEST(RecoveryFaultTest, SyncFailureDegrades) {
  common::MemFs base;
  common::FaultPlan plan;
  plan.fail_sync_at = 2;
  common::FaultInjectingFs faulty(&base, plan);

  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &faulty;
  IntegrationService service(config);  // fsync=always: one sync per record
  std::string session = service.OpenSession("uni");
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();

  EXPECT_TRUE(Drive(service, session, verbs[0]).ok());
  EXPECT_FALSE(Drive(service, session, verbs[1]).ok());  // engine-rejected
  ServiceResponse faulted = Drive(service, session, verbs[2]);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error->code, ServiceErrorCode::kUnavailable);
  EXPECT_EQ(service.metrics().GetCounter("journal.degraded_flips")->value(),
            1);
  EXPECT_TRUE(service.Execute(session, ExportCmd()).ok());
}

// Disk-full is not device death: ENOSPC on append degrades the project
// like any journal failure, but distinctly — the error message names the
// full device (an operator frees space rather than replacing hardware),
// the `journal.enospc` counter fires, and the retry-after hint still
// rides the response.
TEST(RecoveryFaultTest, EnospcDegradesDistinctlyWithRetryHint) {
  common::MemFs base;
  common::FaultPlan plan;
  plan.fail_append_at = 1;
  plan.fail_errno = ENOSPC;
  common::FaultInjectingFs faulty(&base, plan);

  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &faulty;
  config.durability.degraded_retry_after_ms = 4321;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();

  EXPECT_TRUE(Drive(service, session, verbs[0]).ok());
  ServiceResponse faulted = Drive(service, session, verbs[2]);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.error->code, ServiceErrorCode::kUnavailable);
  EXPECT_NE(faulted.error->message.find("journal device full"),
            std::string::npos)
      << faulted.error->message;
  EXPECT_EQ(faulted.error->retry_after_ms, 4321);
  EXPECT_EQ(service.metrics().GetCounter("journal.enospc")->value(), 1);
  EXPECT_EQ(service.metrics().GetCounter("journal.degraded_flips")->value(),
            1);
  // Degraded is read-only, not down: snapshots still serve.
  EXPECT_TRUE(service.Execute(session, ExportCmd()).ok());

  // A generic journal failure does NOT claim the disk is full.
  common::MemFs base2;
  common::FaultPlan generic;
  generic.fail_append_at = 1;
  common::FaultInjectingFs faulty2(&base2, generic);
  ServiceConfig config2;
  config2.data_dir = "data";
  config2.fs = &faulty2;
  IntegrationService generic_service(config2);
  std::string session2 = generic_service.OpenSession("uni");
  EXPECT_TRUE(Drive(generic_service, session2, verbs[0]).ok());
  ServiceResponse generic_fault = Drive(generic_service, session2, verbs[2]);
  ASSERT_FALSE(generic_fault.ok());
  EXPECT_EQ(generic_fault.error->message.find("journal device full"),
            std::string::npos);
  EXPECT_EQ(
      generic_service.metrics().GetCounter("journal.enospc")->value(), 0);
}

// A checkpoint that cannot land atomically is non-fatal: writes keep
// flowing, the failure is counted, and recovery still has the full
// journal to replay from.
TEST(RecoveryFaultTest, CheckpointWriteFailureIsNonFatal) {
  common::MemFs base;
  common::FaultPlan plan;
  plan.fail_atomic_write_at = 0;
  plan.sticky = false;  // the device hiccups once, then heals
  common::FaultInjectingFs faulty(&base, plan);

  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &faulty;
  config.durability.checkpoint_interval_records = 2;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  for (const engine::ReplayVerb& verb : verbs) {
    ServiceResponse response = Drive(service, session, verb);
    // Only the two engine-rejected verbs fail; checkpoint trouble never
    // surfaces to the writer.
    if (response.ok()) continue;
    EXPECT_NE(response.error->code, ServiceErrorCode::kUnavailable);
  }
  EXPECT_GE(
      service.metrics().GetCounter("journal.checkpoint_failures")->value(),
      1);
  EXPECT_GE(service.metrics().GetCounter("journal.checkpoints")->value(), 1);
  EXPECT_EQ(service.metrics().GetCounter("journal.degraded_flips")->value(),
            0);
}

// A MemFs whose first Truncate fails. On a fresh project the only Truncate
// is the journal rotation after a checkpoint, so that rotation dies after
// closing the old append handle and before opening the new one.
class TruncateFailsOnceFs : public common::Fs {
 public:
  Result<std::unique_ptr<common::WritableFile>> OpenAppend(
      const std::string& path) override {
    return base_.OpenAppend(path);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_.ReadFileToString(path);
  }
  Status WriteFileAtomic(const std::string& path,
                         std::string_view content) override {
    return base_.WriteFileAtomic(path, content);
  }
  Status Truncate(const std::string& path, uint64_t size) override {
    if (!failed_) {
      failed_ = true;
      return InternalError("injected truncate failure");
    }
    return base_.Truncate(path, size);
  }
  Status Remove(const std::string& path) override {
    return base_.Remove(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_.CreateDirs(path);
  }
  bool Exists(const std::string& path) override { return base_.Exists(path); }

  bool failed() const { return failed_; }

 private:
  common::MemFs base_;
  bool failed_ = false;
};

// A checkpoint whose journal rotation failed leaves no append handle. A
// later checkpoint (here the SIGTERM drain's CheckpointProjects) must
// report the journal unusable instead of closing the missing handle, and
// the next write degrades the project.
TEST(RecoveryFaultTest, CheckpointAfterFailedRotationReportsUnusableJournal) {
  TruncateFailsOnceFs fs;
  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &fs;
  config.durability.checkpoint_interval_records = 2;
  IntegrationService service(config);
  std::string session = service.OpenSession("uni");
  std::vector<engine::ReplayVerb> verbs = ScriptVerbs();

  // Write until the interval checkpoint has run and its rotation failed.
  size_t next = 0;
  while (!fs.failed() && next < verbs.size()) {
    (void)Drive(service, session, verbs[next++]);
  }
  ASSERT_TRUE(fs.failed()) << "no checkpoint rotation ran";
  ASSERT_LT(next, verbs.size());

  EXPECT_EQ(service.CheckpointProjects(), 0);
  EXPECT_GE(
      service.metrics().GetCounter("journal.checkpoint_failures")->value(),
      1);

  ServiceResponse after = Drive(service, session, verbs[next]);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error->code, ServiceErrorCode::kUnavailable);
  EXPECT_TRUE(service.Execute(session, ExportCmd()).ok());
}

// Recovery itself bumps the metrics the operators watch.
TEST(RecoveryTest, RecoveryMetricsAreCharged) {
  common::MemFs fs;
  RunScript(&fs, /*checkpoint_interval=*/0);

  ServiceConfig config;
  config.data_dir = "data";
  config.fs = &fs;
  IntegrationService service(config);
  (void)service.OpenSession("uni");
  EXPECT_EQ(service.metrics().GetCounter("journal.recoveries")->value(), 1);
  EXPECT_EQ(service.metrics().GetCounter("journal.replay.records")->value(),
            static_cast<int64_t>(ScriptVerbs().size()));
  const int64_t integrates = IntegratesIn(ScriptVerbs(), ScriptVerbs().size());
  EXPECT_EQ(service.metrics()
                .GetCounter("journal.replay.integrates_built")
                ->value(),
            1);
  EXPECT_EQ(service.metrics()
                .GetCounter("journal.replay.integrates_superseded")
                ->value(),
            integrates - 1);
  EXPECT_EQ(service.metrics().GetCounter("journal.degraded_flips")->value(),
            0);
}

}  // namespace
}  // namespace ecrint::service
