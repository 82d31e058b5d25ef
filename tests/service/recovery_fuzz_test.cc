// Deterministic mutation fuzz of what crash recovery reads: journal
// payloads and checkpoint project sections (v1 and v2), each mutated and
// then re-framed with valid checksums, so the damage gets past the CRCs
// into DecodeReplayVerb, ReplayTail and RestoreCheckpoint. The invariant:
// RecoveryManager::Open either fails with a status, or leaves the engine
// serving exactly what applying the verbs it accepted one by one through
// ApplyReplayVerb serves (stamp, export, outline, translate). Nothing may
// crash; tools/ci.sh --suite recovery runs this under ASan/UBSan.
//
// All randomness is a fixed-seed LCG so every run covers the same corpus.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint_v1.h"
#include "common/fs.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "replay_oracle.h"
#include "service/journal.h"
#include "service/recovery.h"

namespace ecrint::service {
namespace {

constexpr const char* kProjectDir = "data/uni";
constexpr const char* kJournalPath = "data/uni/journal.wal";
constexpr const char* kCheckpointPath = "data/uni/checkpoint.ecr";

// Deterministic 64-bit LCG (MMIX constants): the corpus must be identical
// on every run and platform.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 17;
  }
  uint64_t Next(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

 private:
  uint64_t state_;
};

// The files a durable node leaves after journaling and applying `verbs`,
// with a checkpoint written after the first `checkpoint_after` of them
// (0: none), through the real RecoveryManager.
struct DataDir {
  std::string checkpoint;  // empty when none was written
  std::string journal;
};

DataDir WriteDataDir(const std::vector<engine::ReplayVerb>& verbs,
                     size_t checkpoint_after) {
  common::MemFs fs;
  engine::Engine engine;
  DurabilityOptions options;
  options.checkpoint_interval_records = 0;
  auto manager = RecoveryManager::Open(&fs, kProjectDir, options, engine,
                                       /*stats=*/nullptr, /*metrics=*/nullptr);
  EXPECT_TRUE(manager.ok()) << manager.status().ToString();
  if (!manager.ok()) return {};
  for (size_t i = 0; i < verbs.size(); ++i) {
    EXPECT_TRUE((*manager)->LogRun(std::span(verbs).subspan(i, 1)).ok());
    (void)engine::ApplyReplayVerb(engine, verbs[i]);
    if (i + 1 == checkpoint_after) {
      EXPECT_TRUE((*manager)->WriteCheckpoint(engine).ok());
    }
  }
  DataDir dir;
  if (fs.Exists(kCheckpointPath)) {
    dir.checkpoint = *fs.ReadFileToString(kCheckpointPath);
  }
  dir.journal = *fs.ReadFileToString(kJournalPath);
  return dir;
}

// Bytes the text formats treat specially, and tokens lifted from the
// corpus, so mutations often stay parseable but mean something else.
char RandomByte(Lcg& rng) {
  static constexpr char kSpecial[] = " .\\\n{};:,[]01239-";
  if (rng.Next(3) == 0) return static_cast<char>(rng.Next(256));
  return kSpecial[rng.Next(sizeof(kSpecial) - 1)];
}

std::vector<std::string> Tokens(const std::vector<std::string>& texts) {
  std::vector<std::string> tokens;
  for (const std::string& text : texts) {
    for (const std::string& token : Split(text, ' ')) {
      if (!token.empty()) tokens.push_back(token);
    }
  }
  return tokens;
}

// One random edit of `text`: overwrite, erase, insert, replace a token
// with one from the pool, duplicate a slice, or truncate.
void MutateText(Lcg& rng, const std::vector<std::string>& pool,
                std::string& text) {
  size_t at = rng.Next(text.size() + 1);
  switch (rng.Next(6)) {
    case 0:
      if (!text.empty()) text[rng.Next(text.size())] = RandomByte(rng);
      break;
    case 1:
      text.erase(at, 1 + rng.Next(8));
      break;
    case 2:
      for (uint64_t n = 1 + rng.Next(8); n > 0; --n) {
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    RandomByte(rng));
      }
      break;
    case 3: {
      size_t begin = text.rfind(' ', at == 0 ? 0 : at - 1);
      begin = begin == std::string::npos ? 0 : begin + 1;
      size_t end = text.find(' ', begin);
      if (end == std::string::npos) end = text.size();
      text.replace(begin, end - begin, pool[rng.Next(pool.size())]);
      break;
    }
    case 4: {
      size_t from = rng.Next(text.size() + 1);
      std::string slice = text.substr(from, rng.Next(24));
      text.insert(at, slice);
      break;
    }
    default:
      text.resize(at);
      break;
  }
}

// One random line-level edit of `text`: drop, duplicate or swap lines, so
// the result often still parses as a project but says something else.
void MutateLines(Lcg& rng, std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  size_t i = rng.Next(lines.size());
  size_t j = rng.Next(lines.size());
  switch (rng.Next(3)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(j), lines[i]);
      break;
    default:
      std::swap(lines[i], lines[j]);
      break;
  }
  text = Join(lines, "\n");
}

// The records of `journal` with seqs renumbered from `first_seq`, after
// random record-level edits (swap, duplicate, drop, replace with another
// corpus payload) and payload edits.
std::string MutateJournal(Lcg& rng, const std::string& journal,
                          uint64_t first_seq,
                          const std::vector<std::string>& payloads,
                          const std::vector<std::string>& pool) {
  std::vector<std::string> records;
  for (const JournalRecord& record : ScanJournal(journal).records) {
    records.push_back(record.payload);
  }
  for (uint64_t edits = 1 + rng.Next(3); edits > 0; --edits) {
    size_t i = rng.Next(records.size());
    switch (rng.Next(6)) {
      case 0:
        if (!records.empty()) {
          std::swap(records[i], records[rng.Next(records.size())]);
        }
        break;
      case 1:
        if (!records.empty() && records.size() < 40) {
          records.insert(records.begin() + static_cast<std::ptrdiff_t>(
                                                rng.Next(records.size() + 1)),
                         records[i]);
        }
        break;
      case 2:
        if (!records.empty()) {
          records.erase(records.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case 3:
        if (records.size() < 40) {
          records.insert(
              records.begin() + static_cast<std::ptrdiff_t>(
                                    rng.Next(records.size() + 1)),
              payloads[rng.Next(payloads.size())]);
        }
        break;
      default:
        if (!records.empty()) MutateText(rng, pool, records[i]);
        break;
    }
  }
  std::string out;
  for (size_t i = 0; i < records.size(); ++i) {
    out += EncodeJournalRecord(first_seq + i, records[i]);
  }
  return out;
}

// The verbs recovery accepts from `journal`: every record past
// `checkpoint_seq`, up to the first one that does not decode.
std::vector<engine::ReplayVerb> AcceptedVerbs(const std::string& journal,
                                              uint64_t checkpoint_seq) {
  std::vector<engine::ReplayVerb> verbs;
  for (const JournalRecord& record : ScanJournal(journal).records) {
    if (record.seq <= checkpoint_seq) continue;
    Result<engine::ReplayVerb> verb = engine::DecodeReplayVerb(record.payload);
    if (!verb.ok()) break;
    verbs.push_back(*std::move(verb));
  }
  return verbs;
}

// Recovers a data directory and checks the invariant. Returns whether Open
// succeeded.
bool RecoverAndCheck(const std::string& checkpoint, const std::string& journal,
                     const std::string& where) {
  common::MemFs fs;
  if (!checkpoint.empty()) fs.SetFile(kCheckpointPath, checkpoint);
  fs.SetFile(kJournalPath, journal);
  engine::Engine engine;
  RecoveryStats stats;
  auto manager = RecoveryManager::Open(&fs, kProjectDir, DurabilityOptions{},
                                       engine, &stats, /*metrics=*/nullptr);

  // The reference: the same checkpoint restored into a fresh engine, then
  // every accepted verb applied one by one.
  engine::Engine reference;
  uint64_t checkpoint_seq = 0;
  if (checkpoint.empty()) {
    engine::BeginReplay(reference);
  } else {
    Result<CheckpointView> view = ParseCheckpointAny(checkpoint);
    Status restored =
        view.ok() ? RestoreCheckpoint(*view, reference) : view.status();
    // Open restores through the same function, so both fail or neither.
    EXPECT_EQ(manager.ok(), restored.ok())
        << where << ": " << restored.ToString();
    if (!restored.ok()) return false;
    checkpoint_seq = view->seq;
  }
  EXPECT_TRUE(manager.ok()) << where << ": " << manager.status().ToString();
  if (!manager.ok()) return false;

  std::vector<engine::ReplayVerb> accepted =
      AcceptedVerbs(journal, checkpoint_seq);
  EXPECT_EQ(stats.replayed_records, static_cast<int64_t>(accepted.size()))
      << where;
  EXPECT_EQ(stats.integrates_built + stats.integrates_superseded,
            IntegratesIn(accepted, accepted.size()))
      << where;
  ExpectServes(engine, ApplyEach(reference, accepted), where);
  return true;
}

struct Corpus {
  std::vector<std::string> payloads;  // every script verb's journal payload
  std::vector<std::string> pool;      // their tokens and the DDL's
};

Corpus MakeCorpus(const std::vector<engine::ReplayVerb>& verbs,
                  const std::string& project_text) {
  Corpus corpus;
  for (const engine::ReplayVerb& verb : verbs) {
    corpus.payloads.push_back(engine::EncodeReplayVerb(verb));
  }
  std::vector<std::string> texts = corpus.payloads;
  texts.push_back(project_text);
  corpus.pool = Tokens(texts);
  return corpus;
}

// Journal payloads mutated and re-checksummed, recovered without a
// checkpoint: decoding stops at the first payload that does not parse,
// and ReplayTail over the rest (integrates moved, duplicated, dropped)
// ends where applying each of them does.
TEST(RecoveryFuzzTest, MutatedJournalRecoversLikeSerialReplay) {
  const std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  const DataDir dir = WriteDataDir(verbs, /*checkpoint_after=*/0);
  const Corpus corpus = MakeCorpus(verbs, "");
  Lcg rng(0x5eed0001);
  for (int i = 0; i < 500; ++i) {
    std::string journal = MutateJournal(rng, dir.journal, /*first_seq=*/1,
                                        corpus.payloads, corpus.pool);
    EXPECT_TRUE(RecoverAndCheck("", journal, "case " + std::to_string(i)));
  }
}

// Checkpoint project sections (and sometimes the meta they carry) mutated
// and re-serialized with valid checksums in both formats, followed by a
// mutated journal tail: restore either fails cleanly, or the tail replays
// on top of it exactly as applying each verb does.
TEST(RecoveryFuzzTest, MutatedCheckpointFailsCleanlyOrRecoversLikeSerial) {
  const std::vector<engine::ReplayVerb> verbs = ScriptVerbs();
  // After 20 verbs the integration is current; after 18 it is not (the
  // last integrate was rejected).
  for (size_t checkpoint_after : {size_t{20}, size_t{18}}) {
    const DataDir dir = WriteDataDir(verbs, checkpoint_after);
    Result<CheckpointView> view = ParseCheckpointAny(dir.checkpoint);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    Checkpoint base;
    base.seq = view->seq;
    base.stamp = view->stamp;
    base.integrated = view->integrated;
    base.integrated_schemas = view->integrated_schemas;
    base.project_text = std::string(view->project_text);
    const Corpus corpus = MakeCorpus(verbs, base.project_text);

    Lcg rng(0x5eed0002 + checkpoint_after);
    int restored = 0;
    for (int i = 0; i < 1000; ++i) {
      Checkpoint checkpoint = base;
      for (uint64_t edits = rng.Next(3); edits > 0; --edits) {
        if (rng.Next(2) == 0) {
          MutateLines(rng, checkpoint.project_text);
        } else {
          MutateText(rng, corpus.pool, checkpoint.project_text);
        }
      }
      if (rng.Next(8) == 0) checkpoint.integrated = !checkpoint.integrated;
      if (rng.Next(8) == 0) {
        checkpoint.integrated_schemas = {
            corpus.pool[rng.Next(corpus.pool.size())]};
      }
      if (rng.Next(8) == 0) {
        checkpoint.stamp.integration_version += rng.Next(3);
      }
      std::string journal =
          rng.Next(2) == 0
              ? dir.journal
              : MutateJournal(rng, dir.journal, base.seq + 1,
                              corpus.payloads, corpus.pool);
      const bool v1 = i % 2 == 0;
      std::string bytes =
          v1 ? SerializeCheckpoint(checkpoint) : SerializeCheckpointV2(checkpoint);
      std::string where = "checkpoint after " +
                          std::to_string(checkpoint_after) + (v1 ? " v1" : " v2") +
                          " case " + std::to_string(i);
      if (RecoverAndCheck(bytes, journal, where)) ++restored;
    }
    // The corpus reaches past restore, not only into its error paths.
    EXPECT_GT(restored, 200) << "checkpoint after " << checkpoint_after;
  }
}

}  // namespace
}  // namespace ecrint::service
