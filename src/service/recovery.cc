#include "service/recovery.h"

#include <cstdlib>
#include <utility>

#include "common/checksum.h"
#include "common/strings.h"
#include "core/project_io.h"

namespace ecrint::service {

namespace {

constexpr char kCheckpointMagic[] = "ecrint-checkpoint v1";
constexpr char kProjectMarker[] = "%project";

void Bump(Counter* counter, int64_t delta = 1) {
  if (counter != nullptr && delta != 0) counter->Increment(delta);
}

Result<int64_t> ParseInt64(const std::string& token) {
  char* end = nullptr;
  long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return ParseError("expected integer, got '" + token + "'");
  }
  return static_cast<int64_t>(value);
}

// The checkpoint header both formats share: v1 writes it between its magic
// line and %project, v2 stores it as the META section. Lines: seq, the
// optional epoch, stamp, and the optional integrated line.
std::string SerializeMetaSection(const Checkpoint& checkpoint) {
  std::string out = "seq " + std::to_string(checkpoint.seq);
  // Emitted only when a failover ever bumped it: epoch-0 checkpoints stay
  // byte-identical to pre-epoch ones.
  if (checkpoint.epoch > 0) {
    out += "\nepoch " + std::to_string(checkpoint.epoch);
  }
  out += "\nstamp " + std::to_string(checkpoint.stamp.schema_generation) +
         " " + std::to_string(checkpoint.stamp.equivalence_generation) + " " +
         std::to_string(checkpoint.stamp.assertion_epoch) + " " +
         std::to_string(checkpoint.stamp.assertion_log_size) + " " +
         std::to_string(checkpoint.stamp.integration_version);
  if (checkpoint.integrated) {
    out += "\nintegrated";
    for (const std::string& schema : checkpoint.integrated_schemas) {
      out += " " + schema;
    }
  }
  out += "\n";
  return out;
}

Status ParseMetaSection(std::string_view text, CheckpointView& view) {
  bool saw_seq = false, saw_stamp = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? text.substr(pos)
                                : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    std::vector<std::string> tokens;
    for (const std::string& token : Split(line, ' ')) {
      if (!token.empty()) tokens.push_back(token);
    }
    if (tokens.empty()) continue;
    if (tokens[0] == "seq") {
      if (tokens.size() != 2) return ParseError("malformed seq line");
      ECRINT_ASSIGN_OR_RETURN(int64_t seq, ParseInt64(tokens[1]));
      if (seq < 0) return ParseError("negative checkpoint seq");
      view.seq = static_cast<uint64_t>(seq);
      saw_seq = true;
    } else if (tokens[0] == "epoch") {
      if (tokens.size() != 2) return ParseError("malformed epoch line");
      ECRINT_ASSIGN_OR_RETURN(int64_t epoch, ParseInt64(tokens[1]));
      if (epoch < 0) return ParseError("negative checkpoint epoch");
      view.epoch = static_cast<uint64_t>(epoch);
    } else if (tokens[0] == "stamp") {
      if (tokens.size() != 6) {
        return ParseError("stamp line wants 5 counters, got " +
                          std::to_string(tokens.size() - 1));
      }
      ECRINT_ASSIGN_OR_RETURN(view.stamp.schema_generation,
                              ParseInt64(tokens[1]));
      ECRINT_ASSIGN_OR_RETURN(view.stamp.equivalence_generation,
                              ParseInt64(tokens[2]));
      ECRINT_ASSIGN_OR_RETURN(view.stamp.assertion_epoch,
                              ParseInt64(tokens[3]));
      ECRINT_ASSIGN_OR_RETURN(view.stamp.assertion_log_size,
                              ParseInt64(tokens[4]));
      ECRINT_ASSIGN_OR_RETURN(view.stamp.integration_version,
                              ParseInt64(tokens[5]));
      saw_stamp = true;
    } else if (tokens[0] == "integrated") {
      view.integrated = true;
      view.integrated_schemas.assign(tokens.begin() + 1, tokens.end());
    } else {
      return ParseError("unknown checkpoint meta line '" +
                        std::string(line) + "'");
    }
  }
  if (!saw_seq || !saw_stamp) {
    return ParseError("checkpoint meta missing seq or stamp line");
  }
  return Status::Ok();
}

Result<CheckpointView> ParseCheckpointV2(std::string_view bytes) {
  if (bytes.size() < kCheckpointV2HeaderBytes) {
    return ParseError("checkpoint v2 truncated inside header (" +
                      std::to_string(bytes.size()) + " bytes)");
  }
  const char* p = bytes.data();
  uint32_t section_count = GetU32Le(p + 8);
  uint32_t table_crc = GetU32Le(p + 12);
  if (section_count > kMaxCheckpointSections) {
    return ParseError("implausible checkpoint section count " +
                      std::to_string(section_count));
  }
  size_t table_bytes =
      static_cast<size_t>(section_count) * kCheckpointV2EntryBytes;
  if (bytes.size() - kCheckpointV2HeaderBytes < table_bytes) {
    return ParseError("checkpoint v2 truncated inside section table");
  }
  std::string_view table = bytes.substr(kCheckpointV2HeaderBytes, table_bytes);
  if (common::Crc32c(table) != table_crc) {
    return ParseError("checkpoint v2 section table checksum mismatch");
  }
  CheckpointView view;
  bool saw_meta = false, saw_project = false;
  for (uint32_t i = 0; i < section_count; ++i) {
    const char* entry = table.data() + i * kCheckpointV2EntryBytes;
    uint32_t tag = GetU32Le(entry);
    uint32_t crc = GetU32Le(entry + 4);
    uint64_t offset = GetU64Le(entry + 8);
    uint64_t length = GetU64Le(entry + 16);
    if (tag != kCheckpointSectionMeta && tag != kCheckpointSectionProject) {
      continue;  // Forward compat: never read, never checksummed.
    }
    if (offset > bytes.size() || bytes.size() - offset < length) {
      return ParseError("checkpoint v2 section " + std::to_string(tag) +
                        " extends past end of file");
    }
    std::string_view section = bytes.substr(offset, length);
    if (common::Crc32c(section) != crc) {
      return ParseError("checkpoint v2 section " + std::to_string(tag) +
                        " checksum mismatch");
    }
    if (tag == kCheckpointSectionMeta) {
      ECRINT_RETURN_IF_ERROR(ParseMetaSection(section, view));
      saw_meta = true;
    } else {
      view.project_text = section;
      saw_project = true;
    }
  }
  if (!saw_meta || !saw_project) {
    return ParseError("checkpoint v2 missing meta or project section");
  }
  return view;
}

// v1: the magic line, the meta lines, a "%project" line, then the project
// text, which the view references in place.
Result<CheckpointView> ParseCheckpointV1(std::string_view text) {
  size_t eol = text.find('\n');
  if (text.substr(0, eol) != kCheckpointMagic) {
    return ParseError("not a checkpoint file (bad magic line)");
  }
  const size_t meta_begin = eol == std::string_view::npos ? text.size()
                                                          : eol + 1;
  for (size_t pos = meta_begin; pos < text.size();) {
    eol = text.find('\n', pos);
    if (text.substr(pos, eol == std::string_view::npos ? eol : eol - pos) ==
        kProjectMarker) {
      CheckpointView view;
      ECRINT_RETURN_IF_ERROR(
          ParseMetaSection(text.substr(meta_begin, pos - meta_begin), view));
      if (eol != std::string_view::npos) {
        view.project_text = text.substr(eol + 1);
      }
      return view;
    }
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
  }
  return ParseError("checkpoint has no " + std::string(kProjectMarker) +
                    " section");
}

}  // namespace

std::string SerializeCheckpoint(const Checkpoint& checkpoint) {
  std::string out = kCheckpointMagic;
  out += "\n";
  out += SerializeMetaSection(checkpoint);
  out += kProjectMarker;
  out += "\n";
  out += checkpoint.project_text;
  return out;
}

Result<Checkpoint> ParseCheckpoint(std::string_view text) {
  ECRINT_ASSIGN_OR_RETURN(CheckpointView view, ParseCheckpointV1(text));
  Checkpoint checkpoint;
  checkpoint.seq = view.seq;
  checkpoint.epoch = view.epoch;
  checkpoint.stamp = view.stamp;
  checkpoint.integrated = view.integrated;
  checkpoint.integrated_schemas = std::move(view.integrated_schemas);
  checkpoint.project_text = std::string(view.project_text);
  return checkpoint;
}

std::string SerializeCheckpointV2(const Checkpoint& checkpoint) {
  std::string meta = SerializeMetaSection(checkpoint);
  struct Section {
    uint32_t tag;
    std::string_view bytes;
  };
  const Section sections[] = {
      {kCheckpointSectionMeta, meta},
      {kCheckpointSectionProject, checkpoint.project_text},
  };
  constexpr uint32_t kCount =
      static_cast<uint32_t>(sizeof(sections) / sizeof(sections[0]));

  // Sections start right after the header and table, in table order.
  uint64_t offset =
      kCheckpointV2HeaderBytes + kCount * kCheckpointV2EntryBytes;
  std::string table;
  table.reserve(kCount * kCheckpointV2EntryBytes);
  for (const Section& section : sections) {
    PutU32Le(table, section.tag);
    PutU32Le(table, common::Crc32c(section.bytes));
    PutU64Le(table, offset);
    PutU64Le(table, section.bytes.size());
    offset += section.bytes.size();
  }

  std::string out;
  out.reserve(offset);
  out.append(kCheckpointV2Magic);
  PutU32Le(out, kCount);
  PutU32Le(out, common::Crc32c(table));
  PutU64Le(out, 0);  // reserved
  out.append(table);
  for (const Section& section : sections) {
    out.append(section.bytes);
  }
  return out;
}

Result<CheckpointView> ParseCheckpointAny(std::string_view bytes) {
  if (bytes.substr(0, kCheckpointV2Magic.size()) == kCheckpointV2Magic) {
    return ParseCheckpointV2(bytes);
  }
  return ParseCheckpointV1(bytes);
}

Status RestoreCheckpoint(const CheckpointView& checkpoint,
                         engine::Engine& engine) {
  // core::ParseProject wants an owned string; this is the one copy.
  ECRINT_ASSIGN_OR_RETURN(
      core::Project project,
      core::ParseProject(std::string(checkpoint.project_text)));
  ECRINT_RETURN_IF_ERROR(engine.ImportProject(std::move(project)));
  if (checkpoint.integrated) {
    Result<const core::IntegrationResult*> integrated =
        engine.Integrate(checkpoint.integrated_schemas);
    if (!integrated.ok()) {
      return InternalError("checkpoint claims a current integration but "
                           "rebuilding it failed: " +
                           integrated.status().message());
    }
  }
  return engine.AdoptReplayStamp(checkpoint.stamp);
}

std::string ProjectDirName(const std::string& project) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(project.size());
  for (unsigned char c : project) {
    bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (safe) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xF]);
    }
  }
  return out;
}

std::string RecoveryManager::JournalPath(const std::string& dir) {
  return dir + "/journal.wal";
}

std::string RecoveryManager::CheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.ecr";
}

RecoveryManager::RecoveryManager(common::Fs* fs, std::string dir,
                                 const DurabilityOptions& options,
                                 MetricsRegistry* metrics)
    : fs_(fs), dir_(std::move(dir)), options_(options) {
  if (metrics != nullptr) {
    appends_ = metrics->GetCounter("journal.appends");
    append_bytes_ = metrics->GetCounter("journal.append_bytes");
    fsyncs_ = metrics->GetCounter("journal.fsyncs");
    append_failures_ = metrics->GetCounter("journal.append_failures");
    checkpoints_ = metrics->GetCounter("journal.checkpoints");
    checkpoint_failures_ = metrics->GetCounter("journal.checkpoint_failures");
  }
}

Result<std::unique_ptr<RecoveryManager>> RecoveryManager::Open(
    common::Fs* fs, std::string dir, const DurabilityOptions& options,
    engine::Engine& engine, RecoveryStats* stats, MetricsRegistry* metrics) {
  RecoveryStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = RecoveryStats{};

  ECRINT_RETURN_IF_ERROR(fs->CreateDirs(dir));
  std::unique_ptr<RecoveryManager> manager(
      new RecoveryManager(fs, std::move(dir), options, metrics));

  // 1. Checkpoint, when present: the engine state with records <= seq
  //    folded in, stamped exactly as the original engine was. The file is
  //    mapped, not read: v2's header and section table are validated from
  //    the first page(s), and only the bytes the parsers actually touch
  //    are faulted in.
  const std::string checkpoint_path = CheckpointPath(manager->dir_);
  if (fs->Exists(checkpoint_path)) {
    ECRINT_ASSIGN_OR_RETURN(std::unique_ptr<common::MmapFile> mapping,
                            fs->OpenMmap(checkpoint_path));
    ECRINT_ASSIGN_OR_RETURN(CheckpointView checkpoint,
                            ParseCheckpointAny(mapping->view()));
    ECRINT_RETURN_IF_ERROR(RestoreCheckpoint(checkpoint, engine));
    stats->restored_checkpoint = true;
    stats->checkpoint_seq = checkpoint.seq;
    manager->epoch_ = checkpoint.epoch;
  } else {
    engine::BeginReplay(engine);
  }

  // 2. Journal: longest valid prefix replays; a torn tail is truncated so
  //    the next append starts at a clean record boundary.
  const std::string journal_path = JournalPath(manager->dir_);
  uint64_t last_seq = stats->checkpoint_seq;
  if (fs->Exists(journal_path)) {
    ECRINT_ASSIGN_OR_RETURN(std::string bytes,
                            fs->ReadFileToString(journal_path));
    JournalScanResult scan = ScanJournal(bytes);
    uint64_t cut = scan.valid_bytes;
    for (const JournalRecord& record : scan.records) {
      if (record.seq <= stats->checkpoint_seq) {
        ++stats->skipped_records;
        continue;
      }
      Result<engine::ReplayVerb> verb =
          engine::DecodeReplayVerb(record.payload);
      if (!verb.ok()) {
        // Checksum-valid but unparseable: damage the CRC cannot see
        // (version skew, writer bug). Cut here like any other torn tail.
        cut = record.offset;
        scan.clean = false;
        break;
      }
      // The verb's own outcome is irrelevant: the engine is deterministic,
      // so a rejected verb replays to the identical rejection, and the
      // original execution journaled it regardless.
      (void)engine::ApplyReplayVerb(engine, *verb);
      ++stats->replayed_records;
      last_seq = record.seq;
    }
    if (!scan.clean) {
      stats->truncated_bytes =
          static_cast<int64_t>(scan.total_bytes - cut);
      ECRINT_RETURN_IF_ERROR(fs->Truncate(journal_path, cut));
    }
  }

  // 3. Reopen for appending; sequence numbers continue past everything
  //    ever assigned (checkpointed or replayed).
  ECRINT_ASSIGN_OR_RETURN(
      manager->journal_,
      Journal::Open(fs, journal_path, last_seq + 1, options.fsync,
                    options.fsync_batch_records));

  if (metrics != nullptr) {
    metrics->GetCounter("journal.recoveries")->Increment();
    Bump(metrics->GetCounter("journal.replay.records"),
         stats->replayed_records);
    Bump(metrics->GetCounter("journal.replay.skipped"),
         stats->skipped_records);
    Bump(metrics->GetCounter("journal.replay.truncated_bytes"),
         stats->truncated_bytes);
  }
  return manager;
}

Status RecoveryManager::LogRun(std::span<const engine::ReplayVerb> verbs) {
  int64_t appends_before = journal_->appends();
  int64_t bytes_before = journal_->appended_bytes();
  int64_t fsyncs_before = journal_->fsyncs();
  Status status = Status::Ok();
  if (verbs.size() == 1) {
    status = journal_->Append(engine::EncodeReplayVerb(verbs.front()));
  } else {
    for (const engine::ReplayVerb& verb : verbs) {
      status = journal_->AppendDeferred(engine::EncodeReplayVerb(verb));
      if (!status.ok()) break;
    }
    if (status.ok()) status = journal_->CommitBatch();
  }
  Bump(appends_, journal_->appends() - appends_before);
  Bump(append_bytes_, journal_->appended_bytes() - bytes_before);
  Bump(fsyncs_, journal_->fsyncs() - fsyncs_before);
  if (!status.ok()) {
    Bump(append_failures_);
    return status;
  }
  records_since_checkpoint_ += static_cast<int>(verbs.size());
  return Status::Ok();
}

Status RecoveryManager::WriteCheckpoint(engine::Engine& engine) {
  Checkpoint checkpoint;
  checkpoint.seq = journal_->next_seq() - 1;
  checkpoint.epoch = epoch_;
  // Export first: it materializes the equivalence map if absent, which
  // bumps a generation — the stamp must be read after.
  checkpoint.project_text = engine.ExportProject();
  checkpoint.stamp = engine.Stamp();
  checkpoint.integrated = engine.IntegrationCurrent();
  if (checkpoint.integrated) {
    checkpoint.integrated_schemas = engine.integrated_schemas();
  }

  // Make everything the checkpoint covers durable before the rotation can
  // discard the journal copy of it.
  ECRINT_RETURN_IF_ERROR(journal_->SyncNow());
  Status written = fs_->WriteFileAtomic(CheckpointPath(dir_),
                                        SerializeCheckpointV2(checkpoint));
  if (!written.ok()) {
    // Non-fatal: the previous checkpoint plus the intact journal still
    // recover everything.
    Bump(checkpoint_failures_);
    return written;
  }
  Bump(checkpoints_);
  records_since_checkpoint_ = 0;
  Status rotated = journal_->Rotate();
  if (!rotated.ok()) {
    // The append handle is gone; the next LogRun fails and the service
    // degrades the project. Recovery skips the stale records by sequence.
    Bump(checkpoint_failures_);
    return rotated;
  }
  return Status::Ok();
}

Status RecoveryManager::InstallCheckpoint(std::string_view bytes,
                                          uint64_t seq) {
  ECRINT_RETURN_IF_ERROR(fs_->WriteFileAtomic(CheckpointPath(dir_), bytes));
  Bump(checkpoints_);
  records_since_checkpoint_ = 0;
  Status rotated = journal_->RotateTo(seq + 1);
  if (!rotated.ok()) Bump(checkpoint_failures_);
  return rotated;
}

Status RecoveryManager::Reset() {
  const std::string checkpoint_path = CheckpointPath(dir_);
  if (fs_->Exists(checkpoint_path)) {
    ECRINT_RETURN_IF_ERROR(fs_->Remove(checkpoint_path));
  }
  // Recreate the journal from scratch: unlike RotateTo this may move the
  // sequence counter backwards, because the whole stream identity is being
  // discarded (the next InstallCheckpoint re-anchors it).
  journal_.reset();
  ECRINT_RETURN_IF_ERROR(fs_->Truncate(JournalPath(dir_), 0));
  ECRINT_ASSIGN_OR_RETURN(
      journal_, Journal::Open(fs_, JournalPath(dir_), 1, options_.fsync,
                              options_.fsync_batch_records));
  records_since_checkpoint_ = 0;
  return Status::Ok();
}

void RecoveryManager::MaybeCheckpoint(engine::Engine& engine) {
  if (options_.checkpoint_interval_records <= 0) return;
  if (records_since_checkpoint_ < options_.checkpoint_interval_records) {
    return;
  }
  // Reset even on failure so a persistently failing checkpoint is retried
  // once per interval, not once per write.
  records_since_checkpoint_ = 0;
  (void)WriteCheckpoint(engine);
}

}  // namespace ecrint::service
