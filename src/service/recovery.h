#ifndef ECRINT_SERVICE_RECOVERY_H_
#define ECRINT_SERVICE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/result.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "service/journal.h"
#include "service/metrics.h"

namespace ecrint::service {

// Knobs of the durability subsystem, set once per service instance.
struct DurabilityOptions {
  FsyncPolicy fsync = FsyncPolicy::kAlways;
  // For FsyncPolicy::kBatch: fsync every Nth appended record.
  int fsync_batch_records = 8;
  // Write a checkpoint (and rotate the journal) every Nth logged verb;
  // bounds replay work after a crash. 0 disables automatic checkpoints
  // (shutdown and explicit requests still write them).
  int checkpoint_interval_records = 256;
  // The retry-after hint attached to UNAVAILABLE responses once a project
  // is degraded.
  int64_t degraded_retry_after_ms = 1000;
};

// What recovery did, for logs, tests, and the ecrint_journal tool.
struct RecoveryStats {
  bool restored_checkpoint = false;
  uint64_t checkpoint_seq = 0;
  // Every applied tail record, superseded integrates included.
  int64_t replayed_records = 0;
  // Tail integrates replay built (the last one, if any) and the earlier
  // ones it accounted for without building (engine::ReplayTail).
  int64_t integrates_built = 0;
  int64_t integrates_superseded = 0;
  // Journal records at or below the checkpoint sequence — leftovers of a
  // rotation that failed after the checkpoint landed.
  int64_t skipped_records = 0;
  // Bytes cut from a torn or corrupt journal tail.
  int64_t truncated_bytes = 0;
};

// A checkpoint to write: the engine state with every journal record up to
// `seq` folded in. Written as v2 (below); the v1 text format
// (docs/FORMATS.md) is still read, never written:
//
//   ecrint-checkpoint v1
//   seq <N>
//   stamp <schema-gen> <equiv-gen> <assert-epoch> <log-size> <integ-version>
//   integrated <schema>...        ; present iff integration was current
//   %project
//   <core::SerializeProject text>
struct Checkpoint {
  uint64_t seq = 0;
  // Leader epoch governing the project's replication stream when the
  // checkpoint was written. Serialized as an "epoch N" meta line only when
  // non-zero, so pre-epoch checkpoints stay byte-identical.
  uint64_t epoch = 0;
  engine::EngineStamp stamp;
  bool integrated = false;
  std::vector<std::string> integrated_schemas;
  std::string project_text;
};

// --- checkpoint v2: sectioned binary format --------------------------------
// Fixed header, then a CRC-guarded section table, then the section bytes.
// All integers little-endian (docs/FORMATS.md):
//
//   header  = "ECRCKPT2" section_count:u32 table_crc:u32 reserved:u64
//   table   = section_count * entry
//   entry   = tag:u32 crc:u32 offset:u64 length:u64     ; 24 bytes
//   tag 1 (META) = the v1 header lines (seq/stamp/integrated), no magic
//   tag 2 (PROJ) = core::SerializeProject text
//
// table_crc covers the raw table bytes; each entry's crc covers its
// section's bytes. Unknown tags are skipped (forward compat). A reader
// backed by an mmap touches the header, the table, and only the sections
// it needs — restart cost is O(touched pages), not O(file size).

inline constexpr std::string_view kCheckpointV2Magic = "ECRCKPT2";
inline constexpr size_t kCheckpointV2HeaderBytes = 24;
inline constexpr size_t kCheckpointV2EntryBytes = 24;
inline constexpr uint32_t kCheckpointSectionMeta = 1;
inline constexpr uint32_t kCheckpointSectionProject = 2;
// Sanity cap on section_count: a corrupt count must not make a reader
// trust (or allocate for) a gigabyte table.
inline constexpr uint32_t kMaxCheckpointSections = 4096;

std::string SerializeCheckpointV2(const Checkpoint& checkpoint);

// A parsed checkpoint whose project text still references the underlying
// bytes (the mapping) instead of owning a copy. The referenced buffer must
// outlive the view.
struct CheckpointView {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  engine::EngineStamp stamp;
  bool integrated = false;
  std::vector<std::string> integrated_schemas;
  std::string_view project_text;
};

// Parses a checkpoint in either format, sniffed by magic: v2 validates the
// table CRC and the CRC of every section it reads; v1 falls back to the
// text parser (project_text references `bytes` directly either way).
Result<CheckpointView> ParseCheckpointAny(std::string_view bytes);

// The one checkpoint restore, shared by crash recovery and follower
// bootstrap: parses the project text into `engine` (which must be fresh),
// rebuilds the integration the checkpoint recorded as current, and adopts
// the checkpoint's stamp so the engine is Stamp()-identical to the one
// that wrote it.
Status RestoreCheckpoint(const CheckpointView& checkpoint,
                         engine::Engine& engine);

// Filesystem-safe directory name for a project: bytes outside
// [A-Za-z0-9_-] are %XX percent-encoded, so "../evil" cannot escape the
// data dir and distinct project names never collide.
std::string ProjectDirName(const std::string& project);

// Owns one project's durability state: recovers the engine at open (load
// checkpoint, replay the journal suffix, truncate any torn tail), then
// journals every verb ahead of execution and periodically checkpoints.
// Not thread-safe — lives under the project's write mutex, exactly like
// the engine it protects.
class RecoveryManager {
 public:
  // Recovers `engine` from `dir` (creating it on first use) and opens the
  // journal for appending. On any error the engine's content is
  // unspecified and the caller must treat the project as unavailable.
  // `metrics` may be null (standalone tools).
  static Result<std::unique_ptr<RecoveryManager>> Open(
      common::Fs* fs, std::string dir, const DurabilityOptions& options,
      engine::Engine& engine, RecoveryStats* stats,
      MetricsRegistry* metrics);

  // Journals one run of writes. Called BEFORE any verb of the run touches
  // the engine; failure means the caller must apply none of them and flips
  // the project to degraded read-only mode. A run of one record is
  // appended and synced per the fsync policy (kBatch: every Nth record);
  // a longer run is group-committed — appended without syncs, then ONE
  // barrier covers it (kAlways and kBatch: one fsync per run).
  Status LogRun(std::span<const engine::ReplayVerb> verbs);

  // Writes a checkpoint of the engine's current state and rotates the
  // journal. An atomic-write failure is non-fatal (the previous checkpoint
  // and the full journal still recover everything); a rotation failure
  // closes the journal, so the next LogRun fails and degrades the
  // project.
  Status WriteCheckpoint(engine::Engine& engine);

  // WriteCheckpoint every checkpoint_interval_records logged verbs.
  // Failures are swallowed (counted in journal.checkpoint_failures).
  void MaybeCheckpoint(engine::Engine& engine);

  // Follower bootstrap: persists a checkpoint received from the leader
  // (already-serialized bytes, either format) and rotates the journal so
  // the next logged record continues the leader's stream at `seq + 1`.
  // The caller has already loaded the checkpoint into its engine.
  Status InstallCheckpoint(std::string_view bytes, uint64_t seq);

  // Follower divergence reset: removes the checkpoint and rotates the
  // journal empty so the next bootstrap starts from nothing. The sequence
  // counter is left alone (the next InstallCheckpoint moves it forward on
  // the leader's authority).
  Status Reset();

  uint64_t next_seq() const { return journal_->next_seq(); }
  const std::string& dir() const { return dir_; }
  const DurabilityOptions& options() const { return options_; }

  // The leader epoch persisted with this project (0 until failover ever
  // happened). Loaded from the checkpoint at Open; written into every
  // checkpoint. The service raises it on promote/demote and on epochs
  // learned from the replication stream.
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

  static std::string JournalPath(const std::string& dir);
  static std::string CheckpointPath(const std::string& dir);

 private:
  RecoveryManager(common::Fs* fs, std::string dir,
                  const DurabilityOptions& options, MetricsRegistry* metrics);

  common::Fs* fs_;
  std::string dir_;
  DurabilityOptions options_;
  std::unique_ptr<Journal> journal_;
  int records_since_checkpoint_ = 0;
  uint64_t epoch_ = 0;

  // Resolved once; null when no registry was supplied.
  Counter* appends_ = nullptr;
  Counter* append_bytes_ = nullptr;
  Counter* fsyncs_ = nullptr;
  Counter* append_failures_ = nullptr;
  Counter* checkpoints_ = nullptr;
  Counter* checkpoint_failures_ = nullptr;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_RECOVERY_H_
