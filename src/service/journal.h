#ifndef ECRINT_SERVICE_JOURNAL_H_
#define ECRINT_SERVICE_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fs.h"
#include "common/result.h"

namespace ecrint::service {

// The per-project write-ahead journal: an append-only file of checksummed,
// length-prefixed records, one per mutating verb, written BEFORE the verb
// runs against the engine. On-disk framing (docs/FORMATS.md, "Durability
// files"):
//
//   record = length:u32le | crc:u32le | seq:u64le | payload[length]
//   crc    = CRC-32C over the 8 seq bytes followed by the payload
//
// A crash can leave a torn tail (partial header, partial payload, or a
// record whose checksum no longer matches); ScanJournal finds the longest
// valid prefix and recovery truncates the file there. Sequence numbers are
// strictly increasing across checkpoints, which is how recovery tells
// pre-checkpoint leftovers (skip) from the suffix to replay.

// Fixed-width little-endian integers, the byte order of every binary field
// in the journal and checkpoint formats. The Get forms read from `p`
// without bounds checks; callers check the length first.
void PutU32Le(std::string& out, uint32_t v);
void PutU64Le(std::string& out, uint64_t v);
uint32_t GetU32Le(const char* p);
uint64_t GetU64Le(const char* p);

inline constexpr size_t kJournalHeaderBytes = 16;
// Sanity cap on a single record; a corrupted length field must not make
// the scanner trust (or a reader allocate) gigabytes.
inline constexpr uint32_t kMaxJournalPayloadBytes = 16u << 20;

struct JournalRecord {
  uint64_t seq = 0;
  std::string payload;
  // Byte offset of this record's header in the file (where a truncation
  // would cut if the record had been damaged).
  uint64_t offset = 0;
};

struct JournalScanResult {
  // The longest valid record prefix, in file order.
  std::vector<JournalRecord> records;
  // Offset just past the last valid record — the length recovery truncates
  // the file to when the tail is damaged.
  uint64_t valid_bytes = 0;
  uint64_t total_bytes = 0;
  // True when the file ends exactly at a record boundary with every
  // checksum intact.
  bool clean = true;
  // Human-readable reason the scan stopped early (empty when clean).
  std::string damage;
};

// Frames one record.
std::string EncodeJournalRecord(uint64_t seq, std::string_view payload);

// Decodes the longest valid record prefix of `bytes`. Never fails: damage
// is reported in-band so recovery can both use the prefix and truncate.
// Enforces strictly increasing sequence numbers; a regression is damage.
JournalScanResult ScanJournal(std::string_view bytes);

// When appended records hit the durable medium.
enum class FsyncPolicy {
  kAlways,  // fsync after every record: a positive reply implies durable
  kBatch,   // fsync every Nth record: bounded loss window, much cheaper
  kNever,   // leave it to the OS: fastest, loss window unbounded
};

const char* FsyncPolicyName(FsyncPolicy policy);
Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name);

// Appender over one journal file. Not thread-safe: the caller is the
// project's single writer (the service already serializes writes per
// project on the write mutex).
class Journal {
 public:
  // Opens `path` for appending; the next record gets `next_seq`.
  static Result<std::unique_ptr<Journal>> Open(common::Fs* fs,
                                               std::string path,
                                               uint64_t next_seq,
                                               FsyncPolicy policy,
                                               int batch_records);

  // Frames, checksums, appends, and (per policy) syncs one record. Any
  // failure means the device is suspect; the caller flips the project to
  // degraded mode and stops calling.
  Status Append(std::string_view payload);

  // Group-commit pair: AppendDeferred frames and appends WITHOUT any
  // policy sync; the caller ends the run with CommitBatch, which applies
  // one durability barrier covering every record appended since the last
  // sync (kAlways and kBatch sync once per batch — true group commit;
  // kNever still leaves it to the OS). Replies for the batched verbs must
  // not be sent before CommitBatch returns Ok.
  Status AppendDeferred(std::string_view payload);
  Status CommitBatch();

  // Forces a durability barrier now (checkpoint and shutdown paths).
  Status SyncNow();

  uint64_t next_seq() const { return next_seq_; }
  int64_t appends() const { return appends_; }
  int64_t fsyncs() const { return fsyncs_; }
  int64_t appended_bytes() const { return appended_bytes_; }

  // Rotation support: truncates the file to empty and restarts the append
  // handle. Sequence numbers keep counting up (never reused).
  Status Rotate();

  // Rotation that also moves the sequence counter, for a follower that just
  // installed a leader checkpoint at seq N and must continue journaling the
  // leader's stream at N+1. Only ever moves the counter forward on the
  // leader's authority; local appends never call this.
  Status RotateTo(uint64_t next_seq);

 private:
  Journal(common::Fs* fs, std::string path, uint64_t next_seq,
          FsyncPolicy policy, int batch_records)
      : fs_(fs), path_(std::move(path)), next_seq_(next_seq),
        policy_(policy), batch_records_(batch_records < 1 ? 1
                                                          : batch_records) {}

  // file_ is null only after a Rotate that failed past its Close; from then
  // on every operation reports the journal unusable.
  Status CheckOpen() const;

  common::Fs* fs_;
  std::string path_;
  std::unique_ptr<common::WritableFile> file_;
  uint64_t next_seq_;
  FsyncPolicy policy_;
  int batch_records_;
  int since_sync_ = 0;
  int64_t appends_ = 0;
  int64_t fsyncs_ = 0;
  int64_t appended_bytes_ = 0;
};

// What one JournalTailer::Poll observed.
enum class TailStatus {
  kRecords,  // at least one new record was consumed
  kIdle,     // nothing new (possibly a torn tail mid-append — retry later)
  kGap,      // next record's seq skips ahead: the journal rotated past us
             // and the caller must re-bootstrap from a checkpoint
  kError,    // the file could not be read
};

struct TailResult {
  TailStatus status = TailStatus::kIdle;
  std::vector<JournalRecord> records;
  // Bytes present in the file beyond the last consumed record (replication
  // lag in bytes, as seen by this tailer).
  uint64_t pending_bytes = 0;
  std::string message;
};

// Incremental reader over a live journal file, used by the leader's
// replication stream and `ecrint_journal tail`. Repeated Poll() calls
// return records with seq > the construction/Restart seq exactly once, in
// order, surviving checkpoint-triggered rotation: when the file shrinks (or
// a same-size rewrite makes the remembered offset land mid-record) the
// tailer rescans from the start, skipping already-consumed seqs. A torn
// tail is NOT damage here — the writer may be mid-append — so it reads as
// kIdle until the bytes complete. Single-threaded; pair one tailer with one
// consumer.
class JournalTailer {
 public:
  // Tails `path`, delivering records with seq > `from_seq`. The file need
  // not exist yet (kIdle until it does).
  JournalTailer(common::Fs* fs, std::string path, uint64_t from_seq)
      : fs_(fs), path_(std::move(path)), last_seq_(from_seq) {}

  // Reads any newly completed records, up to `max_records` per call.
  TailResult Poll(size_t max_records = 512);

  // Rewinds to deliver records with seq > `from_seq` (after the consumer
  // re-bootstrapped from a checkpoint, say).
  void Restart(uint64_t from_seq);

  // Seq of the last record delivered (or the construction/Restart floor).
  uint64_t last_seq() const { return last_seq_; }

 private:
  static constexpr uint64_t kTailFingerprintBytes = 16;

  // Records the bytes just before offset_ so the next poll can detect a
  // rewrite that kept the file at least offset_ bytes long.
  void RememberFingerprint(const std::string& bytes);

  common::Fs* fs_;
  std::string path_;
  uint64_t last_seq_;
  // Byte offset of the first unconsumed byte in the current file incarnation.
  uint64_t offset_ = 0;
  // The bytes immediately before offset_ as last seen. A mismatch on the
  // next poll means the file was rewritten under us (rotation), even when
  // the new incarnation happens to be at least offset_ bytes long.
  std::string fingerprint_;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_JOURNAL_H_
