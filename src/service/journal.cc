#include "service/journal.h"

#include <cstring>
#include <utility>

#include "common/checksum.h"

namespace ecrint::service {

void PutU32Le(std::string& out, uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
  out.push_back(static_cast<char>((v >> 16) & 0xFF));
  out.push_back(static_cast<char>((v >> 24) & 0xFF));
}

void PutU64Le(std::string& out, uint64_t v) {
  PutU32Le(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  PutU32Le(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

uint64_t GetU64Le(const char* p) {
  return static_cast<uint64_t>(GetU32Le(p)) |
         static_cast<uint64_t>(GetU32Le(p + 4)) << 32;
}

namespace {

uint32_t RecordCrc(uint64_t seq, std::string_view payload) {
  std::string seq_bytes;
  seq_bytes.reserve(8);
  PutU64Le(seq_bytes, seq);
  uint32_t crc = common::Crc32c(seq_bytes);
  return common::Crc32cExtend(crc, payload);
}

}  // namespace

std::string EncodeJournalRecord(uint64_t seq, std::string_view payload) {
  std::string out;
  out.reserve(kJournalHeaderBytes + payload.size());
  PutU32Le(out, static_cast<uint32_t>(payload.size()));
  PutU32Le(out, RecordCrc(seq, payload));
  PutU64Le(out, seq);
  out.append(payload);
  return out;
}

JournalScanResult ScanJournal(std::string_view bytes) {
  JournalScanResult result;
  result.total_bytes = bytes.size();
  uint64_t offset = 0;
  uint64_t last_seq = 0;
  bool have_seq = false;
  while (offset < bytes.size()) {
    uint64_t left = bytes.size() - offset;
    if (left < kJournalHeaderBytes) {
      result.clean = false;
      result.damage = "torn header (" + std::to_string(left) +
                      " trailing bytes) at offset " + std::to_string(offset);
      break;
    }
    const char* header = bytes.data() + offset;
    uint32_t length = GetU32Le(header);
    uint32_t crc = GetU32Le(header + 4);
    uint64_t seq = GetU64Le(header + 8);
    if (length > kMaxJournalPayloadBytes) {
      result.clean = false;
      result.damage = "implausible record length " + std::to_string(length) +
                      " at offset " + std::to_string(offset);
      break;
    }
    if (left - kJournalHeaderBytes < length) {
      result.clean = false;
      result.damage = "torn payload (want " + std::to_string(length) +
                      " bytes, have " +
                      std::to_string(left - kJournalHeaderBytes) +
                      ") at offset " + std::to_string(offset);
      break;
    }
    std::string_view payload =
        bytes.substr(offset + kJournalHeaderBytes, length);
    if (RecordCrc(seq, payload) != crc) {
      result.clean = false;
      result.damage =
          "checksum mismatch at offset " + std::to_string(offset);
      break;
    }
    if (have_seq && seq <= last_seq) {
      result.clean = false;
      result.damage = "sequence regression (" + std::to_string(last_seq) +
                      " -> " + std::to_string(seq) + ") at offset " +
                      std::to_string(offset);
      break;
    }
    JournalRecord record;
    record.seq = seq;
    record.payload = std::string(payload);
    record.offset = offset;
    result.records.push_back(std::move(record));
    last_seq = seq;
    have_seq = true;
    offset += kJournalHeaderBytes + length;
  }
  result.valid_bytes = offset;
  return result;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kBatch:
      return "batch";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

Result<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "always") return FsyncPolicy::kAlways;
  if (name == "batch") return FsyncPolicy::kBatch;
  if (name == "never") return FsyncPolicy::kNever;
  return ParseError("unknown fsync policy '" + std::string(name) +
                    "' (want always|batch|never)");
}

Result<std::unique_ptr<Journal>> Journal::Open(common::Fs* fs,
                                               std::string path,
                                               uint64_t next_seq,
                                               FsyncPolicy policy,
                                               int batch_records) {
  std::unique_ptr<Journal> journal(
      new Journal(fs, std::move(path), next_seq, policy, batch_records));
  ECRINT_ASSIGN_OR_RETURN(journal->file_, fs->OpenAppend(journal->path_));
  return journal;
}

Status Journal::CheckOpen() const {
  if (file_ == nullptr) {
    return InternalError("journal unusable after failed rotation");
  }
  return Status::Ok();
}

Status Journal::Append(std::string_view payload) {
  ECRINT_RETURN_IF_ERROR(CheckOpen());
  std::string framed = EncodeJournalRecord(next_seq_, payload);
  ECRINT_RETURN_IF_ERROR(file_->Append(framed));
  ++next_seq_;
  ++appends_;
  appended_bytes_ += static_cast<int64_t>(framed.size());
  ++since_sync_;
  bool want_sync = policy_ == FsyncPolicy::kAlways ||
                   (policy_ == FsyncPolicy::kBatch &&
                    since_sync_ >= batch_records_);
  if (want_sync) {
    ECRINT_RETURN_IF_ERROR(file_->Sync());
    ++fsyncs_;
    since_sync_ = 0;
  }
  return Status::Ok();
}

Status Journal::AppendDeferred(std::string_view payload) {
  ECRINT_RETURN_IF_ERROR(CheckOpen());
  std::string framed = EncodeJournalRecord(next_seq_, payload);
  ECRINT_RETURN_IF_ERROR(file_->Append(framed));
  ++next_seq_;
  ++appends_;
  appended_bytes_ += static_cast<int64_t>(framed.size());
  ++since_sync_;
  return Status::Ok();
}

Status Journal::CommitBatch() {
  if (policy_ == FsyncPolicy::kNever || since_sync_ == 0) return Status::Ok();
  ECRINT_RETURN_IF_ERROR(CheckOpen());
  ECRINT_RETURN_IF_ERROR(file_->Sync());
  ++fsyncs_;
  since_sync_ = 0;
  return Status::Ok();
}

Status Journal::SyncNow() {
  ECRINT_RETURN_IF_ERROR(CheckOpen());
  if (since_sync_ == 0) return Status::Ok();
  ECRINT_RETURN_IF_ERROR(file_->Sync());
  ++fsyncs_;
  since_sync_ = 0;
  return Status::Ok();
}

Status Journal::Rotate() {
  ECRINT_RETURN_IF_ERROR(CheckOpen());
  ECRINT_RETURN_IF_ERROR(file_->Close());
  file_.reset();
  ECRINT_RETURN_IF_ERROR(fs_->Truncate(path_, 0));
  ECRINT_ASSIGN_OR_RETURN(file_, fs_->OpenAppend(path_));
  since_sync_ = 0;
  return Status::Ok();
}

Status Journal::RotateTo(uint64_t next_seq) {
  if (next_seq < next_seq_) {
    return InternalError("journal seq may not move backwards (" +
                         std::to_string(next_seq_) + " -> " +
                         std::to_string(next_seq) + ")");
  }
  ECRINT_RETURN_IF_ERROR(Rotate());
  next_seq_ = next_seq;
  return Status::Ok();
}

TailResult JournalTailer::Poll(size_t max_records) {
  TailResult result;
  if (!fs_->Exists(path_)) return result;
  auto bytes_or = fs_->ReadFileToString(path_);
  if (!bytes_or.ok()) {
    result.status = TailStatus::kError;
    result.message = bytes_or.status().message();
    return result;
  }
  std::string bytes = *std::move(bytes_or);
  if (bytes.size() < offset_ ||
      bytes.compare(offset_ - fingerprint_.size(), fingerprint_.size(),
                    fingerprint_) != 0) {
    // The file shrank, or the bytes we already consumed are no longer
    // there: a checkpoint rotated the journal (possibly into a new
    // incarnation that happens to be just as long). Restart the scan;
    // consumed seqs are filtered below and unseen ones surface as a gap.
    offset_ = 0;
  }
  std::string_view view(bytes);
  JournalScanResult scan = ScanJournal(view.substr(offset_));
  uint64_t base = offset_;
  for (JournalRecord& record : scan.records) {
    if (result.records.size() >= max_records) break;
    uint64_t end =
        base + record.offset + kJournalHeaderBytes + record.payload.size();
    if (record.seq <= last_seq_) {
      // Pre-rotation leftover we already delivered.
      offset_ = end;
      continue;
    }
    if (record.seq != last_seq_ + 1) {
      // The journal rotated past records we never saw; the consumer must
      // re-bootstrap from a checkpoint. Deliver what we did consume first.
      if (result.records.empty()) {
        result.status = TailStatus::kGap;
        result.message = "journal stream gap: consumed through seq " +
                         std::to_string(last_seq_) + ", next on disk is " +
                         std::to_string(record.seq);
        result.pending_bytes = bytes.size() - offset_;
        RememberFingerprint(bytes);
        return result;
      }
      break;
    }
    offset_ = end;
    last_seq_ = record.seq;
    result.records.push_back(std::move(record));
  }
  result.pending_bytes = bytes.size() - offset_;
  if (!result.records.empty()) result.status = TailStatus::kRecords;
  RememberFingerprint(bytes);
  return result;
}

void JournalTailer::RememberFingerprint(const std::string& bytes) {
  size_t n = static_cast<size_t>(
      std::min<uint64_t>(offset_, kTailFingerprintBytes));
  fingerprint_.assign(bytes, offset_ - n, n);
}

void JournalTailer::Restart(uint64_t from_seq) {
  last_seq_ = from_seq;
  offset_ = 0;
  fingerprint_.clear();
}

}  // namespace ecrint::service
