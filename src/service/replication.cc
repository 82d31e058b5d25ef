#include "service/replication.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include "common/checksum.h"
#include "service/net.h"
#include "service/recovery.h"

namespace ecrint::service {

namespace {

// Stamp counters are int64 (and -1 before adoption), so they travel
// zigzag-encoded.
uint64_t ZigZag(int64_t n) {
  return (static_cast<uint64_t>(n) << 1) ^
         static_cast<uint64_t>(n >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void Bump(Counter* counter, int64_t delta = 1) {
  if (counter != nullptr && delta != 0) counter->Increment(delta);
}

}  // namespace

// --- frame codecs ----------------------------------------------------------

std::string EncodeReplSubscribe(const ReplSubscribe& subscribe) {
  std::string body;
  body.push_back(static_cast<char>(kFrameReplSubscribe));
  PutLpString(body, subscribe.project);
  PutVarint(body, subscribe.have_seq);
  PutVarint(body, subscribe.epoch);
  PutLpString(body, subscribe.leader_hint);
  return FrameBody(std::move(body));
}

std::string EncodeReplHello(const ReplHello& hello) {
  std::string body;
  body.push_back(static_cast<char>(kFrameReplHello));
  PutVarint(body, hello.has_checkpoint ? 1 : 0);
  PutVarint(body, hello.seq);
  PutVarint(body, hello.total_bytes);
  PutVarint(body, hello.crc);
  PutVarint(body, hello.epoch);
  return FrameBody(std::move(body));
}

std::string EncodeReplChunk(const ReplChunk& chunk) {
  std::string body;
  body.push_back(static_cast<char>(kFrameReplChunk));
  PutVarint(body, chunk.offset);
  PutVarint(body, chunk.crc);
  PutLpString(body, chunk.bytes);
  return FrameBody(std::move(body));
}

std::string EncodeReplRecord(const ReplRecord& record) {
  std::string body;
  body.push_back(static_cast<char>(kFrameReplRecord));
  PutVarint(body, record.seq);
  PutVarint(body, record.crc);
  PutLpString(body, record.payload);
  return FrameBody(std::move(body));
}

std::string EncodeReplStamp(const ReplStamp& stamp) {
  std::string body;
  body.push_back(static_cast<char>(kFrameReplStamp));
  PutVarint(body, stamp.seq);
  PutVarint(body, ZigZag(stamp.stamp.schema_generation));
  PutVarint(body, ZigZag(stamp.stamp.equivalence_generation));
  PutVarint(body, ZigZag(stamp.stamp.assertion_epoch));
  PutVarint(body, ZigZag(stamp.stamp.assertion_log_size));
  PutVarint(body, ZigZag(stamp.stamp.integration_version));
  PutVarint(body, stamp.epoch);
  return FrameBody(std::move(body));
}

std::string EncodeReplError(std::string_view message) {
  std::string body;
  body.push_back(static_cast<char>(kFrameReplError));
  PutLpString(body, message);
  return FrameBody(std::move(body));
}

Result<ReplFrame> DecodeReplFrame(std::string_view body) {
  if (body.empty()) return ParseError("empty replication frame body");
  ReplFrame frame;
  frame.type = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  switch (frame.type) {
    case kFrameReplSubscribe: {
      std::string_view project;
      std::string_view leader_hint;
      if (!GetLpString(body, project) ||
          !GetVarint(body, frame.subscribe.have_seq)) {
        return ParseError("truncated subscribe frame");
      }
      // The epoch and leader-hint fields were appended after the frame
      // first shipped; a pre-epoch peer simply omits them. Absence decodes
      // as epoch 0 / no hint (a node that never saw a failover), so mixed-
      // version clusters keep replicating through a rolling upgrade. A
      // PRESENT field must still parse — ending mid-varint or mid-string
      // is truncation, not an old peer.
      if (!body.empty() && !GetVarint(body, frame.subscribe.epoch)) {
        return ParseError("truncated subscribe frame");
      }
      if (!body.empty() && !GetLpString(body, leader_hint)) {
        return ParseError("truncated subscribe frame");
      }
      frame.subscribe.project = std::string(project);
      frame.subscribe.leader_hint = std::string(leader_hint);
      break;
    }
    case kFrameReplHello: {
      uint64_t has = 0, crc = 0;
      if (!GetVarint(body, has) || !GetVarint(body, frame.hello.seq) ||
          !GetVarint(body, frame.hello.total_bytes) || !GetVarint(body, crc)) {
        return ParseError("truncated hello frame");
      }
      // Trailing epoch: optional, like the subscribe frame's (pre-epoch
      // leaders never send it; absence = epoch 0).
      if (!body.empty() && !GetVarint(body, frame.hello.epoch)) {
        return ParseError("truncated hello frame");
      }
      if (has > 1 || crc > 0xFFFFFFFFull) {
        return ParseError("malformed hello frame");
      }
      frame.hello.has_checkpoint = has == 1;
      frame.hello.crc = static_cast<uint32_t>(crc);
      break;
    }
    case kFrameReplChunk: {
      uint64_t crc = 0;
      std::string_view bytes;
      if (!GetVarint(body, frame.chunk.offset) || !GetVarint(body, crc) ||
          !GetLpString(body, bytes)) {
        return ParseError("truncated chunk frame");
      }
      if (crc > 0xFFFFFFFFull) return ParseError("malformed chunk frame");
      frame.chunk.crc = static_cast<uint32_t>(crc);
      frame.chunk.bytes = std::string(bytes);
      break;
    }
    case kFrameReplRecord: {
      uint64_t crc = 0;
      std::string_view payload;
      if (!GetVarint(body, frame.record.seq) || !GetVarint(body, crc) ||
          !GetLpString(body, payload)) {
        return ParseError("truncated record frame");
      }
      if (crc > 0xFFFFFFFFull) return ParseError("malformed record frame");
      frame.record.crc = static_cast<uint32_t>(crc);
      frame.record.payload = std::string(payload);
      break;
    }
    case kFrameReplStamp: {
      uint64_t counters[5];
      if (!GetVarint(body, frame.stamp.seq)) {
        return ParseError("truncated stamp frame");
      }
      for (uint64_t& counter : counters) {
        if (!GetVarint(body, counter)) {
          return ParseError("truncated stamp frame");
        }
      }
      // Trailing epoch: optional (pre-epoch leaders; absence = epoch 0).
      if (!body.empty() && !GetVarint(body, frame.stamp.epoch)) {
        return ParseError("truncated stamp frame");
      }
      frame.stamp.stamp.schema_generation = UnZigZag(counters[0]);
      frame.stamp.stamp.equivalence_generation = UnZigZag(counters[1]);
      frame.stamp.stamp.assertion_epoch = UnZigZag(counters[2]);
      frame.stamp.stamp.assertion_log_size = UnZigZag(counters[3]);
      frame.stamp.stamp.integration_version = UnZigZag(counters[4]);
      break;
    }
    case kFrameReplError: {
      std::string_view message;
      if (!GetLpString(body, message)) {
        return ParseError("truncated error frame");
      }
      frame.error = std::string(message);
      break;
    }
    default:
      return ParseError("unknown replication frame type " +
                        std::to_string(frame.type));
  }
  if (!body.empty()) {
    return ParseError("trailing garbage (" + std::to_string(body.size()) +
                      " bytes) after replication frame");
  }
  return frame;
}

// --- leader side -----------------------------------------------------------

ReplicationServer::ReplicationServer(IntegrationService* service,
                                     common::Fs* fs, std::string data_dir,
                                     Options options)
    : service_(service),
      fs_(fs),
      data_dir_(std::move(data_dir)),
      options_(options) {
  MetricsRegistry& metrics = service_->metrics();
  subscribers_gauge_ = metrics.GetGauge("repl.subscribers");
  lag_records_ = metrics.GetGauge("repl.lag_records");
  lag_bytes_ = metrics.GetGauge("repl.lag_bytes");
  records_shipped_ = metrics.GetCounter("repl.records_shipped");
  bytes_shipped_ = metrics.GetCounter("repl.bytes_shipped");
  checkpoints_shipped_ = metrics.GetCounter("repl.checkpoints_shipped");
  stale_epoch_rejects_ = metrics.GetCounter("repl.stale_epoch_rejects");
}

ReplicationServer::ReplicationServer(IntegrationService* service,
                                     common::Fs* fs, std::string data_dir)
    : ReplicationServer(service, fs, std::move(data_dir), Options()) {}

Result<uint64_t> ReplicationServer::SendBootstrap(const std::string& project,
                                                  uint64_t from,
                                                  uint64_t epoch,
                                                  ReplicationSink& sink) {
  const std::string dir = data_dir_ + "/" + ProjectDirName(project);
  const std::string path = RecoveryManager::CheckpointPath(dir);
  if (fs_->Exists(path)) {
    // WriteFileAtomic replaces by rename, so this read sees the old
    // checkpoint or the new one, never a torn mix.
    ECRINT_ASSIGN_OR_RETURN(std::string bytes, fs_->ReadFileToString(path));
    ECRINT_ASSIGN_OR_RETURN(CheckpointView view, ParseCheckpointAny(bytes));
    if (view.seq > from) {
      ReplHello hello;
      hello.has_checkpoint = true;
      hello.seq = view.seq;
      hello.total_bytes = bytes.size();
      hello.crc = common::Crc32c(bytes);
      hello.epoch = epoch;
      ECRINT_RETURN_IF_ERROR(sink.Send(EncodeReplHello(hello)));
      for (size_t offset = 0; offset < bytes.size();
           offset += options_.chunk_bytes) {
        ReplChunk chunk;
        chunk.offset = offset;
        chunk.bytes = bytes.substr(offset, options_.chunk_bytes);
        chunk.crc = common::Crc32c(chunk.bytes);
        std::string frame = EncodeReplChunk(chunk);
        ECRINT_RETURN_IF_ERROR(sink.Send(frame));
        Bump(bytes_shipped_, static_cast<int64_t>(frame.size()));
      }
      Bump(checkpoints_shipped_);
      return view.seq;
    }
  }
  // Nothing newer than what the follower already has: stream records
  // directly after its seq.
  ReplHello hello;
  hello.seq = from;
  hello.epoch = epoch;
  ECRINT_RETURN_IF_ERROR(sink.Send(EncodeReplHello(hello)));
  return from;
}

Status ReplicationServer::Serve(const ReplSubscribe& subscribe,
                                ReplicationSink& sink,
                                const std::function<bool()>& stop) {
  const std::string& project = subscribe.project;
  if (data_dir_.empty()) {
    std::string message =
        "leader has no data dir: the journal IS the replication stream";
    (void)sink.Send(EncodeReplError(message));
    return FailedPreconditionError(message);
  }
  if (!service_->LeadsWrites()) {
    // This node is (or has become) a follower or a fenced deposed leader;
    // it must not serve a stream it is not authoritative for.
    std::string leader = service_->CurrentLeaderAddr();
    std::string message =
        leader.empty()
            ? "this node is not the replication leader (fenced; the new "
              "leader's address is not yet known)"
            : "this node is not the replication leader (writes go to " +
                  leader + ")";
    (void)sink.Send(EncodeReplError(message));
    return FailedPreconditionError(message);
  }
  service_->EnsureProject(project);
  uint64_t epoch = service_->ProjectEpoch(project);
  if (subscribe.epoch > epoch) {
    // The subscriber has seen a newer leader than us: we were deposed
    // while partitioned. Fence ourselves toward the hinted address rather
    // than split-brain-serving a stale stream.
    Bump(stale_epoch_rejects_);
    (void)service_->DemoteProject(project, subscribe.epoch,
                                  subscribe.leader_hint);
    std::string message = "leader deposed: subscriber is at epoch " +
                          std::to_string(subscribe.epoch) +
                          ", this node was at " + std::to_string(epoch);
    (void)sink.Send(EncodeReplError(message));
    return FailedPreconditionError(message);
  }
  const std::string dir = data_dir_ + "/" + ProjectDirName(project);
  subscribers_gauge_->Set(subscribers_.fetch_add(1) + 1);

  auto loop = [&]() -> Status {
    uint64_t from = subscribe.have_seq;
    JournalTailer tailer(fs_, RecoveryManager::JournalPath(dir), from);
    bool need_hello = true;
    bool stamped = false;
    int idle_polls = 0;
    while (!stop()) {
      if (!service_->LeadsWrites()) {
        // Demoted or fenced mid-stream (an operator or a higher-epoch
        // subscriber on another connection): stop serving immediately.
        (void)sink.Send(
            EncodeReplError("leader demoted; resubscribe to the new leader"));
        return FailedPreconditionError("demoted while serving");
      }
      if (need_hello) {
        epoch = service_->ProjectEpoch(project);
        Result<uint64_t> start = SendBootstrap(project, from, epoch, sink);
        if (!start.ok()) {
          (void)sink.Send(EncodeReplError(start.status().message()));
          return start.status();
        }
        from = *start;
        tailer.Restart(from);
        need_hello = false;
        stamped = false;
        idle_polls = 0;
      }
      TailResult tail = tailer.Poll();
      if (tail.status == TailStatus::kError) {
        (void)sink.Send(
            EncodeReplError("leader journal unreadable: " + tail.message));
        return InternalError(tail.message);
      }
      if (tail.status == TailStatus::kGap) {
        // The journal rotated past this follower; re-bootstrap from the
        // checkpoint that caused the rotation.
        from = tailer.last_seq();
        need_hello = true;
        continue;
      }
      bool sent = false;
      for (JournalRecord& journal_record : tail.records) {
        ReplRecord record;
        record.seq = journal_record.seq;
        record.crc = common::Crc32c(journal_record.payload);
        record.payload = std::move(journal_record.payload);
        std::string frame = EncodeReplRecord(record);
        ECRINT_RETURN_IF_ERROR(sink.Send(frame));
        Bump(records_shipped_);
        Bump(bytes_shipped_, static_cast<int64_t>(frame.size()));
        sent = true;
      }
      if (sent) {
        stamped = false;
        idle_polls = 0;
      }
      if (tail.pending_bytes == 0 &&
          (!stamped || idle_polls >= options_.heartbeat_polls)) {
        Result<IntegrationService::ReplicationPosition> position =
            service_->SampleReplicationPosition(project);
        if (position.ok()) {
          // The tailer consumed every byte on disk, so position->seq can
          // only exceed tailer.last_seq() by writes that landed since the
          // poll — the next poll ships them.
          lag_records_->Set(
              static_cast<int64_t>(position->seq - tailer.last_seq()));
          lag_bytes_->Set(static_cast<int64_t>(tail.pending_bytes));
          if (position->seq == tailer.last_seq()) {
            // Stamp-at-equal-seq: the sampled stamp is exactly the state
            // the follower holds after applying record `seq`.
            ReplStamp stamp;
            stamp.seq = position->seq;
            stamp.stamp = position->stamp;
            stamp.epoch = position->epoch;
            std::string frame = EncodeReplStamp(stamp);
            ECRINT_RETURN_IF_ERROR(sink.Send(frame));
            Bump(bytes_shipped_, static_cast<int64_t>(frame.size()));
            stamped = true;
            idle_polls = 0;
          }
        }
      }
      if (!sent) {
        ++idle_polls;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.poll_interval_ms));
      }
    }
    return Status::Ok();
  };

  Status result = loop();
  subscribers_gauge_->Set(subscribers_.fetch_sub(1) - 1);
  return result;
}

// --- follower side ---------------------------------------------------------

FollowerState::FollowerState(IntegrationService* service, std::string project)
    : service_(service), project_(std::move(project)) {
  MetricsRegistry& metrics = service_->metrics();
  records_applied_ = metrics.GetCounter("repl.records_applied");
  bytes_received_ = metrics.GetCounter("repl.bytes_received");
  bootstraps_ = metrics.GetCounter("repl.bootstraps");
  stamp_checks_ = metrics.GetCounter("repl.stamp_checks");
  divergences_ = metrics.GetCounter("repl.divergences");
  stale_epoch_rejects_ = metrics.GetCounter("repl.stale_epoch_rejects");
  applied_seq_gauge_ = metrics.GetGauge("repl.applied_seq");
  lag_records_ = metrics.GetGauge("repl.lag_records");
  bootstrap_us_ = metrics.GetHistogram("repl.bootstrap");
}

Result<uint64_t> FollowerState::Prepare() {
  // A durable follower recovers its local journal + checkpoint here, so a
  // restart resumes the stream where it left off instead of re-fetching.
  service_->EnsureProject(project_);
  ECRINT_ASSIGN_OR_RETURN(IntegrationService::ReplicationPosition position,
                          service_->SampleReplicationPosition(project_));
  applied_seq_ = position.seq;
  epoch_ = position.epoch;
  // Best local knowledge of where that epoch came from: the leader address
  // the service currently tracks (an operator demotion records it there).
  // Empty when unknown — an honest empty hint beats a fabricated one.
  epoch_source_ = service_->CurrentLeaderAddr();
  applied_seq_gauge_->Set(static_cast<int64_t>(applied_seq_));
  receiving_checkpoint_ = false;
  checkpoint_bytes_.clear();
  return applied_seq_;
}

Result<FollowerState::Outcome> FollowerState::NoteEpoch(uint64_t epoch) {
  if (epoch < epoch_) {
    // A leader below our epoch was deposed — its stream must not be
    // applied, however well-formed.
    Bump(stale_epoch_rejects_);
    return Outcome::kResubscribe;
  }
  if (epoch > epoch_) {
    epoch_ = epoch;
    // The epoch was learned from the peer we are streaming from — remember
    // that address (not whatever we dial later) as its source.
    epoch_source_ = peer_addr_;
    service_->AdoptReplicationEpoch(project_, epoch);
  }
  return Outcome::kOk;
}

Result<FollowerState::Outcome> FollowerState::HandleHello(
    const ReplHello& hello) {
  ECRINT_ASSIGN_OR_RETURN(Outcome fenced, NoteEpoch(hello.epoch));
  if (fenced != Outcome::kOk) return fenced;
  if (!hello.has_checkpoint) {
    // Streaming resumes right after our seq; nothing to install.
    receiving_checkpoint_ = false;
    checkpoint_bytes_.clear();
    return Outcome::kOk;
  }
  if (hello.total_bytes == 0) {
    return Outcome::kResubscribe;  // a checkpoint is never empty
  }
  receiving_checkpoint_ = true;
  checkpoint_seq_ = hello.seq;
  checkpoint_total_ = hello.total_bytes;
  checkpoint_crc_ = hello.crc;
  checkpoint_bytes_.clear();
  bootstrap_started_ns_ = service_->clock()->NowNs();
  return Outcome::kOk;
}

Result<FollowerState::Outcome> FollowerState::HandleChunk(
    const ReplChunk& chunk) {
  if (!receiving_checkpoint_ ||
      chunk.offset != checkpoint_bytes_.size() ||
      common::Crc32c(chunk.bytes) != chunk.crc ||
      checkpoint_bytes_.size() + chunk.bytes.size() > checkpoint_total_) {
    receiving_checkpoint_ = false;
    checkpoint_bytes_.clear();
    return Outcome::kResubscribe;
  }
  checkpoint_bytes_ += chunk.bytes;
  if (checkpoint_bytes_.size() < checkpoint_total_) {
    return Outcome::kOk;
  }
  receiving_checkpoint_ = false;
  if (common::Crc32c(checkpoint_bytes_) != checkpoint_crc_) {
    checkpoint_bytes_.clear();
    return Outcome::kResubscribe;
  }
  ECRINT_RETURN_IF_ERROR(service_->InstallReplicatedCheckpoint(
      project_, checkpoint_bytes_, checkpoint_seq_));
  checkpoint_bytes_.clear();
  applied_seq_ = checkpoint_seq_;
  applied_seq_gauge_->Set(static_cast<int64_t>(applied_seq_));
  Bump(bootstraps_);
  bootstrap_us_->Record(
      (service_->clock()->NowNs() - bootstrap_started_ns_) / 1000);
  return Outcome::kOk;
}

Result<FollowerState::Outcome> FollowerState::HandleRecord(
    const ReplRecord& record) {
  if (receiving_checkpoint_ ||
      common::Crc32c(record.payload) != record.crc ||
      record.seq != applied_seq_ + 1) {
    receiving_checkpoint_ = false;
    checkpoint_bytes_.clear();
    return Outcome::kResubscribe;
  }
  ECRINT_RETURN_IF_ERROR(
      service_->ApplyReplicated(project_, record.seq, record.payload)
          .status());
  applied_seq_ = record.seq;
  applied_seq_gauge_->Set(static_cast<int64_t>(applied_seq_));
  Bump(records_applied_);
  return Outcome::kOk;
}

Result<FollowerState::Outcome> FollowerState::HandleStamp(
    const ReplStamp& stamp) {
  ECRINT_ASSIGN_OR_RETURN(Outcome fenced, NoteEpoch(stamp.epoch));
  if (fenced != Outcome::kOk) return fenced;
  Bump(stamp_checks_);
  lag_records_->Set(stamp.seq >= applied_seq_
                        ? static_cast<int64_t>(stamp.seq - applied_seq_)
                        : 0);
  if (stamp.seq != applied_seq_) {
    // The leader stamped a seq we have not reached (records in flight);
    // not a divergence, just lag.
    return Outcome::kOk;
  }
  ECRINT_ASSIGN_OR_RETURN(IntegrationService::ReplicationPosition position,
                          service_->SampleReplicationPosition(project_));
  if (position.stamp == stamp.stamp) return Outcome::kOk;
  // Same seq, different state: this replica diverged (local corruption,
  // version skew). Throw the state away and bootstrap from scratch.
  Bump(divergences_);
  ECRINT_RETURN_IF_ERROR(service_->ResetReplicatedProject(project_));
  applied_seq_ = 0;
  applied_seq_gauge_->Set(0);
  return Outcome::kResubscribe;
}

Result<FollowerState::Outcome> FollowerState::HandleFrame(
    std::string_view body) {
  Bump(bytes_received_, static_cast<int64_t>(body.size()));
  ECRINT_ASSIGN_OR_RETURN(ReplFrame frame, DecodeReplFrame(body));
  switch (frame.type) {
    case kFrameReplHello:
      return HandleHello(frame.hello);
    case kFrameReplChunk:
      return HandleChunk(frame.chunk);
    case kFrameReplRecord:
      return HandleRecord(frame.record);
    case kFrameReplStamp:
      return HandleStamp(frame.stamp);
    case kFrameReplError:
      return InternalError("leader refused the stream: " + frame.error);
    default:
      return ParseError("unexpected replication frame type " +
                        std::to_string(frame.type) + " on a follower");
  }
}

// --- follower socket loop --------------------------------------------------

namespace {

// Connects to "host:port"; returns the fd or -1.
int ConnectLeader(const std::string& addr) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 >= addr.size()) return -1;
  std::string host = addr.substr(0, colon);
  std::string port = addr.substr(colon + 1);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* resolved = nullptr;
  if (getaddrinfo(host.c_str(), port.c_str(), &hints, &resolved) != 0) {
    return -1;
  }
  int fd = -1;
  for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    close(fd);
    fd = -1;
  }
  freeaddrinfo(resolved);
  if (fd >= 0) {
    // The subscribe handshake is a few tiny writes; don't let Nagle delay
    // the stream start.
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

}  // namespace

ReplicationClient::ReplicationClient(IntegrationService* service,
                                     std::string leader_addr,
                                     std::string project, Options options)
    : service_(service),
      leader_addr_(std::move(leader_addr)),
      project_(std::move(project)),
      options_(options) {
  reconnects_ = service_->metrics().GetCounter("repl.reconnects");
  retry_budget_exhausted_ =
      service_->metrics().GetCounter("repl.retry_budget_exhausted");
}

ReplicationClient::ReplicationClient(IntegrationService* service,
                                     std::string leader_addr,
                                     std::string project)
    : ReplicationClient(service, std::move(leader_addr), std::move(project),
                        Options()) {}

bool ReplicationClient::RunOnce(const std::atomic<bool>& stop,
                                FollowerState& follower,
                                const std::string& leader_addr) {
  Result<uint64_t> have_seq = follower.Prepare();
  if (!have_seq.ok()) return false;
  follower.set_peer_addr(leader_addr);
  int fd = ConnectLeader(leader_addr);
  if (fd < 0) return false;
  // A short receive timeout keeps the loop responsive to `stop` without a
  // second thread; a send timeout bounds a write against a blackholed
  // leader (full socket buffer) the same way.
  struct timeval timeout;
  timeout.tv_sec = 0;
  timeout.tv_usec = 200 * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  struct timeval send_timeout;
  send_timeout.tv_sec = 5;
  send_timeout.tv_usec = 0;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
             sizeof(send_timeout));

  // Stall deadline: a connection that stays open but stops delivering
  // applicable frames (half-open, blackholed, or partitioned mid-stream)
  // is abandoned once stall_timeout_ms passes without an applied frame.
  // The deadline is rolling — it resets on every applied frame — so a
  // stream that went quiet AFTER making progress is abandoned too, and the
  // reconnect path (which re-reads the leader address and may find a NEW
  // leader) gets its turn.
  auto last_progress = std::chrono::steady_clock::now();
  auto stalled = [&]() {
    return std::chrono::steady_clock::now() - last_progress >
           std::chrono::milliseconds(options_.stall_timeout_ms);
  };

  bool progressed = false;
  auto stream = [&]() {
    // Negotiate the binary protocol in text, like any v2 client.
    if (!SendAll(fd, "proto 2\n")) return;
    std::string text;
    char chunk[512];
    while (!stop.load(std::memory_order_relaxed)) {
      if (text.size() > 4096) return;  // not an ecrint server
      if (text == ".\n" || text.find("\n.\n") != std::string::npos) break;
      if (stalled()) return;
      ssize_t n = read(fd, chunk, sizeof(chunk));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) return;
      text.append(chunk, static_cast<size_t>(n));
    }
    ReplSubscribe subscribe;
    subscribe.project = project_;
    subscribe.have_seq = *have_seq;
    subscribe.epoch = follower.epoch();
    // The hint names where the epoch was LEARNED, never the address being
    // dialed: a deposed leader hearing our higher epoch must be pointed at
    // the node that announced it, not redirected back at itself.
    subscribe.leader_hint = follower.epoch_source();
    if (!SendAll(fd, EncodeReplSubscribe(subscribe))) return;

    std::string buffer;
    while (!stop.load(std::memory_order_relaxed)) {
      if (stalled()) return;
      ssize_t n = read(fd, chunk, sizeof(chunk));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // leader went away
      buffer.append(chunk, static_cast<size_t>(n));
      size_t consumed_total = 0;
      for (;;) {
        std::string_view body;
        size_t consumed = 0;
        std::string error;
        FrameStatus status =
            ExtractFrame(std::string_view(buffer).substr(consumed_total),
                         &body, &consumed, &error);
        if (status == FrameStatus::kNeedMore) break;
        if (status == FrameStatus::kError) return;
        Result<FollowerState::Outcome> outcome = follower.HandleFrame(body);
        consumed_total += consumed;
        if (!outcome.ok() || *outcome != FollowerState::Outcome::kOk) {
          return;  // resubscribe (or back off) from the top
        }
        progressed = true;
        last_progress = std::chrono::steady_clock::now();
      }
      buffer.erase(0, consumed_total);
    }
  };
  stream();
  close(fd);
  return progressed;
}

void ReplicationClient::Run(const std::atomic<bool>& stop) {
  FollowerState follower(service_, project_);
  std::mt19937_64 rng(std::random_device{}());
  int64_t backoff_ms = options_.backoff_initial_ms;
  // Only track the service's dynamic role when it does not lead; a client
  // pointed at a service that was never a replica (test harnesses) keeps
  // its constructor address.
  const bool role_tracked = !service_->LeadsWrites();
  int no_progress = 0;
  bool first = true;

  auto sleep_stoppable = [&](int64_t sleep_ms) {
    int64_t slept = 0;
    while (slept < sleep_ms && !stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      slept += 10;
    }
  };

  while (!stop.load(std::memory_order_relaxed)) {
    if (!first) {
      reconnects_->Increment();
      // Jittered backoff in [backoff/2, backoff]: a fleet of followers that
      // lost the same leader must not reconnect in lockstep.
      sleep_stoppable(backoff_ms / 2 +
                      static_cast<int64_t>(
                          rng() % (static_cast<uint64_t>(backoff_ms) / 2 + 1)));
      backoff_ms = std::min(backoff_ms * 2, options_.backoff_max_ms);
    }
    first = false;
    if (stop.load(std::memory_order_relaxed)) break;
    std::string addr = leader_addr_;
    if (role_tracked) {
      addr = service_->CurrentLeaderAddr();
      if (addr.empty()) {
        if (service_->LeadsWrites()) {
          // This node was promoted: it IS the leader now, there is
          // nothing to follow.
          return;
        }
        // Fenced with the leader unknown: keep polling the last known
        // address — the deposed node there will eventually answer with a
        // redirect, or an operator demotion fills the address in.
        addr = leader_addr_;
      }
    }
    if (RunOnce(stop, follower, addr)) {
      backoff_ms = options_.backoff_initial_ms;
      no_progress = 0;
    } else if (++no_progress >= options_.retry_budget) {
      // Circuit breaker: the leader is gone or persistently refusing us.
      // Cool off in one long stretch (still stop-responsive) instead of
      // hammering a dead address, then start a fresh budget.
      Bump(retry_budget_exhausted_);
      sleep_stoppable(options_.breaker_cooldown_ms);
      no_progress = 0;
      backoff_ms = options_.backoff_initial_ms;
    }
  }
}

}  // namespace ecrint::service
