#include "testing/chaos.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <random>
#include <sstream>
#include <utility>

namespace ecrint::service {

namespace {

// Accept/read timeouts keep every blocking loop responsive to Stop()
// without non-blocking plumbing — the proxy is a test harness, not a
// production data path.
constexpr int kPollMs = 50;

void SetRecvTimeout(int fd, int ms) {
  struct timeval timeout;
  timeout.tv_sec = ms / 1000;
  timeout.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

int ConnectUpstream(const std::string& addr) {
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
  return fd;
}

bool WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    ssize_t n = send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// One relayed connection. Fds are shutdown() from admin threads (which is
// safe while relays block on them) but only close()d once, by the last
// relay thread to exit — closing an fd another thread still reads would
// race with fd reuse.
struct ChaosProxy::Conn {
  int client_fd = -1;
  int upstream_fd = -1;
  std::atomic<int> relays{2};
  std::atomic<bool> dead{false};
};

struct ChaosProxy::Event {
  int64_t at_ms = 0;
  // "set" with key/value, or an action: "rst" | "halfclose" | "close".
  std::string what;
  std::string key;
  int64_t value = 0;
};

ChaosProxy::ChaosProxy(Options options)
    : options_(std::move(options)), seed_(options_.seed) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Result<int> ChaosProxy::Start() {
  listener_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listener_fd_ < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  int reuse = 1;
  setsockopt(listener_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.listen_port));
  if (bind(listener_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return InternalError(std::string("bind: ") + std::strerror(errno));
  }
  if (listen(listener_fd_, SOMAXCONN) < 0) {
    return InternalError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t addr_len = sizeof(addr);
  getsockname(listener_fd_, reinterpret_cast<struct sockaddr*>(&addr),
              &addr_len);
  SetRecvTimeout(listener_fd_, kPollMs);  // accept(2) honors SO_RCVTIMEO
  started_at_ = std::chrono::steady_clock::now();
  started_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  schedule_thread_ = std::thread([this] { ScheduleLoop(); });
  return ntohs(addr.sin_port);
}

void ChaosProxy::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  SeverAll(/*rst=*/false, /*half=*/false);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (schedule_thread_.joinable()) schedule_thread_.join();
  std::vector<std::thread> relays;
  {
    std::lock_guard<std::mutex> lock(relay_threads_mutex_);
    relays.swap(relay_threads_);
  }
  for (std::thread& thread : relays) {
    if (thread.joinable()) thread.join();
  }
  if (listener_fd_ >= 0) {
    close(listener_fd_);
    listener_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(conns_mutex_);
  conns_.clear();
}

std::atomic<int64_t>* ChaosProxy::Knob(const std::string& key) {
  if (key == "delay_ms") return &delay_ms_;
  if (key == "rate_bps") return &rate_bps_;
  if (key == "fragment") return &fragment_;
  if (key == "drop_pct") return &drop_pct_;
  if (key == "corrupt_pct") return &corrupt_pct_;
  if (key == "partition") return &partition_;
  if (key == "accept") return &accept_;
  return nullptr;
}

const std::atomic<int64_t>* ChaosProxy::Knob(const std::string& key) const {
  return const_cast<ChaosProxy*>(this)->Knob(key);
}

Status ChaosProxy::Set(const std::string& key, int64_t value) {
  std::atomic<int64_t>* knob = Knob(key);
  if (knob == nullptr) {
    return InvalidArgumentError("unknown chaos knob: " + key);
  }
  knob->store(value, std::memory_order_relaxed);
  return Status::Ok();
}

Result<int64_t> ChaosProxy::Get(const std::string& key) const {
  const std::atomic<int64_t>* knob = Knob(key);
  if (knob == nullptr) {
    return InvalidArgumentError("unknown chaos knob: " + key);
  }
  return knob->load(std::memory_order_relaxed);
}

void ChaosProxy::SeverAll(bool rst, bool half) {
  std::lock_guard<std::mutex> lock(conns_mutex_);
  for (const std::shared_ptr<Conn>& conn : conns_) {
    if (conn->dead.load(std::memory_order_acquire)) continue;
    if (half) {
      // Peers see EOF but the sockets stay open: the half-open state the
      // replication stall deadline exists for.
      shutdown(conn->client_fd, SHUT_WR);
      shutdown(conn->upstream_fd, SHUT_WR);
      continue;
    }
    if (rst) {
      // Abortive close: linger{on, 0s} turns the eventual close() into a
      // RST instead of a FIN.
      struct linger abort_linger;
      abort_linger.l_onoff = 1;
      abort_linger.l_linger = 0;
      setsockopt(conn->client_fd, SOL_SOCKET, SO_LINGER, &abort_linger,
                 sizeof(abort_linger));
      setsockopt(conn->upstream_fd, SOL_SOCKET, SO_LINGER, &abort_linger,
                 sizeof(abort_linger));
      rsts_.fetch_add(1, std::memory_order_relaxed);
    }
    conn->dead.store(true, std::memory_order_release);
    shutdown(conn->client_fd, SHUT_RDWR);
    shutdown(conn->upstream_fd, SHUT_RDWR);
  }
}

void ChaosProxy::Rst() { SeverAll(/*rst=*/true, /*half=*/false); }
void ChaosProxy::HalfClose() { SeverAll(/*rst=*/false, /*half=*/true); }
void ChaosProxy::CloseAll() { SeverAll(/*rst=*/false, /*half=*/false); }

Status ChaosProxy::LoadSchedule(std::string_view text) {
  std::vector<Event> parsed;
  std::istringstream lines{std::string(text)};
  std::string line;
  int line_no = 0;
  auto bad = [&](const std::string& why) {
    return ParseError("chaos schedule line " + std::to_string(line_no) +
                      ": " + why + ": " + line);
  };
  while (std::getline(lines, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string word;
    if (!(tokens >> word) || word[0] == '#') continue;
    if (word == "seed") {
      uint64_t seed = 0;
      if (!(tokens >> seed)) return bad("expected `seed <n>`");
      seed_.store(seed, std::memory_order_relaxed);
      continue;
    }
    Event event;
    if (word == "at") {
      if (!(tokens >> event.at_ms) || event.at_ms < 0) {
        return bad("expected `at <ms> ...`");
      }
      if (!(tokens >> word)) return bad("missing directive after `at <ms>`");
    }
    if (word == "set") {
      event.what = "set";
      if (!(tokens >> event.key >> event.value)) {
        return bad("expected `set <key> <value>`");
      }
      if (Knob(event.key) == nullptr) {
        return bad("unknown chaos knob `" + event.key + "`");
      }
    } else if (word == "rst" || word == "halfclose" || word == "close") {
      event.what = word;
    } else {
      return bad("unknown directive `" + word + "`");
    }
    std::string extra;
    if (tokens >> extra && extra[0] != '#') {
      return bad("trailing tokens");
    }
    if (event.at_ms == 0 && event.what == "set") {
      // Immediate sets apply now; Set cannot fail (key checked above).
      (void)Set(event.key, event.value);
    } else {
      parsed.push_back(std::move(event));
    }
  }
  std::stable_sort(parsed.begin(), parsed.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_ms < b.at_ms;
                   });
  std::lock_guard<std::mutex> lock(events_mutex_);
  for (Event& event : parsed) events_.push_back(std::move(event));
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.at_ms < b.at_ms;
                   });
  return Status::Ok();
}

void ChaosProxy::ScheduleLoop() {
  size_t next = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    Event event;
    {
      std::lock_guard<std::mutex> lock(events_mutex_);
      if (next >= events_.size()) {
        event.at_ms = -1;
      } else {
        event = events_[next];
      }
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - started_at_)
                       .count();
    if (event.at_ms < 0 || elapsed < event.at_ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<int64_t>(kPollMs, event.at_ms < 0
                                         ? kPollMs
                                         : event.at_ms - elapsed)));
      continue;
    }
    ++next;
    if (event.what == "set") {
      (void)Set(event.key, event.value);
    } else if (event.what == "rst") {
      Rst();
    } else if (event.what == "halfclose") {
      HalfClose();
    } else if (event.what == "close") {
      CloseAll();
    }
  }
}

void ChaosProxy::AcceptLoop() {
  uint64_t conn_id = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    int client_fd = accept(listener_fd_, nullptr, nullptr);
    if (client_fd < 0) continue;  // timeout or transient error; re-check stop
    if (accept_.load(std::memory_order_relaxed) == 0) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      close(client_fd);
      continue;
    }
    int upstream_fd = ConnectUpstream(options_.upstream_addr);
    if (upstream_fd < 0) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      close(client_fd);
      continue;
    }
    // NODELAY on both legs so 1-byte fragmentation actually reaches the
    // wire as tiny segments instead of being coalesced by Nagle.
    int one = 1;
    setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    setsockopt(upstream_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    SetRecvTimeout(client_fd, kPollMs);
    SetRecvTimeout(upstream_fd, kPollMs);

    auto conn = std::make_shared<Conn>();
    conn->client_fd = client_fd;
    conn->upstream_fd = upstream_fd;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(conn);
    }
    connections_.fetch_add(1, std::memory_order_relaxed);
    uint64_t id = conn_id++;
    std::lock_guard<std::mutex> lock(relay_threads_mutex_);
    relay_threads_.emplace_back([this, conn, id] {
      Relay(conn, conn->client_fd, conn->upstream_fd, /*direction=*/0, id);
    });
    relay_threads_.emplace_back([this, conn, id] {
      Relay(conn, conn->upstream_fd, conn->client_fd, /*direction=*/1, id);
    });
  }
}

void ChaosProxy::Relay(std::shared_ptr<Conn> conn, int src_fd, int dst_fd,
                       int direction, uint64_t conn_id) {
  // Deterministic per-(seed, connection, direction) fault stream.
  std::mt19937_64 rng(seed_.load(std::memory_order_relaxed) ^
                      (conn_id * 0x9E3779B97F4A7C15ULL) ^
                      (direction ? 0xD1B54A32D192ED03ULL : 0));
  std::atomic<uint64_t>& forwarded = direction == 0 ? bytes_up_ : bytes_down_;
  char block[16 * 1024];
  bool half_closed_peer = false;
  while (!stop_.load(std::memory_order_acquire) &&
         !conn->dead.load(std::memory_order_acquire)) {
    if (partition_.load(std::memory_order_relaxed) != 0) {
      // Blackhole: stop reading entirely. The kernel buffers fill and the
      // peers' sends stall — exactly what a dropped route looks like.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    ssize_t n = recv(src_fd, block, sizeof(block), 0);
    if (n == 0) {
      // EOF from src: pass the FIN through so the peer's read side ends
      // too, but keep relaying the other direction.
      shutdown(dst_fd, SHUT_WR);
      half_closed_peer = true;
      break;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        continue;  // poll timeout; re-check stop/partition
      }
      break;
    }
    size_t len = static_cast<size_t>(n);
    if (drop_pct_.load(std::memory_order_relaxed) > 0 &&
        static_cast<int64_t>(rng() % 100) <
            drop_pct_.load(std::memory_order_relaxed)) {
      blocks_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (corrupt_pct_.load(std::memory_order_relaxed) > 0 &&
        static_cast<int64_t>(rng() % 100) <
            corrupt_pct_.load(std::memory_order_relaxed)) {
      uint64_t bit = rng() % (len * 8);
      block[bit / 8] = static_cast<char>(
          static_cast<unsigned char>(block[bit / 8]) ^ (1u << (bit % 8)));
      bits_flipped_.fetch_add(1, std::memory_order_relaxed);
    }
    int64_t delay = delay_ms_.load(std::memory_order_relaxed);
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    bool sent;
    if (fragment_.load(std::memory_order_relaxed) != 0) {
      sent = true;
      for (size_t i = 0; i < len && sent; ++i) {
        sent = WriteAll(dst_fd, block + i, 1);
      }
    } else {
      sent = WriteAll(dst_fd, block, len);
    }
    if (!sent) break;
    forwarded.fetch_add(len, std::memory_order_relaxed);
    int64_t rate = rate_bps_.load(std::memory_order_relaxed);
    if (rate > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int64_t>(len) * 1000 / rate));
    }
  }
  // Unblock the sibling relay (unless this was a pass-through half-close,
  // where the other direction legitimately keeps flowing), then let the
  // last one out close the fds.
  if (!half_closed_peer) {
    conn->dead.store(true, std::memory_order_release);
    shutdown(conn->client_fd, SHUT_RDWR);
    shutdown(conn->upstream_fd, SHUT_RDWR);
  }
  if (conn->relays.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    close(conn->client_fd);
    close(conn->upstream_fd);
    conn->dead.store(true, std::memory_order_release);
  }
}

ChaosProxy::Stats ChaosProxy::stats() const {
  Stats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.refused = refused_.load(std::memory_order_relaxed);
  stats.bytes_up = bytes_up_.load(std::memory_order_relaxed);
  stats.bytes_down = bytes_down_.load(std::memory_order_relaxed);
  stats.blocks_dropped = blocks_dropped_.load(std::memory_order_relaxed);
  stats.bits_flipped = bits_flipped_.load(std::memory_order_relaxed);
  stats.rsts = rsts_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace ecrint::service
