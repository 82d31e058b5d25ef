#ifndef ECRINT_SERVICE_NET_H_
#define ECRINT_SERVICE_NET_H_

// Event-driven network plane for the integration service (docs/
// ARCHITECTURE.md, "The network plane").
//
// NetServer replaces the old thread-per-connection front end with N epoll
// reactor threads (default: one per hardware thread). Each accepted socket
// is non-blocking and owned by exactly one reactor; the reactor feeds
// incrementally-arriving bytes through RequestRouter::Feed (which tolerates
// partial text lines and partial binary frames), queues the response bytes
// in a pooled OutputQueue, and flushes with one vectored write. Requests
// run to completion on the reactor thread — per-connection ordering is
// structural, and admission control in IntegrationService bounds how long
// a write can occupy a reactor.
//
// Flow control: a connection whose outbound queue exceeds the high
// watermark stops being read (EPOLLIN is dropped) until the peer drains it
// below the low watermark — a slow reader can pin at most
// output_high_watermark + one response of server memory, never unbounded.
//
// Idle connections cost no thread and (once their input buffer is returned
// to the reactor's BufferPool) no heap: 10,000 parked clients are a few
// hundred bytes each. A hashed timing wheel closes connections idle longer
// than idle_timeout_ms.
//
// Shutdown: Shutdown() (or a signal handler write(2)-ing to shutdown_fd(),
// which is async-signal-safe) pops every reactor out of epoll_wait; each
// reactor flushes what it can without blocking, closes its connections,
// and exits. Run() then joins the reactors and any replication handoff
// threads and returns, after which the caller checkpoints (the existing
// drain-then-checkpoint path).
//
// Replication handoff: a 0x03 subscribe frame moves the connection off the
// reactor — the fd is made blocking again and a dedicated thread runs
// ReplicationServer::Serve until drain or the follower hangs up.
// Subscribers are few (one per follower) so a thread each is the right
// trade; the 10k-connection budget is for request/response clients.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "service/metrics.h"
#include "service/router.h"

namespace ecrint::service {

class ReplicationServer;

// A bounded free list of byte buffers with retained capacity. Reactors are
// single-threaded, so the pool is unsynchronized: each reactor owns one and
// recycles input buffers and output chunks through it instead of paying a
// malloc per read and per response. Release clears the buffer but keeps its
// allocation (up to max_buffers of them; the rest free normally).
class BufferPool {
 public:
  explicit BufferPool(size_t max_buffers = 64,
                      size_t buffer_capacity = 64 * 1024)
      : max_buffers_(max_buffers), buffer_capacity_(buffer_capacity) {}

  // A cleared buffer with buffer_capacity reserved (recycled when possible).
  std::string Acquire();
  // Returns a buffer's allocation to the pool. Oversized buffers (a huge
  // export response, say) are dropped rather than pinned forever.
  void Release(std::string&& buffer);

  size_t pooled() const { return free_.size(); }
  size_t buffer_capacity() const { return buffer_capacity_; }

 private:
  size_t max_buffers_;
  size_t buffer_capacity_;
  std::vector<std::string> free_;
};

// Outbound bytes for one connection, kept as a queue of chunks and flushed
// with one sendmsg(2) gather write (MSG_NOSIGNAL — a vanished peer yields
// EPIPE, not a process-killing signal). Small appends pack into pooled
// chunks; a response larger than the chunk size is moved in as its own
// chunk, copy-free.
class OutputQueue {
 public:
  void Append(std::string&& bytes, BufferPool& pool);
  void Append(std::string_view bytes, BufferPool& pool);

  enum class FlushResult {
    kDrained,  // everything written
    kPartial,  // the socket buffer filled (EAGAIN); wait for EPOLLOUT
    kError,    // the peer is gone; close the connection
  };
  // Writes as much as the socket accepts. Each sendmsg covers up to
  // kMaxIovecs chunks; `writev_calls` and `bytes_out` (either may be null)
  // are charged per syscall. Retries EINTR; short writes advance the queue
  // and try again.
  FlushResult Flush(int fd, BufferPool& pool, Counter* writev_calls,
                    Counter* bytes_out);

  bool empty() const { return chunks_.empty(); }
  size_t pending() const { return pending_; }
  // Cumulative bytes ever written to the socket by Flush. The idle reaper
  // samples this across idle periods to tell a slow-but-draining reader
  // (exempt) from a dead one that will never drain (reaped).
  uint64_t drained() const { return drained_; }

  // Drops everything unsent (connection teardown), recycling the chunks.
  void Clear(BufferPool& pool);

  // Moves everything unsent into `*out` (replication handoff: the bytes
  // follow the connection to its blocking thread), recycling the chunks.
  void DrainTo(std::string* out, BufferPool& pool);

  static constexpr size_t kMaxIovecs = 64;

 private:
  struct Chunk {
    std::string bytes;
    size_t offset = 0;  // bytes already written (front chunk only)
  };
  std::deque<Chunk> chunks_;
  size_t pending_ = 0;
  uint64_t drained_ = 0;
};

// A hashed timing wheel for same-duration idle timeouts: Touch is O(1),
// and Advance visits only the buckets the clock crossed. Deadlines are
// checked exactly at expiry (an entry touched since it was bucketed is
// simply re-bucketed), so a timeout fires no earlier than timeout_ms and
// at most one tick late. timeout_ms == 0 disables the wheel entirely.
class TimerWheel {
 public:
  static constexpr size_t kBuckets = 64;
  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  struct Entry {
    size_t bucket = kNoBucket;
    std::list<std::pair<void*, int64_t>>::iterator where;
    int64_t deadline_ms = 0;
  };

  TimerWheel(int64_t timeout_ms, int64_t now_ms);

  bool enabled() const { return timeout_ms_ > 0; }
  int64_t timeout_ms() const { return timeout_ms_; }

  // (Re)arms `entry` to expire timeout_ms after now_ms.
  void Touch(Entry* entry, void* owner, int64_t now_ms);
  // Unlinks `entry`; safe when not armed.
  void Remove(Entry* entry);

  // Expires every entry whose deadline passed, invoking expire(owner) after
  // the entry is unlinked (the callback may close/destroy the owner).
  template <typename ExpireFn>
  void Advance(int64_t now_ms, ExpireFn&& expire) {
    if (!enabled()) return;
    int64_t tick = now_ms / tick_ms_;
    while (last_tick_ < tick) {
      ++last_tick_;
      auto& bucket = buckets_[static_cast<size_t>(last_tick_) % kBuckets];
      for (auto it = bucket.begin(); it != bucket.end();) {
        if (it->second <= now_ms) {
          void* owner = it->first;
          it = bucket.erase(it);
          --armed_;
          expire(owner);
        } else {
          ++it;  // a future lap of the wheel
        }
      }
    }
  }

  // How long epoll may sleep before the next tick is due.
  int64_t NextTickDelayMs(int64_t now_ms) const;

  size_t armed() const { return armed_; }

 private:
  friend struct TimerWheelTestPeer;
  int64_t timeout_ms_;
  int64_t tick_ms_ = 1;
  int64_t last_tick_ = 0;
  size_t armed_ = 0;
  std::array<std::list<std::pair<void*, int64_t>>, kBuckets> buckets_;
};

struct NetOptions {
  int port = 7400;  // 0 binds an ephemeral port
  // Reactor threads; <= 0 means std::thread::hardware_concurrency().
  int net_threads = 0;
  // Close connections idle longer than this; 0 disables the timeout.
  int64_t idle_timeout_ms = 300'000;
  // Stop reading a connection whose outbound queue exceeds `high`; resume
  // below `low`.
  size_t output_high_watermark = 1 << 20;
  size_t output_low_watermark = 64 << 10;
  // Serve exactly one connection, then shut down (smoke tests).
  bool once = false;
};

// The reactor front end. Construction is cheap; Start() binds and spawns
// the reactors; Run() blocks until Shutdown(). See the file comment for the
// model.
class NetServer {
 public:
  // `replication` may be null (subscribe frames are then answered with a
  // replication error, matching the old front end).
  NetServer(RequestRouter* router, ReplicationServer* replication,
            NetOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds, listens (SOMAXCONN backlog), spawns the reactors. Returns the
  // bound port.
  Result<int> Start();

  // Blocks until the server has fully drained after Shutdown() (or, with
  // options.once, after the first connection closes).
  void Run();

  // Initiates drain from any thread. Idempotent.
  void Shutdown();

  // An eventfd that wakes every reactor into drain when written. write(2)
  // is async-signal-safe, so a SIGTERM handler may poke this directly.
  int shutdown_fd() const { return shutdown_fd_; }

  bool stopping() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  int connections() const {
    return static_cast<int>(
        open_connections_.load(std::memory_order_relaxed));
  }

 private:
  class Reactor;

  void AssignConnection(int fd);
  // Runs ReplicationServer::Serve for a subscribed connection on its own
  // tracked thread; owns (and eventually closes) `fd`.
  void StartReplicationHandoff(int fd, std::string pending_output,
                               std::string subscribe_body,
                               std::string session_id);
  void NoteConnectionOpened();
  void NoteConnectionClosed();

  RequestRouter* router_;
  ReplicationServer* replication_;
  NetOptions options_;

  int listener_fd_ = -1;
  int shutdown_fd_ = -1;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::vector<std::thread> reactor_threads_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::atomic<int64_t> open_connections_{0};
  std::atomic<size_t> next_reactor_{0};
  std::atomic<bool> accepted_once_{false};

  std::mutex handoff_mutex_;
  std::vector<std::thread> handoff_threads_;
  // fds currently owned by live handoff threads; Shutdown() calls
  // shutdown(2) on them to pop blocked sends/reads out of the kernel.
  std::set<int> handoff_live_fds_;

  Counter* accepts_ = nullptr;
  Counter* bytes_in_ = nullptr;
  Counter* bytes_out_ = nullptr;
  Counter* epoll_wakeups_ = nullptr;
  Counter* writev_calls_ = nullptr;
  Counter* backpressure_stalls_ = nullptr;
  Counter* idle_timeouts_ = nullptr;
  Gauge* connections_gauge_ = nullptr;
};

// EINTR-safe full-buffer send with MSG_NOSIGNAL (a vanished peer fails the
// send instead of raising SIGPIPE): the blocking-path sibling of
// OutputQueue::Flush, used by the replication handoff and the follower's
// subscribe. False when the peer is gone.
bool SendAll(int fd, std::string_view bytes);

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_NET_H_
