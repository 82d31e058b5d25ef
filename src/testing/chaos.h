#ifndef ECRINT_TESTING_CHAOS_H_
#define ECRINT_TESTING_CHAOS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"

namespace ecrint::service {

// ChaosProxy — a scriptable TCP proxy for network fault injection, the
// network analog of common::FaultInjectingFs. It sits between a
// replication follower and its leader (or any client and server) and
// mangles traffic deterministically from a seed, so a chaos run that found
// a bug replays byte-for-byte.
//
//   follower ---> ChaosProxy(listen_port) ---> leader(upstream_addr)
//
// Faults are runtime knobs (Set/Get) plus one-shot actions, drivable
// three ways: programmatically in tests, from a text schedule
// (LoadSchedule; grammar in docs/FORMATS.md, "Chaos schedules"), or via
// the standalone `ecrint_chaos` binary that CI uses.
//
// Knobs (Set(key, value); all default 0 = off, both directions):
//   delay_ms      sleep this long before forwarding each read block
//   rate_bps      cap forwarding throughput (bytes/second)
//   fragment      1 = forward one byte per write() (worst-case framing)
//   drop_pct      chance in [0,100] a read block is silently discarded
//   corrupt_pct   chance in [0,100] one random bit of a block is flipped
//   partition     1 = blackhole: stop reading, let TCP buffers fill
//   accept        0 = refuse (immediately close) new connections
//
// One-shot actions, applied to every live connection:
//   Rst()         abortive close: SO_LINGER{1,0} so the peer sees RST
//   HalfClose()   shutdown(SHUT_WR) both sides — peers see EOF but the
//                 connection stays half-open
//   CloseAll()    orderly FIN close
//
// Determinism: each relay direction owns an RNG seeded from
// (options.seed, connection id, direction), so drop/corrupt decisions
// depend only on the seed and the byte stream's block boundaries — not on
// wall-clock time or thread interleaving across connections.
class ChaosProxy {
 public:
  struct Options {
    // "host:port" of the real server traffic is relayed to.
    std::string upstream_addr;
    // Loopback port to listen on; 0 binds an ephemeral port (returned by
    // Start()).
    int listen_port = 0;
    // Seed for all fault randomness.
    uint64_t seed = 1;
  };

  explicit ChaosProxy(Options options);
  ~ChaosProxy();

  ChaosProxy(const ChaosProxy&) = delete;
  ChaosProxy& operator=(const ChaosProxy&) = delete;

  // Binds the listener and starts the accept + schedule threads; returns
  // the bound port. The schedule clock (the `at <ms>` timebase) starts
  // now.
  Result<int> Start();

  // Stops accepting, severs every connection, joins all threads.
  // Idempotent; the destructor calls it.
  void Stop();

  // Runtime knobs; see the table above. Unknown keys are an error so
  // schedule typos fail loudly.
  Status Set(const std::string& key, int64_t value);
  Result<int64_t> Get(const std::string& key) const;

  // One-shot actions on all live connections (see above).
  void Rst();
  void HalfClose();
  void CloseAll();

  // Parses a chaos schedule (docs/FORMATS.md):
  //   # comment / blank lines ignored
  //   seed <n>                     reseed fault randomness
  //   set <key> <value>            apply a knob immediately
  //   at <ms> set <key> <value>    apply a knob <ms> after Start()
  //   at <ms> rst|halfclose|close  one-shot action at <ms>
  // May be called before or after Start(); timed events always measure
  // from Start(). Rejects the whole schedule on the first bad line.
  Status LoadSchedule(std::string_view text);

  struct Stats {
    uint64_t connections = 0;      // accepted and relayed
    uint64_t refused = 0;          // closed because accept=0
    uint64_t bytes_up = 0;         // client -> upstream, after faults
    uint64_t bytes_down = 0;       // upstream -> client, after faults
    uint64_t blocks_dropped = 0;
    uint64_t bits_flipped = 0;
    uint64_t rsts = 0;
  };
  Stats stats() const;

 private:
  struct Conn;
  struct Event;

  void AcceptLoop();
  void ScheduleLoop();
  // Relays one direction (src -> dst) through the fault pipeline until
  // EOF, error, or Stop. `direction` is 0 for up, 1 for down.
  void Relay(std::shared_ptr<Conn> conn, int src_fd, int dst_fd,
             int direction, uint64_t conn_id);
  void SeverAll(bool rst, bool half);
  std::atomic<int64_t>* Knob(const std::string& key);
  const std::atomic<int64_t>* Knob(const std::string& key) const;

  Options options_;
  int listener_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> started_{false};
  std::atomic<uint64_t> seed_;

  std::atomic<int64_t> delay_ms_{0};
  std::atomic<int64_t> rate_bps_{0};
  std::atomic<int64_t> fragment_{0};
  std::atomic<int64_t> drop_pct_{0};
  std::atomic<int64_t> corrupt_pct_{0};
  std::atomic<int64_t> partition_{0};
  std::atomic<int64_t> accept_{1};

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> refused_{0};
  std::atomic<uint64_t> bytes_up_{0};
  std::atomic<uint64_t> bytes_down_{0};
  std::atomic<uint64_t> blocks_dropped_{0};
  std::atomic<uint64_t> bits_flipped_{0};
  std::atomic<uint64_t> rsts_{0};

  mutable std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_;

  mutable std::mutex events_mutex_;
  std::vector<Event> events_;  // sorted by at_ms; consumed by ScheduleLoop

  std::thread accept_thread_;
  std::thread schedule_thread_;
  std::mutex relay_threads_mutex_;
  std::vector<std::thread> relay_threads_;
  std::chrono::steady_clock::time_point started_at_;
};

}  // namespace ecrint::service

#endif  // ECRINT_TESTING_CHAOS_H_
