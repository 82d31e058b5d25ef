// ChaosProxy: schedule grammar, byte-transparent relaying, fragmentation,
// deterministic seeded corruption, accept refusal, and partition healing.
// The proxy fronts a local echo server; every test drives real sockets.

#include "testing/chaos.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace ecrint::service {
namespace {

void SetRecvTimeoutMs(int fd, int ms) {
  struct timeval timeout;
  timeout.tv_sec = ms / 1000;
  timeout.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
}

// Minimal echo server: accepts any number of connections, echoes bytes
// back until EOF. Runs until destruction.
class EchoServer {
 public:
  EchoServer() {
    listener_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    bind(listener_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
    listen(listener_, 16);
    socklen_t len = sizeof(addr);
    getsockname(listener_, reinterpret_cast<struct sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    SetRecvTimeoutMs(listener_, 50);
    accept_thread_ = std::thread([this] {
      while (!stop_.load()) {
        int fd = accept(listener_, nullptr, nullptr);
        if (fd < 0) continue;
        SetRecvTimeoutMs(fd, 50);
        workers_.emplace_back([this, fd] {
          char buffer[4096];
          while (!stop_.load()) {
            ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
            if (n == 0) break;
            if (n < 0) {
              if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
              break;
            }
            ssize_t off = 0;
            while (off < n) {
              ssize_t sent = send(fd, buffer + off, static_cast<size_t>(n - off),
                                  MSG_NOSIGNAL);
              if (sent <= 0) return;
              off += sent;
            }
          }
          close(fd);
        });
      }
    });
  }

  ~EchoServer() {
    stop_.store(true);
    accept_thread_.join();
    for (std::thread& worker : workers_) worker.join();
    close(listener_);
  }

  int port() const { return port_; }
  std::string addr() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  int listener_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
};

int ConnectLoopback(int port) {
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n =
        send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads exactly `want` bytes or gives up after ~2s of silence.
std::string RecvN(int fd, size_t want) {
  SetRecvTimeoutMs(fd, 100);
  std::string got;
  int idle = 0;
  char buffer[4096];
  while (got.size() < want && idle < 20) {
    ssize_t n = recv(fd, buffer, std::min(sizeof(buffer), want - got.size()),
                     0);
    if (n > 0) {
      got.append(buffer, static_cast<size_t>(n));
      idle = 0;
    } else if (n == 0) {
      break;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ++idle;
    } else {
      break;
    }
  }
  return got;
}

TEST(ChaosScheduleTest, ParsesKnobsActionsAndComments) {
  ChaosProxy proxy({.upstream_addr = "127.0.0.1:1", .listen_port = 0});
  ASSERT_TRUE(proxy
                  .LoadSchedule("# comment\n"
                                "seed 42\n"
                                "set delay_ms 7\n"
                                "at 100 set partition 1\n"
                                "at 200 rst\n"
                                "at 300 halfclose\n"
                                "at 400 close\n"
                                "\n")
                  .ok());
  // Immediate set applied now; timed ones only when the clock reaches them
  // (the proxy was never started, so never).
  EXPECT_EQ(*proxy.Get("delay_ms"), 7);
  EXPECT_EQ(*proxy.Get("partition"), 0);
}

TEST(ChaosScheduleTest, RejectsBadLines) {
  ChaosProxy proxy({.upstream_addr = "127.0.0.1:1", .listen_port = 0});
  EXPECT_FALSE(proxy.LoadSchedule("set nonsense 1\n").ok());
  EXPECT_FALSE(proxy.LoadSchedule("at x set delay_ms 1\n").ok());
  EXPECT_FALSE(proxy.LoadSchedule("explode\n").ok());
  EXPECT_FALSE(proxy.LoadSchedule("at 100 rst extra\n").ok());
  EXPECT_FALSE(proxy.LoadSchedule("set delay_ms\n").ok());
}

TEST(ChaosScheduleTest, UnknownKnobErrors) {
  ChaosProxy proxy({.upstream_addr = "127.0.0.1:1", .listen_port = 0});
  EXPECT_FALSE(proxy.Set("warp_speed", 9).ok());
  EXPECT_FALSE(proxy.Get("warp_speed").ok());
  EXPECT_TRUE(proxy.Set("drop_pct", 10).ok());
  EXPECT_EQ(*proxy.Get("drop_pct"), 10);
}

TEST(ChaosProxyTest, RelaysBytesTransparently) {
  EchoServer echo;
  ChaosProxy proxy({.upstream_addr = echo.addr(), .listen_port = 0});
  Result<int> port = proxy.Start();
  ASSERT_TRUE(port.ok());
  int fd = ConnectLoopback(*port);
  ASSERT_GE(fd, 0);
  const std::string payload = "hello through the chaos proxy";
  ASSERT_TRUE(SendAll(fd, payload));
  EXPECT_EQ(RecvN(fd, payload.size()), payload);
  close(fd);
  proxy.Stop();
  EXPECT_EQ(proxy.stats().connections, 1u);
  EXPECT_GE(proxy.stats().bytes_up, payload.size());
}

TEST(ChaosProxyTest, FragmentationPreservesByteStream) {
  EchoServer echo;
  ChaosProxy proxy({.upstream_addr = echo.addr(), .listen_port = 0});
  ASSERT_TRUE(proxy.Set("fragment", 1).ok());
  Result<int> port = proxy.Start();
  ASSERT_TRUE(port.ok());
  int fd = ConnectLoopback(*port);
  ASSERT_GE(fd, 0);
  std::string payload;
  for (int i = 0; i < 2048; ++i) payload.push_back(static_cast<char>(i));
  ASSERT_TRUE(SendAll(fd, payload));
  EXPECT_EQ(RecvN(fd, payload.size()), payload);
  close(fd);
}

TEST(ChaosProxyTest, CorruptionIsSeededAndDeterministic) {
  const std::string payload(512, 'x');
  auto corrupted_once = [&](uint64_t seed) {
    EchoServer echo;
    ChaosProxy proxy(
        {.upstream_addr = echo.addr(), .listen_port = 0, .seed = seed});
    // Corrupt only client->upstream traffic... both directions share the
    // knob, so corrupt everything and read what comes back.
    EXPECT_TRUE(proxy.Set("corrupt_pct", 100).ok());
    Result<int> port = proxy.Start();
    EXPECT_TRUE(port.ok());
    int fd = ConnectLoopback(*port);
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(SendAll(fd, payload));
    std::string got = RecvN(fd, payload.size());
    close(fd);
    proxy.Stop();
    EXPECT_GT(proxy.stats().bits_flipped, 0u);
    return got;
  };
  std::string first = corrupted_once(7);
  std::string again = corrupted_once(7);
  ASSERT_EQ(first.size(), payload.size());
  EXPECT_NE(first, payload);  // a bit actually flipped somewhere
  // Same seed, same byte stream: identical mangling. (Block boundaries are
  // deterministic here — one send, loopback, payload far below the block
  // size.)
  EXPECT_EQ(first, again);
}

TEST(ChaosProxyTest, AcceptZeroRefusesNewConnections) {
  EchoServer echo;
  ChaosProxy proxy({.upstream_addr = echo.addr(), .listen_port = 0});
  ASSERT_TRUE(proxy.Set("accept", 0).ok());
  Result<int> port = proxy.Start();
  ASSERT_TRUE(port.ok());
  int fd = ConnectLoopback(*port);
  ASSERT_GE(fd, 0);
  // The proxy closes immediately: EOF, no echo.
  EXPECT_EQ(RecvN(fd, 1), "");
  close(fd);
  proxy.Stop();
  EXPECT_EQ(proxy.stats().connections, 0u);
  EXPECT_EQ(proxy.stats().refused, 1u);
}

TEST(ChaosProxyTest, PartitionBlackholesThenHeals) {
  EchoServer echo;
  ChaosProxy proxy({.upstream_addr = echo.addr(), .listen_port = 0});
  Result<int> port = proxy.Start();
  ASSERT_TRUE(port.ok());
  int fd = ConnectLoopback(*port);
  ASSERT_GE(fd, 0);
  // Prove the path works, then partition it.
  ASSERT_TRUE(SendAll(fd, "pre"));
  ASSERT_EQ(RecvN(fd, 3), "pre");
  ASSERT_TRUE(proxy.Set("partition", 1).ok());
  // Give the relay threads a beat to observe the knob, then send into the
  // blackhole: nothing comes back while partitioned.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(SendAll(fd, "during"));
  SetRecvTimeoutMs(fd, 100);
  char buffer[16];
  ssize_t n = recv(fd, buffer, sizeof(buffer), 0);
  EXPECT_LT(n, 0);  // timed out: the proxy is not relaying
  // Heal: the queued bytes flow again.
  ASSERT_TRUE(proxy.Set("partition", 0).ok());
  EXPECT_EQ(RecvN(fd, 6), "during");
  close(fd);
}

}  // namespace
}  // namespace ecrint::service
