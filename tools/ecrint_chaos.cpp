// ecrint_chaos — scriptable TCP fault-injection proxy for chaos testing
// (docs/FORMATS.md "Chaos schedules", docs/OPERATIONS.md "Chaos suite").
//
//   ecrint_chaos --upstream HOST:PORT [--listen N] [--seed N]
//                [--schedule FILE] [--set key=value]...
//
// Listens on loopback (--listen 0 or omitted binds an ephemeral port,
// printed as "listening on <port>") and relays every connection to
// --upstream through the ChaosProxy fault pipeline: deterministic seeded
// drops, bit flips, 1-byte fragmentation, delays, rate limits,
// partitions, RSTs, and half-closes. --schedule arms timed events
// (`at <ms> ...` measured from startup); --set applies a knob
// immediately. SIGTERM/SIGINT stop the proxy and print a stats line:
//
//   chaos: connections=3 refused=0 bytes_up=812 bytes_down=40960
//          blocks_dropped=2 bits_flipped=1 rsts=1
//
// The same faults are available as a library (src/service/chaos.h) for
// in-process tests; this binary exists so CI can wrap real server
// processes without code changes.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "testing/chaos.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

int Usage() {
  std::cerr << "usage: ecrint_chaos --upstream HOST:PORT [--listen N] "
               "[--seed N] [--schedule FILE] [--set key=value]...\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using ecrint::service::ChaosProxy;
  ChaosProxy::Options options;
  std::string schedule_path;
  std::vector<std::pair<std::string, int64_t>> sets;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--upstream" && i + 1 < argc) {
      options.upstream_addr = argv[++i];
    } else if (arg == "--listen" && i + 1 < argc) {
      options.listen_port = std::atoi(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      options.seed = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--schedule" && i + 1 < argc) {
      schedule_path = argv[++i];
    } else if (arg == "--set" && i + 1 < argc) {
      std::string pair = argv[++i];
      size_t eq = pair.find('=');
      if (eq == std::string::npos) return Usage();
      sets.emplace_back(pair.substr(0, eq),
                        std::atoll(pair.c_str() + eq + 1));
    } else {
      return Usage();
    }
  }
  if (options.upstream_addr.empty()) return Usage();

  ChaosProxy proxy(options);
  for (const auto& [key, value] : sets) {
    if (ecrint::Status status = proxy.Set(key, value); !status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 2;
    }
  }
  if (!schedule_path.empty()) {
    std::ifstream in(schedule_path);
    if (!in) {
      std::cerr << "cannot read schedule: " << schedule_path << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (ecrint::Status status = proxy.LoadSchedule(text.str());
        !status.ok()) {
      std::cerr << status.ToString() << "\n";
      return 2;
    }
  }

  ecrint::Result<int> port = proxy.Start();
  if (!port.ok()) {
    std::cerr << port.status().ToString() << "\n";
    return 1;
  }
  std::cout << "listening on " << *port << std::endl;

  signal(SIGPIPE, SIG_IGN);
  struct sigaction stop_action {};
  stop_action.sa_handler = HandleStopSignal;
  sigemptyset(&stop_action.sa_mask);
  stop_action.sa_flags = 0;
  sigaction(SIGTERM, &stop_action, nullptr);
  sigaction(SIGINT, &stop_action, nullptr);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  proxy.Stop();
  ChaosProxy::Stats stats = proxy.stats();
  std::cout << "chaos: connections=" << stats.connections
            << " refused=" << stats.refused << " bytes_up=" << stats.bytes_up
            << " bytes_down=" << stats.bytes_down
            << " blocks_dropped=" << stats.blocks_dropped
            << " bits_flipped=" << stats.bits_flipped << " rsts=" << stats.rsts
            << std::endl;
  return 0;
}
