// A loopback client of ecrint_serve speaking binary protocol v2: connects,
// negotiates `proto 2`, then exchanges length-prefixed frames with blocking
// round trips.
#ifndef E2EBENCH_CLIENT_H_
#define E2EBENCH_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"

namespace e2e {

using ecrint::service::BinaryRequest;
using ecrint::service::ServiceResponse;

// Frames sent per verb name ("batch" counts batch frames; their items are
// counted under their own verbs), for reconciliation against the server's
// requests.<verb> counters.
using VerbCounts = std::map<std::string, int64_t>;

class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  // Connects to 127.0.0.1:port and switches the connection to protocol v2.
  bool Open(int port, std::string* error);
  void Close();
  int fd() const { return fd_; }

  // Blocking round trip of one request. False on a transport or framing
  // error (the connection is then unusable).
  bool Call(const BinaryRequest& request, ServiceResponse* response);
  // Blocking round trip of one batch frame; one response per item.
  bool CallBatch(const std::vector<BinaryRequest>& requests,
                 std::vector<ServiceResponse>* responses);
  // Binds the connection's session to `project` (closing the previous
  // session first, so sessions do not accumulate on the server).
  bool Bind(const std::string& project, std::string* error);
  const std::string& project() const { return project_; }

  const VerbCounts& sent() const { return sent_; }
  int64_t frames_sent() const { return frames_sent_; }
  int64_t batch_items_sent() const { return batch_items_sent_; }

 private:
  bool SendAll(const std::string& bytes);
  bool RecvBody(std::string* body);
  void Count(const BinaryRequest& request);

  int fd_ = -1;
  std::string project_;
  std::string in_;
  VerbCounts sent_;
  int64_t frames_sent_ = 0;
  int64_t batch_items_sent_ = 0;
};

void MergeCounts(const VerbCounts& from, VerbCounts* into);

// Renders a response for error messages ("ok" or "CODE: message").
std::string Describe(const ServiceResponse& response);
bool IsCode(const ServiceResponse& response,
            ecrint::service::ServiceErrorCode code);

}  // namespace e2e

#endif  // E2EBENCH_CLIENT_H_
