#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "worlds.h"

namespace e2e {

namespace service = ecrint::service;

Conn::~Conn() { Close(); }

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool Conn::Open(int port, std::string* error) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (!SendAll("proto 2\n")) {
    *error = "sending proto 2 failed";
    return false;
  }
  // Text reply: "ok\nproto 2\n.\n".
  while (in_.find("\n.\n") == std::string::npos) {
    char chunk[512];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = "no reply to proto 2";
      return false;
    }
    in_.append(chunk, static_cast<size_t>(n));
  }
  size_t end = in_.find("\n.\n");
  if (in_.rfind("ok\n", 0) != 0) {
    *error = "proto 2 refused: " + in_.substr(0, end);
    return false;
  }
  in_.erase(0, end + 3);
  return true;
}

bool Conn::SendAll(const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::send(fd_, bytes.data() + done, bytes.size() - done,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::RecvBody(std::string* body) {
  for (;;) {
    std::string_view view;
    size_t consumed = 0;
    std::string frame_error;
    service::FrameStatus status =
        service::ExtractFrame(in_, &view, &consumed, &frame_error);
    if (status == service::FrameStatus::kComplete) {
      body->assign(view.data(), view.size());
      in_.erase(0, consumed);
      return true;
    }
    if (status == service::FrameStatus::kError) return false;
    char chunk[65536];
    ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    in_.append(chunk, static_cast<size_t>(n));
  }
}

void Conn::Count(const BinaryRequest& request) {
  ++sent_[service::WireVerbName(request.verb)];
}

bool Conn::Call(const BinaryRequest& request, ServiceResponse* response) {
  std::string frame = service::EncodeBinaryRequest(request);
  Count(request);
  ++frames_sent_;
  std::string body;
  if (!SendAll(frame) || !RecvBody(&body)) return false;
  ecrint::Result<service::DecodedResponse> decoded =
      service::DecodeBinaryResponse(body);
  if (!decoded.ok() || decoded->batch || decoded->items.size() != 1) {
    return false;
  }
  *response = std::move(decoded->items[0]);
  return true;
}

bool Conn::CallBatch(const std::vector<BinaryRequest>& requests,
                     std::vector<ServiceResponse>* responses) {
  std::string frame = service::EncodeBinaryBatch(requests);
  for (const BinaryRequest& request : requests) Count(request);
  ++sent_["batch"];
  batch_items_sent_ += static_cast<int64_t>(requests.size());
  ++frames_sent_;
  std::string body;
  if (!SendAll(frame) || !RecvBody(&body)) return false;
  ecrint::Result<service::DecodedResponse> decoded =
      service::DecodeBinaryResponse(body);
  if (!decoded.ok() || !decoded->batch ||
      decoded->items.size() != requests.size()) {
    return false;
  }
  *responses = std::move(decoded->items);
  return true;
}

bool Conn::Bind(const std::string& project, std::string* error) {
  ServiceResponse response;
  if (!project_.empty()) {
    if (!Call(MakeRequest(WireVerb::kClose), &response) || !response.ok()) {
      *error = "close failed: " + Describe(response);
      return false;
    }
  }
  if (!Call(MakeRequest(WireVerb::kOpen, {project}), &response) ||
      !response.ok()) {
    *error = "open " + project + " failed: " + Describe(response);
    return false;
  }
  project_ = project;
  return true;
}

void MergeCounts(const VerbCounts& from, VerbCounts* into) {
  for (const auto& [verb, count] : from) (*into)[verb] += count;
}

std::string Describe(const ServiceResponse& response) {
  if (response.ok()) return "ok";
  return std::string(service::ServiceErrorCodeName(response.error->code)) +
         ": " + response.error->message;
}

bool IsCode(const ServiceResponse& response, service::ServiceErrorCode code) {
  return response.error.has_value() && response.error->code == code;
}

}  // namespace e2e
