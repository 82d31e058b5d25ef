#include "service/protocol.h"

#include <sstream>

#include "common/strings.h"

namespace ecrint::service {

Status ValidateRequestLine(std::string_view line) {
  if (line.size() > kMaxRequestLineBytes) {
    return InvalidArgumentError(
        "request line of " + std::to_string(line.size()) +
        " bytes exceeds the " + std::to_string(kMaxRequestLineBytes) +
        "-byte limit");
  }
  if (line.find('\0') != std::string_view::npos) {
    return InvalidArgumentError("request line contains a NUL byte");
  }
  return Status::Ok();
}

std::string EscapeField(std::string_view text) {
  // The wire escaping and the journal-payload escaping are the same
  // encoding on purpose: one set of invariants, one implementation.
  return EscapeBackslash(text);
}

Result<std::string> UnescapeField(std::string_view text) {
  return UnescapeBackslash(text);
}

std::vector<std::string> Tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t begin = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > begin) tokens.emplace_back(line.substr(begin, i - begin));
  }
  return tokens;
}

std::string FormatResponse(const ServiceResponse& response) {
  std::ostringstream out;
  if (response.ok()) {
    out << "ok\n";
  } else {
    out << "err " << ServiceErrorCodeName(response.error->code);
    if (response.error->retry_after_ms > 0) {
      out << " retry-after-ms=" << response.error->retry_after_ms;
    }
    if (response.error->code == ServiceErrorCode::kNotLeader &&
        !response.error->leader.empty()) {
      out << " leader=" << response.error->leader;
    }
    out << " " << EscapeField(response.error->message) << "\n";
  }
  for (const std::string& line : response.lines) {
    std::string escaped = EscapeField(line);
    if (!escaped.empty() && escaped[0] == '.') out << '.';
    out << escaped << "\n";
  }
  out << ".\n";
  return out.str();
}

Result<ServiceResponse> ParseResponse(std::string_view wire) {
  if (wire.size() > kMaxResponseFrameBytes) {
    return ParseError("response frame of " + std::to_string(wire.size()) +
                      " bytes exceeds the " +
                      std::to_string(kMaxResponseFrameBytes) + "-byte limit");
  }
  std::vector<std::string> lines = Split(wire, '\n');
  // A well-formed frame ends "...\n.\n" -> trailing empty piece from Split.
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() < 2 || lines.back() != ".") {
    return ParseError("response frame missing '.' terminator");
  }
  lines.pop_back();

  ServiceResponse response;
  const std::string& status_line = lines.front();
  if (status_line == "ok") {
    // success
  } else if (StartsWith(status_line, "err ")) {
    std::vector<std::string> parts = Tokenize(status_line);
    if (parts.size() < 2) return ParseError("malformed err line");
    ServiceError error;
    if (parts[1] == "OVERLOADED") {
      error.code = ServiceErrorCode::kOverloaded;
    } else if (parts[1] == "TIMEOUT") {
      error.code = ServiceErrorCode::kTimeout;
    } else if (parts[1] == "CONFLICT") {
      error.code = ServiceErrorCode::kConflict;
    } else if (parts[1] == "BAD_REQUEST") {
      error.code = ServiceErrorCode::kBadRequest;
    } else if (parts[1] == "UNAVAILABLE") {
      error.code = ServiceErrorCode::kUnavailable;
    } else if (parts[1] == "NOT_LEADER") {
      error.code = ServiceErrorCode::kNotLeader;
    } else {
      return ParseError("unknown error code '" + parts[1] + "'");
    }
    size_t message_at = status_line.find(parts[1]) + parts[1].size();
    while (message_at < status_line.size() &&
           status_line[message_at] == ' ') {
      ++message_at;
    }
    constexpr std::string_view kRetryToken = "retry-after-ms=";
    if (status_line.compare(message_at, kRetryToken.size(), kRetryToken) ==
        0) {
      size_t value_at = message_at + kRetryToken.size();
      size_t value_end = value_at;
      int64_t value = 0;
      while (value_end < status_line.size() &&
             status_line[value_end] >= '0' && status_line[value_end] <= '9') {
        value = value * 10 + (status_line[value_end] - '0');
        ++value_end;
      }
      if (value_end == value_at) {
        return ParseError("malformed retry-after-ms token");
      }
      error.retry_after_ms = value;
      message_at = value_end;
      while (message_at < status_line.size() &&
             status_line[message_at] == ' ') {
        ++message_at;
      }
    }
    constexpr std::string_view kLeaderToken = "leader=";
    if (status_line.compare(message_at, kLeaderToken.size(), kLeaderToken) ==
        0) {
      size_t value_at = message_at + kLeaderToken.size();
      size_t value_end = status_line.find(' ', value_at);
      if (value_end == std::string::npos) value_end = status_line.size();
      if (value_end == value_at) {
        return ParseError("malformed leader token");
      }
      error.leader = status_line.substr(value_at, value_end - value_at);
      message_at = value_end;
      while (message_at < status_line.size() &&
             status_line[message_at] == ' ') {
        ++message_at;
      }
    }
    ECRINT_ASSIGN_OR_RETURN(error.message,
                            UnescapeField(status_line.substr(message_at)));
    response.error = std::move(error);
  } else {
    return ParseError("malformed status line '" + status_line + "'");
  }

  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view payload = lines[i];
    if (!payload.empty() && payload[0] == '.') payload.remove_prefix(1);
    ECRINT_ASSIGN_OR_RETURN(std::string unescaped, UnescapeField(payload));
    response.lines.push_back(std::move(unescaped));
  }
  return response;
}

// ---------------------------------------------------------------------------
// Binary framing (protocol v2).
// ---------------------------------------------------------------------------

namespace {

// Frames `body` with its varint length prefix.
std::string FrameBody(std::string body) {
  std::string out;
  PutVarint(out, body.size());
  out += body;
  return out;
}

void EncodeRequestPayload(const BinaryRequest& request, std::string& out) {
  out.push_back(static_cast<char>(request.verb));
  PutVarint(out, request.args.size());
  for (const std::string& arg : request.args) PutLpString(out, arg);
}

Result<BinaryRequest> DecodeRequestPayload(std::string_view& body) {
  if (body.empty()) return ParseError("truncated request (missing verb)");
  BinaryRequest request;
  request.verb = static_cast<WireVerb>(static_cast<uint8_t>(body[0]));
  body.remove_prefix(1);
  uint64_t argc = 0;
  if (!GetVarint(body, argc)) return ParseError("bad request argc varint");
  // Each arg needs at least its 1-byte length prefix, so argc can never
  // exceed the bytes left — reject before reserving anything.
  if (argc > body.size()) return ParseError("implausible request argc");
  request.args.reserve(static_cast<size_t>(argc));
  for (uint64_t i = 0; i < argc; ++i) {
    std::string_view arg;
    if (!GetLpString(body, arg)) {
      return ParseError("truncated request arg " + std::to_string(i));
    }
    request.args.emplace_back(arg);
  }
  return request;
}

void EncodeResponsePayload(const ServiceResponse& response, std::string& out) {
  if (response.ok()) {
    out.push_back('\0');
  } else {
    out.push_back(
        static_cast<char>(static_cast<uint8_t>(response.error->code) + 1));
    PutVarint(out, response.error->retry_after_ms > 0
                       ? static_cast<uint64_t>(response.error->retry_after_ms)
                       : 0);
    PutLpString(out, response.error->message);
    // The leader address rides only behind its own (new) status byte, so
    // every pre-NOT_LEADER frame is byte-identical to what v2 always sent.
    if (response.error->code == ServiceErrorCode::kNotLeader) {
      PutLpString(out, response.error->leader);
    }
  }
  PutVarint(out, response.lines.size());
  for (const std::string& line : response.lines) PutLpString(out, line);
}

Result<ServiceResponse> DecodeResponsePayload(std::string_view& body) {
  if (body.empty()) return ParseError("truncated response (missing status)");
  uint8_t status = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  ServiceResponse response;
  if (status != 0) {
    if (status > 1 + static_cast<uint8_t>(ServiceErrorCode::kNotLeader)) {
      return ParseError("unknown binary status byte " +
                        std::to_string(status));
    }
    ServiceError error;
    error.code = static_cast<ServiceErrorCode>(status - 1);
    uint64_t retry_ms = 0;
    if (!GetVarint(body, retry_ms)) {
      return ParseError("bad retry-after varint");
    }
    error.retry_after_ms = static_cast<int64_t>(retry_ms);
    std::string_view message;
    if (!GetLpString(body, message)) {
      return ParseError("truncated error message");
    }
    error.message = std::string(message);
    if (error.code == ServiceErrorCode::kNotLeader) {
      std::string_view leader;
      if (!GetLpString(body, leader)) {
        return ParseError("truncated leader address");
      }
      error.leader = std::string(leader);
    }
    response.error = std::move(error);
  }
  uint64_t nlines = 0;
  if (!GetVarint(body, nlines)) return ParseError("bad nlines varint");
  if (nlines > body.size()) return ParseError("implausible nlines");
  response.lines.reserve(static_cast<size_t>(nlines));
  for (uint64_t i = 0; i < nlines; ++i) {
    std::string_view line;
    if (!GetLpString(body, line)) {
      return ParseError("truncated payload line " + std::to_string(i));
    }
    response.lines.emplace_back(line);
  }
  return response;
}

}  // namespace

void PutVarint(std::string& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

bool GetVarint(std::string_view& in, uint64_t& value) {
  value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (in.empty()) return false;
    uint8_t byte = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // The 10th byte may only carry the top bit of a 64-bit value.
      if (shift == 63 && byte > 1) return false;
      return true;
    }
  }
  return false;  // > 10 bytes: overlong
}

void PutLpString(std::string& out, std::string_view bytes) {
  PutVarint(out, bytes.size());
  out.append(bytes);
}

bool GetLpString(std::string_view& in, std::string_view& bytes) {
  uint64_t length = 0;
  if (!GetVarint(in, length)) return false;
  if (length > in.size()) return false;
  bytes = in.substr(0, static_cast<size_t>(length));
  in.remove_prefix(static_cast<size_t>(length));
  return true;
}

std::string EncodeBinaryRequest(const BinaryRequest& request) {
  std::string body;
  body.push_back(static_cast<char>(kFrameRequest));
  EncodeRequestPayload(request, body);
  return FrameBody(std::move(body));
}

std::string EncodeBinaryBatch(const std::vector<BinaryRequest>& requests) {
  std::string body;
  body.push_back(static_cast<char>(kFrameBatchRequest));
  PutVarint(body, requests.size());
  for (const BinaryRequest& request : requests) {
    EncodeRequestPayload(request, body);
  }
  return FrameBody(std::move(body));
}

std::string EncodeBinaryResponse(const ServiceResponse& response) {
  std::string body;
  body.push_back(static_cast<char>(kFrameResponse));
  EncodeResponsePayload(response, body);
  return FrameBody(std::move(body));
}

std::string EncodeBinaryBatchResponse(
    const std::vector<ServiceResponse>& responses) {
  std::string body;
  body.push_back(static_cast<char>(kFrameBatchResponse));
  PutVarint(body, responses.size());
  for (const ServiceResponse& response : responses) {
    EncodeResponsePayload(response, body);
  }
  return FrameBody(std::move(body));
}

FrameStatus ExtractFrame(std::string_view buffer, std::string_view* body,
                         size_t* consumed, std::string* error) {
  std::string_view rest = buffer;
  uint64_t length = 0;
  if (!GetVarint(rest, length)) {
    // Distinguish "prefix not all here yet" from "prefix malformed": a
    // valid varint never needs more than 10 bytes.
    if (buffer.size() >= 10) {
      if (error != nullptr) *error = "malformed frame length varint";
      return FrameStatus::kError;
    }
    return FrameStatus::kNeedMore;
  }
  if (length > kMaxBinaryFrameBytes) {
    if (error != nullptr) {
      *error = "frame of " + std::to_string(length) + " bytes exceeds the " +
               std::to_string(kMaxBinaryFrameBytes) + "-byte limit";
    }
    return FrameStatus::kError;
  }
  if (rest.size() < length) return FrameStatus::kNeedMore;
  *body = rest.substr(0, static_cast<size_t>(length));
  *consumed = (buffer.size() - rest.size()) + static_cast<size_t>(length);
  return FrameStatus::kComplete;
}

Result<DecodedRequest> DecodeBinaryRequest(std::string_view body) {
  if (body.empty()) return ParseError("empty frame body");
  uint8_t type = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  DecodedRequest decoded;
  if (type == kFrameRequest) {
    ECRINT_ASSIGN_OR_RETURN(BinaryRequest request,
                            DecodeRequestPayload(body));
    decoded.items.push_back(std::move(request));
  } else if (type == kFrameBatchRequest) {
    decoded.batch = true;
    uint64_t count = 0;
    if (!GetVarint(body, count)) return ParseError("bad batch count varint");
    if (count > kMaxBatchItems) {
      return ParseError("batch of " + std::to_string(count) +
                        " requests exceeds the " +
                        std::to_string(kMaxBatchItems) + "-request limit");
    }
    decoded.items.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      ECRINT_ASSIGN_OR_RETURN(BinaryRequest request,
                              DecodeRequestPayload(body));
      decoded.items.push_back(std::move(request));
    }
  } else {
    return ParseError("unknown request frame type " + std::to_string(type));
  }
  if (!body.empty()) {
    return ParseError("trailing garbage (" + std::to_string(body.size()) +
                      " bytes) after request frame");
  }
  return decoded;
}

Result<DecodedResponse> DecodeBinaryResponse(std::string_view body) {
  if (body.empty()) return ParseError("empty frame body");
  uint8_t type = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  DecodedResponse decoded;
  if (type == kFrameResponse) {
    ECRINT_ASSIGN_OR_RETURN(ServiceResponse response,
                            DecodeResponsePayload(body));
    decoded.items.push_back(std::move(response));
  } else if (type == kFrameBatchResponse) {
    decoded.batch = true;
    uint64_t count = 0;
    if (!GetVarint(body, count)) return ParseError("bad batch count varint");
    if (count > kMaxBatchItems) return ParseError("implausible batch count");
    decoded.items.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      ECRINT_ASSIGN_OR_RETURN(ServiceResponse response,
                              DecodeResponsePayload(body));
      decoded.items.push_back(std::move(response));
    }
  } else {
    return ParseError("unknown response frame type " + std::to_string(type));
  }
  if (!body.empty()) {
    return ParseError("trailing garbage (" + std::to_string(body.size()) +
                      " bytes) after response frame");
  }
  return decoded;
}

}  // namespace ecrint::service
