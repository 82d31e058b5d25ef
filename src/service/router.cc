#include "service/router.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace ecrint::service {

namespace {

ServiceResponse BadRequest(std::string message) {
  ServiceResponse response;
  response.error = {ServiceErrorCode::kBadRequest, std::move(message)};
  return response;
}

std::string Encode(const ServiceResponse& response, int protocol) {
  return protocol == kProtocolBinaryVersion ? EncodeBinaryResponse(response)
                                            : FormatResponse(response);
}

// The raw text after the verb token (define's escaped DDL, which may
// contain spaces).
std::string TailAfterVerb(const std::string& line) {
  std::string_view rest = StripWhitespace(line);
  size_t space = rest.find_first_of(" \t");
  if (space == std::string_view::npos) return "";
  rest.remove_prefix(space);
  return std::string(StripWhitespace(rest));
}

// The checks every request passes before its arguments are looked at, in
// this order: batch eligibility, a bound session, a known verb. `name` is
// the verb as the client spelled it ("" for a binary verb code).
std::optional<ServiceResponse> Refuse(const Verb* verb, std::string_view name,
                                      bool in_batch,
                                      const RouterSession& session) {
  if (in_batch && verb != nullptr && !verb->batchable()) {
    return BadRequest(std::string(verb->name) + " not allowed in batch");
  }
  if ((verb == nullptr || !verb->session_free()) &&
      session.session_id.empty()) {
    return BadRequest("no session; send: open [project]");
  }
  if (verb == nullptr) {
    return BadRequest(name.empty() ? std::string("unknown verb")
                                   : "unknown verb '" + std::string(name) +
                                         "'");
  }
  return std::nullopt;
}

// Bridges the service's read-cache hook to the router's ResponseCache.
// Entries are keyed by project, verb name and arguments, so text and binary
// requests share them.
class RouterReadCache final : public BatchReadCache {
 public:
  // `wire_protocol` frames a lone request's hit for that protocol; 0 for
  // batch items, which the batch encoder frames itself.
  RouterReadCache(ResponseCache* cache, int wire_protocol)
      : cache_(cache), wire_protocol_(wire_protocol) {}

  // Registers the request behind the next command index.
  void Add(const Verb& verb, const std::vector<std::string>& args) {
    requests_.push_back({verb.name, &args});
  }

  std::optional<ServiceResponse> Lookup(
      size_t index, const std::string& project,
      const EngineSnapshot& snapshot) override {
    std::string key = KeyOf(index, project);
    if (wire_protocol_ == 0) return cache_->LookupResponse(key, snapshot);
    std::optional<ResponseCache::Hit> hit =
        cache_->Lookup(key, snapshot, wire_protocol_);
    if (!hit.has_value()) return std::nullopt;
    wire_ = std::move(hit->wire);
    return std::move(hit->response);
  }

  void Insert(size_t index, const std::string& project,
              const EngineSnapshot& snapshot,
              const ServiceResponse& response) override {
    cache_->Insert(KeyOf(index, project), snapshot, response);
  }

  // The pre-serialized frame of a lone request's hit ("" on a miss).
  std::string& wire() { return wire_; }

 private:
  std::string KeyOf(size_t index, const std::string& project) const {
    return ResponseCache::Key(project, requests_[index].first,
                              *requests_[index].second);
  }

  ResponseCache* cache_;
  int wire_protocol_;
  std::vector<std::pair<const char*, const std::vector<std::string>*>>
      requests_;
  std::string wire_;
};

// `promote`: make this node the write leader of the session's project at a
// freshly bumped epoch. Answers "leader epoch <N>".
ServiceResponse PromoteVerb(IntegrationService* service,
                            const std::string& session_id) {
  Result<std::string> project = service->sessions().ProjectOf(session_id);
  if (!project.ok()) return BadRequest(project.status().ToString());
  Result<uint64_t> epoch = service->PromoteProject(*project);
  if (!epoch.ok()) {
    ServiceResponse response;
    response.error = {ServiceErrorCode::kConflict, epoch.status().message()};
    return response;
  }
  ServiceResponse response;
  response.lines.push_back("leader epoch " + std::to_string(*epoch));
  return response;
}

// `demote <epoch> <leader-addr>`: fence this node behind `leader-addr` at
// `epoch`. A stale epoch answers CONFLICT (the node keeps its role).
ServiceResponse DemoteVerb(IntegrationService* service,
                           const std::string& session_id,
                           const std::string& epoch_arg,
                           const std::string& leader_addr) {
  Result<std::string> project = service->sessions().ProjectOf(session_id);
  if (!project.ok()) return BadRequest(project.status().ToString());
  // Strict base-10 parse: strtoull on its own accepts leading whitespace
  // and a '-' sign (negating the value into the upper range) and saturates
  // silently on overflow to 2^64-1 — any of which would poison the fence:
  // PromoteProject computes epoch+1, so a near-max epoch wraps to 0 and no
  // future promote could ever supersede it. Require a digit-led token,
  // reject ERANGE, and cap at 2^64-2 so an increment always fits.
  if (epoch_arg.empty() ||
      std::isdigit(static_cast<unsigned char>(epoch_arg[0])) == 0) {
    return BadRequest("expected epoch, got '" + epoch_arg + "'");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long epoch = std::strtoull(epoch_arg.c_str(), &end, 10);
  if (end == epoch_arg.c_str() || *end != '\0' || errno == ERANGE ||
      epoch >= std::numeric_limits<uint64_t>::max()) {
    return BadRequest("epoch out of range: '" + epoch_arg + "'");
  }
  if (leader_addr.empty()) {
    return BadRequest("usage: demote <epoch> <leader-addr>");
  }
  Status demoted =
      service->DemoteProject(*project, static_cast<uint64_t>(epoch),
                             leader_addr);
  if (!demoted.ok()) {
    ServiceResponse response;
    response.error = {ServiceErrorCode::kConflict, demoted.message()};
    return response;
  }
  ServiceResponse response;
  if (!service->LeadsWrites() && service->CurrentLeaderAddr().empty()) {
    // The hint pointed back at this node, so the service fenced instead of
    // following itself; saying "following" here would tell the operator
    // the redirect loop they just avoided is in effect.
    response.lines.push_back("fenced at epoch " + epoch_arg +
                             " (hint points at this node)");
  } else {
    response.lines.push_back("following " + leader_addr + " at epoch " +
                             epoch_arg);
  }
  return response;
}

}  // namespace

std::string RequestRouter::HandleLine(const std::string& line,
                                      RouterSession* session) {
  // Size and byte-content limits come first: an oversized or NUL-bearing
  // line is refused before any token of it is interpreted.
  if (Status valid = ValidateRequestLine(line); !valid.ok()) {
    return FormatResponse(BadRequest(valid.message()));
  }
  std::vector<std::string> tokens = Tokenize(line);
  if (tokens.empty()) return FormatResponse(BadRequest("empty request"));
  const Verb* verb = FindVerb(tokens[0]);
  if (std::optional<ServiceResponse> refused =
          Refuse(verb, tokens[0], /*in_batch=*/false, *session)) {
    return FormatResponse(*refused);
  }
  std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (verb->wire == WireVerb::kDefine) {
    // define's DDL travels escaped in the raw tail, spaces and all; it
    // becomes ONE unescaped argument, exactly what a binary client sends.
    args.clear();
    if (std::string tail = TailAfterVerb(line); !tail.empty()) {
      Result<std::string> ddl = UnescapeField(tail);
      if (!ddl.ok()) return FormatResponse(BadRequest(ddl.status().ToString()));
      args.push_back(*std::move(ddl));
    }
  }
  return Respond(*verb, args, session, kProtocolTextVersion);
}

std::string RequestRouter::Respond(const Verb& verb,
                                   const std::vector<std::string>& args,
                                   RouterSession* session, int protocol) {
  ServiceCommand command;
  if (std::string error = ParseArgs(verb, args, &command); !error.empty()) {
    return Encode(BadRequest(std::move(error)), protocol);
  }
  if (verb.parse == nullptr) {
    return Encode(HandleLocalVerb(verb, args, session), protocol);
  }
  command.deadline_ns = DeadlineFor(*session);
  RouterReadCache cache(&cache_, protocol);
  cache.Add(verb, args);
  ServiceResponse response = std::move(
      service_->Execute(session->session_id, {&command, 1}, &cache).front());
  if (!cache.wire().empty()) return std::move(cache.wire());
  return Encode(response, protocol);
}

int64_t RequestRouter::DeadlineFor(const RouterSession& session) const {
  // The connection override as an absolute deadline, or 0 to let the
  // service apply its default.
  return session.deadline_override_ns.has_value()
             ? service_->clock()->NowNs() + *session.deadline_override_ns
             : 0;
}

ServiceResponse RequestRouter::HandleLocalVerb(
    const Verb& verb, const std::vector<std::string>& args,
    RouterSession* session) {
  switch (verb.wire) {
    case WireVerb::kOpen: {
      std::string project = args.size() == 1 ? args[0] : "default";
      session->session_id = service_->OpenSession(project);
      ServiceResponse response;
      response.lines.push_back(session->session_id);
      return response;
    }
    case WireVerb::kClose: {
      Status status = service_->CloseSession(session->session_id);
      session->session_id.clear();
      if (!status.ok()) return BadRequest(status.ToString());
      return ServiceResponse{};
    }
    case WireVerb::kDeadline: {
      if (args[0] == "default") {
        session->deadline_override_ns.reset();
        return ServiceResponse{};
      }
      Result<int> ms = ParseIntArg(args[0]);
      if (!ms.ok()) return BadRequest(ms.status().ToString());
      if (*ms < 0) return BadRequest("deadline must be >= 0 ms");
      session->deadline_override_ns = static_cast<int64_t>(*ms) * 1'000'000;
      return ServiceResponse{};
    }
    case WireVerb::kProto: {
      Result<int> version = ParseIntArg(args[0]);
      if (!version.ok()) return BadRequest(version.status().ToString());
      if (*version != kProtocolTextVersion &&
          *version != kProtocolBinaryVersion) {
        return BadRequest("unsupported protocol version '" + args[0] + "'");
      }
      session->protocol_version = *version;
      ServiceResponse response;
      response.lines.push_back("proto " + std::to_string(*version));
      return response;
    }
    case WireVerb::kPromote:
      return PromoteVerb(service_, session->session_id);
    case WireVerb::kDemote:
      return DemoteVerb(service_, session->session_id, args[0], args[1]);
    default:
      return BadRequest("unknown verb");
  }
}

std::string RequestRouter::HandleFrame(std::string_view body,
                                       RouterSession* session) {
  Result<DecodedRequest> decoded = DecodeBinaryRequest(body);
  if (!decoded.ok()) {
    return EncodeBinaryResponse(BadRequest(decoded.status().message()));
  }

  if (!decoded->batch) {
    const BinaryRequest& request = decoded->items[0];
    const Verb* verb = FindVerb(request.verb);
    if (std::optional<ServiceResponse> refused =
            Refuse(verb, "", /*in_batch=*/false, *session)) {
      return EncodeBinaryResponse(*refused);
    }
    return Respond(*verb, request.args, session, kProtocolBinaryVersion);
  }

  // Batch frame: parse every item first, then hand the runnable commands
  // to the service as ONE pipelined Execute. Items the router refuses keep
  // their error in place; the rest keep their order.
  const size_t n = decoded->items.size();
  std::vector<ServiceResponse> out(n);
  std::vector<ServiceCommand> commands;
  std::vector<size_t> slots;
  RouterReadCache cache(&cache_, /*wire_protocol=*/0);
  commands.reserve(n);
  slots.reserve(n);
  const int64_t deadline_ns = DeadlineFor(*session);
  for (size_t i = 0; i < n; ++i) {
    const BinaryRequest& item = decoded->items[i];
    const Verb* verb = FindVerb(item.verb);
    if (std::optional<ServiceResponse> refused =
            Refuse(verb, "", /*in_batch=*/true, *session)) {
      out[i] = *std::move(refused);
      continue;
    }
    ServiceCommand command;
    if (std::string error = ParseArgs(*verb, item.args, &command);
        !error.empty()) {
      out[i] = BadRequest(std::move(error));
      continue;
    }
    command.deadline_ns = deadline_ns;
    slots.push_back(i);
    commands.push_back(std::move(command));
    cache.Add(*verb, item.args);
  }
  std::vector<ServiceResponse> results = service_->Execute(
      session->session_id, commands, &cache, /*batch_frame=*/true);
  for (size_t j = 0; j < results.size(); ++j) {
    out[slots[j]] = std::move(results[j]);
  }
  return EncodeBinaryBatchResponse(out);
}

RequestRouter::FeedOutcome RequestRouter::Feed(std::string* input,
                                               RouterSession* session,
                                               std::string* output,
                                               std::string* handoff) {
  // Consumed bytes are tracked as an offset and erased once on exit — a
  // front-of-string erase per pipelined request would be quadratic.
  size_t offset = 0;
  FeedOutcome outcome = FeedOutcome::kNeedMore;
  for (;;) {
    if (session->protocol_version == kProtocolBinaryVersion) {
      std::string_view rest(*input);
      rest.remove_prefix(offset);
      std::string_view body;
      size_t consumed = 0;
      std::string frame_error;
      FrameStatus status =
          ExtractFrame(rest, &body, &consumed, &frame_error);
      if (status == FrameStatus::kError) {
        // Malformed framing is unrecoverable (the stream cannot be
        // resynchronized); answer once and close.
        *output += EncodeBinaryResponse(BadRequest(frame_error));
        outcome = FeedOutcome::kClose;
        break;
      }
      if (status == FrameStatus::kNeedMore) break;
      if (!body.empty() &&
          static_cast<uint8_t>(body[0]) == kFrameReplSubscribe) {
        handoff->assign(body.data(), body.size());
        offset += consumed;
        outcome = FeedOutcome::kHandoff;
        break;
      }
      *output += HandleFrame(body, session);
      offset += consumed;
      // The response may have renegotiated the protocol; the next loop
      // iteration re-reads session->protocol_version either way.
    } else {
      size_t newline = input->find('\n', offset);
      if (newline == std::string::npos) {
        if (input->size() - offset > kMaxRequestLineBytes) {
          // A peer that streams bytes without ever sending a newline must
          // not grow the buffer without bound: past the request-line limit
          // the connection gets one error frame and is closed.
          *output += FormatResponse(BadRequest(
              "request line exceeds " +
              std::to_string(kMaxRequestLineBytes) + " bytes"));
          outcome = FeedOutcome::kClose;
        }
        break;
      }
      std::string line = input->substr(offset, newline - offset);
      offset = newline + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      *output += HandleLine(line, session);
    }
  }
  input->erase(0, offset);
  return outcome;
}

}  // namespace ecrint::service
