#ifndef ECRINT_SERVICE_ROUTER_H_
#define ECRINT_SERVICE_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "service/response_cache.h"
#include "service/service.h"
#include "service/verbs.h"

namespace ecrint::service {

// Per-connection protocol state: which session the connection is bound to
// (set by `open`), the connection's relative deadline override (set by
// `deadline`), and the negotiated protocol version (set by `proto`). One
// transport connection owns one RouterSession and issues requests on it
// one at a time.
struct RouterSession {
  std::string session_id;
  // Relative deadline applied to subsequent requests; unset = server
  // default. `deadline 0` makes every request expire immediately (the
  // deterministic TIMEOUT path tests use with a ManualClock).
  std::optional<int64_t> deadline_override_ns;
  // kProtocolTextVersion until the client sends `proto 2`; after the ok
  // reply to that verb both sides speak the binary framing and the
  // transport must feed frames to HandleFrame instead of lines to
  // HandleLine.
  int protocol_version = kProtocolTextVersion;
};

// Translates protocol requests into IntegrationService calls. The router
// is stateless per request and thread-safe: all per-connection state lives
// in the RouterSession the transport passes in, all shared state in the
// service (plus the router's ResponseCache, which is internally locked).
//
// Both protocols take one path: a text line is tokenized (define's escaped
// tail becomes one unescaped argument), a binary request arrives as a
// verb code plus raw arguments, and either way the request resolves to a
// row of the verb table (service/verbs.cc — names, arity, grammar, flags)
// whose parser builds the ServiceCommand. Connection verbs (open / close /
// deadline / proto) and failover admin verbs (promote / demote) are
// answered here; every other request runs through
// IntegrationService::Execute, a lone request as a batch of one. The
// grammar is documented in docs/FORMATS.md.
class RequestRouter {
 public:
  explicit RequestRouter(IntegrationService* service) : service_(service) {
    cache_.SetEvictionCounter(
        service_->metrics().GetCounter("cache.evictions"));
  }

  // Handles one text request line synchronously; returns the framed
  // response (FormatResponse output, ready to write to the wire).
  std::string HandleLine(const std::string& line, RouterSession* session);

  // Handles one binary frame BODY (the bytes after the length prefix —
  // what ExtractFrame hands back) and returns a complete response frame
  // (length prefix included). A request frame yields a response frame; a
  // batch frame yields a batch response frame with one entry per item, in
  // order. Verbs the table marks unbatchable (connection and failover
  // verbs) are rejected inside batches: they mutate connection or node
  // state mid-pipeline.
  std::string HandleFrame(std::string_view body, RouterSession* session);

  // Incremental transport feed: the event-driven front end calls this with
  // whatever bytes arrived, however they were fragmented. Every complete
  // request buffered in `*input` is handled (text lines or binary frames,
  // switching modes when a response renegotiates the protocol) and its
  // framed response appended to `*output`; consumed bytes are erased from
  // `*input` (a partial trailing line/frame stays for the next call).
  // Responses are byte-identical to whole-message delivery.
  enum class FeedOutcome {
    // Everything complete was handled; read more bytes from the peer.
    kNeedMore,
    // A replication subscribe frame (0x03): `*handoff` holds the frame
    // body; the transport moves this connection onto the streaming path
    // after flushing `*output`.
    kHandoff,
    // Unrecoverable protocol error (malformed frame, oversized request
    // line): a refusal was appended to `*output`; flush it, then close.
    kClose,
  };
  FeedOutcome Feed(std::string* input, RouterSession* session,
                   std::string* output, std::string* handoff);

  IntegrationService* service() { return service_; }
  ResponseCache& cache() { return cache_; }

 private:
  // One request of either protocol that passed the router's checks (a
  // known verb, a session when the verb needs one). Returns the response
  // in `protocol`'s framing.
  std::string Respond(const Verb& verb, const std::vector<std::string>& args,
                      RouterSession* session, int protocol);

  // The connection's deadline override as an absolute deadline, or 0 for
  // the service default.
  int64_t DeadlineFor(const RouterSession& session) const;

  // Connection verbs (open / close / deadline / proto) and failover verbs
  // (promote / demote): the rows without a parser.
  ServiceResponse HandleLocalVerb(const Verb& verb,
                                  const std::vector<std::string>& args,
                                  RouterSession* session);

  IntegrationService* service_;
  ResponseCache cache_;
};

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_ROUTER_H_
