#ifndef ECRINT_SERVICE_VERBS_H_
#define ECRINT_SERVICE_VERBS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"

namespace ecrint::service {

struct Verb;

// Fills the verb-specific payload of `out` from the request's arguments
// (arity is already checked against the row). Returns the BAD_REQUEST
// message, or "" on success.
using ArgParser = std::string (*)(const Verb& verb,
                                  const std::vector<std::string>& args,
                                  ServiceCommand* out);

// One row of the verb table: everything any layer needs to know about a
// verb. Text lines and binary frames both resolve to a row, check arity,
// and run the row's parser, so each verb is parsed exactly once. Rows with
// no parser are the connection verbs (open / close / deadline / proto) and
// the failover verbs (promote / demote): they change connection or node
// state, so the router answers them itself and no batch may carry them.
struct Verb {
  // Flag bits.
  static constexpr uint8_t kWrite = 1;        // runs under the write lock
  static constexpr uint8_t kCacheable = 2;    // pure function of a snapshot
  static constexpr uint8_t kBatchable = 4;    // allowed inside a batch frame
  static constexpr uint8_t kSessionFree = 8;  // needs no bound session
  static constexpr size_t kAnyArgs = 255;

  WireVerb wire;
  const char* name;
  ServiceCommand::Op op;  // meaningful only when `parse` is set
  const char* usage;      // grammar, as "usage: <usage>" errors print it
  size_t min_args;
  size_t max_args;
  ArgParser parse;
  uint8_t flags;

  bool write() const { return (flags & kWrite) != 0; }
  bool cacheable() const { return (flags & kCacheable) != 0; }
  bool batchable() const { return (flags & kBatchable) != 0; }
  bool session_free() const { return (flags & kSessionFree) != 0; }
};

// Every verb, in wire-code order.
std::span<const Verb> Verbs();

// Row lookup by text name or wire code; null for an unknown verb.
const Verb* FindVerb(std::string_view name);
const Verb* FindVerb(WireVerb wire);

// The row that produces `op` (every ServiceCommand op has one).
const Verb& VerbOf(ServiceCommand::Op op);

// An integer argument in base 10 (a PARSE_ERROR names the token).
Result<int> ParseIntArg(const std::string& token);

// Checks the arguments against the row's arity and, for rows with a
// parser, builds the command into `*out`. Returns the BAD_REQUEST message,
// or "" when the request is well formed.
std::string ParseArgs(const Verb& verb, const std::vector<std::string>& args,
                      ServiceCommand* out);

}  // namespace ecrint::service

#endif  // ECRINT_SERVICE_VERBS_H_
