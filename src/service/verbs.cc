#include "service/verbs.h"

#include <array>
#include <cstdlib>

#include "common/strings.h"
#include "core/project_io.h"

namespace ecrint::service {

namespace {

using Op = ServiceCommand::Op;

std::string Usage(const Verb& verb) {
  return std::string("usage: ") + verb.usage;
}

Result<double> ParseDouble(const std::string& token) {
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return ParseError("expected number, got '" + token + "'");
  }
  return value;
}

// --- one parser per command verb -------------------------------------------

std::string ParseNothing(const Verb&, const std::vector<std::string>&,
                         ServiceCommand*) {
  return "";
}

std::string ParseDefine(const Verb& verb, const std::vector<std::string>& args,
                        ServiceCommand* out) {
  if (args[0].empty()) return Usage(verb);
  out->text = args[0];
  return "";
}

std::string ParseEquiv(const Verb&, const std::vector<std::string>& args,
                       ServiceCommand* out) {
  Result<ecr::AttributePath> a = core::ParsePath(args[0]);
  if (!a.ok()) return a.status().ToString();
  Result<ecr::AttributePath> b = core::ParsePath(args[1]);
  if (!b.ok()) return b.status().ToString();
  out->path_a = *a;
  out->path_b = *b;
  return "";
}

std::string ParseAssert(const Verb&, const std::vector<std::string>& args,
                        ServiceCommand* out) {
  Result<core::ObjectRef> first = core::ParseRef(args[0]);
  if (!first.ok()) return first.status().ToString();
  Result<int> code = ParseIntArg(args[1]);
  if (!code.ok()) return code.status().ToString();
  Result<core::ObjectRef> second = core::ParseRef(args[2]);
  if (!second.ok()) return second.status().ToString();
  out->first = *first;
  out->type_code = *code;
  out->second = *second;
  return "";
}

std::string ParseIntegrate(const Verb&, const std::vector<std::string>& args,
                           ServiceCommand* out) {
  out->schemas = args;
  return "";
}

std::string ParseRank(const Verb&, const std::vector<std::string>& args,
                      ServiceCommand* out) {
  out->schema1 = args[0];
  out->schema2 = args[1];
  for (size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "rel") {
      out->kind = core::StructureKind::kRelationshipSet;
    } else if (args[i] == "zero") {
      out->include_zero = true;
    } else {
      return "unknown rank flag '" + args[i] + "'";
    }
  }
  return "";
}

std::string ParseSuggest(const Verb&, const std::vector<std::string>& args,
                         ServiceCommand* out) {
  out->schema1 = args[0];
  out->schema2 = args[1];
  if (args.size() == 3) {
    Result<double> parsed = ParseDouble(args[2]);
    if (!parsed.ok()) return parsed.status().ToString();
    out->threshold = *parsed;
  }
  return "";
}

std::string ParseTranslate(const Verb& verb,
                           const std::vector<std::string>& args,
                           ServiceCommand* out) {
  size_t at = 0;
  if (args[at] == "components") {
    out->to_components = true;
    ++at;
  }
  if (at >= args.size()) return Usage(verb);
  Result<core::ObjectRef> structure = core::ParseRef(args[at++]);
  if (!structure.ok()) return structure.status().ToString();
  out->request.structure = *structure;
  if (at < args.size()) {
    for (const std::string& attribute : Split(args[at], ',')) {
      if (!attribute.empty()) out->request.attributes.push_back(attribute);
    }
    ++at;
  }
  if (at != args.size()) return Usage(verb);
  return "";
}

constexpr size_t kAny = Verb::kAnyArgs;
constexpr uint8_t kWrite = Verb::kWrite;
constexpr uint8_t kCacheable = Verb::kCacheable;
constexpr uint8_t kBatchable = Verb::kBatchable;
constexpr uint8_t kSessionFree = Verb::kSessionFree;

// THE verb table (docs/FORMATS.md documents the same grammar). Wire codes
// are frozen once shipped: append rows, never renumber.
constexpr Verb kVerbs[] = {
    {WireVerb::kPing, "ping", Op::kPing, "ping", 0, kAny, ParseNothing,
     kBatchable | kSessionFree},
    {WireVerb::kOpen, "open", Op::kPing, "open [project]", 0, 1, nullptr,
     kSessionFree},
    {WireVerb::kClose, "close", Op::kPing, "close", 0, kAny, nullptr, 0},
    {WireVerb::kDeadline, "deadline", Op::kPing, "deadline <ms>|default", 1,
     1, nullptr, 0},
    {WireVerb::kDefine, "define", Op::kDefine, "define <ddl>", 1, 1,
     ParseDefine, kWrite | kBatchable},
    {WireVerb::kEquiv, "equiv", Op::kEquiv, "equiv <s.o.a> <s.o.a>", 2, 2,
     ParseEquiv, kWrite | kBatchable},
    {WireVerb::kAssert, "assert", Op::kAssert, "assert <s.o> <0-5> <s.o>", 3,
     3, ParseAssert, kWrite | kBatchable},
    {WireVerb::kIntegrate, "integrate", Op::kIntegrate,
     "integrate [schema ...]", 0, kAny, ParseIntegrate, kWrite | kBatchable},
    // Export mutates nothing; it takes the write lock for a consistent view.
    {WireVerb::kExport, "export", Op::kExport, "export", 0, 0, ParseNothing,
     kWrite | kBatchable},
    {WireVerb::kRank, "rank", Op::kRank,
     "rank <schema1> <schema2> [rel] [zero]", 2, 4, ParseRank,
     kCacheable | kBatchable},
    {WireVerb::kSuggest, "suggest", Op::kSuggest,
     "suggest <schema1> <schema2> [threshold]", 2, 3, ParseSuggest,
     kCacheable | kBatchable},
    {WireVerb::kTranslate, "translate", Op::kTranslate,
     "translate [components] <s.o> [attr,attr,...]", 1, kAny, ParseTranslate,
     kCacheable | kBatchable},
    {WireVerb::kOutline, "outline", Op::kOutline, "outline", 0, 0,
     ParseNothing, kCacheable | kBatchable},
    {WireVerb::kMetrics, "metrics", Op::kMetrics, "metrics", 0, 0,
     ParseNothing, kBatchable},
    {WireVerb::kProto, "proto", Op::kPing, "proto <1|2>", 1, 1, nullptr,
     kSessionFree},
    {WireVerb::kPromote, "promote", Op::kPing, "promote", 0, 0, nullptr, 0},
    {WireVerb::kDemote, "demote", Op::kPing, "demote <epoch> <leader-addr>",
     2, 2, nullptr, 0},
};

constexpr size_t kOpCount = static_cast<size_t>(Op::kMetrics) + 1;

constexpr std::array<const Verb*, kOpCount> kVerbByOp = [] {
  std::array<const Verb*, kOpCount> by_op{};
  for (const Verb& verb : kVerbs) {
    if (verb.parse != nullptr) by_op[static_cast<size_t>(verb.op)] = &verb;
  }
  return by_op;
}();

}  // namespace

std::span<const Verb> Verbs() { return kVerbs; }

Result<int> ParseIntArg(const std::string& token) {
  char* end = nullptr;
  long value = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0') {
    return ParseError("expected integer, got '" + token + "'");
  }
  return static_cast<int>(value);
}

const Verb* FindVerb(std::string_view name) {
  for (const Verb& verb : kVerbs) {
    if (verb.name == name) return &verb;
  }
  return nullptr;
}

const Verb* FindVerb(WireVerb wire) {
  for (const Verb& verb : kVerbs) {
    if (verb.wire == wire) return &verb;
  }
  return nullptr;
}

const Verb& VerbOf(ServiceCommand::Op op) {
  return *kVerbByOp[static_cast<size_t>(op)];
}

std::string ParseArgs(const Verb& verb, const std::vector<std::string>& args,
                      ServiceCommand* out) {
  if (args.size() < verb.min_args || args.size() > verb.max_args) {
    return Usage(verb);
  }
  if (verb.parse == nullptr) return "";
  out->op = verb.op;
  return verb.parse(verb, args, out);
}

// Declared in protocol.h next to the WireVerb enum; the names live here.
const char* WireVerbName(WireVerb wire) {
  const Verb* verb = FindVerb(wire);
  return verb != nullptr ? verb->name : nullptr;
}

}  // namespace ecrint::service
