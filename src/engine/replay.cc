#include "engine/replay.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "core/assertion.h"
#include "core/project_io.h"

namespace ecrint::engine {

ReplayVerb DefineVerb(std::string ddl) {
  ReplayVerb verb;
  verb.kind = ReplayVerb::Kind::kDefine;
  verb.ddl = std::move(ddl);
  return verb;
}

ReplayVerb EquivalenceVerb(ecr::AttributePath a, ecr::AttributePath b) {
  ReplayVerb verb;
  verb.kind = ReplayVerb::Kind::kEquivalence;
  verb.first_path = std::move(a);
  verb.second_path = std::move(b);
  return verb;
}

ReplayVerb RelationVerb(core::ObjectRef first, int type_code,
                        core::ObjectRef second) {
  ReplayVerb verb;
  verb.kind = ReplayVerb::Kind::kRelation;
  verb.first = std::move(first);
  verb.type_code = type_code;
  verb.second = std::move(second);
  return verb;
}

ReplayVerb IntegrateVerb(std::vector<std::string> schemas) {
  ReplayVerb verb;
  verb.kind = ReplayVerb::Kind::kIntegrate;
  verb.schemas = std::move(schemas);
  return verb;
}

std::string EncodeReplayVerb(const ReplayVerb& verb) {
  switch (verb.kind) {
    case ReplayVerb::Kind::kDefine:
      return "define " + EscapeBackslash(verb.ddl);
    case ReplayVerb::Kind::kEquivalence:
      return "equiv " + verb.first_path.ToString() + " " +
             verb.second_path.ToString();
    case ReplayVerb::Kind::kRelation:
      return "assert " + verb.first.ToString() + " " +
             std::to_string(verb.type_code) + " " + verb.second.ToString();
    case ReplayVerb::Kind::kIntegrate: {
      std::string out = "integrate";
      for (const std::string& schema : verb.schemas) out += " " + schema;
      return out;
    }
  }
  return "";
}

Result<ReplayVerb> DecodeReplayVerb(std::string_view payload) {
  std::string_view stripped = StripWhitespace(payload);
  size_t space = stripped.find(' ');
  std::string_view keyword =
      space == std::string_view::npos ? stripped : stripped.substr(0, space);
  std::string_view tail =
      space == std::string_view::npos ? std::string_view()
                                      : stripped.substr(space + 1);

  if (keyword == "define") {
    ECRINT_ASSIGN_OR_RETURN(std::string ddl, UnescapeBackslash(tail));
    if (ddl.empty()) return ParseError("define verb with empty DDL");
    return DefineVerb(std::move(ddl));
  }

  std::vector<std::string> tokens;
  for (const std::string& token : Split(tail, ' ')) {
    if (!token.empty()) tokens.push_back(token);
  }

  if (keyword == "equiv") {
    if (tokens.size() != 2) {
      return ParseError("equiv verb wants 2 paths, got " +
                        std::to_string(tokens.size()));
    }
    ECRINT_ASSIGN_OR_RETURN(ecr::AttributePath a,
                            core::ParsePath(tokens[0]));
    ECRINT_ASSIGN_OR_RETURN(ecr::AttributePath b,
                            core::ParsePath(tokens[1]));
    return EquivalenceVerb(std::move(a), std::move(b));
  }

  if (keyword == "assert") {
    if (tokens.size() != 3) {
      return ParseError("assert verb wants ref code ref, got " +
                        std::to_string(tokens.size()) + " tokens");
    }
    ECRINT_ASSIGN_OR_RETURN(core::ObjectRef first,
                            core::ParseRef(tokens[0]));
    ECRINT_ASSIGN_OR_RETURN(core::ObjectRef second,
                            core::ParseRef(tokens[2]));
    char* end = nullptr;
    long code = std::strtol(tokens[1].c_str(), &end, 10);
    if (end == tokens[1].c_str() || *end != '\0') {
      return ParseError("assert verb code not an integer: '" + tokens[1] +
                        "'");
    }
    return RelationVerb(std::move(first), static_cast<int>(code),
                        std::move(second));
  }

  if (keyword == "integrate") {
    return IntegrateVerb(std::move(tokens));
  }

  return ParseError("unknown journal verb '" + std::string(keyword) + "'");
}

void BeginReplay(Engine& engine) {
  // A fresh project publishes its empty snapshot, which materializes the
  // map over the empty catalog and bumps the equivalence generation once.
  engine.Equivalence();
}

Result<std::vector<std::string>> ApplyReplayVerb(Engine& engine,
                                                 const ReplayVerb& verb) {
  Status status;
  std::vector<std::string> defined;
  switch (verb.kind) {
    case ReplayVerb::Kind::kDefine: {
      Result<std::vector<std::string>> names = engine.DefineSchema(verb.ddl);
      if (names.ok()) {
        // Every define ends schema collection: the map is rebuilt over the
        // new catalog.
        engine.ResetEquivalence();
        defined = *std::move(names);
      } else {
        status = names.status();
      }
      break;
    }
    case ReplayVerb::Kind::kEquivalence:
      status = engine.AssertEquivalence(verb.first_path, verb.second_path);
      break;
    case ReplayVerb::Kind::kRelation: {
      Result<core::AssertionType> type =
          core::AssertionTypeFromCode(verb.type_code);
      if (!type.ok()) {
        status = type.status();
        break;
      }
      Result<core::ConflictReport> report =
          engine.AssertRelation(verb.first, verb.second, *type);
      if (!report.ok()) status = report.status();
      break;
    }
    case ReplayVerb::Kind::kIntegrate: {
      Result<const core::IntegrationResult*> result =
          engine.Integrate(verb.schemas);
      if (!result.ok()) status = result.status();
      break;
    }
  }
  // Every write, success or not, leaves the equivalence map materialized,
  // so the stamp after a verb does not depend on what runs next.
  engine.Equivalence();
  if (!status.ok()) return status;
  return defined;
}

ReplayTailStats ReplayTail(Engine& engine, std::span<const ReplayVerb> verbs) {
  size_t survivor = verbs.size();
  for (size_t i = verbs.size(); i-- > 0;) {
    if (verbs[i].kind == ReplayVerb::Kind::kIntegrate) {
      survivor = i;
      break;
    }
  }
  ReplayTailStats stats;
  for (size_t i = 0; i < verbs.size(); ++i) {
    if (i < survivor && verbs[i].kind == ReplayVerb::Kind::kIntegrate) {
      engine.SupersededIntegrate(verbs[i].schemas);
      // As after every write in ApplyReplayVerb.
      engine.Equivalence();
      ++stats.integrates_superseded;
      continue;
    }
    // The verb's own outcome is irrelevant: the engine is deterministic,
    // so a rejected verb replays to the identical rejection.
    (void)ApplyReplayVerb(engine, verbs[i]);
    if (i == survivor) ++stats.integrates_built;
  }
  return stats;
}

}  // namespace ecrint::engine
