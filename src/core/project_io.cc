#include "core/project_io.h"

#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "ecr/ddl_parser.h"
#include "ecr/printer.h"

namespace ecrint::core {

Result<EquivalenceMap> Project::BuildEquivalence() const {
  ECRINT_ASSIGN_OR_RETURN(
      EquivalenceMap map,
      EquivalenceMap::Create(catalog, catalog.SchemaNames()));
  for (const auto& [a, b] : equivalences) {
    ECRINT_RETURN_IF_ERROR(map.DeclareEquivalent(a, b));
  }
  return map;
}

Result<AssertionStore> Project::BuildAssertions() const {
  AssertionStore store;
  Result<ConflictReport> r = store.AssertBatch(assertions);
  if (!r.ok()) return r.status();
  return store;
}

std::string SerializeProject(const ecr::Catalog& catalog,
                             const EquivalenceMap& equivalence,
                             const AssertionStore& assertions) {
  std::string out = "# ecrint project file\n%schemas\n";
  for (const std::string& name : catalog.SchemaNames()) {
    Result<const ecr::Schema*> schema = catalog.GetSchema(name);
    if (schema.ok()) out += ecr::ToDdl(**schema);
  }
  out += "%equivalences\n";
  for (const std::vector<ecr::AttributePath>& eq_class :
       equivalence.NontrivialClasses()) {
    for (size_t i = 1; i < eq_class.size(); ++i) {
      out += eq_class[0].ToString() + " = " + eq_class[i].ToString() + "\n";
    }
  }
  out += "%assertions\n";
  for (const Assertion& assertion : assertions.user_assertions()) {
    out += assertion.first.ToString() + " " +
           std::to_string(AssertionTypeCode(assertion.type)) + " " +
           assertion.second.ToString() + "\n";
  }
  return out;
}

Result<ecr::AttributePath> ParsePath(const std::string& token) {
  std::vector<std::string> parts = Split(token, '.');
  if (parts.size() != 3) {
    return ParseError("expected schema.object.attribute, got '" + token +
                      "'");
  }
  return ecr::AttributePath{parts[0], parts[1], parts[2]};
}

Result<ObjectRef> ParseRef(const std::string& token) {
  std::vector<std::string> parts = Split(token, '.');
  if (parts.size() != 2) {
    return ParseError("expected schema.object, got '" + token + "'");
  }
  return ObjectRef{parts[0], parts[1]};
}

Result<Project> ParseProject(const std::string& text) {
  enum class Section { kNone, kSchemas, kEquivalences, kAssertions };
  Section section = Section::kNone;
  std::string ddl;
  Project project;

  std::istringstream stream(text);
  std::string raw;
  int line_number = 0;
  while (std::getline(stream, raw)) {
    ++line_number;
    std::string line(StripWhitespace(raw));
    if (line.empty() || line[0] == '#') {
      if (section == Section::kSchemas) ddl += raw + "\n";
      continue;
    }
    if (line == "%schemas") {
      section = Section::kSchemas;
      continue;
    }
    if (line == "%equivalences") {
      section = Section::kEquivalences;
      continue;
    }
    if (line == "%assertions") {
      section = Section::kAssertions;
      continue;
    }
    switch (section) {
      case Section::kNone:
        return ParseError("line " + std::to_string(line_number) +
                          ": content before any %section header");
      case Section::kSchemas:
        ddl += raw + "\n";
        break;
      case Section::kEquivalences: {
        std::vector<std::string> sides = Split(line, '=');
        if (sides.size() != 2) {
          return ParseError("line " + std::to_string(line_number) +
                            ": expected '<path> = <path>'");
        }
        ECRINT_ASSIGN_OR_RETURN(
            ecr::AttributePath a,
            ParsePath(std::string(StripWhitespace(sides[0]))));
        ECRINT_ASSIGN_OR_RETURN(
            ecr::AttributePath b,
            ParsePath(std::string(StripWhitespace(sides[1]))));
        project.equivalences.emplace_back(std::move(a), std::move(b));
        break;
      }
      case Section::kAssertions: {
        std::vector<std::string> tokens;
        for (const std::string& piece : Split(line, ' ')) {
          if (!StripWhitespace(piece).empty()) tokens.push_back(piece);
        }
        if (tokens.size() != 3) {
          return ParseError("line " + std::to_string(line_number) +
                            ": expected '<ref> <code> <ref>'");
        }
        ECRINT_ASSIGN_OR_RETURN(ObjectRef first, ParseRef(tokens[0]));
        ECRINT_ASSIGN_OR_RETURN(ObjectRef second, ParseRef(tokens[2]));
        char* end = nullptr;
        long code = std::strtol(tokens[1].c_str(), &end, 10);
        if (end == nullptr || *end != '\0') {
          return ParseError("line " + std::to_string(line_number) +
                            ": bad assertion code '" + tokens[1] + "'");
        }
        ECRINT_ASSIGN_OR_RETURN(AssertionType type,
                                AssertionTypeFromCode(static_cast<int>(code)));
        project.assertions.push_back(Assertion{first, second, type});
        break;
      }
    }
  }
  if (!StripWhitespace(ddl).empty()) {
    ECRINT_RETURN_IF_ERROR(
        ecr::ParseInto(project.catalog, ddl).status());
  }
  return project;
}

Status SaveProjectFile(const std::string& path, const ecr::Catalog& catalog,
                       const EquivalenceMap& equivalence,
                       const AssertionStore& assertions) {
  std::ofstream file(path);
  if (!file) {
    return InvalidArgumentError("cannot open '" + path + "' for writing");
  }
  file << SerializeProject(catalog, equivalence, assertions);
  return file.good() ? Status::Ok()
                     : InternalError("write to '" + path + "' failed");
}

Result<Project> LoadProjectFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return NotFoundError("cannot open project file '" + path + "'");
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseProject(content.str());
}

}  // namespace ecrint::core
