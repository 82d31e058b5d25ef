// ecrint — command-line front end to the toolkit.
//
//   ecrint validate <ddl-file>                       check ECR schemas
//   ecrint outline <ddl-file> [schema]               print schema outlines
//   ecrint dot <ddl-file> <schema>                   Graphviz export
//   ecrint suggest <ddl-file> <schema1> <schema2>    propose equivalences
//   ecrint rank <project-file> <schema1> <schema2> [--trace]
//   ecrint integrate <project-file> [--ladder] [--name <n>] [--mappings]
//                    [--trace]
//
// DDL files hold `schema ... { ... }` blocks; project files additionally
// carry %equivalences and %assertions sections (see core/project_io.h).
//
// rank and integrate drive engine::Engine — the same pipeline layer behind
// the TUI and the service plane — so project decisions replay, caches
// invalidate, and failures diagnose identically across every frontend.
// --trace prints the engine's per-phase breakdown (TraceJson) to stderr.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/nary.h"
#include "core/project_io.h"
#include "core/resemblance.h"
#include "ecr/ddl_parser.h"
#include "ecr/dot_export.h"
#include "ecr/printer.h"
#include "ecr/validate.h"
#include "engine/engine.h"
#include "heuristics/suggest.h"

namespace {

using namespace ecrint;  // NOLINT: CLI brevity

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream content;
  content << file.rdbuf();
  return content.str();
}

Result<ecr::Catalog> LoadDdl(const std::string& path) {
  ECRINT_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  ecr::Catalog catalog;
  // A project file also works: take its %schemas section.
  if (text.find("%schemas") != std::string::npos) {
    ECRINT_ASSIGN_OR_RETURN(core::Project project,
                            core::ParseProject(text));
    return std::move(project.catalog);
  }
  ECRINT_RETURN_IF_ERROR(ecr::ParseInto(catalog, text).status());
  return catalog;
}

int CmdValidate(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::cerr << "usage: ecrint validate <ddl-file>\n";
    return 2;
  }
  Result<ecr::Catalog> catalog = LoadDdl(args[0]);
  if (!catalog.ok()) return Fail(catalog.status());
  int errors = 0;
  for (const std::string& name : catalog->SchemaNames()) {
    const ecr::Schema& schema = **catalog->GetSchema(name);
    std::vector<ecr::ValidationIssue> issues = ecr::ValidateSchema(schema);
    std::cout << ecr::Summarize(schema) << "\n";
    for (const ecr::ValidationIssue& issue : issues) {
      std::cout << "  " << issue.ToString() << "\n";
      errors += issue.severity == ecr::IssueSeverity::kError ? 1 : 0;
    }
  }
  std::cout << (errors == 0 ? "OK\n" : "INVALID\n");
  return errors == 0 ? 0 : 1;
}

int CmdOutline(const std::vector<std::string>& args) {
  if (args.empty() || args.size() > 2) {
    std::cerr << "usage: ecrint outline <ddl-file> [schema]\n";
    return 2;
  }
  Result<ecr::Catalog> catalog = LoadDdl(args[0]);
  if (!catalog.ok()) return Fail(catalog.status());
  for (const std::string& name : catalog->SchemaNames()) {
    if (args.size() == 2 && name != args[1]) continue;
    std::cout << ecr::ToOutline(**catalog->GetSchema(name)) << "\n";
  }
  return 0;
}

int CmdDot(const std::vector<std::string>& args) {
  if (args.size() != 2) {
    std::cerr << "usage: ecrint dot <ddl-file> <schema>\n";
    return 2;
  }
  Result<ecr::Catalog> catalog = LoadDdl(args[0]);
  if (!catalog.ok()) return Fail(catalog.status());
  Result<const ecr::Schema*> schema = catalog->GetSchema(args[1]);
  if (!schema.ok()) return Fail(schema.status());
  std::cout << ecr::ToDot(**schema);
  return 0;
}

int CmdSuggest(const std::vector<std::string>& args) {
  if (args.size() != 3) {
    std::cerr << "usage: ecrint suggest <ddl-file> <schema1> <schema2>\n";
    return 2;
  }
  Result<ecr::Catalog> catalog = LoadDdl(args[0]);
  if (!catalog.ok()) return Fail(catalog.status());
  heuristics::SynonymDictionary synonyms =
      heuristics::SynonymDictionary::WithBuiltins();
  Result<std::vector<heuristics::EquivalenceSuggestion>> suggestions =
      heuristics::SuggestAttributeEquivalences(*catalog, args[1], args[2],
                                               synonyms, 0.8,
                                               /*object_threshold=*/0.4);
  if (!suggestions.ok()) return Fail(suggestions.status());
  for (const heuristics::EquivalenceSuggestion& s : *suggestions) {
    std::cout << s.first.ToString() << " = " << s.second.ToString() << "  # "
              << s.rationale << "\n";
  }
  return 0;
}

int CmdRank(const std::vector<std::string>& args) {
  bool trace = false;
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    if (arg == "--trace") {
      trace = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 3) {
    std::cerr << "usage: ecrint rank <project-file> <schema1> <schema2> "
                 "[--trace]\n";
    return 2;
  }
  Result<core::Project> project = core::LoadProjectFile(positional[0]);
  if (!project.ok()) return Fail(project.status());
  engine::Engine engine;
  Status imported = engine.ImportProject(*std::move(project));
  if (!imported.ok()) return Fail(imported);
  Result<std::vector<core::ObjectPair>> ranked = engine.RankedPairs(
      positional[1], positional[2], core::StructureKind::kObjectClass,
      /*include_zero=*/true);
  if (!ranked.ok()) return Fail(ranked.status());
  for (const core::ObjectPair& pair : *ranked) {
    std::string left = pair.first.ToString();
    left.resize(30, ' ');
    std::string right = pair.second.ToString();
    right.resize(30, ' ');
    std::cout << left << right << FormatFixed(pair.attribute_ratio, 4)
              << "\n";
  }
  if (trace) std::cerr << engine.TraceJson() << "\n";
  return 0;
}

int CmdIntegrate(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "usage: ecrint integrate <project-file> [--ladder] "
                 "[--name <n>] [--mappings] [--trace]\n";
    return 2;
  }
  bool ladder = false;
  bool show_mappings = false;
  bool trace = false;
  engine::EngineOptions options;
  std::string path = args[0];
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--ladder") {
      ladder = true;
    } else if (args[i] == "--mappings") {
      show_mappings = true;
    } else if (args[i] == "--trace") {
      trace = true;
    } else if (args[i] == "--name" && i + 1 < args.size()) {
      options.integration.result_name = args[++i];
    } else {
      std::cerr << "unknown flag '" << args[i] << "'\n";
      return 2;
    }
  }
  Result<core::Project> project = core::LoadProjectFile(path);
  if (!project.ok()) return Fail(project.status());
  engine::Engine engine(options);
  Status imported = engine.ImportProject(*std::move(project));
  if (!imported.ok()) return Fail(imported);
  // --ladder folds the imported schemas pairwise (the n-ary driver's binary
  // ladder) instead of one n-ary run.
  std::optional<core::IntegrationResult> folded;
  Result<const core::IntegrationResult*> integrated = InternalError("unset");
  if (ladder) {
    Result<core::IntegrationResult> rungs = core::IntegrateBinaryLadder(
        engine.catalog(), engine.catalog().SchemaNames(), engine.equivalence(),
        engine.assertions(), options.integration);
    if (!rungs.ok()) {
      std::cerr << engine::StatusDiagnostic("integration-failed",
                                            rungs.status())
                       .ToString()
                << "\n";
      return Fail(rungs.status());
    }
    folded = *std::move(rungs);
    integrated = &*folded;
  } else {
    integrated = engine.Integrate();
  }
  if (!integrated.ok()) {
    // The engine's structured diagnostic carries the derivation chain.
    for (const engine::Diagnostic& diagnostic : engine.diagnostics()) {
      std::cerr << diagnostic.ToString() << "\n";
    }
    return Fail(integrated.status());
  }
  const core::IntegrationResult& result = **integrated;

  std::cout << ecr::ToOutline(result.schema);
  if (!result.derived_attributes.empty()) {
    std::cout << "\nderived attributes:\n";
    for (const core::DerivedAttributeInfo& info :
         result.derived_attributes) {
      std::cout << "  " << info.owner << "." << info.name << " <-";
      for (const ecr::AttributePath& component : info.components) {
        std::cout << " " << component.ToString();
      }
      std::cout << "\n";
    }
  }
  if (show_mappings) {
    std::cout << "\nmappings:\n";
    for (const core::StructureMapping& mapping : result.mappings) {
      std::cout << "  " << mapping.source.ToString() << " -> "
                << mapping.target << "\n";
      for (const core::AttributeMapping& attribute : mapping.attributes) {
        std::cout << "    ." << attribute.source_attribute << " -> "
                  << attribute.target_owner << "."
                  << attribute.target_attribute << "\n";
      }
    }
  }
  if (trace) std::cerr << engine.TraceJson() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ecrint "
                 "<validate|outline|dot|suggest|rank|integrate> ...\n";
    return 2;
  }
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "validate") return CmdValidate(args);
  if (command == "outline") return CmdOutline(args);
  if (command == "dot") return CmdDot(args);
  if (command == "suggest") return CmdSuggest(args);
  if (command == "rank") return CmdRank(args);
  if (command == "integrate") return CmdIntegrate(args);
  std::cerr << "unknown command '" << command << "'\n";
  return 2;
}
