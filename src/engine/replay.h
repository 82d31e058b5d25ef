#ifndef ECRINT_ENGINE_REPLAY_H_
#define ECRINT_ENGINE_REPLAY_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/object_ref.h"
#include "ecr/attribute.h"
#include "engine/engine.h"

namespace ecrint::engine {

// One durable mutation, exactly as the service plane journals it. The four
// kinds are the wire protocol's write verbs; everything else the service
// does (reads, exports, snapshot publication) is derivable and never
// journaled.
struct ReplayVerb {
  enum class Kind { kDefine, kEquivalence, kRelation, kIntegrate };

  Kind kind = Kind::kDefine;
  std::string ddl;                        // kDefine
  ecr::AttributePath first_path;          // kEquivalence
  ecr::AttributePath second_path;         // kEquivalence
  core::ObjectRef first;                  // kRelation
  core::ObjectRef second;                 // kRelation
  int type_code = 0;                      // kRelation
  std::vector<std::string> schemas;       // kIntegrate (empty = all)
};

ReplayVerb DefineVerb(std::string ddl);
ReplayVerb EquivalenceVerb(ecr::AttributePath a, ecr::AttributePath b);
ReplayVerb RelationVerb(core::ObjectRef first, int type_code,
                        core::ObjectRef second);
ReplayVerb IntegrateVerb(std::vector<std::string> schemas);

// Journal payload text for a verb — one line, space-separated tokens, the
// DDL tail backslash-escaped (see docs/FORMATS.md, "Durability files"):
//
//   payload = "define" SP escaped-ddl
//           / "equiv" SP s.o.a SP s.o.a
//           / "assert" SP s.o SP type-code SP s.o
//           / "integrate" *( SP schema )
std::string EncodeReplayVerb(const ReplayVerb& verb);
Result<ReplayVerb> DecodeReplayVerb(std::string_view payload);

// Puts a fresh engine into the state a new project's initial snapshot
// publication leaves it in (the equivalence map materialized over the
// empty catalog). Serial replay must start here, or its generation
// counters drift off the live engine's by that initial publish.
void BeginReplay(Engine& engine);

// The only code that applies a journaled write to an engine: live writes,
// WAL recovery and replicas all run each verb through it. Runs the verb's
// engine calls (a define also ends schema collection via
// ResetEquivalence), then materializes the equivalence map — success or
// failure. On success returns the names of the schemas a define added
// (empty for the other kinds). A failing verb returns its status and
// leaves the engine exactly as the original failing request did, so
// journals that contain rejected verbs (the WAL is written before the
// engine runs) replay deterministically.
Result<std::vector<std::string>> ApplyReplayVerb(Engine& engine,
                                                 const ReplayVerb& verb);

}  // namespace ecrint::engine

#endif  // ECRINT_ENGINE_REPLAY_H_
