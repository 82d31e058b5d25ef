// The replay oracle the recovery tests share: a scripted verb sequence
// covering every replay case, and the serial replay that applies every
// verb through engine::ApplyReplayVerb, observed on everything a node
// serves — stamp, export, whether there is an integration, its outline,
// and one translated request.

#ifndef ECRINT_TESTS_SERVICE_REPLAY_ORACLE_H_
#define ECRINT_TESTS_SERVICE_REPLAY_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/request_translation.h"
#include "ecr/printer.h"
#include "engine/engine.h"
#include "engine/replay.h"

namespace ecrint::service {

inline constexpr const char* kUniversityDdl =
    "schema sc1 { entity Student { Name: char key; GPA: real; } }\n"
    "schema sc2 { entity Grad { Name: char key; GPA: real; } }";

// The scripted mutation sequence the property tests journal: all four verb
// kinds, including verbs the engine REJECTS (the WAL is written before the
// engine runs, so rejected verbs are journaled too and must replay to the
// same rejection), and two back-to-back defines — in one batch frame the
// second runs before any verb materializes the equivalence map the first
// one reset. The integrates after them (13 on) are the cases recovery
// replays without building every one: back-to-back integrates, a redundant
// equiv that makes the next integrate a cache hit, a rejected integrate
// repeated and then followed by a succeeding one, and — with checkpoints
// every 4 records — a checkpoint whose integration is current (seq 20)
// followed by a tail without an integrate, one with an integrate, and one
// where a later assert leaves that integration stale but served.
inline std::vector<engine::ReplayVerb> ScriptVerbs() {
  std::vector<engine::ReplayVerb> verbs;
  verbs.push_back(engine::DefineVerb(kUniversityDdl));
  verbs.push_back(engine::DefineVerb("schema broken {"));  // rejected: parse
  verbs.push_back(engine::EquivalenceVerb({"sc1", "Student", "Name"},
                                          {"sc2", "Grad", "Name"}));
  verbs.push_back(engine::EquivalenceVerb({"sc1", "Student", "Nope"},
                                          {"sc2", "Grad", "Name"}));  // rejected
  verbs.push_back(engine::EquivalenceVerb({"sc1", "Student", "GPA"},
                                          {"sc2", "Grad", "GPA"}));
  verbs.push_back(engine::RelationVerb({"sc1", "Student"}, /*type_code=*/1,
                                       {"sc2", "Grad"}));
  verbs.push_back(engine::IntegrateVerb({}));
  verbs.push_back(
      engine::DefineVerb("schema sc3 { entity Alum { Name: char key; } }"));
  verbs.push_back(engine::EquivalenceVerb({"sc1", "Student", "Name"},
                                          {"sc3", "Alum", "Name"}));
  verbs.push_back(engine::IntegrateVerb({}));
  verbs.push_back(
      engine::DefineVerb("schema sc4 { entity Staff { Name: char key; } }"));
  verbs.push_back(
      engine::DefineVerb("schema sc5 { entity Clerk { Name: char key; } }"));
  verbs.push_back(engine::EquivalenceVerb({"sc4", "Staff", "Name"},
                                          {"sc5", "Clerk", "Name"}));
  verbs.push_back(engine::IntegrateVerb({}));
  verbs.push_back(engine::IntegrateVerb({}));  // cache hit
  verbs.push_back(engine::EquivalenceVerb({"sc1", "Student", "Name"},
                                          {"sc2", "Grad", "Name"}));  // redundant
  verbs.push_back(engine::IntegrateVerb({}));        // cache hit
  verbs.push_back(engine::IntegrateVerb({"sc9"}));   // rejected: unknown
  verbs.push_back(engine::IntegrateVerb({"sc9"}));   // rejected again
  verbs.push_back(engine::IntegrateVerb({}));
  verbs.push_back(engine::EquivalenceVerb({"sc3", "Alum", "Name"},
                                          {"sc4", "Staff", "Name"}));
  verbs.push_back(engine::IntegrateVerb({"sc1", "sc3"}));
  verbs.push_back(engine::RelationVerb({"sc3", "Alum"}, /*type_code=*/2,
                                       {"sc1", "Student"}));
  return verbs;
}

// Integrates among the first `count` verbs.
inline int64_t IntegratesIn(const std::vector<engine::ReplayVerb>& verbs,
                     size_t count) {
  return std::count_if(verbs.begin(), verbs.begin() + count,
                       [](const engine::ReplayVerb& verb) {
                         return verb.kind ==
                                engine::ReplayVerb::Kind::kIntegrate;
                       });
}

// What a node serves from an engine: its stamp and project export, and
// what the integration reads answer — whether there is an integration, its
// outline, and one fixed request translated onto it.
struct ReferenceState {
  engine::EngineStamp stamp;
  std::string exported;
  bool integrated = false;
  std::string outline;
  std::string translated;
};

inline ReferenceState Observe(engine::Engine& engine) {
  ReferenceState state;
  state.stamp = engine.Stamp();
  state.exported = engine.ExportProject();
  state.integrated = engine.integration().has_value();
  if (state.integrated) {
    state.outline = ecr::ToOutline(engine.integration()->schema);
  }
  core::Request request;
  request.structure = {"sc1", "Student"};
  request.attributes = {"Name", "GPA"};
  Result<core::Request> translated = engine.TranslateRequest(request);
  state.translated = translated.ok() ? translated->ToString()
                                     : translated.status().ToString();
  return state;
}

inline void ExpectServes(engine::Engine& engine,
                         const ReferenceState& reference,
                         const std::string& where) {
  ReferenceState state = Observe(engine);
  EXPECT_TRUE(state.stamp == reference.stamp) << where;
  EXPECT_EQ(state.exported, reference.exported) << where;
  EXPECT_EQ(state.integrated, reference.integrated) << where;
  EXPECT_EQ(state.outline, reference.outline) << where;
  EXPECT_EQ(state.translated, reference.translated) << where;
}

// Applies every verb to `engine` through ApplyReplayVerb, one at a time as
// a live node does, and observes the result.
inline ReferenceState ApplyEach(engine::Engine& engine,
                                std::span<const engine::ReplayVerb> verbs) {
  for (const engine::ReplayVerb& verb : verbs) {
    (void)engine::ApplyReplayVerb(engine, verb);
  }
  return Observe(engine);
}

// Ground truth: a fresh engine taken through the service plane's exact
// replay sequence for the first `count` verbs.
inline ReferenceState SerialReplay(const std::vector<engine::ReplayVerb>& verbs,
                                   size_t count) {
  engine::Engine engine;
  engine::BeginReplay(engine);
  return ApplyEach(engine, std::span(verbs).first(count));
}

}  // namespace ecrint::service

#endif  // ECRINT_TESTS_SERVICE_REPLAY_ORACLE_H_
