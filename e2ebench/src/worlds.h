// Generated inputs of the workloads: one World per project (component
// schemas from src/workload's generator, with the ground truth split into a
// seeded part and a held-back part), the request streams built from them,
// and the in-process reference an output is checked against.
#ifndef E2EBENCH_WORLDS_H_
#define E2EBENCH_WORLDS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "engine/engine.h"
#include "engine/replay.h"
#include "service/protocol.h"
#include "workload/generator.h"

namespace e2e {

using ecrint::service::BinaryRequest;
using ecrint::service::WireVerb;

// World sizes. The smoke sizes run every check of every workload in about a
// second each; they exist for the benchmark's own test (run.py --smoke).
struct Sizes {
  int dda_concepts = 250;  // BM_EngineIncrementalEdit/250
  int ingest_concepts = 30;
  // ingest_durable's crash state: each write lane's stream cut after this
  // many writes (recovery_s recovers it).
  int crash_writes_per_lane = 2000;
};
Sizes SizesFor(bool smoke);

struct World {
  std::string project;
  ecrint::workload::Workload truth;
  std::vector<std::string> ddl;  // one `define` per component schema
  std::vector<size_t> seeded_equivs, held_equivs;        // attribute_matches
  std::vector<size_t> seeded_relations, held_relations;  // object_relations
};

// Deterministic in (seed, concepts, schemas, shares). `equiv_share` and
// `relation_share` are the fractions of the ground truth seeded; the rest
// is held back, in a seeded random order, for the workload's edits.
World MakeWorld(const std::string& project, uint64_t seed, int concepts,
                int schemas, double equiv_share, double relation_share);

BinaryRequest MakeRequest(WireVerb verb, std::vector<std::string> args = {});
BinaryRequest EquivRequest(const ecrint::workload::TrueAttributeMatch& match);
BinaryRequest TruthRequest(const ecrint::workload::TrueObjectRelation& truth);
// A type code that contradicts an asserted `code` on the same pair.
int ContradictionCode(int code);

// defines, seeded equivalences, seeded relations, one integrate.
std::vector<BinaryRequest> SeedRequests(const World& world);
// The whole ground truth as a write stream: defines, then equivalences and
// relations in a seeded interleaving, with an integrate as every 8th write.
std::vector<BinaryRequest> IngestStream(const World& world, uint64_t seed);

bool IsWriteVerb(WireVerb verb);
// "schema.object" and "schema.object.attribute" as the router parses them.
ecrint::Result<ecrint::core::ObjectRef> ParseObjectRef(const std::string& text);
ecrint::Result<ecrint::ecr::AttributePath> ParseAttributePath(
    const std::string& text);
// Journal form of a write request (define / equiv / assert / integrate).
ecrint::Result<ecrint::engine::ReplayVerb> ToReplayVerb(
    const BinaryRequest& request);

// Acknowledged writes, in acknowledgement order per project, as
// "<project>\t<journal payload>" lines.
struct AckLog {
  std::vector<std::pair<std::string, std::string>> entries;

  void Add(const std::string& project, const BinaryRequest& request);
  void Merge(const AckLog& other);
  bool Save(const std::string& path) const;
  bool Load(const std::string& path);
};

// An in-process Engine fed the same writes the server acknowledged, with
// the service's exact engine call sequence (engine/replay.h).
class Reference {
 public:
  Reference();
  // Applies one journal payload. Rejected verbs (the deliberate
  // contradictions) leave the engine unchanged, exactly as on the server.
  // `integrate` verbs are skipped when `with_integrate` is false: the
  // exported project (schemas, equivalences, assertions) does not depend
  // on them.
  void Apply(const std::string& payload, bool with_integrate);
  ecrint::engine::Engine& engine() { return engine_; }

 private:
  ecrint::engine::Engine engine_;
};

// What the service answers for `rank` / `translate` on the reference's
// state (service.cc's RankBody / TranslateBody formatting).
bool ExpectedReadLines(ecrint::engine::Engine& engine,
                       const BinaryRequest& request,
                       std::vector<std::string>* lines);

std::vector<std::string> SplitLines(const std::string& text);

// --- the workloads' projects ------------------------------------------

// dda_edit: 2 schemas; 90% of the equivalences and half of the relations
// seeded. `generation` > 0 names a fresh copy used once the held-back
// facts of the previous one ran out.
World DdaWorld(uint64_t seed, int generation, const Sizes& sizes);
// ingest_durable: 3 schemas, nothing seeded (the whole truth is streamed).
World IngestWorld(uint64_t seed, const std::string& lane, int index,
                  const Sizes& sizes);

// One edit of the DDA's Phase 3->4 loop.
struct DdaStep {
  enum class Kind { kRelation, kContradiction, kEquivalence };
  Kind kind = Kind::kRelation;
  BinaryRequest edit;
  bool rank = false;  // every 10th step also reads the ranking
};

// The dda_edit step stream over one World: ~80% held-back true relations,
// ~10% contradictions of an already-asserted pair, ~10% held-back
// equivalences.
class DdaSteps {
 public:
  DdaSteps(uint64_t seed, const World& world);
  // False once the held-back relations are used up.
  bool Next(DdaStep* step);

 private:
  const World& world_;
  uint64_t rng_state_;
  size_t next_relation_ = 0;
  size_t next_equiv_ = 0;
  int64_t steps_ = 0;
  std::vector<BinaryRequest> asserted_;  // pairs a contradiction can target
};

// xorshift-style generator step; returns a uniform 64-bit value.
uint64_t NextRandom(uint64_t* state);
double NextUniform(uint64_t* state);  // [0, 1)

}  // namespace e2e

#endif  // E2EBENCH_WORLDS_H_
