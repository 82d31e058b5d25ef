#include "worlds.h"

#include <algorithm>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <random>

#include "bench_common.h"
#include "core/assertion.h"
#include "ecr/printer.h"

namespace e2e {

using ecrint::Result;
namespace core = ecrint::core;
namespace engine = ecrint::engine;
namespace workload = ecrint::workload;

Sizes SizesFor(bool smoke) {
  Sizes sizes;
  if (smoke) {
    sizes.dda_concepts = 30;
    sizes.ingest_concepts = 12;
    sizes.crash_writes_per_lane = 150;
  }
  return sizes;
}

World MakeWorld(const std::string& project, uint64_t seed, int concepts,
                int schemas, double equiv_share, double relation_share) {
  workload::GeneratorConfig config;
  config.seed = seed;
  config.num_concepts = concepts;
  config.num_schemas = schemas;
  config.concept_coverage = 0.9;
  Result<workload::Workload> generated = workload::GenerateWorkload(config);
  if (!generated.ok()) {
    std::fprintf(stderr, "world generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::exit(1);
  }
  World world;
  world.project = project;
  world.truth = *std::move(generated);
  for (const std::string& name : world.truth.schema_names) {
    world.ddl.push_back(ecrint::ecr::ToDdl(**world.truth.catalog.GetSchema(name)));
  }
  std::mt19937_64 rng(Mix64(seed ^ 0x5eedu));
  auto split = [&rng](size_t n, double share, std::vector<size_t>* seeded,
                      std::vector<size_t>* held) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    size_t keep = static_cast<size_t>(share * static_cast<double>(n));
    seeded->assign(order.begin(), order.begin() + keep);
    // Seeded facts go in generator order so the seed stream is stable.
    std::sort(seeded->begin(), seeded->end());
    held->assign(order.begin() + keep, order.end());
  };
  split(world.truth.attribute_matches.size(), equiv_share,
        &world.seeded_equivs, &world.held_equivs);
  split(world.truth.object_relations.size(), relation_share,
        &world.seeded_relations, &world.held_relations);
  return world;
}

BinaryRequest MakeRequest(WireVerb verb, std::vector<std::string> args) {
  BinaryRequest request;
  request.verb = verb;
  request.args = std::move(args);
  return request;
}

BinaryRequest EquivRequest(const workload::TrueAttributeMatch& match) {
  return MakeRequest(WireVerb::kEquiv,
                     {match.first.ToString(), match.second.ToString()});
}

BinaryRequest TruthRequest(const workload::TrueObjectRelation& truth) {
  return MakeRequest(WireVerb::kAssert,
                     {truth.first.ToString(),
                      std::to_string(core::AssertionTypeCode(truth.assertion)),
                      truth.second.ToString()});
}

int ContradictionCode(int code) {
  // Disjointness (0, "disjoint and not integratable") contradicts equality,
  // containment and overlap; for the two disjoint codes (0, 4) equality
  // contradicts instead (0 only narrows 4).
  return code == 0 || code == 4 ? 1 : 0;
}

std::vector<BinaryRequest> SeedRequests(const World& world) {
  std::vector<BinaryRequest> requests;
  for (const std::string& ddl : world.ddl) {
    requests.push_back(MakeRequest(WireVerb::kDefine, {ddl}));
  }
  for (size_t i : world.seeded_equivs) {
    requests.push_back(EquivRequest(world.truth.attribute_matches[i]));
  }
  for (size_t i : world.seeded_relations) {
    requests.push_back(TruthRequest(world.truth.object_relations[i]));
  }
  requests.push_back(MakeRequest(WireVerb::kIntegrate));
  return requests;
}

std::vector<BinaryRequest> IngestStream(const World& world, uint64_t seed) {
  std::vector<BinaryRequest> facts;
  for (const workload::TrueAttributeMatch& match :
       world.truth.attribute_matches) {
    facts.push_back(EquivRequest(match));
  }
  for (const workload::TrueObjectRelation& relation :
       world.truth.object_relations) {
    facts.push_back(TruthRequest(relation));
  }
  std::mt19937_64 rng(Mix64(seed ^ 0x1a6e57u));
  std::shuffle(facts.begin(), facts.end(), rng);
  std::vector<BinaryRequest> stream;
  auto push = [&stream](BinaryRequest request) {
    stream.push_back(std::move(request));
    if (stream.size() % 8 == 7) {
      stream.push_back(MakeRequest(WireVerb::kIntegrate));
    }
  };
  for (const std::string& ddl : world.ddl) {
    push(MakeRequest(WireVerb::kDefine, {ddl}));
  }
  for (BinaryRequest& fact : facts) push(std::move(fact));
  if (stream.back().verb != WireVerb::kIntegrate) {
    stream.push_back(MakeRequest(WireVerb::kIntegrate));
  }
  return stream;
}

bool IsWriteVerb(WireVerb verb) {
  return verb == WireVerb::kDefine || verb == WireVerb::kEquiv ||
         verb == WireVerb::kAssert || verb == WireVerb::kIntegrate;
}

Result<core::ObjectRef> ParseObjectRef(const std::string& text) {
  size_t dot = text.find('.');
  if (dot == std::string::npos) {
    return ecrint::InvalidArgumentError("bad object ref " + text);
  }
  return core::ObjectRef{text.substr(0, dot), text.substr(dot + 1)};
}

Result<ecrint::ecr::AttributePath> ParseAttributePath(const std::string& text) {
  size_t first = text.find('.');
  size_t second = first == std::string::npos ? first : text.find('.', first + 1);
  if (second == std::string::npos) {
    return ecrint::InvalidArgumentError("bad attribute path " + text);
  }
  return ecrint::ecr::AttributePath{text.substr(0, first),
                                    text.substr(first + 1, second - first - 1),
                                    text.substr(second + 1)};
}

Result<engine::ReplayVerb> ToReplayVerb(const BinaryRequest& request) {
  const std::vector<std::string>& args = request.args;
  switch (request.verb) {
    case WireVerb::kDefine:
      return engine::DefineVerb(args.at(0));
    case WireVerb::kEquiv: {
      Result<ecrint::ecr::AttributePath> a = ParseAttributePath(args.at(0));
      Result<ecrint::ecr::AttributePath> b = ParseAttributePath(args.at(1));
      if (!a.ok()) return a.status();
      if (!b.ok()) return b.status();
      return engine::EquivalenceVerb(*a, *b);
    }
    case WireVerb::kAssert: {
      Result<core::ObjectRef> first = ParseObjectRef(args.at(0));
      Result<core::ObjectRef> second = ParseObjectRef(args.at(2));
      if (!first.ok()) return first.status();
      if (!second.ok()) return second.status();
      return engine::RelationVerb(*first, std::atoi(args.at(1).c_str()),
                                  *second);
    }
    case WireVerb::kIntegrate:
      return engine::IntegrateVerb(args);
    default:
      return ecrint::InvalidArgumentError("not a write verb");
  }
}

void AckLog::Add(const std::string& project, const BinaryRequest& request) {
  Result<engine::ReplayVerb> verb = ToReplayVerb(request);
  if (verb.ok()) entries.emplace_back(project, engine::EncodeReplayVerb(*verb));
}

void AckLog::Merge(const AckLog& other) {
  entries.insert(entries.end(), other.entries.begin(), other.entries.end());
}

bool AckLog::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  for (const auto& [project, payload] : entries) {
    out << project << '\t' << payload << '\n';
  }
  return static_cast<bool>(out);
}

bool AckLog::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    entries.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return true;
}

Reference::Reference() { engine::BeginReplay(engine_); }

void Reference::Apply(const std::string& payload, bool with_integrate) {
  Result<engine::ReplayVerb> verb = engine::DecodeReplayVerb(payload);
  if (!verb.ok()) return;
  if (verb->kind == engine::ReplayVerb::Kind::kIntegrate && !with_integrate) {
    return;
  }
  (void)engine::ApplyReplayVerb(engine_, *verb);
}

bool ExpectedReadLines(engine::Engine& engine, const BinaryRequest& request,
                       std::vector<std::string>* lines) {
  lines->clear();
  const std::vector<std::string>& args = request.args;
  if (request.verb == WireVerb::kRank) {
    core::StructureKind kind = core::StructureKind::kObjectClass;
    bool zero = false;
    for (size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "rel") kind = core::StructureKind::kRelationshipSet;
      if (args[i] == "zero") zero = true;
    }
    Result<std::vector<core::ObjectPair>> ranked =
        engine.RankedPairs(args.at(0), args.at(1), kind, zero);
    if (!ranked.ok()) return false;
    for (const core::ObjectPair& pair : *ranked) {
      char ratio[64];
      std::snprintf(ratio, sizeof(ratio), "%.4f", pair.attribute_ratio);
      lines->push_back(pair.first.ToString() + " " + pair.second.ToString() +
                       " " + ratio);
    }
    return true;
  }
  if (request.verb == WireVerb::kTranslate) {
    core::Request translate;
    Result<core::ObjectRef> structure = ParseObjectRef(args.at(0));
    if (!structure.ok()) return false;
    translate.structure = *structure;
    if (args.size() > 1) {
      std::string list = args[1];
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) translate.attributes.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
    }
    Result<core::Request> translated = engine.TranslateRequest(translate);
    if (!translated.ok()) return false;
    *lines = SplitLines(translated->ToString());
    return true;
  }
  return false;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  return lines;
}


uint64_t NextRandom(uint64_t* state) {
  *state += 0x9e3779b97f4a7c15ull;
  return Mix64(*state);
}

double NextUniform(uint64_t* state) {
  return static_cast<double>(NextRandom(state) >> 11) * 0x1.0p-53;
}

World DdaWorld(uint64_t seed, int generation, const Sizes& sizes) {
  return MakeWorld("dda-" + std::to_string(generation),
                   Mix64(seed * 131 + 0xdda0 + generation), sizes.dda_concepts,
                   2, 0.9, 0.5);
}

World IngestWorld(uint64_t seed, const std::string& lane, int index,
                  const Sizes& sizes) {
  uint64_t lane_salt = 0;
  for (char c : lane) lane_salt = lane_salt * 31 + static_cast<uint8_t>(c);
  return MakeWorld("ing-" + lane + "-" + std::to_string(index),
                   Mix64(seed * 131 + (lane_salt << 20) + index),
                   sizes.ingest_concepts, 3, 0.0, 0.0);
}

DdaSteps::DdaSteps(uint64_t seed, const World& world)
    : world_(world), rng_state_(Mix64(seed ^ 0x57e95u)) {
  for (size_t i : world.seeded_relations) {
    asserted_.push_back(TruthRequest(world.truth.object_relations[i]));
  }
}

bool DdaSteps::Next(DdaStep* step) {
  // Ends with the held-back relations, so the mix holds to the last step;
  // equivalences left over then are not sent.
  if (next_relation_ >= world_.held_relations.size()) return false;
  bool equivs_left = next_equiv_ < world_.held_equivs.size();
  uint64_t draw = NextRandom(&rng_state_) % 10;
  step->rank = (++steps_ % 10) == 0;
  if (draw == 0 && !asserted_.empty()) {
    const BinaryRequest& target =
        asserted_[NextRandom(&rng_state_) % asserted_.size()];
    int code = std::atoi(target.args[1].c_str());
    step->kind = DdaStep::Kind::kContradiction;
    step->edit = MakeRequest(
        WireVerb::kAssert,
        {target.args[0], std::to_string(ContradictionCode(code)),
         target.args[2]});
    return true;
  }
  if (draw == 1 && equivs_left) {
    step->kind = DdaStep::Kind::kEquivalence;
    step->edit = EquivRequest(
        world_.truth.attribute_matches[world_.held_equivs[next_equiv_++]]);
    return true;
  }
  step->kind = DdaStep::Kind::kRelation;
  step->edit = TruthRequest(
      world_.truth.object_relations[world_.held_relations[next_relation_++]]);
  asserted_.push_back(step->edit);
  return true;
}

}  // namespace e2e
