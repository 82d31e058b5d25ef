#include "core/integrator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>

#include "common/strings.h"
#include "core/seeding.h"

namespace ecrint::core {

namespace {

// ---------------------------------------------------------------------------
// Lattice construction shared by object-class and relationship integration.
// ---------------------------------------------------------------------------

// Length of the name fragments in generated names (D_Stud_Facu uses 4).
constexpr int kFragmentLength = 4;

// One node of the integrated lattice: an EQ-merged group of component
// structures, or a D_-derived generalization introduced for an overlap /
// disjoint-integrable pair.
struct Node {
  std::vector<int> members;  // universe positions; empty for derived nodes
  std::string name;
  ecr::ObjectOrigin origin = ecr::ObjectOrigin::kComponent;
  std::set<int> parents;  // full (pre-reduction) edge set, child -> parent
  std::vector<ecr::Attribute> attributes;  // filled by placement
};

// Reachability facts of one node set, filled by a single DFS over the parent
// edges: ancestors-or-self as one bitset row per node, depth (longest path
// to a root; deeper nodes are more specific), and a topological order
// (parents before children, stable by node index).
struct Ancestry {
  int words = 0;
  std::vector<uint64_t> rows;
  std::vector<int> depth;
  std::vector<int> order;

  const uint64_t* Row(int node) const {
    return &rows[static_cast<size_t>(node) * words];
  }

  bool IsAncestorOrSelf(int node, int ancestor) const {
    return (Row(node)[ancestor >> 6] >> (ancestor & 63)) & 1;
  }

  // The most specific node that is an ancestor-or-self of every node in
  // `owners`, or -1 when none exists. Owners are ancestors of each other only
  // when one generalizes all; the deepest common ancestor is the most
  // specific placement. Ties break to the lowest node index.
  int Placement(const std::vector<int>& owners) const {
    if (owners.empty()) return -1;
    std::vector<uint64_t> common(Row(owners.front()),
                                 Row(owners.front()) + words);
    for (int owner : owners) {
      for (int w = 0; w < words; ++w) common[w] &= Row(owner)[w];
    }
    int best = -1;
    for (int w = 0; w < words; ++w) {
      for (uint64_t bits = common[w]; bits != 0; bits &= bits - 1) {
        int candidate = w * 64 + std::countr_zero(bits);
        if (best < 0 || depth[candidate] > depth[best]) best = candidate;
      }
    }
    return best;
  }
};

Result<Ancestry> ComputeAncestry(const std::vector<Node>& nodes) {
  int n = static_cast<int>(nodes.size());
  Ancestry out;
  out.words = (n + 63) / 64;
  out.rows.assign(static_cast<size_t>(n) * out.words, 0);
  out.depth.assign(n, 0);
  out.order.reserve(n);
  std::vector<char> state(n, 0);  // 0 unseen, 1 on the DFS path, 2 done
  auto visit = [&](auto&& self, int node) -> bool {
    state[node] = 1;
    uint64_t* row = &out.rows[static_cast<size_t>(node) * out.words];
    row[node >> 6] |= uint64_t{1} << (node & 63);
    for (int parent : nodes[node].parents) {
      if (state[parent] == 1) return false;
      if (state[parent] == 0 && !self(self, parent)) return false;
      const uint64_t* above = out.Row(parent);
      for (int w = 0; w < out.words; ++w) row[w] |= above[w];
      out.depth[node] = std::max(out.depth[node], out.depth[parent] + 1);
    }
    state[node] = 2;
    out.order.push_back(node);
    return true;
  };
  for (int i = 0; i < n; ++i) {
    if (state[i] == 0 && !visit(visit, i)) {
      // The closure guarantees consistency, so this means a bug upstream.
      return InternalError("integration lattice acquired a cycle; "
                           "assertions and schema structure disagree");
    }
  }
  return out;
}

struct Lattice {
  std::vector<ObjectRef> universe;  // component structures, in order
  std::vector<int> node_of;         // universe position -> node
  std::vector<Node> nodes;
  Ancestry ancestry;  // of the finished node set, D_ nodes included
};

std::string Fragment(const std::string& name) {
  std::string_view base = name;
  // Strip integration prefixes so D_(E_Student) reads D_Stud... not D_E_St.
  if (StartsWith(base, "E_") || StartsWith(base, "D_")) base.remove_prefix(2);
  return std::string(base.substr(0, kFragmentLength));
}

// Reserves a name, appending _2, _3, ... on collision.
std::string UniqueName(const std::string& candidate,
                       std::set<std::string>& used) {
  std::string name = candidate;
  int suffix = 2;
  while (!used.insert(name).second) {
    name = candidate + "_" + std::to_string(suffix++);
  }
  return name;
}

// Builds the EQ-merged node set, subset edges and derived generalizations
// for one structure kind. `universe` lists the component structures in
// deterministic order; each is mapped to its store id once, and one scan
// over the pairs by id classifies them all.
Result<Lattice> BuildLattice(std::vector<ObjectRef> universe,
                             const AssertionStore& store,
                             std::set<std::string>& used_names) {
  Lattice lattice;
  lattice.universe = std::move(universe);
  const std::vector<ObjectRef>& refs = lattice.universe;
  int n = static_cast<int>(refs.size());
  std::vector<int> id(n);
  std::vector<int> position(store.num_objects(), -1);
  for (int i = 0; i < n; ++i) {
    id[i] = store.IdOf(refs[i]);
    if (id[i] >= 0) position[id[i]] = i;
  }

  // Union-find over "equals" pairs; subset and overlap pairs are kept as
  // universe positions until the nodes exist. The mirror cell is always the
  // converse, so the i<j half covers both subset directions.
  std::vector<int> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  std::vector<std::pair<int, int>> subsets;  // (child, parent)
  std::vector<std::pair<int, int>> generalize;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      RelationSet r = store.PossibleRelations(id[i], id[j]);
      if (RelationCount(r) != 1) continue;
      switch (TheRelation(r)) {
        case SetRelation::kEqual:
          parent[std::max(find(i), find(j))] = std::min(find(i), find(j));
          break;
        case SetRelation::kSubset:
          subsets.push_back({i, j});
          break;
        case SetRelation::kSuperset:
          subsets.push_back({j, i});
          break;
        case SetRelation::kOverlap:
          generalize.push_back({i, j});
          break;
        case SetRelation::kDisjoint:
          break;
      }
    }
  }
  // Any user disjoint-integrable assertion on a pair asks for a D_ node, in
  // either order and whatever was asserted on the pair after it. Assert
  // registers both operands, so their ids exist.
  for (const Assertion& a : store.user_assertions()) {
    if (a.type != AssertionType::kDisjointIntegrable) continue;
    int first = store.IdOf(a.first);
    int second = store.IdOf(a.second);
    if (position[first] >= 0 && position[second] >= 0) {
      generalize.push_back({position[first], position[second]});
    }
  }

  // Nodes in order of first member occurrence.
  std::vector<int> node_of_root(n, -1);
  lattice.node_of.resize(n);
  for (int i = 0; i < n; ++i) {
    int& node = node_of_root[find(i)];
    if (node < 0) {
      node = static_cast<int>(lattice.nodes.size());
      lattice.nodes.emplace_back();
    }
    lattice.nodes[node].members.push_back(i);
    lattice.node_of[i] = node;
  }
  for (const auto& [i, j] : subsets) {
    int child = lattice.node_of[i];
    int parent_node = lattice.node_of[j];
    if (child != parent_node) lattice.nodes[child].parents.insert(parent_node);
  }
  std::set<std::pair<int, int>> derived_pairs;
  for (const auto& [i, j] : generalize) {
    int a = lattice.node_of[i];
    int b = lattice.node_of[j];
    if (a != b) derived_pairs.insert({std::min(a, b), std::max(a, b)});
  }

  // Name base nodes before derived ones (derived names reference them).
  for (Node& node : lattice.nodes) {
    const ObjectRef& front = refs[node.members.front()];
    if (node.members.size() == 1) {
      node.origin = ecr::ObjectOrigin::kComponent;
      if (!used_names.count(front.object)) {
        node.name = front.object;
        used_names.insert(node.name);
      } else {
        node.name = UniqueName(front.schema + "_" + front.object, used_names);
      }
    } else {
      node.origin = ecr::ObjectOrigin::kEquivalent;
      bool all_same = true;
      for (int m : node.members) all_same &= refs[m].object == front.object;
      std::string candidate;
      if (all_same) {
        candidate = "E_" + front.object;
      } else {
        candidate = "E";
        for (int m : node.members) {
          candidate += "_" + Fragment(refs[m].object);
        }
      }
      node.name = UniqueName(candidate, used_names);
    }
  }

  // D_ nodes are fresh roots, so adding one never changes reachability
  // between base nodes: the base ancestry answers every skip check below.
  ECRINT_ASSIGN_OR_RETURN(Ancestry base, ComputeAncestry(lattice.nodes));
  for (const auto& [a, b] : derived_pairs) {
    // Skip when one side already generalizes the other through other edges
    // (e.g. overlap later subsumed by an equals chain elsewhere).
    if (base.IsAncestorOrSelf(a, b) || base.IsAncestorOrSelf(b, a)) continue;
    Node derived;
    derived.origin = ecr::ObjectOrigin::kDerived;
    derived.name = UniqueName("D_" + Fragment(lattice.nodes[a].name) + "_" +
                                  Fragment(lattice.nodes[b].name),
                              used_names);
    int node = static_cast<int>(lattice.nodes.size());
    lattice.nodes.push_back(std::move(derived));
    lattice.nodes[a].parents.insert(node);
    lattice.nodes[b].parents.insert(node);
  }
  ECRINT_ASSIGN_OR_RETURN(lattice.ancestry, ComputeAncestry(lattice.nodes));
  return lattice;
}

// Direct parents after transitive reduction: a parent reachable from
// another parent is implied and dropped.
std::vector<int> DirectParents(const Lattice& lattice, int node) {
  const std::set<int>& parents = lattice.nodes[node].parents;
  std::vector<int> out;
  for (int p : parents) {
    bool implied = std::any_of(parents.begin(), parents.end(), [&](int q) {
      return q != p && lattice.ancestry.IsAncestorOrSelf(q, p);
    });
    if (!implied) out.push_back(p);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Attribute placement.
// ---------------------------------------------------------------------------

ecr::Domain MergeDomains(const ecr::Domain& a, const ecr::Domain& b) {
  if (a == b) return a;
  if (a.type() != b.type()) return a;  // equivalence required comparability
  std::string unit = a.unit() == b.unit() ? a.unit() : std::string();
  ecr::Domain merged(a.type());
  switch (a.type()) {
    case ecr::DomainType::kChar:
      if (a.max_length().has_value() && b.max_length().has_value()) {
        merged = ecr::Domain::CharN(
            std::max(*a.max_length(), *b.max_length()));
      }
      break;
    case ecr::DomainType::kInt:
    case ecr::DomainType::kReal:
      if (a.lower_bound().has_value() && b.lower_bound().has_value() &&
          a.upper_bound().has_value() && b.upper_bound().has_value()) {
        double lo = std::min(*a.lower_bound(), *b.lower_bound());
        double hi = std::max(*a.upper_bound(), *b.upper_bound());
        merged = a.type() == ecr::DomainType::kInt
                     ? ecr::Domain::IntRange(static_cast<long long>(lo),
                                             static_cast<long long>(hi))
                     : ecr::Domain::RealRange(lo, hi);
      }
      break;
    default:
      break;
  }
  if (!unit.empty()) merged.set_unit(unit);
  return merged;
}

// Everything the placement pass needs to know about one component attribute.
struct SourceAttribute {
  ecr::AttributePath path;
  ecr::Attribute attribute;
  int node = -1;
};

// Derived-attribute name from its component names: D_<name> when all agree,
// D_<frag>_<frag>... otherwise.
std::string DerivedAttributeName(
    const std::vector<SourceAttribute*>& members) {
  std::vector<std::string> names;
  for (const SourceAttribute* m : members) {
    if (std::find(names.begin(), names.end(), m->attribute.name) ==
        names.end()) {
      names.push_back(m->attribute.name);
    }
  }
  if (names.size() == 1) return "D_" + names.front();
  std::string out = "D";
  for (const std::string& name : names) {
    out += "_" + Fragment(name);
  }
  return out;
}

// Runs equivalence-class merging and attribute copying over one lattice.
// Fills node.attributes, emits DerivedAttributeInfo records and the
// per-source-attribute targets used by the mappings.
void PlaceAttributes(
    Lattice& lattice, std::vector<SourceAttribute>& attributes,
    const EquivalenceMap& equivalence,
    std::vector<DerivedAttributeInfo>& derived_out,
    std::map<ecr::AttributePath, AttributeMapping>& target_out) {
  // Group source attributes by equivalence class.
  std::map<ecr::AttributePath, SourceAttribute*> by_path;
  for (SourceAttribute& a : attributes) by_path[a.path] = &a;

  std::set<const SourceAttribute*> consumed;
  // Per-node used attribute names, to keep derived + copied names unique.
  std::vector<std::set<std::string>> used(lattice.nodes.size());

  for (const std::vector<ecr::AttributePath>& eq_class :
       equivalence.NontrivialClasses()) {
    std::vector<SourceAttribute*> members;
    for (const ecr::AttributePath& path : eq_class) {
      auto it = by_path.find(path);
      if (it != by_path.end()) members.push_back(it->second);
    }
    if (members.size() < 2) continue;  // class does not span this lattice
    std::vector<int> owners;
    for (SourceAttribute* m : members) owners.push_back(m->node);
    int placement = lattice.ancestry.Placement(owners);
    if (placement < 0) continue;  // no common generalization; copy as-is

    ecr::Attribute merged;
    merged.name = DerivedAttributeName(members);
    merged.domain = members.front()->attribute.domain;
    merged.is_key = true;
    for (SourceAttribute* m : members) {
      merged.domain = MergeDomains(merged.domain, m->attribute.domain);
      merged.is_key = merged.is_key && m->attribute.is_key;
    }
    while (used[placement].count(merged.name)) merged.name += "_x";
    used[placement].insert(merged.name);
    lattice.nodes[placement].attributes.push_back(merged);

    DerivedAttributeInfo info;
    info.owner = lattice.nodes[placement].name;
    info.name = merged.name;
    for (SourceAttribute* m : members) {
      info.components.push_back(m->path);
      consumed.insert(m);
      target_out[m->path] = AttributeMapping{
          m->path.attribute, info.owner, merged.name};
    }
    derived_out.push_back(std::move(info));
  }

  // Copy every unconsumed attribute onto its node, renaming on collision.
  for (SourceAttribute& a : attributes) {
    if (consumed.count(&a)) continue;
    ecr::Attribute copy = a.attribute;
    if (used[a.node].count(copy.name)) {
      copy.name = a.path.schema + "_" + copy.name;
      while (used[a.node].count(copy.name)) copy.name += "_x";
    }
    used[a.node].insert(copy.name);
    lattice.nodes[a.node].attributes.push_back(copy);
    target_out[a.path] = AttributeMapping{
        a.path.attribute, lattice.nodes[a.node].name, copy.name};
  }
}

// ---------------------------------------------------------------------------
// Relationship participant merging.
// ---------------------------------------------------------------------------

// A participant expressed against object-lattice node ids.
struct NodeParticipation {
  int node = -1;
  int min_card = 0;
  int max_card = ecr::kUnboundedCardinality;
  std::string role;
};

int MergedMax(int a, int b) {
  if (a == ecr::kUnboundedCardinality || b == ecr::kUnboundedCardinality) {
    return ecr::kUnboundedCardinality;
  }
  return std::max(a, b);
}

// Merges `extra` into `base`: each extra participant widens the first
// unmatched base participant whose object node it shares a generalization
// with (lifted to the most specific one, cardinalities widened so both
// original constraints stay satisfiable), or is appended.
std::vector<NodeParticipation> MergeParticipantLists(
    const std::vector<NodeParticipation>& base,
    const std::vector<NodeParticipation>& extra, const Lattice& objects) {
  std::vector<NodeParticipation> out = base;
  std::vector<char> matched(out.size(), 0);
  for (const NodeParticipation& p : extra) {
    bool merged = false;
    for (size_t i = 0; i < out.size() && !merged; ++i) {
      if (matched[i]) continue;
      int common = objects.ancestry.Placement({out[i].node, p.node});
      if (common < 0) continue;
      out[i].node = common;
      out[i].min_card = std::min(out[i].min_card, p.min_card);
      out[i].max_card = MergedMax(out[i].max_card, p.max_card);
      if (out[i].role.empty()) out[i].role = p.role;
      matched[i] = 1;
      merged = true;
    }
    if (!merged) out.push_back(p);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Integrate().
// ---------------------------------------------------------------------------

Status SeedForIntegration(AssertionStore& assertions,
                          const ecr::Catalog& catalog,
                          const std::vector<std::string>& schemas,
                          const IntegrationOptions& options) {
  // Seed within-schema structure into the closure; contradictions between
  // DDA assertions and component structure surface here. All schemas'
  // seeds are collected into one batch and asserted in order.
  SeedOptions seed;
  seed.category_containment = options.seed_category_containment;
  seed.entity_disjointness = options.seed_entity_disjointness;
  std::vector<Assertion> seeds;
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    CollectSchemaSeedAssertions(*schema, seed, seeds);
  }
  return assertions.AssertBatch(seeds).status();
}

Result<IntegrationResult> Integrate(const ecr::Catalog& catalog,
                                    const std::vector<std::string>& schemas,
                                    const EquivalenceMap& equivalence,
                                    AssertionStore assertions,
                                    const IntegrationOptions& options) {
  ECRINT_RETURN_IF_ERROR(
      SeedForIntegration(assertions, catalog, schemas, options));
  return IntegrateSeeded(catalog, schemas, equivalence, assertions, options);
}

Result<IntegrationResult> IntegrateSeeded(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas,
    const EquivalenceMap& equivalence, const AssertionStore& assertions,
    const IntegrationOptions& options) {
  if (schemas.empty()) {
    return InvalidArgumentError("Integrate needs at least one schema");
  }
  std::vector<const ecr::Schema*> components;
  components.reserve(schemas.size());
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    if (std::find(components.begin(), components.end(), schema) !=
        components.end()) {
      return InvalidArgumentError("Integrate lists schema '" + name +
                                  "' more than once");
    }
    components.push_back(schema);
  }

  // Universes, in schema order then declaration order. A relationship's
  // participants name schema-local object ids; `first_object` turns them
  // into object-universe positions.
  std::vector<ObjectRef> object_universe;
  std::vector<ObjectRef> relationship_universe;
  std::vector<const ecr::RelationshipSet*> relationship_sets;
  std::vector<int> first_object;  // per relationship-universe position
  for (const ecr::Schema* schema : components) {
    int base = static_cast<int>(object_universe.size());
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      object_universe.push_back({schema->name(), schema->object(i).name});
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      const ecr::RelationshipSet& rel = schema->relationship(i);
      relationship_universe.push_back({schema->name(), rel.name});
      relationship_sets.push_back(&rel);
      first_object.push_back(base);
    }
  }

  std::set<std::string> used_names;
  ECRINT_ASSIGN_OR_RETURN(
      Lattice objects,
      BuildLattice(std::move(object_universe), assertions, used_names));
  ECRINT_ASSIGN_OR_RETURN(
      Lattice rels,
      BuildLattice(std::move(relationship_universe), assertions, used_names));

  IntegrationResult result;
  result.schema.set_name(options.result_name);
  result.object_clusters = BuildClusters(assertions, objects.universe);
  result.relationship_clusters = BuildClusters(assertions, rels.universe);

  // --- attributes ----------------------------------------------------------
  std::map<ecr::AttributePath, AttributeMapping> attribute_targets;
  {
    std::vector<SourceAttribute> object_attributes;
    std::vector<SourceAttribute> relationship_attributes;
    int object_pos = 0;
    int rel_pos = 0;
    for (const ecr::Schema* schema : components) {
      for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
        const ecr::ObjectClass& object = schema->object(i);
        for (const ecr::Attribute& a : object.attributes) {
          object_attributes.push_back({{schema->name(), object.name, a.name},
                                       a,
                                       objects.node_of[object_pos]});
        }
        ++object_pos;
      }
      for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
        const ecr::RelationshipSet& rel = schema->relationship(i);
        for (const ecr::Attribute& a : rel.attributes) {
          relationship_attributes.push_back(
              {{schema->name(), rel.name, a.name}, a, rels.node_of[rel_pos]});
        }
        ++rel_pos;
      }
    }
    PlaceAttributes(objects, object_attributes, equivalence,
                    result.derived_attributes, attribute_targets);
    PlaceAttributes(rels, relationship_attributes, equivalence,
                    result.derived_attributes, attribute_targets);
  }

  // --- assemble object classes --------------------------------------------
  std::vector<ecr::ObjectId> node_to_id(objects.nodes.size(),
                                        ecr::kNoObject);
  for (int node : objects.ancestry.order) {
    const Node& n = objects.nodes[node];
    std::vector<int> parents = DirectParents(objects, node);
    Result<ecr::ObjectId> id = ecr::kNoObject;
    if (parents.empty()) {
      id = result.schema.AddEntitySet(n.name);
    } else {
      std::vector<ecr::ObjectId> parent_ids;
      parent_ids.reserve(parents.size());
      for (int p : parents) parent_ids.push_back(node_to_id[p]);
      id = result.schema.AddCategory(n.name, parent_ids);
    }
    if (!id.ok()) return id.status();
    node_to_id[node] = *id;
    result.schema.mutable_object(*id).origin = n.origin;
    for (const ecr::Attribute& a : n.attributes) {
      // Placement keeps names unique per node; an inherited clash can still
      // occur (ancestor copied an identically named attribute), so rename.
      ecr::Attribute attr = a;
      Status status = result.schema.AddObjectAttribute(*id, attr);
      while (status.code() == StatusCode::kAlreadyExists) {
        attr.name += "_x";
        status = result.schema.AddObjectAttribute(*id, attr);
      }
      if (!status.ok()) return status;
    }
  }

  // --- assemble relationship sets -----------------------------------------
  // Participants of a source relationship (by universe position), against
  // object node ids.
  auto source_participants = [&](int pos) {
    std::vector<NodeParticipation> out;
    for (const ecr::Participation& p : relationship_sets[pos]->participants) {
      out.push_back({objects.node_of[first_object[pos] + p.object],
                     p.min_card, p.max_card, p.role});
    }
    return out;
  };

  const std::vector<int>& rel_order = rels.ancestry.order;
  std::vector<std::vector<NodeParticipation>> rel_participants(
      rels.nodes.size());
  // Children before parents so a derived relationship can generalize its
  // children's already-merged participant lists; the topological order
  // gives parents first, so iterate it in reverse.
  for (auto it = rel_order.rbegin(); it != rel_order.rend(); ++it) {
    int node = *it;
    const Node& n = rels.nodes[node];
    std::vector<NodeParticipation> merged;
    for (int source : n.members) {
      merged = merged.empty()
                   ? source_participants(source)
                   : MergeParticipantLists(merged,
                                           source_participants(source),
                                           objects);
    }
    if (n.members.empty()) {
      // Derived relationship: generalize over its children.
      for (size_t child = 0; child < rels.nodes.size(); ++child) {
        if (!rels.nodes[child].parents.count(node)) continue;
        merged = merged.empty()
                     ? rel_participants[child]
                     : MergeParticipantLists(merged, rel_participants[child],
                                             objects);
      }
    }
    rel_participants[node] = std::move(merged);
  }

  std::vector<ecr::RelationshipId> rel_node_to_id(rels.nodes.size(), -1);
  for (int node : rel_order) {
    const Node& n = rels.nodes[node];
    std::vector<ecr::Participation> participants;
    for (const NodeParticipation& p : rel_participants[node]) {
      participants.push_back(ecr::Participation{
          node_to_id[p.node], p.min_card, p.max_card, p.role});
    }
    if (participants.size() < 2) {
      return InternalError("relationship '" + n.name +
                           "' merged to fewer than two participants");
    }
    ECRINT_ASSIGN_OR_RETURN(
        ecr::RelationshipId id,
        result.schema.AddRelationship(n.name, participants));
    rel_node_to_id[node] = id;
    result.schema.mutable_relationship(id).origin = n.origin;
    for (const ecr::Attribute& a : n.attributes) {
      ecr::Attribute attr = a;
      Status status = result.schema.AddRelationshipAttribute(id, attr);
      while (status.code() == StatusCode::kAlreadyExists) {
        attr.name += "_x";
        status = result.schema.AddRelationshipAttribute(id, attr);
      }
      if (!status.ok()) return status;
    }
  }
  for (int node : rel_order) {
    for (int p : DirectParents(rels, node)) {
      result.schema.mutable_relationship(rel_node_to_id[node])
          .parents.push_back(rel_node_to_id[p]);
    }
  }

  // --- provenance & mappings ----------------------------------------------
  auto emit_infos = [&result](const Lattice& lattice, StructureKind kind) {
    for (const Node& node : lattice.nodes) {
      IntegratedStructureInfo info;
      info.name = node.name;
      info.kind = kind;
      info.origin = node.origin;
      for (int m : node.members) info.sources.push_back(lattice.universe[m]);
      result.structures.push_back(std::move(info));
    }
  };
  emit_infos(objects, StructureKind::kObjectClass);
  emit_infos(rels, StructureKind::kRelationshipSet);

  auto emit_mappings = [&](const Lattice& lattice, StructureKind kind) {
    for (const Node& node : lattice.nodes) {
      for (int m : node.members) {
        const ObjectRef& source = lattice.universe[m];
        StructureMapping mapping;
        mapping.source = source;
        mapping.kind = kind;
        mapping.target = node.name;
        // The source's attribute paths form one contiguous run of the map.
        for (auto it = attribute_targets.lower_bound(
                 {source.schema, source.object, ""});
             it != attribute_targets.end() &&
             it->first.schema == source.schema &&
             it->first.object == source.object;
             ++it) {
          mapping.attributes.push_back(it->second);
        }
        result.mappings.push_back(std::move(mapping));
      }
    }
  };
  emit_mappings(objects, StructureKind::kObjectClass);
  emit_mappings(rels, StructureKind::kRelationshipSet);

  return result;
}

}  // namespace ecrint::core
