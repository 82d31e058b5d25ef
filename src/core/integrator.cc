#include "core/integrator.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <set>

#include "common/clock.h"
#include "common/strings.h"
#include "core/seeding.h"

namespace ecrint::core {

namespace {

// ---------------------------------------------------------------------------
// Lattice construction shared by object-class and relationship integration.
// ---------------------------------------------------------------------------

// Length of the name fragments in generated names (D_Stud_Facu uses 4).
constexpr int kFragmentLength = 4;

// Union-find root of `x`, with path halving.
int Find(std::vector<int>& parent, int x) {
  while (parent[x] != x) x = parent[x] = parent[parent[x]];
  return x;
}

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

bool HasAttribute(const Node& node, const std::string& name) {
  return std::any_of(node.attributes.begin(), node.attributes.end(),
                     [&](const ecr::Attribute& a) { return a.name == name; });
}

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

// One component attribute of a lattice's universe, and where placement put
// its representative.
struct SourceAttribute {
  const ecr::Attribute* attribute = nullptr;
  int structure = -1;  // universe position of its owner
  int id = -1;         // interned EquivalenceMap id; -1 when unregistered
  int target = -1;     // node carrying the representative attribute
  int slot = -1;       // its index in that node's attributes
};

struct Lattice {
  std::vector<ObjectRef> universe;  // component structures, in order
  std::vector<int> node_of;         // universe position -> node
  std::vector<int> cluster;         // cluster union-find, by position
  std::vector<Node> nodes;
  Ancestry ancestry;  // of the finished node set, D_ nodes included
  // Component attributes by universe position: those of position m are
  // sources[first_source[m] .. first_source[m + 1]), in declaration order.
  std::vector<SourceAttribute> sources;
  std::vector<int> first_source;
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
// over the pairs by id classifies them all and joins the integrating pairs
// into clusters.
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

  // Union-find over "equals" pairs and over integrating pairs (clusters);
  // subset and overlap pairs are kept as universe positions until the nodes
  // exist. The mirror cell is always the converse, so the i<j half covers
  // both subset directions. Universe order groups each schema's structures,
  // which keeps the store's per-pair branches predictable.
  std::vector<int> equal(n);
  std::iota(equal.begin(), equal.end(), 0);
  lattice.cluster = equal;
  std::vector<std::pair<int, int>> subsets;  // (child, parent)
  std::vector<std::pair<int, int>> generalize;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (store.IsIntegrating(id[i], id[j])) {
        lattice.cluster[Find(lattice.cluster, i)] = Find(lattice.cluster, j);
      }
      switch (store.PossibleRelations(id[i], id[j])) {
        case MaskOf(SetRelation::kEqual): {
          int x = Find(equal, i);
          int y = Find(equal, j);
          equal[std::max(x, y)] = std::min(x, y);
          break;
        }
        case MaskOf(SetRelation::kSubset):
          subsets.push_back({i, j});
          break;
        case MaskOf(SetRelation::kSuperset):
          subsets.push_back({j, i});
          break;
        case MaskOf(SetRelation::kOverlap):
          generalize.push_back({i, j});
          break;
        default:  // disjoint, or not pinned down
          break;
      }
    }
  }
  // Any user disjoint-integrable assertion on a pair asks for a D_ node, in
  // either order and whatever was asserted on the pair after it. Assert
  // registers both operands, so their ids exist.
  const std::vector<AssertionType>& types = store.user_assertion_types();
  for (size_t k = 0; k < types.size(); ++k) {
    if (types[k] != AssertionType::kDisjointIntegrable) continue;
    const Assertion& a = store.user_assertions()[k];
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
    int& node = node_of_root[Find(equal, i)];
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

// The lattice's clusters from the integrating pairs its scan joined:
// members sorted, clusters ordered by their smallest member. Walking the
// universe in ObjectRef order opens each cluster at its smallest member.
std::vector<Cluster> GroupClusters(Lattice& lattice) {
  const std::vector<ObjectRef>& refs = lattice.universe;
  std::vector<int> by_ref(refs.size());
  std::iota(by_ref.begin(), by_ref.end(), 0);
  std::sort(by_ref.begin(), by_ref.end(),
            [&](int a, int b) { return refs[a] < refs[b]; });
  std::vector<int> cluster_of_root(refs.size(), -1);
  std::vector<Cluster> clusters;
  for (int i : by_ref) {
    int& c = cluster_of_root[Find(lattice.cluster, i)];
    if (c < 0) {
      c = static_cast<int>(clusters.size());
      clusters.emplace_back();
    }
    clusters[c].members.push_back(refs[i]);
  }
  return clusters;
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

// Derived-attribute name from its component names: D_<name> when all agree,
// D_<frag>_<frag>... otherwise.
std::string DerivedAttributeName(const std::vector<SourceAttribute>& sources,
                                 const std::vector<int>& members) {
  std::vector<std::string> names;
  for (int m : members) {
    const std::string& name = sources[m].attribute->name;
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      names.push_back(name);
    }
  }
  if (names.size() == 1) return "D_" + names.front();
  std::string out = "D";
  for (const std::string& name : names) out += "_" + Fragment(name);
  return out;
}

// A category inherits its ancestors' attributes, so no name may repeat one
// an ancestor carries. Walking parents first, a clashing name takes _x
// suffixes until it is free of its ancestors' final names and of the names
// before it on its own node.
void ReserveInheritedNames(Lattice& lattice) {
  const Ancestry& ancestry = lattice.ancestry;
  for (int node : ancestry.order) {
    std::vector<ecr::Attribute>& own = lattice.nodes[node].attributes;
    auto taken = [&](size_t i) {
      for (size_t j = 0; j < i; ++j) {
        if (own[j].name == own[i].name) return true;
      }
      const uint64_t* row = ancestry.Row(node);
      for (int w = 0; w < ancestry.words; ++w) {
        for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
          int a = w * 64 + std::countr_zero(bits);
          if (a != node && HasAttribute(lattice.nodes[a], own[i].name)) {
            return true;
          }
        }
      }
      return false;
    };
    for (size_t i = 0; i < own.size(); ++i) {
      while (taken(i)) own[i].name += "_x";
    }
  }
}

// Merges the members of each equivalence class (`classes`, as ids) found
// among the lattice's `declared` attributes into one derived attribute at
// their most specific common generalization, then copies every other
// attribute onto its own node, renaming on collision; with `inherits`,
// names are then reserved against ancestors.
void PlaceAttributes(
    Lattice& lattice,
    const std::vector<const std::vector<ecr::Attribute>*>& declared,
    const EquivalenceMap& equivalence,
    const std::vector<std::vector<int>>& classes, bool inherits,
    std::vector<DerivedAttributeInfo>& derived_out) {
  std::vector<SourceAttribute>& sources = lattice.sources;
  std::vector<int> source_of(equivalence.num_attributes(), -1);
  lattice.first_source.assign(1, 0);
  // A structure's ids are the contiguous range the map registered for it.
  // A map built before the catalog last changed may not line up with the
  // declaration; such attributes are looked up by path.
  for (size_t m = 0; m < declared.size(); ++m) {
    const ObjectRef& ref = lattice.universe[m];
    auto [first, last] = equivalence.IdRange(ref);
    const std::vector<ecr::Attribute>& attributes = *declared[m];
    for (size_t k = 0; k < attributes.size(); ++k) {
      const std::string& name = attributes[k].name;
      int id = first + static_cast<int>(k);
      if (id >= last || equivalence.PathAt(id).attribute != name) {
        id = first == last ? -1
                           : equivalence.IdOf({ref.schema, ref.object, name});
      }
      if (id >= 0) source_of[id] = static_cast<int>(sources.size());
      sources.push_back({&attributes[k], static_cast<int>(m), id, -1, -1});
    }
    lattice.first_source.push_back(static_cast<int>(sources.size()));
  }

  size_t first_info = derived_out.size();
  std::vector<int> representative;  // one member source per derived info
  std::vector<int> members, owners;
  for (const std::vector<int>& ids : classes) {
    members.clear();
    for (int id : ids) if (source_of[id] >= 0) members.push_back(source_of[id]);
    if (members.size() < 2) continue;  // class does not span this lattice
    owners.clear();
    for (int m : members) {
      owners.push_back(lattice.node_of[sources[m].structure]);
    }
    int placement = lattice.ancestry.Placement(owners);
    if (placement < 0) continue;  // no common generalization; copy as-is
    // Ids follow registration order; the name, the domain merge and the
    // provenance follow path order.
    std::sort(members.begin(), members.end(), [&](int a, int b) {
      return equivalence.PathAt(sources[a].id) <
             equivalence.PathAt(sources[b].id);
    });

    ecr::Attribute merged{DerivedAttributeName(sources, members),
                          sources[members.front()].attribute->domain, true};
    Node& node = lattice.nodes[placement];
    DerivedAttributeInfo info{node.name, "", {}};
    for (int m : members) {
      merged.domain = MergeDomains(merged.domain, sources[m].attribute->domain);
      merged.is_key = merged.is_key && sources[m].attribute->is_key;
      info.components.push_back(equivalence.PathAt(sources[m].id));
      sources[m].target = placement;
      sources[m].slot = static_cast<int>(node.attributes.size());
    }
    while (HasAttribute(node, merged.name)) merged.name += "_x";
    node.attributes.push_back(std::move(merged));
    derived_out.push_back(std::move(info));
    representative.push_back(members.front());
  }

  // Copy every unplaced attribute onto its node, renaming on collision.
  for (SourceAttribute& source : sources) {
    if (source.target >= 0) continue;
    int owner = lattice.node_of[source.structure];
    Node& node = lattice.nodes[owner];
    ecr::Attribute copy = *source.attribute;
    if (HasAttribute(node, copy.name)) {
      copy.name = lattice.universe[source.structure].schema + "_" + copy.name;
      while (HasAttribute(node, copy.name)) copy.name += "_x";
    }
    source.target = owner;
    source.slot = static_cast<int>(node.attributes.size());
    node.attributes.push_back(std::move(copy));
  }

  if (inherits) ReserveInheritedNames(lattice);
  for (size_t k = 0; k < representative.size(); ++k) {
    const SourceAttribute& source = sources[representative[k]];
    derived_out[first_info + k].name =
        lattice.nodes[source.target].attributes[source.slot].name;
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
    const IntegrationOptions& options, IntegrateTimings* timings) {
  // Charges the time since the previous lap to one stage.
  common::Stopwatch watch(common::RealClock());
  auto lap = [&](int64_t IntegrateTimings::*stage) {
    if (timings != nullptr) timings->*stage = watch.ElapsedNs();
    watch.Restart();
  };

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

  // Universes and their declared attributes, in schema order then
  // declaration order. A relationship's participants name schema-local
  // object ids; `first_object` turns them into object-universe positions.
  std::vector<ObjectRef> object_universe;
  std::vector<ObjectRef> relationship_universe;
  std::vector<const std::vector<ecr::Attribute>*> object_attributes;
  std::vector<const std::vector<ecr::Attribute>*> relationship_attributes;
  std::vector<const ecr::RelationshipSet*> relationship_sets;
  std::vector<int> first_object;  // per relationship-universe position
  for (const ecr::Schema* schema : components) {
    int base = static_cast<int>(object_universe.size());
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      object_universe.push_back({schema->name(), schema->object(i).name});
      object_attributes.push_back(&schema->object(i).attributes);
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      const ecr::RelationshipSet& rel = schema->relationship(i);
      relationship_universe.push_back({schema->name(), rel.name});
      relationship_attributes.push_back(&rel.attributes);
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
  lap(&IntegrateTimings::lattice_ns);

  IntegrationResult result;
  result.schema.set_name(options.result_name);
  result.object_clusters = GroupClusters(objects);
  result.relationship_clusters = GroupClusters(rels);
  lap(&IntegrateTimings::clusters_ns);

  // --- attributes ----------------------------------------------------------
  std::vector<std::vector<int>> classes = equivalence.NontrivialClassIndices();
  PlaceAttributes(objects, object_attributes, equivalence, classes,
                  /*inherits=*/true, result.derived_attributes);
  PlaceAttributes(rels, relationship_attributes, equivalence, classes,
                  /*inherits=*/false, result.derived_attributes);
  lap(&IntegrateTimings::placement_ns);

  // --- provenance & mappings ----------------------------------------------
  auto emit = [&result](const Lattice& lattice, StructureKind kind) {
    for (const Node& node : lattice.nodes) {
      IntegratedStructureInfo info{node.name, kind, node.origin, {}};
      for (int m : node.members) {
        info.sources.push_back(lattice.universe[m]);
        StructureMapping mapping{lattice.universe[m], kind, node.name, {}};
        for (int i = lattice.first_source[m]; i < lattice.first_source[m + 1];
             ++i) {
          const SourceAttribute& source = lattice.sources[i];
          const Node& target = lattice.nodes[source.target];
          mapping.attributes.push_back({source.attribute->name, target.name,
                                        target.attributes[source.slot].name});
        }
        // Listed by source attribute name.
        std::sort(mapping.attributes.begin(), mapping.attributes.end(),
                  [](const AttributeMapping& a, const AttributeMapping& b) {
                    return a.source_attribute < b.source_attribute;
                  });
        result.mappings.push_back(std::move(mapping));
      }
      result.structures.push_back(std::move(info));
    }
  };
  emit(objects, StructureKind::kObjectClass);
  emit(rels, StructureKind::kRelationshipSet);
  lap(&IntegrateTimings::mappings_ns);

  // --- assemble object classes --------------------------------------------
  // Placement made every name unique against the node's own and inherited
  // attributes, so the attribute lists move over as they are.
  std::vector<ecr::ObjectId> node_to_id(objects.nodes.size(),
                                        ecr::kNoObject);
  for (int node : objects.ancestry.order) {
    Node& n = objects.nodes[node];
    std::vector<ecr::ObjectId> parents;
    for (int p : DirectParents(objects, node)) parents.push_back(node_to_id[p]);
    Result<ecr::ObjectId> id = parents.empty()
                                   ? result.schema.AddEntitySet(n.name)
                                   : result.schema.AddCategory(n.name, parents);
    if (!id.ok()) return id.status();
    node_to_id[node] = *id;
    ecr::ObjectClass& object = result.schema.mutable_object(*id);
    object.origin = n.origin;
    object.attributes = std::move(n.attributes);
  }
  lap(&IntegrateTimings::assembly_ns);

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
    Node& n = rels.nodes[node];
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
    ecr::RelationshipSet& rel = result.schema.mutable_relationship(id);
    rel.origin = n.origin;
    rel.attributes = std::move(n.attributes);
    // Parents come first in the topological order, so their ids exist.
    for (int p : DirectParents(rels, node)) {
      rel.parents.push_back(rel_node_to_id[p]);
    }
  }
  lap(&IntegrateTimings::relationships_ns);
  return result;
}

}  // namespace ecrint::core
