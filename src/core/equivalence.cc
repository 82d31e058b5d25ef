#include "core/equivalence.h"

#include <algorithm>
#include <utility>

namespace ecrint::core {

namespace {

size_t HashPath(const ecr::AttributePath& path) {
  return ecr::AttributePathHash{}(path);
}

size_t HashRef(const ObjectRef& ref) { return ObjectRefHash{}(ref); }

}  // namespace

int EquivalenceMap::Register(ecr::AttributePath path,
                             const ecr::Attribute& attribute,
                             size_t hash) {
  int index = static_cast<int>(entries_.size());
  entries_.push_back(
      Entry{std::move(path), attribute.domain, attribute.is_key});
  parent_.push_back(index);
  next_.push_back(index);  // a singleton ring
  class_size_.push_back(1);
  min_id_.push_back(index);
  attribute_index_.Insert(hash, index, entries_.size());
  return index;
}

Result<EquivalenceMap> EquivalenceMap::Create(
    const ecr::Catalog& catalog, const std::vector<std::string>& schemas) {
  EquivalenceMap map;
  // Pre-size everything; registration is append-only.
  size_t total_attributes = 0;
  size_t total_structures = 0;
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    total_structures += schema->num_objects() + schema->num_relationships();
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      total_attributes += schema->object(i).attributes.size();
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      total_attributes += schema->relationship(i).attributes.size();
    }
  }
  map.entries_.reserve(total_attributes);
  map.parent_.reserve(total_attributes);
  map.next_.reserve(total_attributes);
  map.class_size_.reserve(total_attributes);
  map.min_id_.reserve(total_attributes);
  map.attribute_index_.Reserve(total_attributes);
  map.structures_.reserve(total_structures);
  map.structure_index_.Reserve(total_structures);

  // A structure's attributes are the contiguous id range registered here,
  // so the per-structure bookkeeping is one StructureEntry, no id vector.
  auto register_structure = [&map](const std::string& schema,
                                   const std::string& structure,
                                   const std::vector<ecr::Attribute>& attrs) {
    if (attrs.empty()) return;
    int begin = static_cast<int>(map.entries_.size());
    size_t prefix = ecr::AttributePathHash::PrefixHash(schema, structure);
    for (const ecr::Attribute& a : attrs) {
      map.Register({schema, structure, a.name}, a,
                   ecr::AttributePathHash::WithAttribute(prefix, a.name));
    }
    int end = static_cast<int>(map.entries_.size());
    ObjectRef ref{schema, structure};
    size_t hash = HashRef(ref);
    map.structures_.push_back({std::move(ref), begin, end});
    map.structure_index_.Insert(
        hash, static_cast<int>(map.structures_.size()) - 1,
        map.structures_.size());
  };
  for (const std::string& name : schemas) {
    ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* schema,
                            catalog.GetSchema(name));
    for (ecr::ObjectId i = 0; i < schema->num_objects(); ++i) {
      const ecr::ObjectClass& object = schema->object(i);
      register_structure(name, object.name, object.attributes);
    }
    for (ecr::RelationshipId i = 0; i < schema->num_relationships(); ++i) {
      const ecr::RelationshipSet& rel = schema->relationship(i);
      register_structure(name, rel.name, rel.attributes);
    }
  }
  return map;
}

int EquivalenceMap::Find(int index) const {
  while (parent_[index] != index) {
    parent_[index] = parent_[parent_[index]];
    index = parent_[index];
  }
  return index;
}

int EquivalenceMap::IdOf(const ecr::AttributePath& path) const {
  return attribute_index_.Find(
      HashPath(path), [&](int i) { return entries_[i].path == path; });
}

std::pair<int, int> EquivalenceMap::IdRange(const ObjectRef& object) const {
  int s = structure_index_.Find(
      HashRef(object), [&](int i) { return structures_[i].ref == object; });
  if (s < 0) return {0, 0};
  return {structures_[s].begin, structures_[s].end};
}

Result<int> EquivalenceMap::IndexOf(const ecr::AttributePath& path) const {
  int id = IdOf(path);
  if (id < 0) {
    return NotFoundError("attribute '" + path.ToString() +
                         "' is not registered");
  }
  return id;
}

Status EquivalenceMap::DeclareEquivalent(const ecr::AttributePath& a,
                                         const ecr::AttributePath& b) {
  ECRINT_ASSIGN_OR_RETURN(int ia, IndexOf(a));
  ECRINT_ASSIGN_OR_RETURN(int ib, IndexOf(b));
  if (!entries_[ia].domain.Comparable(entries_[ib].domain)) {
    return FailedPreconditionError(
        "domains of '" + a.ToString() + "' (" +
        entries_[ia].domain.ToString() + ") and '" + b.ToString() + "' (" +
        entries_[ib].domain.ToString() + ") are not comparable");
  }
  int ra = Find(ia);
  int rb = Find(ib);
  if (ra == rb) return Status::Ok();
  // Union by size. The class number does not depend on which root wins: it
  // is derived from the cached smallest member id. Swapping the two roots'
  // next pointers concatenates their member rings in O(1).
  if (class_size_[ra] < class_size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  class_size_[ra] += class_size_[rb];
  min_id_[ra] = std::min(min_id_[ra], min_id_[rb]);
  std::swap(next_[ra], next_[rb]);
  return Status::Ok();
}

void EquivalenceMap::AppendClassIds(int root, std::vector<int>& out) const {
  int member = root;
  do {
    out.push_back(member);
    member = next_[member];
  } while (member != root);
}

Status EquivalenceMap::RemoveFromClass(const ecr::AttributePath& path) {
  ECRINT_ASSIGN_OR_RETURN(int index, IndexOf(path));
  int root = Find(index);
  if (class_size_[root] <= 1) return Status::Ok();  // already singleton
  // Re-root only the affected class: the ring names its members, so no
  // global rebuild is needed.
  std::vector<int> rest;
  rest.reserve(class_size_[root] - 1);
  int member = root;
  do {
    if (member != index) rest.push_back(member);
    member = next_[member];
  } while (member != root);

  int new_root = rest.front();
  int min_id = rest.front();
  for (size_t i = 0; i < rest.size(); ++i) {
    parent_[rest[i]] = new_root;
    min_id = std::min(min_id, rest[i]);
    next_[rest[i]] = rest[(i + 1) % rest.size()];
  }
  class_size_[new_root] = static_cast<int>(rest.size());
  min_id_[new_root] = min_id;

  parent_[index] = index;
  next_[index] = index;
  class_size_[index] = 1;
  min_id_[index] = index;
  return Status::Ok();
}

Result<int> EquivalenceMap::ClassOf(const ecr::AttributePath& path) const {
  ECRINT_ASSIGN_OR_RETURN(int index, IndexOf(path));
  // Class number = 1 + smallest declaration index in the class. Mirrors the
  // paper's behaviour where merging "changes the value of Eq_Class # of one
  // to that of the other": the earlier attribute's number wins. The root
  // caches that minimum, so this is O(α).
  return min_id_[Find(index)] + 1;
}

bool EquivalenceMap::AreEquivalent(const ecr::AttributePath& a,
                                   const ecr::AttributePath& b) const {
  Result<int> ia = IndexOf(a);
  Result<int> ib = IndexOf(b);
  if (!ia.ok() || !ib.ok()) return false;
  return Find(*ia) == Find(*ib);
}

int EquivalenceMap::EquivalentAttributeCount(const ObjectRef& a,
                                             const ObjectRef& b) const {
  auto [a_first, a_last] = IdRange(a);
  auto [b_first, b_last] = IdRange(b);
  // Merge the two sorted root lists; a root shared k_a · k_b times counts
  // k_a · k_b equivalent pairs. O((|A|+|B|) log) instead of O(|A|·|B|).
  std::vector<int> roots_a, roots_b;
  roots_a.reserve(a_last - a_first);
  roots_b.reserve(b_last - b_first);
  for (int i = a_first; i < a_last; ++i) roots_a.push_back(Find(i));
  for (int j = b_first; j < b_last; ++j) roots_b.push_back(Find(j));
  std::sort(roots_a.begin(), roots_a.end());
  std::sort(roots_b.begin(), roots_b.end());
  int count = 0;
  size_t x = 0, y = 0;
  while (x < roots_a.size() && y < roots_b.size()) {
    if (roots_a[x] < roots_b[y]) {
      ++x;
    } else if (roots_b[y] < roots_a[x]) {
      ++y;
    } else {
      int root = roots_a[x];
      size_t run_a = 0, run_b = 0;
      while (x < roots_a.size() && roots_a[x] == root) ++x, ++run_a;
      while (y < roots_b.size() && roots_b[y] == root) ++y, ++run_b;
      count += static_cast<int>(run_a * run_b);
    }
  }
  return count;
}

std::vector<AttributeClassEntry> EquivalenceMap::EntriesFor(
    const ObjectRef& object) const {
  auto [first, last] = IdRange(object);
  std::vector<AttributeClassEntry> out;
  out.reserve(last - first);
  for (int id = first; id < last; ++id) {
    out.push_back({entries_[id].path, min_id_[Find(id)] + 1});
  }
  return out;
}

std::vector<std::vector<int>> EquivalenceMap::NontrivialClassIndices() const {
  std::vector<std::vector<int>> out;
  for (int i = 0; i < static_cast<int>(entries_.size()); ++i) {
    if (parent_[i] != i || class_size_[i] < 2) continue;
    std::vector<int> ids;
    ids.reserve(class_size_[i]);
    AppendClassIds(i, ids);
    std::sort(ids.begin(), ids.end());
    out.push_back(std::move(ids));
  }
  // Class number order == smallest-member order, which is ids.front() after
  // the per-class sort.
  std::sort(out.begin(), out.end(),
            [](const std::vector<int>& x, const std::vector<int>& y) {
              return x.front() < y.front();
            });
  return out;
}

std::vector<std::vector<ecr::AttributePath>>
EquivalenceMap::NontrivialClasses() const {
  std::vector<std::vector<ecr::AttributePath>> out;
  for (const std::vector<int>& ids : NontrivialClassIndices()) {
    std::vector<ecr::AttributePath> members;
    members.reserve(ids.size());
    for (int id : ids) members.push_back(entries_[id].path);
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  return out;
}

std::vector<ecr::AttributePath> EquivalenceMap::ClassMembers(
    const ecr::AttributePath& path) const {
  std::vector<ecr::AttributePath> out;
  Result<int> index = IndexOf(path);
  if (!index.ok()) return out;
  int root = Find(*index);
  std::vector<int> ids;
  ids.reserve(class_size_[root]);
  AppendClassIds(root, ids);
  out.reserve(ids.size());
  for (int id : ids) out.push_back(entries_[id].path);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ecr::AttributePath> EquivalenceMap::AttributesOf(
    const ObjectRef& object) const {
  auto [first, last] = IdRange(object);
  std::vector<ecr::AttributePath> out;
  out.reserve(last - first);
  for (int id = first; id < last; ++id) out.push_back(entries_[id].path);
  return out;
}

}  // namespace ecrint::core
