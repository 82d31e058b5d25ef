#include "core/resemblance.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ecrint::core {

namespace {

// Structures of one kind with their own-attribute counts.
std::vector<std::pair<ObjectRef, int>> StructuresOf(const ecr::Schema& schema,
                                                    StructureKind kind) {
  std::vector<std::pair<ObjectRef, int>> out;
  if (kind == StructureKind::kObjectClass) {
    for (ecr::ObjectId i = 0; i < schema.num_objects(); ++i) {
      const ecr::ObjectClass& object = schema.object(i);
      out.push_back({{schema.name(), object.name},
                     static_cast<int>(object.attributes.size())});
    }
  } else {
    for (ecr::RelationshipId i = 0; i < schema.num_relationships(); ++i) {
      const ecr::RelationshipSet& rel = schema.relationship(i);
      out.push_back({{schema.name(), rel.name},
                     static_cast<int>(rel.attributes.size())});
    }
  }
  return out;
}

// Appends a unit count for `index` to a small (index, count) accumulator.
void Bump(std::vector<std::pair<int, int>>& hits, int index) {
  for (auto& [i, count] : hits) {
    if (i == index) {
      ++count;
      return;
    }
  }
  hits.emplace_back(index, 1);
}

}  // namespace

Result<OcsMatrix> OcsMatrix::Create(const ecr::Catalog& catalog,
                                    const EquivalenceMap& equivalence,
                                    const std::string& schema1,
                                    const std::string& schema2,
                                    StructureKind kind) {
  ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* s1, catalog.GetSchema(schema1));
  ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* s2, catalog.GetSchema(schema2));
  if (schema1 == schema2) {
    return InvalidArgumentError(
        "OCS matrix needs two distinct schemas, got '" + schema1 + "' twice");
  }
  OcsMatrix matrix;
  std::unordered_map<ObjectRef, int, ObjectRefHash> row_index;
  std::unordered_map<ObjectRef, int, ObjectRefHash> column_index;
  for (auto& [ref, count] : StructuresOf(*s1, kind)) {
    row_index.emplace(ref, static_cast<int>(matrix.rows_.size()));
    matrix.rows_.push_back(ref);
    matrix.row_attribute_counts_.push_back(count);
  }
  for (auto& [ref, count] : StructuresOf(*s2, kind)) {
    column_index.emplace(ref, static_cast<int>(matrix.columns_.size()));
    matrix.columns_.push_back(ref);
    matrix.column_attribute_counts_.push_back(count);
  }
  int columns = static_cast<int>(matrix.columns_.size());
  matrix.counts_.assign(matrix.rows_.size() * matrix.columns_.size(), 0);

  // Only a class with members on both sides can make a cell nonzero, so
  // instead of probing every (row, column) pair, walk the nontrivial
  // classes once and scatter each class's per-structure member counts: a
  // class with k_r members in row structure r and k_c in column structure c
  // contributes k_r * k_c equivalent pairs to that cell.
  std::vector<std::pair<int, int>> row_hits;     // (row index, members)
  std::vector<std::pair<int, int>> column_hits;  // (column index, members)
  for (const std::vector<int>& members : equivalence.NontrivialClassIndices()) {
    row_hits.clear();
    column_hits.clear();
    for (int id : members) {
      ObjectRef ref = equivalence.ObjectAt(id);
      auto rit = row_index.find(ref);
      if (rit != row_index.end()) {
        Bump(row_hits, rit->second);
        continue;  // schemas are distinct; a structure is on one side only
      }
      auto cit = column_index.find(ref);
      if (cit != column_index.end()) Bump(column_hits, cit->second);
    }
    for (auto& [r, kr] : row_hits) {
      for (auto& [c, kc] : column_hits) {
        matrix.counts_[static_cast<size_t>(r) * columns + c] += kr * kc;
      }
    }
  }
  return matrix;
}

std::vector<ObjectPair> OcsMatrix::CollectPairs(bool include_zero) const {
  int rows = static_cast<int>(rows_.size());
  int columns = static_cast<int>(columns_.size());
  std::vector<ObjectPair> pairs;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < columns; ++c) {
      int eq = Count(r, c);
      if (eq == 0 && !include_zero) continue;
      ObjectPair pair;
      pair.first = rows_[r];
      pair.second = columns_[c];
      pair.equivalent_attributes = eq;
      pair.smaller_attribute_count =
          std::min(row_attribute_counts_[r], column_attribute_counts_[c]);
      int denominator = eq + pair.smaller_attribute_count;
      pair.attribute_ratio =
          denominator == 0 ? 0.0 : static_cast<double>(eq) / denominator;
      pairs.push_back(pair);
    }
  }
  return pairs;
}

namespace {

// Strict total order: ratio desc, then names, so sorts are deterministic
// and any k-prefix is unambiguous. A functor (not a function pointer) so
// std::sort / std::partial_sort inline the comparison.
struct PairBefore {
  bool operator()(const ObjectPair& a, const ObjectPair& b) const {
    if (a.attribute_ratio != b.attribute_ratio) {
      return a.attribute_ratio > b.attribute_ratio;
    }
    // Ties in name order, matching the paper's Screen 8 (the equal-ratio
    // Department and Student pairs list Department first).
    if (!(a.first == b.first)) return a.first < b.first;
    return a.second < b.second;
  }
};

}  // namespace

std::vector<ObjectPair> OcsMatrix::RankedPairs(bool include_zero) const {
  std::vector<ObjectPair> pairs = CollectPairs(include_zero);
  std::sort(pairs.begin(), pairs.end(), PairBefore{});
  return pairs;
}

std::vector<ObjectPair> OcsMatrix::TopKPairs(int k, bool include_zero) const {
  if (k <= 0) return {};
  std::vector<ObjectPair> pairs = CollectPairs(include_zero);
  if (static_cast<size_t>(k) >= pairs.size()) {
    std::sort(pairs.begin(), pairs.end(), PairBefore{});
    return pairs;
  }
  std::partial_sort(pairs.begin(), pairs.begin() + k, pairs.end(),
                    PairBefore{});
  pairs.resize(k);
  return pairs;
}

Result<std::vector<ObjectPair>> RankObjectPairs(
    const ecr::Catalog& catalog, const EquivalenceMap& equivalence,
    const std::string& schema1, const std::string& schema2,
    StructureKind kind, bool include_zero) {
  ECRINT_ASSIGN_OR_RETURN(
      OcsMatrix matrix,
      OcsMatrix::Create(catalog, equivalence, schema1, schema2, kind));
  return matrix.RankedPairs(include_zero);
}

}  // namespace ecrint::core
