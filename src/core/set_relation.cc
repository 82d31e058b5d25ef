#include "core/set_relation.h"

namespace ecrint::core {

const char* SetRelationName(SetRelation relation) {
  switch (relation) {
    case SetRelation::kEqual: return "equal";
    case SetRelation::kSubset: return "subset";
    case SetRelation::kSuperset: return "superset";
    case SetRelation::kOverlap: return "overlap";
    case SetRelation::kDisjoint: return "disjoint";
  }
  return "?";
}

std::string RelationSetToString(RelationSet set) {
  static constexpr const char* kSymbols[kNumSetRelations] = {"=", "<", ">",
                                                             "><", "|"};
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < kNumSetRelations; ++i) {
    if (!(set & (1u << i))) continue;
    if (!first) out += ", ";
    out += kSymbols[i];
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace ecrint::core
