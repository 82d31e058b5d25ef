#include "core/attribute_equivalence.h"

namespace ecrint::core {

const char* AttributeRelationName(AttributeRelation relation) {
  switch (relation) {
    case AttributeRelation::kEqual: return "equal";
    case AttributeRelation::kContains: return "contains";
    case AttributeRelation::kContainedIn: return "contained-in";
    case AttributeRelation::kOverlap: return "overlap";
    case AttributeRelation::kDisjoint: return "disjoint";
  }
  return "?";
}

AttributeRelation ClassifyAttributeCorrespondence(const ecr::Attribute& a,
                                                  const ecr::Attribute& b) {
  switch (a.domain.Compare(b.domain)) {
    case ecr::DomainRelation::kEqual: return AttributeRelation::kEqual;
    case ecr::DomainRelation::kContains: return AttributeRelation::kContains;
    case ecr::DomainRelation::kContainedIn:
      return AttributeRelation::kContainedIn;
    case ecr::DomainRelation::kOverlap: return AttributeRelation::kOverlap;
    case ecr::DomainRelation::kDisjoint: return AttributeRelation::kDisjoint;
  }
  return AttributeRelation::kDisjoint;
}

RelationSet ObjectRelationBound(AttributeRelation key_relation,
                                DomainInterpretation interpretation) {
  if (interpretation == DomainInterpretation::kDeclared) {
    // Declared domains only bound values; the single provable consequence
    // is that members identified from disjoint key spaces cannot coincide.
    return key_relation == AttributeRelation::kDisjoint
               ? MaskOf(SetRelation::kDisjoint)
               : kAnyRelation;
  }
  // Closed world: the object extension is in 1-1 correspondence with its
  // key-domain values, so extensions relate exactly as the key domains do.
  switch (key_relation) {
    case AttributeRelation::kEqual: return MaskOf(SetRelation::kEqual);
    case AttributeRelation::kContains: return MaskOf(SetRelation::kSuperset);
    case AttributeRelation::kContainedIn:
      return MaskOf(SetRelation::kSubset);
    case AttributeRelation::kOverlap: return MaskOf(SetRelation::kOverlap);
    case AttributeRelation::kDisjoint:
      return MaskOf(SetRelation::kDisjoint);
  }
  return kAnyRelation;
}

std::vector<AssertionType> CompatibleAssertions(RelationSet bound) {
  std::vector<AssertionType> out;
  if (Contains(bound, SetRelation::kEqual)) {
    out.push_back(AssertionType::kEquals);
  }
  if (Contains(bound, SetRelation::kSubset)) {
    out.push_back(AssertionType::kContainedIn);
  }
  if (Contains(bound, SetRelation::kSuperset)) {
    out.push_back(AssertionType::kContains);
  }
  if (Contains(bound, SetRelation::kDisjoint)) {
    out.push_back(AssertionType::kDisjointIntegrable);
  }
  if (Contains(bound, SetRelation::kOverlap)) {
    out.push_back(AssertionType::kMayBe);
  }
  if (Contains(bound, SetRelation::kDisjoint)) {
    out.push_back(AssertionType::kDisjointNonintegrable);
  }
  return out;
}

std::string AssertionHint::ToString() const {
  std::string out = first.ToString() + " / " + second.ToString() +
                    ": key domains " +
                    AttributeRelationName(key_relation) +
                    ", possible object relations " +
                    RelationSetToString(bound) + ", menu codes";
  for (AssertionType type : compatible) {
    out += ' ';
    out += std::to_string(AssertionTypeCode(type));
  }
  return out;
}

Result<std::vector<AssertionHint>> HintAssertions(
    const ecr::Catalog& catalog, const EquivalenceMap& equivalence,
    const std::string& schema1, const std::string& schema2,
    DomainInterpretation interpretation) {
  ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* s1, catalog.GetSchema(schema1));
  ECRINT_ASSIGN_OR_RETURN(const ecr::Schema* s2, catalog.GetSchema(schema2));
  ECRINT_ASSIGN_OR_RETURN(
      std::vector<ObjectPair> ranked,
      RankObjectPairs(catalog, equivalence, schema1, schema2,
                      StructureKind::kObjectClass));

  auto key_attribute =
      [](const ecr::Schema& schema,
         const std::string& object) -> const ecr::Attribute* {
    ecr::ObjectId id = schema.FindObject(object);
    if (id == ecr::kNoObject) return nullptr;
    for (const ecr::Attribute& a : schema.object(id).attributes) {
      if (a.is_key) return &a;
    }
    return nullptr;
  };

  std::vector<AssertionHint> hints;
  for (const ObjectPair& pair : ranked) {
    const ecr::Attribute* key1 = key_attribute(*s1, pair.first.object);
    const ecr::Attribute* key2 = key_attribute(*s2, pair.second.object);
    if (key1 == nullptr || key2 == nullptr) continue;
    if (!equivalence.AreEquivalent(
            {pair.first.schema, pair.first.object, key1->name},
            {pair.second.schema, pair.second.object, key2->name})) {
      continue;
    }
    AssertionHint hint;
    hint.first = pair.first;
    hint.second = pair.second;
    hint.key_relation = ClassifyAttributeCorrespondence(*key1, *key2);
    hint.bound = ObjectRelationBound(hint.key_relation, interpretation);
    hint.compatible = CompatibleAssertions(hint.bound);
    hints.push_back(std::move(hint));
  }
  return hints;
}

}  // namespace ecrint::core
