#include "core/assertion.h"

namespace ecrint::core {

const char* AssertionTypeName(AssertionType type) {
  switch (type) {
    case AssertionType::kDisjointNonintegrable:
      return "are disjoint & non-integratable";
    case AssertionType::kEquals:
      return "equals";
    case AssertionType::kContainedIn:
      return "contained in";
    case AssertionType::kContains:
      return "contains";
    case AssertionType::kDisjointIntegrable:
      return "are disjoint but integratable";
    case AssertionType::kMayBe:
      return "may be integratable";
  }
  return "?";
}

int AssertionTypeCode(AssertionType type) { return static_cast<int>(type); }

Result<AssertionType> AssertionTypeFromCode(int code) {
  if (code < 0 || code > 5) {
    return InvalidArgumentError("assertion code must be 0-5, got " +
                                std::to_string(code));
  }
  return static_cast<AssertionType>(code);
}

SetRelation RelationOf(AssertionType type) {
  switch (type) {
    case AssertionType::kEquals:
      return SetRelation::kEqual;
    case AssertionType::kContainedIn:
      return SetRelation::kSubset;
    case AssertionType::kContains:
      return SetRelation::kSuperset;
    case AssertionType::kMayBe:
      return SetRelation::kOverlap;
    case AssertionType::kDisjointIntegrable:
    case AssertionType::kDisjointNonintegrable:
      return SetRelation::kDisjoint;
  }
  return SetRelation::kDisjoint;
}

AssertionType ConverseAssertion(AssertionType type) {
  switch (type) {
    case AssertionType::kContainedIn:
      return AssertionType::kContains;
    case AssertionType::kContains:
      return AssertionType::kContainedIn;
    default:
      return type;
  }
}

std::string Assertion::ToString() const {
  return first.ToString() + " " + AssertionTypeName(type) + " " +
         second.ToString();
}

}  // namespace ecrint::core
