#ifndef ECRINT_CORE_ASSERTION_H_
#define ECRINT_CORE_ASSERTION_H_

#include <string>

#include "common/result.h"
#include "core/object_ref.h"
#include "core/set_relation.h"

namespace ecrint::core {

// The five assertions of the paper (Section 2), with the numeric codes of
// the tool's assertion menu (Screens 8 and 9). kDisjointNonintegrable ("0")
// records that two disjoint classes should NOT be generalized together;
// kDisjointIntegrable ("4") asks for a derived generalization.
enum class AssertionType {
  kDisjointNonintegrable = 0,
  kEquals = 1,
  kContainedIn = 2,
  kContains = 3,
  kDisjointIntegrable = 4,
  kMayBe = 5,  // overlapping domains, neither containing the other
};

// Menu text as printed at the bottom of Screens 8/9.
const char* AssertionTypeName(AssertionType type);

// Menu code (0-5). Round-trips with AssertionTypeFromCode.
int AssertionTypeCode(AssertionType type);
Result<AssertionType> AssertionTypeFromCode(int code);

// The domain relation an assertion states.
SetRelation RelationOf(AssertionType type);

// Whether the assertion connects its pair into one integration cluster
// (everything except disjoint-nonintegrable does).
inline bool IsIntegrating(AssertionType type) {
  return type != AssertionType::kDisjointNonintegrable;
}

// The same assertion viewed from the other side (contains <-> contained-in).
AssertionType ConverseAssertion(AssertionType type);

// A DDA-specified assertion between two structures of different schemas.
struct Assertion {
  ObjectRef first;
  ObjectRef second;
  AssertionType type = AssertionType::kDisjointNonintegrable;

  std::string ToString() const;

  friend bool operator==(const Assertion& a, const Assertion& b) {
    return a.first == b.first && a.second == b.second && a.type == b.type;
  }
};

}  // namespace ecrint::core

#endif  // ECRINT_CORE_ASSERTION_H_
