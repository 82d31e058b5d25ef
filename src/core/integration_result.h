#ifndef ECRINT_CORE_INTEGRATION_RESULT_H_
#define ECRINT_CORE_INTEGRATION_RESULT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "ecr/attribute.h"
#include "ecr/schema.h"
#include "core/object_ref.h"

namespace ecrint::core {

// A group of structures connected by integrating assertions — the paper's
// unit of integration work ("a cluster is a group of related objects that
// are connected by any assertion except disjoint nonintegrable").
struct Cluster {
  std::vector<ObjectRef> members;  // sorted
};

// Provenance of one structure in the integrated schema: the component
// structures that were merged into it (empty for D_-derived generalizations,
// which represent a new concept). Backs the tool's Equivalent Screen.
struct IntegratedStructureInfo {
  std::string name;
  StructureKind kind = StructureKind::kObjectClass;
  ecr::ObjectOrigin origin = ecr::ObjectOrigin::kComponent;
  std::vector<ObjectRef> sources;
};

// Provenance of one merged (derived) attribute: the component attributes it
// represents. Backs the tool's Component Attribute Screen (Screens 12a/b).
struct DerivedAttributeInfo {
  std::string owner;  // integrated structure name the attribute lives on
  std::string name;
  std::vector<ecr::AttributePath> components;
};

// Where one component attribute went: the integrated structure that carries
// its representative attribute (which may sit on a generalization of the
// component structure's counterpart) and that attribute's name.
struct AttributeMapping {
  std::string source_attribute;
  std::string target_owner;
  std::string target_attribute;
};

// How one component structure maps into the integrated schema. Requests
// against the component schema are rewritten onto `target`; requests against
// the integrated schema reach this component via ComponentExtent().
struct StructureMapping {
  ObjectRef source;
  StructureKind kind = StructureKind::kObjectClass;
  std::string target;
  std::vector<AttributeMapping> attributes;
};

// Everything phase 4 produces: the integrated schema plus the bookkeeping
// the paper's viewing screens and request-translation mappings need.
struct IntegrationResult {
  ecr::Schema schema;
  std::vector<Cluster> object_clusters;
  std::vector<Cluster> relationship_clusters;
  std::vector<IntegratedStructureInfo> structures;
  std::vector<DerivedAttributeInfo> derived_attributes;
  std::vector<StructureMapping> mappings;

  // Provenance lookup by integrated structure name.
  const IntegratedStructureInfo* FindStructure(const std::string& name) const;

  // Derived-attribute provenance, or nullptr if `name` on `owner` is not a
  // merged attribute.
  const DerivedAttributeInfo* FindDerivedAttribute(
      const std::string& owner, const std::string& name) const;

  // The integrated structure a component structure maps to.
  Result<const StructureMapping*> MappingFor(const ObjectRef& source) const;

  // All component structures whose instances populate the named integrated
  // object class: its own sources plus those of all its descendants in the
  // IS-A lattice. For a D_ generalization this is the union of its
  // categories' extents — the set of component classes a federated query
  // against it must visit.
  std::vector<ObjectRef> ComponentExtent(const std::string& name) const;
};

}  // namespace ecrint::core

#endif  // ECRINT_CORE_INTEGRATION_RESULT_H_
