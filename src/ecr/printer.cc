#include "ecr/printer.h"

#include <string>

namespace ecrint::ecr {

namespace {

std::string ParticipantToString(const Schema& schema,
                                const Participation& p) {
  std::string out = schema.object(p.object).name;
  if (!p.role.empty()) out += " as " + p.role;
  out += ' ';
  out += CardinalityToString(p.min_card, p.max_card);
  return out;
}

template <typename Attrs>
void AppendAttributeBlock(const Attrs& attributes, std::string& out) {
  if (attributes.empty()) {
    out += ";\n";
    return;
  }
  out += " {\n";
  for (const Attribute& a : attributes) {
    out += "    " + AttributeToString(a) + ";\n";
  }
  out += "  }\n";
}

}  // namespace

std::string ToDdl(const Schema& schema) {
  std::string out = "schema " + schema.name() + " {\n";
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    const ObjectClass& object = schema.object(i);
    if (object.kind == ObjectKind::kEntitySet) {
      out += "  entity " + object.name;
    } else {
      out += "  category " + object.name + " of ";
      for (size_t j = 0; j < object.parents.size(); ++j) {
        if (j > 0) out += ", ";
        out += schema.object(object.parents[j]).name;
      }
    }
    AppendAttributeBlock(object.attributes, out);
  }
  for (RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const RelationshipSet& rel = schema.relationship(i);
    out += "  relationship " + rel.name + " (";
    for (size_t j = 0; j < rel.participants.size(); ++j) {
      if (j > 0) out += ", ";
      out += ParticipantToString(schema, rel.participants[j]);
    }
    out += ")";
    AppendAttributeBlock(rel.attributes, out);
  }
  out += "}\n";
  return out;
}

std::string ToOutline(const Schema& schema) {
  std::string out = "schema " + schema.name() + "\n";
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    const ObjectClass& object = schema.object(i);
    out += "  " + std::string(ObjectKindName(object.kind)) + " " +
           object.name;
    if (object.origin == ObjectOrigin::kEquivalent) out += "  (equivalent)";
    if (object.origin == ObjectOrigin::kDerived) out += "  (derived)";
    out += "\n";
    if (!object.parents.empty()) {
      out += "    is-a:";
      for (ObjectId parent : object.parents) {
        out += " " + schema.object(parent).name;
      }
      out += "\n";
    }
    for (const Attribute& a : object.attributes) {
      out += "    " + AttributeToString(a) + "\n";
    }
    // Show what a member actually carries, if inheritance adds anything.
    std::vector<Attribute> all = schema.InheritedAttributes(i);
    if (all.size() > object.attributes.size()) {
      out += "    inherited:";
      for (const Attribute& a : all) {
        bool own = false;
        for (const Attribute& mine : object.attributes) {
          own |= mine.name == a.name;
        }
        if (!own) out += " " + a.name;
      }
      out += "\n";
    }
  }
  for (RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const RelationshipSet& rel = schema.relationship(i);
    out += "  relationship " + rel.name;
    if (rel.origin == ObjectOrigin::kEquivalent) out += "  (equivalent)";
    if (rel.origin == ObjectOrigin::kDerived) out += "  (derived)";
    out += " (";
    for (size_t j = 0; j < rel.participants.size(); ++j) {
      if (j > 0) out += ", ";
      out += ParticipantToString(schema, rel.participants[j]);
    }
    out += ")\n";
    for (const Attribute& a : rel.attributes) {
      out += "    " + AttributeToString(a) + "\n";
    }
  }
  return out;
}

std::string Summarize(const Schema& schema) {
  int entities = 0;
  int categories = 0;
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    if (schema.object(i).kind == ObjectKind::kEntitySet) {
      ++entities;
    } else {
      ++categories;
    }
  }
  return schema.name() + ": " + std::to_string(entities) + " entities, " +
         std::to_string(categories) + " categories, " +
         std::to_string(schema.num_relationships()) + " relationships";
}

}  // namespace ecrint::ecr
