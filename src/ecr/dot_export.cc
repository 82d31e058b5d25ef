#include "ecr/dot_export.h"

namespace ecrint::ecr {

namespace {

std::string EscapeLabel(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Built as char + string (an insert) rather than "o" + to_string(): GCC
// 12's -Wrestrict false-positives on operator+(const char*, string&&).
std::string ObjectNode(ObjectId id) { return 'o' + std::to_string(id); }
std::string RelNode(RelationshipId id) { return 'r' + std::to_string(id); }

}  // namespace

std::string ToDot(const Schema& schema) {
  std::string out = "graph \"" + EscapeLabel(schema.name()) + "\" {\n";
  out += "  graph [label=\"" + EscapeLabel(schema.name()) +
         "\", labelloc=t];\n";
  out += "  node [fontsize=10];\n";

  int attr_counter = 0;
  auto emit_attributes = [&](const std::string& owner_node,
                             const std::vector<Attribute>& attributes) {
    for (const Attribute& a : attributes) {
      std::string node = 'a' + std::to_string(attr_counter++);
      std::string label = EscapeLabel(a.name);
      if (a.is_key) label = "<<u>" + label + "</u>>";
      out += "  " + node + " [shape=ellipse, ";
      if (a.is_key) {
        out += "label=" + label;
      } else {
        out += "label=\"" + label + "\"";
      }
      out += "];\n";
      out += "  " + owner_node + " -- " + node + " [style=dotted];\n";
    }
  };

  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    const ObjectClass& object = schema.object(i);
    const char* shape =
        object.kind == ObjectKind::kEntitySet ? "box" : "box, peripheries=2";
    out += "  " + ObjectNode(i) + " [shape=" + shape + ", label=\"" +
           EscapeLabel(object.name) + "\"];\n";
    emit_attributes(ObjectNode(i), object.attributes);
  }
  for (ObjectId i = 0; i < schema.num_objects(); ++i) {
    for (ObjectId parent : schema.object(i).parents) {
      out += "  " + ObjectNode(parent) + " -- " + ObjectNode(i) +
             " [label=\"is-a\", dir=back];\n";
    }
  }
  for (RelationshipId i = 0; i < schema.num_relationships(); ++i) {
    const RelationshipSet& rel = schema.relationship(i);
    out += "  " + RelNode(i) + " [shape=diamond, label=\"" +
           EscapeLabel(rel.name) + "\"];\n";
    emit_attributes(RelNode(i), rel.attributes);
    for (const Participation& p : rel.participants) {
      std::string label = CardinalityToString(p.min_card, p.max_card);
      if (!p.role.empty()) label = p.role + " " + label;
      out += "  " + ObjectNode(p.object) + " -- " + RelNode(i) +
             " [label=\"" + EscapeLabel(label) + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace ecrint::ecr
