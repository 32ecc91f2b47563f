#include "model.h"

#include <algorithm>

namespace perfbench {
namespace {

void Escape(const std::string& raw, bool attribute, std::string* out) {
  for (char c : raw) {
    switch (c) {
      case '&': *out += "&amp;"; break;
      case '<': *out += "&lt;"; break;
      case '>': *out += "&gt;"; break;
      case '"':
        if (attribute) {
          *out += "&quot;";
          break;
        }
        *out += c;
        break;
      default: *out += c;
    }
  }
}

void SerializeInto(const Node& node, std::string* out) {
  *out += '<';
  *out += node.name;
  for (const auto& [key, value] : node.attrs) {
    *out += ' ';
    *out += key;
    *out += "=\"";
    Escape(value, true, out);
    *out += '"';
  }
  if (node.text.empty() && node.children.empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  Escape(node.text, false, out);
  for (const Node& child : node.children) SerializeInto(child, out);
  *out += "</";
  *out += node.name;
  *out += '>';
}

void FlattenInto(const Node& node, int parent, int depth, NameTable* names,
                 FlatDoc* doc) {
  const int self = static_cast<int>(doc->name.size());
  doc->name.push_back(names->Intern(node.name));
  doc->parent.push_back(parent);
  doc->end.push_back(0);
  doc->depth.push_back(depth);
  std::vector<std::pair<int, std::string>> attrs;
  for (const auto& [key, value] : node.attrs) {
    attrs.emplace_back(names->Intern(key), value);
  }
  doc->attrs.push_back(std::move(attrs));
  doc->text.push_back(node.text);
  doc->events += 2 + node.attrs.size() + (node.text.empty() ? 0 : 1);
  for (const Node& child : node.children) {
    FlattenInto(child, self, depth + 1, names, doc);
  }
  doc->end[static_cast<size_t>(self)] = static_cast<int>(doc->name.size());
}

}  // namespace

std::string Serialize(const Node& root) {
  std::string out;
  SerializeInto(root, &out);
  return out;
}

int NameTable::Intern(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(ids_.size());
  ids_.emplace(name, id);
  return id;
}

int NameTable::Find(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? -2 : it->second;
}

std::string FlatDoc::StringValue(int i) const {
  std::string value;
  for (int j = i; j < end[static_cast<size_t>(i)]; ++j) {
    value += text[static_cast<size_t>(j)];
  }
  return value;
}

FlatDoc Flatten(const Node& root, NameTable* names) {
  FlatDoc doc;
  doc.events = 2;
  FlattenInto(root, -1, 0, names, &doc);
  return doc;
}

std::vector<std::string> SplitChunks(const std::string& xml, size_t pieces) {
  pieces = std::max<size_t>(1, std::min(pieces, xml.size()));
  std::vector<std::string> chunks;
  const size_t step = (xml.size() + pieces - 1) / pieces;
  for (size_t at = 0; at < xml.size(); at += step) {
    chunks.push_back(xml.substr(at, step));
  }
  return chunks;
}

}  // namespace perfbench
