#include "oracle.h"

#include <cctype>

namespace perfbench {
namespace {

class QueryParser {
 public:
  QueryParser(const std::string& text, const NameTable& names)
      : text_(text), names_(names) {}

  bool Parse(OracleQuery* out, std::string* error) {
    if (!Peek('/')) return Fail("query must start with '/'", error);
    while (pos_ < text_.size()) {
      OracleQuery::Step step;
      if (!Axis(&step.test.descendant) || !Test(&step.test)) {
        return Fail("expected a step", error);
      }
      if (Eat('[')) {
        do {
          OracleAtom atom;
          if (!Atom(&atom)) return Fail("bad predicate", error);
          step.preds.push_back(std::move(atom));
        } while (EatWord(" and "));
        if (!Eat(']')) return Fail("expected ']'", error);
      }
      out->steps.push_back(std::move(step));
    }
    return true;
  }

 private:
  bool Fail(const char* what, std::string* error) {
    *error = std::string(what) + " at offset " + std::to_string(pos_) +
             " of " + text_;
    return false;
  }
  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool Eat(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }
  bool EatWord(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  bool Axis(bool* descendant) {
    if (!Eat('/')) return false;
    *descendant = Eat('/');
    return true;
  }
  bool Name(std::string* name) {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == '.')) {
      ++pos_;
    }
    if (pos_ == start || !std::isalpha(static_cast<unsigned char>(text_[start]))) {
      return false;
    }
    *name = text_.substr(start, pos_ - start);
    return true;
  }
  bool Test(OracleStep* step) {
    if (Eat('*')) {
      step->name = "*";
      step->id = -1;
      return true;
    }
    if (!Name(&step->name)) return false;
    step->id = names_.Find(step->name);
    return true;
  }
  bool Literal(std::string* value) {
    if (!Eat('"')) return false;
    const size_t close = text_.find('"', pos_);
    if (close == std::string::npos) return false;
    *value = text_.substr(pos_, close - pos_);
    pos_ = close + 1;
    return true;
  }
  bool Atom(OracleAtom* atom) {
    if (Eat('@')) {
      atom->attribute = true;
      OracleStep step;
      if (!Name(&step.name)) return false;
      step.id = names_.Find(step.name);
      atom->path.push_back(step);
    } else {
      OracleStep first;
      if (!Test(&first)) return false;
      atom->path.push_back(first);
      while (Peek('/')) {
        OracleStep step;
        if (!Axis(&step.descendant) || !Test(&step)) return false;
        atom->path.push_back(step);
      }
    }
    if (EatWord(" = ")) {
      atom->has_value = true;
      return Literal(&atom->value);
    }
    return true;
  }

  const std::string& text_;
  const NameTable& names_;
  size_t pos_ = 0;
};

bool NameMatches(const OracleStep& step, int name) {
  return step.id == -1 || step.id == name;
}

/// Whether some element reached from `v` along atom.path[k..] ends the
/// path (with the required string value, if any).
bool PathReaches(const OracleAtom& atom, const FlatDoc& doc, int v, size_t k) {
  const OracleStep& step = atom.path[k];
  const size_t sv = static_cast<size_t>(v);
  for (int w = v + 1; w < doc.end[sv];) {
    const size_t sw = static_cast<size_t>(w);
    const bool on_axis = step.descendant || doc.depth[sw] == doc.depth[sv] + 1;
    if (on_axis && NameMatches(step, doc.name[sw])) {
      const bool last = k + 1 == atom.path.size();
      if (last ? (!atom.has_value || doc.StringValue(w) == atom.value)
               : PathReaches(atom, doc, w, k + 1)) {
        return true;
      }
    }
    w = step.descendant ? w + 1 : doc.end[sw];  // child axis: next sibling
  }
  return false;
}

bool AtomHolds(const OracleAtom& atom, const FlatDoc& doc, int v) {
  if (!atom.attribute) return PathReaches(atom, doc, v, 0);
  for (const auto& [key, value] : doc.attrs[static_cast<size_t>(v)]) {
    if (key == atom.path[0].id && (!atom.has_value || value == atom.value)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ParseOracleQuery(const std::string& text, const NameTable& names,
                      OracleQuery* out, std::string* error) {
  return QueryParser(text, names).Parse(out, error);
}

bool Evaluate(const OracleQuery& query, const FlatDoc& doc) {
  const size_t n = doc.size();
  // ctx[v]: v is selected by the steps so far; the document node (the
  // parent of the root element) is the context of step 0.
  std::vector<char> ctx(n, 0), next(n, 0), below(n, 0);
  for (size_t i = 0; i < query.steps.size(); ++i) {
    const OracleQuery::Step& step = query.steps[i];
    bool any = false;
    for (size_t v = 0; v < n; ++v) {
      const int p = doc.parent[v];
      const bool parent_in = p < 0 ? i == 0 : ctx[static_cast<size_t>(p)] != 0;
      bool reach = parent_in;
      if (step.test.descendant) {
        below[v] = parent_in || (p >= 0 && below[static_cast<size_t>(p)]);
        reach = below[v] != 0;
      }
      bool selected = reach && NameMatches(step.test, doc.name[v]);
      for (size_t a = 0; selected && a < step.preds.size(); ++a) {
        selected = AtomHolds(step.preds[a], doc, static_cast<int>(v));
      }
      next[v] = selected ? 1 : 0;
      any = any || selected;
    }
    if (!any) return false;
    ctx.swap(next);
  }
  return true;
}

namespace {

Node E(std::string name, std::vector<Node> children = {},
       std::string text = "",
       std::vector<std::pair<std::string, std::string>> attrs = {}) {
  Node node;
  node.name = std::move(name);
  node.children = std::move(children);
  node.text = std::move(text);
  node.attrs = std::move(attrs);
  return node;
}

}  // namespace

std::string OracleSelfTest() {
  // <lib><book id="1" lang="en"><title>XML</title><price>30</price>
  //   <author><name>Ann</name></author></book>
  //  <book id="2"><title>DB</title><sec><sec><title>deep</title></sec>
  //   </sec></book><mag><title>News</title></mag></lib>
  const Node lib = E(
      "lib",
      {E("book",
         {E("title", {}, "XML"), E("price", {}, "30"),
          E("author", {E("name", {}, "Ann")})},
         "", {{"id", "1"}, {"lang", "en"}}),
       E("book",
         {E("title", {}, "DB"), E("sec", {E("sec", {E("title", {}, "deep")})})},
         "", {{"id", "2"}}),
       E("mag", {E("title", {}, "News")})});
  // <a><b>x<c>y</c></b><b><d/></b></a>
  const Node ab = E("a", {E("b", {E("c", {}, "y")}, "x"), E("b", {E("d")})});

  struct Case {
    const Node* doc;
    const char* query;
    bool expected;
  };
  const Case cases[] = {
      {&lib, "/lib", true},
      {&lib, "/book", false},
      {&lib, "//book", true},
      {&lib, "/lib/book/title", true},
      {&lib, "/lib/title", false},
      {&lib, "/lib//title", true},
      {&lib, "/lib/*/title", true},
      {&lib, "/*/*/*/name", true},
      {&lib, "/*/*/name", false},
      {&lib, "//book[@lang]", true},
      {&lib, "//book[@lang = \"de\"]", false},
      {&lib, "//book[@id = \"2\" and title = \"DB\"]", true},
      {&lib, "//book[@id = \"1\" and title = \"DB\"]", false},
      {&lib, "//book[author/name = \"Ann\"]/price", true},
      {&lib, "//book[author//name]/sec", false},
      {&lib, "//book[sec//title = \"deep\"]", true},
      {&lib, "//book[sec/title = \"deep\"]", false},
      {&lib, "//sec/sec/title", true},
      {&lib, "//sec[title]//title", true},
      {&lib, "/lib/book[author = \"Ann\"]", true},
      {&lib, "/lib[mag = \"News\"]", true},
      {&lib, "//title[@id]", false},
      {&lib, "//nosuch", false},
      {&lib, "/lib//*[@lang = \"en\"]/price", true},
      {&lib, "//book[title = \"XM\"]", false},
      {&lib, "/lib/mag[title]/title", true},
      {&lib, "//*[@id = \"2\"]//sec/title", true},
      {&lib, "//*[@id = \"1\"]//sec", false},
      {&ab, "/a[b = \"xy\"]", true},
      {&ab, "/a[b = \"x\"]", false},
      {&ab, "//b[d]//*", true},
      {&ab, "//c/*", false},
      {&ab, "//a//a", false},
      {&ab, "/a/b/c", true},
      {&ab, "/a[b/c = \"y\" and b/d]", true},
      {&ab, "/a/b[c and d]", false},
  };
  std::string failures;
  for (const Case& c : cases) {
    NameTable names;
    const FlatDoc doc = Flatten(*c.doc, &names);
    OracleQuery query;
    std::string error;
    if (!ParseOracleQuery(c.query, names, &query, &error)) {
      failures += "parse: " + error + "\n";
    } else if (Evaluate(query, doc) != c.expected) {
      failures += std::string("verdict: ") + c.query + "\n";
    }
  }
  // The serializer must escape what the generators put in values.
  const std::string xml =
      Serialize(E("r", {}, "a<b&c>", {{"k", "\"q\"&<"}}));
  if (xml != "<r k=\"&quot;q&quot;&amp;&lt;\">a&lt;b&amp;c&gt;</r>") {
    failures += "serialize: " + xml + "\n";
  }
  return failures;
}

}  // namespace perfbench
