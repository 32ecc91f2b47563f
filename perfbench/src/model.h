// The benchmark's own document model: a seeded PRNG, an element tree
// that the generators build and the oracle evaluates, and its XML
// serialization. Nothing here links against xpstream, so a change to
// the library cannot change what the benchmark feeds it or expects back.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }
  size_t Between(size_t lo, size_t hi) { return lo + Below(hi - lo + 1); }
  bool Chance(double p) {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0) < p;
  }

 private:
  uint64_t state_;
};

/// One element. Character data sits before the first child element, so
/// an element's string value is its own text followed by its children's
/// string values.
struct Node {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attrs;
  std::string text;
  std::vector<Node> children;
};

/// Serializes with no whitespace between tags; text and attribute values
/// are escaped, childless text-free elements use the empty-tag form.
std::string Serialize(const Node& root);

/// Interns element and attribute names to small ints for the oracle.
class NameTable {
 public:
  int Intern(const std::string& name);
  /// -2 for a name no document contains: such a test never matches.
  int Find(const std::string& name) const;

 private:
  std::unordered_map<std::string, int> ids_;
};

/// A document flattened into preorder arrays: element i's descendants
/// are exactly the elements (i, end[i]).
struct FlatDoc {
  std::vector<int> name;
  std::vector<int> parent;  // -1 for the root element
  std::vector<int> end;
  std::vector<int> depth;   // root = 0
  std::vector<std::vector<std::pair<int, std::string>>> attrs;
  std::vector<std::string> text;
  /// SAX events the document yields with every text node whole:
  /// start/end document, start/end element, one per attribute, one per
  /// non-empty text.
  size_t events = 0;

  size_t size() const { return name.size(); }
  /// Concatenated text of element i and its descendants, document order.
  std::string StringValue(int i) const;
};

FlatDoc Flatten(const Node& root, NameTable* names);

/// Splits `xml` into `pieces` chunks of near-equal size (at least one).
std::vector<std::string> SplitChunks(const std::string& xml, size_t pieces);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
