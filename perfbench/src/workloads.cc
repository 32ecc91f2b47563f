#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "oracle.h"

namespace perfbench {
namespace {

const char* const kWords[] = {
    "alpha", "bravo",  "cedar", "delta", "ember", "fjord", "gamma", "harbor",
    "ivory", "jasper", "koala", "lumen", "maple", "nectar", "onyx", "pixel",
    "quartz", "raven", "sable", "tundra", "umber", "violet", "willow", "zephyr"};
constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);

std::string Word(Rng& rng) { return kWords[rng.Below(kNumWords)]; }

std::string Words(Rng& rng, size_t n) {
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) text += ' ';
    text += Word(rng);
  }
  return text;
}

std::string Alnum(Rng& rng, size_t n) {
  static const char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string s;
  for (size_t i = 0; i < n; ++i) s += kChars[rng.Below(36)];
  return s;
}

Node Leaf(std::string name, std::string text) {
  Node node;
  node.name = std::move(name);
  node.text = std::move(text);
  return node;
}

// ---------------------------------------------------------------------------
// Query generation: every query is drawn from a real root-to-element
// path of one of the workload's documents, then generalized (steps
// skipped behind '//', names replaced by '*') and optionally given
// predicates read off the path's elements. Unperturbed, a query
// therefore matches the document it was drawn from; perturbed values
// and swapped names make misses.

struct Located {
  const Node* node;
  int parent;  // index into the Located vector, -1 for the root
};

void Locate(const Node& node, int parent, std::vector<Located>* out) {
  const int self = static_cast<int>(out->size());
  out->push_back({&node, parent});
  for (const Node& child : node.children) Locate(child, self, out);
}

struct QueryShape {
  double skip = 0.25;       // drop an ancestor behind '//'
  double wildcard = 0.12;   // name test -> '*'
  double pred_last = 0.0;   // predicates on the final step
  double pred_inner = 0.0;  // predicates on an inner step
  double perturb = 0.3;     // a predicate value that (likely) misses
  double swap = 0.0;        // swap one step's name for another pool name
  const std::vector<std::string>* swap_pool = nullptr;
  size_t min_depth = 1;
};

std::string Predicates(Rng& rng, const Node& e, const QueryShape& shape) {
  std::vector<std::string> atoms;
  // Attribute atoms.
  if (!e.attrs.empty()) {
    const auto& [key, value] = e.attrs[rng.Below(e.attrs.size())];
    if (rng.Chance(0.35)) {
      atoms.push_back("@" + key);
    } else {
      const std::string v = rng.Chance(shape.perturb) ? "q" + Alnum(rng, 3) : value;
      atoms.push_back("@" + key + " = \"" + v + "\"");
    }
  }
  // Text-value and relative-path atoms from the children.
  if (!e.children.empty()) {
    const Node& child = e.children[rng.Below(e.children.size())];
    if (child.children.empty() && !child.text.empty() && rng.Chance(0.6)) {
      const std::string v = rng.Chance(shape.perturb) ? Word(rng) : child.text;
      atoms.push_back(child.name + " = \"" + v + "\"");
    } else if (!child.children.empty() && rng.Chance(0.7)) {
      const Node& grand = child.children[rng.Below(child.children.size())];
      atoms.push_back(child.name + (rng.Chance(0.3) ? "//" : "/") + grand.name);
    } else {
      atoms.push_back(child.name);
    }
  }
  if (atoms.empty()) return "";
  if (atoms.size() == 2 && rng.Chance(0.5)) {
    atoms.erase(atoms.begin() + static_cast<long>(rng.Below(2)));
  }
  std::string text = "[";
  for (size_t i = 0; i < atoms.size(); ++i) {
    if (i > 0) text += " and ";
    text += atoms[i];
  }
  return text + "]";
}

std::string PathQuery(Rng& rng, const std::vector<Located>& nodes,
                      const QueryShape& shape) {
  size_t pick = 0;
  std::vector<const Node*> chain;
  for (int attempt = 0; attempt < 64; ++attempt) {
    pick = rng.Below(nodes.size());
    chain.clear();
    for (int i = static_cast<int>(pick); i >= 0; i = nodes[static_cast<size_t>(i)].parent) {
      chain.push_back(nodes[static_cast<size_t>(i)].node);
    }
    if (chain.size() > shape.min_depth) break;
  }
  std::reverse(chain.begin(), chain.end());
  const size_t last = chain.size() - 1;
  const size_t swap_at =
      shape.swap_pool != nullptr && rng.Chance(shape.swap) ? rng.Below(chain.size())
                                                           : chain.size();
  std::string text;
  bool descendant = false;
  for (size_t j = 0; j <= last; ++j) {
    if (j < last && j != swap_at && rng.Chance(shape.skip)) {
      descendant = true;
      continue;
    }
    text += descendant ? "//" : "/";
    descendant = false;
    std::string name = chain[j]->name;
    if (j == swap_at) {
      name = (*shape.swap_pool)[rng.Below(shape.swap_pool->size())];
    }
    if (j != swap_at && j < last && rng.Chance(shape.wildcard)) {
      text += "*";
    } else {
      text += name;
    }
    const double p = j == last ? shape.pred_last : shape.pred_inner;
    if (p > 0 && rng.Chance(p)) text += Predicates(rng, *chain[j], shape);
  }
  return text;
}

/// Draws `count` distinct queries.
std::vector<std::string> DistinctQueries(Rng& rng, const std::vector<Node>& trees,
                                         size_t count, const QueryShape& shape,
                                         const QueryShape* twig = nullptr,
                                         double twig_share = 0.0) {
  std::vector<std::vector<Located>> located(trees.size());
  for (size_t i = 0; i < trees.size(); ++i) Locate(trees[i], -1, &located[i]);
  std::vector<std::string> out;
  std::set<std::string> seen;
  while (out.size() < count) {
    const auto& nodes = located[rng.Below(located.size())];
    const bool use_twig = twig != nullptr && rng.Chance(twig_share);
    std::string q = PathQuery(rng, nodes, use_twig ? *twig : shape);
    if (use_twig && q.find('[') == std::string::npos) continue;
    if (seen.insert(q).second) out.push_back(std::move(q));
  }
  return out;
}

/// Appends `fixed` to `queries` (skipping texts already drawn); returns
/// their indices.
std::vector<size_t> AddFixed(const std::vector<std::string>& fixed,
                             std::vector<std::string>* queries) {
  std::vector<size_t> out;
  for (const std::string& q : fixed) {
    auto it = std::find(queries->begin(), queries->end(), q);
    out.push_back(static_cast<size_t>(it - queries->begin()));
    if (it == queries->end()) queries->push_back(q);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Document generators.

/// frontier_dissem: recursive report sections with items.
Node ReportSection(Rng& rng, int depth, size_t* serial) {
  static const char* const kKinds[] = {"intro", "body", "annex", "note"};
  Node sec;
  sec.name = "sec";
  sec.attrs = {{"id", "s" + std::to_string((*serial)++)},
               {"kind", kKinds[rng.Below(4)]}};
  sec.children.push_back(Leaf("title", Word(rng)));
  for (size_t i = rng.Below(3); i > 0; --i) {
    sec.children.push_back(Leaf("p", Words(rng, rng.Between(3, 8))));
  }
  if (rng.Chance(0.5)) {
    static const char* const kCats[] = {"x", "y", "z", "w"};
    Node list;
    list.name = "list";
    for (size_t i = rng.Between(1, 3); i > 0; --i) {
      Node item;
      item.name = "item";
      item.attrs = {{"id", "i" + std::to_string(rng.Below(40))},
                    {"cat", kCats[rng.Below(4)]}};
      item.children.push_back(Leaf("name", Word(rng)));
      item.children.push_back(Leaf("price", std::to_string(rng.Between(1, 99))));
      if (rng.Chance(0.4)) item.children.push_back(Leaf("note", Word(rng)));
      list.children.push_back(std::move(item));
    }
    sec.children.push_back(std::move(list));
  }
  if (depth < 7) {
    const size_t subs = rng.Chance(0.55) ? rng.Between(1, 2) : 0;
    for (size_t i = 0; i < subs; ++i) {
      sec.children.push_back(ReportSection(rng, depth + 1, serial));
    }
  }
  if (rng.Chance(0.3)) sec.children.push_back(Leaf("ref", Word(rng)));
  return sec;
}

Node Report(Rng& rng, size_t target_bytes) {
  Node report;
  report.name = "report";
  report.attrs = {{"id", "r" + Alnum(rng, 4)}};
  Node head;
  head.name = "head";
  head.children.push_back(Leaf("title", Word(rng)));
  head.children.push_back(Leaf("date", "2024-0" + std::to_string(rng.Between(1, 9))));
  report.children.push_back(std::move(head));
  size_t bytes = 80, serial = 0;
  while (bytes < target_bytes) {
    report.children.push_back(ReportSection(rng, 1, &serial));
    bytes += Serialize(report.children.back()).size();
  }
  return report;
}

/// ingest_large: a feed of deep chains, attribute-heavy records and
/// groups over many distinct names; some text needs entity decoding.
Node Feed(Rng& rng, size_t target_bytes) {
  Node feed;
  feed.name = "feed";
  feed.attrs = {{"ver", "2"}};
  Node meta;
  meta.name = "meta";
  meta.children.push_back(Leaf("source", Word(rng)));
  meta.children.push_back(Leaf("id", Alnum(rng, 12)));
  meta.children.push_back(Leaf("lang", rng.Chance(0.5) ? "en" : "de"));
  feed.children.push_back(std::move(meta));
  auto text = [&rng]() {
    std::string t = Words(rng, rng.Between(1, 5));
    if (rng.Chance(0.1)) t += rng.Chance(0.5) ? " & co" : " a<b";
    return t;
  };
  size_t bytes = 120;
  while (bytes < target_bytes) {
    Node block;
    const double r = static_cast<double>(rng.Below(100)) / 100.0;
    if (r < 0.35) {
      block.name = "rec";
      for (size_t i = rng.Between(6, 10); i > 0; --i) {
        block.attrs.emplace_back("a" + std::to_string(rng.Below(40)), Alnum(rng, rng.Between(4, 10)));
      }
      std::sort(block.attrs.begin(), block.attrs.end());
      block.attrs.erase(std::unique(block.attrs.begin(), block.attrs.end(),
                                    [](const auto& x, const auto& y) { return x.first == y.first; }),
                        block.attrs.end());
      for (size_t i = rng.Between(4, 8); i > 0; --i) {
        block.children.push_back(Leaf("n" + std::to_string(rng.Below(400)), text()));
      }
    } else if (r < 0.6) {
      block.name = "d" + std::to_string(rng.Below(8));
      Node* at = &block;
      for (size_t level = rng.Between(12, 40); level > 0; --level) {
        Node child;
        child.name = "d" + std::to_string(rng.Below(8));
        if (rng.Chance(0.3)) child.attrs = {{"lv", std::to_string(level)}};
        at->children.push_back(std::move(child));
        at = &at->children.back();
      }
      at->text = text();
    } else {
      block.name = "g" + std::to_string(rng.Below(50));
      for (size_t i = rng.Between(5, 15); i > 0; --i) {
        Node child = Leaf("n" + std::to_string(rng.Below(400)), rng.Chance(0.7) ? text() : "");
        if (rng.Chance(0.3)) {
          child.children.push_back(Leaf("n" + std::to_string(rng.Below(400)), text()));
        }
        block.children.push_back(std::move(child));
      }
    }
    bytes += Serialize(block).size();
    feed.children.push_back(std::move(block));
  }
  return feed;
}

/// wire_small: a ~1 KB message. The element skeleton is the same in every
/// message (only text and attribute values vary), so every linear query
/// has one verdict for all of them and each document pushes the same
/// number of frames, whatever the seed.
Node Message(Rng& rng) {
  static const char* const kTypes[] = {"note", "alert", "info", "task"};
  Node msg;
  msg.name = "msg";
  msg.attrs = {{"id", Alnum(rng, 8)},
               {"type", kTypes[rng.Below(4)]},
               {"prio", std::to_string(rng.Between(1, 5))}};
  Node hdr;
  hdr.name = "hdr";
  hdr.children.push_back(Leaf("from", Word(rng)));
  hdr.children.push_back(Leaf("to", Word(rng)));
  hdr.children.push_back(Leaf("cc", Word(rng)));
  hdr.children.push_back(Leaf("subj", Words(rng, 4)));
  msg.children.push_back(std::move(hdr));
  Node body;
  body.name = "body";
  for (int i = 0; i < 3; ++i) {
    body.children.push_back(Leaf("para", Words(rng, rng.Between(16, 40))));
  }
  Node quote;
  quote.name = "quote";
  quote.children.push_back(Leaf("para", Words(rng, 10)));
  body.children.push_back(std::move(quote));
  msg.children.push_back(std::move(body));
  Node tags;
  tags.name = "tags";
  for (int i = 0; i < 3; ++i) tags.children.push_back(Leaf("tag", Word(rng)));
  msg.children.push_back(std::move(tags));
  return msg;
}

/// churn: a catalog of entries over a medium name pool, with an empty
/// <mark/> halfway through its entries.
Node Catalog(Rng& rng, size_t target_bytes) {
  static const char* const kKinds[] = {"book", "cd", "dvd", "toy", "tool", "food"};
  Node cat;
  cat.name = "cat";
  cat.attrs = {{"region", rng.Chance(0.5) ? "eu" : "us"}};
  size_t bytes = 40;
  bool marked = false;
  while (bytes < target_bytes) {
    if (!marked && bytes >= target_bytes / 2) {
      cat.children.push_back(Leaf("mark", ""));
      marked = true;
    }
    Node entry;
    entry.name = "entry";
    entry.attrs = {{"id", "e" + std::to_string(rng.Below(500))},
                   {"kind", kKinds[rng.Below(6)]}};
    entry.children.push_back(Leaf("title", Word(rng)));
    entry.children.push_back(Leaf("price", std::to_string(rng.Between(1, 99))));
    if (rng.Chance(0.7)) {
      Node specs;
      specs.name = "specs";
      for (size_t i = rng.Between(1, 3); i > 0; --i) {
        Node spec = Leaf("s" + std::to_string(rng.Below(40)), Word(rng));
        if (rng.Chance(0.3)) {
          spec.text.clear();
          spec.children.push_back(Leaf("v" + std::to_string(rng.Below(12)), Word(rng)));
        }
        specs.children.push_back(std::move(spec));
      }
      entry.children.push_back(std::move(specs));
    }
    if (rng.Chance(0.3)) {
      Node review;
      review.name = "review";
      review.attrs = {{"stars", std::to_string(rng.Between(1, 5))}};
      review.text = Words(rng, 3);
      entry.children.push_back(std::move(review));
    }
    bytes += Serialize(entry).size();
    cat.children.push_back(std::move(entry));
  }
  return cat;
}

// ---------------------------------------------------------------------------

/// Serializes, chunks and flattens each tree: `chunk_bytes`-sized chunks
/// when non-zero, else `chunk_pieces` near-equal ones.
void Finish(std::vector<Node> trees, size_t chunk_pieces, size_t chunk_bytes,
            Workload* w) {
  for (const Node& tree : trees) {
    w->xml.push_back(Serialize(tree));
    const std::string& xml = w->xml.back();
    const size_t pieces =
        chunk_bytes > 0 ? (xml.size() + chunk_bytes - 1) / chunk_bytes : chunk_pieces;
    w->chunks.push_back(SplitChunks(xml, pieces));
    w->docs.push_back(Flatten(tree, &w->names));
  }
}

void MakeFrontierDissem(Rng& rng, Workload* w) {
  w->engine = "frontier";
  w->daemon_flags = {"--engine", "frontier", "--pipeline-workers", "2"};
  w->inflight_cap = 8;
  std::vector<Node> trees;
  for (int i = 0; i < 48; ++i) trees.push_back(Report(rng, 3000));
  QueryShape twig;
  twig.skip = 0.3;
  twig.wildcard = 0.12;
  twig.pred_last = 0.75;
  twig.pred_inner = 0.3;
  twig.perturb = 0.35;
  twig.min_depth = 2;
  w->queries = DistinctQueries(rng, trees, 196, twig, &twig, 1.0);
  // Every report leads with its head, so these decide early on every
  // document and first_match_p50_us measures the same thing on every
  // seed.
  const std::vector<size_t> early = AddFixed(
      {"/report[@id]/head", "/report/head[title]/date", "//head/title", "/report/*/date"},
      &w->queries);
  w->conns.resize(4);
  w->conns[0].publisher = w->conns[1].publisher = true;
  for (size_t q = 0; q < w->queries.size(); ++q) {
    const bool is_early = std::find(early.begin(), early.end(), q) != early.end();
    w->conns[2 + q % 2].subs.push_back({q, is_early || rng.Chance(0.3)});
  }
  w->mutator = 3;
  Finish(std::move(trees), 4, 0, w);
}

void MakeIngestLarge(Rng& rng, Workload* w) {
  w->engine = "nfa_index";
  w->daemon_flags = {"--engine", "nfa_index", "--pipeline-workers", "2"};
  // Two workers and the loop's parse keep busy with four in flight; more
  // only adds queued 200 KB documents, and their number, to the RSS peak.
  w->inflight_cap = 4;
  w->setups = 15;  // ~60 ms each: a median of few would follow single slow spells
  std::vector<Node> trees;
  for (int i = 0; i < 16; ++i) trees.push_back(Feed(rng, 200 * 1024));
  QueryShape linear;
  linear.skip = 0.15;
  linear.wildcard = 0.05;
  linear.min_depth = 1;
  w->queries = DistinctQueries(rng, trees, 160, linear);
  // Queries that decide in the first chunk: the meta header leads
  // every feed.
  const std::vector<size_t> early = AddFixed(
      {"/feed/meta", "/feed/meta/source", "/feed/meta/id", "//meta/lang", "/feed/*/source",
       "//source", "/feed/meta/lang", "/*/meta", "//meta/id", "/feed//lang", "/*/*/source",
       "//meta"},
      &w->queries);
  w->conns.resize(4);
  for (size_t c = 0; c < 4; ++c) w->conns[c].publisher = true;
  for (size_t q = 0; q < w->queries.size(); ++q) {
    const bool is_early = std::find(early.begin(), early.end(), q) != early.end();
    w->conns[q % 4].subs.push_back({q, is_early || rng.Chance(0.15)});
  }
  w->mutator = 3;
  Finish(std::move(trees), 0, 32 * 1024, w);
}

void MakeWireSmall(Rng& rng, Workload* w) {
  w->engine = "nfa_index";
  w->daemon_flags = {"--engine", "nfa_index"};
  w->inflight_cap = 2;  // the next document may start once DOC_OK is in
  std::vector<Node> trees;
  for (int i = 0; i < 256; ++i) trees.push_back(Message(rng));
  static const std::vector<std::string> kSwapPool = {"msg", "hdr", "body", "tags", "quote",
                                                     "para", "from", "to", "cc", "subj",
                                                     "tag", "sig", "attach", "reply"};
  QueryShape linear;
  linear.skip = 0.3;
  linear.wildcard = 0.15;
  linear.swap = 0.4;
  linear.swap_pool = &kSwapPool;
  // 24 queries that match every message and 24 that match none, in
  // alternation: each connection below holds 12 of each, so every
  // document pushes 48 MATCH frames and 4 DOC_DONE frames.
  NameTable names;
  const FlatDoc skeleton = Flatten(trees[0], &names);
  std::vector<Located> nodes;
  Locate(trees[0], -1, &nodes);
  std::vector<std::string> hits, misses;
  std::set<std::string> seen;
  while (hits.size() < 24 || misses.size() < 24) {
    const std::string q = PathQuery(rng, nodes, linear);
    OracleQuery parsed;
    std::string error;
    if (!seen.insert(q).second || !ParseOracleQuery(q, names, &parsed, &error)) continue;
    auto& bucket = Evaluate(parsed, skeleton) ? hits : misses;
    if (bucket.size() < 24) bucket.push_back(q);
  }
  for (size_t i = 0; i < 24; ++i) {
    w->queries.push_back(hits[i]);
    w->queries.push_back(misses[i]);
  }
  w->conns.resize(4);
  w->conns[0].publisher = true;
  // Tens of queries per connection, shared across connections so each
  // document fans out to all four.
  for (size_t c = 0; c < 4; ++c) {
    for (size_t i = 0; i < 24; ++i) {
      w->conns[c].subs.push_back({(c * 7 + i * 5) % w->queries.size(), rng.Chance(0.3)});
    }
  }
  w->mutator = 3;
  Finish(std::move(trees), 1, 0, w);
}

void MakeChurn(Rng& rng, Workload* w) {
  w->engine = "auto";
  w->daemon_flags = {"--engine", "auto", "--pipeline-workers", "2"};
  w->inflight_cap = 4;
  w->churn = true;
  std::vector<Node> trees;
  for (int i = 0; i < 48; ++i) trees.push_back(Catalog(rng, 2000));
  static const std::vector<std::string> kSwapPool = [] {
    std::vector<std::string> pool = {"cat", "entry", "title", "price", "specs", "review"};
    for (int i = 0; i < 40; ++i) pool.push_back("s" + std::to_string(i));
    for (int i = 0; i < 12; ++i) pool.push_back("v" + std::to_string(i));
    // Names no catalog uses: most swapped queries can never match, as
    // most subscriptions in a dissemination service match no document.
    for (int i = 0; i < 400; ++i) pool.push_back("x" + std::to_string(i));
    return pool;
  }();
  QueryShape linear;
  linear.skip = 0.3;
  linear.wildcard = 0.1;
  linear.swap = 1.0;
  linear.swap_pool = &kSwapPool;
  QueryShape twig = linear;
  twig.pred_last = 0.7;
  twig.pred_inner = 0.4;
  twig.perturb = 0.5;
  w->queries = DistinctQueries(rng, trees, 2000, linear, &twig, 0.05);
  // Heavy duplication: index = n * u^1.5 favours the first queries.
  auto draw = [&rng, w]() {
    const double u = static_cast<double>(rng.Below(1u << 20)) / (1u << 20);
    Subscription s;
    s.query = static_cast<size_t>(u * std::sqrt(u) * static_cast<double>(w->queries.size()));
    s.earliest = rng.Chance(0.1);
    return s;
  };
  w->conns.resize(2);
  w->conns[1].publisher = true;
  for (int i = 0; i < 12000; ++i) w->conns[0].subs.push_back(draw());
  // first_match_p50_us times the publisher's own kEarliest
  // subscriptions, which are never churned and decide on the <mark/>
  // halfway through every catalog: the same point on every seed, and
  // half a document of matching rather than the head alone. Timed at
  // the head, from whichever subscription decided first, it spread
  // 0.29 over ten seeds against 0.16 for the whole document.
  for (size_t q : AddFixed({"/cat/mark", "//mark"}, &w->queries)) {
    w->conns[1].subs.push_back({q, true});
  }
  w->first_match_conn = 1;
  w->mutator = 0;
  w->setups = 3;  // each set-up subscribes 12,000 times: seconds, not ms
  Finish(std::move(trees), 2, 0, w);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"frontier_dissem", "ingest_large",
                                                  "wire_small", "churn"};
  return kNames;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  // Each workload draws from its own stream, so one seed gives four
  // unrelated input sets.
  uint64_t salt = 0;
  for (char c : name) salt = salt * 131 + static_cast<unsigned char>(c);
  Rng rng(seed * 0x100000001b3ULL ^ salt);
  out->name = name;
  if (name == "frontier_dissem") {
    MakeFrontierDissem(rng, out);
  } else if (name == "ingest_large") {
    MakeIngestLarge(rng, out);
  } else if (name == "wire_small") {
    MakeWireSmall(rng, out);
  } else if (name == "churn") {
    MakeChurn(rng, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
