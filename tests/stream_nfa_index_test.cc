#include <gtest/gtest.h>

#include "common/random.h"
#include "stream/nfa_filter.h"
#include "stream/nfa_index.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "xml/parser.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"

namespace xpstream {
namespace {

struct IndexFixture {
  NfaIndex index;
  std::vector<std::unique_ptr<Query>> queries;

  void Add(const std::string& text) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    ASSERT_TRUE(index.AddQuery(queries.size(), **q).ok()) << text;
    queries.push_back(std::move(q).value());
  }

  std::vector<bool> Run(const std::string& xml) {
    auto events = ParseXmlToEvents(xml);
    EXPECT_TRUE(events.ok());
    auto verdicts = index.FilterDocument(events->events());
    EXPECT_TRUE(verdicts.ok()) << verdicts.status().ToString();
    return verdicts.ok() ? *verdicts : std::vector<bool>{};
  }
};

TEST(NfaIndexTest, SingleQuery) {
  IndexFixture f;
  f.Add("/a/b");
  EXPECT_EQ(f.Run("<a><b/></a>"), (std::vector<bool>{true}));
  EXPECT_EQ(f.Run("<a><c/></a>"), (std::vector<bool>{false}));
  EXPECT_EQ(f.Run("<a><x><b/></x></a>"), (std::vector<bool>{false}));
}

TEST(NfaIndexTest, MultipleQueriesOneScan) {
  IndexFixture f;
  f.Add("/a/b");
  f.Add("/a/c");
  f.Add("//c");
  f.Add("/a/b/c");
  auto v = f.Run("<a><b><c/></b></a>");
  EXPECT_EQ(v, (std::vector<bool>{true, false, true, true}));
}

TEST(NfaIndexTest, PrefixSharingReducesStates) {
  // 4 queries sharing the /a/b prefix: the trie shares those states.
  NfaIndex shared;
  size_t individual_states = 0;
  std::vector<std::string> texts = {"/a/b/c", "/a/b/d", "/a/b/e", "/a/b/f"};
  std::vector<std::unique_ptr<Query>> keep;
  for (size_t i = 0; i < texts.size(); ++i) {
    auto q = ParseQuery(texts[i]);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(shared.AddQuery(i, **q).ok());
    individual_states += 4;  // root + 3 steps each
    keep.push_back(std::move(q).value());
  }
  // Shared: root + a + b + 4 leaves = 7 < 16.
  EXPECT_EQ(shared.NumStates(), 7u);
  EXPECT_LT(shared.NumStates(), individual_states);
}

TEST(NfaIndexTest, DescendantAxisSelfLoops) {
  IndexFixture f;
  f.Add("//b");
  f.Add("//a//b");
  f.Add("/a//b");
  auto v = f.Run("<a><x><b/></x></a>");
  EXPECT_EQ(v, (std::vector<bool>{true, true, true}));
  auto v2 = f.Run("<c><b/></c>");
  EXPECT_EQ(v2, (std::vector<bool>{true, false, false}));
}

TEST(NfaIndexTest, WildcardSteps) {
  IndexFixture f;
  f.Add("/a/*/c");
  f.Add("/*/b");
  auto v = f.Run("<a><b><c/></b></a>");
  EXPECT_EQ(v, (std::vector<bool>{true, true}));
  auto v2 = f.Run("<a><c/></a>");
  EXPECT_EQ(v2, (std::vector<bool>{false, false}));
}

TEST(NfaIndexTest, AttributeQueries) {
  IndexFixture f;
  f.Add("/a/@id");
  f.Add("//b/@k");
  auto v = f.Run("<a id=\"1\"><b k=\"v\"/></a>");
  EXPECT_EQ(v, (std::vector<bool>{true, true}));
  auto v2 = f.Run("<a><b/></a>");
  EXPECT_EQ(v2, (std::vector<bool>{false, false}));
}

TEST(NfaIndexTest, RejectsTwigQueries) {
  NfaIndex index;
  auto q = ParseQuery("/a[b]");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(index.AddQuery(0, **q).ok());
}

TEST(NfaIndexTest, RecursiveDocument) {
  IndexFixture f;
  f.Add("//a//a//a");
  f.Add("/a/a");
  auto v = f.Run("<a><a><a/></a></a>");
  EXPECT_EQ(v, (std::vector<bool>{true, true}));
  auto v2 = f.Run("<a><a/></a>");
  EXPECT_EQ(v2, (std::vector<bool>{false, true}));
}

TEST(NfaIndexTest, DifferentialAgainstSingleQueryEngines) {
  Random rng(606);
  DocGenOptions dopts;
  dopts.max_depth = 6;
  dopts.name_pool = 3;
  dopts.names = {"s0", "s1", "s2"};

  NfaIndex index;
  std::vector<std::unique_ptr<Query>> queries;
  for (size_t i = 0; i < 40; ++i) {
    auto q = GenerateLinearQuery(&rng, 1 + rng.Uniform(4), 0.4, 0.15, 3);
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(index.AddQuery(i, **q).ok());
    queries.push_back(std::move(q).value());
  }

  for (int trial = 0; trial < 40; ++trial) {
    auto doc = GenerateRandomDocument(&rng, dopts);
    auto verdicts = index.FilterDocument(doc->ToEvents());
    ASSERT_TRUE(verdicts.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      bool expected = BoolEval(*queries[i], *doc);
      EXPECT_EQ((*verdicts)[i], expected)
          << queries[i]->ToString() << " on "
          << EventStreamToString(doc->ToEvents());
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(NfaIndexTest, StatsTrackActiveSets) {
  IndexFixture f;
  f.Add("//a//b");
  std::string xml;
  for (int i = 0; i < 20; ++i) xml += "<a>";
  for (int i = 0; i < 20; ++i) xml += "</a>";
  f.Run(xml);
  EXPECT_GE(f.index.stats().table_entries().peak(), 20u);
}

// The dry-run pricing walk predicts exactly what AddQuery builds: the
// shape before adding equals the shape after, state for state, and a
// lone query's shape is the walk against a root-only trie.
TEST(NfaIndexTest, ShapeWithPredictsAddQuery) {
  Random rng(77);
  NfaIndex index;
  std::vector<std::unique_ptr<Query>> queries;
  for (const char* text : {"/a/@k", "//a/b", "/a/*/c", "/a/@k/b", "//*"}) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }
  for (size_t i = 0; i < 200; ++i) {
    auto q = GenerateLinearQuery(&rng, 1 + rng.Uniform(5), 0.3, 0.15, 4);
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }
  for (size_t id = 0; id < queries.size(); ++id) {
    const Query& query = *queries[id];
    NfaIndex alone;
    const NfaIndex::TrieShape lone = NfaIndex::ShapeOf(query);
    EXPECT_EQ(alone.ShapeWith(query).anchored, lone.anchored);
    EXPECT_EQ(alone.ShapeWith(query).floating, lone.floating);
    ASSERT_TRUE(alone.AddQuery(0, query).ok());
    EXPECT_EQ(alone.NumStates(), lone.states()) << query.ToString();

    const NfaIndex::TrieShape predicted = index.ShapeWith(query);
    ASSERT_TRUE(index.AddQuery(id, query).ok());
    EXPECT_EQ(index.Shape().anchored, predicted.anchored) << query.ToString();
    EXPECT_EQ(index.Shape().floating, predicted.floating) << query.ToString();
    EXPECT_EQ(index.NumStates(), index.Shape().states());
    // A path already in the trie adds nothing.
    EXPECT_EQ(index.ShapeWith(query).states(), index.Shape().states());
  }
  // Removal keeps every state.
  const size_t states = index.NumStates();
  for (size_t id = 0; id < queries.size(); id += 2) index.RemoveQuery(id);
  EXPECT_EQ(index.NumStates(), states);
  EXPECT_EQ(index.Shape().states(), states);
}

// RemoveQuery erases only the removed id's own acceptance: queries that
// share its path, its prefix or its accepting state keep matching, and
// the same path re-added under a new id matches again.
TEST(NfaIndexTest, RemoveAndReAddSharedPrefixQueries) {
  IndexFixture f;
  f.Add("/a/b");     // 0
  f.Add("/a/b/c");   // 1
  f.Add("/a/b");     // 2: same accepting state as 0
  f.Add("//b");      // 3
  f.Add("//b/c");    // 4
  const std::string doc = "<a><b><c/></b></a>";
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{true, true, true, true, true}));
  f.index.RemoveQuery(0);
  f.index.RemoveQuery(4);
  EXPECT_EQ(f.index.NumQueries(), 3u);
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{false, true, true, true, false}));
  f.index.RemoveQuery(0);  // already removed: a no-op
  EXPECT_EQ(f.index.NumQueries(), 3u);
  const size_t states = f.index.NumStates();
  f.Add("/a/b");    // 5: the removed path, re-added
  f.Add("//b/c");   // 6
  EXPECT_EQ(f.index.NumStates(), states);
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{false, true, true, true, false,
                                           true, true}));
  f.index.RemoveQuery(2);
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{false, true, false, true, false,
                                           true, true}));
}

TEST(NfaIndexTest, RemoveAndReAddAttributeTerminalQueries) {
  IndexFixture f;
  f.Add("/a/@k");    // 0
  f.Add("//a/@k");   // 1
  f.Add("/a/@k");    // 2: same attribute accept as 0
  f.Add("/a/@j");    // 3: same state, another attribute
  f.Add("/a/@k/b");  // 4: unsatisfiable, never accepts
  const std::string doc = "<a k=\"1\" j=\"2\"><b/></a>";
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{true, true, true, true, false}));
  f.index.RemoveQuery(0);
  f.index.RemoveQuery(3);
  f.index.RemoveQuery(4);
  EXPECT_EQ(f.index.NumQueries(), 2u);
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{false, true, true, false, false}));
  f.Add("/a/@j");    // 5
  f.Add("/a/@k");    // 6
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{false, true, true, false, false,
                                           true, true}));
  f.index.RemoveQuery(1);
  f.index.RemoveQuery(2);
  EXPECT_EQ(f.Run(doc), (std::vector<bool>{false, false, false, false, false,
                                           true, true}));
}

}  // namespace
}  // namespace xpstream
