// Differential test of the "frontier" engine's shared, routed record
// table (FrontierBank) against its single-query reference: one
// FrontierFilter per slot, harvested the way a per-subscription filter
// bank reports (ascending slot per event), and against the tree
// evaluator BoolEval. Per slot the bank must reproduce exactly the
// verdict, DecidedAt, the MatchSink sequence and the peak (and current)
// table_entries / buffered_bytes readings, across duplicate queries,
// wildcards, `//`, attribute and text-value predicates, recursive
// documents, the E2 frontier-family and E3 disjointness fooling
// documents, Unsubscribe and Compact between documents, and through the
// Engine facade's FilterXml (at random chunkings), Feed and
// FilterEvents entry points.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "lowerbounds/fooling_disj.h"
#include "lowerbounds/fooling_frontier.h"
#include "stream/engine_registry.h"
#include "stream/frontier_bank.h"
#include "stream/frontier_filter.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "xml/parser.h"
#include "xml/tree_builder.h"
#include "xml/writer.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

using Report = std::pair<size_t, size_t>;  // (slot, ordinal)

struct RecordingSink : MatchSink {
  std::vector<Report> reports;
  void OnSlotMatched(size_t slot, size_t ordinal) override {
    reports.emplace_back(slot, ordinal);
  }
};

// Queries written for the generator's vocabulary (names a–d, attributes
// "<name>id" with values 0–99, numeric or word text) so attribute and
// text-value predicates, wildcards and `//` all see hits and misses.
const std::vector<std::string>& HandWrittenQueries() {
  static const std::vector<std::string> queries = {
      "/a[@aid]",
      "//b[@bid = '7']",
      "//*[@cid]",
      "/a/b[@aid > 50]",
      "//a[@bid != '3']/c",
      "//a[b > 10]",
      "//a[b = 3]",
      "/a//b[c and d]",
      "//*/a",
      "/*/*[b]",
      "//a[.//b and c]",
      "//a[b and c]",
      "//*[*]",
      "/a/*/b",
      "//c[d != 'x']",
      // E2/E3 family queries, whose fooling documents are in the corpus.
      "/r[p0 > 0 and p1 > 1 and p2 > 2]/s",
      "/a/b",
  };
  return queries;
}

std::unique_ptr<Query> Parse(const std::string& text) {
  auto query = ParseQuery(text);
  EXPECT_TRUE(query.ok()) << text << ": " << query.status().ToString();
  return query.ok() ? std::move(query).value() : nullptr;
}

// A population: hand-written queries, random twigs in the §8 fragment,
// and duplicates of both.
std::vector<std::unique_ptr<Query>> Population(Random* rng, size_t random) {
  std::vector<std::unique_ptr<Query>> queries;
  for (const std::string& text : HandWrittenQueries()) {
    queries.push_back(Parse(text));
  }
  QueryGenOptions options;
  options.max_depth = 4;
  options.name_pool = 3;
  options.descendant_prob = 0.45;
  options.wildcard_prob = 0.2;
  options.value_predicate_prob = 0.4;
  while (queries.size() < HandWrittenQueries().size() + random) {
    auto query = GenerateRandomQuery(rng, options);
    EXPECT_TRUE(query.ok());
    if (!query.ok() || !FrontierFilter::Create(query->get()).ok()) continue;
    queries.push_back(std::move(query).value());
  }
  const size_t distinct = queries.size();
  for (size_t i = 0; i < distinct / 3; ++i) {
    queries.push_back(Parse(queries[rng->Uniform(distinct)]->ToString()));
  }
  return queries;
}

// Documents: recursive generator trees plus the fooling families, deep
// copied so they outlive the trees and families they came from.
std::vector<EventBuffer> Corpus(Random* rng, size_t random) {
  std::vector<EventBuffer> docs;
  DocGenOptions options;
  options.max_depth = 7;
  options.max_fanout = 3;
  options.name_pool = 3;  // recursive name collisions
  options.attr_prob = 0.4;
  options.text_prob = 0.6;
  for (size_t i = 0; i < random; ++i) {
    docs.push_back(EventBuffer::DeepCopy(
        GenerateRandomDocument(rng, options)->ToEvents()));
  }
  // E2: the frontier fooling family of /r[p0 > 0 and ...]/s.
  auto frontier_query = Parse(FrontierFamilyQueryText(3));
  auto frontier = FrontierFoolingFamily::Build(frontier_query.get());
  EXPECT_TRUE(frontier.ok()) << frontier.status().ToString();
  if (frontier.ok()) {
    for (uint64_t t : {0u, 3u, 5u, 7u}) {
      docs.push_back(EventBuffer::DeepCopy(frontier->Document(t, t)));
      docs.push_back(EventBuffer::DeepCopy(frontier->Document(t, 7 - t)));
    }
  }
  // E3: the disjointness family of //a[b and c].
  auto disj_query = Parse("//a[b and c]");
  auto disj = DisjFoolingFamily::Build(disj_query.get());
  EXPECT_TRUE(disj.ok()) << disj.status().ToString();
  if (disj.ok()) {
    for (uint64_t s = 0; s < 8; s += 3) {
      for (uint64_t t = 1; t < 8; t += 2) {
        std::vector<bool> sv(3), tv(3);
        for (size_t i = 0; i < 3; ++i) {
          sv[i] = ((s >> i) & 1) != 0;
          tv[i] = ((t >> i) & 1) != 0;
        }
        docs.push_back(EventBuffer::DeepCopy(disj->Document(sv, tv)));
      }
    }
  }
  return docs;
}

// The single-query reference: one FrontierFilter per slot (null =
// tombstoned), reporting like a per-subscription filter bank.
struct Reference {
  std::vector<const Query*> queries;
  std::vector<std::unique_ptr<FrontierFilter>> filters;

  void Subscribe(const Query* query) {
    auto filter = FrontierFilter::Create(query);
    ASSERT_TRUE(filter.ok()) << filter.status().ToString();
    queries.push_back(query);
    filters.push_back(std::move(filter).value());
  }

  std::vector<Report> Run(const EventStream& events) {
    std::vector<Report> reports;
    std::vector<bool> harvested(filters.size(), false);
    for (const Event& event : events) {
      for (auto& filter : filters) {
        if (filter == nullptr) continue;
        EXPECT_TRUE(filter->OnEvent(event).ok());
      }
      const bool at_end = event.type == EventType::kEndDocument;
      for (size_t slot = 0; slot < filters.size(); ++slot) {
        if (filters[slot] == nullptr || harvested[slot]) continue;
        const size_t position = filters[slot]->DecidedAt();
        if (position == kNoEventOrdinal) continue;
        harvested[slot] = true;
        if (!at_end || *filters[slot]->Matched()) {
          reports.emplace_back(slot, position);
        }
      }
    }
    return reports;
  }
};

std::string Describe(const Query* query, const EventStream& events) {
  return "query: " + query->ToString() +
         "\ndoc: " + EventStreamToString(events);
}

// Runs one document through the bank and the reference and compares
// everything observable per slot.
void CheckDocument(FrontierBank* bank, Reference* reference,
                   const EventStream& events) {
  RecordingSink sink;
  bank->SetSink(&sink);
  ASSERT_TRUE(bank->Reset().ok());
  for (const Event& event : events) {
    ASSERT_TRUE(bank->OnEvent(event).ok());
  }
  bank->SetSink(nullptr);
  const std::vector<Report> expected_reports = reference->Run(events);
  EXPECT_EQ(sink.reports, expected_reports);

  auto verdicts = bank->Verdicts();
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  const std::vector<size_t> positions = bank->DecidedPositions();
  ASSERT_EQ(verdicts->size(), reference->filters.size());
  ASSERT_EQ(positions.size(), reference->filters.size());
  EXPECT_TRUE(bank->AllDecided());
  auto tree = EventsToDocument(events);
  ASSERT_TRUE(tree.ok());

  size_t sum_table_peak = 0;
  size_t sum_buffered_peak = 0;
  for (size_t slot = 0; slot < reference->filters.size(); ++slot) {
    const FrontierFilter* filter = reference->filters[slot].get();
    if (filter == nullptr) {
      EXPECT_FALSE((*verdicts)[slot]);
      EXPECT_EQ(positions[slot], kNoEventOrdinal);
      continue;
    }
    const std::string where =
        "slot " + std::to_string(slot) + "\n" +
        Describe(reference->queries[slot], events);
    const bool expected = *filter->Matched();
    EXPECT_EQ((*verdicts)[slot], expected) << where;
    EXPECT_EQ(expected, BoolEval(*reference->queries[slot], **tree)) << where;
    EXPECT_EQ(positions[slot], filter->DecidedAt()) << where;
    const MemoryStats mine = bank->SlotStats(slot);
    const MemoryStats& theirs = filter->stats();
    EXPECT_EQ(mine.table_entries().peak(), theirs.table_entries().peak())
        << where;
    EXPECT_EQ(mine.table_entries().current(),
              theirs.table_entries().current())
        << where;
    EXPECT_EQ(mine.buffered_bytes().peak(), theirs.buffered_bytes().peak())
        << where;
    EXPECT_EQ(mine.buffered_bytes().current(),
              theirs.buffered_bytes().current())
        << where;
    sum_table_peak += theirs.table_entries().peak();
    sum_buffered_peak += theirs.buffered_bytes().peak();
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(bank->stats().table_entries().peak(), sum_table_peak);
  EXPECT_EQ(bank->stats().buffered_bytes().peak(), sum_buffered_peak);
}

// Population churn between documents, mirrored on both sides.
void Churn(Random* rng, const std::vector<std::unique_ptr<Query>>& pool,
           std::unique_ptr<FrontierBank>* bank, Reference* reference) {
  const size_t slots = reference->filters.size();
  // Tombstone a few live slots.
  for (size_t k = 0; k < 3 && slots > 0; ++k) {
    const size_t slot = rng->Uniform(slots);
    if (reference->filters[slot] == nullptr) continue;
    ASSERT_TRUE((*bank)->Unsubscribe(slot).ok());
    EXPECT_FALSE((*bank)->Unsubscribe(slot).ok());
    reference->filters[slot].reset();
  }
  // Subscribe a couple more (duplicates of the pool included).
  for (size_t k = 0; k < 2; ++k) {
    const Query* query = pool[rng->Uniform(pool.size())].get();
    ASSERT_TRUE((*bank)->Subscribe(reference->filters.size(), query).ok());
    reference->Subscribe(query);
  }
  // Sometimes compact: rebuild both without the tombstones.
  if (rng->Bernoulli(0.3)) {
    auto fresh = std::make_unique<FrontierBank>();
    Reference compacted;
    for (size_t slot = 0; slot < reference->filters.size(); ++slot) {
      if (reference->filters[slot] == nullptr) continue;
      const Query* query = reference->queries[slot];
      ASSERT_TRUE(fresh->Subscribe(compacted.filters.size(), query).ok());
      compacted.Subscribe(query);
    }
    *bank = std::move(fresh);
    *reference = std::move(compacted);
  }
}

void RunDirect(uint64_t seed) {
  Random rng(seed);
  const std::vector<std::unique_ptr<Query>> pool = Population(&rng, 40);
  const std::vector<EventBuffer> corpus = Corpus(&rng, 40);
  auto bank = std::make_unique<FrontierBank>();
  Reference reference;
  for (const auto& query : pool) {
    ASSERT_TRUE(bank->Subscribe(reference.filters.size(), query.get()).ok());
    reference.Subscribe(query.get());
  }
  for (size_t d = 0; d < corpus.size(); ++d) {
    CheckDocument(bank.get(), &reference, corpus[d].events());
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "seed " << seed << " document " << d;
      return;
    }
    Churn(&rng, pool, &bank, &reference);
  }
}

TEST(FrontierBankTest, MatchesPerSlotFiltersSeed1) { RunDirect(1); }
TEST(FrontierBankTest, MatchesPerSlotFiltersSeed7) { RunDirect(7); }
TEST(FrontierBankTest, MatchesPerSlotFiltersSeed1009) { RunDirect(1009); }

TEST(FrontierBankTest, RejectsQueriesOutsideTheFragment) {
  FrontierBank bank;
  for (const char* text : {"//a[b or c]", "//a[b = c]", "/a[b/c = '1' and b]"}) {
    auto query = Parse(text);
    ASSERT_NE(query, nullptr);
    EXPECT_EQ(FrontierFilter::Create(query.get()).ok(),
              bank.Subscribe(bank.NumSubscriptions(), query.get()).ok())
        << text;
  }
}

TEST(FrontierBankTest, RegisteredAsTheFrontierEngine) {
  auto matcher = EngineRegistry::Global().CreateMatcher("frontier");
  ASSERT_TRUE(matcher.ok());
  EXPECT_NE(dynamic_cast<FrontierBank*>(matcher->get()), nullptr);
}

TEST(FrontierBankTest, MalformedStreamsFailLikeTheFilter) {
  auto query = Parse("//a[b]");
  FrontierBank bank;
  ASSERT_TRUE(bank.Subscribe(0, query.get()).ok());
  ASSERT_TRUE(bank.OnEvent(Event::StartDocument()).ok());
  ASSERT_TRUE(bank.OnEvent(Event::StartElement("a")).ok());
  EXPECT_EQ(bank.OnEvent(Event::EndDocument()).code(),
            StatusCode::kNotWellFormed);
  EXPECT_FALSE(bank.OnEvent(Event::EndElement("a")).ok());
  EXPECT_FALSE(bank.Verdicts().ok());
  // Reset recovers.
  ASSERT_TRUE(bank.Reset().ok());
  auto events = ParseXmlToEvents("<a><b/></a>");
  ASSERT_TRUE(events.ok());
  for (const Event& event : events->events()) {
    ASSERT_TRUE(bank.OnEvent(event).ok());
  }
  auto verdicts = bank.Verdicts();
  ASSERT_TRUE(verdicts.ok());
  EXPECT_TRUE((*verdicts)[0]);
}

// Through the facade: every entry point, with churn and compaction.
// Expected values come from one FrontierFilter per subscription run on
// the same parsed events; the sink sequence of kEarliest subscriptions
// is (ordinal, subscription index) ascending.
struct FacadeSink : ResultSink {
  std::vector<Report> matches;  // (subscription, ordinal)
  void OnMatch(size_t slot, size_t doc, size_t ordinal) override {
    (void)doc;
    matches.emplace_back(slot, ordinal);
  }
};

void RunFacade(uint64_t seed) {
  Random rng(seed);
  const std::vector<std::unique_ptr<Query>> pool = Population(&rng, 30);
  const std::vector<EventBuffer> corpus = Corpus(&rng, 30);
  auto engine = Engine::Create("frontier");
  ASSERT_TRUE(engine.ok());
  FacadeSink sink;
  (*engine)->SetSink(&sink);
  std::vector<std::pair<std::string, const Query*>> subs;  // live, in order
  size_t next_id = 0;
  auto subscribe = [&](const Query* query) {
    const std::string id = "s" + std::to_string(next_id++);
    ASSERT_TRUE((*engine)
                    ->Subscribe(id, query->ToString(), DeliveryMode::kEarliest)
                    .ok())
        << query->ToString();
    subs.emplace_back(id, query);
  };
  for (const auto& query : pool) subscribe(query.get());

  for (size_t d = 0; d < corpus.size(); ++d) {
    auto xml = EventsToXml(corpus[d].events());
    ASSERT_TRUE(xml.ok());
    // The reference sees the events the facade's parser produces.
    auto parsed = ParseXmlToEvents(*xml);
    ASSERT_TRUE(parsed.ok());
    const EventStream& events = parsed->events();
    sink.matches.clear();
    switch (rng.Uniform(3)) {
      case 0:
        ASSERT_TRUE((*engine)->FilterXml(*xml).ok());
        break;
      case 1: {
        size_t at = 0;
        while (at < xml->size()) {
          const size_t len = 1 + rng.Uniform(std::min<size_t>(xml->size(), 64));
          ASSERT_TRUE(
              (*engine)->Feed(std::string_view(*xml).substr(at, len)).ok());
          at += len;
        }
        ASSERT_TRUE((*engine)->FinishDocument().ok());
        break;
      }
      default:
        ASSERT_TRUE((*engine)->FilterEvents(events).ok());
        break;
    }
    auto tree = EventsToDocument(events);
    ASSERT_TRUE(tree.ok());
    std::vector<Report> expected;
    for (size_t i = 0; i < subs.size(); ++i) {
      auto filter = FrontierFilter::Create(subs[i].second);
      ASSERT_TRUE(filter.ok());
      auto verdict = RunFilter(filter->get(), events);
      ASSERT_TRUE(verdict.ok());
      const std::string where = subs[i].first + " document " +
                                std::to_string(d) + "\n" +
                                Describe(subs[i].second, events);
      EXPECT_EQ(*(*engine)->Matched(subs[i].first), *verdict) << where;
      EXPECT_EQ(*verdict, BoolEval(*subs[i].second, **tree)) << where;
      EXPECT_EQ(*(*engine)->DecidedAt(subs[i].first), (*filter)->DecidedAt())
          << where;
      if (*verdict) expected.emplace_back(i, (*filter)->DecidedAt());
      if (::testing::Test::HasFailure()) return;
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Report& a, const Report& b) {
                       return a.second < b.second;
                     });
    EXPECT_EQ(sink.matches, expected) << "seed " << seed << " document " << d;
    if (::testing::Test::HasFailure()) return;

    // Churn between documents.
    for (size_t k = 0; k < 2 && !subs.empty(); ++k) {
      const size_t victim = rng.Uniform(subs.size());
      ASSERT_TRUE((*engine)->Unsubscribe(subs[victim].first).ok());
      subs.erase(subs.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    subscribe(pool[rng.Uniform(pool.size())].get());
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
    }
  }
}

TEST(FrontierBankTest, FacadeEntryPointsSeed1) { RunFacade(1); }
TEST(FrontierBankTest, FacadeEntryPointsSeed1009) { RunFacade(1009); }

}  // namespace
}  // namespace xpstream
