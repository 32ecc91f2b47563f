// Subscription lifecycle under live churn: canonicalization-based
// dedup, Unsubscribe tombstoning, and deferred compaction.
//
// The contracts under test:
//  * a churning engine (Subscribe/Unsubscribe interleaved with
//    documents, across every registry engine and thread count) produces
//    exactly the verdicts, decided positions and sink callbacks of a
//    fresh engine holding only the surviving subscriptions;
//  * N duplicate subscriptions evaluate as one slot plus fan-out —
//    verdicts, DecidedAt and MemoryStats are indistinguishable from the
//    distinct-query engine, while num_eval_slots() exposes the sharing;
//  * Unsubscribe never rebuilds the automaton; only
//    CompactSubscriptions() does, and it reclaims every tombstone;
//  * a failed Subscribe (duplicate id, out-of-fragment query) and a
//    failed Unsubscribe (unknown id) leave the engine untouched.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/scenarios.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

/// Records every callback in arrival order.
struct RecordingSink : ResultSink {
  // (slot, doc_index, event_ordinal)
  std::vector<std::tuple<size_t, size_t, size_t>> matches;
  std::vector<std::pair<size_t, std::vector<bool>>> documents;

  void OnMatch(size_t slot, size_t doc_index, size_t ordinal) override {
    matches.emplace_back(slot, doc_index, ordinal);
  }
  void OnDocumentDone(size_t doc_index,
                      const std::vector<bool>& verdicts) override {
    documents.emplace_back(doc_index, verdicts);
  }
};

/// Deterministic per-subscription delivery mode, derivable from the id
/// alone so the churning engine and its fresh reference agree.
DeliveryMode ModeFor(const std::string& id) {
  return (id.back() - '0') % 2 == 0 ? DeliveryMode::kEarliest
                                    : DeliveryMode::kAtEnd;
}

// The acceptance contract of the churn path: replaying an interleaved
// Subscribe/Unsubscribe/Compact schedule, every document's verdicts,
// decided positions and sink deliveries equal those of a fresh engine
// subscribed to exactly the survivors — for all registry engines at
// 1, 2 and 4 threads. Along the way: Unsubscribe never increments the
// rebuild counter, CompactSubscriptions() is the only thing that does.
TEST(ApiChurnTest, ChurnMatchesFreshEngineEverywhere) {
  const ChurnWorkload workload = MakeChurnWorkload(12, 4, 6, 2026);

  for (const std::string& name : Engine::AvailableEngines()) {
    for (size_t threads : {1u, 2u, 4u}) {
      EngineOptions options;
      options.engine = name;
      options.threads = threads;
      auto engine = Engine::Create(options);
      ASSERT_TRUE(engine.ok()) << name;
      RecordingSink sink;
      (*engine)->SetSink(&sink);

      std::map<std::string, std::string> live_query;  // id -> query text
      size_t expected_rebuilds = 0;
      for (const ChurnWorkload::Op& op : workload.ops) {
        switch (op.kind) {
          case ChurnWorkload::OpKind::kSubscribe: {
            const std::string& query = workload.queries[op.index];
            ASSERT_TRUE(
                (*engine)->Subscribe(op.id, query, ModeFor(op.id)).ok())
                << name << " " << query;
            live_query[op.id] = query;
            break;
          }
          case ChurnWorkload::OpKind::kUnsubscribe: {
            ASSERT_TRUE((*engine)->Unsubscribe(op.id).ok())
                << name << " " << op.id;
            live_query.erase(op.id);
            break;
          }
          case ChurnWorkload::OpKind::kCompact: {
            if ((*engine)->tombstoned_slots() > 0) ++expected_rebuilds;
            ASSERT_TRUE((*engine)->CompactSubscriptions().ok()) << name;
            EXPECT_EQ((*engine)->tombstoned_slots(), 0u) << name;
            break;
          }
          case ChurnWorkload::OpKind::kDocument: {
            const EventStream& doc = workload.documents[op.index];

            // The reference: a fresh engine holding only the survivors,
            // subscribed in the churning engine's id order so verdict
            // vectors and sink slots align index by index.
            auto fresh = Engine::Create(options);
            ASSERT_TRUE(fresh.ok()) << name;
            RecordingSink fresh_sink;
            (*fresh)->SetSink(&fresh_sink);
            for (const std::string& id : (*engine)->subscription_ids()) {
              ASSERT_TRUE(
                  (*fresh)
                      ->Subscribe(id, live_query.at(id), ModeFor(id))
                      .ok())
                  << name << " " << id;
            }

            const size_t sink_matches_before = sink.matches.size();
            auto verdicts = (*engine)->FilterEvents(doc);
            ASSERT_TRUE(verdicts.ok()) << name << " threads=" << threads;
            auto expected = (*fresh)->FilterEvents(doc);
            ASSERT_TRUE(expected.ok()) << name;

            EXPECT_EQ(*verdicts, *expected)
                << name << " threads=" << threads << " doc " << op.index;
            EXPECT_EQ((*engine)->last_decided_at(),
                      (*fresh)->last_decided_at())
                << name << " threads=" << threads << " doc " << op.index;

            // Sink parity, modulo the stream-position doc_index (the
            // fresh engine always sees the document as its first).
            ASSERT_EQ(sink.matches.size(),
                      sink_matches_before + fresh_sink.matches.size())
                << name << " threads=" << threads;
            for (size_t m = 0; m < fresh_sink.matches.size(); ++m) {
              const auto& actual = sink.matches[sink_matches_before + m];
              const auto& reference = fresh_sink.matches[m];
              EXPECT_EQ(std::get<0>(actual), std::get<0>(reference));
              EXPECT_EQ(std::get<2>(actual), std::get<2>(reference));
            }
            ASSERT_EQ(fresh_sink.documents.size(), 1u);
            EXPECT_EQ(sink.documents.back().second,
                      fresh_sink.documents[0].second)
                << name << " threads=" << threads;
            break;
          }
        }
        // Tombstoning is O(1) by contract: nothing on the churn path
        // rebuilds the automaton except an explicit compaction.
        EXPECT_EQ((*engine)->automaton_rebuilds(), expected_rebuilds)
            << name << " threads=" << threads;
      }
      EXPECT_EQ((*engine)->NumSubscriptions(), live_query.size()) << name;
      EXPECT_GE(expected_rebuilds, 1u) << name;  // the planted compact ran
    }
  }
}

// N duplicates of one query evaluate once: a 16x-duplicated engine
// reports the same verdicts, DecidedAt and MemoryStats as the
// distinct-query engine, with num_eval_slots() showing the collapse.
TEST(ApiChurnTest, DuplicatesShareOneEvaluationSlot) {
  const std::vector<std::string> distinct = {"/s0/s1", "//s2", "/s0/*/s3"};
  const size_t kDup = 16;

  Random rng(99);
  DocGenOptions doc_options;
  doc_options.max_depth = 6;
  doc_options.name_pool = 4;
  doc_options.names = {"s0", "s1", "s2", "s3"};
  EventCorpus corpus;
  for (size_t i = 0; i < 5; ++i) {
    corpus.Add(GenerateRandomDocument(&rng, doc_options));
  }

  for (const std::string& name : Engine::AvailableEngines()) {
    auto reference = Engine::Create(name);
    ASSERT_TRUE(reference.ok()) << name;
    for (size_t q = 0; q < distinct.size(); ++q) {
      ASSERT_TRUE(
          (*reference)->Subscribe("r" + std::to_string(q), distinct[q]).ok())
          << name;
    }

    auto duplicated = Engine::Create(name);
    ASSERT_TRUE(duplicated.ok()) << name;
    for (size_t copy = 0; copy < kDup; ++copy) {
      for (size_t q = 0; q < distinct.size(); ++q) {
        const std::string id =
            "d" + std::to_string(q) + "_" + std::to_string(copy);
        ASSERT_TRUE((*duplicated)->Subscribe(id, distinct[q]).ok()) << name;
      }
    }
    EXPECT_EQ((*duplicated)->NumSubscriptions(), kDup * distinct.size());
    EXPECT_EQ((*duplicated)->num_eval_slots(), distinct.size()) << name;

    for (const EventStream& doc : corpus) {
      auto expected = (*reference)->FilterEvents(doc);
      ASSERT_TRUE(expected.ok()) << name;
      auto verdicts = (*duplicated)->FilterEvents(doc);
      ASSERT_TRUE(verdicts.ok()) << name;
      ASSERT_EQ(verdicts->size(), kDup * distinct.size());
      for (size_t copy = 0; copy < kDup; ++copy) {
        for (size_t q = 0; q < distinct.size(); ++q) {
          const std::string id =
              "d" + std::to_string(q) + "_" + std::to_string(copy);
          EXPECT_EQ(*(*duplicated)->Matched(id),
                    *(*reference)->Matched("r" + std::to_string(q)))
              << name << " " << id;
          EXPECT_EQ(*(*duplicated)->DecidedAt(id),
                    *(*reference)->DecidedAt("r" + std::to_string(q)))
              << name << " " << id;
        }
      }
      // The evaluation side never sees the duplication: matcher-side
      // memory gauges equal the distinct-query engine's readings.
      const MemoryStats& dup_stats = (*duplicated)->stats();
      const MemoryStats& ref_stats = (*reference)->stats();
      EXPECT_EQ(dup_stats.table_entries().peak(),
                ref_stats.table_entries().peak())
          << name;
      EXPECT_EQ(dup_stats.automaton_states().current(),
                ref_stats.automaton_states().current())
          << name;
      EXPECT_EQ(dup_stats.auxiliary_bytes().peak(),
                ref_stats.auxiliary_bytes().peak())
          << name;
      EXPECT_EQ(dup_stats.symbol_bytes().current(),
                ref_stats.symbol_bytes().current())
          << name;
    }
  }
}

// Dedup reaches beyond textual identity: commuted and/or predicates
// collapse via the canonical key (engines whose fragment has them).
TEST(ApiChurnTest, CommutedPredicatesCollapseToOneSlot) {
  for (const char* name : {"frontier", "naive"}) {
    auto engine = Engine::Create(name);
    ASSERT_TRUE(engine.ok()) << name;
    ASSERT_TRUE((*engine)->Subscribe("x", "/a[b and c]").ok()) << name;
    ASSERT_TRUE((*engine)->Subscribe("y", "/a[c and b]").ok()) << name;
    EXPECT_EQ((*engine)->NumSubscriptions(), 2u);
    EXPECT_EQ((*engine)->num_eval_slots(), 1u) << name;
    // Both subscriptions still answer independently.
    ASSERT_TRUE(
        (*engine)
            ->FilterXml("<a><b>1</b><c>2</c></a>")
            .ok())
        << name;
    EXPECT_TRUE(*(*engine)->Matched("x"));
    EXPECT_TRUE(*(*engine)->Matched("y"));
  }
}

// A failed Subscribe — duplicate id or out-of-fragment query — leaves
// the slot map, subscription list and symbol table untouched.
TEST(ApiChurnTest, FailedSubscribeLeavesEngineUntouched) {
  auto engine = Engine::Create("lazy_dfa");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("a", "/s0/s1").ok());
  const size_t slots = (*engine)->num_eval_slots();
  const size_t symbol_bytes = (*engine)->stats().symbol_bytes().current();

  // Duplicate id, valid query.
  EXPECT_FALSE((*engine)->Subscribe("a", "/s0/s2").ok());
  // Fresh id, query outside lazy_dfa's fragment (predicate).
  EXPECT_FALSE((*engine)->Subscribe("b", "/s0[s1]").ok());
  // Fresh id, query with names the engine has never seen; rejection
  // must not intern them.
  EXPECT_FALSE((*engine)->Subscribe("c", "/zz0[zz1]").ok());

  EXPECT_EQ((*engine)->NumSubscriptions(), 1u);
  EXPECT_EQ((*engine)->num_eval_slots(), slots);
  EXPECT_EQ((*engine)->stats().symbol_bytes().current(), symbol_bytes);
  EXPECT_EQ((*engine)->subscription_ids(),
            std::vector<std::string>{"a"});

  // Unknown unsubscribe: kNotFound, nothing removed or tombstoned.
  EXPECT_FALSE((*engine)->Unsubscribe("ghost").ok());
  EXPECT_EQ((*engine)->NumSubscriptions(), 1u);
  EXPECT_EQ((*engine)->tombstoned_slots(), 0u);

  // The engine still works after all the rejections.
  ASSERT_TRUE((*engine)->FilterXml("<s0><s1/></s0>").ok());
  EXPECT_TRUE(*(*engine)->Matched("a"));
}

// Subscription indices shift down on removal while survivors keep the
// last document's verdicts; removing a duplicate keeps the shared slot
// alive for the remaining subscriber.
TEST(ApiChurnTest, UnsubscribeKeepsSurvivorState) {
  auto engine = Engine::Create("frontier");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("first", "/s0/s1").ok());
  ASSERT_TRUE((*engine)->Subscribe("second", "//s2").ok());
  ASSERT_TRUE((*engine)->Subscribe("third", "/s0/s1").ok());  // dup of first
  EXPECT_EQ((*engine)->num_eval_slots(), 2u);

  ASSERT_TRUE((*engine)->FilterXml("<s0><s1/></s0>").ok());
  EXPECT_TRUE(*(*engine)->Matched("first"));
  EXPECT_FALSE(*(*engine)->Matched("second"));
  EXPECT_TRUE(*(*engine)->Matched("third"));

  // Removing the duplicate's representative must not tear down the
  // shared slot: "third" still evaluates.
  ASSERT_TRUE((*engine)->Unsubscribe("first").ok());
  EXPECT_EQ((*engine)->NumSubscriptions(), 2u);
  EXPECT_EQ((*engine)->num_eval_slots(), 2u);  // slot survives via "third"
  EXPECT_EQ((*engine)->tombstoned_slots(), 0u);
  EXPECT_EQ((*engine)->subscription_ids(),
            (std::vector<std::string>{"second", "third"}));
  // Survivors keep the last document's verdicts at shifted indices.
  EXPECT_FALSE(*(*engine)->Matched("second"));
  EXPECT_TRUE(*(*engine)->Matched("third"));

  // Now drop the slot's last subscriber: a tombstone, no rebuild.
  ASSERT_TRUE((*engine)->Unsubscribe("third").ok());
  EXPECT_EQ((*engine)->tombstoned_slots(), 1u);
  EXPECT_EQ((*engine)->num_eval_slots(), 1u);
  EXPECT_EQ((*engine)->automaton_rebuilds(), 0u);

  // Compaction reclaims the tombstone and re-subscribing still works.
  ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
  EXPECT_EQ((*engine)->tombstoned_slots(), 0u);
  EXPECT_EQ((*engine)->automaton_rebuilds(), 1u);
  ASSERT_TRUE((*engine)->Subscribe("fourth", "/s0/s1").ok());
  ASSERT_TRUE((*engine)->FilterXml("<s0><s1/></s0>").ok());
  EXPECT_FALSE(*(*engine)->Matched("second"));
  EXPECT_TRUE(*(*engine)->Matched("fourth"));
}

// Lifecycle calls are barred mid-document — and failing that way leaves
// the in-flight document undisturbed.
TEST(ApiChurnTest, LifecycleCallsAreBarredMidDocument) {
  auto engine = Engine::Create("nfa");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Subscribe("q", "//s1").ok());
  ASSERT_TRUE((*engine)->Feed("<s0><s1/>").ok());
  EXPECT_FALSE((*engine)->Subscribe("late", "//s2").ok());
  EXPECT_FALSE((*engine)->Unsubscribe("q").ok());
  EXPECT_FALSE((*engine)->CompactSubscriptions().ok());
  ASSERT_TRUE((*engine)->Feed("</s0>").ok());
  ASSERT_TRUE((*engine)->FinishDocument().ok());
  EXPECT_TRUE(*(*engine)->Matched("q"));
}

// Unsubscribe renumbers nothing: subscriptions are keyed by stable
// handles and located by binary search, so at 16k subscriptions a
// removal costs about what a registration does — not a walk over every
// later subscription's index. Both are timed in this process, on the
// same engine, so the bound holds on any host and build type.
TEST(ApiChurnTest, UnsubscribeCostsAboutWhatSubscribeCosts) {
  constexpr size_t kSubscriptions = 16384;
  auto engine = Engine::Create("auto");
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> queries;
  for (size_t q = 0; q < 2048; ++q) {
    queries.push_back("/cat/entry/s" + std::to_string(q % 64) + "/v" +
                      std::to_string(q / 64));
  }
  using Clock = std::chrono::steady_clock;
  const auto subscribe_start = Clock::now();
  for (size_t i = 0; i < kSubscriptions; ++i) {
    ASSERT_TRUE((*engine)
                    ->Subscribe("sub" + std::to_string(i),
                                queries[(i * 7919) % queries.size()])
                    .ok());
  }
  const double subscribe_us =
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                subscribe_start)
          .count() /
      kSubscriptions;

  // Remove in a scattered order, so most removals land mid-vector.
  Random rng(16);
  std::vector<size_t> order(kSubscriptions);
  for (size_t i = 0; i < kSubscriptions; ++i) order[i] = i;
  for (size_t i = kSubscriptions - 1; i > 0; --i) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  const auto unsubscribe_start = Clock::now();
  for (size_t i : order) {
    ASSERT_TRUE((*engine)->Unsubscribe("sub" + std::to_string(i)).ok());
  }
  const double unsubscribe_us =
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                unsubscribe_start)
          .count() /
      kSubscriptions;
  EXPECT_EQ((*engine)->NumSubscriptions(), 0u);
  EXPECT_LE(unsubscribe_us, 10 * subscribe_us)
      << "mean Unsubscribe " << unsubscribe_us << " us vs mean Subscribe "
      << subscribe_us << " us";
  std::printf("mean Subscribe %.2f us, mean Unsubscribe %.2f us\n",
              subscribe_us, unsubscribe_us);
}

}  // namespace
}  // namespace xpstream
