// The population contract of "auto" routing (docs/cost_model.md, the
// nfa_index section):
//
//  1. Calibration: the population bound B(P) — one automaton entry per
//     trie state, one run entry per anchored state, `levels` per
//     floating one — stays within the planner's stated factor of the
//     measured nfa_index peak (never below measured/1.5, never above
//     measured*10) on the §4 adversarial corpora, for populations of 1,
//     16 and 256 generated linear queries.
//
//  2. Routing: on a duplicate-heavy population of generated linear
//     queries, "auto" puts at least 95% of the evaluation slots on the
//     shared nfa_index member.
//
//  3. Answers: "auto"'s verdicts, decided positions and sink order equal
//     those of nfa and nfa_index (and BoolEval's verdicts) on generated
//     documents, before and after Unsubscribe/Compact churn.
//
//  4. Soundness: under an admission budget, the charges of the slots on
//     the index never sum below the index's B — admission stays sound
//     with unchanged charges.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "planner/cost_model.h"
#include "stream/nfa_index.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "workload/scenarios.h"
#include "xml/stats.h"
#include "xml/writer.h"
#include "xpath/evaluator.h"
#include "xpstream/planner.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

struct Corpus {
  std::string name;
  EventStream events;
};

std::vector<Corpus> AdversarialCorpora() {
  return {{"deep_recursion", GenerateDeepRecursionDocument(64)},
          {"wide_fanout", GenerateWideFanoutDocument(256)},
          {"e5_blowup", GenerateBlowupDocument(12)}};
}

TEST(PlannerPopulationTest, PopulationBoundWithinStatedFactor) {
  Random rng(15);
  for (const Corpus& corpus : AdversarialCorpora()) {
    DocumentProfile profile;
    profile.ObserveEvents(corpus.events);
    for (size_t population : {size_t{1}, size_t{16}, size_t{256}}) {
      NfaIndex index;
      std::vector<CompiledQuery> keep;
      for (const std::string& text : GeneratePathQueries(
               &rng, {corpus.events}, population, 0.3, 0.15)) {
        auto query = CompileQuery(text);
        ASSERT_TRUE(query.ok()) << text;
        ASSERT_TRUE(index.AddQuery(keep.size(), *query->query()).ok());
        keep.push_back(std::move(query).value());
      }
      ASSERT_TRUE(index.FilterDocument(corpus.events).ok());
      const size_t measured = index.stats().PeakBytes(16);
      const size_t predicted =
          NfaIndexPopulationCost(index.Shape(), profile).PredictedPeakBytes();
      EXPECT_GE(predicted * 3, measured * 2)
          << corpus.name << " |P|=" << population << ": predicted "
          << predicted << " vs measured " << measured;
      EXPECT_LE(predicted, measured * 10)
          << corpus.name << " |P|=" << population << ": predicted "
          << predicted << " vs measured " << measured;
    }
  }
}

/// A dissemination population: 1,000 linear queries written against a
/// corpus of generated documents (GeneratePathQueries), subscribed
/// 4,000 times with heavy duplication (query index ~ n·u^1.5 favours
/// the first queries). `corpus` receives the documents.
std::vector<std::string> DuplicateHeavyPopulation(
    uint64_t seed, std::vector<std::unique_ptr<XmlDocument>>* corpus) {
  Random rng(seed);
  DocGenOptions options;
  options.max_depth = 4;
  options.max_fanout = 4;
  options.name_pool = 8;
  std::vector<EventStream> documents;
  for (size_t d = 0; d < 16; ++d) {
    corpus->push_back(GenerateRandomDocument(&rng, options));
    documents.push_back(corpus->back()->ToEvents());
  }
  const std::vector<std::string> queries =
      GeneratePathQueries(&rng, documents, 1000, 0.3, 0.1);
  std::vector<std::string> subscriptions;
  for (size_t i = 0; i < 4000; ++i) {
    const double u = static_cast<double>(rng.Uniform(1u << 20)) / (1u << 20);
    subscriptions.push_back(
        queries[static_cast<size_t>(u * std::sqrt(u) * queries.size())]);
  }
  return subscriptions;
}

TEST(PlannerPopulationTest, AutoPutsADuplicateHeavyPopulationOnTheIndex) {
  for (uint64_t seed : {1, 42, 1009}) {
    auto engine = Engine::Create("auto");
    ASSERT_TRUE(engine.ok());
    std::vector<std::unique_ptr<XmlDocument>> corpus;
    const std::vector<std::string> population =
        DuplicateHeavyPopulation(seed, &corpus);
    for (size_t i = 0; i < population.size(); ++i) {
      ASSERT_TRUE(
          (*engine)->Subscribe("s" + std::to_string(i), population[i]).ok());
    }
    const size_t slots = (*engine)->num_eval_slots();
    EXPECT_GE(slots, 300u);
    // Under the assumed profile (18 levels) every floating state is
    // priced at 18 run entries, so a few `//`-heavy queries stay on
    // their standalone engine.
    EXPECT_GE((*engine)->eval_slots_on("nfa_index") * 100, slots * 90)
        << "seed " << seed << ": " << (*engine)->eval_slots_on("nfa_index")
        << " of " << slots << " slots on nfa_index";
    // Every slot is accounted to exactly one routed engine.
    size_t routed = 0;
    for (const std::string& name : Engine::AvailableEngines()) {
      routed += (*engine)->eval_slots_on(name);
    }
    EXPECT_EQ(routed, slots);

    // Once a document taught the planner the stream's real depth, the
    // compaction routes the population afresh: the steady state.
    ASSERT_TRUE((*engine)->FilterEvents(corpus.front()->ToEvents()).ok());
    ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
    EXPECT_GE((*engine)->eval_slots_on("nfa_index") * 100, slots * 95)
        << "seed " << seed << ": " << (*engine)->eval_slots_on("nfa_index")
        << " of " << slots << " slots on nfa_index at observed depth "
        << (*engine)->observed_profile().max_depth;
  }
}

/// Records every callback in arrival order.
struct RecordingSink : ResultSink {
  std::vector<std::tuple<size_t, size_t, size_t>> matches;
  void OnMatch(size_t slot, size_t doc_index, size_t ordinal) override {
    matches.emplace_back(slot, doc_index, ordinal);
  }
};

struct EngineRun {
  std::unique_ptr<Engine> engine;
  RecordingSink sink;
};

TEST(PlannerPopulationTest, AutoAnswersEqualTheRoutedEngines) {
  Random rng(7);
  std::vector<std::string> queries;
  for (size_t i = 0; i < 300; ++i) {
    auto query = GenerateLinearQuery(&rng, 1 + rng.Uniform(4), 0.3, 0.15, 4);
    ASSERT_TRUE(query.ok());
    queries.push_back((*query)->ToString());
  }
  DocGenOptions doc_options;
  doc_options.max_depth = 6;
  doc_options.names = {"s0", "s1", "s2", "s3"};
  std::vector<std::unique_ptr<XmlDocument>> documents;
  std::vector<std::string> xmls;
  for (size_t d = 0; d < 12; ++d) {
    documents.push_back(GenerateRandomDocument(&rng, doc_options));
    auto xml = DocumentToXml(*documents.back());
    ASSERT_TRUE(xml.ok());
    xmls.push_back(*xml);
  }

  std::vector<EngineRun> runs(3);
  const char* kEngines[] = {"auto", "nfa", "nfa_index"};
  for (size_t r = 0; r < runs.size(); ++r) {
    auto engine = Engine::Create(kEngines[r]);
    ASSERT_TRUE(engine.ok());
    runs[r].engine = std::move(engine).value();
    runs[r].engine->SetSink(&runs[r].sink);
  }
  auto subscribe = [&](size_t q) {
    const DeliveryMode mode =
        q % 2 == 0 ? DeliveryMode::kEarliest : DeliveryMode::kAtEnd;
    for (EngineRun& run : runs) {
      ASSERT_TRUE(run.engine->Subscribe("q" + std::to_string(q), queries[q],
                                        mode)
                      .ok());
    }
  };
  auto check = [&](const char* phase) {
    for (size_t d = 0; d < xmls.size(); ++d) {
      for (EngineRun& run : runs) ASSERT_TRUE(run.engine->FilterXml(xmls[d]).ok());
      const std::vector<std::string> ids = runs[0].engine->subscription_ids();
      for (size_t r = 1; r < runs.size(); ++r) {
        EXPECT_EQ(runs[r].engine->last_verdicts(),
                  runs[0].engine->last_verdicts())
            << phase << " doc " << d << " vs " << kEngines[r];
        EXPECT_EQ(runs[r].engine->last_decided_at(),
                  runs[0].engine->last_decided_at())
            << phase << " doc " << d << " vs " << kEngines[r];
        EXPECT_EQ(runs[r].sink.matches, runs[0].sink.matches)
            << phase << " doc " << d << " vs " << kEngines[r];
      }
      for (size_t s = 0; s < ids.size(); ++s) {
        auto query = runs[0].engine->SubscribedQuery(ids[s]);
        ASSERT_TRUE(query.ok());
        EXPECT_EQ(runs[0].engine->last_verdicts()[s],
                  BoolEval(*(*query)->query(), *documents[d]))
            << phase << " " << ids[s] << " " << (*query)->text();
      }
      if (::testing::Test::HasFailure()) return;
    }
  };

  for (size_t q = 0; q < 200; ++q) subscribe(q);
  EXPECT_GT(runs[0].engine->eval_slots_on("nfa_index"), 0u);
  EXPECT_GT(runs[0].engine->eval_slots_on("nfa"), 0u);
  check("initial");

  // Churn: drop every third subscription, add the rest of the queries,
  // then compact (which routes the survivors afresh).
  for (size_t q = 0; q < 200; q += 3) {
    for (EngineRun& run : runs) {
      ASSERT_TRUE(run.engine->Unsubscribe("q" + std::to_string(q)).ok());
    }
  }
  for (size_t q = 200; q < queries.size(); ++q) subscribe(q);
  check("churned");
  for (EngineRun& run : runs) ASSERT_TRUE(run.engine->CompactSubscriptions().ok());
  EXPECT_EQ(runs[0].engine->tombstoned_slots(), 0u);
  check("compacted");

  // Nothing tombstoned and nothing to re-route: a second compaction is
  // a no-op.
  const size_t rebuilds = runs[0].engine->automaton_rebuilds();
  ASSERT_TRUE(runs[0].engine->CompactSubscriptions().ok());
  EXPECT_EQ(runs[0].engine->automaton_rebuilds(), rebuilds);
}

/// The index member's B, rebuilt from the outside: the trie of the
/// queries PlanOf reports on nfa_index, in subscription order (valid
/// while nothing on the index has been unsubscribed since the last
/// compaction — removed queries' states stay in the trie until then).
size_t IndexBound(const Engine& engine, size_t* charged) {
  NfaIndex index;
  *charged = 0;
  // Duplicate subscribers (the same text here) share one slot and its
  // one charge.
  std::set<std::string> slots;
  for (const std::string& id : engine.subscription_ids()) {
    auto plan = engine.PlanOf(id);
    EXPECT_TRUE(plan.ok());
    if (plan->engine != "nfa_index") continue;
    auto query = engine.SubscribedQuery(id);
    EXPECT_TRUE(query.ok());
    if (!slots.insert((*query)->text()).second) continue;
    EXPECT_TRUE(index.AddQuery(slots.size(), *(*query)->query()).ok());
    *charged += plan->predicted_peak_bytes;
  }
  if (slots.empty()) return 0;  // no index member was ever created
  return NfaIndexPopulationCost(index.Shape(), engine.observed_profile())
      .PredictedPeakBytes();
}

TEST(PlannerPopulationTest, AdmissionChargesCoverTheIndexBound) {
  std::vector<std::unique_ptr<XmlDocument>> corpus;
  const std::vector<std::string> population =
      DuplicateHeavyPopulation(42, &corpus);
  for (AdmissionPolicy policy :
       {AdmissionPolicy::kReject, AdmissionPolicy::kDegrade}) {
    EngineOptions options;
    options.engine = "auto";
    options.memory_budget_bytes = 96 * 1024;
    options.admission = policy;
    auto engine = Engine::Create(options);
    ASSERT_TRUE(engine.ok());
    size_t admitted = 0;
    for (size_t i = 0; i < population.size(); ++i) {
      Status status =
          (*engine)->Subscribe("s" + std::to_string(i), population[i]);
      if (status.ok()) {
        ++admitted;
      } else {
        ASSERT_EQ(status.code(), StatusCode::kResourceExhausted);
      }
      if (i % 97 != 0) continue;
      size_t charged = 0;
      const size_t bound = IndexBound(**engine, &charged);
      EXPECT_LE(bound, charged) << "after subscription " << i;
      EXPECT_LE(charged, (*engine)->predicted_peak_bytes());
    }
    if (policy == AdmissionPolicy::kReject) {
      EXPECT_GT((*engine)->admission_rejects(), 0u);
      EXPECT_LE((*engine)->predicted_peak_bytes(), options.memory_budget_bytes);
    }
    EXPECT_GT(admitted, 0u);
    // Removals release charges while the states stay; compaction
    // rebuilds the index from the survivors and restores the invariant.
    const std::vector<std::string> ids = (*engine)->subscription_ids();
    for (size_t i = 0; i < ids.size(); i += 2) {
      ASSERT_TRUE((*engine)->Unsubscribe(ids[i]).ok());
    }
    ASSERT_TRUE((*engine)->CompactSubscriptions().ok());
    size_t charged = 0;
    EXPECT_LE(IndexBound(**engine, &charged), charged);
  }
}

}  // namespace
}  // namespace xpstream
