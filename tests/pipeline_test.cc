// The EnginePool (include/xpstream/pipeline.h): N worker replicas of
// one logical subscription population behind a bounded document queue.
// The acceptance contract: per-document results (verdicts, decided
// positions, the OnMatch sequence) observed through the pool under K
// concurrent submitters are bit-identical to a serial Engine fed the
// same documents — for every registered engine and for "auto" — and
// the control plane (Subscribe/Unsubscribe/Compact) mutates every
// replica atomically while live traffic keeps flowing.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "workload/doc_generator.h"
#include "workload/query_generator.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xpstream/pipeline.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

std::vector<std::string> GeneratedQueries(size_t count, uint64_t seed) {
  Random rng(seed);
  std::vector<std::string> queries;
  for (size_t i = 0; i < count; ++i) {
    auto query = GenerateLinearQuery(&rng, 1 + rng.Uniform(5), 0.35, 0.15, 4);
    EXPECT_TRUE(query.ok());
    queries.push_back((*query)->ToString());
  }
  return queries;
}

std::vector<std::string> XmlCorpus(size_t docs, uint64_t seed) {
  Random rng(seed);
  DocGenOptions options;
  options.max_depth = 6;
  options.name_pool = 4;
  options.names = {"s0", "s1", "s2", "s3"};
  std::vector<std::string> corpus;
  for (size_t i = 0; i < docs; ++i) {
    auto doc = GenerateRandomDocument(&rng, options);
    auto xml = DocumentToXml(*doc);
    EXPECT_TRUE(xml.ok());
    corpus.push_back(*xml);
  }
  return corpus;
}

DeliveryMode ModeOf(size_t q) {
  return q % 3 == 0 ? DeliveryMode::kAtEnd : DeliveryMode::kEarliest;
}

// What a serial engine produced for one document.
struct DocExpected {
  std::vector<std::pair<size_t, size_t>> matches;  // (sub, ordinal), in order
  std::vector<bool> verdicts;
  std::vector<size_t> decided;
};

struct MatchRecorder : ResultSink {
  std::vector<std::pair<size_t, size_t>> matches;
  void OnMatch(size_t sub, size_t, size_t ordinal) override {
    matches.emplace_back(sub, ordinal);
  }
};

// Runs a serial Engine over the corpus, one subscription per query
// (ids "s0".."sN", modes via ModeOf), and returns per-document results.
std::vector<DocExpected> SerialReference(
    const EngineOptions& options, const std::vector<std::string>& queries,
    const std::vector<std::string>& corpus) {
  std::vector<DocExpected> expected;
  auto engine = Engine::Create(options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  if (!engine.ok()) return expected;
  MatchRecorder sink;
  (*engine)->SetSink(&sink);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(
        (*engine)
            ->Subscribe("s" + std::to_string(q), queries[q], ModeOf(q))
            .ok())
        << queries[q];
  }
  for (const std::string& xml : corpus) {
    sink.matches.clear();
    auto verdicts = (*engine)->FilterXml(xml);
    EXPECT_TRUE(verdicts.ok());
    expected.push_back({sink.matches,
                        verdicts.ok() ? *verdicts : std::vector<bool>{},
                        (*engine)->last_decided_at()});
  }
  return expected;
}

// Thread-safe PoolSink keyed by pool document index. Callbacks for
// different documents arrive concurrently, so every touch locks.
struct RecordingSink : PoolSink {
  struct Doc {
    std::vector<std::pair<size_t, size_t>> matches;
    std::vector<bool> verdicts;
    std::vector<size_t> decided;
    std::vector<std::string> ids;
    bool done = false;
    bool failed = false;
  };
  std::mutex mutex;
  std::map<uint64_t, Doc> docs;

  void OnMatch(uint64_t doc, size_t sub, size_t ordinal,
               const SubscriptionIds&) override {
    std::lock_guard<std::mutex> lock(mutex);
    docs[doc].matches.emplace_back(sub, ordinal);
  }
  void OnDocumentDone(uint64_t doc, const SubscriptionIds& ids,
                      std::vector<bool> verdicts,
                      std::vector<size_t> decided) override {
    std::lock_guard<std::mutex> lock(mutex);
    Doc& record = docs[doc];
    record.verdicts = std::move(verdicts);
    record.decided = std::move(decided);
    record.ids = *ids;
    record.done = true;
  }
  void OnDocumentError(uint64_t doc, Status) override {
    std::lock_guard<std::mutex> lock(mutex);
    docs[doc].failed = true;
  }
};

// The tentpole contract: K concurrent submitters through a 4-worker
// pool see exactly what a serial engine sees, per document, for every
// registered engine and the planner-routed meta-engine.
TEST(EnginePoolTest, ConcurrentSubmittersMatchSerialEngineAllEngines) {
  const std::vector<std::string> queries = GeneratedQueries(11, 20260808);
  const std::vector<std::string> corpus = XmlCorpus(8, 21);
  constexpr size_t kRounds = 3;
  constexpr size_t kSubmitters = 4;

  std::vector<std::string> engines = Engine::AvailableEngines();
  engines.push_back("auto");
  for (const std::string& name : engines) {
    EngineOptions engine_options;
    engine_options.engine = name;
    engine_options.keep_history = false;
    const std::vector<DocExpected> expected =
        SerialReference(engine_options, queries, corpus);

    PipelineOptions options;
    options.engine = engine_options;
    options.workers = 4;
    options.queue_depth = 8;
    auto pool = EnginePool::Create(options);
    ASSERT_TRUE(pool.ok()) << name;
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE(
          (*pool)
              ->Subscribe("s" + std::to_string(q), queries[q], ModeOf(q))
              .ok())
          << name << " " << queries[q];
    }
    RecordingSink sink;
    (*pool)->SetSink(&sink);

    // Each submitter claims corpus slots off a shared cursor; which
    // document index a submission got is only known per-call, so the
    // doc -> corpus mapping is recorded as it happens.
    std::mutex map_mutex;
    std::map<uint64_t, size_t> corpus_of_doc;
    std::atomic<size_t> cursor{0};
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        while (true) {
          const size_t i = cursor.fetch_add(1);
          if (i >= corpus.size() * kRounds) break;
          const size_t ci = i % corpus.size();
          uint64_t doc = 0;
          EXPECT_TRUE((*pool)->SubmitXml(corpus[ci], &doc).ok());
          std::lock_guard<std::mutex> lock(map_mutex);
          corpus_of_doc[doc] = ci;
        }
      });
    }
    for (std::thread& thread : submitters) thread.join();
    (*pool)->Drain();

    EXPECT_EQ((*pool)->documents_submitted(), corpus.size() * kRounds);
    ASSERT_EQ((*pool)->documents_done(), corpus.size() * kRounds) << name;
    ASSERT_EQ(corpus_of_doc.size(), corpus.size() * kRounds) << name;
    for (const auto& [doc, ci] : corpus_of_doc) {
      const RecordingSink::Doc& got = sink.docs[doc];
      const DocExpected& want = expected[ci];
      EXPECT_FALSE(got.failed) << name << " doc " << doc;
      ASSERT_TRUE(got.done) << name << " doc " << doc;
      EXPECT_EQ(got.matches, want.matches) << name << " doc " << doc;
      EXPECT_EQ(got.verdicts, want.verdicts) << name << " doc " << doc;
      EXPECT_EQ(got.decided, want.decided) << name << " doc " << doc;
      ASSERT_EQ(got.ids.size(), queries.size()) << name;
      for (size_t q = 0; q < queries.size(); ++q) {
        EXPECT_EQ(got.ids[q], "s" + std::to_string(q)) << name;
      }
    }
  }
}

// Pre-parsed event batches (the TCP server's path) land on the same
// results as the XML bytes they came from.
TEST(EnginePoolTest, PreParsedEventsMatchXmlSubmission) {
  const std::vector<std::string> queries = GeneratedQueries(5, 77);
  const std::vector<std::string> corpus = XmlCorpus(4, 5);

  PipelineOptions options;
  options.engine.engine = "frontier";
  options.workers = 2;
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(
        (*pool)->Subscribe("s" + std::to_string(q), queries[q]).ok());
  }
  RecordingSink sink;
  (*pool)->SetSink(&sink);

  std::vector<std::pair<uint64_t, uint64_t>> twins;  // (as-events, as-xml)
  for (const std::string& xml : corpus) {
    auto events = ParseXmlToEvents(xml);
    ASSERT_TRUE(events.ok());
    uint64_t from_events = 0;
    ASSERT_TRUE(
        (*pool)->TrySubmitEvents(std::move(*events), &from_events).ok());
    uint64_t from_xml = 0;
    ASSERT_TRUE((*pool)->SubmitXml(xml, &from_xml).ok());
    twins.emplace_back(from_events, from_xml);
  }
  (*pool)->Drain();

  for (const auto& [from_events, from_xml] : twins) {
    const RecordingSink::Doc& a = sink.docs[from_events];
    const RecordingSink::Doc& b = sink.docs[from_xml];
    ASSERT_TRUE(a.done && b.done);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.verdicts, b.verdicts);
    EXPECT_EQ(a.decided, b.decided);
  }
}

// Round-robin dispatch trades work conservation for a deterministic
// document -> replica assignment; results must not change.
TEST(EnginePoolTest, RoundRobinDispatchKeepsParity) {
  const std::vector<std::string> queries = GeneratedQueries(7, 99);
  const std::vector<std::string> corpus = XmlCorpus(6, 3);
  EngineOptions engine_options;
  engine_options.engine = "nfa";
  engine_options.keep_history = false;
  const std::vector<DocExpected> expected =
      SerialReference(engine_options, queries, corpus);

  PipelineOptions options;
  options.engine = engine_options;
  options.workers = 2;
  options.dispatch = DispatchPolicy::kRoundRobin;
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(
        (*pool)
            ->Subscribe("s" + std::to_string(q), queries[q], ModeOf(q))
            .ok());
  }
  RecordingSink sink;
  (*pool)->SetSink(&sink);
  for (size_t ci = 0; ci < corpus.size(); ++ci) {
    uint64_t doc = 0;
    ASSERT_TRUE((*pool)->SubmitXml(corpus[ci], &doc).ok());
    // Single-threaded submission assigns indices in order.
    EXPECT_EQ(doc, ci);
  }
  (*pool)->Drain();
  for (size_t ci = 0; ci < corpus.size(); ++ci) {
    const RecordingSink::Doc& got = sink.docs[ci];
    ASSERT_TRUE(got.done);
    EXPECT_EQ(got.matches, expected[ci].matches) << "doc " << ci;
    EXPECT_EQ(got.verdicts, expected[ci].verdicts) << "doc " << ci;
    EXPECT_EQ(got.decided, expected[ci].decided) << "doc " << ci;
  }
}

// A sink that parks the worker inside a document's completion callback
// until released — pins one document "in evaluation" so queue-full
// states can be asserted deterministically, without timing.
struct GateSink : PoolSink {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;

  void OnDocumentDone(uint64_t, const SubscriptionIds&, std::vector<bool>,
                      std::vector<size_t>) override {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return open; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
};

// Deterministic backpressure: with the single worker parked in the
// gate and the depth-1 queue holding the next document, TrySubmitXml
// must reject (and count) while the gauges show exactly one queued and
// one in-flight document.
TEST(EnginePoolTest, FullQueueRejectsTrySubmitAndCountsIt) {
  PipelineOptions options;
  options.engine.engine = "frontier";
  options.workers = 1;
  options.queue_depth = 1;
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  GateSink gate;
  (*pool)->SetSink(&gate);

  uint64_t first = 0;
  ASSERT_TRUE((*pool)->SubmitXml("<a/>", &first).ok());
  // Blocks until the worker takes the first document, then occupies
  // the whole queue; the worker is parked in the gate from here on.
  uint64_t second = 0;
  ASSERT_TRUE((*pool)->SubmitXml("<a/>", &second).ok());
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);

  uint64_t third = 99;
  Status rejected = (*pool)->TrySubmitXml("<a/>", &third);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted)
      << rejected.ToString();
  EXPECT_EQ(third, 99u);  // untouched on rejection
  EXPECT_EQ((*pool)->docs_queued(), 1u);
  EXPECT_EQ((*pool)->docs_in_flight(), 1u);
  EXPECT_EQ((*pool)->queue_rejects(), 1u);

  gate.Open();
  (*pool)->Drain();
  EXPECT_EQ((*pool)->documents_done(), 2u);
  EXPECT_EQ((*pool)->documents_submitted(), 2u);
  EXPECT_GE((*pool)->queue_peak(), 2u);
  EXPECT_EQ((*pool)->docs_queued(), 0u);
  EXPECT_EQ((*pool)->docs_in_flight(), 0u);
}

// Subscribe/Unsubscribe/Compact while submitters keep publishing: the
// pool quiesces around each mutation, so every completed document was
// evaluated under one coherent population snapshot — its verdict
// vector is exactly as wide as the ids it reports, and the named
// subscriptions answer correctly whichever snapshot it was.
TEST(EnginePoolTest, MutationsQuiesceWithoutPerturbingTraffic) {
  PipelineOptions options;
  options.engine.engine = "frontier";
  options.workers = 3;
  options.queue_depth = 8;
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE((*pool)->Subscribe("hit", "//b").ok());
  ASSERT_TRUE((*pool)->Subscribe("miss", "//nosuchname").ok());
  RecordingSink sink;
  (*pool)->SetSink(&sink);

  constexpr int kDocs = 40;
  std::atomic<int> remaining{kDocs};
  auto publish = [&] {
    while (remaining.fetch_sub(1) > 0) {
      EXPECT_TRUE((*pool)->SubmitXml("<a><b>x</b></a>").ok());
    }
  };
  std::thread one(publish);
  std::thread two(publish);

  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*pool)->Subscribe("extra", "//a").ok()) << i;
    ASSERT_TRUE((*pool)->CompactSubscriptions().ok()) << i;
    ASSERT_TRUE((*pool)->Unsubscribe("extra").ok()) << i;
    ASSERT_TRUE((*pool)->CompactSubscriptions().ok()) << i;
  }
  one.join();
  two.join();
  (*pool)->Drain();

  EXPECT_EQ((*pool)->documents_done(), static_cast<uint64_t>(kDocs));
  // Every replica converged to the same final population.
  for (size_t i = 0; i < (*pool)->workers(); ++i) {
    EXPECT_EQ((*pool)->replica(i).NumSubscriptions(), 2u) << "replica " << i;
  }
  SubscriptionIds final_ids = (*pool)->subscription_ids();
  ASSERT_EQ(final_ids->size(), 2u);
  EXPECT_EQ((*final_ids)[0], "hit");
  EXPECT_EQ((*final_ids)[1], "miss");

  int docs_seen = 0;
  for (const auto& [doc, record] : sink.docs) {
    EXPECT_FALSE(record.failed) << "doc " << doc;
    ASSERT_TRUE(record.done) << "doc " << doc;
    ++docs_seen;
    ASSERT_EQ(record.verdicts.size(), record.ids.size()) << "doc " << doc;
    ASSERT_EQ(record.decided.size(), record.ids.size()) << "doc " << doc;
    for (size_t s = 0; s < record.ids.size(); ++s) {
      if (record.ids[s] == "hit" || record.ids[s] == "extra") {
        EXPECT_TRUE(record.verdicts[s]) << "doc " << doc << " " << record.ids[s];
      } else {
        EXPECT_EQ(record.ids[s], "miss");
        EXPECT_FALSE(record.verdicts[s]) << "doc " << doc;
      }
    }
  }
  EXPECT_EQ(docs_seen, kDocs);
}

// A failed Subscribe — malformed query, duplicate id, or a fragment
// the engine rejects — leaves every replica's population unchanged.
TEST(EnginePoolTest, FailedSubscribeLeavesEveryReplicaUnchanged) {
  PipelineOptions options;
  options.engine.engine = "nfa";
  options.workers = 3;
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  ASSERT_TRUE((*pool)->Subscribe("keep", "//a").ok());

  EXPECT_FALSE((*pool)->Subscribe("bad", "//a[").ok());    // parse error
  EXPECT_FALSE((*pool)->Subscribe("keep", "//b").ok());    // duplicate id
  EXPECT_FALSE((*pool)->Subscribe("pred", "//a[b]").ok()); // not linear
  for (size_t i = 0; i < (*pool)->workers(); ++i) {
    EXPECT_EQ((*pool)->replica(i).NumSubscriptions(), 1u) << "replica " << i;
  }
  SubscriptionIds ids = (*pool)->subscription_ids();
  ASSERT_EQ(ids->size(), 1u);
  EXPECT_EQ((*ids)[0], "keep");

  // And the pool is not wedged: the next valid Subscribe lands
  // everywhere.
  ASSERT_TRUE((*pool)->Subscribe("second", "//b").ok());
  for (size_t i = 0; i < (*pool)->workers(); ++i) {
    EXPECT_EQ((*pool)->replica(i).NumSubscriptions(), 2u) << "replica " << i;
  }
  EXPECT_FALSE((*pool)->Unsubscribe("never-there").ok());
}

// The list overload removes many ids in one mutation, all or nothing:
// an unknown or repeated id leaves every replica untouched.
TEST(EnginePoolTest, BatchUnsubscribeIsAllOrNothing) {
  PipelineOptions options;
  options.engine.engine = "auto";
  options.workers = 3;
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  for (const char* id : {"a", "b", "c", "d"}) {
    ASSERT_TRUE((*pool)->Subscribe(id, std::string("//") + id).ok());
  }
  EXPECT_EQ((*pool)->Unsubscribe(std::vector<std::string>{"a", "zz"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*pool)->Unsubscribe(std::vector<std::string>{"b", "b"}).code(),
            StatusCode::kInvalidArgument);
  for (size_t i = 0; i < (*pool)->workers(); ++i) {
    EXPECT_EQ((*pool)->replica(i).NumSubscriptions(), 4u) << "replica " << i;
  }
  ASSERT_TRUE((*pool)->Unsubscribe(std::vector<std::string>{"c", "a"}).ok());
  for (size_t i = 0; i < (*pool)->workers(); ++i) {
    EXPECT_EQ((*pool)->replica(i).subscription_ids(),
              (std::vector<std::string>{"b", "d"}))
        << "replica " << i;
  }
  SubscriptionIds ids = (*pool)->subscription_ids();
  EXPECT_EQ(*ids, (std::vector<std::string>{"b", "d"}));
  ASSERT_TRUE((*pool)->Unsubscribe(std::vector<std::string>{}).ok());
}

// Construction clamps and accessors.
TEST(EnginePoolTest, OptionsClampAndGaugesStartClean) {
  PipelineOptions options;
  options.engine.engine = "frontier";
  options.workers = 0;      // clamped to 1
  options.queue_depth = 0;  // clamped to 1
  auto pool = EnginePool::Create(options);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ((*pool)->workers(), 1u);
  EXPECT_EQ((*pool)->queue_depth(), 1u);
  EXPECT_EQ((*pool)->queue_peak(), 0u);
  EXPECT_EQ((*pool)->queue_rejects(), 0u);
  EXPECT_EQ((*pool)->documents_submitted(), 0u);
  EXPECT_EQ((*pool)->documents_done(), 0u);

  PipelineOptions bogus;
  bogus.engine.engine = "no_such";
  auto unknown = EnginePool::Create(bogus);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace xpstream
