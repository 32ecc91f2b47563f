#include "layers.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "xml/arena.h"
#include "xml/parser.h"
#include "xml/symbol_table.h"
#include "xpstream/engine.h"
#include "xpstream/pipeline.h"
#include "xpstream/planner.h"
#include "xpstream/query.h"

namespace perfbench {
namespace {

using xpstream::DeliveryMode;

struct CountingSink : xpstream::EventSink {
  size_t events = 0;
  xpstream::Status OnEvent(const xpstream::Event&) override {
    ++events;
    return xpstream::Status::OK();
  }
};

struct CountingPoolSink : xpstream::PoolSink {
  std::atomic<uint64_t> done{0};
  void OnDocumentDone(uint64_t, const xpstream::SubscriptionIds&, std::vector<bool>,
                      std::vector<size_t>) override {
    done.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Makes passes of fn(0) ... fn(n - 1) until `budget_us` has passed (at
/// least one pass), with one `name` span per pass under `parent`: a
/// span per call would hold millions of spans for the µs-scale calls.
/// Returns (calls, elapsed us).
template <typename Fn>
std::pair<size_t, double> Passes(Tracer* tracer, const char* name, int parent,
                                 double budget_us, size_t n, Fn fn) {
  const double start = NowUs();
  size_t calls = 0;
  do {
    ScopedSpan pass(tracer, name, parent);
    for (size_t i = 0; i < n; ++i, ++calls) fn(i);
  } while (NowUs() - start < budget_us);
  return {calls, NowUs() - start};
}

xpstream::EngineOptions EngineOptionsFor(const Workload& w) {
  xpstream::EngineOptions options;
  options.engine = w.engine;
  options.keep_history = false;  // as xpstreamd runs it
  return options;
}

/// Subscribes the workload's whole set-up population on `target`.
template <typename Target>
void SubscribePopulation(const Workload& w, Target* target) {
  for (size_t c = 0; c < w.conns.size(); ++c) {
    const auto& subs = w.conns[c].subs;
    for (size_t i = 0; i < subs.size(); ++i) {
      (void)target->Subscribe("c" + std::to_string(c) + "-" + std::to_string(i),
                              w.queries[subs[i].query],
                              subs[i].earliest ? DeliveryMode::kEarliest : DeliveryMode::kAtEnd);
    }
  }
}

}  // namespace

std::vector<Metric> RunLayers(const Workload& w, double budget_s, Tracer* tracer) {
  std::vector<Metric> out;
  auto add = [&out](const char* name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  const double budget = budget_s * 1e6 / 7;  // seven probes below
  const size_t n_docs = w.xml.size();
  size_t total_bytes = 0;
  for (const std::string& xml : w.xml) total_bytes += xml.size();
  const double bytes_per_doc = static_cast<double>(total_bytes) / static_cast<double>(n_docs);

  // xml: whole-document parse over stable input, as FilterXml runs it.
  {
    ScopedSpan layer(tracer, "layer.xml.parse");
    CountingSink sink;
    xpstream::Arena arena;
    xpstream::XmlParserOptions options;
    options.stable_input = true;
    options.arena = &arena;
    const auto [calls, us] = Passes(tracer, "xml.parse", layer.id(), budget, n_docs, [&](size_t i) {
      xpstream::XmlParser parser(&sink, options);
      (void)parser.Feed(w.xml[i]);
      (void)parser.Finish();
      arena.Reset();
    });
    add("xml.parse_mb_per_s", bytes_per_doc * static_cast<double>(calls) / us, "MB/s");
    add("xml.events_per_doc", static_cast<double>(sink.events) / static_cast<double>(calls),
        "count");
  }
  // xml: streaming Feed with interning, at the workload's chunking.
  {
    ScopedSpan layer(tracer, "layer.xml.feed");
    CountingSink sink;
    xpstream::SymbolTable symbols;
    xpstream::XmlParserOptions options;
    options.symbols = &symbols;
    size_t arena_peak = 0;
    const auto [calls, us] = Passes(tracer, "xml.feed", layer.id(), budget, n_docs, [&](size_t i) {
      xpstream::XmlParser parser(&sink, options);
      for (const std::string& chunk : w.chunks[i]) (void)parser.Feed(chunk);
      (void)parser.Finish();
      arena_peak = std::max(arena_peak, parser.ArenaFootprintBytes());
    });
    add("xml.feed_mb_per_s", bytes_per_doc * static_cast<double>(calls) / us, "MB/s");
    add("xml.arena_peak_bytes", static_cast<double>(arena_peak), "bytes");
  }
  // xpath: compiling the workload's distinct queries.
  std::vector<xpstream::CompiledQuery> compiled;
  {
    ScopedSpan layer(tracer, "layer.xpath.compile");
    const auto [calls, us] = Passes(tracer, "xpath.compile", layer.id(), budget, w.queries.size(), [&](size_t i) {
      auto query = xpstream::CompileQuery(w.queries[i]);
      if (query.ok() && compiled.size() < w.queries.size()) compiled.push_back(std::move(query).value());
    });
    add("xpath.compile_us_per_query", us / static_cast<double>(calls), "us");
  }
  // api / stream / planner on one Engine holding the workload's population.
  {
    auto created = xpstream::Engine::Create(EngineOptionsFor(w));
    if (!created.ok()) return out;
    std::unique_ptr<xpstream::Engine> engine = std::move(created).value();
    SubscribePopulation(w, engine.get());
    {
      ScopedSpan layer(tracer, "layer.api.filter_xml");
      const auto [calls, us] = Passes(tracer, "api.filter_xml", layer.id(), budget, n_docs,
                                      [&](size_t i) { (void)engine->FilterXml(w.xml[i]); });
      add("api.filter_xml_us_per_doc", us / static_cast<double>(calls), "us");
    }
    {
      std::vector<xpstream::EventBuffer> parsed;
      for (const std::string& xml : w.xml) {
        auto events = xpstream::ParseXmlToEvents(xml);
        if (events.ok()) parsed.push_back(std::move(events).value());
      }
      ScopedSpan layer(tracer, "layer.stream.match");
      const auto [calls, us] =
          Passes(tracer, "stream.match", layer.id(), budget, parsed.size(),
                 [&](size_t i) { (void)engine->FilterEvents(parsed[i].events()); });
      add("stream.match_us_per_doc", us / static_cast<double>(calls), "us");
      add("stream.peak_table_entries", static_cast<double>(engine->peak_table_entries()), "count");
      add("stream.peak_buffered_bytes", static_cast<double>(engine->peak_buffered_bytes()),
          "bytes");
    }
    {
      ScopedSpan layer(tracer, "layer.planner.plan");
      const xpstream::DocumentProfile& profile = engine->observed_profile();
      const auto [calls, us] =
          Passes(tracer, "planner.plan", layer.id(), budget / 2, compiled.size(),
                 [&](size_t i) { (void)xpstream::PlanQuery(compiled[i], profile); });
      add("planner.plan_us_per_query", us / static_cast<double>(calls), "us");
    }
    {
      // Subscribe/Unsubscribe pairs at the workload's population, with a
      // timed COMPACT after every 32 pairs.
      ScopedSpan layer(tracer, "layer.api.mutate");
      std::vector<double> sub_us, unsub_us, compact_ms;
      size_t next = 0;
      Passes(tracer, "api.mutate_round", layer.id(), budget / 2, 1, [&](size_t) {
        for (int k = 0; k < 32; ++k, ++next) {
          const std::string id = "extra-" + std::to_string(next);
          const double t0 = NowUs();
          (void)engine->Subscribe(id, w.queries[next % w.queries.size()]);
          const double t1 = NowUs();
          (void)engine->Unsubscribe(id);
          sub_us.push_back(t1 - t0);
          unsub_us.push_back(NowUs() - t1);
        }
        const double t0 = NowUs();
        (void)engine->CompactSubscriptions();
        compact_ms.push_back((NowUs() - t0) / 1e3);
      });
      add("api.subscribe_us", Quantile(sub_us, 0.5), "us");
      add("api.unsubscribe_us", Quantile(unsub_us, 0.5), "us");
      add("api.compact_ms", Quantile(compact_ms, 0.5), "ms");
    }
  }
  // pipeline: an EnginePool of two workers, in process.
  {
    xpstream::PipelineOptions options;
    options.engine = EngineOptionsFor(w);
    options.workers = 2;
    auto created = xpstream::EnginePool::Create(options);
    if (!created.ok()) return out;
    std::unique_ptr<xpstream::EnginePool> pool = std::move(created).value();
    SubscribePopulation(w, pool.get());
    CountingPoolSink sink;
    pool->SetSink(&sink);
    {
      ScopedSpan layer(tracer, "layer.pipeline.submit");
      const double start = NowUs();
      const size_t calls =
          Passes(tracer, "pipeline.submit", layer.id(), budget, n_docs,
                 [&](size_t i) { (void)pool->SubmitXml(w.xml[i]); })
              .first;
      {
        ScopedSpan span(tracer, "pipeline.drain", layer.id());
        pool->Drain();
      }
      add("pipeline.docs_per_s", static_cast<double>(calls) * 1e6 / (NowUs() - start), "1/s");
      add("pipeline.queue_peak", static_cast<double>(pool->queue_peak()), "count");
    }
    {
      // Subscribe + Unsubscribe while a publisher thread keeps the queue
      // full: each mutation pays the pool's quiesce.
      ScopedSpan layer(tracer, "layer.pipeline.mutate");
      std::atomic<bool> stop{false};
      std::thread feeder([&] {
        for (size_t i = 0; !stop.load(); ++i) (void)pool->SubmitXml(w.xml[i % n_docs]);
      });
      std::vector<double> pair_us;
      size_t next = 0;
      Passes(tracer, "pipeline.mutation", layer.id(), budget, 8, [&](size_t) {
        const std::string id = "live-" + std::to_string(next);
        const double t0 = NowUs();
        (void)pool->Subscribe(id, w.queries[next++ % w.queries.size()]);
        (void)pool->Unsubscribe(id);
        pair_us.push_back(NowUs() - t0);
      });
      stop.store(true);
      feeder.join();
      pool->Drain();
      add("pipeline.mutation_us", Quantile(pair_us, 0.5), "us");
    }
    pool->SetSink(nullptr);
  }
  return out;
}

}  // namespace perfbench
