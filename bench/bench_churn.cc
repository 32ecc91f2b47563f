// Experiment E12: subscription churn under live traffic. Replays the
// deterministic ChurnWorkload schedule — bursts of Subscribe /
// Unsubscribe interleaved with document deliveries and one mid-stream
// compaction — and reports the lifecycle costs: registration and
// removal latency, per-document dissemination cost while tombstones
// accumulate, and the (single) automaton rebuild the compaction pays.
//
// The contract measured here: Unsubscribe is tombstoning — a hash
// lookup, a binary search over the live subscription handles and one
// memmove per plain-data column (O(live subscriptions) words, no
// per-entry work), so removal latency is orders of magnitude below an
// automaton rebuild, and the rebuild counter stays at exactly the
// planted compactions.

#include <chrono>
#include <cstdio>
#include <string>

#include "workload/scenarios.h"
#include "xpstream/xpstream.h"

namespace xpstream {
namespace {

int RunE12() {
  std::printf("# E12: live Subscribe/Unsubscribe churn\n");
  std::printf("%-10s %-10s %-12s %-12s %-12s %-10s %-10s\n", "engine",
              "final_subs", "sub_ns/op", "unsub_ns/op", "us/doc",
              "rebuilds", "matches");

  const ChurnWorkload workload = MakeChurnWorkload(512, 8, 24, 2026);

  for (const char* name : {"nfa_index", "frontier"}) {
    EngineOptions options;
    options.engine = name;
    options.keep_history = false;
    auto engine = Engine::Create(options);
    if (!engine.ok()) return 1;

    using Clock = std::chrono::steady_clock;
    long long sub_ns = 0, unsub_ns = 0, doc_us = 0;
    size_t subs = 0, unsubs = 0, doc_count = 0, matches = 0;
    for (const ChurnWorkload::Op& op : workload.ops) {
      switch (op.kind) {
        case ChurnWorkload::OpKind::kSubscribe: {
          auto t0 = Clock::now();
          if (!(*engine)->Subscribe(op.id, workload.queries[op.index]).ok()) {
            return 1;
          }
          sub_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
          ++subs;
          break;
        }
        case ChurnWorkload::OpKind::kUnsubscribe: {
          auto t0 = Clock::now();
          if (!(*engine)->Unsubscribe(op.id).ok()) return 1;
          unsub_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count();
          ++unsubs;
          break;
        }
        case ChurnWorkload::OpKind::kCompact: {
          if (!(*engine)->CompactSubscriptions().ok()) return 1;
          break;
        }
        case ChurnWorkload::OpKind::kDocument: {
          auto t0 = Clock::now();
          auto verdicts =
              (*engine)->FilterEvents(workload.documents[op.index]);
          if (!verdicts.ok()) return 1;
          doc_us += std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - t0)
                        .count();
          ++doc_count;
          for (bool v : *verdicts) matches += v;
          break;
        }
      }
    }
    std::printf("%-10s %-10zu %-12lld %-12lld %-12lld %-10zu %-10zu\n", name,
                (*engine)->NumSubscriptions(),
                subs ? sub_ns / (long long)subs : 0,
                unsubs ? unsub_ns / (long long)unsubs : 0,
                doc_count ? doc_us / (long long)doc_count : 0,
                (*engine)->automaton_rebuilds(), matches);
  }
  std::printf(
      "\nexpectation: unsub_ns/op stays within a small factor of\n"
      "sub_ns/op (tombstoning, no rebuild), rebuilds equals the one\n"
      "planted compaction, and us/doc is steady while slots churn.\n");
  return 0;
}

}  // namespace
}  // namespace xpstream

int main() { return xpstream::RunE12(); }
