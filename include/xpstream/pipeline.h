#ifndef XPSTREAM_PUBLIC_PIPELINE_H_
#define XPSTREAM_PUBLIC_PIPELINE_H_

/// \file
/// Concurrent document ingestion: an EnginePool runs N worker replicas
/// of one logical subscription population, so many publishers stream
/// documents in parallel while keeping every per-document guarantee of
/// the serial Engine facade.
///
///   auto pool = EnginePool::Create({.engine = {.engine = "auto"},
///                                   .workers = 4});
///   (*pool)->Subscribe("cheap-books", "/book[price < 30]/title");
///   (*pool)->SetSink(&my_sink);
///   uint64_t doc;
///   (*pool)->SubmitXml(std::move(xml), &doc);   // returns immediately
///   (*pool)->Drain();                           // wait for completion
///
/// The model: documents are *independent* work items (the paper's
/// filtering problem carries no cross-document state beyond the slowly
/// growing document profile), so the pool parallelizes across
/// documents, never within one. Each replica owns a private SymbolTable
/// and matcher — document evaluation never synchronizes — while the
/// memoized lazy-DFA tables and the planner's DocumentProfile are
/// shared, so admission and "auto" routing decide identically on every
/// replica and a subscription's budget is charged once per logical
/// slot, not once per replica (see EngineSharedContext).
///
/// Per-document results are bit-identical to a serial Engine fed the
/// same document: verdicts, decided positions, and the MATCH callback
/// sequence within one document are deterministic. What concurrency
/// changes is only *interleaving across documents* — callbacks for
/// different documents may arrive in any order, tagged with the pool's
/// submission-assigned document index.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/event.h"
#include "xpstream/engine.h"

namespace xpstream {

/// How submitted documents are handed to worker replicas.
enum class DispatchPolicy {
  /// One shared queue; idle workers take the oldest waiting document.
  /// Work-conserving — no worker idles while a document waits — so it
  /// is the default.
  kLeastLoaded,
  /// Documents are dealt to per-worker queues in submission order,
  /// round-robin. Deterministic document->replica assignment (useful
  /// for tests and cache studies), at the price of possible idling.
  kRoundRobin,
};

/// EnginePool construction options.
struct PipelineOptions {
  /// Options for each worker replica. `engine.threads` composes: each
  /// replica may itself shard one document's evaluation, so total
  /// matching threads are workers x threads.
  EngineOptions engine;

  /// Worker replicas = documents evaluated concurrently. Values below
  /// 1 are treated as 1 (a pool of one is the serial facade behind an
  /// asynchronous submit API).
  size_t workers = 2;

  /// Documents that may wait in the queue beyond the ones being
  /// evaluated; at least 1. TrySubmit* rejects with kResourceExhausted
  /// when the queue is full — the pool's backpressure signal.
  size_t queue_depth = 16;

  /// Queue discipline; see DispatchPolicy.
  DispatchPolicy dispatch = DispatchPolicy::kLeastLoaded;
};

/// The subscription-id vector (registration order — the index space of
/// PoolSink callbacks) captured when a document was dispatched.
/// Shared, immutable: mutations between documents swap in a fresh
/// snapshot, so callbacks of in-flight documents keep the population
/// they were evaluated under.
using SubscriptionIds = std::shared_ptr<const std::vector<std::string>>;

/// Observer for pool results. Callbacks for ONE document arrive on the
/// worker thread that evaluated it, in the serial facade's order
/// (OnMatch calls in nondecreasing event-ordinal order, ascending
/// subscription within one ordinal, then the document's
/// OnDocumentDone). Callbacks for DIFFERENT documents run concurrently
/// on different worker threads — implementations synchronize their own
/// state. Override only what you need.
class PoolSink {
 public:
  virtual ~PoolSink() = default;

  /// Subscription `sub` (index into `ids`) matched document `doc`;
  /// `event_ordinal` is the deciding event's 0-based stream position,
  /// exactly as the serial facade reports it. Delivered at the
  /// deciding event for kEarliest subscriptions, at completion for
  /// kAtEnd ones.
  virtual void OnMatch(uint64_t doc, size_t sub, size_t event_ordinal,
                       const SubscriptionIds& ids) {
    (void)doc;
    (void)sub;
    (void)event_ordinal;
    (void)ids;
  }

  /// Document `doc` completed: per-subscription verdicts and decided
  /// positions in `ids` order, bit-identical to a serial engine fed the
  /// same document. Fires after all of the document's OnMatch calls.
  virtual void OnDocumentDone(uint64_t doc, const SubscriptionIds& ids,
                              std::vector<bool> verdicts,
                              std::vector<size_t> decided_at) {
    (void)doc;
    (void)ids;
    (void)verdicts;
    (void)decided_at;
  }

  /// Document `doc` failed (parse error, depth cap, entity-expansion
  /// cap, ...). No verdicts exist; the worker that reports it is
  /// already clean and evaluating other documents.
  virtual void OnDocumentError(uint64_t doc, Status status) {
    (void)doc;
    (void)status;
  }
};

/// A pool of Engine replicas evaluating independent documents
/// concurrently behind one logical subscription population.
///
/// Thread contract: Submit*/Drain may be called from any number of
/// publisher threads concurrently. The mutation calls (Subscribe,
/// Unsubscribe, CompactSubscriptions, SetSink) must not race each
/// other — call them from one control thread (the TCP server's event
/// loop, a test's main thread). Mutations quiesce evaluation: the pool
/// finishes in-flight documents, applies the change to every replica
/// atomically (rollback on partial failure), then resumes; the queue
/// keeps accepting submissions throughout.
class EnginePool {
 public:
  /// Creates the pool and starts its worker threads; kNotFound when
  /// options.engine.engine names no registered algorithm.
  static Result<std::unique_ptr<EnginePool>> Create(
      const PipelineOptions& options);

  /// Stops the workers and joins them. Documents still waiting in the
  /// queue are dropped unevaluated — call Drain() first when every
  /// submitted document must complete.
  ~EnginePool();

  // --- subscriptions (control thread) ------------------------------

  /// Subscribes `xpath` under `id` on every replica, atomically: on
  /// any replica's failure the already-subscribed replicas are rolled
  /// back and the pool is unchanged. Same per-replica semantics as
  /// Engine::Subscribe (dedup, admission control — priced once against
  /// the shared profile and budget).
  Status Subscribe(std::string id, std::string_view xpath,
                   DeliveryMode mode = DeliveryMode::kAtEnd);

  /// Removes subscription `id` from every replica (tombstone, no
  /// rebuild); kNotFound when unknown. Safe between documents of live
  /// traffic — the pool quiesces, so no publisher coordination needed.
  Status Unsubscribe(std::string_view id);

  /// Removes every subscription in `ids` from every replica under one
  /// quiesce — one pause of evaluation for the whole list, where
  /// per-id calls pause once each (a closing connection's
  /// subscriptions). All or nothing: the ids are checked first, and an
  /// unknown or repeated id fails the call (kNotFound /
  /// kInvalidArgument) with the pool unchanged. Every built-in engine
  /// accepts removals; an engine that refuses one fails the call after
  /// removing the ids before it, alike on every replica.
  Status Unsubscribe(const std::vector<std::string>& ids);

  /// Compacts every replica: reclaims tombstoned capacity and, under
  /// "auto", re-routes slots whose cheapest engine changed as the
  /// shared profile grew (Engine::CompactSubscriptions semantics).
  Status CompactSubscriptions();

  /// Attaches the result observer (nullptr detaches). Attach before
  /// submitting documents; the sink must outlive the pool or be
  /// detached after a Drain().
  void SetSink(PoolSink* sink);

  // --- document submission (any thread) ----------------------------

  /// Queues one whole XML document, assigning it the pool's next
  /// document index (stored in *doc when non-null, always — the index
  /// identifies the document in PoolSink callbacks, including error
  /// ones). Blocks while the queue is full; kInvalidArgument once the
  /// pool started shutting down. Evaluation is asynchronous: a
  /// returned OK means accepted, not evaluated.
  Status SubmitXml(std::string xml, uint64_t* doc = nullptr);

  /// Non-blocking SubmitXml: kResourceExhausted (and *doc untouched)
  /// when the queue is full — the caller's backpressure signal.
  Status TrySubmitXml(std::string xml, uint64_t* doc = nullptr);

  /// Non-blocking submission of a pre-parsed document (one whole
  /// envelope, as ValidateEventStream accepts). The events need no
  /// symbolization: each replica resolves names against its private
  /// table as it matches. The borrowed views are deep-copied into an
  /// owning EventBuffer at submission time (while the caller's backing
  /// bytes are still valid under the lifetime contract in xml/event.h);
  /// callers that already own an EventBuffer should move it into the
  /// overload below and skip that copy.
  Status TrySubmitEvents(const EventStream& events, uint64_t* doc = nullptr);

  /// Non-blocking submission of a pre-parsed, self-contained document.
  /// The buffer owns the bytes its events view, so the pool queues it
  /// as-is — no copy. This is the TCP server's path: it parses
  /// off-pool into an EventBuffer to fail malformed input at the
  /// publisher, then moves the buffer here.
  Status TrySubmitEvents(EventBuffer events, uint64_t* doc = nullptr);

  /// Blocks until every document submitted so far has completed (its
  /// PoolSink callbacks have returned) and the queue is empty.
  void Drain();

  // --- introspection (control thread; gauges from any thread) ------

  /// Worker replica count.
  size_t workers() const;

  /// Configured queue capacity (PipelineOptions::queue_depth).
  size_t queue_depth() const;

  /// Peak of queued + in-evaluation documents over the pool's life —
  /// the high-water occupancy the queue actually reached.
  size_t queue_peak() const;

  /// Documents currently being evaluated by workers.
  size_t docs_in_flight() const;

  /// Documents currently waiting in the queue.
  size_t docs_queued() const;

  /// TrySubmit* calls rejected because the queue was full.
  size_t queue_rejects() const;

  /// Documents submitted so far (the next document index).
  uint64_t documents_submitted() const;

  /// Documents completed so far (evaluated or failed).
  uint64_t documents_done() const;

  /// Peak live table/frontier entries across all replicas & documents.
  size_t peak_table_entries() const;

  /// Peak buffered document text across all replicas & documents.
  size_t peak_buffered_bytes() const;

  /// Replica `i` (i < workers()), for control-plane introspection:
  /// subscription/planner state (NumSubscriptions, num_eval_slots,
  /// PlanOf, predicted_peak_bytes, ...) is identical on every replica
  /// and safe to read from the control thread between mutations, even
  /// while documents are in flight. Per-document result accessors
  /// (Matched, last_verdicts) race evaluation — consume results
  /// through the PoolSink instead.
  const Engine& replica(size_t i) const;

  /// Current subscription-id snapshot (what the next dispatched
  /// document will be evaluated under).
  SubscriptionIds subscription_ids() const;

 private:
  struct Impl;

  EnginePool();

  std::unique_ptr<Impl> impl_;
};

}  // namespace xpstream

#endif  // XPSTREAM_PUBLIC_PIPELINE_H_
