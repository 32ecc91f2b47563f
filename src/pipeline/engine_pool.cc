#include "xpstream/pipeline.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>

#include "stream/dfa_table_cache.h"
#include "xml/stats.h"

namespace xpstream {

namespace {

/// One queued document: XML bytes or a pre-parsed event batch. The
/// batch is an owning EventBuffer — a queued job outlives the
/// submitter's call frame, so its events must not borrow anyone else's
/// storage.
struct Job {
  uint64_t doc = 0;
  std::string xml;
  EventBuffer events;
  bool parsed = false;
};

}  // namespace

/// Relay from one replica's ResultSink to the pool sink: stamps the
/// engine's replica-local callbacks with the pool-assigned document
/// index and the subscription snapshot the document was dispatched
/// under. One relay per replica, re-armed per job by its own worker —
/// never shared across threads.
struct ReplicaSink : ResultSink {
  Engine* engine = nullptr;   ///< the replica this relay is attached to
  PoolSink* sink = nullptr;   ///< pool sink at dispatch time (may be null)
  uint64_t doc = 0;           ///< pool document index of the current job
  SubscriptionIds ids;        ///< subscription snapshot at dispatch time
  std::atomic<uint64_t>* done = nullptr;  ///< the pool's completion counter

  void OnMatch(size_t sub, size_t /*doc_index*/,
               size_t event_ordinal) override {
    if (sink != nullptr) sink->OnMatch(doc, sub, event_ordinal, ids);
  }

  void OnDocumentDone(size_t /*doc_index*/,
                      const std::vector<bool>& verdicts) override {
    // Counted before the pool sink sees the document: a consumer that
    // learned of a DOC_DONE through the sink (even indirectly, e.g. a
    // TCP subscriber) must never read a documents_done() that does not
    // include it yet.
    done->fetch_add(1, std::memory_order_release);
    // last_decided_at() is materialized by the time the engine calls
    // its sink (FinalizeDocument expands results before delivery).
    if (sink != nullptr) {
      sink->OnDocumentDone(doc, ids, verdicts, engine->last_decided_at());
    }
  }
};

struct EnginePool::Impl {
  PipelineOptions options;

  // Shared pipeline structure, bound into every replica via
  // EngineSharedContext. Declared before the replicas so it outlives
  // them.
  std::unique_ptr<DfaTableCache> dfa_tables;
  std::unique_ptr<DocumentProfile> profile;
  std::mutex profile_mutex;

  struct Replica {
    std::unique_ptr<Engine> engine;
    std::unique_ptr<ReplicaSink> relay;
    std::thread thread;
  };
  std::vector<Replica> replicas;

  // Everything below mutex_ is guarded by it.
  std::mutex mutex;
  std::condition_variable work_cv;   // workers: a job arrived / unpaused
  std::condition_variable space_cv;  // publishers: queue space freed
  std::condition_variable idle_cv;   // control: in-flight drained
  std::deque<Job> shared_queue;              // kLeastLoaded
  std::vector<std::deque<Job>> worker_queues;  // kRoundRobin
  size_t rr_next = 0;        // next round-robin target
  size_t queued = 0;         // jobs waiting across all queues
  size_t in_flight = 0;      // jobs being evaluated
  bool paused = false;       // mutation in progress: start no new job
  bool stopping = false;
  PoolSink* sink = nullptr;
  SubscriptionIds ids_snapshot =
      std::make_shared<const std::vector<std::string>>();
  uint64_t next_doc = 0;
  std::atomic<uint64_t> done{0};  // incremented before the sink callback
  size_t queue_peak = 0;
  size_t rejects = 0;
  size_t peak_table_entries = 0;
  size_t peak_buffered_bytes = 0;

  bool HasJob(size_t worker) const {
    return options.dispatch == DispatchPolicy::kRoundRobin
               ? !worker_queues[worker].empty()
               : !shared_queue.empty();
  }

  Job PopJob(size_t worker) {
    auto& queue = options.dispatch == DispatchPolicy::kRoundRobin
                      ? worker_queues[worker]
                      : shared_queue;
    Job job = std::move(queue.front());
    queue.pop_front();
    return job;
  }

  Status Enqueue(Job job, uint64_t* doc, bool blocking) {
    std::unique_lock<std::mutex> lock(mutex);
    if (blocking) {
      space_cv.wait(lock,
                    [&] { return stopping || queued < options.queue_depth; });
    } else if (!stopping && queued >= options.queue_depth) {
      ++rejects;
      return Status::ResourceExhausted(
          "document queue is full (queue_depth = " +
          std::to_string(options.queue_depth) + ")");
    }
    if (stopping) {
      return Status::InvalidArgument("EnginePool is shutting down");
    }
    job.doc = next_doc++;
    if (doc != nullptr) *doc = job.doc;
    if (options.dispatch == DispatchPolicy::kRoundRobin) {
      worker_queues[rr_next].push_back(std::move(job));
      rr_next = (rr_next + 1) % replicas.size();
    } else {
      shared_queue.push_back(std::move(job));
    }
    ++queued;
    queue_peak = std::max(queue_peak, queued + in_flight);
    work_cv.notify_one();
    return Status::OK();
  }

  void WorkerLoop(size_t index) {
    Engine* engine = replicas[index].engine.get();
    ReplicaSink* relay = replicas[index].relay.get();
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_cv.wait(lock,
                     [&] { return stopping || (!paused && HasJob(index)); });
        if (stopping) return;  // queued jobs are dropped; Drain() first
        job = PopJob(index);
        --queued;
        ++in_flight;
        relay->doc = job.doc;
        relay->ids = ids_snapshot;
        relay->sink = sink;
        space_cv.notify_one();
      }
      // Evaluate outside the lock: this is the whole point of the pool.
      Status status = job.parsed
                          ? engine->FilterEvents(job.events.events()).status()
                          : engine->FilterXml(job.xml).status();
      if (!status.ok()) {
        // The relay counted nothing (no OnDocumentDone on a failed
        // document); count here, again before the sink learns of it.
        done.fetch_add(1, std::memory_order_release);
        if (relay->sink != nullptr) {
          relay->sink->OnDocumentError(job.doc, status);
        }
      }
      {
        std::unique_lock<std::mutex> lock(mutex);
        --in_flight;
        peak_table_entries =
            std::max(peak_table_entries, engine->peak_table_entries());
        peak_buffered_bytes =
            std::max(peak_buffered_bytes, engine->peak_buffered_bytes());
        idle_cv.notify_all();
      }
    }
  }

  /// Runs `mutate` with evaluation quiesced: no document in flight, no
  /// new one starting. The queue keeps accepting submissions — only
  /// dispatch pauses, so a slow control-plane call never rejects
  /// publishers.
  template <typename Fn>
  Status Quiesced(Fn mutate) {
    std::unique_lock<std::mutex> lock(mutex);
    paused = true;
    idle_cv.wait(lock, [&] { return in_flight == 0; });
    Status status = mutate();
    ids_snapshot = std::make_shared<const std::vector<std::string>>(
        replicas.front().engine->subscription_ids());
    paused = false;
    work_cv.notify_all();
    return status;
  }
};

EnginePool::EnginePool() : impl_(std::make_unique<Impl>()) {}

EnginePool::~EnginePool() {
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  impl_->space_cv.notify_all();
  for (auto& replica : impl_->replicas) {
    if (replica.thread.joinable()) replica.thread.join();
  }
}

Result<std::unique_ptr<EnginePool>> EnginePool::Create(
    const PipelineOptions& options) {
  std::unique_ptr<EnginePool> pool(new EnginePool());
  Impl& impl = *pool->impl_;
  impl.options = options;
  impl.options.workers = std::max<size_t>(1, options.workers);
  impl.options.queue_depth = std::max<size_t>(1, options.queue_depth);
  // History accumulates per replica in document-completion order, which
  // is scheduling-dependent and diverges from the pool's document
  // numbering — a footgun, so it is off regardless of the engine
  // default. Consume results through the PoolSink.
  impl.options.engine.keep_history = false;

  impl.dfa_tables = std::make_unique<DfaTableCache>();
  impl.profile =
      std::make_unique<DocumentProfile>(impl.options.engine.assumed_profile);

  EngineSharedContext shared;
  shared.dfa_tables = impl.dfa_tables.get();
  shared.profile = impl.profile.get();
  shared.profile_mutex = &impl.profile_mutex;

  impl.replicas.resize(impl.options.workers);
  for (auto& replica : impl.replicas) {
    auto engine = Engine::Create(impl.options.engine, shared);
    if (!engine.ok()) return engine.status();
    replica.engine = std::move(engine).value();
    replica.relay = std::make_unique<ReplicaSink>();
    replica.relay->engine = replica.engine.get();
    replica.relay->done = &impl.done;
    replica.engine->SetSink(replica.relay.get());
  }
  if (impl.options.dispatch == DispatchPolicy::kRoundRobin) {
    impl.worker_queues.resize(impl.options.workers);
  }
  for (size_t i = 0; i < impl.replicas.size(); ++i) {
    impl.replicas[i].thread =
        std::thread([&impl, i] { impl.WorkerLoop(i); });
  }
  return pool;
}

Status EnginePool::Subscribe(std::string id, std::string_view xpath,
                             DeliveryMode mode) {
  return impl_->Quiesced([&]() -> Status {
    auto& replicas = impl_->replicas;
    for (size_t i = 0; i < replicas.size(); ++i) {
      Status status = replicas[i].engine->Subscribe(id, xpath, mode);
      if (!status.ok()) {
        // Roll back the replicas already subscribed so the populations
        // stay identical. Unsubscribe of a just-added id cannot fail.
        for (size_t j = 0; j < i; ++j) {
          replicas[j].engine->Unsubscribe(id);
        }
        return status;
      }
    }
    return Status::OK();
  });
}

Status EnginePool::Unsubscribe(std::string_view id) {
  return impl_->Quiesced([&]() -> Status {
    // Unsubscribe fails only for an unknown id, and the populations are
    // identical — so it fails on all replicas or on none.
    Status status = Status::OK();
    for (auto& replica : impl_->replicas) {
      Status replica_status = replica.engine->Unsubscribe(id);
      if (!replica_status.ok()) status = replica_status;
    }
    return status;
  });
}

Status EnginePool::Unsubscribe(const std::vector<std::string>& ids) {
  return impl_->Quiesced([&]() -> Status {
    // Validate against one replica (the populations are identical), so
    // the batch applies whole or leaves every replica untouched.
    const Engine& reference = *impl_->replicas.front().engine;
    std::unordered_set<std::string_view> seen;
    for (const std::string& id : ids) {
      if (!seen.insert(id).second) {
        return Status::InvalidArgument("subscription id listed twice: " + id);
      }
      XPS_RETURN_IF_ERROR(reference.SubscribedQuery(id).status());
    }
    // A refusal can then only come from an engine that cannot remove at
    // all; it refuses the same id on every replica, so each replica
    // stops at the same place and the populations stay identical.
    size_t removed = ids.size();
    Status status = Status::OK();
    for (auto& replica : impl_->replicas) {
      for (size_t i = 0; i < removed; ++i) {
        Status replica_status = replica.engine->Unsubscribe(ids[i]);
        if (!replica_status.ok()) {
          removed = i;
          status = replica_status;
        }
      }
    }
    return status;
  });
}

Status EnginePool::CompactSubscriptions() {
  return impl_->Quiesced([&]() -> Status {
    // A partial failure (some replicas compacted, some kept the old
    // matcher) is benign: compaction never changes the population or
    // any verdict, only reclaims capacity.
    for (auto& replica : impl_->replicas) {
      XPS_RETURN_IF_ERROR(replica.engine->CompactSubscriptions());
    }
    return Status::OK();
  });
}

void EnginePool::SetSink(PoolSink* sink) {
  impl_->Quiesced([&]() -> Status {
    impl_->sink = sink;
    return Status::OK();
  });
}

Status EnginePool::SubmitXml(std::string xml, uint64_t* doc) {
  Job job;
  job.xml = std::move(xml);
  return impl_->Enqueue(std::move(job), doc, /*blocking=*/true);
}

Status EnginePool::TrySubmitXml(std::string xml, uint64_t* doc) {
  Job job;
  job.xml = std::move(xml);
  return impl_->Enqueue(std::move(job), doc, /*blocking=*/false);
}

Status EnginePool::TrySubmitEvents(const EventStream& events, uint64_t* doc) {
  // Detach from the caller's backing storage now, while the lifetime
  // contract still guarantees the views are valid.
  Job job;
  job.events = EventBuffer::DeepCopy(events);
  job.parsed = true;
  return impl_->Enqueue(std::move(job), doc, /*blocking=*/false);
}

Status EnginePool::TrySubmitEvents(EventBuffer events, uint64_t* doc) {
  Job job;
  job.events = std::move(events);
  job.parsed = true;
  return impl_->Enqueue(std::move(job), doc, /*blocking=*/false);
}

void EnginePool::Drain() {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  impl_->idle_cv.wait(lock, [&] {
    return impl_->queued == 0 && impl_->in_flight == 0;
  });
}

size_t EnginePool::workers() const { return impl_->replicas.size(); }

size_t EnginePool::queue_depth() const { return impl_->options.queue_depth; }

size_t EnginePool::queue_peak() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->queue_peak;
}

size_t EnginePool::docs_in_flight() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->in_flight;
}

size_t EnginePool::docs_queued() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->queued;
}

size_t EnginePool::queue_rejects() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->rejects;
}

uint64_t EnginePool::documents_submitted() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->next_doc;
}

uint64_t EnginePool::documents_done() const {
  return impl_->done.load(std::memory_order_acquire);
}

size_t EnginePool::peak_table_entries() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->peak_table_entries;
}

size_t EnginePool::peak_buffered_bytes() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->peak_buffered_bytes;
}

const Engine& EnginePool::replica(size_t i) const {
  return *impl_->replicas[i].engine;
}

SubscriptionIds EnginePool::subscription_ids() const {
  std::unique_lock<std::mutex> lock(impl_->mutex);
  return impl_->ids_snapshot;
}

}  // namespace xpstream
