#include "xpstream/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server/event_loop.h"
#include "server/session.h"
#include "server/wire.h"
#include "xml/parser.h"
#include "xpstream/pipeline.h"

namespace xpstream {

namespace {

/// Event collector for the pipelined ingest path: buffers one
/// document's SAX events while enforcing the open-element depth cap at
/// parse time, so a hostile document fails at its publisher before it
/// can occupy a pool queue slot. The collected events are pushed as-is
/// (no copy): the parser writes every name/text byte into the owning
/// EventBuffer's arena (see PendingDoc), so the views stay valid for
/// the buffer's lifetime, including after it is moved into the pool.
struct DepthCapSink : EventSink {
  EventBuffer* out = nullptr;
  size_t depth = 0;
  size_t max_depth = 0;  // 0 = unlimited

  Status OnEvent(const Event& event) override {
    if (event.type == EventType::kStartElement) {
      if (max_depth != 0 && depth >= max_depth) {
        return Status::NotWellFormed(
            "element depth exceeds max_element_depth = " +
            std::to_string(max_depth));
      }
      ++depth;
    } else if (event.type == EventType::kEndElement && depth > 0) {
      --depth;
    }
    out->events().push_back(event);
    return Status::OK();
  }
};

/// One connection's in-flight document on a pipelined server: the
/// loop-thread parser and the self-contained event batch it
/// accumulates. The parser's scratch arena IS the batch's arena, so a
/// chunk's name/text bytes are copied exactly once (chunk -> arena) and
/// the finished buffer moves into the pool queue without another pass.
/// Unlike the serial mode's service-wide publisher latch, each
/// connection owns at most one of these — publishers stream
/// concurrently.
struct PendingDoc {
  EventBuffer events;
  DepthCapSink sink;
  XmlParser parser;
  size_t bytes = 0;
  double parse_seconds = 0;  // loop-thread time spent in Feed/Finish

  PendingDoc(size_t max_depth, size_t entity_cap)
      : parser(&sink, ParserOptions(&events.arena())) {
    sink.out = &events;
    sink.max_depth = max_depth;
    parser.SetMaxEntityExpansionBytes(entity_cap);
  }

 private:
  static XmlParserOptions ParserOptions(Arena* arena) {
    XmlParserOptions options;
    options.arena = arena;
    return options;
  }
};

/// Wire ids travel through the pool as the decimal subscription id
/// strings the server registered ("42" <-> wire id 42).
uint32_t WireIdOf(const std::string& id) {
  return static_cast<uint32_t>(std::stoul(id));
}

}  // namespace

/// The server core: owns the Engine (or EnginePool), the listener, the
/// event loop and every Session; implements the protocol semantics
/// (SessionHost) and bridges engine/pool results into per-connection
/// push frames. Everything below runs on the loop thread except
/// Start/Stop/port — and, in pipelined mode, the PoolBridge callbacks,
/// which run on pool worker threads and only Post() to the loop.
class Server::Impl : public SessionHost {
 public:
  explicit Impl(ServerOptions options) : options_(std::move(options)) {}

  ~Impl() override { Stop(); }

  Status Start() {
    EngineOptions engine_options = options_.engine;
    if (engine_options.max_element_depth == 0) {
      engine_options.max_element_depth = options_.max_element_depth;
    }
    if (engine_options.max_entity_expansion_bytes == 0) {
      engine_options.max_entity_expansion_bytes =
          options_.max_entity_expansion_bytes;
    }
    if (engine_options.memory_budget_bytes == 0 &&
        options_.memory_budget_bytes != 0) {
      engine_options.memory_budget_bytes = options_.memory_budget_bytes;
      engine_options.admission = options_.admission;
    }
    effective_budget_ = engine_options.memory_budget_bytes;
    effective_depth_ = engine_options.max_element_depth;
    effective_entity_cap_ = engine_options.max_entity_expansion_bytes;

    auto loop = EventLoop::Create();
    if (!loop.ok()) return loop.status();
    loop_ = std::move(loop).value();

    if (options_.pipeline_workers >= 2) {
      PipelineOptions pipeline_options;
      pipeline_options.engine = engine_options;
      pipeline_options.workers = options_.pipeline_workers;
      pipeline_options.queue_depth = options_.doc_queue_depth;
      auto pool = EnginePool::Create(pipeline_options);
      if (!pool.ok()) return pool.status();
      pool_ = std::move(pool).value();
      pool_->SetSink(&pool_sink_);
    } else {
      auto engine = Engine::Create(engine_options);
      if (!engine.ok()) return engine.status();
      engine_ = std::move(engine).value();
      engine_->SetSink(&sink_);
    }

    XPS_RETURN_IF_ERROR(Listen());
    loop_->Add(
        listen_fd_, [] { return static_cast<short>(POLLIN); },
        [this](short) { AcceptConnections(); });
    if (options_.idle_timeout_ms > 0) {
      // A few ticks per timeout keeps reap latency a fraction of the
      // timeout itself without waking an idle loop too often.
      loop_->SetTick([this] { ReapIdleSessions(); },
                     std::max(10, options_.idle_timeout_ms / 4));
    }

    // Bind + listen happened on this thread, so port() is valid and a
    // Client::Connect issued right after Start() cannot be refused.
    thread_ = std::thread([this] { loop_->Run(); });
    return Status::OK();
  }

  void Stop() {
    if (thread_.joinable()) {
      loop_->RequestStop();
      thread_.join();
      // Loop-thread state is ours again (join = happens-before): close
      // live connections so blocked clients see EOF, stop listening.
      pending_.clear();
      sessions_.clear();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (spare_fd_ >= 0) {
      ::close(spare_fd_);
      spare_fd_ = -1;
    }
  }

  uint16_t port() const { return port_; }

  // --- SessionHost (loop thread) -----------------------------------

  Result<uint32_t> OnSubscribe(Session* session, uint8_t mode,
                               std::string_view query) override {
    const uint32_t wire_id = next_wire_id_++;
    const DeliveryMode delivery =
        mode == 0 ? DeliveryMode::kAtEnd : DeliveryMode::kEarliest;
    if (pool_ != nullptr) {
      // The pool quiesces in-flight documents internally, so a
      // subscribe under live concurrent traffic is legal and atomic
      // across replicas.
      XPS_RETURN_IF_ERROR(
          pool_->Subscribe(std::to_string(wire_id), query, delivery));
    } else {
      XPS_RETURN_IF_ERROR(
          engine_->Subscribe(std::to_string(wire_id), query, delivery));
    }
    // Wire ids only grow, so appending keeps subs_ sorted by wire id.
    subs_.push_back(SubRecord{wire_id, session});
    return wire_id;
  }

  Status OnUnsubscribe(Session* session, uint32_t sub_id) override {
    const size_t index = FindSub(sub_id);
    // A subscription is private to the connection that made it; another
    // connection's id is indistinguishable from an unknown one.
    if (index == subs_.size() || subs_[index].owner != session) {
      return Status::NotFound("unknown subscription id: " +
                              std::to_string(sub_id));
    }
    if (pool_ != nullptr) {
      XPS_RETURN_IF_ERROR(pool_->Unsubscribe(std::to_string(sub_id)));
    } else {
      XPS_RETURN_IF_ERROR(engine_->Unsubscribe(std::to_string(sub_id)));
    }
    subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(index));
    return Status::OK();
  }

  Status OnDocChunk(Session* session, std::string_view bytes) override {
    if (pool_ != nullptr) return OnPoolDocChunk(session, bytes);
    if (publisher_ != nullptr && publisher_ != session) {
      return Status::InvalidArgument(
          "another connection's document is in flight");
    }
    if (publisher_ == nullptr) {
      publisher_ = session;
      publisher_seen_ = true;
      doc_bytes_ = 0;
    }
    doc_bytes_ += bytes.size();
    if (doc_bytes_ > options_.max_document_bytes) {
      AbortDocument();
      return Status::InvalidArgument(
          "document exceeds max_document_bytes = " +
          std::to_string(options_.max_document_bytes));
    }
    const auto start = std::chrono::steady_clock::now();
    Status status = engine_->Feed(bytes);
    // Serial mode interleaves parsing and matching inside Feed, so this
    // clocks ingest (a lower bound on pure parse throughput); the
    // pipelined path times the loop-thread parser alone.
    parse_seconds_total_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    parse_bytes_total_ += bytes.size();
    if (!status.ok()) AbortDocument();
    return status;
  }

  Result<uint64_t> OnDocEnd(Session* session) override {
    if (pool_ != nullptr) return OnPoolDocEnd(session);
    if (publisher_ != session) {
      return Status::InvalidArgument(
          "DOC_END without an open document on this connection");
    }
    publisher_ = nullptr;
    doc_bytes_ = 0;
    // FinishDocument drives the sink bridge synchronously: MATCH and
    // DOC_DONE frames are queued to subscriber outboxes before the
    // publisher's DOC_OK is (FIFO per connection keeps that order on
    // the wire). It aborts internally on failure.
    Status status = engine_->FinishDocument();
    FlushDeferredUnsubs();
    if (!status.ok()) return status;
    return static_cast<uint64_t>(engine_->documents_seen() - 1);
  }

  Status OnCompact(Session*) override {
    return pool_ != nullptr ? pool_->CompactSubscriptions()
                            : engine_->CompactSubscriptions();
  }

  std::string OnStats(Session* session) override {
    std::string text;
    auto line = [&text](std::string_view key, uint64_t value) {
      text.append(key);
      text.push_back('=');
      text.append(std::to_string(value));
      text.push_back('\n');
    };
    // Subscription/planner state is identical on every pool replica and
    // safe to read from the loop thread (the mutation thread) while
    // documents evaluate; document counters and peaks come from the
    // pool, which folds them across replicas.
    const Engine& engine = pool_ != nullptr ? pool_->replica(0) : *engine_;
    text.append("engine=").append(engine.engine_name()).push_back('\n');
    line("documents_seen", pool_ != nullptr ? pool_->documents_done()
                                            : engine.documents_seen());
    line("subscriptions", engine.NumSubscriptions());
    line("eval_slots", engine.num_eval_slots());
    // Where the live slots are evaluated: per registry engine, the
    // member "auto" routed them to (every slot on the one engine of a
    // fixed-engine server).
    for (const std::string& name : Engine::AvailableEngines()) {
      line("slots_" + name, engine.eval_slots_on(name));
    }
    line("tombstoned_slots", engine.tombstoned_slots());
    line("automaton_rebuilds", engine.automaton_rebuilds());
    line("connections", sessions_.size());
    line("dropped_frames", session->dropped_frames());
    line("outbox_capacity", options_.outbox_frames);
    line("peak_table_entries", pool_ != nullptr ? pool_->peak_table_entries()
                                                : engine.peak_table_entries());
    line("peak_buffered_bytes", pool_ != nullptr
                                    ? pool_->peak_buffered_bytes()
                                    : engine.peak_buffered_bytes());
    line("predicted_peak_bytes", engine.predicted_peak_bytes());
    line("memory_budget_bytes", effective_budget_);
    line("admission_rejects", engine.admission_rejects());
    line("admission_degrades", engine.admission_degrades());
    // Parse-substrate gauges. arena_bytes is the zero-copy parser's
    // retained scratch: the serial engine's own arena, or (pipelined)
    // the high-water EventBuffer arena among loop-thread parses.
    // parse_mb_per_s is the byte-weighted running mean over completed
    // feeds; see docs/protocol.md for what each mode clocks.
    line("arena_bytes", pool_ != nullptr
                            ? arena_peak_bytes_
                            : engine.stats().arena_bytes().peak());
    {
      const double mbps =
          parse_seconds_total_ > 0
              ? parse_bytes_total_ / 1e6 / parse_seconds_total_
              : 0.0;
      char formatted[32];
      std::snprintf(formatted, sizeof formatted, "%.2f", mbps);
      text.append("parse_mb_per_s=").append(formatted).push_back('\n');
    }
    // The ingestion pipeline's own gauges. In serial mode the "queue"
    // is the service-wide publisher latch: depth 0, in flight 0 or 1.
    if (pool_ != nullptr) {
      line("pipeline_workers", pool_->workers());
      line("queue_depth", pool_->queue_depth());
      line("queue_peak", pool_->queue_peak());
      line("docs_in_flight", pool_->docs_in_flight());
      line("queue_rejects", pool_->queue_rejects());
      line("doc_errors", pool_doc_errors_);
    } else {
      line("pipeline_workers", 1);
      line("queue_depth", 0);
      line("queue_peak", publisher_seen_ ? 1 : 0);
      line("docs_in_flight", publisher_ != nullptr ? 1 : 0);
      line("queue_rejects", 0);
      line("doc_errors", 0);
    }
    return text;
  }

 private:
  struct SubRecord {
    uint32_t wire_id;
    /// The owning connection, or nullptr when it disconnected while a
    /// document was in flight (detached: no delivery, engine removal
    /// deferred to the document boundary).
    Session* owner;
  };

  /// ResultSink face of the server: engine decisions become outbound
  /// frames. Callbacks arrive on the loop thread (the engine is driven
  /// there), inside Feed/FinishDocument.
  struct Bridge : ResultSink {
    explicit Bridge(Impl* impl) : impl(impl) {}
    void OnMatch(size_t slot, size_t doc, size_t ordinal) override {
      impl->PushMatch(slot, doc, ordinal);
    }
    void OnDocumentDone(size_t doc,
                        const std::vector<bool>& verdicts) override {
      impl->PushDocDone(doc, verdicts);
    }
    Impl* impl;
  };

  /// PoolSink face of the pipelined server. Callbacks arrive on pool
  /// worker threads; they capture plain data (wire ids travel as the
  /// subscription-id snapshot, never Session pointers — a session may
  /// die between post and drain) and Post() to the loop thread, which
  /// resolves owners against live state when the callback runs.
  struct PoolBridge : PoolSink {
    explicit PoolBridge(Impl* impl) : impl(impl) {}
    void OnMatch(uint64_t doc, size_t sub, size_t ordinal,
                 const SubscriptionIds& ids) override {
      Impl* server = impl;
      server->loop_->Post([server, doc, sub, ordinal, ids] {
        server->PushPoolMatch(doc, sub, ordinal, *ids);
      });
    }
    void OnDocumentDone(uint64_t doc, const SubscriptionIds& ids,
                        std::vector<bool> verdicts,
                        std::vector<size_t> /*decided_at*/) override {
      Impl* server = impl;
      server->loop_->Post(
          [server, doc, ids, verdicts = std::move(verdicts)] {
            server->PushPoolDocDone(doc, *ids, verdicts);
          });
    }
    void OnDocumentError(uint64_t /*doc*/, Status /*status*/) override {
      // The publisher was acked at DOC_END (submission succeeded) and
      // the batch passed full parse validation there, so evaluation
      // errors are unexpected; count them for STATS visibility.
      Impl* server = impl;
      server->loop_->Post([server] { ++server->pool_doc_errors_; });
    }
    Impl* impl;
  };

  Status OnPoolDocChunk(Session* session, std::string_view bytes) {
    auto it = pending_.find(session);
    if (it == pending_.end()) {
      it = pending_
               .emplace(session, std::make_unique<PendingDoc>(
                                     effective_depth_, effective_entity_cap_))
               .first;
    }
    PendingDoc& pending = *it->second;
    pending.bytes += bytes.size();
    if (pending.bytes > options_.max_document_bytes) {
      pending_.erase(it);
      return Status::InvalidArgument(
          "document exceeds max_document_bytes = " +
          std::to_string(options_.max_document_bytes));
    }
    const auto start = std::chrono::steady_clock::now();
    Status status = pending.parser.Feed(bytes);
    pending.parse_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    // On a parse error the session latches doc_error_ and answers the
    // eventual DOC_END from it without calling back here, so the
    // pending state must go now, not at the boundary.
    if (!status.ok()) pending_.erase(it);
    return status;
  }

  Result<uint64_t> OnPoolDocEnd(Session* session) {
    auto it = pending_.find(session);
    if (it == pending_.end()) {
      return Status::InvalidArgument(
          "DOC_END without an open document on this connection");
    }
    std::unique_ptr<PendingDoc> pending = std::move(it->second);
    pending_.erase(it);
    const auto start = std::chrono::steady_clock::now();
    Status finish = pending->parser.Finish();
    pending->parse_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    XPS_RETURN_IF_ERROR(std::move(finish));
    // A fully parsed document contributes to the parse-throughput mean
    // and the arena high-water mark (read before the buffer moves away).
    parse_bytes_total_ += pending->bytes;
    parse_seconds_total_ += pending->parse_seconds;
    arena_peak_bytes_ = std::max(arena_peak_bytes_,
                                 pending->events.arena().FootprintBytes());
    // The batch is fully parsed and validated; hand it to the pool.
    // kResourceExhausted (queue full) reaches the publisher as the
    // DOC_END answer — its backpressure signal; the document is
    // dropped and may be resent after a drain.
    uint64_t doc = 0;
    XPS_RETURN_IF_ERROR(
        pool_->TrySubmitEvents(std::move(pending->events), &doc));
    // DOC_OK carries the pool-assigned index; the document's MATCH /
    // DOC_DONE pushes follow asynchronously when a worker evaluates it.
    return doc;
  }

  void PushPoolMatch(uint64_t doc, size_t sub, size_t ordinal,
                     const std::vector<std::string>& ids) {
    if (sub >= ids.size()) return;  // defensive: snapshot/pool skew
    const uint32_t wire_id = WireIdOf(ids[sub]);
    const size_t index = FindSub(wire_id);
    if (index == subs_.size()) return;  // unsubscribed since dispatch
    Session* owner = subs_[index].owner;
    if (owner == nullptr) return;
    owner->EnqueuePush(wire::EncodeMatch(wire_id, doc, ordinal));
  }

  void PushPoolDocDone(uint64_t doc, const std::vector<std::string>& ids,
                       const std::vector<bool>& verdicts) {
    // Group the document's verdicts by owning connection, preserving
    // the snapshot's subscription order within each group — the same
    // frame layout the serial bridge produces.
    struct Group {
      std::string entries;
      uint32_t count = 0;
    };
    std::unordered_map<Session*, Group> groups;
    // The snapshot and subs_ both run in wire-id order, so one forward
    // walk of subs_ finds every record.
    const size_t n = std::min(verdicts.size(), ids.size());
    size_t index = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t wire_id = WireIdOf(ids[i]);
      while (index < subs_.size() && subs_[index].wire_id < wire_id) ++index;
      if (index == subs_.size() || subs_[index].wire_id != wire_id) {
        continue;  // unsubscribed since dispatch
      }
      Session* owner = subs_[index].owner;
      if (owner == nullptr) continue;
      Group& group = groups[owner];
      wire::AppendU32(&group.entries, wire_id);
      wire::AppendU8(&group.entries, verdicts[i] ? 1 : 0);
      ++group.count;
    }
    for (auto& [session, group] : groups) {
      std::string payload;
      payload.reserve(12 + group.entries.size());
      wire::AppendU64(&payload, doc);
      wire::AppendU32(&payload, group.count);
      payload.append(group.entries);
      session->EnqueuePush(
          wire::EncodeFrame(wire::FrameType::kDocDone, payload));
    }
  }

  Status Listen() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Status::Internal("socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                    &address.sin_addr) != 1) {
      return Status::InvalidArgument("unparseable bind_address: " +
                                     options_.bind_address);
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
               sizeof address) != 0) {
      return Status::Internal("bind(" + options_.bind_address + ":" +
                              std::to_string(options_.port) +
                              ") failed: errno " + std::to_string(errno));
    }
    if (::listen(listen_fd_, 128) != 0) {
      return Status::Internal("listen() failed: errno " +
                              std::to_string(errno));
    }
    socklen_t length = sizeof address;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                      &length) != 0) {
      return Status::Internal("getsockname() failed");
    }
    port_ = ntohs(address.sin_port);
    // Reserved fd for the EMFILE path in AcceptConnections: without
    // one, fd exhaustion leaves the pending connection in the backlog
    // and level-triggered POLLIN busy-spins the loop.
    spare_fd_ = ::open("/dev/null", O_RDONLY);
    return SetNonBlocking(listen_fd_);
  }

  void AcceptConnections() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        if ((errno == EMFILE || errno == ENFILE) && spare_fd_ >= 0) {
          // Out of fds with a connection still queued: poll() would
          // re-fire POLLIN forever. Burn the reserve to accept it,
          // close it (an overloaded-server refusal), re-reserve.
          ::close(spare_fd_);
          const int victim = ::accept(listen_fd_, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          spare_fd_ = ::open("/dev/null", O_RDONLY);
          continue;
        }
        return;  // EAGAIN (backlog drained) or unrecoverable
      }
      if (sessions_.size() >= options_.max_connections) {
        ::close(fd);  // over the cap: refuse by immediate close
        continue;
      }
      if (!SetNonBlocking(fd).ok()) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (options_.so_sndbuf > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                     sizeof options_.so_sndbuf);
      }
      SessionLimits limits;
      limits.max_frame_bytes = options_.max_frame_bytes;
      limits.outbox_frames = options_.outbox_frames;
      auto session =
          std::make_unique<Session>(fd, next_session_id_++, limits, this);
      Session* raw = session.get();
      sessions_[fd] = std::move(session);
      loop_->Add(
          fd, [raw] { return raw->Interest(); },
          [this, fd, raw](short revents) {
            raw->HandleEvents(revents);
            if (raw->done()) RemoveSession(fd);
          });
    }
  }

  void RemoveSession(int fd) {
    auto it = sessions_.find(fd);
    if (it == sessions_.end()) return;
    Session* session = it->second.get();
    // A publisher dying mid-document must not wedge the service: drop
    // the partial document so the next publisher can start clean. On a
    // pipelined server only this connection's own pending parse goes —
    // other publishers' documents are untouched.
    if (pool_ != nullptr) {
      pending_.erase(session);
    } else if (publisher_ == session) {
      AbortDocument();
    }
    if (pool_ != nullptr) {
      // One pool mutation for the whole connection: a single quiesce,
      // however many subscriptions it held. The pool quiesces
      // internally, so removal is legal even with documents in flight;
      // posted frames for this session resolve against subs_ at drain
      // time and find nothing. Every id is live and listed once, so
      // this cannot fail.
      std::vector<std::string> ids;
      for (const SubRecord& sub : subs_) {
        if (sub.owner == session) ids.push_back(std::to_string(sub.wire_id));
      }
      if (!ids.empty()) (void)pool_->Unsubscribe(ids);
    } else {
      for (SubRecord& sub : subs_) {
        if (sub.owner != session) continue;
        // Engine removal is barred while some other connection's
        // document streams. Mid-document, or when the engine refused
        // removal, the engine still holds the slot, so the record must
        // stay too (erasing it would desynchronize subs_ from the
        // engine): detach delivery now, unsubscribe at the document
        // boundary.
        if (publisher_ != nullptr ||
            !engine_->Unsubscribe(std::to_string(sub.wire_id)).ok()) {
          sub.owner = nullptr;
          deferred_unsubs_.push_back(sub.wire_id);
        }
      }
    }
    // The records still owned by the session are exactly the removed
    // ones: erase them in one pass.
    subs_.erase(std::remove_if(subs_.begin(), subs_.end(),
                               [session](const SubRecord& sub) {
                                 return sub.owner == session;
                               }),
                subs_.end());
    loop_->Remove(fd);  // deferred reap; the handler object stays valid
    sessions_.erase(it);
  }

  void AbortDocument() {
    engine_->AbortDocument();
    publisher_ = nullptr;
    doc_bytes_ = 0;
    FlushDeferredUnsubs();
  }

  void FlushDeferredUnsubs() {
    std::vector<uint32_t> retry;
    for (uint32_t wire_id : deferred_unsubs_) {
      const size_t index = FindSub(wire_id);
      if (index == subs_.size()) continue;
      if (engine_->Unsubscribe(std::to_string(wire_id)).ok()) {
        subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(index));
      } else {
        // Engine kept the slot: keep the (detached) record so indices
        // stay aligned, and try again at the next boundary.
        retry.push_back(wire_id);
      }
    }
    deferred_unsubs_ = std::move(retry);
  }

  void ReapIdleSessions() {
    const auto cutoff =
        std::chrono::steady_clock::now() -
        std::chrono::milliseconds(options_.idle_timeout_ms);
    std::vector<int> idle;
    for (const auto& [fd, session] : sessions_) {
      if (session->last_activity() < cutoff) idle.push_back(fd);
    }
    for (int fd : idle) RemoveSession(fd);
  }

  /// The index of `wire_id`'s record in subs_ (sorted by wire id, and
  /// in engine subscription order), or subs_.size() when absent.
  /// Records are erased in place, so the survivors' indices shift down
  /// exactly as the engine's subscription indices do.
  size_t FindSub(uint32_t wire_id) const {
    auto it = std::lower_bound(
        subs_.begin(), subs_.end(), wire_id,
        [](const SubRecord& sub, uint32_t id) { return sub.wire_id < id; });
    if (it == subs_.end() || it->wire_id != wire_id) return subs_.size();
    return static_cast<size_t>(it - subs_.begin());
  }

  void PushMatch(size_t slot, size_t doc, size_t ordinal) {
    if (slot >= subs_.size()) return;  // defensive: bridge/engine skew
    const SubRecord& record = subs_[slot];
    if (record.owner == nullptr) return;  // detached mid-document
    record.owner->EnqueuePush(wire::EncodeMatch(record.wire_id, doc, ordinal));
  }

  void PushDocDone(size_t doc, const std::vector<bool>& verdicts) {
    // Group this document's verdicts by owning connection, preserving
    // engine subscription order within each group.
    struct Group {
      std::string entries;
      uint32_t count = 0;
    };
    std::unordered_map<Session*, Group> groups;
    const size_t n = std::min(verdicts.size(), subs_.size());
    for (size_t i = 0; i < n; ++i) {
      if (subs_[i].owner == nullptr) continue;
      Group& group = groups[subs_[i].owner];
      wire::AppendU32(&group.entries, subs_[i].wire_id);
      wire::AppendU8(&group.entries, verdicts[i] ? 1 : 0);
      ++group.count;
    }
    for (auto& [session, group] : groups) {
      std::string payload;
      payload.reserve(12 + group.entries.size());
      wire::AppendU64(&payload, doc);
      wire::AppendU32(&payload, group.count);
      payload.append(group.entries);
      session->EnqueuePush(
          wire::EncodeFrame(wire::FrameType::kDocDone, payload));
    }
  }

  const ServerOptions options_;
  /// The admission budget the engine actually runs with (engine-level
  /// option, or the server-level overlay), reported by STATS.
  size_t effective_budget_ = 0;
  /// Effective depth / entity-expansion caps (engine-level option, or
  /// the server-level overlay) — enforced by the loop-thread parser on
  /// the pipelined ingest path.
  size_t effective_depth_ = 0;
  size_t effective_entity_cap_ = 0;
  std::unique_ptr<Engine> engine_;  // serial mode (pipeline_workers = 1)
  std::unique_ptr<EventLoop> loop_;
  /// Pipelined mode. Declared after loop_: destroyed first, joining
  /// the worker threads that Post() into the loop before it goes.
  std::unique_ptr<EnginePool> pool_;
  Bridge sink_{this};
  PoolBridge pool_sink_{this};
  int listen_fd_ = -1;
  int spare_fd_ = -1;  // EMFILE reserve; see AcceptConnections
  uint16_t port_ = 0;
  std::thread thread_;

  // --- loop-thread state -------------------------------------------
  std::unordered_map<int, std::unique_ptr<Session>> sessions_;
  std::vector<SubRecord> subs_;  // engine subscription order = wire id order
  uint32_t next_wire_id_ = 1;
  uint64_t next_session_id_ = 1;
  Session* publisher_ = nullptr;  // connection feeding the open document
  bool publisher_seen_ = false;   // any document ever opened (STATS)
  size_t doc_bytes_ = 0;          // its cumulative chunk bytes
  std::vector<uint32_t> deferred_unsubs_;
  /// Pipelined mode: each connection's in-flight parse (at most one).
  std::unordered_map<Session*, std::unique_ptr<PendingDoc>> pending_;
  /// Pipelined mode: documents whose evaluation failed after a
  /// successful submit (unexpected — the batch was parse-validated).
  uint64_t pool_doc_errors_ = 0;
  /// Parse-throughput accounting for STATS (loop thread). Serial mode
  /// clocks Engine::Feed (parse+match interleaved); pipelined mode
  /// clocks the loop-thread parser alone.
  uint64_t parse_bytes_total_ = 0;
  double parse_seconds_total_ = 0;
  /// Pipelined mode: high-water retained arena footprint among
  /// completed loop-thread parses.
  size_t arena_peak_bytes_ = 0;
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::~Server() = default;

Result<std::unique_ptr<Server>> Server::Start(const ServerOptions& options) {
  auto impl = std::make_unique<Impl>(options);
  XPS_RETURN_IF_ERROR(impl->Start());
  return std::unique_ptr<Server>(new Server(std::move(impl)));
}

uint16_t Server::port() const { return impl_->port(); }

void Server::Stop() { impl_->Stop(); }

}  // namespace xpstream
