#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "daemon.h"

namespace perfbench {
namespace {

// Frame types of docs/protocol.md.
enum : uint8_t {
  kSubscribe = 0x01,
  kUnsubscribe = 0x02,
  kDocChunk = 0x03,
  kDocEnd = 0x04,
  kCompact = 0x05,
  kStats = 0x06,
  kSubscribeOk = 0x81,
  kUnsubscribeOk = 0x82,
  kDocOk = 0x83,
  kCompactOk = 0x84,
  kStatsOk = 0x85,
  kMatch = 0x90,
  kDocDone = 0x91,
  kError = 0xFF,
};

constexpr uint64_t kNever = ~0ULL;
constexpr double kDrainUs = 30e6;  // a phase that cannot drain in 30 s is a fault
constexpr double kRoundSeconds = 3;  // length of one measured round, untraced

void PutU32(std::string* s, uint32_t v) {
  for (int shift = 24; shift >= 0; shift -= 8) s->push_back(static_cast<char>(v >> shift));
}
uint64_t GetBE(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}
void AppendFrame(std::string* out, uint8_t type, std::string_view payload) {
  PutU32(out, static_cast<uint32_t>(payload.size() + 1));
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

double ProcessCpuUs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

struct Pending {
  uint8_t type;
  // DOC_END: document record; UNSUBSCRIBE: subscription id; SUBSCRIBE:
  // index into the set-up plan, later query * 2 + (kEarliest ? 1 : 0).
  size_t arg;
};

struct Conn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  size_t doc_end_mark = 0;  // out offset just past the last queued DOC_END
  size_t doc_end_rec = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<Pending> pending;
  bool publisher = false;
  const ConnPlan* plan = nullptr;
  size_t next_sub = 0;             // set-up progress through plan->subs
  std::vector<uint32_t> sub_ids;   // set-up subscriptions, in order
  bool doc_open = false;           // a DOC_END awaits its DOC_OK
  std::string stats;
  bool stats_done = false;
};

struct SubInfo {
  int conn = -1;
  size_t query = 0;
  bool earliest = false;
  uint64_t ack_seq = 0;
  uint64_t unsub_ok_seq = kNever;
  uint64_t seen_stamp = 0;
  size_t live_pos = 0;  // index in Harness::live_ while live
};

enum class Phase { kSetup, kWarmup, kThroughput, kLatency, kFinal };

struct DocRec {
  size_t doc = 0;
  int64_t server_index = -1;
  uint64_t first_chunk_seq = 0;
  double t_first_chunk = 0;
  double t_doc_end = -1;   // DOC_END handed to the socket
  double t_doc_ok = -1;
  double t_first_match = -1;  // first MATCH of a kEarliest subscription
  double t_done = -1;         // last DOC_DONE
  uint32_t dones = 0;
  uint64_t done_mask = 0;
  std::vector<uint32_t> matched;  // subscriptions with a MATCH, in order
  bool failed = false;
  bool complete = false;
  std::vector<std::pair<int, double>> done_times;  // (conn, time)
};

struct Orphan {
  int conn;
  uint8_t type;
  std::string payload;
  double t;
};

struct PhaseStats {
  double start = 0, end = 0;
  // Daemon and client resource use over [start, end].
  CpuSample cpu0, cpu1;
  uint64_t ctxsw = 0, syscalls = 0;
  double client_cpu_us = 0;
  uint64_t docs_done = 0;
  uint64_t mutations_acked = 0;
  uint64_t push_bytes = 0;
  std::vector<double> latency, first_match, doc_ok;
};

/// One daemon instance and every connection to it.
class Harness {
 public:
  Harness(const Workload& w, const Verdicts& v, const LoadOptions& o, uint64_t seed)
      : w_(w), v_(v), o_(o), rng_(seed) {}
  ~Harness() {
    // The daemon goes first: with the connections still open it exits in
    // milliseconds, while closing them first has it unsubscribe each of
    // their subscriptions one by one (about 10 s for churn's 12,000).
    daemon_.Stop();
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  /// Execs the daemon, subscribes everything and runs the warm-up pass.
  bool SetUp(double* seconds);
  /// Closed-loop publishers for `us`, and with `mutate` the mutator
  /// beside them.
  PhaseStats Throughput(double us, bool mutate);
  /// One document in flight at a time, for `us`.
  PhaseStats Latency(double us);
  /// STATS on every connection; checks the loss counters.
  bool FinalStats();
  void FailIncomplete();

  Daemon& daemon() { return daemon_; }
  bool ok() const { return fault_.empty(); }
  const std::string& fault() const { return fault_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  bool Connect();
  bool Pump(double until_us, const std::function<bool()>& done);
  void Flush(Conn& c);
  void Read(int ci);
  void HandleFrame(int ci, uint8_t type, std::string_view payload, double t);
  void OnPush(int ci, uint8_t type, std::string_view payload, double t, DocRec& rec);
  void OnMatch(int ci, std::string_view payload, double t, DocRec& rec);
  void OnDocDone(int ci, std::string_view payload, double t, DocRec& rec);
  void CheckComplete(size_t r);
  void SendDoc(int ci);
  void MaybePublish();
  void MaybeMutate();
  void SendNextSubscribe(int ci);
  void RemoveLive(uint32_t id);
  void Fault(const std::string& why);
  void FailDoc(DocRec& rec, const std::string& why);
  void FailOp(const std::string& why);
  bool Measured(double t) const {
    return (phase_ == Phase::kThroughput || phase_ == Phase::kLatency) && t <= stats_.end;
  }

  const Workload& w_;
  const Verdicts& v_;
  const LoadOptions& o_;
  Rng rng_;
  Daemon daemon_;
  std::vector<Conn> conns_;
  std::unordered_map<uint32_t, SubInfo> subs_;
  std::vector<uint32_t> live_;  // the mutator's subscriptions not yet unsubscribed
  std::vector<DocRec> recs_;
  std::unordered_map<uint64_t, size_t> by_index_;
  std::unordered_map<uint64_t, std::vector<Orphan>> orphans_;
  uint64_t seq_ = 0;
  uint64_t stamp_ = 0;
  size_t expected_dones_ = 0;
  size_t inflight_ = 0;
  size_t cap_ = 1;
  size_t next_doc_ = 0;
  size_t docs_to_send_ = 0;  // warm-up: remaining; measured phases: unbounded
  bool publishing_ = false;
  bool mutating_ = false;
  size_t mutations_ = 0;
  size_t draw_pos_ = 0;
  Subscription resubscribe_;     // churn: unsubscribed, to be subscribed again
  bool resubscribe_owed_ = false;
  uint32_t transient_sub_ = 0;  // subscribed, to be unsubscribed next
  bool transient_live_ = false;
  Phase phase_ = Phase::kSetup;
  PhaseStats stats_;
  double deadline_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  int fail_logs_ = 0;
  std::string fault_;
};

void Harness::Fault(const std::string& why) {
  if (fault_.empty()) fault_ = why;
}

void Harness::FailOp(const std::string& why) {
  ++failed_;
  if (fail_logs_++ < 10) std::fprintf(stderr, "perfbench: failed operation: %s\n", why.c_str());
}

void Harness::FailDoc(DocRec& rec, const std::string& why) {
  if (fail_logs_++ < 10) {
    std::fprintf(stderr, "perfbench: document %zu (server index %lld): %s\n", rec.doc,
                 static_cast<long long>(rec.server_index), why.c_str());
  }
  rec.failed = true;
}

bool Harness::Connect() {
  expected_dones_ = 0;
  for (size_t i = 0; i < w_.conns.size(); ++i) {
    Conn c;
    c.plan = &w_.conns[i];
    c.publisher = w_.conns[i].publisher;
    if (!w_.conns[i].subs.empty()) ++expected_dones_;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon_.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (c.fd < 0 || ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      if (c.fd >= 0) ::close(c.fd);
      Fault("cannot connect to xpstreamd");
      return false;
    }
    const int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
  return true;
}

bool Harness::Pump(double until_us, const std::function<bool()>& done) {
  std::vector<pollfd> fds(conns_.size());
  int idle_polls = 0;
  while (!done()) {
    if (!fault_.empty()) return false;
    const double now = NowUs();
    if (now >= until_us) return false;
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const int wait_ms = static_cast<int>(std::min(100.0, std::ceil((until_us - now) / 1e3)));
    const int n = ::poll(fds.data(), fds.size(), std::max(wait_ms, 0));
    if (n < 0 && errno != EINTR) {
      Fault("poll failed");
      return false;
    }
    if (n <= 0) {
      if (++idle_polls % 10 == 0 && !daemon_.Alive()) Fault("xpstreamd exited");
      continue;
    }
    for (size_t i = 0; i < conns_.size() && fault_.empty(); ++i) {
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) Read(static_cast<int>(i));
      if (fault_.empty() && (fds[i].revents & POLLOUT)) Flush(conns_[i]);
    }
  }
  return true;
}

void Harness::Flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Fault("send to xpstreamd failed");
      return;
    }
    c.out_off += static_cast<size_t>(n);
  }
  if (c.doc_end_mark > 0 && c.out_off >= c.doc_end_mark) {
    recs_[c.doc_end_rec].t_doc_end = NowUs();
    c.doc_end_mark = 0;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
}

void Harness::Read(int ci) {
  Conn& c = conns_[static_cast<size_t>(ci)];
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n == 0) {
      Fault("xpstreamd closed a connection");
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Fault("recv from xpstreamd failed");
      return;
    }
    c.in.append(buf, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof buf) break;
  }
  const double t = NowUs();
  while (fault_.empty() && c.in.size() - c.in_off >= 4) {
    const uint64_t len = GetBE(c.in.data() + c.in_off, 4);
    if (len == 0) {
      Fault("zero-length frame from xpstreamd");
      return;
    }
    if (c.in.size() - c.in_off < 4 + len) break;
    const uint8_t type = static_cast<uint8_t>(c.in[c.in_off + 4]);
    const std::string_view payload(c.in.data() + c.in_off + 5, len - 1);
    HandleFrame(ci, type, payload, t);
    c.in_off += 4 + len;
  }
  if (c.in_off == c.in.size()) {
    c.in.clear();
    c.in_off = 0;
  } else if (c.in_off > (1u << 20)) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
}

void Harness::HandleFrame(int ci, uint8_t type, std::string_view payload, double t) {
  Conn& c = conns_[static_cast<size_t>(ci)];
  if (type == kMatch || type == kDocDone) {
    if (payload.size() < 12) {
      Fault("truncated push frame");
      return;
    }
    const uint64_t index = GetBE(payload.data() + (type == kMatch ? 4 : 0), 8);
    if (Measured(t) && phase_ == Phase::kThroughput) stats_.push_bytes += payload.size() + 5;
    auto it = by_index_.find(index);
    if (it == by_index_.end()) {
      // The publisher's DOC_OK has not been read yet.
      orphans_[index].push_back({ci, type, std::string(payload), t});
      return;
    }
    OnPush(ci, type, payload, t, recs_[it->second]);
    CheckComplete(it->second);
    return;
  }
  if (c.pending.empty()) {
    Fault("ack or error with no request outstanding: type " + std::to_string(type) +
          (type == kError && payload.size() > 1 ? " " + std::string(payload.substr(1)) : ""));
    return;
  }
  const Pending p = c.pending.front();
  c.pending.pop_front();
  if (type == kError) {
    const std::string why = "ERROR for request type " + std::to_string(p.type) + ": " +
                            std::string(payload.substr(std::min<size_t>(1, payload.size())));
    if (p.type == kDocEnd) {
      DocRec& rec = recs_[p.arg];
      FailDoc(rec, why);
      rec.complete = true;  // refused documents push nothing
      ++failed_;
      --inflight_;
      c.doc_open = false;
      MaybePublish();
    } else if (phase_ == Phase::kSetup || p.type == kStats) {
      Fault(why);
    } else {
      FailOp(why);
      if (ci == static_cast<int>(w_.mutator)) MaybeMutate();
    }
    return;
  }
  const uint8_t expect = p.type == kSubscribe     ? kSubscribeOk
                         : p.type == kUnsubscribe ? kUnsubscribeOk
                         : p.type == kDocEnd      ? kDocOk
                         : p.type == kCompact     ? kCompactOk
                                                  : kStatsOk;
  if (type != expect) {
    Fault("ack type " + std::to_string(type) + " for request type " + std::to_string(p.type));
    return;
  }
  switch (type) {
    case kSubscribeOk: {
      if (payload.size() != 4) return Fault("bad SUBSCRIBE_OK");
      const uint32_t id = static_cast<uint32_t>(GetBE(payload.data(), 4));
      const Subscription s = phase_ == Phase::kSetup ? c.plan->subs[p.arg]
                                                     : Subscription{p.arg / 2, p.arg % 2 == 1};
      SubInfo& info = subs_[id];
      if (info.conn >= 0) return Fault("subscription id reused: " + std::to_string(id));
      info.conn = ci;
      info.query = s.query;
      info.earliest = s.earliest;
      info.ack_seq = ++seq_;
      if (phase_ == Phase::kSetup) {
        c.sub_ids.push_back(id);
        break;
      }
      if (!w_.churn) {
        transient_sub_ = id;
        transient_live_ = true;
      }
      info.live_pos = live_.size();
      live_.push_back(id);
      break;
    }
    case kUnsubscribeOk:
      subs_[static_cast<uint32_t>(p.arg)].unsub_ok_seq = ++seq_;
      break;
    case kDocOk: {
      if (payload.size() != 8) return Fault("bad DOC_OK");
      const size_t r = p.arg;
      DocRec& rec = recs_[r];
      rec.server_index = static_cast<int64_t>(GetBE(payload.data(), 8));
      rec.t_doc_ok = t;
      if (rec.t_doc_end < 0) rec.t_doc_end = t;
      if (!by_index_.emplace(static_cast<uint64_t>(rec.server_index), r).second) {
        return Fault("document index acked twice");
      }
      c.doc_open = false;
      auto it = orphans_.find(static_cast<uint64_t>(rec.server_index));
      if (it != orphans_.end()) {
        std::vector<Orphan> early = std::move(it->second);
        orphans_.erase(it);
        for (const Orphan& o : early) OnPush(o.conn, o.type, o.payload, o.t, rec);
      }
      CheckComplete(r);
      break;
    }
    case kCompactOk:
      break;
    case kStatsOk:
      c.stats.assign(payload);
      c.stats_done = true;
      break;
    default:
      return Fault("unexpected frame type " + std::to_string(type));
  }
  if (phase_ == Phase::kSetup) {
    SendNextSubscribe(ci);
  } else if (ci == static_cast<int>(w_.mutator) && type != kStatsOk) {
    if (type != kDocOk && Measured(t)) ++stats_.mutations_acked;
    MaybeMutate();
  }
  if (type == kDocOk) MaybePublish();
}

void Harness::OnPush(int ci, uint8_t type, std::string_view payload, double t, DocRec& rec) {
  if (type == kMatch) {
    OnMatch(ci, payload, t, rec);
  } else {
    OnDocDone(ci, payload, t, rec);
  }
}

void Harness::OnMatch(int ci, std::string_view payload, double t, DocRec& rec) {
  if (payload.size() != 20) return Fault("bad MATCH frame");
  const uint32_t id = static_cast<uint32_t>(GetBE(payload.data(), 4));
  const uint64_t ordinal = GetBE(payload.data() + 12, 8);
  auto it = subs_.find(id);
  if (it == subs_.end() || it->second.conn != ci) {
    return FailDoc(rec, "MATCH for subscription " + std::to_string(id) + " not held here");
  }
  const SubInfo& sub = it->second;
  if (!v_[sub.query][rec.doc]) {
    return FailDoc(rec, "MATCH for a miss: " + w_.queries[sub.query]);
  }
  if (std::find(rec.matched.begin(), rec.matched.end(), id) != rec.matched.end()) {
    return FailDoc(rec, "second MATCH for subscription " + std::to_string(id));
  }
  if (ordinal >= w_.docs[rec.doc].events + w_.chunks[rec.doc].size()) {
    return FailDoc(rec, "MATCH ordinal " + std::to_string(ordinal) + " past the document");
  }
  if (rec.done_mask & (1ULL << ci)) return FailDoc(rec, "MATCH after its DOC_DONE");
  rec.matched.push_back(id);
  if (sub.earliest && rec.t_first_match < 0 &&
      (w_.first_match_conn < 0 || ci == w_.first_match_conn)) {
    rec.t_first_match = t;
  }
}

void Harness::OnDocDone(int ci, std::string_view payload, double t, DocRec& rec) {
  const uint64_t n = GetBE(payload.data() + 8, 4);
  if (payload.size() != 12 + 5 * n) return Fault("bad DOC_DONE frame");
  if (rec.done_mask & (1ULL << ci)) return FailDoc(rec, "second DOC_DONE on one connection");
  rec.done_mask |= 1ULL << ci;
  ++rec.dones;
  rec.done_times.emplace_back(ci, t);
  rec.t_done = t;
  std::vector<uint32_t> matched = rec.matched;
  std::sort(matched.begin(), matched.end());
  const Conn& c = conns_[static_cast<size_t>(ci)];
  ++stamp_;
  const char* entries = payload.data() + 12;
  // The mutator's population changes under its documents; every other
  // connection's is fixed after set-up and is checked entry by entry.
  const bool mutated = ci == static_cast<int>(w_.mutator);
  if (!mutated && n != c.sub_ids.size()) {
    return FailDoc(rec, "DOC_DONE carries " + std::to_string(n) + " verdicts, expected " +
                            std::to_string(c.sub_ids.size()));
  }
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t id = static_cast<uint32_t>(GetBE(entries + 5 * i, 4));
    const bool hit = entries[5 * i + 4] != 0;
    auto it = subs_.find(id);
    if (it == subs_.end() || it->second.conn != ci) {
      return FailDoc(rec, "DOC_DONE names subscription " + std::to_string(id) + " not held here");
    }
    SubInfo& sub = it->second;
    if (!mutated && id != c.sub_ids[i]) {
      return FailDoc(rec, "DOC_DONE out of subscription order");
    }
    if (sub.unsub_ok_seq < rec.first_chunk_seq) {
      return FailDoc(rec, "DOC_DONE names subscription " + std::to_string(id) +
                              " unsubscribed before the document began");
    }
    if (hit != (v_[sub.query][rec.doc] != 0)) {
      return FailDoc(rec, std::string("verdict ") + (hit ? "hit" : "miss") + " for " +
                              w_.queries[sub.query] + ", oracle says otherwise");
    }
    if (hit && !std::binary_search(matched.begin(), matched.end(), id)) {
      return FailDoc(rec, "hit without a MATCH: " + w_.queries[sub.query]);
    }
    sub.seen_stamp = stamp_;
  }
  if (mutated) {
    // Acked before the first chunk and not since asked to leave: must
    // be present.
    for (uint32_t id : live_) {
      const SubInfo& sub = subs_[id];
      if (sub.ack_seq < rec.first_chunk_seq && sub.seen_stamp != stamp_) {
        return FailDoc(rec, "DOC_DONE misses live subscription " + std::to_string(id));
      }
    }
  }
}

void Harness::CheckComplete(size_t r) {
  DocRec& rec = recs_[r];
  if (rec.complete || rec.server_index < 0 || rec.dones < expected_dones_) return;
  rec.complete = true;
  --inflight_;
  if (rec.failed) ++failed_;
  if (Measured(rec.t_done)) {
    if (phase_ == Phase::kThroughput) ++stats_.docs_done;
    if (phase_ == Phase::kLatency) {
      stats_.latency.push_back(rec.t_done - rec.t_first_chunk);
      stats_.doc_ok.push_back(rec.t_doc_ok - rec.t_doc_end);
      if (rec.t_first_match >= 0) stats_.first_match.push_back(rec.t_first_match - rec.t_first_chunk);
    }
  }
  Tracer& tracer = *o_.tracer;
  if (tracer.enabled()) {
    const int64_t id = static_cast<int64_t>(r);
    const int root = tracer.Add("client.doc", rec.t_first_chunk, rec.t_done, -1, id);
    tracer.Add("client.send", rec.t_first_chunk, rec.t_doc_end, root, id);
    tracer.Add("client.doc_ok", rec.t_doc_end, rec.t_doc_ok, root, id);
    if (rec.t_first_match >= 0) {
      tracer.Add("client.first_match", rec.t_first_chunk, rec.t_first_match, root, id);
    }
    for (const auto& [conn, t] : rec.done_times) {
      tracer.Add("client.doc_done", rec.t_doc_end, t, root, id);
    }
  }
  MaybePublish();
}

void Harness::SendDoc(int ci) {
  Conn& c = conns_[static_cast<size_t>(ci)];
  const size_t r = recs_.size();
  recs_.emplace_back();
  DocRec& rec = recs_.back();
  rec.doc = next_doc_++ % w_.xml.size();
  rec.first_chunk_seq = ++seq_;
  rec.t_first_chunk = NowUs();
  for (const std::string& chunk : w_.chunks[rec.doc]) AppendFrame(&c.out, kDocChunk, chunk);
  AppendFrame(&c.out, kDocEnd, "");
  c.doc_end_mark = c.out.size();
  c.doc_end_rec = r;
  c.pending.push_back({kDocEnd, r});
  c.doc_open = true;
  ++inflight_;
  ++attempted_;
  if (docs_to_send_ > 0) --docs_to_send_;
  Flush(c);
}

void Harness::MaybePublish() {
  if (!publishing_ || !fault_.empty()) return;
  for (size_t i = 0; i < conns_.size(); ++i) {
    // Start from a rotating publisher so each gets its share.
    const int ci = static_cast<int>((next_doc_ + i) % conns_.size());
    Conn& c = conns_[static_cast<size_t>(ci)];
    // While mutating, the mutator's connection carries only mutations:
    // the protocol allows one outstanding request per connection.
    if (!c.publisher || c.doc_open || inflight_ >= cap_ ||
        (mutating_ && ci == static_cast<int>(w_.mutator))) {
      continue;
    }
    if (phase_ == Phase::kWarmup ? docs_to_send_ == 0 : NowUs() >= deadline_) return;
    SendDoc(ci);
  }
}

void Harness::RemoveLive(uint32_t id) {
  SubInfo& sub = subs_[id];
  subs_[live_.back()].live_pos = sub.live_pos;
  live_[sub.live_pos] = live_.back();
  live_.pop_back();
}

void Harness::MaybeMutate() {
  if (!fault_.empty()) return;
  Conn& c = conns_[w_.mutator];
  // Past the deadline only an owed re-subscribe or the transient
  // unsubscribe goes out, so the population ends as set-up made it.
  const bool owed = resubscribe_owed_ || transient_live_;
  if (!c.pending.empty() || ((!mutating_ || NowUs() >= deadline_) && !owed)) return;
  std::string payload;
  auto subscribe = [&](const Subscription& s) {
    payload.push_back(s.earliest ? 1 : 0);
    payload += w_.queries[s.query];
    AppendFrame(&c.out, kSubscribe, payload);
    c.pending.push_back({kSubscribe, s.query * 2 + (s.earliest ? 1 : 0)});
  };
  auto unsubscribe = [&](uint32_t id) {
    RemoveLive(id);
    PutU32(&payload, id);
    AppendFrame(&c.out, kUnsubscribe, payload);
    c.pending.push_back({kUnsubscribe, id});
  };
  const size_t compact_every = w_.churn ? 200 : 64;
  const size_t step = mutations_++;
  if (resubscribe_owed_) {
    resubscribe_owed_ = false;
    subscribe(resubscribe_);
  } else if (transient_live_) {
    transient_live_ = false;
    unsubscribe(transient_sub_);
  } else if (step % compact_every == compact_every - 1) {
    AppendFrame(&c.out, kCompact, "");
    c.pending.push_back({kCompact, 0});
  } else if (w_.churn) {
    // Unsubscribe a random live subscription, then subscribe its query
    // again: the population's query mix, and so the cost of a document,
    // stays the same however many mutations a run gets through.
    const uint32_t id = live_[rng_.Below(live_.size())];
    resubscribe_ = {subs_[id].query, subs_[id].earliest};
    resubscribe_owed_ = true;
    unsubscribe(id);
  } else {
    subscribe({draw_pos_++ % w_.queries.size(), false});
  }
  ++attempted_;
  Flush(c);
}

void Harness::SendNextSubscribe(int ci) {
  Conn& c = conns_[static_cast<size_t>(ci)];
  if (c.next_sub >= c.plan->subs.size() || !c.pending.empty()) return;
  const size_t i = c.next_sub++;
  const Subscription& s = c.plan->subs[i];
  std::string payload(1, s.earliest ? 1 : 0);
  payload += w_.queries[s.query];
  AppendFrame(&c.out, kSubscribe, payload);
  c.pending.push_back({kSubscribe, i});
  Flush(c);
}

bool Harness::SetUp(double* seconds) {
  const double t0 = NowUs();
  std::string error;
  if (!daemon_.Start(o_.daemon_exe, w_.daemon_flags, &error)) {
    Fault(error);
    return false;
  }
  if (!Connect()) return false;
  phase_ = Phase::kSetup;
  for (size_t i = 0; i < conns_.size(); ++i) SendNextSubscribe(static_cast<int>(i));
  auto subscribed = [this] {
    for (const Conn& c : conns_) {
      if (c.sub_ids.size() < c.plan->subs.size()) return false;
    }
    return true;
  };
  if (!Pump(NowUs() + kDrainUs, subscribed)) {
    Fault("set-up subscriptions did not complete: " + fault_);
    return false;
  }
  for (uint32_t id : conns_[w_.mutator].sub_ids) {
    subs_[id].live_pos = live_.size();
    live_.push_back(id);
  }
  // Warm-up: one pass over the document set.
  phase_ = Phase::kWarmup;
  cap_ = w_.inflight_cap;
  docs_to_send_ = w_.xml.size();
  publishing_ = true;
  MaybePublish();
  const bool warmed = Pump(NowUs() + kDrainUs, [this] { return docs_to_send_ == 0 && inflight_ == 0; });
  publishing_ = false;
  if (!warmed) {
    Fault("warm-up did not complete: " + fault_);
    return false;
  }
  *seconds = (NowUs() - t0) / 1e6;
  return true;
}

PhaseStats Harness::Throughput(double us, bool mutate) {
  stats_ = PhaseStats{};
  phase_ = Phase::kThroughput;
  cap_ = w_.inflight_cap;
  const pid_t pid = daemon_.pid();
  stats_.cpu0 = SampleCpu(pid);
  const uint64_t ctxsw0 = VoluntaryCtxsw(pid), syscalls0 = Syscalls(pid);
  const double client0 = ProcessCpuUs();
  stats_.start = NowUs();
  stats_.end = deadline_ = stats_.start + us;
  publishing_ = true;
  mutating_ = mutate;
  MaybePublish();
  MaybeMutate();
  Pump(deadline_, [] { return false; });
  publishing_ = false;
  mutating_ = false;
  stats_.cpu1 = SampleCpu(pid);
  stats_.ctxsw = VoluntaryCtxsw(pid) - ctxsw0;
  stats_.syscalls = Syscalls(pid) - syscalls0;
  stats_.client_cpu_us = ProcessCpuUs() - client0;
  // Drain: every document sent still gets checked, and the population
  // returns to what set-up made it (less what churn removed).
  MaybeMutate();
  if (fault_.empty() && !Pump(NowUs() + kDrainUs, [this] {
        return inflight_ == 0 && !transient_live_ && !resubscribe_owed_ &&
               conns_[w_.mutator].pending.empty();
      })) {
    Fault("throughput phase did not drain: " + fault_);
  }
  return stats_;
}

PhaseStats Harness::Latency(double us) {
  stats_ = PhaseStats{};
  phase_ = Phase::kLatency;
  cap_ = 1;
  stats_.start = NowUs();
  stats_.end = deadline_ = stats_.start + us;
  publishing_ = true;
  MaybePublish();
  Pump(deadline_, [] { return false; });
  publishing_ = false;
  if (fault_.empty() && !Pump(NowUs() + kDrainUs, [this] { return inflight_ == 0; })) {
    Fault("latency phase did not drain: " + fault_);
  }
  return stats_;
}

bool Harness::FinalStats() {
  phase_ = Phase::kFinal;
  for (Conn& c : conns_) {
    AppendFrame(&c.out, kStats, "");
    c.pending.push_back({kStats, 0});
    Flush(c);
    ++attempted_;
  }
  if (!Pump(NowUs() + kDrainUs, [this] {
        for (const Conn& c : conns_) {
          if (!c.stats_done) return false;
        }
        return true;
      })) {
    Fault("STATS not answered: " + fault_);
    return false;
  }
  for (const Conn& c : conns_) {
    for (const char* key : {"dropped_frames=", "queue_rejects=", "doc_errors="}) {
      const size_t at = c.stats.find(key);
      if (at == std::string::npos || c.stats[at + std::strlen(key)] != '0' ||
          c.stats[at + std::strlen(key) + 1] != '\n') {
        FailOp(std::string("STATS: ") + key + " not 0");
      }
    }
  }
  return true;
}

void Harness::FailIncomplete() {
  for (DocRec& rec : recs_) {
    if (!rec.complete) {
      rec.complete = true;
      ++failed_;
    }
  }
  for (const Conn& c : conns_) {
    for (const Pending& p : c.pending) {
      if (p.type != kDocEnd) ++failed_;
    }
  }
}

}  // namespace

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double at = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (at - static_cast<double>(lo));
}

LoadResult RunLoad(const Workload& w, const Verdicts& verdicts, const LoadOptions& o) {
  LoadResult result;
  std::unique_ptr<Harness> h;
  auto fold = [&result](const Harness& x) {
    result.attempted += x.attempted();
    result.failed += x.failed();
  };
  auto abort = [&](Harness& x) {
    x.FailIncomplete();
    fold(x);
    result.ok = false;
    result.fault = x.fault();
    return result;
  };
  // Set-up is short next to the phases, so it is repeated, each time on
  // a fresh daemon, and reported as a median; the last instance carries
  // the measured phases.
  std::vector<double> setups;
  for (int i = 0; i < w.setups; ++i) {
    if (h != nullptr) fold(*h);
    h.reset();
    h = std::make_unique<Harness>(w, verdicts, o, 0x5eed0000u + static_cast<uint64_t>(i));
    double seconds = 0;
    if (!h->SetUp(&seconds)) return abort(*h);
    setups.push_back(seconds);
  }
  const double run_us = o.seconds * 1e6;
  auto add = [&result](const std::string& name, double value, const std::string& unit) {
    result.metrics.push_back({name, value, unit});
  };
  auto per_s = [](double count, const PhaseStats& p) { return count * 1e6 / (p.end - p.start); };
  if (!o.trace) {
    // The host's speed drifts over seconds, so the phases run in short
    // rounds, interleaved, and every metric pools its samples over all
    // rounds: each one sees the whole run's spells, not one stretch of
    // it. churn mutates in its throughput phase; the others get a mixed
    // phase of their own, so documents are otherwise measured untouched.
    const int rounds = std::max(3, static_cast<int>(std::lround(o.seconds / kRoundSeconds)));
    const double round_us = run_us / rounds;
    double tp_us = 0, mut_us = 0, cpu_ns = 0, docs_done = 0, acked = 0;
    std::vector<double> latency, first_match;
    std::vector<double> r_docs_per_s, r_latency, r_first_match, r_cpu, r_mutations;
    for (int r = 0; r < rounds; ++r) {
      const PhaseStats tp = h->Throughput(round_us * (w.churn ? 0.6 : 0.4), w.churn);
      const PhaseStats lat = h->Latency(round_us * (w.churn ? 0.4 : 0.35));
      const PhaseStats mut = w.churn ? tp : h->Throughput(round_us * 0.25, true);
      if (!h->ok()) return abort(*h);
      tp_us += tp.end - tp.start;
      mut_us += mut.end - mut.start;
      cpu_ns += static_cast<double>(tp.cpu1.total_ns - tp.cpu0.total_ns);
      docs_done += static_cast<double>(tp.docs_done);
      acked += static_cast<double>(mut.mutations_acked);
      latency.insert(latency.end(), lat.latency.begin(), lat.latency.end());
      first_match.insert(first_match.end(), lat.first_match.begin(), lat.first_match.end());
      r_docs_per_s.push_back(per_s(static_cast<double>(tp.docs_done), tp));
      r_latency.push_back(Quantile(lat.latency, 0.5));
      r_first_match.push_back(Quantile(lat.first_match, 0.5));
      r_cpu.push_back(static_cast<double>(tp.cpu1.total_ns - tp.cpu0.total_ns) / 1e3 /
                      static_cast<double>(std::max<uint64_t>(1, tp.docs_done)));
      r_mutations.push_back(per_s(static_cast<double>(mut.mutations_acked), mut));
    }
    if (!h->FinalStats() || !h->ok()) return abort(*h);
    add("docs_per_s", docs_done * 1e6 / tp_us, "1/s");
    add("doc_latency_p50_us", Quantile(latency, 0.5), "us");
    add("first_match_p50_us", Quantile(first_match, 0.5), "us");
    add("server_cpu_us_per_doc", cpu_ns / 1e3 / std::max(1.0, docs_done), "us");
    add("server_peak_rss_mb", PeakRssMb(h->daemon().pid()), "MB");
    add("setup_s", Quantile(setups, 0.5), "s");
    add("mutations_per_s", acked * 1e6 / mut_us, "1/s");
    char note[256];
    std::snprintf(note, sizeof note,
                  "latency phases: %zu documents, p50 %.1f us, p99 %.1f us%s; first-match "
                  "samples %zu",
                  latency.size(), Quantile(latency, 0.5), Quantile(latency, 0.99),
                  latency.size() >= 1000 ? "" : " (under 1000 samples: p99 is no tail)",
                  first_match.size());
    result.notes.push_back(note);
    auto list = [](const char* what, const std::vector<double>& values) {
      std::string line = what;
      for (double v : values) line += " " + std::to_string(v);
      return line;
    };
    result.notes.push_back(list("set-up seconds:", setups));
    result.notes.push_back(list("rounds docs_per_s:", r_docs_per_s));
    result.notes.push_back(list("rounds doc_latency_p50_us:", r_latency));
    result.notes.push_back(list("rounds first_match_p50_us:", r_first_match));
    result.notes.push_back(list("rounds server_cpu_us_per_doc:", r_cpu));
    result.notes.push_back(list("rounds mutations_per_s:", r_mutations));
  } else {
    // Untraced round, then the same phases with spans recorded: the
    // difference is the tracing overhead.
    const PhaseStats tp0 = h->Throughput(run_us * 0.12, w.churn);
    const PhaseStats lat0 = h->Latency(run_us * 0.1);
    o.tracer->Enable(true);
    const PhaseStats tp = h->Throughput(run_us * 0.12, w.churn);
    const PhaseStats lat = h->Latency(run_us * 0.1);
    o.tracer->Enable(false);
    if (!h->FinalStats() || !h->ok()) return abort(*h);
    const double docs = static_cast<double>(std::max<uint64_t>(1, tp.docs_done));
    const double wall_ns = (tp.end - tp.start) * 1e3;
    add("server.doc_ok_p50_us", Quantile(lat.doc_ok, 0.5), "us");
    add("server.busiest_thread_share",
        static_cast<double>(BusiestTaskNs(tp.cpu0, tp.cpu1)) / wall_ns, "share");
    add("server.ctxsw_per_doc", static_cast<double>(tp.ctxsw) / docs, "count");
    add("server.syscalls_per_doc", static_cast<double>(tp.syscalls) / docs, "count");
    add("server.push_bytes_per_doc", static_cast<double>(tp.push_bytes) / docs, "bytes");
    add("bench.client_busy_share", tp.client_cpu_us * 1e3 / wall_ns, "share");
    add("trace.untraced_docs_per_s", per_s(static_cast<double>(tp0.docs_done), tp0), "1/s");
    add("trace.traced_docs_per_s", per_s(static_cast<double>(tp.docs_done), tp), "1/s");
    add("trace.untraced_latency_p50_us", Quantile(lat0.latency, 0.5), "us");
    add("trace.traced_latency_p50_us", Quantile(lat.latency, 0.5), "us");
  }
  fold(*h);
  return result;
}

}  // namespace perfbench
