#include "stream/nfa_index.h"

#include <algorithm>

#include "stream/engine_registry.h"
#include "stream/matcher.h"
#include "stream/nfa_filter.h"

namespace xpstream {

namespace {

/// Binary search of a symbol-sorted flat map; nullptr when absent.
template <typename EdgeT>
const EdgeT* FindEdge(const std::vector<EdgeT>& edges, Symbol sym) {
  auto it = std::lower_bound(
      edges.begin(), edges.end(), sym,
      [](const EdgeT& edge, Symbol s) { return edge.sym < s; });
  if (it == edges.end() || it->sym != sym) return nullptr;
  return &*it;
}

}  // namespace

NfaIndex::NfaIndex(SymbolTable* symbols) {
  symbols_.Bind(symbols);
  NewState(false);  // state 0 = root
}

int NfaIndex::NewState(bool floating) {
  State state;
  state.floating = floating;
  states_.push_back(std::move(state));
  ++(floating ? shape_.floating : shape_.anchored);
  return static_cast<int>(states_.size()) - 1;
}

int NfaIndex::ChildTarget(int from, const std::string& ntest) {
  const bool floating = states_[static_cast<size_t>(from)].floating;
  if (ntest == "*") {
    // One shared wildcard edge per state keeps prefixes like a/*/b and
    // a/*/c sharing the middle state.
    if (states_[static_cast<size_t>(from)].wildcard_edges.empty()) {
      int target = NewState(floating);
      states_[static_cast<size_t>(from)].wildcard_edges.push_back(target);
    }
    return states_[static_cast<size_t>(from)].wildcard_edges.front();
  }
  // Subscription-time interning: the node test's symbol keys the edge;
  // document names compare against it as integers.
  const Symbol sym = symbols_.get()->Intern(ntest);
  std::vector<ChildEdge>& edges =
      states_[static_cast<size_t>(from)].child_edges;
  auto it = std::lower_bound(
      edges.begin(), edges.end(), sym,
      [](const ChildEdge& edge, Symbol s) { return edge.sym < s; });
  if (it != edges.end() && it->sym == sym) return it->target;
  const size_t pos = static_cast<size_t>(it - edges.begin());
  int target = NewState(floating);
  // NewState may reallocate states_; re-take the edge vector.
  std::vector<ChildEdge>& fresh =
      states_[static_cast<size_t>(from)].child_edges;
  fresh.insert(fresh.begin() + static_cast<ptrdiff_t>(pos),
               ChildEdge{sym, target});
  return target;
}

int NfaIndex::DdState(int from) {
  if (states_[static_cast<size_t>(from)].dd_state < 0) {
    int dd = NewState(true);
    states_[static_cast<size_t>(dd)].self_loop = true;
    states_[static_cast<size_t>(from)].dd_state = dd;
  }
  return states_[static_cast<size_t>(from)].dd_state;
}

NfaIndex::TrieShape NfaIndex::Grow(const NfaIndex* trie, const Query& query,
                                   TrieShape shape) {
  if (!IsLinearPathQuery(query)) return shape;
  // `current` follows the path through the trie; once an edge is
  // missing (-1) every further step is a new state, floating as soon as
  // a `//` has been passed — exactly what AddQuery would create.
  int current = trie != nullptr ? 0 : -1;
  bool floating = false;
  auto follow = [&](int next) {
    if (next >= 0) {
      current = next;
      return;
    }
    current = -1;
    ++(floating ? shape.floating : shape.anchored);
  };
  const SymbolTable* table = trie != nullptr ? trie->symbols_.get() : nullptr;
  for (const QueryNode* step = query.root()->successor(); step != nullptr;
       step = step->successor()) {
    // An attribute step adds no state: it accepts on the current one,
    // or (not last) makes the query unsatisfiable.
    if (step->axis() == Axis::kAttribute) break;
    if (step->axis() == Axis::kDescendant) {
      floating = true;
      follow(current >= 0 ? trie->states_[static_cast<size_t>(current)].dd_state
                          : -1);
    }
    int next = -1;
    if (current >= 0) {
      const State& state = trie->states_[static_cast<size_t>(current)];
      if (step->is_wildcard()) {
        if (!state.wildcard_edges.empty()) next = state.wildcard_edges.front();
      } else if (table != nullptr) {
        const ChildEdge* edge =
            FindEdge(state.child_edges, table->Find(step->ntest()));
        if (edge != nullptr) next = edge->target;
      }
    }
    follow(next);
  }
  return shape;
}

NfaIndex::TrieShape NfaIndex::ShapeWith(const Query& query) const {
  return Grow(this, query, shape_);
}

NfaIndex::TrieShape NfaIndex::ShapeOf(const Query& query) {
  TrieShape root;
  root.anchored = 1;
  return Grow(nullptr, query, root);
}

Status NfaIndex::AddQuery(size_t id, const Query& query) {
  if (!IsLinearPathQuery(query)) {
    return Status::Unsupported(
        "NfaIndex supports linear path queries (no predicates) only");
  }
  int current = 0;
  const QueryNode* step = query.root()->successor();
  if (step == nullptr) {
    return Status::Unsupported("query has no steps");
  }
  Registration registration;
  registration.live = true;
  for (; step != nullptr; step = step->successor()) {
    if (step->axis() == Axis::kAttribute) {
      // Attribute nodes have no children: with further steps the query
      // can never match and is registered with no accepting state.
      if (step->successor() == nullptr) {
        const Symbol sym = symbols_.get()->Intern(step->ntest());
        std::vector<AttrAccept>& accepts =
            states_[static_cast<size_t>(current)].attribute_accepts;
        auto it = std::lower_bound(
            accepts.begin(), accepts.end(), sym,
            [](const AttrAccept& a, Symbol s) { return a.sym < s; });
        if (it == accepts.end() || it->sym != sym) {
          it = accepts.insert(it, AttrAccept{sym, {}});
        }
        it->ids.push_back(id);
        registration.state = current;
        registration.attr = sym;
      }
      break;
    }
    if (step->axis() == Axis::kDescendant) current = DdState(current);
    current = ChildTarget(current, step->ntest());
    if (step->successor() == nullptr) {
      states_[static_cast<size_t>(current)].accepts.push_back(id);
      registration.state = current;
    }
  }
  if (registrations_.size() <= id) registrations_.resize(id + 1);
  registrations_[id] = registration;
  num_queries_++;
  max_id_ = std::max(max_id_, id);
  return Status::OK();
}

void NfaIndex::RemoveQuery(size_t id) {
  if (id >= registrations_.size() || !registrations_[id].live) return;
  Registration& registration = registrations_[id];
  if (registration.state >= 0) {
    State& state = states_[static_cast<size_t>(registration.state)];
    std::vector<size_t>* ids = &state.accepts;
    if (registration.attr != kNoSymbol) {
      auto it = std::lower_bound(
          state.attribute_accepts.begin(), state.attribute_accepts.end(),
          registration.attr,
          [](const AttrAccept& a, Symbol s) { return a.sym < s; });
      ids = &it->ids;
    }
    ids->erase(std::find(ids->begin(), ids->end(), id));
  }
  registration = Registration();
  --num_queries_;
}

Result<std::vector<bool>> NfaIndex::FilterDocument(const EventStream& events) {
  if (batch_run_ == nullptr) {
    batch_run_ = std::make_unique<NfaIndexRun>(this);
  }
  XPS_RETURN_IF_ERROR(batch_run_->Reset());
  for (const Event& event : events) {
    XPS_RETURN_IF_ERROR(batch_run_->OnEvent(event));
  }
  stats_ = batch_run_->stats();
  return batch_run_->Verdicts();
}

Status NfaIndexRun::Reset() {
  depth_ = 0;
  active_entries_ = 0;
  done_ = false;
  matched_count_ = 0;
  ordinal_ = 0;
  verdicts_.assign(index_->max_id_ + 1, false);
  decided_at_.assign(index_->max_id_ + 1, kNoEventOrdinal);
  newly_.clear();
  // Queries may be added between documents; re-size the membership
  // stamps to the current automaton (fresh stamps are 0 = never seen).
  member_epoch_.resize(index_->states_.size(), 0);
  stats_.Reset();
  return Status::OK();
}

void NfaIndexRun::BeginSet() {
  if (++epoch_ == 0) {  // wrap: every stale stamp must read as absent
    std::fill(member_epoch_.begin(), member_epoch_.end(), 0);
    epoch_ = 1;
  }
}

void NfaIndexRun::AddClosed(int state, std::vector<int>* set) {
  auto add = [&](int s) {
    uint32_t& stamp = member_epoch_[static_cast<size_t>(s)];
    if (stamp == epoch_) return;  // already in the set being filled
    stamp = epoch_;
    set->push_back(s);
  };
  add(state);
  int dd = index_->states_[static_cast<size_t>(state)].dd_state;
  // dd companions can themselves carry dd states only via their
  // outgoing edges, which are handled on transition; no deeper ε here.
  if (dd >= 0) add(dd);
}

Status NfaIndexRun::OnSymbolizedEvent(const Event& event, Symbol name_sym) {
  const std::vector<NfaIndex::State>& states = index_->states_;
  // Accepting-state entry decides (and reports) the query's verdict.
  auto mark = [&](size_t id) {
    if (verdicts_[id]) return;
    verdicts_[id] = true;
    decided_at_[id] = ordinal_;
    ++matched_count_;
    if (sink_ != nullptr) newly_.push_back(id);
  };
  auto accept = [&](int state) {
    for (size_t id : states[static_cast<size_t>(state)].accepts) {
      mark(id);
    }
  };
  // Opens one stack level, recycling the storage of a previously popped
  // level when available.
  auto open_level = [&]() -> std::vector<int>& {
    if (depth_ == stack_.size()) stack_.emplace_back();
    std::vector<int>& level = stack_[depth_++];
    level.clear();
    return level;
  };

  switch (event.type) {
    case EventType::kStartDocument: {
      XPS_RETURN_IF_ERROR(Reset());
      std::vector<int>& initial = open_level();
      BeginSet();
      AddClosed(0, &initial);
      active_entries_ = initial.size();
      break;
    }
    case EventType::kEndDocument:
      done_ = true;
      // Queries never accepted decide false at the endDocument event.
      for (size_t& position : decided_at_) {
        if (position == kNoEventOrdinal) position = ordinal_;
      }
      stats_.automaton_states().Set(states.size());
      break;
    case EventType::kStartElement: {
      if (depth_ == 0) {
        return Status::NotWellFormed("element before startDocument");
      }
      std::vector<int>& next = open_level();
      BeginSet();
      const std::vector<int>& current = stack_[depth_ - 2];
      for (int s : current) {
        const NfaIndex::State& state = states[static_cast<size_t>(s)];
        const NfaIndex::ChildEdge* edge =
            FindEdge(state.child_edges, name_sym);
        if (edge != nullptr) {
          accept(edge->target);
          AddClosed(edge->target, &next);
        }
        for (int t : state.wildcard_edges) {
          accept(t);
          AddClosed(t, &next);
        }
        if (state.self_loop) {
          AddClosed(s, &next);
        }
      }
      active_entries_ += next.size();
      stats_.table_entries().Set(active_entries_);
      break;
    }
    case EventType::kEndElement:
      if (depth_ <= 1) {
        return Status::NotWellFormed("unbalanced endElement");
      }
      active_entries_ -= stack_[depth_ - 1].size();
      --depth_;
      break;
    case EventType::kText:
      break;
    case EventType::kAttribute: {
      if (depth_ == 0) {
        return Status::NotWellFormed("attribute before startDocument");
      }
      for (int s : stack_[depth_ - 1]) {
        const NfaIndex::State& state = states[static_cast<size_t>(s)];
        const NfaIndex::AttrAccept* accepts =
            FindEdge(state.attribute_accepts, name_sym);
        if (accepts != nullptr) {
          for (size_t id : accepts->ids) mark(id);
        }
      }
      break;
    }
  }
  if (!newly_.empty()) {
    // Ids may be touched in automaton order within one event; the sink
    // contract is ascending slot order per ordinal.
    std::sort(newly_.begin(), newly_.end());
    for (size_t id : newly_) sink_->OnSlotMatched(id, ordinal_);
    newly_.clear();
  }
  ++ordinal_;
  return Status::OK();
}

Result<std::vector<bool>> NfaIndexRun::Verdicts() const {
  if (!done_) return Status::InvalidArgument("document not complete");
  return verdicts_;
}

NfaIndexMatcher::NfaIndexMatcher(SymbolTable* symbols)
    : index_(symbols), run_(&index_) {
  BindSymbols(index_.symbols());
}

Status NfaIndexMatcher::Subscribe(size_t slot, const Query* query) {
  if (slot != subscriptions_) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
  XPS_RETURN_IF_ERROR(index_.AddQuery(slot, *query));
  ++subscriptions_;
  tombstoned_.push_back(0);
  return Status::OK();
}

Status NfaIndexMatcher::Unsubscribe(size_t slot) {
  if (slot >= subscriptions_ || tombstoned_[slot] != 0) {
    return Status::InvalidArgument("unknown or already tombstoned slot");
  }
  // One accept-list erase; the shared automaton is never rebuilt and
  // the run's recycled storage stays valid.
  index_.RemoveQuery(slot);
  tombstoned_[slot] = 1;
  ++tombstone_count_;
  return Status::OK();
}

void NfaIndexMatcher::SetSink(MatchSink* sink) {
  sink_ = sink;
  run_.SetSink(sink);  // slots map 1:1 onto index query ids
}

Result<std::vector<bool>> NfaIndexMatcher::Verdicts() const {
  auto verdicts = run_.Verdicts();
  if (!verdicts.ok()) return verdicts.status();
  // The run sizes verdicts by max query id + 1; trim the placeholder
  // entry of a subscription-free index.
  verdicts->resize(subscriptions_);
  return verdicts;
}

std::vector<size_t> NfaIndexMatcher::DecidedPositions() const {
  std::vector<size_t> positions = run_.DecidedPositions();
  positions.resize(subscriptions_, kNoEventOrdinal);
  return positions;
}

bool NfaIndexMatcher::AllDecided() const {
  // Tombstoned slots cannot accept (their ids were removed from every
  // accept list), so "everything live matched" is the decided point.
  return run_.NumMatched() + tombstone_count_ >= subscriptions_;
}

void RegisterNfaIndexEngine(EngineRegistry& registry) {
  Status status = registry.Register(
      "nfa_index",
      [](const PipelineContext& context)
          -> Result<std::unique_ptr<Matcher>> {
        return std::unique_ptr<Matcher>(
            std::make_unique<NfaIndexMatcher>(context.symbols));
      });
  (void)status;  // duplicate registration is impossible from Global()
}

}  // namespace xpstream
