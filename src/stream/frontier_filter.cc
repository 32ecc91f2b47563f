#include "stream/frontier_filter.h"

#include <algorithm>

#include "analysis/fragment.h"
#include "common/string_util.h"

namespace xpstream {

Result<std::unique_ptr<FrontierFilter>> FrontierFilter::Create(
    const Query* query, SymbolTable* symbols) {
  std::string reason;
  if (!IsConjunctive(*query, &reason) || !IsUnivariate(*query, &reason)) {
    return Status::Unsupported("FrontierFilter requires a univariate "
                               "conjunctive query: " +
                               reason);
  }
  if (!IsLeafOnlyValueRestricted(*query, &reason)) {
    return Status::Unsupported(
        "FrontierFilter requires a leaf-only-value-restricted query: " +
        reason);
  }
  auto truths = TruthSetMap::Build(*query);
  if (!truths.ok()) return truths.status();
  std::unique_ptr<FrontierFilter> filter(new FrontierFilter(query));
  filter->truths_ = std::move(truths).value();
  filter->BindSymbols(symbols);
  // Subscription-time resolution: one symbol per query node, so
  // candidate selection on the event path never compares strings.
  filter->node_sym_.assign(query->size(), kNoSymbol);
  filter->node_wild_.assign(query->size(), 0);
  for (const QueryNode* node : query->AllNodes()) {
    if (node->is_root()) continue;
    if (node->is_wildcard()) {
      filter->node_wild_[node->id()] = 1;
    } else {
      filter->node_sym_[node->id()] =
          filter->symbols()->Intern(node->ntest());
    }
  }
  XPS_RETURN_IF_ERROR(filter->Reset());
  return filter;
}

Status FrontierFilter::Reset() {
  frontier_.clear();
  captures_.clear();
  buffer_.clear();
  current_level_ = 0;
  done_ = false;
  matched_ = false;
  failed_ = false;
  ordinal_ = 0;
  decided_at_ = kNoEventOrdinal;
  stats_.Reset();
  trace_.clear();
  scopes_.clear();
  root_pending_.clear();
  outputs_.clear();
  aggregated_m_.assign(query_->size(), -1);
  suspended_matched_.clear();
  return Status::OK();
}

Status FrontierFilter::EnableOutputCollection() {
  chain_.clear();
  for (const QueryNode* n = query_->root()->successor(); n != nullptr;
       n = n->successor()) {
    if (n->axis() != Axis::kChild) {
      return Status::Unsupported(
          "output collection requires a child-axis succession chain "
          "(descendant/attribute output steps need the general buffering "
          "of [5])");
    }
    chain_.push_back(n);
  }
  if (chain_.empty()) {
    return Status::Unsupported("query has no output step");
  }
  chain_set_ = std::set<const QueryNode*>(chain_.begin(), chain_.end());
  collecting_ = true;
  return Status::OK();
}

FrontierFilter::Record* FrontierFilter::FindRecord(const QueryNode* node,
                                                   size_t level) {
  for (Record& r : frontier_) {
    if (r.node == node && r.level == level) return &r;
  }
  return nullptr;
}

void FrontierFilter::InsertRecord(const QueryNode* node, size_t level,
                                  bool matched) {
  Record* existing = FindRecord(node, level);
  if (existing != nullptr) {
    existing->matched = existing->matched || matched;
    return;
  }
  frontier_.push_back(Record{node, level, matched});
}

void FrontierFilter::UpdateGauges() {
  stats_.table_entries().Set(frontier_.size());
  stats_.buffered_bytes().Set(buffer_.size());
  stats_.auxiliary_bytes().Set(captures_.size() * sizeof(Capture) +
                               sizeof(current_level_));
}

void FrontierFilter::Snapshot(const Event& event) {
  if (!trace_enabled_) return;
  std::string line = event.ToString() + " level=" +
                     StringPrintf("%zu", current_level_) + " frontier=[";
  for (size_t i = 0; i < frontier_.size(); ++i) {
    const Record& r = frontier_[i];
    if (i > 0) line += " ";
    line += StringPrintf("(%zu,%s,%d)", r.level,
                         r.node->is_root() ? "$" : r.node->ntest().c_str(),
                         r.matched ? 1 : 0);
  }
  line += "]";
  trace_.push_back(std::move(line));
}

Status FrontierFilter::OnSymbolizedEvent(const Event& event,
                                         Symbol name_sym) {
  if (failed_) return Status::Internal("filter already failed");
  Status status;
  switch (event.type) {
    case EventType::kStartDocument:
      status = HandleStartDocument();
      break;
    case EventType::kEndDocument:
      status = HandleEndDocument();
      break;
    case EventType::kStartElement:
      status = HandleStartElement(name_sym);
      break;
    case EventType::kEndElement:
      status = HandleEndElement();
      break;
    case EventType::kText:
      status = HandleText(event.text);
      break;
    case EventType::kAttribute:
      status = HandleAttribute(name_sym, event.text);
      break;
  }
  if (!status.ok()) {
    failed_ = true;
    return status;
  }
  // Earliest-decision tracking: matched bits only flip at attribute and
  // endElement handling; endDocument decides whatever is still open.
  if (decided_at_ == kNoEventOrdinal && !literal_mode_) {
    if (event.type == EventType::kEndDocument) {
      decided_at_ = ordinal_;
    } else if ((event.type == EventType::kAttribute ||
                event.type == EventType::kEndElement) &&
               RootVerdictDecided()) {
      decided_at_ = ordinal_;
    }
  }
  if (decided_at_ == kNoEventOrdinal &&
      event.type == EventType::kEndDocument) {
    decided_at_ = ordinal_;  // literal mode commits at the end
  }
  ++ordinal_;
  UpdateGauges();
  Snapshot(event);
  return Status::OK();
}

bool FrontierFilter::RootVerdictDecided() const {
  const auto& children = query_->root()->children();
  if (children.empty()) return false;  // degenerate query, decide at end
  for (const auto& child : children) {
    const Record* record = nullptr;
    for (const Record& r : frontier_) {
      if (r.node == child.get() && r.level == 1) {
        record = &r;
        break;
      }
    }
    if (record == nullptr || !record->matched) return false;
  }
  return true;
}

Status FrontierFilter::HandleStartDocument() {
  XPS_RETURN_IF_ERROR(Reset());
  // The document root is the unique candidate match for the query root:
  // insert the root record and expand its children right away.
  InsertRecord(query_->root(), 0, false);
  for (const auto& child : query_->root()->children()) {
    InsertRecord(child.get(), 1, false);
  }
  current_level_ = 1;
  return Status::OK();
}

Status FrontierFilter::HandleStartElement(Symbol name_sym) {
  // Select candidate records (Fig. 20 startElement lines 1–4). In
  // output-collection mode, already-matched succession-chain nodes are
  // still re-expanded: every chain element needs its own m verdict, not
  // just the first matching sibling's.
  std::vector<size_t>& candidates = scratch_candidates_;
  candidates.clear();
  for (size_t i = 0; i < frontier_.size(); ++i) {
    const Record& r = frontier_[i];
    if (r.node->is_root()) continue;
    if (r.matched && !(collecting_ && chain_set_.count(r.node) != 0)) {
      continue;
    }
    if (r.node->axis() == Axis::kAttribute) continue;
    if (!NamePasses(r.node, name_sym)) continue;
    if (r.node->axis() == Axis::kChild && r.level != current_level_) continue;
    candidates.push_back(i);
  }

  std::vector<std::pair<const QueryNode*, size_t>>& to_delete =
      scratch_delete_;
  to_delete.clear();
  for (size_t idx : candidates) {
    // Copy: frontier_ may grow below and invalidate references.
    Record record = frontier_[idx];
    if (record.node->IsLeaf()) {
      // Start buffering this element's string value (lines 6–8).
      captures_.push_back(Capture{record.node, record.level, current_level_,
                                  buffer_.size()});
    } else {
      // Expand children (lines 12–15); child-axis parents leave the
      // frontier until their element closes (lines 10–11), remembering
      // any already-established match across the reinsertion.
      if (record.node->axis() == Axis::kChild) {
        to_delete.emplace_back(record.node, record.level);
        if (record.matched) {
          const auto key = std::make_pair(record.node, record.level);
          if (std::find(suspended_matched_.begin(), suspended_matched_.end(),
                        key) == suspended_matched_.end()) {
            suspended_matched_.push_back(key);
          }
        }
      }
      for (const auto& child : record.node->children()) {
        InsertRecord(child.get(), current_level_ + 1, false);
      }
    }
  }
  for (const auto& [node, level] : to_delete) {
    frontier_.erase(
        std::remove_if(frontier_.begin(), frontier_.end(),
                       [&](const Record& r) {
                         return r.node == node && r.level == level;
                       }),
        frontier_.end());
  }

  // Output collection: is this element the next candidate on the
  // succession chain? (Chain steps are child-axis, so the candidate for
  // chain position i lives exactly at level i, directly under the open
  // candidate of position i-1.)
  if (collecting_) {
    size_t open = scopes_.size();
    if (open < chain_.size() && current_level_ == open + 1 &&
        NamePasses(chain_[open], name_sym)) {
      OutputScope scope;
      scope.chain_index = open + 1;
      scope.elem_level = current_level_;
      scope.value_start =
          scope.chain_index == chain_.size() ? buffer_.size() : 0;
      scopes_.push_back(std::move(scope));
    }
  }

  ++current_level_;
  return Status::OK();
}

Status FrontierFilter::HandleAttribute(Symbol name_sym,
                                       std::string_view value) {
  // Attributes are leaf children of the current element; they arrive at
  // the level element children would occupy. Internal attribute-axis
  // query nodes can never match (attributes have no children).
  for (Record& r : frontier_) {
    if (r.matched || r.node->is_root()) continue;
    if (r.node->axis() != Axis::kAttribute) continue;
    if (r.level != current_level_) continue;
    if (!NamePasses(r.node, name_sym)) continue;
    if (!r.node->IsLeaf()) continue;
    if (truths_.Get(r.node).Contains(value)) {
      r.matched = true;
    }
  }
  return Status::OK();
}

bool FrontierFilter::OutValueOpen() const {
  return collecting_ && !scopes_.empty() &&
         scopes_.back().chain_index == chain_.size();
}

Status FrontierFilter::HandleText(std::string_view text) {
  if (!captures_.empty() || OutValueOpen()) {
    buffer_ += text;  // Fig. 20 text(): append only when referenced
  }
  return Status::OK();
}

Status FrontierFilter::HandleEndElement() {
  if (current_level_ == 0) {
    return Status::NotWellFormed("unbalanced endElement");
  }
  --current_level_;

  // Resolve leaf captures opened by this element (Fig. 21 lines 2–10).
  while (!captures_.empty() && captures_.back().elem_level == current_level_) {
    Capture capture = captures_.back();
    captures_.pop_back();
    // Universal truth sets (predicate-free leaves, the dissemination
    // common case) accept any value: skip materializing the captured
    // string — the per-event allocation the profile flagged.
    const TruthSet& truths = truths_.Get(capture.node);
    if (truths.is_universal() ||
        truths.Contains(buffer_.substr(capture.start))) {
      // A real match for this leaf, in the context of exactly the record
      // the capture was opened for. (Every live record that had this
      // element as a candidate opened its own capture, so per-record
      // resolution is complete; setting *all* records of the node would
      // contaminate records created during this very element, whose
      // candidates must be strict descendants.)
      Record* r = FindRecord(capture.node, capture.record_level);
      if (r != nullptr) r->matched = true;
    }
  }

  AggregateChildren();
  if (collecting_) CloseOutputScopes();
  if (captures_.empty() && !OutValueOpen()) {
    buffer_.clear();
  }
  return Status::OK();
}

void FrontierFilter::CloseOutputScopes() {
  while (!scopes_.empty() && scopes_.back().elem_level == current_level_) {
    OutputScope scope = std::move(scopes_.back());
    scopes_.pop_back();
    const QueryNode* node = chain_[scope.chain_index - 1];
    std::vector<std::string>* sink =
        scopes_.empty() ? &root_pending_ : &scopes_.back().pending;
    if (scope.chain_index == chain_.size()) {
      // OUT(Q) candidate: it is selected iff its own predicate children
      // were matched (leaves have no predicate, hence always real).
      bool real = node->IsLeaf()
                      ? truths_.Get(node).Contains(
                            buffer_.substr(scope.value_start))
                      : aggregated_m_[node->id()] == 1;
      if (real) {
        sink->push_back(buffer_.substr(scope.value_start));
      }
    } else {
      // Inner chain step: its predicate verdict (the aggregation m bit)
      // decides whether the outputs gathered below survive.
      bool confirmed = aggregated_m_[node->id()] == 1;
      if (confirmed) {
        for (std::string& value : scope.pending) {
          sink->push_back(std::move(value));
        }
      }
    }
  }
}

void FrontierFilter::AggregateChildren() {
  // Records one level below current_level_ are exactly the children
  // expanded when the closing element started (Fig. 21 lines 11–29).
  std::fill(aggregated_m_.begin(), aggregated_m_.end(), int8_t{-1});
  std::vector<const QueryNode*>& parents = scratch_parents_;
  parents.clear();
  for (const Record& r : frontier_) {
    if (r.level > current_level_ && !r.node->is_root()) {
      const QueryNode* parent = r.node->parent();
      if (std::find(parents.begin(), parents.end(), parent) == parents.end()) {
        parents.push_back(parent);
      }
    }
  }

  for (const QueryNode* parent : parents) {
    // m := all children of `parent` found a real match (lines 15–20).
    bool m = true;
    for (const auto& child : parent->children()) {
      Record* r = FindRecord(child.get(), current_level_ + 1);
      if (r == nullptr || !r->matched) {
        m = false;
        break;
      }
    }
    aggregated_m_[parent->id()] = m ? 1 : 0;
    // Delete the child records (line 19).
    frontier_.erase(std::remove_if(frontier_.begin(), frontier_.end(),
                                   [&](const Record& r) {
                                     return r.level > current_level_ &&
                                            !r.node->is_root() &&
                                            r.node->parent() == parent;
                                   }),
                    frontier_.end());
    // Update the parent (lines 21–28). The literal pseudo-code assigns
    // `matched := m`; the default mode OR-accumulates, which is the
    // correctness fix for recursive documents (DESIGN.md §5).
    if (parent->is_root()) {
      Record* root = FindRecord(parent, 0);
      if (root != nullptr) {
        root->matched = literal_mode_ ? m : (root->matched || m);
      }
    } else if (parent->axis() == Axis::kDescendant) {
      // The closing element is a real match for `parent` in every
      // context whose anchor is a *strict* ancestor — i.e. records at
      // level <= current_level_. A record at current_level_+1 was
      // created by this very element and must not be set (its
      // candidates are strict descendants of this element).
      for (Record& r : frontier_) {
        if (r.node == parent && r.level <= current_level_) {
          r.matched = literal_mode_ ? m : (r.matched || m);
        }
      }
    } else {
      bool prior = false;
      auto it = std::find(suspended_matched_.begin(),
                          suspended_matched_.end(),
                          std::make_pair(parent, current_level_));
      if (it != suspended_matched_.end()) {
        prior = true;  // only matched records are suspended
        *it = suspended_matched_.back();
        suspended_matched_.pop_back();
      }
      InsertRecord(parent, current_level_,
                   literal_mode_ ? m : (m || prior));
    }
  }
}

Status FrontierFilter::HandleEndDocument() {
  if (current_level_ != 1) {
    return Status::NotWellFormed("endDocument with open elements");
  }
  current_level_ = 0;
  AggregateChildren();
  Record* root = FindRecord(query_->root(), 0);
  matched_ = root != nullptr && root->matched;
  if (collecting_ && matched_) {
    outputs_ = std::move(root_pending_);
  }
  done_ = true;
  return Status::OK();
}

Result<bool> FrontierFilter::Matched() const {
  if (failed_) return Status::Internal("filter failed");
  if (!done_) return Status::InvalidArgument("document not complete");
  return matched_;
}

std::string FrontierFilter::SerializeState() const {
  // Canonical: records sorted by (query node id, level).
  std::vector<Record> sorted = frontier_;
  std::sort(sorted.begin(), sorted.end(), [](const Record& a,
                                             const Record& b) {
    if (a.node->id() != b.node->id()) return a.node->id() < b.node->id();
    return a.level < b.level;
  });
  std::string out = StringPrintf("L%zu|", current_level_);
  for (const Record& r : sorted) {
    out += StringPrintf("(%zu,%zu,%d)", r.node->id(), r.level,
                        r.matched ? 1 : 0);
  }
  out += "|C";
  for (const Capture& c : captures_) {
    out += StringPrintf("(%zu,%zu,%zu,%zu)", c.node->id(), c.record_level,
                        c.elem_level, c.start);
  }
  out += "|B" + buffer_;
  out += done_ ? (matched_ ? "|M1" : "|M0") : "|-";
  return out;
}

size_t FrontierFilter::BitsPerTuple(size_t doc_depth,
                                    size_t text_width) const {
  return BitWidth(query_->size()) + BitWidth(doc_depth) +
         BitWidth(text_width) + 1;  // +1 for the matched flag
}

}  // namespace xpstream
