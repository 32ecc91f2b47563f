#include "stream/frontier_bank.h"

#include <algorithm>
#include <memory>

#include "analysis/fragment.h"
#include "stream/engine_registry.h"

namespace xpstream {

FrontierBank::FrontierBank(SymbolTable* symbols) {
  BindSymbols(symbols);
  buckets_.resize(1);  // the wildcard bucket
}

Status FrontierBank::Subscribe(size_t slot, const Query* query) {
  if (slot != slots_.size()) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
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

  // Breadth-first numbering: each node's children get consecutive ids.
  std::vector<const QueryNode*> order{query->root()};
  for (size_t i = 0; i < order.size(); ++i) {
    for (const auto& child : order[i]->children()) order.push_back(child.get());
  }
  const uint32_t base = static_cast<uint32_t>(nodes_.size());
  uint32_t next_child = base + 1;
  for (const QueryNode* q : order) {
    Node node;
    node.slot = static_cast<uint32_t>(slot);
    node.first_child = next_child;
    node.num_children = static_cast<uint32_t>(q->children().size());
    next_child += node.num_children;
    node.bucket = kNone;
    node.sym = kNoSymbol;
    node.truth = kNone;
    node.axis = q->axis();
    node.flags = q->IsLeaf() ? kLeafNode : 0;
    if (!q->is_root()) {
      if (q->is_wildcard()) {
        node.flags |= kWildNode;
      } else {
        node.sym = symbols()->Intern(q->ntest());
      }
      if (node.axis != Axis::kAttribute) {
        node.bucket = q->is_wildcard() ? 0 : node.sym + 1;
        if (node.bucket >= buckets_.size()) buckets_.resize(node.bucket + 1);
      }
    }
    const TruthSet& truth = truths->Get(q);
    if (!truth.is_universal()) {
      node.truth = static_cast<uint32_t>(truths_.size());
      truths_.push_back(truth);
    }
    nodes_.push_back(node);
  }
  node_stamp_.resize(nodes_.size(), 0);
  node_expansion_.resize(nodes_.size(), kNone);

  Slot entry;
  entry.root = base;
  slots_.push_back(entry);
  ++live_slots_;
  // Like a fresh FrontierFilter, the new slot has no verdict until it
  // has seen a whole document.
  done_ = false;
  return Status::OK();
}

Status FrontierBank::Unsubscribe(size_t slot) {
  if (slot >= slots_.size() || !slots_[slot].live) {
    return Status::InvalidArgument("unknown or already tombstoned slot");
  }
  Slot& entry = slots_[slot];
  entry.live = false;
  --live_slots_;
  // A tombstone can never report: it counts as decided.
  if (entry.decided_at == kNoEventOrdinal) ++decided_count_;
  return Status::OK();
}

void FrontierBank::ClearDocument() {
  if (!frames_.empty()) {
    // A document left open (failure or abandonment) may leave records
    // in buckets; a cleanly ended one leaves them all empty.
    for (auto& bucket : buckets_) bucket.clear();
  }
  bucketed_ = 0;
  records_.clear();
  frames_.clear();
  expansions_.clear();
  attributes_.clear();
  anchors_.clear();
  captures_.clear();
  text_.clear();
  level_ = 0;
  ordinal_ = 0;
  done_ = false;
  failed_ = false;
  aux_peak_ = 0;
  decided_count_ = slots_.size() - live_slots_;
  for (Slot& slot : slots_) {
    slot.root_record = kNone;
    slot.root_children = kNone;
    slot.records = 0;
    slot.peak_records = 0;
    slot.captures = 0;
    slot.peak_buffered = 0;
    slot.decided_at = kNoEventOrdinal;
    slot.matched = false;
  }
}

Status FrontierBank::Reset() {
  ClearDocument();
  return Status::OK();
}

Status FrontierBank::Fail(Status status) {
  failed_ = true;
  return status;
}

void FrontierBank::Touch(uint32_t slot) {
  Slot& entry = slots_[slot];
  if (entry.touched == stamp_) return;
  entry.touched = stamp_;
  touched_.push_back(slot);
}

void FrontierBank::BucketInsert(uint32_t record) {
  Record& rec = records_[record];
  const Node& node = nodes_[rec.node];
  std::vector<BucketEntry>& bucket = buckets_[node.bucket];
  rec.bucket_pos = static_cast<uint32_t>(bucket.size());
  bucket.push_back(
      BucketEntry{record, node.axis == Axis::kChild ? rec.level : kNone});
  ++bucketed_;
}

void FrontierBank::BucketErase(uint32_t record) {
  Record& rec = records_[record];
  if (rec.bucket_pos == kNone) return;
  std::vector<BucketEntry>& bucket = buckets_[nodes_[rec.node].bucket];
  const BucketEntry last = bucket.back();
  bucket[rec.bucket_pos] = last;
  records_[last.record].bucket_pos = rec.bucket_pos;
  bucket.pop_back();
  rec.bucket_pos = kNone;
  --bucketed_;
}

void FrontierBank::SetMatched(uint32_t record) {
  BucketErase(record);  // matched records are never candidates again
  records_[record].matched = 1;
}

uint32_t FrontierBank::AddRecord(uint32_t node_id, uint32_t level) {
  const uint32_t id = static_cast<uint32_t>(records_.size());
  records_.push_back(Record{node_id, level, kNone, 0, 0});
  const Node& node = nodes_[node_id];
  ++slots_[node.slot].records;
  if (node.bucket != kNone) {
    BucketInsert(id);
  } else if (node.axis == Axis::kAttribute && (node.flags & kLeafNode) != 0) {
    // Internal attribute-axis nodes can never match (attributes have no
    // children): they hold a record but no attribute test.
    attributes_.push_back(id);
  }
  return id;
}

void FrontierBank::PushFrame(uint32_t level) {
  frames_.push_back(Frame{level, static_cast<uint32_t>(records_.size()),
                          static_cast<uint32_t>(expansions_.size()),
                          static_cast<uint32_t>(attributes_.size()),
                          static_cast<uint32_t>(anchors_.size())});
}

void FrontierBank::Expand(uint32_t record, uint32_t level) {
  if (frames_.empty() || frames_.back().level != level) PushFrame(level);
  const uint32_t node_id = records_[record].node;
  uint32_t expansion;
  if (node_stamp_[node_id] == stamp_) {
    // Another record of the same (descendant-axis) node is a candidate
    // of this element too: the child records exist once per element.
    expansion = node_expansion_[node_id];
  } else {
    expansion = static_cast<uint32_t>(expansions_.size());
    node_stamp_[node_id] = stamp_;
    node_expansion_[node_id] = expansion;
    expansions_.push_back(Expansion{
        node_id, static_cast<uint32_t>(records_.size()), kNone});
    const Node& node = nodes_[node_id];
    for (uint32_t c = 0; c < node.num_children; ++c) {
      AddRecord(node.first_child + c, level);
    }
  }
  anchors_.push_back(Anchor{record, expansions_[expansion].anchor_head});
  expansions_[expansion].anchor_head =
      static_cast<uint32_t>(anchors_.size() - 1);
}

void FrontierBank::CloseFrame() {
  const Frame frame = frames_.back();
  for (size_t e = frame.expansion_begin; e < expansions_.size(); ++e) {
    const Expansion& x = expansions_[e];
    const Node& node = nodes_[x.node];
    Slot& slot = slots_[node.slot];
    Touch(node.slot);
    // m := every child found a real match (Fig. 21 lines 15–20).
    bool m = true;
    for (uint32_t c = 0; c < node.num_children; ++c) {
      if (records_[x.child_begin + c].matched == 0) {
        m = false;
        break;
      }
    }
    // OR m into the anchors (lines 21–28, OR-accumulated as in
    // FrontierFilter); a suspended child-axis anchor is reinserted.
    for (uint32_t a = x.anchor_head; a != kNone; a = anchors_[a].next) {
      const uint32_t id = anchors_[a].record;
      Record& rec = records_[id];
      if (m) SetMatched(id);
      if (rec.suspended != 0) {
        rec.suspended = 0;
        ++slot.records;
        if (rec.matched == 0) BucketInsert(id);
      }
    }
  }
  // Delete the frame's records (line 19).
  for (size_t id = frame.record_begin; id < records_.size(); ++id) {
    const Record& rec = records_[id];
    if (rec.bucket_pos != kNone) BucketErase(static_cast<uint32_t>(id));
    if (rec.suspended == 0) --slots_[nodes_[rec.node].slot].records;
  }
  records_.resize(frame.record_begin);
  expansions_.resize(frame.expansion_begin);
  attributes_.resize(frame.attribute_begin);
  anchors_.resize(frame.anchor_begin);
  frames_.pop_back();
}

void FrontierBank::HandleStartDocument() {
  ClearDocument();
  // The document root is the unique candidate of every query root:
  // insert the root records, then expand each at level 1.
  for (size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.live) continue;
    slot.root_record = AddRecord(slot.root, 0);
  }
  level_ = 1;
  for (size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.live) continue;
    // A childless root (a degenerate query) is never aggregated, as in
    // FrontierFilter: it stays unmatched.
    if (nodes_[slot.root].num_children > 0) {
      slot.root_children = static_cast<uint32_t>(records_.size());
      Expand(slot.root_record, 1);
    }
    slot.peak_records = slot.records;
  }
}

void FrontierBank::HandleStartElement(Symbol name_sym) {
  const uint32_t depth = static_cast<uint32_t>(level_);
  // Candidates (Fig. 20 startElement lines 1–4): the unmatched records
  // of this name's bucket and of `*` whose level agrees with the axis.
  candidates_.clear();
  auto collect = [&](const std::vector<BucketEntry>& bucket) {
    for (const BucketEntry& entry : bucket) {
      if (entry.level == kNone || entry.level == depth) {
        candidates_.push_back(entry.record);
      }
    }
  };
  if (name_sym != kNoSymbol && name_sym + 1 < buckets_.size()) {
    collect(buckets_[name_sym + 1]);
  }
  collect(buckets_[0]);

  for (const uint32_t id : candidates_) {
    const Node& node = nodes_[records_[id].node];
    Slot& slot = slots_[node.slot];
    Touch(node.slot);
    if ((node.flags & kLeafNode) != 0) {
      // Start buffering this element's string value (lines 6–8).
      if (slot.captures++ == 0) slot.buffer_base = text_.size();
      captures_.push_back(Capture{id, depth, text_.size()});
      continue;
    }
    // Child-axis parents leave the frontier until their element closes
    // (lines 10–11); every candidate expands its children (12–15).
    if (node.axis == Axis::kChild) {
      BucketErase(id);
      records_[id].suspended = 1;
      --slot.records;
    }
    Expand(id, depth + 1);
  }
  ++level_;
}

void FrontierBank::HandleAttribute(Symbol name_sym, std::string_view value) {
  // Attributes are leaf children of the open element: only its frame's
  // attribute records (level == level_) can take them.
  if (frames_.empty() || frames_.back().level != level_) return;
  for (size_t i = frames_.back().attribute_begin; i < attributes_.size();
       ++i) {
    const uint32_t id = attributes_[i];
    if (records_[id].matched != 0) continue;
    const Node& node = nodes_[records_[id].node];
    if ((node.flags & kWildNode) == 0 && node.sym != name_sym) continue;
    if (node.truth == kNone || truths_[node.truth].Contains(value)) {
      SetMatched(id);
      Touch(node.slot);
    }
  }
}

void FrontierBank::HandleEndElement() {
  --level_;
  const uint32_t depth = static_cast<uint32_t>(level_);
  // Resolve leaf captures opened by this element (Fig. 21 lines 2–10):
  // each sets exactly the record it was opened for.
  const std::string_view text(text_);
  while (!captures_.empty() && captures_.back().depth == depth) {
    const Capture capture = captures_.back();
    captures_.pop_back();
    const Node& node = nodes_[records_[capture.record].node];
    if (node.truth == kNone ||
        truths_[node.truth].Contains(text.substr(capture.start))) {
      SetMatched(capture.record);
    }
    Slot& slot = slots_[node.slot];
    Touch(node.slot);
    if (--slot.captures == 0) {
      // The slot's buffer empties here; its length just before is the
      // largest it reached in this run of captures.
      slot.peak_buffered =
          std::max(slot.peak_buffered, text_.size() - slot.buffer_base);
    }
  }
  if (!frames_.empty() && frames_.back().level == depth + 1) CloseFrame();
  if (captures_.empty()) text_.clear();
}

void FrontierBank::HandleEndDocument() {
  level_ = 0;
  if (!frames_.empty() && frames_.back().level == 1) CloseFrame();
  // Every slot still open decides here; report the matches in slot
  // order, after any decided earlier.
  for (size_t s = 0; s < slots_.size(); ++s) {
    Slot& slot = slots_[s];
    if (!slot.live) continue;
    slot.matched = slot.root_record != kNone &&
                   records_[slot.root_record].matched != 0;
    if (slot.decided_at != kNoEventOrdinal) continue;
    slot.decided_at = ordinal_;
    ++decided_count_;
    if (slot.matched && sink_ != nullptr) sink_->OnSlotMatched(s, ordinal_);
  }
  done_ = true;
}

bool FrontierBank::RootVerdictDecided(const Slot& slot) const {
  const Node& root = nodes_[slot.root];
  if (root.num_children == 0 || slot.root_children == kNone) return false;
  for (uint32_t c = 0; c < root.num_children; ++c) {
    const Record& rec = records_[slot.root_children + c];
    if (rec.suspended != 0 || rec.matched == 0) return false;
  }
  return true;
}

void FrontierBank::FinishEvent(bool poll) {
  newly_decided_.clear();
  for (const uint32_t s : touched_) {
    Slot& slot = slots_[s];
    slot.peak_records = std::max(slot.peak_records, slot.records);
    if (poll && slot.live && slot.decided_at == kNoEventOrdinal &&
        RootVerdictDecided(slot)) {
      slot.decided_at = ordinal_;
      ++decided_count_;
      newly_decided_.push_back(s);
    }
  }
  if (newly_decided_.empty() || sink_ == nullptr) return;
  std::sort(newly_decided_.begin(), newly_decided_.end());
  for (const uint32_t s : newly_decided_) sink_->OnSlotMatched(s, ordinal_);
}

Status FrontierBank::OnSymbolizedEvent(const Event& event, Symbol name_sym) {
  if (live_slots_ == 0) {
    // Nothing evaluates; tombstones count as decided.
    if (event.type == EventType::kStartDocument) ClearDocument();
    return Status::OK();
  }
  if (failed_) return Status::Internal("filter already failed");
  ++stamp_;
  touched_.clear();
  switch (event.type) {
    case EventType::kStartDocument:
      HandleStartDocument();
      break;
    case EventType::kStartElement:
      HandleStartElement(name_sym);
      FinishEvent(/*poll=*/false);
      break;
    case EventType::kAttribute:
      HandleAttribute(name_sym, event.text);
      FinishEvent(/*poll=*/true);
      break;
    case EventType::kText:
      // Fig. 20 text(): append only when some capture references it.
      if (!captures_.empty()) text_.append(event.text);
      break;
    case EventType::kEndElement:
      if (level_ == 0) {
        return Fail(Status::NotWellFormed("unbalanced endElement"));
      }
      HandleEndElement();
      FinishEvent(/*poll=*/true);
      break;
    case EventType::kEndDocument:
      if (level_ != 1) {
        return Fail(Status::NotWellFormed("endDocument with open elements"));
      }
      HandleEndDocument();
      break;
  }
  aux_peak_ = std::max(aux_peak_, AuxiliaryBytes());
  ++ordinal_;
  return Status::OK();
}

size_t FrontierBank::AuxiliaryBytes() const {
  return bucketed_ * sizeof(BucketEntry) + frames_.size() * sizeof(Frame) +
         expansions_.size() * sizeof(Expansion) +
         anchors_.size() * sizeof(Anchor) +
         attributes_.size() * sizeof(uint32_t) +
         captures_.size() * sizeof(Capture);
}

size_t FrontierBank::SlotBuffered(const Slot& slot) const {
  return slot.captures == 0 ? 0 : text_.size() - slot.buffer_base;
}

Result<std::vector<bool>> FrontierBank::Verdicts() const {
  if (live_slots_ > 0) {
    if (failed_) return Status::Internal("filter failed");
    if (!done_) return Status::InvalidArgument("document not complete");
  }
  std::vector<bool> verdicts(slots_.size(), false);
  for (size_t s = 0; s < slots_.size(); ++s) {
    verdicts[s] = slots_[s].live && slots_[s].matched;
  }
  return verdicts;
}

std::vector<size_t> FrontierBank::DecidedPositions() const {
  std::vector<size_t> positions(slots_.size(), kNoEventOrdinal);
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].live) positions[s] = slots_[s].decided_at;
  }
  return positions;
}

namespace {

MemoryStats::Gauge GaugeOf(size_t current, size_t peak) {
  MemoryStats::Gauge gauge;
  gauge.Set(std::max(current, peak));
  gauge.Set(current);
  return gauge;
}

}  // namespace

MemoryStats FrontierBank::SlotStats(size_t slot) const {
  MemoryStats stats;
  if (slot >= slots_.size() || !slots_[slot].live) return stats;
  const Slot& entry = slots_[slot];
  stats.table_entries() = GaugeOf(entry.records, entry.peak_records);
  const size_t buffered = SlotBuffered(entry);
  stats.buffered_bytes() = GaugeOf(buffered, entry.peak_buffered);
  return stats;
}

const MemoryStats& FrontierBank::stats() const {
  stats_.Reset();
  for (const Slot& slot : slots_) {
    if (!slot.live) continue;
    stats_.table_entries().Accumulate(
        GaugeOf(slot.records, slot.peak_records));
    stats_.buffered_bytes().Accumulate(
        GaugeOf(SlotBuffered(slot), slot.peak_buffered));
  }
  stats_.auxiliary_bytes() = GaugeOf(AuxiliaryBytes(), aux_peak_);
  return stats_;
}

void RegisterFrontierEngine(EngineRegistry& registry) {
  Status status = registry.Register(
      "frontier",
      [](const PipelineContext& context) -> Result<std::unique_ptr<Matcher>> {
        return std::unique_ptr<Matcher>(
            std::make_unique<FrontierBank>(context.symbols));
      });
  (void)status;  // duplicate registration is impossible from Global()
}

}  // namespace xpstream
