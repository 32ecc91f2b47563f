#include "stream/matcher.h"

namespace xpstream {

Status Matcher::OnDocument(const EventStream& events) {
  for (const Event& event : events) {
    XPS_RETURN_IF_ERROR(OnEvent(event));
  }
  return Status::OK();
}

Status FilterBankMatcher::Subscribe(size_t slot, const Query* query) {
  if (slot != filters_.size()) {
    return Status::InvalidArgument("subscription slots must be dense");
  }
  // Every member filter shares the bank's table: the node tests intern
  // here (subscription time), and the one symbol the bank resolves per
  // event is valid for all of them.
  auto filter = factory_(query, symbols());
  if (!filter.ok()) return filter.status();
  filters_.push_back(std::move(filter).value());
  decided_.push_back(0);
  return Status::OK();
}

Status FilterBankMatcher::Unsubscribe(size_t slot) {
  if (slot >= filters_.size() || filters_[slot] == nullptr) {
    return Status::InvalidArgument("unknown or already tombstoned slot");
  }
  filters_[slot].reset();  // tombstone: slot keeps its number, stops evaluating
  return Status::OK();
}

void FilterBankMatcher::ResetHarvest() {
  decided_.assign(filters_.size(), 0);
  decided_count_ = 0;
  for (size_t slot = 0; slot < filters_.size(); ++slot) {
    if (filters_[slot] == nullptr) {
      decided_[slot] = 1;
      ++decided_count_;
    }
  }
}

Status FilterBankMatcher::Reset() {
  for (auto& filter : filters_) {
    if (filter == nullptr) continue;
    XPS_RETURN_IF_ERROR(filter->Reset());
  }
  ResetHarvest();
  return Status::OK();
}

Status FilterBankMatcher::OnSymbolizedEvent(const Event& event,
                                            Symbol name_sym) {
  if (event.type == EventType::kStartDocument) {
    // Member filters reset themselves on startDocument; the harvest
    // bookkeeping must match (direct callers may skip Reset()).
    ResetHarvest();
  }
  // Each member's decision is harvested right after its call. Slots are
  // visited in ascending order, so the sink sees one event's matches
  // slot-ascending, as the MatchSink contract requires.
  const bool at_end = event.type == EventType::kEndDocument;
  for (size_t slot = 0; slot < filters_.size(); ++slot) {
    StreamFilter* filter = filters_[slot].get();
    if (filter == nullptr) continue;
    XPS_RETURN_IF_ERROR(filter->OnSymbolizedEvent(event, name_sym));
    if (decided_[slot] != 0) continue;
    const size_t position = filter->DecidedAt();
    if (position == kNoEventOrdinal) continue;
    decided_[slot] = 1;
    ++decided_count_;
    if (sink_ == nullptr) continue;
    // Mid-document a decided verdict is always a match; at endDocument
    // the remaining filters decide false and are not reported.
    if (!at_end) {
      sink_->OnSlotMatched(slot, position);
    } else {
      auto verdict = filter->Matched();
      if (verdict.ok() && *verdict) sink_->OnSlotMatched(slot, position);
    }
  }
  return Status::OK();
}

std::vector<size_t> FilterBankMatcher::DecidedPositions() const {
  std::vector<size_t> positions;
  positions.reserve(filters_.size());
  for (const auto& filter : filters_) {
    positions.push_back(filter == nullptr ? kNoEventOrdinal
                                          : filter->DecidedAt());
  }
  return positions;
}

Result<std::vector<bool>> FilterBankMatcher::Verdicts() const {
  std::vector<bool> verdicts;
  verdicts.reserve(filters_.size());
  for (const auto& filter : filters_) {
    if (filter == nullptr) {
      verdicts.push_back(false);  // tombstoned slots never match
      continue;
    }
    auto verdict = filter->Matched();
    if (!verdict.ok()) return verdict.status();
    verdicts.push_back(*verdict);
  }
  return verdicts;
}

void FilterBankMatcher::PublishShared() {
  for (auto& filter : filters_) {
    if (filter != nullptr) filter->PublishShared();
  }
}

const MemoryStats& FilterBankMatcher::stats() const {
  stats_.Reset();
  for (const auto& filter : filters_) {
    if (filter != nullptr) stats_.Accumulate(filter->stats());
  }
  return stats_;
}

}  // namespace xpstream
