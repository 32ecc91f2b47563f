#ifndef XPSTREAM_STREAM_FRONTIER_BANK_H_
#define XPSTREAM_STREAM_FRONTIER_BANK_H_

/// \file
/// The "frontier" engine: the paper's Section 8 algorithm (Figs. 20–21)
/// run for a whole subscription population over one shared, routed
/// frontier table. FrontierFilter remains the single-query reference
/// implementation; this matcher reproduces, per slot, exactly the
/// verdict, DecidedAt position, MatchSink sequence and table/buffer
/// accounting a FrontierFilter on that slot's query would report, but
/// an event only touches the records it can change.
///
/// Structure (no event dereferences a QueryNode):
///  * Compiled nodes. Subscribe flattens each query into per-node
///    entries — axis, symbol bucket, a contiguous children span, leaf
///    flag, truth-set index — numbered breadth-first so a node's
///    children are consecutive ids.
///  * One record table. Every slot's (query node, level, matched)
///    tuples live in `records_`. Records of level l are created only
///    while the element at depth l-1 is open and die when it closes, so
///    the table is a stack of *frames*, one per open element that
///    expanded something; a record id is its stable index. A child-axis record whose element opens
///    is suspended in place (the paper's removal) and revived with the
///    aggregated bit when the element closes.
///  * Symbol buckets. Every unmatched, live, element-axis record sits in
///    the bucket of its node test (one bucket per symbol plus one for
///    `*`). A start tag scans its symbol's bucket and the wildcard
///    bucket only; buckets change where records are inserted, matched,
///    suspended or erased, never by rescanning.
///  * Frame stack. A start tag's expansions (one per distinct expanded
///    query node, with the candidate records that caused it as anchors)
///    and its attribute-axis records form the open element's frame.
///    Attributes test only that frame's attribute records; the end tag
///    aggregates only that frame's expansions and then drops it.
///  * Shared text. One text log is appended while any capture is open;
///    a slot's buffer is the log's suffix since its first open capture,
///    so text events cost O(1) however many slots capture.
/// Only slots an event touched are polled for a decision, and matches
/// reach the sink in ascending slot order per event.
///
/// Accounting. table_entries and buffered_bytes are the per-slot
/// FrontierFilter readings (end-of-event peaks, the Thm 8.8 quantities)
/// summed over live slots; SlotStats() exposes one slot's.
/// auxiliary_bytes counts the bank's own routing state — bucket
/// entries, frame/expansion/anchor stacks and open captures — at its
/// end-of-event peak.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/truth_set.h"
#include "stream/matcher.h"
#include "xpath/ast.h"

namespace xpstream {

class FrontierBank : public Matcher {
 public:
  /// `symbols` is the pipeline's shared table (nullptr = a private one).
  explicit FrontierBank(SymbolTable* symbols = nullptr);

  std::string name() const override { return "frontier"; }
  /// Validates the paper's §8 fragment (as FrontierFilter::Create) and
  /// compiles the query's nodes into the bank's flat arrays. The new
  /// slot joins evaluation at the next startDocument.
  Status Subscribe(size_t slot, const Query* query) override;
  Status Unsubscribe(size_t slot) override;
  size_t NumSubscriptions() const override { return slots_.size(); }
  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<std::vector<bool>> Verdicts() const override;
  std::vector<size_t> DecidedPositions() const override;
  bool AllDecided() const override {
    return decided_count_ == slots_.size();
  }
  const MemoryStats& stats() const override;

  /// One slot's table_entries and buffered_bytes (current and peak), as
  /// a FrontierFilter on its query reports them; all-zero for a
  /// tombstoned slot.
  MemoryStats SlotStats(size_t slot) const;

 private:
  static constexpr uint32_t kNone = static_cast<uint32_t>(-1);

  enum NodeFlags : uint8_t {
    kLeafNode = 1,
    kWildNode = 2,
  };

  /// One compiled query node.
  struct Node {
    uint32_t slot;
    uint32_t first_child;   ///< id of the first child (children are contiguous)
    uint32_t num_children;
    uint32_t bucket;        ///< symbol bucket (kNone: attribute axis or root)
    Symbol sym;             ///< node test (attribute tests; kNoSymbol for *)
    uint32_t truth;         ///< index into truths_; kNone = universal
    Axis axis;
    uint8_t flags;
  };

  /// One frontier tuple of one slot.
  struct Record {
    uint32_t node;
    uint32_t level;       ///< level at which candidates are expected
    uint32_t bucket_pos;  ///< position in its bucket; kNone when absent
    uint8_t matched;
    uint8_t suspended;    ///< child-axis record whose element is open
  };

  /// A bucket member: the record and the start-tag level it accepts
  /// (kNone for descendant-axis records, which accept any level), so a
  /// scan rejects wrong-level child-axis records without touching them.
  struct BucketEntry {
    uint32_t record;
    uint32_t level;
  };

  /// Expansion of one query node at one element: its children's records
  /// start at `child_begin`; `anchor_head` lists the candidate records
  /// (through anchors_) whose matched bits the aggregation feeds.
  struct Expansion {
    uint32_t node;
    uint32_t child_begin;
    uint32_t anchor_head;
  };

  struct Anchor {
    uint32_t record;
    uint32_t next;  ///< kNone ends the list
  };

  /// An open string-value capture of a leaf record.
  struct Capture {
    uint32_t record;
    uint32_t depth;  ///< level of the captured element
    size_t start;    ///< offset of the value in text_
  };

  /// Stack marks of the records of one level: pushed by the first
  /// expansion at an element (or at startDocument for level 1), popped
  /// when that element closes. Elements that expand nothing push none.
  struct Frame {
    uint32_t level;
    uint32_t record_begin;
    uint32_t expansion_begin;
    uint32_t attribute_begin;
    uint32_t anchor_begin;
  };

  struct Slot {
    bool live = true;
    uint32_t root = 0;             ///< compiled id of the query root
    uint32_t root_record = kNone;  ///< this document's root record
    uint32_t root_children = kNone;  ///< its first level-1 child record
    uint32_t records = 0;          ///< live (unsuspended) records
    uint32_t peak_records = 0;
    uint32_t captures = 0;         ///< open captures
    size_t buffer_base = 0;        ///< text_ offset of the slot's buffer
    size_t peak_buffered = 0;
    size_t decided_at = kNoEventOrdinal;
    bool matched = false;
    uint64_t touched = 0;          ///< event stamp of the last touch
  };

  void HandleStartDocument();
  void HandleStartElement(Symbol name_sym);
  void HandleAttribute(Symbol name_sym, std::string_view value);
  void HandleEndElement();
  void HandleEndDocument();

  void PushFrame(uint32_t level);
  /// Aggregates the top frame's expansions into their anchors (Fig. 21
  /// lines 11–29), erases its records and pops it.
  void CloseFrame();
  /// Expands `record` (a candidate of an internal node, or the root at
  /// startDocument): creates the node's child records at `level` once
  /// per element and adds `record` to the expansion's anchors.
  void Expand(uint32_t record, uint32_t level);
  uint32_t AddRecord(uint32_t node, uint32_t level);
  void SetMatched(uint32_t record);
  void BucketInsert(uint32_t record);
  void BucketErase(uint32_t record);
  void Touch(uint32_t slot);
  /// Folds the touched slots' record counts into their peaks; on
  /// attribute/endElement events also commits slots whose root verdict
  /// became provable and reports them in ascending slot order.
  void FinishEvent(bool poll);
  /// FrontierFilter::RootVerdictDecided for one slot: every child of
  /// the query root has a live, matched level-1 record.
  bool RootVerdictDecided(const Slot& slot) const;
  size_t SlotBuffered(const Slot& slot) const;
  size_t AuxiliaryBytes() const;
  /// Empties the per-document tables and restarts every slot's
  /// per-document readings.
  void ClearDocument();
  Status Fail(Status status);

  // Compiled population.
  std::vector<Node> nodes_;
  std::vector<TruthSet> truths_;
  std::vector<Slot> slots_;
  size_t live_slots_ = 0;

  // Per-document state.
  std::vector<Record> records_;
  std::vector<std::vector<BucketEntry>> buckets_;  ///< [0] = `*`, [s+1] = symbol s
  size_t bucketed_ = 0;  ///< entries over all buckets
  std::vector<Frame> frames_;
  std::vector<Expansion> expansions_;
  std::vector<uint32_t> attributes_;  ///< attribute-axis leaf records, by frame
  std::vector<Anchor> anchors_;
  std::vector<Capture> captures_;
  std::string text_;
  size_t level_ = 0;
  size_t ordinal_ = 0;
  bool done_ = false;
  bool failed_ = false;
  size_t decided_count_ = 0;
  size_t aux_peak_ = 0;

  // Event-local scratch, capacity kept across events.
  uint64_t stamp_ = 0;  ///< bumped per event; never reset
  std::vector<uint64_t> node_stamp_;      ///< expanded at this event?
  std::vector<uint32_t> node_expansion_;  ///< ... as this expansion
  std::vector<uint32_t> touched_;
  std::vector<uint32_t> candidates_;
  std::vector<uint32_t> newly_decided_;

  mutable MemoryStats stats_;  // summed on demand
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_FRONTIER_BANK_H_
