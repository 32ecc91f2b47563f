#ifndef XPSTREAM_STREAM_FRONTIER_FILTER_H_
#define XPSTREAM_STREAM_FRONTIER_FILTER_H_

/// \file
/// The paper's streaming filtering algorithm (Section 8, Figs. 20–21)
/// for one query: the single-query reference implementation. The
/// "frontier" engine's multi-subscription matcher is FrontierBank
/// (stream/frontier_bank.h), which must reproduce this filter's verdict,
/// DecidedAt and table/buffer readings per slot
/// (tests/stream_frontier_bank_test.cc). This class stays the instrument
/// for the E2/E3 experiments, state counting (SerializeState), the
/// Fig. 22 trace and output collection.
///
/// The algorithm walks the event stream while maintaining a *frontier
/// table* of (query node, expected level, matched) tuples and one shared
/// text buffer. A document element is a *candidate match* for a frontier
/// entry when its name passes the node test and its level agrees with the
/// axis; candidates of internal query nodes push the node's children onto
/// the frontier (child-axis entries are removed until the element closes,
/// the paper's space optimization); candidates of leaves capture their
/// string value through the buffer. At endElement the children entries
/// are aggregated into a *real match* bit for their parent. The document
/// matches iff the query root ends up matched.
///
/// Space is O(|Q|·r) tuples of O(log|Q| + log d + log w) bits plus w
/// buffered characters (Thm 8.8), and FS(Q) tuples for path
/// consistency-free closure-free queries.
///
/// Three deliberate deviations from the literal pseudo-code, each a
/// correctness fix validated by differential testing against the ground
/// truth evaluator (see DESIGN.md §5):
///  1. matched bits are OR-accumulated on re-aggregation — the literal
///     assignment can erase a real match found in a deeper recursive
///     occurrence;
///  2. child entries are deduplicated per (query node, level) — two
///     recursive candidates of the same parent would otherwise insert
///     duplicate rows;
///  3. string-value captures are tracked per open candidate rather than
///     via a single strValueStart attribute per row — one descendant-axis
///     leaf can have several nested open candidates.
///
/// Supported fragment (paper §8): univariate conjunctive
/// leaf-only-value-restricted Forward XPath; checked at construction.

#include <cstdint>
#include <set>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/truth_set.h"
#include "stream/filter.h"
#include "xpath/ast.h"

namespace xpstream {

class FrontierFilter : public StreamFilter {
 public:
  /// Validates the fragment and builds per-node metadata, resolving
  /// each node's test to a Symbol in `symbols` (the pipeline's shared
  /// table; nullptr = a private one), so candidate selection is integer
  /// compares. The query must outlive the filter.
  static Result<std::unique_ptr<FrontierFilter>> Create(
      const Query* query, SymbolTable* symbols = nullptr);

  Status Reset() override;
  Status OnSymbolizedEvent(const Event& event, Symbol name_sym) override;
  Result<bool> Matched() const override;
  size_t DecidedAt() const override { return decided_at_; }
  std::string SerializeState() const override;
  const MemoryStats& stats() const override { return stats_; }
  std::string name() const override { return "FrontierFilter"; }

  /// Enables per-event snapshots of the frontier table (paper Fig. 22).
  void EnableTrace() { trace_enabled_ = true; }
  const std::vector<std::string>& trace() const { return trace_; }

  /// Full-fledged evaluation extension (paper §1: "the algorithm could
  /// be extended to provide also a full-fledged evaluation [22]").
  /// Collects the string values of the nodes FULLEVAL selects, buffering
  /// candidates until their ancestors' predicates are confirmed — the
  /// buffering the paper's follow-up work [5] proves unavoidable.
  /// Supported when every step on the succession chain from the root to
  /// OUT(Q) has a child axis; returns kUnsupported otherwise.
  Status EnableOutputCollection();

  /// Selected output values in document order; valid after endDocument.
  const std::vector<std::string>& outputs() const { return outputs_; }

  /// Ablation switch: replay the paper's *literal* pseudo-code (Fig. 21
  /// line 28 assigns `matched := m` instead of OR-accumulating). Used by
  /// the ablation study to demonstrate the recursion bug the deviation
  /// in DESIGN.md §5 fixes. Not for production use.
  void SetLiteralPseudocodeMode(bool literal) { literal_mode_ = literal; }

  /// Bits per frontier tuple for this query/document combination, the
  /// log|Q| + log d + log w term of Thm 8.8.
  size_t BitsPerTuple(size_t doc_depth, size_t text_width) const;

 private:
  explicit FrontierFilter(const Query* query) : query_(query) {}

  struct Record {
    const QueryNode* node;
    size_t level;   ///< level at which candidates are expected (child axis)
    bool matched;
  };

  /// An open string-value capture of one candidate element for one leaf
  /// record.
  struct Capture {
    const QueryNode* node;
    size_t record_level;  ///< level of the leaf's frontier record
    size_t elem_level;    ///< level of the captured element
    size_t start;         ///< offset into buffer_
  };

  Record* FindRecord(const QueryNode* node, size_t level);
  void InsertRecord(const QueryNode* node, size_t level, bool matched);
  void UpdateGauges();
  void Snapshot(const Event& event);

  /// NTEST(u) as an integer compare: `name_sym` against the node's
  /// pre-resolved symbol (wildcards pass everything).
  bool NamePasses(const QueryNode* node, Symbol name_sym) const {
    return node_wild_[node->id()] != 0 || node_sym_[node->id()] == name_sym;
  }

  Status HandleStartDocument();
  Status HandleStartElement(Symbol name_sym);
  Status HandleAttribute(Symbol name_sym, std::string_view value);
  Status HandleText(std::string_view text);
  Status HandleEndElement();
  Status HandleEndDocument();

  /// Aggregates all records one level below current_level_ into real
  /// match bits for their query parents (endElement lines 11–29).
  /// Per-parent m bits of this round land in aggregated_m_.
  void AggregateChildren();

  /// Output-collection bookkeeping at element close.
  void CloseOutputScopes();

  /// True when the root verdict is already provably true: every child of
  /// the query root has a live level-1 record with matched set. Matched
  /// bits are OR-accumulated (and preserved across candidate-expansion
  /// suspension), so once this holds the endDocument aggregation must
  /// report a match — the frontier engine's commitment point. Polled
  /// only at events that can flip matched bits (attribute / endElement)
  /// and never in literal pseudo-code mode, whose assignment semantics
  /// can erase matches.
  bool RootVerdictDecided() const;

  /// True while an OUT(Q) candidate's string value is being captured.
  bool OutValueOpen() const;

  const Query* query_;
  TruthSetMap truths_;
  /// Per query node (indexed by id): the node test's interned symbol
  /// and its wildcard flag, resolved once at creation.
  std::vector<Symbol> node_sym_;
  std::vector<uint8_t> node_wild_;

  std::vector<Record> frontier_;
  std::vector<Capture> captures_;
  std::string buffer_;
  size_t current_level_ = 0;
  bool done_ = false;
  bool matched_ = false;
  bool failed_ = false;
  size_t ordinal_ = 0;  ///< ordinal of the event being consumed
  size_t decided_at_ = kNoEventOrdinal;

  MemoryStats stats_;
  bool trace_enabled_ = false;
  std::vector<std::string> trace_;
  bool literal_mode_ = false;

  // --- output collection (full-fledged evaluation extension) ---

  /// One open scope: either an open candidate of a chain step (holding
  /// outputs pending that step's predicate confirmation) or an open
  /// OUT(Q) candidate whose value is being captured.
  struct OutputScope {
    size_t chain_index;   ///< 1-based position in chain_
    size_t elem_level;    ///< level of the open element
    size_t value_start;   ///< buffer offset (OUT scopes only)
    std::vector<std::string> pending;  ///< outputs awaiting confirmation
  };

  bool collecting_ = false;
  std::vector<const QueryNode*> chain_;  ///< root successors to OUT(Q)
  std::set<const QueryNode*> chain_set_;
  /// Child-axis records suspended during candidate expansion whose
  /// matched bit must be restored (OR-merged) at reinsertion. Entries
  /// are only stored for already-matched records, so this is a flat
  /// set of (query node, level) keys — linear-scanned, since at most
  /// one entry per open ancestor level can be live.
  std::vector<std::pair<const QueryNode*, size_t>> suspended_matched_;
  std::vector<OutputScope> scopes_;      ///< innermost last
  std::vector<std::string> root_pending_;
  std::vector<std::string> outputs_;
  /// Per-endElement-round aggregation verdicts indexed by query node
  /// id: -1 not aggregated this round, else the m bit. A flat array
  /// (not a map) so the per-event hot path allocates nothing.
  std::vector<int8_t> aggregated_m_;

  // Scratch for the per-event handlers: cleared per use, capacity kept
  // across events and documents — the allocation-free hot path.
  std::vector<size_t> scratch_candidates_;
  std::vector<std::pair<const QueryNode*, size_t>> scratch_delete_;
  std::vector<const QueryNode*> scratch_parents_;
};

}  // namespace xpstream

#endif  // XPSTREAM_STREAM_FRONTIER_FILTER_H_
