#ifndef XPSTREAM_XML_SYMBOL_TABLE_H_
#define XPSTREAM_XML_SYMBOL_TABLE_H_

/// \file
/// Name interning for the event pipeline. The paper charges streaming
/// algorithms per SAX event; hashing or comparing raw tag names on every
/// event in every engine is pure overhead on that unit of work. A
/// SymbolTable interns each distinct name once — at parse time, on the
/// thread driving the pipeline — and everything downstream (query step
/// tests, automaton edges, frontier node tests) compares 32-bit Symbol
/// ids instead of strings.
///
/// One table is shared per pipeline: the Engine facade owns it, the
/// XmlParser interns into it as it tokenizes, filters resolve their
/// query node tests against it at subscription time, and ShardedMatcher
/// threads the same table through every shard (ids are stable across
/// shards, so sharded verdicts stay bit-identical to one thread).
///
/// Thread-safety: none — all interning happens on the single thread
/// driving the pipeline (parse / subscribe / dispatch). Shard replay on
/// pool workers only *reads* pre-resolved symbols; ShardedMatcher
/// resolves every event of a batch before fanning it out.
///
/// Representation: ids are dense uint32 in intern order; symbol → name
/// is a plain vector index (no hashing on resolve), name → symbol is an
/// open-addressing probe over stored 64-bit hashes, so table growth
/// re-buckets without re-hashing any string.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace xpstream {

/// A dense id for an interned name. Valid only relative to the
/// SymbolTable that produced it.
using Symbol = uint32_t;

/// "No symbol": nameless events (text, document envelope) and events
/// whose producer did not intern.
inline constexpr Symbol kNoSymbol = static_cast<Symbol>(-1);

class SymbolTable {
 public:
  SymbolTable();

  /// Returns the id of `name`, interning it first if new. Ids are dense
  /// and assigned in first-intern order, starting at 0.
  Symbol Intern(std::string_view name);

  /// Lookup without interning; kNoSymbol when the name was never
  /// interned. Never mutates, so concurrent Find calls are safe as long
  /// as no thread is interning.
  Symbol Find(std::string_view name) const;

  /// The interned spelling of `sym`; a vector index, no hashing. The
  /// view stays valid for the table's lifetime (names are never moved).
  std::string_view NameOf(Symbol sym) const { return names_[sym]; }

  /// Number of distinct names interned.
  size_t size() const { return names_.size(); }

  /// Bytes held by the table: stored name characters plus index
  /// structures. Reported by the facade as MemoryStats::symbol_bytes —
  /// the once-per-name cost that replaces per-event name storage in the
  /// accounting model.
  size_t FootprintBytes() const;

 private:
  size_t SlotOf(uint64_t hash, std::string_view name) const;
  void Grow();

  std::deque<std::string> store_;        ///< owns spellings; never moves
  std::vector<std::string_view> names_;  ///< id -> spelling (into store_)
  std::vector<uint64_t> hashes_;         ///< id -> hash (rebucket w/o rehash)
  std::vector<Symbol> slots_;            ///< open addressing; kNoSymbol empty
  size_t string_bytes_ = 0;              ///< sum of stored name lengths
};

/// A bound-or-owned reference to a pipeline's SymbolTable. Pipeline
/// stages (filters, matchers, the NFA index) bind the shared table they
/// are created under; stages constructed standalone (unit tests, the
/// lower-bound harness) lazily own a private one, so the same code path
/// serves both.
class SymbolTableRef {
 public:
  /// Binds `table`; nullptr keeps (or later creates) a private table.
  void Bind(SymbolTable* table) {
    if (table != nullptr) table_ = table;
  }

  SymbolTable* get() {
    if (table_ == nullptr) {
      owned_ = std::make_unique<SymbolTable>();
      table_ = owned_.get();
    }
    return table_;
  }

  /// The table for lookups that must not create one: nullptr while no
  /// table is bound or owned yet (then no name was ever interned).
  const SymbolTable* get() const { return table_; }

 private:
  SymbolTable* table_ = nullptr;
  std::unique_ptr<SymbolTable> owned_;
};

}  // namespace xpstream

#endif  // XPSTREAM_XML_SYMBOL_TABLE_H_
