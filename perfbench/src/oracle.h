// The independent verdict oracle: a small evaluator for exactly the
// query grammar the benchmark's generators emit,
//
//   query := ('/' | '//') step (('/' | '//') step)*
//   step  := (name | '*') ('[' atom (' and ' atom)* ']')?
//   atom  := '@' name ('=' literal)?  |  relpath ('=' literal)?
//   relpath := (name | '*') (('/' | '//') (name | '*'))*
//
// with XPath 1.0 semantics: a query matches a document when it selects
// at least one element; `path = "v"` holds when some element the path
// reaches has string value "v". It shares no code with xpstream.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "model.h"

namespace perfbench {

struct OracleStep {
  bool descendant = false;
  std::string name;  // "*" for the wildcard
  int id = -1;       // -1 wildcard, -2 a name no document has
};

struct OracleAtom {
  bool attribute = false;
  std::vector<OracleStep> path;  // attribute: one step, the attribute name
  bool has_value = false;
  std::string value;
};

struct OracleQuery {
  struct Step {
    OracleStep test;
    std::vector<OracleAtom> preds;
  };
  std::vector<Step> steps;
};

/// Parses `text`; false (with `*error` set) outside the grammar above.
bool ParseOracleQuery(const std::string& text, const NameTable& names,
                      OracleQuery* out, std::string* error);

/// Whether `query` selects at least one element of `doc`.
bool Evaluate(const OracleQuery& query, const FlatDoc& doc);

/// Checks the oracle against hand-written documents and queries whose
/// verdicts are written by hand; returns the failures, one per line.
std::string OracleSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
