// The load generator: drives a child xpstreamd over loopback from one
// single-threaded poll loop that speaks docs/protocol.md itself, and
// checks every verdict and protocol property as frames arrive.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// verdicts[q][d]: the oracle's answer for query q on document d.
using Verdicts = std::vector<std::vector<char>>;

struct LoadOptions {
  std::string daemon_exe;
  double seconds = 10;
  /// Traced mode: an untraced and a traced round of the document phases,
  /// spans recorded in the second.
  bool trace = false;
  Tracer* tracer = nullptr;  // required; spans are kept while it is enabled
};

struct LoadResult {
  /// False when the run itself broke (daemon died, protocol desync,
  /// set-up refused); `fault` says why.
  bool ok = true;
  std::string fault;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer in traced mode
  /// Latency-phase figures kept for the human-readable report only.
  std::vector<std::string> notes;
};

LoadResult RunLoad(const Workload& workload, const Verdicts& verdicts,
                   const LoadOptions& options);

/// The q-quantile of `values` with linear interpolation; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
