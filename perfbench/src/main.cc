// perfbench: the end-to-end benchmark of xpstreamd.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --daemon PATH/xpstreamd [--trace-out FILE]
//   perfbench --selftest
//
// Builds the workload's documents and queries from the seed, computes
// every expected verdict with the independent oracle before any timing,
// drives a child xpstreamd over loopback, and prints one JSON line as
// the last line of standard output: {"correct", "attempted", "failed",
// "metrics"}. Human-readable detail goes to standard error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "layers.h"
#include "loadgen.h"
#include "oracle.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "--daemon PATH [--trace-out FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", metrics[i].value);
    line += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, daemon, trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      const std::string failures = OracleSelfTest();
      std::fputs(failures.empty() ? "oracle self-test: ok\n" : failures.c_str(), stderr);
      return failures.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--daemon") {
      daemon = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (workload_name.empty() || daemon.empty() || seconds <= 0) return Usage();

  const std::string self_test = OracleSelfTest();
  if (!self_test.empty()) {
    std::fprintf(stderr, "perfbench: oracle self-test failed:\n%s", self_test.c_str());
    return 1;
  }
  Workload w;
  if (!MakeWorkload(workload_name, seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", workload_name.c_str());
    return 2;
  }
  // Every expected verdict, before anything is timed.
  Verdicts verdicts(w.queries.size(), std::vector<char>(w.docs.size()));
  for (size_t q = 0; q < w.queries.size(); ++q) {
    OracleQuery query;
    std::string error;
    if (!ParseOracleQuery(w.queries[q], w.names, &query, &error)) {
      std::fprintf(stderr, "perfbench: generator emitted %s\n", error.c_str());
      return 1;
    }
    for (size_t d = 0; d < w.docs.size(); ++d) verdicts[q][d] = Evaluate(query, w.docs[d]) ? 1 : 0;
  }

  Tracer tracer;
  LoadOptions options;
  options.daemon_exe = daemon;
  options.seconds = seconds;
  options.trace = trace;
  options.tracer = &tracer;
  LoadResult result = RunLoad(w, verdicts, options);
  if (!result.ok) {
    std::fprintf(stderr, "perfbench: run broke: %s\n", result.fault.c_str());
    PrintResult(false, result.attempted, result.failed, result.metrics);
    return 1;
  }
  for (const std::string& note : result.notes) std::fprintf(stderr, "%s: %s\n", w.name.c_str(), note.c_str());
  if (trace) {
    // In-process layer calls, traced, on the same inputs.
    tracer.Enable(true);
    std::vector<Metric> layers = RunLayers(w, seconds * 0.5, &tracer);
    tracer.Enable(false);
    double latency = 0, filter_xml = 0;
    for (const Metric& m : result.metrics) {
      if (m.name == "trace.untraced_latency_p50_us") latency = m.value;
    }
    for (const Metric& m : layers) {
      if (m.name == "api.filter_xml_us_per_doc") filter_xml = m.value;
    }
    layers.push_back({"server.wire_tax_us_per_doc", latency - filter_xml, "us"});
    result.metrics.insert(result.metrics.begin(), layers.begin(), layers.end());
    std::fprintf(stderr, "\nper-layer self time (%s, seed %llu):\n", w.name.c_str(),
                 static_cast<unsigned long long>(seed));
    tracer.PrintSelfTimeTable(stderr);
    std::fprintf(stderr, "\n%-34s %14s\n", "per-layer metric", "value");
    for (const Metric& m : result.metrics) {
      std::fprintf(stderr, "%-34s %14.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (!trace_out.empty() && !tracer.Write(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }
  PrintResult(true, result.attempted, result.failed, result.metrics);
  return 0;
}
