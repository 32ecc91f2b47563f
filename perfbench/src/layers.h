// Per-layer figures for the traced run, measured from outside each
// module by timing calls into its public functions on the workload's
// own documents and queries.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "loadgen.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Runs every layer probe within about `budget_s` seconds in total,
/// recording a span around each call.
std::vector<Metric> RunLayers(const Workload& workload, double budget_s, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
