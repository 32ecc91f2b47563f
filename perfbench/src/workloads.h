// The four workloads: seeded documents and queries, how the load
// generator's connections hold them, and the daemon flags that belong
// to each workload.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model.h"

namespace perfbench {

struct Subscription {
  size_t query = 0;       // index into Workload::queries
  bool earliest = false;  // delivery mode 1 (MATCH at the commitment point)
};

struct ConnPlan {
  bool publisher = false;
  std::vector<Subscription> subs;  // SUBSCRIBEd in order during set-up
};

struct Workload {
  std::string name;
  std::vector<std::string> daemon_flags;
  std::string engine;  // --engine, for the in-process layer probes

  std::vector<std::string> xml;
  std::vector<std::vector<std::string>> chunks;
  std::vector<FlatDoc> docs;
  NameTable names;

  std::vector<std::string> queries;  // distinct texts
  std::vector<ConnPlan> conns;
  /// Documents past DOC_END whose DOC_DONEs have not all arrived, summed
  /// over publishers; kept at or under the pool queue depth (16) so the
  /// daemon never refuses a document.
  size_t inflight_cap = 1;

  /// Set-ups per run: setup_s is their median.
  int setups = 5;

  /// The connection whose subscriptions are mutated beside document
  /// traffic. churn unsubscribes one at random and subscribes its query
  /// again; the other workloads subscribe one of their queries and take
  /// it back.
  size_t mutator = 0;
  bool churn = false;
  /// The connection whose kEarliest MATCHes time first_match_p50_us, or
  /// -1 for any connection.
  int first_match_conn = -1;
};

/// Builds workload `name` from `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
