// The layer-peeled traced run: one connection replays a prefix of the timed
// op sequence, entering every op at each layer's public boundary in turn
// (net::Client, api::Service, core::ShardedSystem, the per-shard
// ITagSystem/QualityManager facade), with storage isolated as a durable
// world minus an in-memory one.
#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Traced {
  std::vector<Metric> metrics;
  Tally tally;
  std::vector<std::string> failures;
  uint64_t op_digest = 0;
  // Spans as Chrome trace-event JSON (the format of itag_server's
  // --trace-export), one track per op id.
  std::string chrome_json;
};

// `base_dir` receives the durable worlds' directories; `timed_p50_us` is the
// timed run's p50, from which the traced client span is subtracted to give
// the time ops wait under concurrency.
Traced RunTraced(Workload w, uint64_t seed, const std::string& base_dir,
                 double timed_p50_us);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
