// The three workloads. Each generates its inputs from the seed in set-up,
// measures for Args::seconds, checks every answer outside the timed
// region, and fills `out` with the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
//
//   batch_d256       eigensolver-bound batch jobs: d = 256, s = 16, star.
//   scale_out_s1024  wire/channel-bound batch jobs: s = 1024 Zipf shards,
//                    tree(8) aggregation.
//   service_mixed    256 kConfigure-provisioned tenants, Zipf popularity,
//                    LRU eviction onto a store, closed then open loop.

#ifndef SKETCHBENCH_WORKLOADS_H_
#define SKETCHBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bench.h"

namespace sketchbench {

const std::vector<std::string>& WorkloadNames();

/// Runs `args.workload`. Returns false (with a message on stderr) when
/// the workload could not be set up at all.
bool RunWorkload(const Args& args, Metrics& out, Ledger& ledger,
                 Tracer& tracer);

}  // namespace sketchbench

#endif  // SKETCHBENCH_WORKLOADS_H_
