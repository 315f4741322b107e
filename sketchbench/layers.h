// Per-layer figures for the traced run. Each one times calls into a
// layer's public functions on the workload's own inputs, from outside the
// layer: no span or counter is added inside the library.

#ifndef SKETCHBENCH_LAYERS_H_
#define SKETCHBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "autoconf/config_plan.h"
#include "autoconf/solver.h"
#include "bench.h"
#include "dist/cluster.h"
#include "dist/merge_topology.h"
#include "service/tenant.h"
#include "service_flow.h"
#include "telemetry/telemetry.h"

namespace sketchbench {

struct LayerInputs {
  /// The whole input A (d = cols).
  const Matrix* full = nullptr;
  /// The row partition: servers, or tenants' rows on the service.
  const std::vector<Matrix>* parts = nullptr;
  /// The cluster over `parts`; dist replays send and run on it.
  distsketch::Cluster* cluster = nullptr;
  distsketch::MergeTopologyOptions topology;
  /// FD sketch size l the workload runs at.
  size_t fd_ell = 0;
  /// The workload's largest uplink matrix (codec and send replays).
  Matrix uplink;
  /// Tenant sizing and the ingest batches a replayed tenant absorbs.
  distsketch::TenantOptions tenant;
  std::vector<Matrix> tenant_batches;
  /// The configuration goal the workload states.
  distsketch::autoconf::AutoConfRequest goal;
  /// One configuration per family, replayed through BuildProtocol + Run.
  std::vector<distsketch::autoconf::SketchConfig> families;
  /// Store directory for checkpoint replays (inside the checkout).
  std::string store_dir;
  uint64_t seed = 1;
};

/// Appends every linalg/sketch/wire/dist/store/autoconf replay metric.
void MeasureLayers(const LayerInputs& in, Metrics& out);

/// Shrinks counted by the fd.shrinks counter over `fn`, read through a
/// telemetry context installed for that call only.
template <class Fn>
uint64_t CountShrinks(Fn&& fn) {
  distsketch::telemetry::Telemetry telem;
  {
    distsketch::telemetry::ScopedTelemetry scope(telem);
    fn();
  }
  return telem.metrics().CounterValue("fd.shrinks");
}

/// The service figures of an open-loop phase and of the service's own
/// counters over `requests` requests.
void ReportServiceFlow(const OpenResult& open,
                       distsketch::ServiceRunner& runner, uint64_t requests,
                       Metrics& out);

/// HandleBatch alone against ServiceRunner::Drain for the same round of
/// requests, each on a fresh instance with `options`.
void MeasureHandleBatch(const ServiceInputs& inputs,
                        const distsketch::ServiceRunnerOptions& options,
                        size_t round, Metrics& out);

}  // namespace sketchbench

#endif  // SKETCHBENCH_LAYERS_H_
