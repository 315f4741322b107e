#include "dist/countsketch_protocol.h"

#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "linalg/blas.h"
#include "sketch/countsketch.h"
#include "telemetry/span.h"
#include "workload/row_stream.h"

namespace distsketch {
namespace {

/// High bits of the global row index of server `server`'s rows. Under a
/// row partition a row is named (server << 32) | local_row: locally
/// computable, distinct across servers (local counts stay far below
/// 2^32), and stable under re-partitioning by whole shards — the
/// properties the shared hash needs. Under an additive partition row r
/// of every share is the same row of A, so the index is r itself and the
/// shares' buckets add up to S A. Documented in DESIGN.md §14.
inline uint64_t RowIndexBase(const Cluster& cluster, size_t server) {
  return cluster.additive() ? 0 : static_cast<uint64_t>(server) << 32;
}

Status LostShare(size_t server) {
  return Status::Unavailable(
      "countsketch: share " + std::to_string(server) +
      " permanently lost; the additive sum is unrecoverable");
}

}  // namespace

StatusOr<SketchProtocolResult> CountSketchProtocol::Run(Cluster& cluster) {
  cluster.ResetLog();
  ProtocolRunScope run_scope(cluster, "countsketch");
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  cluster.log().BeginRound();

  DS_ASSIGN_OR_RETURN(
      const size_t m,
      CountSketchCompressor::BucketsFor(options_.eps, options_.oversample));

  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));

  SketchProtocolResult result;

  // Seed downlink, reverse topology order: the coordinator sends the
  // 1-word seed to the top layer only; interior nodes forward it to
  // their children. Every server receives the seed exactly once, and the
  // coordinator's outbound traffic is top_width words instead of s. A
  // dead forwarder is routed around exactly like a dead merge target:
  // the next live ancestor (or the coordinator) sends instead.
  std::vector<uint64_t> seeds(s, 0);
  std::vector<uint8_t> seeded(s, 0);
  {
    telemetry::Span span("countsketch/seed_downlink",
                         telemetry::Phase::kComm);
    const auto& stages = topo.stages();
    wire::Message seed_msg = wire::SeedMessage("cs_seed", options_.seed);
    for (size_t r = stages.size(); r-- > 0;) {
      for (int node : stages[r]) {
        if (cluster.ServerLost(node)) continue;
        int src = topo.node(static_cast<size_t>(node)).parent;
        while (src != kCoordinator &&
               (cluster.ServerLost(src) || !seeded[static_cast<size_t>(src)])) {
          src = topo.node(static_cast<size_t>(src)).parent;
        }
        SendOutcome out = cluster.Send(src, node, seed_msg);
        if (!out.delivered) continue;  // loss accounted at reduce time
        DS_ASSIGN_OR_RETURN(seeds[static_cast<size_t>(node)],
                            wire::DecodeSeedPayload(out.payload));
        seeded[static_cast<size_t>(node)] = 1;
      }
    }
  }
  // In the additive model a server without the seed cannot contribute
  // its share, and a missing share is fatal: the cross terms of A^T A
  // are unbounded by any local quantity, so no widened bound covers it.
  if (cluster.additive()) {
    for (size_t i = 0; i < s; ++i) {
      if (!seeded[i]) return LostShare(i);
    }
  }

  // Local compute: each seeded server streams its rows through the
  // compressor under the decoded seed — sparse rows through the O(nnz)
  // scatter kernel when a CSR view is attached.
  std::vector<Matrix> locals = ParallelMap<Matrix>(s, [&](size_t i) {
    Matrix compressed;
    if (!seeded[i]) {
      compressed.SetZero(m, d);
      return compressed;
    }
    telemetry::Span span("countsketch/local_compress",
                         telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    const Server& server = cluster.server(i);
    CountSketchCompressor compressor(m, d, seeds[i]);
    const uint64_t base = RowIndexBase(cluster, i);
    const bool sparse = options_.use_sparse && server.has_sparse();
    span.SetAttr("kernel", sparse ? "sparse" : "dense");
    if (sparse) {
      const CsrMatrix& csr = server.sparse();
      for (size_t r = 0; r < csr.rows(); ++r) {
        compressor.AbsorbSparse(base | r, csr.RowIndices(r),
                                csr.RowValues(r));
      }
    } else {
      RowStream stream = server.OpenStream();
      for (size_t r = 0; stream.HasNext(); ++r) {
        compressor.Absorb(base | r, stream.Next());
      }
    }
    compressed = std::move(compressor.ExportState().compressed);
    return compressed;
  });

  // Uplink: bucket matrices add (linearity), so interior nodes sum in
  // place and the driver handles transfers, telemetry and loss.
  Matrix total;
  total.SetZero(m, d);
  TreeReduceHooks hooks;
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    wire::DecodedMatrix received;
    DS_ASSIGN_OR_RETURN(received, wire::DecodeMessagePayload(payload));
    Matrix& dst =
        node == kCoordinator ? total : locals[static_cast<size_t>(node)];
    dst = Add(dst, received.matrix);
    return Status::OK();
  };
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    const Matrix compressed = std::move(locals[static_cast<size_t>(node)]);
    return wire::DenseMessage("local_cs", compressed);
  };
  // The additive model never widens a bound (any loss is Unavailable
  // below), so only a row partition sends the mass reports.
  if (!cluster.additive()) hooks.local_mass = LocalRowMass(cluster);
  DS_RETURN_IF_ERROR(RunTreeReduce(cluster, topo, hooks, result.degraded));
  if (cluster.additive() && result.degraded.degraded()) {
    return LostShare(static_cast<size_t>(result.degraded.lost_servers[0]));
  }

  result.sketch = std::move(total);
  result.comm = cluster.log().Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
