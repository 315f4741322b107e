#include "dist/fd_merge_protocol.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "sketch/frequent_directions.h"
#include "sketch/quantizer.h"
#include "telemetry/span.h"
#include "wire/sketch_serde.h"
#include "workload/row_stream.h"

namespace distsketch {
namespace {

StatusOr<FrequentDirections> MakeFd(size_t dim, const FdMergeOptions& opt) {
  if (opt.k == 0) {
    return FrequentDirections::FromEps(dim, opt.eps);
  }
  return FrequentDirections::FromEpsK(dim, opt.eps, opt.k);
}

}  // namespace

StatusOr<SketchProtocolResult> FdMergeProtocol::Run(Cluster& cluster) {
  cluster.ResetLog();
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  ProtocolRunScope run_scope(cluster, "fd_merge");
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  const CostModel& cost = cluster.cost_model();
  cluster.log().BeginRound();

  SketchProtocolResult result;
  // Validates the options once; the per-server sketches below use the
  // same parameters and therefore cannot fail.
  DS_ASSIGN_OR_RETURN(FrequentDirections merged, MakeFd(d, options_));

  // Quantize and checkpoint are star-only: the §3.3 rounding argument
  // covers leaf-to-coordinator sketches, not re-quantized interior
  // merges, and restart points are per coordinator-bound uplink.
  if (!options_.topology.is_star()) {
    if (options_.quantize) {
      return Status::InvalidArgument(
          "fd_merge: quantize requires the star topology");
    }
    if (options_.checkpoint.enabled() ||
        options_.checkpoint.halt_after_servers < s) {
      return Status::InvalidArgument(
          "fd_merge: checkpoint/restart requires the star topology");
    }
  }
  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));

  // Checkpoint restore: the done bitmap marks servers already folded
  // into the saved partial sketch; this run skips them, so the merge
  // order over the full run sequence matches an uninterrupted run.
  std::vector<uint8_t> done(s, 0);
  DS_ASSIGN_OR_RETURN(
      std::optional<wire::CoordinatorCheckpoint> restored,
      LoadCheckpoint(options_.checkpoint, kCheckpointProtocolFdMerge, s));
  if (restored.has_value()) {
    done = restored->done;
    if (!restored->sketch_blob.empty()) {
      DS_ASSIGN_OR_RETURN(
          wire::CompactSketch compact,
          wire::CompactSketch::Wrap(restored->sketch_blob.data(),
                                    restored->sketch_blob.size()));
      DS_ASSIGN_OR_RETURN(merged, compact.ToFrequentDirections());
    }
  }

  // Per-node accumulators, seeded with the local rows on the pool (FD's
  // shrinks run their fixed serial schedule inside a ParallelMap, so the
  // bits do not depend on the thread count); children's sketches are
  // folded in by absorb, and make_message consumes them.
  std::vector<std::optional<FrequentDirections>> acc(s);
  ParallelMap<int>(s, [&](size_t i) {
    if (done[i]) return 0;  // already in the restored coordinator state
    telemetry::Span span("fd_merge/local_sketch", telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    acc[i].emplace(*MakeFd(d, options_));
    RowStream stream = cluster.server(i).OpenStream();
    while (stream.HasNext()) acc[i]->Append(stream.Next());
    return 0;
  });

  const double precision =
      options_.quantize
          ? SketchRoundingPrecision(cluster.total_rows(), d, options_.eps)
          : 0.0;
  TreeReduceHooks hooks;
  // The coordinator merges what it decoded off the wire (dense or
  // quantized codec), never the sender's in-memory sketch.
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix received,
                        wire::DecodeMessagePayload(payload));
    FrequentDirections& dst =
        node == kCoordinator ? merged : *acc[static_cast<size_t>(node)];
    dst.AppendRows(received.matrix);
    return Status::OK();
  };
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    const Matrix sketch = acc[static_cast<size_t>(node)]->Sketch();
    acc[static_cast<size_t>(node)].reset();
    if (options_.quantize && sketch.rows() > 0) {
      DS_ASSIGN_OR_RETURN(QuantizeResult q, QuantizeMatrix(sketch, precision));
      DS_ASSIGN_OR_RETURN(
          wire::Message msg,
          wire::QuantizedMessage("local_sketch_q", q, cost.bits_per_word()));
      DS_CHECK(msg.words == cost.BitsToWords(q.total_bits));
      return msg;
    }
    wire::Message msg = wire::DenseMessage("local_sketch", sketch);
    DS_CHECK(msg.words == cost.MatrixWords(sketch.rows(), d));
    return msg;
  };
  hooks.local_mass = LocalRowMass(cluster);
  hooks.already_absorbed = [&](int node) {
    return done[static_cast<size_t>(node)] != 0;
  };
  // Lost servers stay un-done and are retried by a resumed run, but they
  // count toward halt_after_servers.
  size_t processed = 0;
  hooks.root_settled = [&](int node, bool delivered) -> StatusOr<bool> {
    if (delivered) done[static_cast<size_t>(node)] = 1;
    ++processed;
    if (options_.checkpoint.enabled()) {
      // Checkpoint the pre-finalization buffer: the final Sketch() call
      // below is the only step a resumed run repeats, exactly as an
      // uninterrupted run performs it once at the end.
      wire::CoordinatorCheckpoint checkpoint;
      checkpoint.protocol_id = kCheckpointProtocolFdMerge;
      checkpoint.servers_total = s;
      checkpoint.done = done;
      checkpoint.sketch_blob = wire::SerializeSketch(merged);
      DS_RETURN_IF_ERROR(SaveCheckpoint(options_.checkpoint, checkpoint));
    }
    if (processed >= options_.checkpoint.halt_after_servers) {
      result.halted = true;
      return false;
    }
    return true;
  };
  DS_RETURN_IF_ERROR(RunTreeReduce(cluster, topo, hooks, result.degraded));

  result.sketch = merged.Sketch();
  result.comm = cluster.log().Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
