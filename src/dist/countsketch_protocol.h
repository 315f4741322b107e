#ifndef DISTSKETCH_DIST_COUNTSKETCH_PROTOCOL_H_
#define DISTSKETCH_DIST_COUNTSKETCH_PROTOCOL_H_

#include <cstdint>

#include "dist/merge_topology.h"
#include "dist/protocol.h"

namespace distsketch {

/// Options for the distributed CountSketch projection protocol.
struct CountSketchProtocolOptions {
  /// Accuracy parameter: m = ceil(oversample / eps^2) buckets give
  /// coverr <= eps * ||A||_F^2 with constant probability.
  double eps = 0.1;
  double oversample = 4.0;
  /// Seed of the shared hash family. The coordinator owns it and ships
  /// it down the topology; servers use the seed they decode off the
  /// wire, never ambient configuration.
  uint64_t seed = 0x5eedULL;
  /// Aggregation topology. CountSketch is linear (S A = sum_i S A^(i)),
  /// so bucket matrices add associatively and any topology computes the
  /// same sum; trees also cut the coordinator's *outbound* seed traffic
  /// to top_width words, since interior nodes forward the seed to their
  /// children.
  MergeTopologyOptions topology;
  /// Absorb rows through the O(nnz) scatter_axpy kernel on servers that
  /// carry a CSR view (Cluster::CreateSparse).
  bool use_sparse = true;
};

/// The randomized *projection* protocol, and the one protocol that runs
/// in both partition models: every server streams its local rows through
/// the shared-seed CountSketch compressor (global row index =
/// server_id * 2^32 + local row under a row partition, so shards agree
/// on the hash without a per-row broadcast; the share row index itself
/// on a Cluster::CreateAdditive cluster, where row r of every share is
/// row r of A), and bucket matrices are summed up the merge topology —
/// one m-by-d message per server, coordinator inbound top_width
/// messages. One round (plus the 1-word seed downlink), O(s d / eps^2)
/// words independent of n, coverr <= eps * ||A||_F^2 with constant
/// probability (DESIGN.md §14). Because S A = sum_i S A^(i), the sketch
/// survives the arbitrary-partition model, the paper's concluding open
/// question. There a lost seed or share returns Unavailable: the missing
/// cross terms of A^T A admit no degraded-mode bound.
class CountSketchProtocol : public SketchProtocol {
 public:
  explicit CountSketchProtocol(CountSketchProtocolOptions options)
      : options_(options) {}

  std::string_view Name() const override { return "countsketch"; }
  StatusOr<SketchProtocolResult> Run(Cluster& cluster) override;

  const CountSketchProtocolOptions& options() const { return options_; }

 private:
  CountSketchProtocolOptions options_;
};

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_COUNTSKETCH_PROTOCOL_H_
