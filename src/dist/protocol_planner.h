#ifndef DISTSKETCH_DIST_PROTOCOL_PLANNER_H_
#define DISTSKETCH_DIST_PROTOCOL_PLANNER_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "dist/merge_topology.h"
#include "dist/sketch_goal.h"
#include "sketch/sampling_function.h"

namespace distsketch {

/// The Table 1 cost oracle: predicted words of each protocol family for
/// an (s, d) instance and goal (constants calibrated to this
/// implementation). The auto-configurer's solver (autoconf/solver.h)
/// prices every candidate through these functions and is the only
/// protocol chooser; they are exposed for tests and the planner bench.

/// Rows (FD l / CountSketch buckets m / expected samples t) of the
/// family's uplink message at `eps` — the l knob of Table 1. l and m come
/// from FrequentDirections::SketchSizeFor and CountSketchCompressor::
/// BucketsFor, so every price, solved config and built sketch shares one
/// definition. InvalidArgument when the size exceeds kMaxSketchRows
/// (common/sketch_size.h); the Predict* prices are then infinite.
StatusOr<size_t> CheckedFamilySketchRows(const std::string& family,
                                         double eps, size_t k, size_t dim);
/// CheckedFamilySketchRows for an eps known to give a buildable size (a
/// fixed workload's, a solved config's); aborts otherwise.
size_t FamilySketchRows(const std::string& family, double eps, size_t k,
                        size_t dim);

double PredictExactGramWords(size_t s, size_t d);
double PredictFdMergeWords(size_t s, size_t d, const SketchGoal& goal);
double PredictRowSamplingWords(size_t s, size_t d, const SketchGoal& goal);
/// Theorem 6 (quadratic sampling function) at alpha = eps/4; the linear
/// function of Theorem 5 pays an extra sqrt(log(d/delta)) factor.
double PredictSvsWords(
    size_t s, size_t d, const SketchGoal& goal,
    SamplingFunctionKind kind = SamplingFunctionKind::kQuadratic);
double PredictAdaptiveWords(size_t s, size_t d, const SketchGoal& goal);
/// Distributed CountSketch: every server ships its m-by-d bucket matrix
/// (m = ceil(4/eps^2), the protocol's default oversample) plus the
/// 1-word seed downlink each server receives. Quadratic in 1/eps, so it
/// loses to sampling/SVS on words alone — but it is the only family
/// whose sketch is *linear* in A, hence the only candidate under
/// goal.arbitrary_partition, and it overtakes exact_gram once
/// d > ~8/eps^2.
double PredictCountSketchWords(size_t s, size_t d, const SketchGoal& goal);

/// Words received by the coordinator for an s-server reduction of
/// `message_words`-word uplinks under `topology`: s * message under
/// star, top_width * message under a tree (every interior merge keeps
/// the per-hop payload size fixed — FD shrink-merge, Gram add and
/// CountSketch bucket add all do).
double PredictCoordinatorInboundWords(size_t s,
                                      const MergeTopologyOptions& topology,
                                      double message_words);

/// Serialized-receive critical path of the reduction, in words: per
/// stage the busiest receiver takes max_inbound messages back to back
/// (message_words + frame overhead each), and each stage adds one
/// round-latency charge. Star pays s serialized receives in one round;
/// a k-ary tree pays (k-1) * depth + top_width receives across depth+1
/// rounds — the solver's crossover between the two.
double PredictCriticalPathWords(size_t s, const MergeTopologyOptions& topology,
                                double message_words);

}  // namespace distsketch

#endif  // DISTSKETCH_DIST_PROTOCOL_PLANNER_H_
