#include "dist/protocol_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "common/logging.h"
#include "common/sketch_size.h"
#include "sketch/countsketch.h"
#include "sketch/frequent_directions.h"

namespace distsketch {
namespace {

double LogTerm(size_t d, double delta) {
  return std::max(1.0, std::log(static_cast<double>(d) / delta));
}

/// Frame header charged per message on the critical path (40 encoded
/// bytes = 5 words at the default 64-bit word).
constexpr double kPerMessageOverheadWords = 5.0;

/// One synchronization round expressed in words. This is the
/// latency/bandwidth knob of the topology model: without it a binary
/// chain always wins on serialized receives; with it deep trees stop
/// paying once messages are small relative to a round trip.
constexpr double kRoundOverheadWords = 128.0;

/// CheckedFamilySketchRows as a price: a size past kMaxSketchRows cannot
/// be built, so it costs infinitely many words.
double RowsOrInfinity(const std::string& family, double eps, size_t k,
                      size_t dim) {
  StatusOr<size_t> rows = CheckedFamilySketchRows(family, eps, k, dim);
  return rows.ok() ? static_cast<double>(*rows)
                   : std::numeric_limits<double>::infinity();
}

}  // namespace

StatusOr<size_t> CheckedFamilySketchRows(const std::string& family,
                                         double eps, size_t k, size_t dim) {
  if (family == "exact_gram") return dim;
  if (family == "countsketch") return CountSketchCompressor::BucketsFor(eps);
  if (family == "row_sampling") {
    return SizeFromReal(2.0 / (eps * eps), "row_sampling t = 2/eps^2");
  }
  // fd_merge; svs / adaptive_sketch sample an instance-dependent number
  // of rows, so they report the FD-equivalent l for the table.
  return FrequentDirections::SketchSizeFor(eps, k);
}

size_t FamilySketchRows(const std::string& family, double eps, size_t k,
                        size_t dim) {
  StatusOr<size_t> rows = CheckedFamilySketchRows(family, eps, k, dim);
  DS_CHECK(rows.ok());
  return *rows;
}

double PredictExactGramWords(size_t s, size_t d) {
  return static_cast<double>(s) * static_cast<double>(d) *
         static_cast<double>(d + 1) / 2.0;
}

double PredictFdMergeWords(size_t s, size_t d, const SketchGoal& goal) {
  const double l = RowsOrInfinity("fd_merge", goal.eps, goal.k, d);
  return static_cast<double>(s) * l * static_cast<double>(d);
}

double PredictRowSamplingWords(size_t s, size_t d, const SketchGoal& goal) {
  // Only provides the (eps, 0) guarantee; t = 2/eps^2 samples (the
  // oversample this library defaults to in benches).
  const double t = 2.0 / (goal.eps * goal.eps);
  return t * static_cast<double>(d) + 3.0 * static_cast<double>(s);
}

double PredictSvsWords(size_t s, size_t d, const SketchGoal& goal,
                       SamplingFunctionKind kind) {
  // Theorem 6 at alpha = eps/4 (the calibration the protocols use);
  // Theorem 5's linear function needs log(d/delta) where the quadratic
  // one needs its square root.
  const double alpha = goal.eps / 4.0;
  const double log_term = LogTerm(d, goal.delta);
  const double log_factor = kind == SamplingFunctionKind::kLinear
                                ? log_term
                                : std::sqrt(log_term);
  return std::sqrt(static_cast<double>(s)) * static_cast<double>(d) / alpha *
             log_factor +
         2.0 * static_cast<double>(s);
}

double PredictAdaptiveWords(size_t s, size_t d, const SketchGoal& goal) {
  const double k = static_cast<double>(goal.k);
  return static_cast<double>(s) * k * static_cast<double>(d) +
         std::sqrt(static_cast<double>(s)) * k * static_cast<double>(d) /
             goal.eps * std::sqrt(LogTerm(d, goal.delta)) +
         2.0 * static_cast<double>(s);
}

double PredictCountSketchWords(size_t s, size_t d, const SketchGoal& goal) {
  const double m = RowsOrInfinity("countsketch", goal.eps, 0, d);
  return static_cast<double>(s) * m * static_cast<double>(d) +
         static_cast<double>(s);
}

double PredictCoordinatorInboundWords(size_t s,
                                      const MergeTopologyOptions& topology,
                                      double message_words) {
  auto topo = MergeTopology::Build(s, topology);
  DS_CHECK(topo.ok());
  return static_cast<double>(topo->top_width()) * message_words;
}

double PredictCriticalPathWords(size_t s, const MergeTopologyOptions& topology,
                                double message_words) {
  auto topo = MergeTopology::Build(s, topology);
  DS_CHECK(topo.ok());
  const double per_message = message_words + kPerMessageOverheadWords;
  double total = 0.0;
  for (const auto& stage : topo->stages()) {
    // The busiest receiver of the stage takes its inbound messages back
    // to back; everything else overlaps with it.
    std::map<int, size_t> inbound;
    size_t busiest = 0;
    for (int node : stage) {
      const size_t count = ++inbound[topo->node(static_cast<size_t>(node))
                                         .parent];
      busiest = std::max(busiest, count);
    }
    total += static_cast<double>(busiest) * per_message + kRoundOverheadWords;
  }
  return total;
}

}  // namespace distsketch
