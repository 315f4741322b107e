#include "autoconf/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "autoconf/protocol_factory.h"
#include "dist/protocol_planner.h"
#include "sketch/quantizer.h"
#include "telemetry/span.h"
#include "telemetry/telemetry.h"

namespace distsketch {
namespace autoconf {
namespace {

// Frame header charged per uplink when no calibrated bytes-per-word is
// available (matches the planner's kPerMessageOverheadWords at the
// default 64-bit word).
constexpr double kFrameBytes = 40.0;

std::string FormatEps(double eps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", eps);
  return buf;
}

// Families whose merge is associative: the uplink payload size is fixed
// per hop, so non-star aggregation topologies apply.
bool Associative(const std::string& family) {
  return family == "fd_merge" || family == "exact_gram" ||
         family == "countsketch";
}

// The analytic covariance-error bound of `family` at working_eps,
// relative to ||A||_F^2 (k >= 1 bounds are eps * tail / k <= eps, so
// working_eps is the honest relative ceiling there too).
double AnalyticRelativeBound(const std::string& family, double working_eps) {
  if (family == "exact_gram") return 0.0;
  return working_eps;
}

// Uplink message size in words for the associative families (what each
// hop of a reduction carries).
double MessageWords(const SketchConfig& config, size_t d) {
  if (config.family == "exact_gram") {
    return static_cast<double>(d) * static_cast<double>(d + 1) / 2.0;
  }
  return static_cast<double>(config.sketch_rows) * static_cast<double>(d);
}

// Table 1 words for the family via the protocol_planner cost oracle.
double OracleTotalWords(const SketchConfig& config, size_t s, size_t d) {
  SketchGoal goal;
  goal.eps = config.working_eps;
  goal.k = config.k;
  goal.delta = config.delta;
  if (config.family == "exact_gram") return PredictExactGramWords(s, d);
  if (config.family == "fd_merge") return PredictFdMergeWords(s, d, goal);
  if (config.family == "row_sampling") {
    return PredictRowSamplingWords(s, d, goal);
  }
  if (config.family == "svs") {
    return PredictSvsWords(s, d, goal, config.sampling);
  }
  if (config.family == "adaptive_sketch") {
    return PredictAdaptiveWords(s, d, goal);
  }
  return PredictCountSketchWords(s, d, goal);
}

// §3.3 bit width of the quantized fd_merge uplink (analytic fallback
// when the calibration table lacks fd_merge_q): entries rounded to the
// SketchRoundingPrecision lattice need log2(range/precision) bits.
uint64_t AnalyticQuantizeBits(const InstanceShape& shape, double eps) {
  const uint64_t n = std::max<uint64_t>(shape.total_rows, 1);
  const double precision =
      SketchRoundingPrecision(n, static_cast<uint64_t>(shape.dim), eps);
  const double bits = std::ceil(std::log2(2.0 / precision)) + 1.0;
  return static_cast<uint64_t>(std::clamp(bits, 1.0, 64.0));
}

CostPrediction PriceConfig(const SketchConfig& config,
                           const InstanceShape& shape,
                           const ErrorPredictor* predictor,
                           const std::string& family_key) {
  const size_t s = shape.num_servers;
  const size_t d = shape.dim;
  CostPrediction cost;
  cost.total_words = OracleTotalWords(config, s, d);
  if (Associative(config.family)) {
    const double message = MessageWords(config, d);
    cost.coordinator_words =
        PredictCoordinatorInboundWords(s, config.topology, message);
    cost.critical_path_words =
        PredictCriticalPathWords(s, config.topology, message);
  } else {
    // Star-only families: everything lands at the coordinator; the
    // critical path serializes the s uplinks of the (averaged) size.
    cost.coordinator_words = cost.total_words;
    cost.critical_path_words = PredictCriticalPathWords(
        s, MergeTopologyOptions::Star(),
        cost.total_words / static_cast<double>(s));
  }
  const double bytes_per_word =
      predictor ? predictor->BytesPerWord(family_key, config.working_eps, s)
                : 0.0;
  if (bytes_per_word > 0.0) {
    cost.total_wire_bytes = cost.total_words * bytes_per_word;
    cost.wire_bytes_calibrated = true;
  } else if (config.quantize_bits > 0) {
    cost.total_wire_bytes =
        cost.total_words * static_cast<double>(config.quantize_bits) / 8.0 +
        static_cast<double>(s) * kFrameBytes;
  } else {
    cost.total_wire_bytes =
        cost.total_words * 8.0 + static_cast<double>(s) * kFrameBytes;
  }
  return cost;
}

// Feasibility, binding constraint and headroom against the set budgets.
void JudgeCandidate(const Budget& budget, ConfigCandidate& c) {
  struct Check {
    BindingConstraint which;
    double usage;
    double limit;
  };
  std::vector<Check> checks;
  if (budget.max_coordinator_words > 0) {
    checks.push_back({BindingConstraint::kCoordinatorWords,
                      c.cost.coordinator_words,
                      static_cast<double>(budget.max_coordinator_words)});
  }
  if (budget.max_total_wire_bytes > 0) {
    checks.push_back({BindingConstraint::kWireBytes, c.cost.total_wire_bytes,
                      static_cast<double>(budget.max_total_wire_bytes)});
  }
  if (budget.max_critical_path_words > 0) {
    checks.push_back({BindingConstraint::kCriticalPath,
                      c.cost.critical_path_words,
                      static_cast<double>(budget.max_critical_path_words)});
  }
  if (checks.empty()) {
    c.feasible = true;
    c.binding = BindingConstraint::kErrorGoal;
    c.headroom = std::numeric_limits<double>::infinity();
    return;
  }
  c.feasible = true;
  c.headroom = std::numeric_limits<double>::infinity();
  double worst_ratio = -1.0;
  for (const Check& check : checks) {
    const double usage = std::max(check.usage, 1e-12);
    const double ratio = usage / check.limit;
    if (usage > check.limit) c.feasible = false;
    c.headroom = std::min(c.headroom, check.limit / usage);
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      c.binding = check.which;
    }
  }
}

// The cost dimension candidates are ranked by: the budgeted one, with
// coordinator words taking priority when several budgets are set (it is
// the paper's headline quantity), total words when none are.
double RankCost(const Budget& budget, const CostPrediction& cost) {
  if (budget.max_coordinator_words > 0) return cost.coordinator_words;
  if (budget.max_total_wire_bytes > 0) return cost.total_wire_bytes;
  if (budget.max_critical_path_words > 0) return cost.critical_path_words;
  return cost.total_words;
}

// Deterministic candidate identity for tie-breaking and summaries.
std::string CandidateKey(const SketchConfig& config) {
  std::string key = FamilyKey(config);
  key += "@";
  key += FormatEps(config.working_eps);
  key += "/";
  key += TopologyKindName(config.topology.kind);
  if (config.topology.kind == TopologyKind::kTree) {
    key += std::to_string(config.topology.fanout);
  }
  return key;
}

std::string Rationale(const ConfigCandidate& c, const SketchGoal& goal) {
  std::ostringstream out;
  out << CandidateKey(c.config);
  if (c.config.working_eps > goal.eps) {
    out << " (relaxed from goal eps " << FormatEps(goal.eps)
        << "; calibration certifies measured error <= "
        << FormatEps(c.error.Certified(true)) << ")";
  }
  out << ": err<=" << FormatEps(c.error.Certified(true)) << " ("
      << (c.error.calibrated ? "calibrated" : "analytic") << "), "
      << static_cast<uint64_t>(c.cost.coordinator_words) << " coord words, "
      << static_cast<uint64_t>(c.cost.total_wire_bytes) << " wire bytes, "
      << static_cast<uint64_t>(c.cost.critical_path_words)
      << " critical-path words; "
      << (c.feasible ? "binding: " : "violates: ")
      << BindingConstraintName(c.binding);
  return out.str();
}

// The planner/plan span records the full decision — instance shape, the
// cheapest predicted words of every candidate family, and the winner with
// its rationale — and the planner.* counters tally the picks.
void RecordDecision(const ConfigPlan& plan, telemetry::Span& span) {
  if (!span.active()) return;
  const ConfigCandidate& best = plan.best();
  telemetry::Count("planner.plans");
  telemetry::Count("planner.pick." + best.config.family);
  span.SetAttr("s", static_cast<uint64_t>(plan.shape.num_servers));
  span.SetAttr("d", static_cast<uint64_t>(plan.shape.dim));
  span.SetAttr("eps", plan.goal.eps);
  span.SetAttr("k", static_cast<uint64_t>(plan.goal.k));
  span.SetAttr("allow_randomized",
               plan.goal.allow_randomized ? "true" : "false");
  std::map<std::string, double> family_words;
  for (const ConfigCandidate& c : plan.ranked) {
    auto [it, fresh] =
        family_words.emplace(c.config.family, c.cost.total_words);
    if (!fresh) it->second = std::min(it->second, c.cost.total_words);
  }
  for (const auto& [family, words] : family_words) {
    span.SetAttr("words." + family, words);
  }
  span.SetAttr("chosen", best.config.family);
  span.SetAttr("predicted_words", best.cost.total_words);
  span.SetAttr("topology", TopologyKindName(best.config.topology.kind));
  span.SetAttr("coordinator_words", best.cost.coordinator_words);
  span.SetAttr("rationale", best.rationale);
}

}  // namespace

StatusOr<ConfigPlan> SolveSketchConfig(const AutoConfRequest& request,
                                       const ErrorPredictor* predictor) {
  const SketchGoal& goal = request.goal;
  const InstanceShape& shape = request.shape;
  if (shape.num_servers < 1 || shape.dim < 1) {
    return Status::InvalidArgument("SolveSketchConfig: bad instance shape");
  }
  if (!(goal.eps > 0.0 && goal.eps < 1.0)) {
    return Status::InvalidArgument("SolveSketchConfig: eps not in (0,1)");
  }
  if (!(goal.delta > 0.0 && goal.delta < 1.0)) {
    return Status::InvalidArgument("SolveSketchConfig: delta not in (0,1)");
  }

  telemetry::Span span("planner/plan", telemetry::Phase::kCompute);

  // Family variants the goal admits (family, sampling kind, quantized).
  struct Variant {
    std::string family;
    SamplingFunctionKind sampling = SamplingFunctionKind::kQuadratic;
    bool quantized = false;
  };
  std::vector<Variant> variants;
  if (goal.arbitrary_partition) {
    // A = sum of per-server contributions entry-wise: only a sketch
    // linear in A merges correctly, which is CountSketch alone.
    if (!goal.allow_randomized || goal.k != 0) {
      return Status::FailedPrecondition(
          "SolveSketchConfig: no family provides a deterministic or "
          "(eps,k>0) guarantee over arbitrary partitions; only the "
          "randomized (eps,0) CountSketch projection is linear in A");
    }
    variants.push_back({"countsketch"});
  } else if (goal.k == 0) {
    variants.push_back({"fd_merge"});
    variants.push_back({"fd_merge", SamplingFunctionKind::kQuadratic, true});
    variants.push_back({"exact_gram"});
    if (goal.allow_randomized) {
      variants.push_back({"row_sampling"});
      variants.push_back({"svs", SamplingFunctionKind::kLinear});
      variants.push_back({"svs", SamplingFunctionKind::kQuadratic});
      variants.push_back({"countsketch"});
    }
  } else {
    variants.push_back({"fd_merge"});
    variants.push_back({"exact_gram"});
    if (goal.allow_randomized) variants.push_back({"adaptive_sketch"});
  }

  // working_eps ladder, cheapest (largest) first: the goal eps always
  // qualifies analytically; coarser grid values qualify only when the
  // calibrated band certifies the measured error under the goal.
  std::vector<double> ladder;
  if (predictor != nullptr && request.trust_calibration && goal.k == 0) {
    for (double eps : predictor->table().spec.eps_grid) {
      if (eps > goal.eps) ladder.push_back(eps);
    }
    std::sort(ladder.begin(), ladder.end(), std::greater<double>());
  }
  ladder.push_back(goal.eps);

  // Last candidate dropped because its sketch size is not buildable.
  Status oversize = Status::OK();
  ConfigPlan plan;
  plan.goal = goal;
  plan.shape = shape;
  plan.budget = request.budget;

  for (const Variant& variant : variants) {
    // Resolve the variant's working_eps: first ladder entry whose
    // certified error meets the goal.
    SketchConfig base;
    base.family = variant.family;
    base.k = goal.k;
    base.delta = goal.delta;
    base.sampling = variant.sampling;
    base.quantize_bits = 0;
    bool resolved = false;
    ErrorPrediction resolved_error;
    for (double eps : ladder) {
      base.working_eps = eps;
      StatusOr<size_t> rows =
          CheckedFamilySketchRows(variant.family, eps, goal.k, shape.dim);
      if (!rows.ok()) {  // oversize: no such sketch can be built
        oversize = rows.status();
        continue;
      }
      base.sketch_rows = *rows;
      std::string key = FamilyKey(base);
      if (variant.quantized) key = "fd_merge_q";
      const double analytic = AnalyticRelativeBound(variant.family, eps);
      // The shape enters the prediction: off-spec rows/dim widen the
      // calibrated band (kClampWiden per axis), so relaxation is only
      // certified for instances the calibration workload resembles.
      ErrorPrediction pred =
          predictor ? predictor->PredictError(key, eps, shape.num_servers,
                                              analytic, shape.total_rows,
                                              shape.dim)
                    : ErrorPrediction{analytic, 0.0, analytic, analytic,
                                      false};
      if (pred.Certified(request.trust_calibration) <= goal.eps) {
        resolved = true;
        resolved_error = pred;
        break;
      }
    }
    if (!resolved) continue;

    if (variant.quantized) {
      const double bits_per_word =
          predictor ? predictor->BitsPerWord("fd_merge_q", base.working_eps,
                                             shape.num_servers)
                    : 0.0;
      base.quantize_bits =
          bits_per_word > 0.0
              ? static_cast<uint64_t>(std::lround(bits_per_word))
              : AnalyticQuantizeBits(shape, base.working_eps);
    }

    // Topology variants: associative families may reduce through
    // interior servers; the quantized fd_merge wire format is star-only.
    std::vector<MergeTopologyOptions> topologies;
    if (Associative(variant.family) && !variant.quantized &&
        shape.num_servers > 2) {
      topologies = {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(8),
                    MergeTopologyOptions::Pipeline()};
    } else {
      topologies = {MergeTopologyOptions::Star()};
    }

    for (const MergeTopologyOptions& topology : topologies) {
      ConfigCandidate c;
      c.config = base;
      c.config.topology = topology;
      c.error = resolved_error;
      std::string key = FamilyKey(c.config);
      c.cost = PriceConfig(c.config, shape, predictor, key);
      JudgeCandidate(request.budget, c);
      c.rationale = Rationale(c, goal);
      plan.ranked.push_back(std::move(c));
    }
  }

  if (plan.ranked.empty()) {
    if (!oversize.ok()) return oversize;
    return Status::FailedPrecondition(
        "SolveSketchConfig: no protocol family satisfies the goal");
  }

  // Rank: feasible before infeasible; feasible by the budgeted cost
  // dimension, infeasible by how close they come (largest headroom
  // first). Equal total words break on the critical path (topologies of
  // one family tie on words; the shallowest schedule that still beats
  // the star's serialized receives wins), then on the deterministic
  // candidate key.
  const Budget& budget = request.budget;
  std::stable_sort(
      plan.ranked.begin(), plan.ranked.end(),
      [&budget](const ConfigCandidate& a, const ConfigCandidate& b) {
        if (a.feasible != b.feasible) return a.feasible;
        if (a.feasible) {
          const double ca = RankCost(budget, a.cost);
          const double cb = RankCost(budget, b.cost);
          if (ca != cb) return ca < cb;
        } else if (a.headroom != b.headroom) {
          return a.headroom > b.headroom;
        }
        if (a.cost.total_words != b.cost.total_words) {
          return a.cost.total_words < b.cost.total_words;
        }
        if (a.cost.critical_path_words != b.cost.critical_path_words) {
          return a.cost.critical_path_words < b.cost.critical_path_words;
        }
        return CandidateKey(a.config) < CandidateKey(b.config);
      });
  RecordDecision(plan, span);
  return plan;
}

}  // namespace autoconf
}  // namespace distsketch
