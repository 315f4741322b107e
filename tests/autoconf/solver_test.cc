// The constraint solver against the committed calibration artifact:
// determinism (byte-identical PlanSummary), goal-flag routing
// (deterministic-only, arbitrary partition, k > 0), the calibrated
// eps-relaxation, budget feasibility/headroom semantics, and the E13
// scenario — one goal under three different budgets yields three
// different configurations, each respecting its budget. The
// ProtocolPlannerTest suite below pins protocol choice itself: with no
// budget the ranked front is the Table 1 cheapest protocol.

#include "autoconf/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "autoconf/calibration.h"
#include "autoconf/config_plan.h"
#include "autoconf/error_predictor.h"
#include "autoconf/protocol_factory.h"
#include "common/sketch_size.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/protocol_planner.h"
#include "sketch/error_metrics.h"
#include "telemetry/telemetry.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace autoconf {
namespace {

const ErrorPredictor& CommittedPredictor() {
  static const ErrorPredictor* predictor = [] {
    auto loaded = ErrorPredictor::LoadFromFile(DS_AUTOCONF_CALIBRATION);
    if (!loaded.ok()) {
      ADD_FAILURE() << "cannot load committed calibration: "
                    << loaded.status().ToString();
      std::abort();
    }
    return new ErrorPredictor(std::move(*loaded));
  }();
  return *predictor;
}

AutoConfRequest BaseRequest() {
  AutoConfRequest request;
  request.goal.eps = 0.05;
  request.goal.delta = 0.01;
  request.shape.num_servers = 16;
  request.shape.dim = 32;
  request.shape.total_rows = 1024;
  return request;
}

std::string ConfigKey(const SketchConfig& config) {
  return config.family + "/" + std::to_string(config.sketch_rows) + "/q" +
         std::to_string(config.quantize_bits) + "/t" +
         std::to_string(static_cast<int>(config.topology.kind)) + "x" +
         std::to_string(config.topology.fanout);
}

TEST(SolverTest, PlanSummaryIsByteIdenticalAcrossCalls) {
  const AutoConfRequest request = BaseRequest();
  auto a = SolveSketchConfig(request, &CommittedPredictor());
  auto b = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(PlanSummary(*a).empty());
  EXPECT_EQ(PlanSummary(*a), PlanSummary(*b));
}

TEST(SolverTest, UnconstrainedPlanIsFeasibleWithErrorGoalBinding) {
  auto plan = SolveSketchConfig(BaseRequest(), &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->feasible());
  EXPECT_EQ(plan->best().binding, BindingConstraint::kErrorGoal);
  EXPECT_TRUE(std::isinf(plan->best().headroom));
  // Every candidate's certified error meets the goal.
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_LE(c.error.Certified(true), BaseRequest().goal.eps + 1e-12)
        << c.rationale;
    EXPECT_FALSE(c.rationale.empty());
  }
}

TEST(SolverTest, CalibratedRelaxationBeatsAnalyticSizing) {
  AutoConfRequest request = BaseRequest();
  auto trusted = SolveSketchConfig(request, &CommittedPredictor());
  request.trust_calibration = false;
  auto analytic = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(trusted.ok());
  ASSERT_TRUE(analytic.ok());
  ASSERT_TRUE(trusted->feasible());
  ASSERT_TRUE(analytic->feasible());
  // On the calibrated low-rank spectrum the solver certifies a relaxed
  // working_eps — strictly cheaper than sizing from the worst-case bound.
  EXPECT_GT(trusted->best().config.working_eps, request.goal.eps);
  EXPECT_LT(trusted->best().cost.total_words,
            analytic->best().cost.total_words);
  // Distrusting calibration pins working_eps to the goal.
  for (const ConfigCandidate& c : analytic->ranked) {
    EXPECT_DOUBLE_EQ(c.config.working_eps, request.goal.eps);
  }
}

TEST(SolverTest, DeterministicGoalRestrictsToDeterministicFamilies) {
  AutoConfRequest request = BaseRequest();
  request.goal.allow_randomized = false;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_TRUE(c.config.family == "fd_merge" ||
                c.config.family == "exact_gram")
        << c.config.family;
  }
}

TEST(SolverTest, ArbitraryPartitionPlansCountSketchOnly) {
  AutoConfRequest request = BaseRequest();
  request.goal.arbitrary_partition = true;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_EQ(c.config.family, "countsketch");
  }
  // Deterministic + arbitrary partition is unsatisfiable (only the
  // randomized linear sketch survives entry-wise sharding).
  request.goal.allow_randomized = false;
  auto none = SolveSketchConfig(request, &CommittedPredictor());
  EXPECT_EQ(none.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SolverTest, RankGoalUsesRankAwareFamilies) {
  AutoConfRequest request = BaseRequest();
  request.goal.k = 4;
  request.goal.eps = 0.2;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_FALSE(plan->ranked.empty());
  std::set<std::string> families;
  for (const ConfigCandidate& c : plan->ranked) {
    families.insert(c.config.family);
    EXPECT_EQ(c.config.k, 4u);
  }
  for (const std::string& family : families) {
    EXPECT_TRUE(family == "fd_merge" || family == "exact_gram" ||
                family == "adaptive_sketch")
        << family;
  }
}

TEST(SolverTest, OffSpecShapeWidensBandsAndCurbsRelaxation) {
  // The calibration measured one 1024 x 32 workload. A request whose
  // shape is far from that (the band says nothing about it) must not
  // inherit the full relaxation certified at the calibrated shape: the
  // band widens 2x per departing axis, so the ladder stops at a
  // strictly tighter working_eps while every candidate still certifies
  // the goal.
  const AutoConfRequest at_spec_request = BaseRequest();
  AutoConfRequest off_spec_request = BaseRequest();
  off_spec_request.shape.dim = 2048;
  off_spec_request.shape.total_rows = 10000000;
  auto at_spec = SolveSketchConfig(at_spec_request, &CommittedPredictor());
  auto off_spec = SolveSketchConfig(off_spec_request, &CommittedPredictor());
  ASSERT_TRUE(at_spec.ok()) << at_spec.status().ToString();
  ASSERT_TRUE(off_spec.ok()) << off_spec.status().ToString();
  auto fd_eps = [](const ConfigPlan& plan) {
    double eps = 0.0;
    for (const ConfigCandidate& c : plan.ranked) {
      if (c.config.family == "fd_merge") {
        eps = std::max(eps, c.config.working_eps);
      }
    }
    return eps;
  };
  EXPECT_LT(fd_eps(*off_spec), fd_eps(*at_spec));
  EXPECT_GT(fd_eps(*at_spec), at_spec_request.goal.eps);
  for (const ConfigCandidate& c : off_spec->ranked) {
    EXPECT_LE(c.error.Certified(true), off_spec_request.goal.eps + 1e-12)
        << c.rationale;
  }
}

TEST(SolverTest, ImpossibleBudgetReportsInfeasibleWithHeadroom) {
  AutoConfRequest request = BaseRequest();
  request.budget.max_coordinator_words = 10;  // far below any config
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->feasible());
  ASSERT_FALSE(plan->ranked.empty());
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_FALSE(c.feasible);
    EXPECT_LT(c.headroom, 1.0);
    EXPECT_GT(c.headroom, 0.0);
  }
  // The least-violating candidate ranks first.
  for (size_t i = 1; i < plan->ranked.size(); ++i) {
    EXPECT_GE(plan->ranked.front().headroom, plan->ranked[i].headroom - 1e-12);
  }
}

TEST(SolverTest, SolverWorksWithoutAPredictor) {
  auto plan = SolveSketchConfig(BaseRequest(), nullptr);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan->feasible());
  for (const ConfigCandidate& c : plan->ranked) {
    // No calibration: working_eps cannot relax past the goal.
    EXPECT_DOUBLE_EQ(c.config.working_eps, BaseRequest().goal.eps);
    EXPECT_FALSE(c.error.calibrated);
  }
}

TEST(SolverTest, RejectsMalformedInputs) {
  AutoConfRequest request = BaseRequest();
  request.shape.dim = 0;
  EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  request = BaseRequest();
  request.goal.eps = 0.0;
  EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  // NaN fails every comparison: it must be rejected as malformed, not
  // reach the family ladder (eps) or pass unchecked (delta).
  request = BaseRequest();
  request.goal.eps = std::nan("");
  EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  request = BaseRequest();
  request.goal.delta = std::nan("");
  EXPECT_EQ(SolveSketchConfig(request, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  SketchConfig config;
  config.family = "fd_merge";
  config.working_eps = std::nan("");
  EXPECT_EQ(BuildProtocol(config, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SolverTest, TinyEpsDropsOversizeCandidates) {
  // A deterministic goal at eps = 1e-300 used to certify fd_merge with
  // l = 1 (the size cast wrapped). Every sized family is dropped; only
  // exact_gram, whose size is d, remains.
  AutoConfRequest request = BaseRequest();
  request.goal.eps = 1e-300;
  request.goal.allow_randomized = false;
  auto plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_EQ(c.config.family, "exact_gram");
    EXPECT_EQ(c.config.sketch_rows, request.shape.dim);
  }
  // eps = 1e-12 no longer prices an l = 10^12 + 1 candidate.
  request.goal.eps = 1e-12;
  plan = SolveSketchConfig(request, &CommittedPredictor());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  for (const ConfigCandidate& c : plan->ranked) {
    EXPECT_LE(c.config.sketch_rows, kMaxSketchRows);
  }
  // Over an arbitrary partition CountSketch is the only family: with it
  // dropped, nothing remains.
  request = BaseRequest();
  request.goal.eps = 1e-10;
  request.goal.arbitrary_partition = true;
  EXPECT_EQ(SolveSketchConfig(request, &CommittedPredictor()).status().code(),
            StatusCode::kInvalidArgument);
}

// E13: the same (eps = 0.05, delta = 0.01) goal under three budgets.
// Each budget is derived from the unconstrained plan's own cost table:
// the limit is set just above the cheapest candidate along that axis, so
// only configs shaped for that axis fit. The three winners must respect
// their budgets and cannot all be the same configuration.
TEST(SolverTest, SameGoalThreeBudgetsThreeConfigs) {
  const AutoConfRequest base = BaseRequest();
  auto open = SolveSketchConfig(base, &CommittedPredictor());
  ASSERT_TRUE(open.ok()) << open.status().ToString();
  ASSERT_TRUE(open->feasible());

  double min_coord = 1e300, min_bytes = 1e300, min_path = 1e300;
  for (const ConfigCandidate& c : open->ranked) {
    min_coord = std::min(min_coord, c.cost.coordinator_words);
    min_bytes = std::min(min_bytes, c.cost.total_wire_bytes);
    min_path = std::min(min_path, c.cost.critical_path_words);
  }

  AutoConfRequest tight_coord = base;
  tight_coord.budget.max_coordinator_words =
      static_cast<uint64_t>(min_coord * 1.05) + 1;
  AutoConfRequest tight_bytes = base;
  tight_bytes.budget.max_total_wire_bytes =
      static_cast<uint64_t>(min_bytes * 1.05) + 1;
  AutoConfRequest tight_path = base;
  tight_path.budget.max_critical_path_words =
      static_cast<uint64_t>(min_path * 1.05) + 1;

  auto coord = SolveSketchConfig(tight_coord, &CommittedPredictor());
  auto bytes = SolveSketchConfig(tight_bytes, &CommittedPredictor());
  auto path = SolveSketchConfig(tight_path, &CommittedPredictor());
  ASSERT_TRUE(coord.ok() && bytes.ok() && path.ok());
  ASSERT_TRUE(coord->feasible()) << PlanSummary(*coord);
  ASSERT_TRUE(bytes->feasible()) << PlanSummary(*bytes);
  ASSERT_TRUE(path->feasible()) << PlanSummary(*path);

  // Usage respects the budget and the budgeted axis is the binding one.
  EXPECT_LE(coord->best().cost.coordinator_words,
            static_cast<double>(tight_coord.budget.max_coordinator_words));
  EXPECT_EQ(coord->best().binding, BindingConstraint::kCoordinatorWords);
  EXPECT_LE(bytes->best().cost.total_wire_bytes,
            static_cast<double>(tight_bytes.budget.max_total_wire_bytes));
  EXPECT_EQ(bytes->best().binding, BindingConstraint::kWireBytes);
  EXPECT_LE(path->best().cost.critical_path_words,
            static_cast<double>(tight_path.budget.max_critical_path_words));
  EXPECT_EQ(path->best().binding, BindingConstraint::kCriticalPath);

  const std::set<std::string> winners = {ConfigKey(coord->best().config),
                                         ConfigKey(bytes->best().config),
                                         ConfigKey(path->best().config)};
  EXPECT_GE(winners.size(), 2u)
      << "coord: " << coord->best().rationale
      << "\nbytes: " << bytes->best().rationale
      << "\npath: " << path->best().rationale;
}

// ---------------------------------------------------------------------
// Protocol choice. "The cheapest protocol for an instance" is a solve
// with no budget and analytic bounds only; the ranked front is built
// with BuildProtocol. These are the Table 1 crossovers (end of §2.1,
// Thms 2/6/7) and topology crossovers that choice must reproduce.

ConfigPlan Cheapest(size_t s, size_t d, const SketchGoal& goal) {
  AutoConfRequest request;
  request.goal = goal;
  request.shape.num_servers = s;
  request.shape.dim = d;
  request.trust_calibration = false;
  auto plan = SolveSketchConfig(request, nullptr);
  DS_CHECK(plan.ok());
  return std::move(*plan);
}

std::unique_ptr<SketchProtocol> Build(const ConfigPlan& plan,
                                      uint64_t seed = 42) {
  auto protocol = BuildProtocol(plan.best().config, seed);
  DS_CHECK(protocol.ok());
  return std::move(*protocol);
}

// The cheapest candidate, straight from the public Thm 2/6/7 cost
// formulas.
double MinCandidateWords(size_t s, size_t d, const SketchGoal& goal) {
  double best = std::min(PredictExactGramWords(s, d),
                         PredictFdMergeWords(s, d, goal));
  if (goal.allow_randomized) {
    if (goal.k == 0) {
      best = std::min({best, PredictRowSamplingWords(s, d, goal),
                       PredictSvsWords(s, d, goal)});
    } else {
      best = std::min(best, PredictAdaptiveWords(s, d, goal));
    }
  }
  return best;
}

// Solves across a sweep and returns the picked protocol names.
std::vector<std::string> SweepPicks(const std::vector<size_t>& servers,
                                    size_t d, const SketchGoal& goal) {
  std::vector<std::string> picks;
  for (size_t s : servers) {
    const ConfigPlan plan = Cheapest(s, d, goal);
    EXPECT_TRUE(plan.feasible());
    // Whatever wins, its predicted cost must be the candidate minimum.
    EXPECT_DOUBLE_EQ(plan.best().cost.total_words,
                     MinCandidateWords(s, d, goal));
    picks.push_back(std::string(Build(plan)->Name()));
  }
  return picks;
}

const telemetry::SpanAttr* FindAttr(const telemetry::SpanRecord& span,
                                    std::string_view key) {
  for (const telemetry::SpanAttr& a : span.attrs) {
    if (a.key == key) return &a;
  }
  return nullptr;
}

TEST(ProtocolPlannerTest, Validation) {
  AutoConfRequest request;
  request.shape.dim = 8;
  request.shape.num_servers = 0;
  EXPECT_FALSE(SolveSketchConfig(request, nullptr).ok());
  request.shape.num_servers = 4;
  request.shape.dim = 0;
  EXPECT_FALSE(SolveSketchConfig(request, nullptr).ok());
  request.shape.dim = 8;
  request.goal.eps = 0.0;
  EXPECT_FALSE(SolveSketchConfig(request, nullptr).ok());
}

TEST(ProtocolPlannerTest, CoarseEpsPicksExactGram) {
  // 1/eps >= d: the trivial O(sd^2) protocol is optimal (end of §2.1).
  SketchGoal goal;
  goal.eps = 0.5;
  goal.allow_randomized = false;
  const ConfigPlan plan = Cheapest(4, 2, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "exact_gram");
}

TEST(ProtocolPlannerTest, DeterministicRequestPicksFd) {
  // l = k + k/eps = 10 rows per server beats the d(d+1)/2-word Gram.
  SketchGoal goal;
  goal.eps = 0.25;
  goal.k = 2;
  goal.allow_randomized = false;
  const ConfigPlan plan = Cheapest(16, 64, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "fd_merge");
}

TEST(ProtocolPlannerTest, ManyServersPicksRandomized) {
  SketchGoal goal;
  goal.eps = 0.1;
  goal.k = 4;
  const ConfigPlan plan = Cheapest(64, 64, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "adaptive_sketch");
}

TEST(ProtocolPlannerTest, EpsZeroManyServersPicksSvs) {
  // The SVS win region needs all three: d > 1/eps (else exact Gram),
  // sqrt(s) < ~1/(2 eps) (else sampling), sqrt(s) > ~4 sqrt(log d)
  // (else FD) — the Table 1 geometry. Thm 6's quadratic function wins:
  // the linear one of Thm 5 pays an extra sqrt(log d).
  SketchGoal goal;
  goal.eps = 0.01;
  goal.k = 0;
  const ConfigPlan plan = Cheapest(256, 192, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "svs");
  EXPECT_EQ(plan.best().config.sampling, SamplingFunctionKind::kQuadratic);
}

TEST(ProtocolPlannerTest, HugeFleetWeakGuaranteePicksSampling) {
  // Sampling's O(s + d/eps^2) is nearly s-free: at very large s with a
  // moderate eps and only the weak guarantee, it undercuts even the
  // sqrt(s)-scaling SVS.
  SketchGoal goal;
  goal.eps = 0.3;
  goal.k = 0;
  const ConfigPlan plan = Cheapest(512, 64, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "row_sampling");
}

TEST(ProtocolPlannerTest, ServerSweepCrossesGramToSvsToSampling) {
  // Thm 2 vs Thm 6 geometry at (d, eps) = (192, 0.01), k = 0: exact Gram
  // grows like s*d^2, SVS like sqrt(s)*d/eps, sampling is nearly s-free.
  // Sweeping s must walk the picks through those three regimes in order,
  // with each crossover where the cost formulas actually intersect.
  SketchGoal goal;
  goal.eps = 0.01;
  goal.k = 0;
  const std::vector<size_t> servers = {1, 4, 64, 256, 1024, 4096};
  const std::vector<std::string> picks = SweepPicks(servers, 192, goal);
  const std::vector<std::string> expected = {
      "exact_gram", "exact_gram", "exact_gram",
      "svs",        "row_sampling", "row_sampling"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, ServerSweepCrossesFdToAdaptive) {
  // Thm 2 vs Thm 7 at (d, eps, k) = (64, 0.25, 2): deterministic FD
  // merge costs s*l*d while adaptive costs s*k*d + sqrt(s)*k*d/eps, so
  // FD wins small fleets and adaptive wins once sqrt(s) amortizes.
  SketchGoal goal;
  goal.eps = 0.25;
  goal.k = 2;
  const std::vector<size_t> servers = {1, 4, 16, 64};
  const std::vector<std::string> picks = SweepPicks(servers, 64, goal);
  const std::vector<std::string> expected = {
      "fd_merge", "fd_merge", "adaptive_sketch", "adaptive_sketch"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, EpsSweepCrossesSamplingToSvs) {
  // At fixed (s, d) = (256, 192), k = 0: sampling costs d/eps^2 while
  // SVS costs sqrt(s)*d/eps — coarse eps favors sampling, fine eps
  // flips to SVS before the deterministic fallbacks.
  SketchGoal goal;
  goal.k = 0;
  std::vector<std::string> picks;
  for (double eps : {0.3, 0.1, 0.01}) {
    goal.eps = eps;
    const ConfigPlan plan = Cheapest(256, 192, goal);
    ASSERT_TRUE(plan.feasible());
    EXPECT_DOUBLE_EQ(plan.best().cost.total_words,
                     MinCandidateWords(256, 192, goal));
    picks.push_back(std::string(Build(plan)->Name()));
  }
  const std::vector<std::string> expected = {"row_sampling", "row_sampling",
                                             "svs"};
  EXPECT_EQ(picks, expected);
}

TEST(ProtocolPlannerTest, TelemetryReportsDecisionRationale) {
  telemetry::Telemetry telem;
  telemetry::ScopedTelemetry scope(telem);

  SketchGoal goal;
  goal.eps = 0.01;
  goal.k = 0;
  const ConfigPlan plan = Cheapest(256, 192, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "svs");

  const std::vector<telemetry::SpanRecord> spans = telem.Spans();
  const telemetry::SpanRecord* plan_span = nullptr;
  for (const telemetry::SpanRecord& s : spans) {
    if (s.name == "planner/plan") plan_span = &s;
  }
  ASSERT_NE(plan_span, nullptr);

  // The span carries the full decision: instance, every candidate cost,
  // the winner, and the human-readable rationale.
  const telemetry::SpanAttr* chosen = FindAttr(*plan_span, "chosen");
  ASSERT_NE(chosen, nullptr);
  EXPECT_EQ(chosen->value, "svs");
  const telemetry::SpanAttr* rationale = FindAttr(*plan_span, "rationale");
  ASSERT_NE(rationale, nullptr);
  EXPECT_EQ(rationale->value, plan.best().rationale);
  for (const char* key : {"s", "d", "eps", "words.exact_gram",
                          "words.fd_merge", "words.row_sampling",
                          "words.svs", "predicted_words"}) {
    EXPECT_NE(FindAttr(*plan_span, key), nullptr) << key;
  }

  EXPECT_EQ(telem.metrics().CounterValue("planner.plans"), 1u);
  EXPECT_EQ(telem.metrics().CounterValue("planner.pick.svs"), 1u);
  EXPECT_EQ(telem.metrics().CounterValue("planner.pick.fd_merge"), 0u);
}

TEST(ProtocolPlannerTest, TopologyCrossoverSmallStaysStarLargeGoesTree) {
  // The critical path of a star is s serialized receives in one round; a
  // k-ary tree pays fewer receives but one round-latency charge per
  // stage. At modest message sizes (exact_gram at d = 8: 36 words) the
  // extra rounds swamp the receive savings for tiny fleets, while big
  // fleets always amortize them. Topologies tie on total words, so the
  // critical path decides.
  SketchGoal goal;
  goal.eps = 0.25;
  goal.allow_randomized = false;
  for (const size_t s : {1u, 2u, 4u}) {
    EXPECT_TRUE(Cheapest(s, 8, goal).best().config.topology.is_star())
        << "s=" << s;
  }
  for (const size_t s : {64u, 256u, 1024u}) {
    const ConfigPlan plan = Cheapest(s, 8, goal);
    const ConfigCandidate& best = plan.best();
    EXPECT_EQ(best.config.topology.kind, TopologyKind::kTree) << "s=" << s;
    // And the choice must actually be the argmin of the model it claims
    // to minimize, among the family's topologies.
    EXPECT_LE(best.cost.critical_path_words,
              PredictCriticalPathWords(s, MergeTopologyOptions::Star(), 36.0));
    for (const ConfigCandidate& c : plan.ranked) {
      if (c.config.family != best.config.family) continue;
      EXPECT_LE(best.cost.critical_path_words, c.cost.critical_path_words)
          << "s=" << s << " vs " << c.rationale;
    }
  }
}

TEST(ProtocolPlannerTest, AutoTopologyThreadsIntoThePlannedProtocol) {
  SketchGoal goal;
  goal.eps = 0.25;
  goal.k = 2;
  goal.allow_randomized = false;  // force fd_merge at this instance
  const ConfigPlan plan = Cheapest(256, 64, goal);
  ASSERT_TRUE(plan.feasible());
  const ConfigCandidate& best = plan.best();
  auto protocol = Build(plan);
  ASSERT_EQ(protocol->Name(), "fd_merge");
  const auto& fd = static_cast<const FdMergeProtocol&>(*protocol);
  EXPECT_EQ(fd.options().topology.kind, best.config.topology.kind);
  EXPECT_EQ(fd.options().topology.fanout, best.config.topology.fanout);
  EXPECT_EQ(best.config.topology.kind, TopologyKind::kTree);
  // A tree plan must predict strictly less coordinator inbound than its
  // total words, and say so in the rationale.
  EXPECT_LT(best.cost.coordinator_words, best.cost.total_words);
  EXPECT_NE(best.rationale.find(
                std::to_string(static_cast<uint64_t>(
                    best.cost.coordinator_words)) +
                " coord words"),
            std::string::npos);
}

TEST(ProtocolPlannerTest, ExplicitTopologyRequestIsHonored) {
  // A caller may run a solved config under a topology of its choosing:
  // BuildProtocol threads it into the protocol, and the inbound model
  // prices it.
  SketchGoal goal;
  goal.eps = 0.5;
  goal.allow_randomized = false;
  const ConfigPlan plan = Cheapest(32, 2, goal);  // exact_gram regime
  SketchConfig config = plan.best().config;
  config.topology = MergeTopologyOptions::Tree(4);
  auto protocol = BuildProtocol(config, 42);
  ASSERT_TRUE(protocol.ok());
  ASSERT_EQ((*protocol)->Name(), "exact_gram");
  const auto& gram = static_cast<const ExactGramProtocol&>(**protocol);
  EXPECT_EQ(gram.options().topology.kind, TopologyKind::kTree);
  EXPECT_EQ(gram.options().topology.fanout, 4u);
  const double msg = 2.0 * 3.0 / 2.0;  // d(d+1)/2 at d=2
  for (const ConfigCandidate& c : plan.ranked) {
    if (c.config.family != "exact_gram") continue;
    EXPECT_DOUBLE_EQ(
        c.cost.coordinator_words,
        PredictCoordinatorInboundWords(32, c.config.topology, msg));
  }
}

TEST(ProtocolPlannerTest, StarOnlyProtocolsKeepStarPlanFields) {
  SketchGoal goal;
  goal.eps = 0.3;
  goal.k = 0;
  const ConfigPlan plan = Cheapest(512, 64, goal);  // row_sampling regime
  ASSERT_TRUE(plan.feasible());
  ASSERT_EQ(plan.best().config.family, "row_sampling");
  EXPECT_TRUE(plan.best().config.topology.is_star());
  EXPECT_DOUBLE_EQ(plan.best().cost.coordinator_words,
                   plan.best().cost.total_words);
}

TEST(ProtocolPlannerTest, PlannedProtocolRunsAndMeetsBudget) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 320,
                                             .cols = 24,
                                             .rank = 4,
                                             .noise_stddev = 0.3,
                                             .seed = 1});
  SketchGoal goal;
  goal.eps = 0.25;
  goal.k = 3;
  const ConfigPlan plan = Cheapest(8, 24, goal);
  ASSERT_TRUE(plan.feasible());
  auto cluster = Cluster::Create(
      PartitionRows(a, 8, PartitionScheme::kRoundRobin), goal.eps);
  ASSERT_TRUE(cluster.ok());
  auto result = Build(plan)->Run(*cluster);
  ASSERT_TRUE(result.ok());
  // Certify at the protocol's guarantee constant (3 eps covers all).
  EXPECT_TRUE(IsEpsKSketch(a, result->sketch, 3.0 * goal.eps, goal.k));
  EXPECT_FALSE(plan.best().rationale.empty());
}

TEST(ProtocolPlannerTest, PredictionWithinFactorOfMeasured) {
  // The cost model should be within ~3x of the metered words (it is a
  // planner, not an oracle).
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 640, .cols = 32, .alpha = 0.8, .seed = 2});
  for (size_t s : {4u, 32u}) {
    SketchGoal goal;
    goal.eps = 0.1;
    goal.k = 0;
    const ConfigPlan plan = Cheapest(s, 32, goal);
    ASSERT_TRUE(plan.feasible());
    auto cluster = Cluster::Create(
        PartitionRows(a, s, PartitionScheme::kRoundRobin), goal.eps);
    ASSERT_TRUE(cluster.ok());
    auto result = Build(plan)->Run(*cluster);
    ASSERT_TRUE(result.ok());
    const double measured = static_cast<double>(result->comm.total_words);
    const double predicted = plan.best().cost.total_words;
    EXPECT_LT(measured, 3.0 * predicted);
    EXPECT_GT(measured, predicted / 8.0);
  }
}

TEST(ProtocolPlannerTest, ArbitraryPartitionPlansCountSketch) {
  SketchGoal goal;
  goal.eps = 0.2;
  goal.arbitrary_partition = true;
  const ConfigPlan plan = Cheapest(8, 16, goal);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(Build(plan)->Name(), "countsketch");
  EXPECT_DOUBLE_EQ(plan.best().cost.total_words,
                   PredictCountSketchWords(8, 16, goal));
}

TEST(ProtocolPlannerTest, ArbitraryPartitionRejectsDeterministicAndRankGoals) {
  AutoConfRequest det;
  det.goal.eps = 0.2;
  det.goal.arbitrary_partition = true;
  det.goal.allow_randomized = false;
  det.shape = {.num_servers = 8, .dim = 16};
  auto plan = SolveSketchConfig(det, nullptr);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);

  AutoConfRequest ranked = det;
  ranked.goal.allow_randomized = true;
  ranked.goal.k = 4;
  plan = SolveSketchConfig(ranked, nullptr);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolPlannerTest, ArbitraryPartitionHonorsTopologyRequest) {
  SketchGoal goal;
  goal.eps = 0.25;
  goal.arbitrary_partition = true;
  const ConfigPlan plan = Cheapest(16, 8, goal);
  ASSERT_TRUE(plan.feasible());
  bool saw_tree = false;
  for (const ConfigCandidate& c : plan.ranked) {
    if (c.config.topology.kind != TopologyKind::kTree) continue;
    saw_tree = true;
    // Tree reduction shrinks coordinator inbound below the star's s*m*d,
    // and the built protocol runs under that tree.
    EXPECT_LT(c.cost.coordinator_words, c.cost.total_words);
    auto protocol = BuildProtocol(c.config, 42);
    ASSERT_TRUE(protocol.ok());
    const auto& cs = static_cast<const CountSketchProtocol&>(**protocol);
    EXPECT_EQ(cs.options().topology.kind, TopologyKind::kTree);
  }
  EXPECT_TRUE(saw_tree);
}

}  // namespace
}  // namespace autoconf
}  // namespace distsketch
