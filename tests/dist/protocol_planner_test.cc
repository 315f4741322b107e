// The Table 1 cost oracle (dist/protocol_planner.h): word formulas per
// family, the one sketch-rows definition they share, and the topology
// inbound model. Which protocol the oracle's prices select is the
// solver's job; those crossover cases live in tests/autoconf/solver_test.

#include "dist/protocol_planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

namespace distsketch {
namespace {

TEST(ProtocolPlannerTest, InboundModelMatchesTopologyWidths) {
  // Star: the coordinator receives all s uplinks. Tree: only top_width,
  // each the same size (every associative merge keeps the payload fixed).
  const double msg = 100.0;
  EXPECT_DOUBLE_EQ(
      PredictCoordinatorInboundWords(64, MergeTopologyOptions::Star(), msg),
      64.0 * msg);
  auto topo = MergeTopology::Build(64, MergeTopologyOptions::Tree(8));
  ASSERT_TRUE(topo.ok());
  EXPECT_DOUBLE_EQ(
      PredictCoordinatorInboundWords(64, MergeTopologyOptions::Tree(8), msg),
      static_cast<double>(topo->top_width()) * msg);
}

TEST(ProtocolPlannerTest, CostFormulasAreMonotone) {
  SketchGoal goal;
  goal.eps = 0.1;
  goal.k = 2;
  EXPECT_LT(PredictFdMergeWords(4, 32, goal),
            PredictFdMergeWords(8, 32, goal));
  EXPECT_LT(PredictSvsWords(4, 32, goal), PredictSvsWords(16, 32, goal));
  SketchGoal coarse = goal;
  coarse.eps = 0.4;
  EXPECT_LT(PredictAdaptiveWords(8, 32, coarse),
            PredictAdaptiveWords(8, 32, goal));
}

// The oracle consumes the shared SketchGoal definition — the solver and
// the price list cannot drift apart on eps/k/delta semantics.
static_assert(std::is_same_v<decltype(&PredictFdMergeWords),
                             double (*)(size_t, size_t, const SketchGoal&)>,
              "the cost oracle must take the shared SketchGoal");

TEST(ProtocolPlannerTest, CountSketchWordsFollowTable1Formula) {
  SketchGoal goal;
  goal.eps = 0.2;
  // s * ceil(4/eps^2) * d + s seed downlinks.
  EXPECT_DOUBLE_EQ(PredictCountSketchWords(8, 16, goal),
                   8.0 * 100.0 * 16.0 + 8.0);
  // Quadratic in 1/eps: halving eps quadruples the bucket payload.
  SketchGoal tight = goal;
  tight.eps = 0.1;
  EXPECT_GT(PredictCountSketchWords(8, 16, tight),
            3.5 * PredictCountSketchWords(8, 16, goal));
}

TEST(ProtocolPlannerTest, CountSketchCrossesExactGramInHighDimension) {
  // exact_gram pays s*d^2/2; countsketch pays s*d*4/eps^2 — per Table 1
  // the crossover is at d ~ 8/eps^2, independent of s.
  SketchGoal goal;
  goal.eps = 0.5;  // crossover at d = 32
  const size_t s = 4;
  EXPECT_LT(PredictExactGramWords(s, 16),
            PredictCountSketchWords(s, 16, goal));
  EXPECT_GT(PredictExactGramWords(s, 256),
            PredictCountSketchWords(s, 256, goal));
}

TEST(ProtocolPlannerTest, FamilySketchRowsIsTheOneSizeDefinition) {
  // l = ceil(1/eps) + 1 (k = 0), k + ceil(k/eps) (k >= 1), m = ceil(4/eps^2):
  // the fd_merge and countsketch prices are s * rows * d (+ s seeds).
  EXPECT_EQ(FamilySketchRows("fd_merge", 0.25, 0, 64), 5u);
  EXPECT_EQ(FamilySketchRows("fd_merge", 0.25, 2, 64), 10u);
  EXPECT_EQ(FamilySketchRows("countsketch", 0.2, 0, 64), 100u);
  EXPECT_EQ(FamilySketchRows("exact_gram", 0.2, 0, 64), 64u);
  SketchGoal goal;
  goal.eps = 0.25;
  goal.k = 2;
  EXPECT_DOUBLE_EQ(PredictFdMergeWords(16, 64, goal), 16.0 * 10.0 * 64.0);
  goal.k = 0;
  EXPECT_DOUBLE_EQ(PredictCountSketchWords(16, 64, goal),
                   16.0 * 64.0 * static_cast<double>(FamilySketchRows(
                                     "countsketch", 0.25, 0, 64)) +
                       16.0);
}

TEST(ProtocolPlannerTest, LinearSvsPaysTheTheorem5LogFactor) {
  // Thm 5 (linear g) needs log(d/delta) where Thm 6 (quadratic g) needs
  // its square root: the linear price is the quadratic one with the
  // sampled-words term scaled by sqrt(log(d/delta)).
  SketchGoal goal;
  goal.eps = 0.1;
  goal.delta = 0.1;
  const size_t s = 64;
  const size_t d = 48;
  const double seeds = 2.0 * static_cast<double>(s);
  const double quadratic =
      PredictSvsWords(s, d, goal, SamplingFunctionKind::kQuadratic) - seeds;
  const double linear =
      PredictSvsWords(s, d, goal, SamplingFunctionKind::kLinear) - seeds;
  EXPECT_NEAR(linear / quadratic, std::sqrt(std::log(48.0 / 0.1)), 1e-12);
  EXPECT_DOUBLE_EQ(PredictSvsWords(s, d, goal),
                   quadratic + seeds);  // quadratic is the default
}

}  // namespace
}  // namespace distsketch
