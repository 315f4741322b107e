#include "sketch/fast_frequent_directions.h"

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "sketch/frequent_directions.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(FastFdTest, FactoryValidation) {
  EXPECT_FALSE(FastFrequentDirections::FromEpsK(8, 0.1, 0, 1).ok());
  EXPECT_FALSE(FastFrequentDirections::FromEpsK(8, 0.0, 2, 1).ok());
  EXPECT_EQ(
      FastFrequentDirections::FromEpsK(8, std::nan(""), 2, 1).status().code(),
      StatusCode::kInvalidArgument);
  auto fd = FastFrequentDirections::FromEpsK(8, 0.5, 2, 1);
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->sketch_size(), 6u);
}

TEST(FastFdTest, SketchSizeBounded) {
  FastFrequentDirections fd(12, 5, 7);
  fd.AppendRows(GenerateGaussian(200, 12, 1.0, 1));
  EXPECT_LE(fd.Sketch().rows(), 5u);
  EXPECT_GT(fd.shrink_count(), 0u);
}

TEST(FastFdTest, FewRowsLossless) {
  FastFrequentDirections fd(6, 8, 7);
  const Matrix a = GenerateGaussian(7, 6, 1.0, 2);
  fd.AppendRows(a);
  EXPECT_NEAR(CovarianceError(a, fd.Sketch()), 0.0,
              1e-8 * SquaredFrobeniusNorm(a));
}

TEST(FastFdTest, FrobeniusNeverGrows) {
  FastFrequentDirections fd(10, 4, 9);
  const Matrix a = GenerateGaussian(120, 10, 2.0, 3);
  fd.AppendRows(a);
  EXPECT_LE(SquaredFrobeniusNorm(fd.Sketch()),
            SquaredFrobeniusNorm(a) * (1.0 + 1e-9));
}

// The (eps, k) guarantee, certified with a 2x constant of slack for the
// randomized shrink (exact-FD tests certify at 1x; [15] proves the same
// asymptotics with adjusted constants).
class FastFdGuaranteeTest
    : public ::testing::TestWithParam<std::tuple<double, size_t, int>> {};

TEST_P(FastFdGuaranteeTest, EpsKGuaranteeWithSlack) {
  const auto [eps, k, workload] = GetParam();
  Matrix a;
  switch (workload) {
    case 0:
      a = GenerateLowRankPlusNoise({.rows = 150,
                                    .cols = 16,
                                    .rank = 4,
                                    .noise_stddev = 0.3,
                                    .seed = 4});
      break;
    case 1:
      a = GenerateZipfSpectrum(
          {.rows = 150, .cols = 16, .alpha = 1.0, .seed = 5});
      break;
    default:
      a = GenerateSignMatrix(150, 16, 6);
      break;
  }
  auto fd = FastFrequentDirections::FromEpsK(16, eps, k, 11);
  ASSERT_TRUE(fd.ok());
  fd->AppendRows(a);
  const Matrix b = fd->Sketch();
  EXPECT_TRUE(IsEpsKSketch(a, b, 2.0 * eps, k))
      << "coverr=" << CovarianceError(a, b)
      << " budget=" << SketchErrorBudget(a, 2.0 * eps, k);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FastFdGuaranteeTest,
    ::testing::Combine(::testing::Values(0.25, 0.5),
                       ::testing::Values(2, 4),
                       ::testing::Values(0, 1, 2)));

TEST(FastFdTest, TracksExactFdClosely) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 300,
                                             .cols = 20,
                                             .rank = 5,
                                             .noise_stddev = 0.4,
                                             .seed = 8});
  auto exact = FrequentDirections::FromEpsK(20, 0.4, 3);
  auto fast = FastFrequentDirections::FromEpsK(20, 0.4, 3, 13);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(fast.ok());
  exact->AppendRows(a);
  fast->AppendRows(a);
  const double err_exact = CovarianceError(a, exact->Sketch());
  const double err_fast = CovarianceError(a, fast->Sketch());
  // Same ballpark: the randomized shrink costs at most ~2x in error on
  // this workload.
  EXPECT_LE(err_fast, 2.5 * err_exact + 1e-9);
}

TEST(FastFdTest, DeterministicPerSeed) {
  const Matrix a = GenerateGaussian(100, 10, 1.0, 9);
  FastFrequentDirections f1(10, 4, 99), f2(10, 4, 99);
  f1.AppendRows(a);
  f2.AppendRows(a);
  EXPECT_TRUE(f1.Sketch() == f2.Sketch());
}

TEST(FastFdTest, UsableAfterSketch) {
  FastFrequentDirections fd(8, 4, 5);
  const Matrix a = GenerateGaussian(60, 8, 1.0, 10);
  fd.AppendRows(a.RowRange(0, 30));
  (void)fd.Sketch();
  fd.AppendRows(a.RowRange(30, 60));
  EXPECT_LE(fd.Sketch().rows(), 4u);
}

}  // namespace
}  // namespace distsketch
