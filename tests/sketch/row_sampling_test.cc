#include "sketch/row_sampling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(RowSamplingTest, FactoryValidation) {
  EXPECT_FALSE(RowSamplingSketch::FromEps(4, 0.0, 1).ok());
  EXPECT_FALSE(RowSamplingSketch::FromEps(4, 0.5, 1, -1.0).ok());
  EXPECT_EQ(RowSamplingSketch::FromEps(4, std::nan(""), 1).status().code(),
            StatusCode::kInvalidArgument);
  auto s = RowSamplingSketch::FromEps(4, 0.5, 1);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_samples(), 4u);  // ceil(1/0.25)
}

TEST(RowSamplingTest, EmptyStreamGivesEmptySketch) {
  RowSamplingSketch s(4, 8, 1);
  EXPECT_EQ(s.Sketch().rows(), 0u);
  EXPECT_EQ(s.total_mass(), 0.0);
}

TEST(RowSamplingTest, ZeroRowsAreIgnored) {
  RowSamplingSketch s(2, 4, 2);
  const double zero[] = {0.0, 0.0};
  const double row[] = {1.0, 2.0};
  s.Append(zero);
  s.Append(row);
  EXPECT_DOUBLE_EQ(s.total_mass(), 5.0);
  const Matrix b = s.Sketch();
  EXPECT_EQ(b.rows(), 4u);  // every reservoir holds the only nonzero row
}

TEST(RowSamplingTest, SketchHasExactlyTRows) {
  RowSamplingSketch s(6, 10, 3);
  s.AppendRows(GenerateGaussian(50, 6, 1.0, 4));
  EXPECT_EQ(s.Sketch().rows(), 10u);
}

TEST(RowSamplingTest, SingleRowInputIsRecoveredExactly) {
  // One nonzero row: p = 1, scale = 1/sqrt(t); B^T B = A^T A exactly.
  RowSamplingSketch s(3, 5, 5);
  const double row[] = {1.0, 2.0, 2.0};
  s.Append(row);
  const Matrix b = s.Sketch();
  const Matrix a{{1.0, 2.0, 2.0}};
  EXPECT_NEAR(CovarianceError(a, b), 0.0, 1e-10);
}

TEST(RowSamplingTest, UnbiasedInExpectation) {
  // Average B^T B over many independent runs approaches A^T A (Claim in
  // [10]). Use a small matrix so the Monte-Carlo variance is modest.
  const Matrix a = GenerateGaussian(12, 4, 1.0, 6);
  const Matrix target = Gram(a);
  Matrix mean(4, 4);
  const int trials = 400;
  for (int t = 0; t < trials; ++t) {
    RowSamplingSketch s(4, 8, 1000 + t);
    s.AppendRows(a);
    mean = Add(mean, Gram(s.Sketch()));
  }
  mean.Scale(1.0 / trials);
  const double scale = FrobeniusNorm(target);
  EXPECT_TRUE(AlmostEqual(mean, target, 0.15 * scale))
      << "mean=\n"
      << mean.ToString() << "target=\n"
      << target.ToString();
}

TEST(RowSamplingTest, ErrorBoundHoldsTypically) {
  // coverr <= eps * ||A||_F^2 with constant probability; with oversample 4
  // failures should be rare. Require >= 8/10 successes.
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 100, .cols = 10, .alpha = 0.5, .seed = 7});
  const double eps = 0.4;
  int good = 0;
  for (int t = 0; t < 10; ++t) {
    auto s = RowSamplingSketch::FromEps(10, eps, 2000 + t, /*oversample=*/4.0);
    ASSERT_TRUE(s.ok());
    s->AppendRows(a);
    if (CovarianceError(a, s->Sketch()) <=
        eps * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 8);
}

TEST(RowSamplingTest, DeterministicPerSeed) {
  const Matrix a = GenerateGaussian(30, 5, 1.0, 8);
  RowSamplingSketch s1(5, 6, 99), s2(5, 6, 99);
  s1.AppendRows(a);
  s2.AppendRows(a);
  EXPECT_TRUE(s1.Sketch() == s2.Sketch());
}

TEST(RowSamplingTest, HeavyRowDominatesReservoirs) {
  // One row with overwhelming mass should occupy nearly all reservoirs.
  RowSamplingSketch s(2, 20, 9);
  const double light[] = {0.01, 0.0};
  const double heavy[] = {100.0, 0.0};
  for (int i = 0; i < 10; ++i) s.Append(light);
  s.Append(heavy);
  size_t heavy_count = 0;
  for (size_t r = 0; r < 20; ++r) {
    if (s.HasSample(r) && s.SampleWeight(r) > 1.0) ++heavy_count;
  }
  EXPECT_GE(heavy_count, 18u);
}

}  // namespace
}  // namespace distsketch
