#include "sketch/countsketch.h"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"

namespace distsketch {
namespace {

TEST(CountSketchTest, Validation) {
  EXPECT_FALSE(CountSketchCompressor::FromEps(4, 0.0, 1).ok());
  EXPECT_FALSE(CountSketchCompressor::FromEps(4, 0.2, 1, -1.0).ok());
  // NaN would reach the size_t bucket count; it is a typed error.
  EXPECT_EQ(CountSketchCompressor::FromEps(4, std::nan(""), 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      CountSketchCompressor::FromEps(4, 0.2, 1, std::nan("")).status().code(),
      StatusCode::kInvalidArgument);
  // A tiny but finite eps overflows m = 4/eps^2: at 1e-9 the allocation
  // used to abort the process, at 1e-10 the cast wrapped to one bucket.
  EXPECT_EQ(CountSketchCompressor::FromEps(4, 1e-9, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CountSketchCompressor::FromEps(4, 1e-10, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(CountSketchCompressor::FromEps(4, 1e-300, 1).status().code(),
            StatusCode::kInvalidArgument);
  auto c = CountSketchCompressor::FromEps(4, 0.5, 1);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->buckets(), 16u);  // ceil(4 / 0.25)
  auto coarse = CountSketchCompressor::FromEps(4, 4.0, 1);
  ASSERT_TRUE(coarse.ok());
  EXPECT_EQ(coarse->buckets(), 1u);
}

TEST(CountSketchTest, HashIsDeterministicAndSeedDependent) {
  CountSketchCompressor a(32, 4, 7), b(32, 4, 7), c(32, 4, 8);
  size_t bucket_a, bucket_b, bucket_c;
  double sign_a, sign_b, sign_c;
  int differs = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    a.Hash(i, &bucket_a, &sign_a);
    b.Hash(i, &bucket_b, &sign_b);
    c.Hash(i, &bucket_c, &sign_c);
    EXPECT_EQ(bucket_a, bucket_b);
    EXPECT_EQ(sign_a, sign_b);
    if (bucket_a != bucket_c || sign_a != sign_c) ++differs;
  }
  EXPECT_GT(differs, 32);
}

TEST(CountSketchTest, LinearityAcrossAdditiveShares) {
  // The key property: compressing shares separately and summing equals
  // compressing the sum.
  const Matrix a = GenerateGaussian(50, 6, 1.0, 1);
  const Matrix b = GenerateGaussian(50, 6, 1.0, 2);
  const Matrix sum = Add(a, b);
  CountSketchCompressor ca(16, 6, 9), cb(16, 6, 9), csum(16, 6, 9);
  for (size_t i = 0; i < 50; ++i) {
    ca.Absorb(i, a.Row(i));
    cb.Absorb(i, b.Row(i));
    csum.Absorb(i, sum.Row(i));
  }
  const Matrix summed = Add(ca.compressed(), cb.compressed());
  EXPECT_TRUE(AlmostEqual(summed, csum.compressed(), 1e-12));
}

TEST(CountSketchTest, GramUnbiasedOverSeeds) {
  // E_S[(SA)^T (SA)] = A^T A: average over many seeds.
  const Matrix a = GenerateGaussian(40, 5, 1.0, 3);
  const Matrix target = Gram(a);
  Matrix mean(5, 5);
  const int trials = 500;
  for (int t = 0; t < trials; ++t) {
    CountSketchCompressor c(8, 5, 1000 + t);
    for (size_t i = 0; i < a.rows(); ++i) c.Absorb(i, a.Row(i));
    mean = Add(mean, Gram(c.compressed()));
  }
  mean.Scale(1.0 / trials);
  EXPECT_TRUE(AlmostEqual(mean, target, 0.15 * FrobeniusNorm(target)));
}

TEST(CountSketchTest, CovarianceErrorWithinBudgetTypically) {
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 300, .cols = 12, .alpha = 0.7, .seed = 4});
  const double eps = 0.25;
  int good = 0;
  for (int t = 0; t < 10; ++t) {
    auto c = CountSketchCompressor::FromEps(12, eps, 2000 + t);
    ASSERT_TRUE(c.ok());
    for (size_t i = 0; i < a.rows(); ++i) c->Absorb(i, a.Row(i));
    if (CovarianceError(a, c->compressed()) <=
        eps * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 8);
}

TEST(CountSketchTest, CompressionIsLossyButNormPreservingOnAverage) {
  const Matrix a = GenerateGaussian(200, 8, 1.0, 5);
  auto c = CountSketchCompressor::FromEps(8, 0.3, 6);
  ASSERT_TRUE(c.ok());
  for (size_t i = 0; i < a.rows(); ++i) c->Absorb(i, a.Row(i));
  // ||SA||_F^2 concentrates around ||A||_F^2.
  EXPECT_NEAR(SquaredFrobeniusNorm(c->compressed()),
              SquaredFrobeniusNorm(a), 0.35 * SquaredFrobeniusNorm(a));
}

}  // namespace
}  // namespace distsketch
