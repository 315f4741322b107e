#include "workload/partition.h"

#include <gtest/gtest.h>

#include "linalg/blas.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/row_stream.h"

namespace distsketch {
namespace {

class PartitionSchemeTest : public ::testing::TestWithParam<PartitionScheme> {
};

TEST_P(PartitionSchemeTest, ConservesRowsAndCovariance) {
  const Matrix a = GenerateGaussian(53, 7, 1.0, 1);
  const auto parts = PartitionRows(a, 5, GetParam(), /*seed=*/11);
  ASSERT_EQ(parts.size(), 5u);
  size_t total = 0;
  for (const auto& p : parts) {
    total += p.rows();
    EXPECT_EQ(p.cols(), 7u);
  }
  EXPECT_EQ(total, 53u);
  // Covariance is partition-invariant: sum of local Grams = global Gram.
  Matrix sum(7, 7);
  for (const auto& p : parts) {
    if (p.rows() > 0) sum = Add(sum, Gram(p));
  }
  EXPECT_TRUE(AlmostEqual(sum, Gram(a), 1e-10));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionSchemeTest,
                         ::testing::Values(PartitionScheme::kRoundRobin,
                                           PartitionScheme::kContiguous,
                                           PartitionScheme::kSkewed,
                                           PartitionScheme::kRandom,
                                           PartitionScheme::kZipf));

TEST(PartitionTest, ContiguousPreservesOrder) {
  const Matrix a{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const auto parts = PartitionRows(a, 2, PartitionScheme::kContiguous);
  EXPECT_EQ(parts[0](0, 0), 1.0);
  EXPECT_EQ(parts[0](1, 0), 2.0);
  EXPECT_EQ(parts[1](0, 0), 3.0);
  const Matrix back = UnpartitionRows(parts);
  EXPECT_TRUE(back == a);
}

TEST(PartitionTest, RoundRobinInterleaves) {
  const Matrix a{{1, 0}, {2, 0}, {3, 0}, {4, 0}};
  const auto parts = PartitionRows(a, 2, PartitionScheme::kRoundRobin);
  EXPECT_EQ(parts[0](0, 0), 1.0);
  EXPECT_EQ(parts[0](1, 0), 3.0);
  EXPECT_EQ(parts[1](0, 0), 2.0);
}

TEST(PartitionTest, SkewedFirstServerLargest) {
  const Matrix a = GenerateGaussian(64, 3, 1.0, 2);
  const auto parts = PartitionRows(a, 4, PartitionScheme::kSkewed);
  EXPECT_GE(parts[0].rows(), parts[1].rows());
  EXPECT_GE(parts[1].rows(), parts[2].rows());
}

TEST(ZipfPartitionTest, SharesAreMonotoneAndExhaustive) {
  const Matrix a = GenerateGaussian(200, 3, 1.0, 7);
  for (const double alpha : {0.5, 1.0, 2.0}) {
    const auto parts = PartitionRowsZipf(a, 8, alpha);
    ASSERT_EQ(parts.size(), 8u);
    size_t total = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      total += parts[p].rows();
      if (p > 0) {
        EXPECT_GE(parts[p - 1].rows(), parts[p].rows())
            << "alpha=" << alpha << " p=" << p;
      }
    }
    EXPECT_EQ(total, 200u) << "alpha=" << alpha;
  }
  // Larger alpha concentrates more rows on server 0.
  EXPECT_LT(PartitionRowsZipf(a, 8, 0.5)[0].rows(),
            PartitionRowsZipf(a, 8, 2.0)[0].rows());
}

TEST(ZipfPartitionTest, AlphaZeroDegeneratesToEqualBlocks) {
  const Matrix a = GenerateGaussian(64, 2, 1.0, 9);
  const auto zipf = PartitionRowsZipf(a, 4, 0.0);
  const auto contiguous = PartitionRows(a, 4, PartitionScheme::kContiguous);
  ASSERT_EQ(zipf.size(), contiguous.size());
  for (size_t p = 0; p < zipf.size(); ++p) {
    EXPECT_EQ(zipf[p].rows(), contiguous[p].rows());
  }
}

TEST(ZipfPartitionTest, BlocksAreContiguousAndDeterministic) {
  const Matrix a{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}};
  const auto parts = PartitionRowsZipf(a, 3, 1.0);
  // Contiguous: reassembly in server order is the original matrix.
  EXPECT_TRUE(UnpartitionRows(parts) == a);
  const auto again = PartitionRowsZipf(a, 3, 1.0);
  for (size_t p = 0; p < parts.size(); ++p) {
    EXPECT_EQ(parts[p].rows(), again[p].rows());
  }
}

TEST(ZipfPartitionTest, SchemeEnumDelegatesToExponentOne) {
  const Matrix a = GenerateGaussian(100, 2, 1.0, 3);
  const auto via_scheme = PartitionRows(a, 6, PartitionScheme::kZipf);
  const auto direct = PartitionRowsZipf(a, 6, 1.0);
  ASSERT_EQ(via_scheme.size(), direct.size());
  for (size_t p = 0; p < direct.size(); ++p) {
    EXPECT_EQ(via_scheme[p].rows(), direct[p].rows()) << "p=" << p;
  }
}

TEST(ZipfPartitionTest, MoreServersThanRowsLeavesTailEmpty) {
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  const auto parts = PartitionRowsZipf(a, 10, 1.5);
  size_t total = 0;
  for (const auto& p : parts) total += p.rows();
  EXPECT_EQ(total, 3u);
  // Largest-remainder rounding keeps the heavy shards in front.
  EXPECT_GE(parts[0].rows(), parts[9].rows());
}

TEST(PartitionTest, MoreServersThanRows) {
  const Matrix a{{1, 2}, {3, 4}};
  const auto parts = PartitionRows(a, 5, PartitionScheme::kContiguous);
  size_t total = 0;
  for (const auto& p : parts) total += p.rows();
  EXPECT_EQ(total, 2u);
}

TEST(PartitionTest, SplitAdditiveSumsBack) {
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = 40, .cols = 8, .rank = 3, .noise_stddev = 0.2, .seed = 1});
  const auto shares = SplitAdditive(a, 5, 7);
  ASSERT_EQ(shares.size(), 5u);
  Matrix sum(40, 8);
  for (const auto& share : shares) sum = Add(sum, share);
  EXPECT_TRUE(AlmostEqual(sum, a, 1e-10));
  // Shares individually look nothing like A (dense noise).
  EXPECT_GT(CovarianceError(a, shares[0]),
            0.3 * SquaredFrobeniusNorm(a) / static_cast<double>(a.cols()));
}

TEST(PartitionTest, SplitAdditiveLocalGramsDoNotAddUp) {
  // The reason the row-partition protocols fail on additive shares: the
  // sum of share Grams != the Gram of the sum.
  const Matrix a = GenerateGaussian(30, 6, 1.0, 2);
  const auto shares = SplitAdditive(a, 3, 8);
  Matrix gram_sum(6, 6);
  for (const auto& share : shares) gram_sum = Add(gram_sum, Gram(share));
  EXPECT_FALSE(
      AlmostEqual(gram_sum, Gram(a), 0.1 * SquaredFrobeniusNorm(a)));
}

TEST(RowStreamTest, SinglePassSemantics) {
  const Matrix a{{1, 2}, {3, 4}, {5, 6}};
  RowStream stream(a);
  EXPECT_EQ(stream.dim(), 2u);
  EXPECT_EQ(stream.total(), 3u);
  size_t count = 0;
  double first = 0.0;
  while (stream.HasNext()) {
    auto row = stream.Next();
    if (count == 0) first = row[0];
    ++count;
  }
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(first, 1.0);
  EXPECT_EQ(stream.consumed(), 3u);
  EXPECT_FALSE(stream.HasNext());
}

}  // namespace
}  // namespace distsketch
