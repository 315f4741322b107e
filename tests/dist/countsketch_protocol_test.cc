// Distributed CountSketch projection protocol: the coordinator's sum of
// per-server bucket matrices must equal a single compressor run over the
// same (global index, row) pairs — CountSketch is linear, so shard-and-
// sum is exact, not approximate. The approximation lives entirely in the
// projection itself: coverr(A, SA) <= eps * ||A||_F^2 at the swept seeds.
// The same protocol runs in the arbitrary-partition model on a
// Cluster::CreateAdditive cluster, where the
// row-based families refuse to run and a lost share is fatal.

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "dist/adaptive_sketch_protocol.h"
#include "dist/countsketch_protocol.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/low_rank_exact_protocol.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "linalg/blas.h"
#include "sketch/countsketch.h"
#include "sketch/error_metrics.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

constexpr size_t kServers = 9;

// Mirrors the protocol's global row index scheme (DESIGN.md §14).
uint64_t GlobalRowIndex(size_t server, size_t local_row) {
  return (static_cast<uint64_t>(server) << 32) |
         static_cast<uint64_t>(local_row);
}

size_t BucketsFor(const CountSketchProtocolOptions& options) {
  return static_cast<size_t>(
      std::ceil(options.oversample / (options.eps * options.eps)));
}

Cluster MakeCluster(const std::vector<Matrix>& parts) {
  auto cluster = Cluster::Create(parts, 0.2);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

// The oracle: one compressor absorbing every shard's rows under the
// shard's global indices. By linearity the protocol must reproduce this
// bit for bit — same hashes, same adds, only the association differs,
// and the test data has +-1 entries so bucket sums are exact integers.
Matrix Oracle(const std::vector<Matrix>& parts,
              const CountSketchProtocolOptions& options) {
  CountSketchCompressor compressor(BucketsFor(options), parts[0].cols(),
                                   options.seed);
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t r = 0; r < parts[i].rows(); ++r) {
      compressor.Absorb(GlobalRowIndex(i, r), parts[i].Row(r));
    }
  }
  return compressor.ExportState().compressed;
}

TEST(CountSketchProtocolTest, ShardAndSumEqualsOneCompressorExactly) {
  const Matrix a = GenerateSignMatrix(117, 8, /*seed=*/13);
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kRoundRobin);
  CountSketchProtocolOptions options{.eps = 0.35, .oversample = 2.0,
                                     .seed = 77};
  for (const MergeTopologyOptions& topo :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(3)}) {
    options.topology = topo;
    Cluster cluster = MakeCluster(parts);
    CountSketchProtocol protocol(options);
    auto result = protocol.Run(cluster);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->sketch == Oracle(parts, options));
    EXPECT_EQ(result->sketch_rows, BucketsFor(options));
  }
}

TEST(CountSketchProtocolTest, MeetsTheCoverrBoundAtSweptSeeds) {
  const Matrix a = GenerateLowRankPlusNoise({.rows = 300,
                                             .cols = 16,
                                             .rank = 5,
                                             .decay = 0.5,
                                             .top_singular_value = 20.0,
                                             .noise_stddev = 0.3,
                                             .seed = 8});
  const double eps = 0.3;
  const double budget = eps * SquaredFrobeniusNorm(a);
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kContiguous);
  // coverr <= eps ||A||_F^2 holds with constant probability; sweeping a
  // few fixed seeds keeps the test deterministic while showing the bound
  // isn't a one-seed accident.
  for (const uint64_t seed : {1ull, 29ull, 12345ull}) {
    Cluster cluster = MakeCluster(parts);
    CountSketchProtocol protocol({.eps = eps, .oversample = 4.0,
                                  .seed = seed,
                                  .topology = MergeTopologyOptions::Tree(4)});
    auto result = protocol.Run(cluster);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(CovarianceError(a, result->sketch), budget) << "seed=" << seed;
  }
}

TEST(CountSketchProtocolTest, SparseAndDenseInputsAgreeBitForBit) {
  const Matrix a = GenerateSparse(
      {.rows = 180, .cols = 24, .density = 0.05, .seed = 17});
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kContiguous);
  const CountSketchProtocolOptions options{
      .eps = 0.4, .oversample = 2.0, .seed = 5,
      .topology = MergeTopologyOptions::Tree(3)};

  Cluster dense = MakeCluster(parts);
  auto dense_run = CountSketchProtocol(options).Run(dense);
  ASSERT_TRUE(dense_run.ok());

  auto sparse_cluster = Cluster::CreateSparse(parts, 0.2);
  ASSERT_TRUE(sparse_cluster.ok());
  auto sparse_run = CountSketchProtocol(options).Run(*sparse_cluster);
  ASSERT_TRUE(sparse_run.ok());

  // AbsorbSparse touches exactly the entries Absorb would change by a
  // non-zero amount: the O(nnz) route is bit-identical, not approximate.
  EXPECT_TRUE(sparse_run->sketch == dense_run->sketch);
}

TEST(CountSketchProtocolTest, SeedChangesTheHashFamily) {
  const Matrix a = GenerateSignMatrix(60, 6, /*seed=*/2);
  const auto parts = PartitionRows(a, kServers, PartitionScheme::kRoundRobin);
  auto run = [&](uint64_t seed) {
    Cluster cluster = MakeCluster(parts);
    CountSketchProtocol protocol({.eps = 0.4, .oversample = 2.0,
                                  .seed = seed});
    auto result = protocol.Run(cluster);
    DS_CHECK(result.ok());
    return std::move(result->sketch);
  };
  const Matrix first = run(11);
  EXPECT_TRUE(run(11) == first) << "same seed must be reproducible";
  EXPECT_FALSE(run(12) == first) << "different seed, different buckets";
}

TEST(CountSketchProtocolTest, InvalidOptionsAreRejected) {
  const Matrix a = GenerateSignMatrix(20, 4, /*seed=*/3);
  const auto parts = PartitionRows(a, 4, PartitionScheme::kRoundRobin);
  for (const CountSketchProtocolOptions& options :
       {CountSketchProtocolOptions{.eps = 0.0},
        CountSketchProtocolOptions{.eps = -0.1},
        CountSketchProtocolOptions{.eps = std::nan("")},
        CountSketchProtocolOptions{.eps = 0.3, .oversample = 0.0},
        CountSketchProtocolOptions{.eps = 0.3,
                                   .oversample = std::nan("")}}) {
    Cluster cluster = MakeCluster(parts);
    auto result = CountSketchProtocol(options).Run(cluster);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------
// Arbitrary partition: A = sum_i A^(i) over n-by-d shares.

Cluster MakeAdditive(const Matrix& a, size_t s, uint64_t split_seed,
                     double eps) {
  auto cluster = Cluster::CreateAdditive(SplitAdditive(a, s, split_seed), eps);
  DS_CHECK(cluster.ok());
  return std::move(*cluster);
}

uint64_t MatrixDigest(const Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(m.rows());
  mix(m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      uint64_t bits;
      const double v = m(i, j);
      std::memcpy(&bits, &v, sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

TEST(AdditiveClusterTest, Validation) {
  EXPECT_FALSE(Cluster::CreateAdditive({}, 0.1).ok());
  std::vector<Matrix> mismatched;
  mismatched.push_back(Matrix(3, 4));
  mismatched.push_back(Matrix(3, 5));
  EXPECT_FALSE(Cluster::CreateAdditive(std::move(mismatched), 0.1).ok());
  std::vector<Matrix> ok_shares;
  ok_shares.push_back(GenerateGaussian(3, 4, 1.0, 1));
  EXPECT_FALSE(Cluster::CreateAdditive(ok_shares, 0.0).ok());
  EXPECT_FALSE(Cluster::CreateAdditive(ok_shares, std::nan("")).ok());
  auto cluster = Cluster::CreateAdditive(ok_shares, 0.1);
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE(cluster->additive());
  EXPECT_EQ(cluster->total_rows(), 3u);
}

TEST(AdditiveClusterTest, ExactProtocolIsExactAtOsndCost) {
  const Matrix a = GenerateLowRankPlusNoise(
      {.rows = 50, .cols = 10, .rank = 4, .noise_stddev = 0.1, .seed = 3});
  auto cluster = Cluster::CreateAdditive(SplitAdditive(a, 4, 9), 0.1);
  ASSERT_TRUE(cluster.ok());
  EXPECT_TRUE(AlmostEqual(cluster->AssembleGroundTruth(), a, 1e-10));
  auto result = RunAdditiveExact(*cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(CovarianceError(a, result->sketch), 0.0,
              1e-6 * SquaredFrobeniusNorm(a));
  EXPECT_EQ(result->comm.total_words, 4u * 50u * 10u);
  // The baseline is the additive model's; a row partition has the
  // O(s d^2) ExactGramProtocol.
  Cluster rows = MakeCluster(PartitionRows(a, 4, PartitionScheme::kContiguous));
  EXPECT_EQ(RunAdditiveExact(rows).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdditiveClusterTest, CountSketchProtocolMeetsBudget) {
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 400, .cols = 16, .alpha = 0.8, .seed = 4});
  const double eps = 0.25;
  auto cluster = Cluster::CreateAdditive(SplitAdditive(a, 6, 10), eps);
  ASSERT_TRUE(cluster.ok());
  int good = 0;
  for (int t = 0; t < 5; ++t) {
    auto result = CountSketchProtocol(
                      {.eps = eps, .oversample = 4.0,
                       .seed = 100 + static_cast<uint64_t>(t)})
                      .Run(*cluster);
    ASSERT_TRUE(result.ok());
    // IMPORTANT: error is against the SUM, not any share.
    if (CovarianceError(a, result->sketch) <=
        eps * SquaredFrobeniusNorm(a)) {
      ++good;
    }
  }
  EXPECT_GE(good, 4);
}

TEST(AdditiveClusterTest, CountSketchCostIndependentOfN) {
  const double eps = 0.25;
  uint64_t words_small = 0, words_large = 0;
  for (const size_t n : {200u, 3200u}) {
    const Matrix a = GenerateGaussian(n, 12, 1.0, n);
    auto cluster = Cluster::CreateAdditive(SplitAdditive(a, 4, 11), eps);
    ASSERT_TRUE(cluster.ok());
    auto result = CountSketchProtocol({.eps = eps, .seed = 5}).Run(*cluster);
    ASSERT_TRUE(result.ok());
    (n == 200u ? words_small : words_large) = result->comm.total_words;
  }
  EXPECT_EQ(words_small, words_large);
}

TEST(AdditiveClusterTest, RowPartitionIsASpecialCase) {
  // Shares with disjoint supports: the additive model generalizes the
  // row partition, and the one protocol still meets its bound.
  const Matrix a = GenerateGaussian(60, 8, 1.0, 6);
  std::vector<Matrix> shares(3, Matrix(60, 8));
  for (size_t i = 0; i < 60; ++i) {
    for (size_t j = 0; j < 8; ++j) shares[i % 3](i, j) = a(i, j);
  }
  auto cluster = Cluster::CreateAdditive(std::move(shares), 0.25);
  ASSERT_TRUE(cluster.ok());
  auto result = CountSketchProtocol({.eps = 0.25, .seed = 12}).Run(*cluster);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(CovarianceError(a, result->sketch),
            0.25 * SquaredFrobeniusNorm(a));
}

TEST(CountSketchProtocolTest, AdditiveSharesHashByShareRowIndex) {
  // Row r of every share is row r of A: the oracle compressor absorbing
  // A's rows under index r must equal the sum of the shares' buckets
  // (integer-valued shares keep every add exact), under any topology.
  const Matrix a = GenerateSignMatrix(40, 6, /*seed=*/21);
  std::vector<Matrix> shares(4, Matrix(40, 6));
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      shares[(i + j) % 4](i, j) = a(i, j);  // each entry on one share
    }
  }
  const CountSketchProtocolOptions base{.eps = 0.4, .oversample = 2.0,
                                        .seed = 9};
  CountSketchCompressor oracle(BucketsFor(base), 6, base.seed);
  for (size_t r = 0; r < a.rows(); ++r) oracle.Absorb(r, a.Row(r));
  for (const MergeTopologyOptions& topo :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(2)}) {
    auto cluster = Cluster::CreateAdditive(shares, 0.2);
    ASSERT_TRUE(cluster.ok());
    CountSketchProtocolOptions options = base;
    options.topology = topo;
    auto result = CountSketchProtocol(options).Run(*cluster);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->sketch == oracle.ExportState().compressed);
  }
}

// Words and sketch digests of the E5 cells (bench_ext_arbitrary_partition:
// s = 8, d = 24, Zipf alpha 0.8 data seeded by n, SplitAdditive seed 7,
// CountSketch seed 3). Captured from the arbitrary-partition CountSketch
// before it ran through CountSketchProtocol: same hash index r, same
// server-order sum at the coordinator, so the same bits.
TEST(CountSketchProtocolTest, AdditiveE5CellsMatchPinnedWordsAndSketch) {
  struct Cell {
    size_t n;
    double eps;
    uint64_t words;
    uint64_t digest;
  };
  const Cell cells[] = {
      {256, 0.3, 8648, 0x82caebc56eb855bdULL},
      {256, 0.15, 34184, 0x90f2f1a398ba3d28ULL},
      {1024, 0.3, 8648, 0x4072eeda0b7697f3ULL},
      {1024, 0.15, 34184, 0x81cba6af6a5382b2ULL},
      {4096, 0.3, 8648, 0x8a238b5c01087962ULL},
      {4096, 0.15, 34184, 0x3c794099bff448afULL},
  };
  for (const Cell& cell : cells) {
    const Matrix a = GenerateZipfSpectrum(
        {.rows = cell.n, .cols = 24, .alpha = 0.8, .seed = cell.n});
    Cluster cluster = MakeAdditive(a, 8, 7, cell.eps);
    auto result =
        CountSketchProtocol({.eps = cell.eps, .seed = 3}).Run(cluster);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->comm.total_words, cell.words) << "n=" << cell.n;
    EXPECT_EQ(MatrixDigest(result->sketch), cell.digest)
        << "n=" << cell.n << " eps=" << cell.eps;
  }
}

TEST(CountSketchProtocolTest, AdditiveSketchBitIdenticalAcrossThreadCounts) {
  const size_t saved = ThreadPool::GlobalThreads();
  const Matrix a = GenerateZipfSpectrum(
      {.rows = 300, .cols = 16, .alpha = 0.8, .seed = 5});
  std::vector<uint64_t> digests;
  for (const size_t threads : {1u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    for (const MergeTopologyOptions& topo :
         {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(2)}) {
      Cluster cluster = MakeAdditive(a, 6, 13, 0.3);
      auto result = CountSketchProtocol({.eps = 0.3, .seed = 4,
                                         .topology = topo})
                        .Run(cluster);
      ASSERT_TRUE(result.ok());
      digests.push_back(MatrixDigest(result->sketch));
    }
  }
  ThreadPool::SetGlobalThreads(saved);
  ASSERT_EQ(digests.size(), 4u);
  EXPECT_EQ(digests[0], digests[2]) << "star, 1 vs 8 threads";
  EXPECT_EQ(digests[1], digests[3]) << "tree, 1 vs 8 threads";
}

TEST(CountSketchProtocolTest, RowBasedFamiliesRefuseAdditiveShares) {
  const Matrix a = GenerateGaussian(40, 6, 1.0, 3);
  std::vector<std::unique_ptr<SketchProtocol>> row_based;
  row_based.push_back(std::make_unique<ExactGramProtocol>());
  row_based.push_back(std::make_unique<FdMergeProtocol>(FdMergeOptions{}));
  row_based.push_back(
      std::make_unique<RowSamplingProtocol>(RowSamplingOptions{}));
  row_based.push_back(std::make_unique<SvsProtocol>(SvsProtocolOptions{}));
  AdaptiveSketchOptions adaptive;
  adaptive.k = 2;
  row_based.push_back(std::make_unique<AdaptiveSketchProtocol>(adaptive));
  LowRankExactOptions low_rank;
  low_rank.k = 2;
  row_based.push_back(std::make_unique<LowRankExactProtocol>(low_rank));
  for (const auto& protocol : row_based) {
    Cluster cluster = MakeAdditive(a, 3, 5, 0.2);
    auto result = protocol->Run(cluster);
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << protocol->Name();
    EXPECT_EQ(cluster.log().Stats().total_words, 0u) << protocol->Name();
  }
}

TEST(CountSketchProtocolTest, AdditiveLostShareIsUnavailable) {
  const Matrix a = GenerateGaussian(48, 6, 1.0, 8);
  for (const MergeTopologyOptions& topo :
       {MergeTopologyOptions::Star(), MergeTopologyOptions::Tree(2)}) {
    // Dead before the seed arrives, and dead after it (the share's
    // uplink is what is lost).
    for (const double die_at : {0.0, 3.0}) {
      Cluster cluster = MakeAdditive(a, 4, 6, 0.3);
      FaultConfig faults;
      faults.per_server[2].die_at_time = die_at;
      cluster.InstallFaultPlan(faults);
      auto result =
          CountSketchProtocol({.eps = 0.3, .seed = 2, .topology = topo})
              .Run(cluster);
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
          << "die_at=" << die_at;
    }
  }
}

TEST(CountSketchProtocolTest, AdditiveFaultModeSendsNoMassReports) {
  // Any loss on an additive cluster is Unavailable, so the 1-word mass
  // reports of degraded mode would never be read: a fault plan that
  // never fires must meter exactly like the ideal wire (6 seeds + 6
  // uplinks of 45 x 6 buckets = 1626 words in 12 messages).
  const Matrix a = GenerateGaussian(48, 6, 1.0, 8);
  CountSketchProtocolOptions options;
  options.eps = 0.3;
  options.seed = 2;
  Cluster ideal = MakeAdditive(a, 6, 6, 0.3);
  auto clean = CountSketchProtocol(options).Run(ideal);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->comm.total_words, 1626u);
  EXPECT_EQ(clean->comm.num_messages, 12u);

  Cluster faulty = MakeAdditive(a, 6, 6, 0.3);
  FaultConfig faults;
  faults.per_server[0].die_at_time = 1e9;  // long after the run
  faulty.InstallFaultPlan(faults);
  ASSERT_TRUE(faulty.fault_mode());
  auto quiet = CountSketchProtocol(options).Run(faulty);
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet->comm.total_words, clean->comm.total_words);
  EXPECT_EQ(quiet->comm.num_messages, clean->comm.num_messages);
  EXPECT_TRUE(quiet->sketch == clean->sketch);
}

TEST(CountSketchProtocolTest, TinyEpsIsATypedError) {
  // m = 4/eps^2 overflows the bucket count long before eps reaches 0.
  const Matrix a = GenerateGaussian(24, 4, 1.0, 3);
  Cluster cluster =
      MakeCluster(PartitionRows(a, 3, PartitionScheme::kContiguous));
  for (const double eps : {1e-9, 1e-10, 1e-300}) {
    CountSketchProtocolOptions options;
    options.eps = eps;
    EXPECT_EQ(CountSketchProtocol(options).Run(cluster).status().code(),
              StatusCode::kInvalidArgument)
        << eps;
  }
}

TEST(CountSketchProtocolTest, TransientFaultsRecoverTheExactSketch) {
  // Drops, truncations and corruptions are retried: in both partition
  // models the sketch equals the fault-free one bit for bit, and the
  // wire shows the retransmissions.
  const Matrix a = GenerateSignMatrix(72, 6, /*seed=*/4);
  FaultConfig faults;
  faults.default_profile.drop_prob = 0.2;
  faults.default_profile.corrupt_prob = 0.1;
  faults.max_retries = 40;
  faults.seed = 17;
  const CountSketchProtocolOptions options{
      .eps = 0.4, .oversample = 2.0, .seed = 3,
      .topology = MergeTopologyOptions::Tree(2)};
  const auto run = [&](Cluster cluster, bool faulty) {
    if (faulty) cluster.InstallFaultPlan(faults);
    auto result = CountSketchProtocol(options).Run(cluster);
    EXPECT_TRUE(result.ok());
    EXPECT_FALSE(result->degraded.degraded());
    return std::move(*result);
  };
  const auto parts = PartitionRows(a, 6, PartitionScheme::kRoundRobin);
  const auto clean_rows = run(MakeCluster(parts), false);
  const auto faulty_rows = run(MakeCluster(parts), true);
  EXPECT_TRUE(faulty_rows.sketch == clean_rows.sketch);
  EXPECT_GT(faulty_rows.comm.num_retransmits, 0u);

  const auto shares = SplitAdditive(a, 6, 8);
  const auto additive = [&] {
    auto cluster = Cluster::CreateAdditive(shares, 0.2);
    DS_CHECK(cluster.ok());
    return std::move(*cluster);
  };
  const auto clean_add = run(additive(), false);
  const auto faulty_add = run(additive(), true);
  EXPECT_TRUE(faulty_add.sketch == clean_add.sketch);
  EXPECT_GT(faulty_add.comm.num_retransmits, 0u);
}

}  // namespace
}  // namespace distsketch
