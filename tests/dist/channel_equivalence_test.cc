// Regression pins for the channel-transport refactor: seeded protocol
// runs routed through the async ChannelTransport adapter must reproduce
// the pre-refactor synchronous transcripts bit for bit — transcript
// digest, analytic word count, wire bytes, control (NAK) bytes, and the
// result sketch are all pinned. A second suite asserts the two partition
// models meter identically: the same send schedule through a row
// Cluster and a Cluster::CreateAdditive cluster produces equal CommStats,
// including the NAK control_wire_bytes.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/adaptive_sketch_protocol.h"
#include "dist/cluster.h"
#include "dist/exact_gram_protocol.h"
#include "dist/fd_merge_protocol.h"
#include "dist/fault_injection.h"
#include "dist/row_sampling_protocol.h"
#include "dist/svs_protocol.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace distsketch {
namespace {

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
  for (size_t i = 0; i < m.size(); ++i) {
    uint64_t bits;
    std::memcpy(&bits, m.data() + i, 8);
    mix(bits);
  }
  return h;
}

FaultConfig ChaosConfig() {
  FaultConfig fc;
  fc.default_profile.drop_prob = 0.08;
  fc.default_profile.duplicate_prob = 0.05;
  fc.default_profile.truncate_prob = 0.05;
  fc.default_profile.corrupt_prob = 0.05;
  fc.default_profile.transient_fail_prob = 0.04;
  fc.seed = 77;
  return fc;
}

Cluster MakeTestCluster(bool faults) {
  Matrix a = GenerateGaussian(512, 24, 1.0, 20240807);
  auto cluster =
      Cluster::Create(PartitionRows(a, 8, PartitionScheme::kRoundRobin), 0.1);
  DS_CHECK(cluster.ok());
  if (faults) cluster->InstallFaultPlan(ChaosConfig());
  return std::move(*cluster);
}

struct PinnedRun {
  const char* name;
  bool faults;
  uint64_t transcript_digest;
  uint64_t total_words;
  uint64_t total_wire_bytes;
  uint64_t control_wire_bytes;
  uint64_t sketch_digest;
};

// Captured from the pre-refactor synchronous Cluster::Send path (commit
// 68a7590) with the seeded workload above. Any drift here means the
// channel adapter changed an observable transcript. Exception: the
// fault-mode transcript digests of fd_merge and exact_gram were re-pinned
// (from 0x8d5771dbd8d1c5dc and 0xaeb2f50abdf721a0) when their star moved
// onto the tree driver, whose mass reports all precede the uplinks; the
// words, wire bytes, control bytes and sketches did not move.
const PinnedRun kPins[] = {
    {"fd_merge", false, 0xc4753034a1c6230dull, 2112ull, 17480ull, 0ull,
     0x0dcf00118e432f7dull},
    {"svs", false, 0x50555985a008bfe3ull, 64ull, 1794ull, 0ull,
     0xfd2e474e57b948e0ull},
    {"adaptive_sketch", false, 0xb0ab2648fb0c9ed1ull, 2080ull, 18416ull, 0ull,
     0x37a98bb41562029dull},
    {"exact_gram", false, 0xe9a55ef08162cfa5ull, 2400ull, 19768ull, 0ull,
     0x531714a36a1b9408ull},
    {"row_sampling", false, 0x2e37237af9c3a516ull, 2424ull, 21168ull, 0ull,
     0x92706e644040b951ull},
    {"fd_merge", true, 0x02e78bd69705518aull, 2649ull, 22561ull, 43ull,
     0x0dcf00118e432f7dull},
    {"svs", true, 0xfa794e2725642d26ull, 129ull, 2707ull, 86ull,
     0xfd2e474e57b948e0ull},
    {"adaptive_sketch", true, 0xa5fc29b7f6d57929ull, 2167ull, 20219ull, 86ull,
     0x37a98bb41562029dull},
    {"exact_gram", true, 0x9a83816eb8fcd99eull, 3009ull, 25421ull, 43ull,
     0x531714a36a1b9408ull},
    {"row_sampling", true, 0xc2dd40ddcc9e5801ull, 3557ull, 30751ull, 86ull,
     0x92706e644040b951ull},
};

std::shared_ptr<SketchProtocol> MakeProtocol(const std::string& name) {
  if (name == "fd_merge") {
    return std::make_shared<FdMergeProtocol>(FdMergeOptions{});
  }
  if (name == "svs") {
    return std::make_shared<SvsProtocol>(SvsProtocolOptions{});
  }
  if (name == "adaptive_sketch") {
    return std::make_shared<AdaptiveSketchProtocol>(AdaptiveSketchOptions{});
  }
  if (name == "exact_gram") {
    return std::make_shared<ExactGramProtocol>();
  }
  if (name == "row_sampling") {
    return std::make_shared<RowSamplingProtocol>(RowSamplingOptions{});
  }
  return nullptr;
}

TEST(ChannelEquivalence, SeededRunsMatchPreRefactorPins) {
  for (const PinnedRun& pin : kPins) {
    SCOPED_TRACE(std::string(pin.name) +
                 (pin.faults ? " (faults)" : " (clean)"));
    auto protocol = MakeProtocol(pin.name);
    ASSERT_NE(protocol, nullptr);
    Cluster cluster = MakeTestCluster(pin.faults);
    auto result = protocol->Run(cluster);
    ASSERT_TRUE(result.ok()) << result.status().message();
    EXPECT_EQ(TranscriptDigest(cluster.log(), cluster.faults()),
              pin.transcript_digest);
    EXPECT_EQ(result->comm.total_words, pin.total_words);
    EXPECT_EQ(result->comm.total_wire_bytes, pin.total_wire_bytes);
    EXPECT_EQ(result->comm.control_wire_bytes, pin.control_wire_bytes);
    EXPECT_EQ(MatrixDigest(result->sketch), pin.sketch_digest);
  }
}

TEST(ChannelEquivalence, ResetLogReplaysIdenticalTranscript) {
  auto protocol = MakeProtocol("fd_merge");
  Cluster cluster = MakeTestCluster(/*faults=*/true);
  auto first = protocol->Run(cluster);
  ASSERT_TRUE(first.ok());
  const uint64_t digest1 = TranscriptDigest(cluster.log(), cluster.faults());
  cluster.ResetLog();
  auto second = protocol->Run(cluster);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(TranscriptDigest(cluster.log(), cluster.faults()), digest1);
  EXPECT_EQ(MatrixDigest(first->sketch), MatrixDigest(second->sketch));
}

// Both partition models run over one Cluster transport, so an identical
// send schedule over identical fault plans must meter identically — in
// particular the NAK control bytes.
TEST(ChannelEquivalence, AdditiveClusterMetersLikeCluster) {
  Matrix a = GenerateGaussian(96, 12, 1.0, 4242);
  constexpr size_t kServers = 4;

  auto row_cluster = Cluster::Create(
      PartitionRows(a, kServers, PartitionScheme::kRoundRobin), 0.1);
  ASSERT_TRUE(row_cluster.ok());
  auto add_cluster =
      Cluster::CreateAdditive(SplitAdditive(a, kServers, 99), 0.1);
  ASSERT_TRUE(add_cluster.ok());

  FaultConfig fc = ChaosConfig();
  fc.default_profile.drop_prob = 0.15;  // force retries -> NAK traffic
  row_cluster->InstallFaultPlan(fc);
  add_cluster->InstallFaultPlan(fc);

  Matrix block = GenerateGaussian(6, 12, 1.0, 7);
  for (int round = 0; round < 3; ++round) {
    for (int s = 0; s < static_cast<int>(kServers); ++s) {
      const wire::Message up =
          wire::DenseMessage("test/up", block);
      const wire::Message down = wire::ScalarMessage("test/down", 1.5);
      const SendOutcome row_up = row_cluster->Send(s, kCoordinator, up);
      const SendOutcome add_up = add_cluster->Send(s, kCoordinator, up);
      EXPECT_EQ(row_up.delivered, add_up.delivered);
      EXPECT_EQ(row_up.wire_bytes, add_up.wire_bytes);
      EXPECT_EQ(row_up.control_bytes, add_up.control_bytes);
      const SendOutcome row_down = row_cluster->Send(kCoordinator, s, down);
      const SendOutcome add_down = add_cluster->Send(kCoordinator, s, down);
      EXPECT_EQ(row_down.delivered, add_down.delivered);
      EXPECT_EQ(row_down.control_bytes, add_down.control_bytes);
    }
  }

  const CommStats row_stats = row_cluster->log().Stats();
  const CommStats add_stats = add_cluster->log().Stats();
  EXPECT_EQ(row_stats.total_words, add_stats.total_words);
  EXPECT_EQ(row_stats.total_wire_bytes, add_stats.total_wire_bytes);
  EXPECT_EQ(row_stats.control_wire_bytes, add_stats.control_wire_bytes);
  EXPECT_GT(add_stats.control_wire_bytes, 0u)
      << "fault plan produced no NAKs; raise drop_prob";
  EXPECT_EQ(TranscriptDigest(row_cluster->log(), row_cluster->faults()),
            TranscriptDigest(add_cluster->log(), add_cluster->faults()));
}

}  // namespace
}  // namespace distsketch
