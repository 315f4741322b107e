#include "dist/exact_gram_protocol.h"

#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "dist/protocol_telemetry.h"
#include "dist/tree_reduce.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "telemetry/span.h"

namespace distsketch {
namespace {

/// Coordinator finish: B = sqrt(Lambda) V^T from the eigendecomposition
/// of the (exact) Gram sum. Shared by every topology — the sum is the
/// same matrix, however it was aggregated.
StatusOr<Matrix> GramToSketch(const Matrix& total_gram) {
  telemetry::Span eig_span("exact_gram/coordinator_eig",
                           telemetry::Phase::kCompute);
  const size_t d = total_gram.rows();
  DS_ASSIGN_OR_RETURN(SymmetricEigenResult eig,
                      ComputeSymmetricEigen(total_gram));
  Matrix sketch;
  sketch.SetZero(0, d);
  std::vector<double> row(d);
  for (size_t j = 0; j < eig.eigenvalues.size(); ++j) {
    const double lambda = eig.eigenvalues[j];
    if (lambda <= 0.0) break;  // sorted non-increasing
    const double sigma = std::sqrt(lambda);
    for (size_t i = 0; i < d; ++i) row[i] = sigma * eig.eigenvectors(i, j);
    sketch.AppendRow(row);
  }
  return sketch;
}

}  // namespace

StatusOr<SketchProtocolResult> ExactGramProtocol::Run(Cluster& cluster) {
  cluster.ResetLog();
  DS_RETURN_IF_ERROR(RequireRowPartition(cluster, Name()));
  ProtocolRunScope run_scope(cluster, "exact_gram");
  const size_t d = cluster.dim();
  const size_t s = cluster.num_servers();
  cluster.log().BeginRound();
  DS_ASSIGN_OR_RETURN(MergeTopology topo,
                      MergeTopology::Build(s, options_.topology));

  SketchProtocolResult result;
  // Parallel phase: local d-by-d Grams (the O(n_i d^2) hot loop — or
  // O(nnz_i d) through the CSR kernel when the server carries a sparse
  // view).
  std::vector<Matrix> grams = ParallelMap<Matrix>(s, [&](size_t i) {
    telemetry::Span span("exact_gram/local_gram", telemetry::Phase::kCompute);
    span.SetAttr("server", static_cast<int64_t>(i));
    const Server& server = cluster.server(i);
    const Matrix& local = server.local_rows();
    const bool sparse = options_.use_sparse && server.has_sparse();
    span.SetAttr("kernel", sparse ? "sparse" : "dense");
    if (local.rows() == 0) return Matrix(d, d);
    return sparse ? server.sparse().Gram() : Gram(local);
  });

  // Gram addition is associative, so interior servers sum partial Grams
  // and forward one upper triangle; the coordinator adds what reaches it.
  Matrix total_gram(d, d);
  TreeReduceHooks hooks;
  hooks.absorb = [&](int node, const std::vector<uint8_t>& payload) -> Status {
    DS_ASSIGN_OR_RETURN(Matrix received,
                        wire::DecodeSymmetricPayload(payload, d));
    Matrix& dst =
        node == kCoordinator ? total_gram : grams[static_cast<size_t>(node)];
    dst = Add(dst, received);
    return Status::OK();
  };
  hooks.make_message = [&](int node) -> StatusOr<wire::Message> {
    // Symmetric payload: upper triangle only, packed as a flat row so
    // the measured wire words equal the analytic d(d+1)/2.
    const Matrix gram = std::move(grams[static_cast<size_t>(node)]);
    wire::Message msg = wire::SymmetricMessage("local_gram", gram);
    DS_CHECK(msg.words == d * (d + 1) / 2);
    return msg;
  };
  hooks.local_mass = LocalRowMass(cluster);
  DS_RETURN_IF_ERROR(RunTreeReduce(cluster, topo, hooks, result.degraded));

  DS_ASSIGN_OR_RETURN(result.sketch, GramToSketch(total_gram));
  result.comm = cluster.log().Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

StatusOr<SketchProtocolResult> RunAdditiveExact(Cluster& cluster) {
  cluster.ResetLog();
  if (!cluster.additive()) {
    return Status::FailedPrecondition(
        "RunAdditiveExact: needs an additive cluster");
  }
  const size_t n = cluster.total_rows();
  const size_t d = cluster.dim();
  CommLog& log = cluster.log();
  log.BeginRound();

  Matrix sum(n, d);
  for (size_t i = 0; i < cluster.num_servers(); ++i) {
    wire::Message msg =
        wire::DenseMessage("raw_share", cluster.server(i).local_rows());
    DS_CHECK(msg.words == cluster.cost_model().MatrixWords(n, d));
    SendOutcome sent = cluster.Send(static_cast<int>(i), kCoordinator, msg);
    if (!sent.delivered) {
      return Status::Unavailable(
          "RunAdditiveExact: share " + std::to_string(i) +
          " permanently lost; the additive sum is unrecoverable");
    }
    DS_ASSIGN_OR_RETURN(wire::DecodedMatrix share,
                        wire::DecodeMessagePayload(sent.payload));
    sum = Add(sum, share.matrix);
  }
  SketchProtocolResult result;
  DS_ASSIGN_OR_RETURN(result.sketch, GramToSketch(Gram(sum)));
  result.comm = log.Stats();
  result.sketch_rows = result.sketch.rows();
  return result;
}

}  // namespace distsketch
