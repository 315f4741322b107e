#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "autoconf/protocol_factory.h"
#include "dist/protocol.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/spectral_kernel.h"
#include "service/service_wire.h"
#include "service/sketch_service.h"
#include "sketch/countsketch.h"
#include "sketch/frequent_directions.h"
#include "store/sketch_store.h"
#include "wire/codec.h"
#include "wire/message.h"

namespace sketchbench {

namespace ds = distsketch;

namespace {

// Median seconds of up to `reps` calls of `fn`, stopping early once
// `budget_s` is spent (at least one call always runs).
template <class Fn>
double TimeMedian(size_t reps, double budget_s, Fn&& fn) {
  std::vector<double> t;
  const double start = NowS();
  for (size_t r = 0; r < reps; ++r) {
    const double t0 = NowS();
    fn();
    t.push_back(NowS() - t0);
    if (NowS() - start > budget_s) break;
  }
  return Median(std::move(t));
}

const Matrix& LargestPart(const std::vector<Matrix>& parts) {
  size_t best = 0;
  for (size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].rows() > parts[best].rows()) best = i;
  }
  return parts[best];
}

void MeasureLinalg(const LayerInputs& in, Metrics& out) {
  const Matrix& part = LargestPart(*in.parts);
  const Matrix gram = ds::GramParallel(*in.full);
  out.Set("linalg.eig_ms.coord", 1e3 * TimeMedian(5, 2.0, [&] {
            (void)ds::ComputeSymmetricEigen(gram);
          }),
          "ms");
  const Matrix buffer =
      part.RowRange(0, std::min(part.rows(), 2 * in.fd_ell));
  const Matrix buffer_gram = ds::RowGram(buffer);
  out.Set("linalg.eig_ms.shrink",
          1e3 * TimeMedian(50, 0.5, [&] {
            (void)ds::ComputeSymmetricEigen(buffer_gram);
          }),
          "ms");
  out.Set("linalg.sigma_vt_ms",
          1e3 * TimeMedian(5, 1.0, [&] { (void)ds::ComputeSigmaVt(part); }),
          "ms");
  out.Set("linalg.gram_ms",
          1e3 * TimeMedian(5, 1.0, [&] { (void)ds::Gram(part); }), "ms");
}

void MeasureSketch(const LayerInputs& in, Metrics& out) {
  const size_t d = in.full->cols();
  const Matrix& part = LargestPart(*in.parts);
  out.Set("sketch.fd_local_ms", 1e3 * TimeMedian(3, 2.0, [&] {
                                  ds::FrequentDirections fd(d, in.fd_ell);
                                  fd.AppendRows(part);
                                  (void)fd.Sketch();
                                }),
          "ms");
  std::vector<ds::FrequentDirections> locals;
  locals.reserve(in.parts->size());
  for (const Matrix& p : *in.parts) {
    locals.emplace_back(d, in.fd_ell);
    locals.back().AppendRows(p);
  }
  out.Set("sketch.fd_merge_ms", 1e3 * TimeMedian(3, 2.0, [&] {
                                  ds::FrequentDirections acc(d, in.fd_ell);
                                  for (const auto& l : locals) acc.Merge(l);
                                  (void)acc.Sketch();
                                }),
          "ms");
  out.Set("sketch.countsketch_local_ms",
          1e3 * TimeMedian(5, 1.0, [&] {
            ds::CountSketchCompressor cs(400, d, in.seed);
            for (size_t i = 0; i < part.rows(); ++i) cs.Absorb(i, part.Row(i));
          }),
          "ms");

  // One tenant absorbing the workload's batches, sealing at its epoch
  // boundary, and answering a query.
  auto tenant = ds::TenantSketch::Create("replay", in.tenant);
  std::vector<double> absorb_s, seal_s;
  for (const Matrix& b : in.tenant_batches) {
    double t0 = NowS();
    (void)tenant->AbsorbRows(b);
    absorb_s.push_back(NowS() - t0);
    if (tenant->EpochReady()) {
      t0 = NowS();
      tenant->SealEpoch();
      seal_s.push_back(NowS() - t0);
    }
  }
  if (seal_s.empty() && tenant->rows_in_epoch() > 0) {
    const double t0 = NowS();
    tenant->SealEpoch();
    seal_s.push_back(NowS() - t0);
  }
  out.Set("sketch.tenant_absorb_us", 1e6 * Median(absorb_s), "us");
  out.Set("sketch.tenant_seal_us", 1e6 * Median(seal_s), "us");
  out.Set("sketch.tenant_query_us",
          1e6 * TimeMedian(50, 0.5, [&] { (void)tenant->Query(); }), "us");

  // The tenant's checkpoint blob through the store.
  const std::vector<uint8_t> blob = tenant->Checkpoint();
  auto store = ds::SketchStore::Open(in.store_dir);
  if (store.ok()) {
    out.Set("store.put_us", 1e6 * TimeMedian(50, 0.5, [&] {
              (void)store->Put("replay", blob);
            }),
            "us");
    out.Set("store.get_us",
            1e6 * TimeMedian(50, 0.5, [&] { (void)store->Get("replay"); }),
            "us");
  }
  std::error_code ec;
  std::filesystem::remove_all(in.store_dir, ec);
  out.Set("store.blob_bytes", static_cast<double>(blob.size()), "B");
}

void MeasureWireAndDist(const LayerInputs& in, Metrics& out) {
  std::vector<uint8_t> payload;
  out.Set("wire.encode_us.uplink", 1e6 * TimeMedian(20, 0.5, [&] {
            payload = ds::wire::EncodeDensePayload(in.uplink);
          }),
          "us");
  out.Set("wire.decode_us.uplink", 1e6 * TimeMedian(20, 0.5, [&] {
            (void)ds::wire::DecodeMatrixPayload(payload.data(), payload.size());
          }),
          "us");
  const Matrix& rows = in.tenant_batches.front();
  ds::wire::Message request;
  out.Set("wire.encode_us.request", 1e6 * TimeMedian(50, 0.5, [&] {
            request = ds::EncodeIngestRequest("t0", rows);
          }),
          "us");
  out.Set("wire.decode_us.request", 1e6 * TimeMedian(50, 0.5, [&] {
            (void)ds::DecodeServiceRequest(request.payload);
          }),
          "us");

  const ds::wire::Message uplink = ds::wire::DenseMessage("uplink", in.uplink);
  out.Set("dist.send_us", 1e6 * TimeMedian(20, 0.5, [&] {
                            (void)in.cluster->Send(0, ds::kCoordinator, uplink);
                          }),
          "us");
  in.cluster->ResetLog();
  out.Set("dist.topology_build_us",
          1e6 * TimeMedian(50, 0.5, [&] {
            (void)ds::MergeTopology::Build(in.parts->size(), in.topology);
          }),
          "us");
  for (const auto& config : in.families) {
    auto protocol = ds::autoconf::BuildProtocol(config, in.seed);
    double ms = 0.0;
    if (protocol.ok()) {
      ms = 1e3 * TimeMedian(3, 1.0,
                            [&] { (void)(*protocol)->Run(*in.cluster); });
    }
    out.Set("dist.run_ms." + config.family, ms, "ms");
  }
  out.Set("autoconf.solve_ms", 1e3 * TimeMedian(5, 1.0, [&] {
                                 (void)ds::autoconf::SolveSketchConfig(in.goal,
                                                                       nullptr);
                               }),
          "ms");
}

}  // namespace

void MeasureLayers(const LayerInputs& in, Metrics& out) {
  MeasureLinalg(in, out);
  MeasureSketch(in, out);
  MeasureWireAndDist(in, out);
}

void ReportServiceFlow(const OpenResult& open, ds::ServiceRunner& runner,
                       uint64_t requests, Metrics& out) {
  const double per_1k = requests > 0 ? 1000.0 / requests : 0.0;
  out.Set("service.ingest_p50_ms", Quantile(open.ingest_ms, 0.50), "ms");
  out.Set("service.ingest_p99_ms", Quantile(open.ingest_ms, 0.99), "ms");
  out.Set("service.query_p99_ms", Quantile(open.query_ms, 0.99), "ms");
  out.Set("service.wait_ms_p50", Quantile(open.wait_ms, 0.50), "ms");
  out.Set("service.wait_ms_p99", Quantile(open.wait_ms, 0.99), "ms");
  out.Set("service.requests_per_drain",
          open.drains > 0 ? static_cast<double>(open.requests) / open.drains
                          : 0.0,
          "count");
  const ds::SketchService& svc = runner.service();
  out.Set("service.evictions_per_1k", svc.evictions() * per_1k, "count");
  out.Set("service.restores_per_1k", svc.restores() * per_1k, "count");
  out.Set("service.shed", static_cast<double>(svc.shed()), "count");
  out.Set("service.gen_late_ms", open.gen_late_ms, "ms");
}

void MeasureHandleBatch(const ServiceInputs& inputs,
                        const ds::ServiceRunnerOptions& options, size_t round,
                        Metrics& out) {
  // Tenants are admitted by ingest here, at the service's default sizing.
  std::vector<ds::ServiceRequest> requests;
  std::vector<ds::wire::Message> encoded;
  for (size_t i = 0; requests.size() < round && i < inputs.sequence.size();
       ++i) {
    const Slot& s = inputs.sequence[i];
    if (s.query) continue;
    encoded.push_back(ds::EncodeIngestRequest(inputs.tenants[s.tenant],
                                              inputs.batches[s.batch]));
    auto req = ds::DecodeServiceRequest(encoded.back().payload);
    if (req.ok()) requests.push_back(std::move(*req));
  }
  ds::SketchServiceOptions svc_options = options.service;
  svc_options.store = nullptr;
  svc_options.max_resident = svc_options.max_tenants;
  std::vector<double> handle_s, drain_s;
  for (int rep = 0; rep < 5; ++rep) {
    auto svc = ds::SketchService::Create(svc_options);
    if (!svc.ok()) return;
    double t0 = NowS();
    (void)svc->HandleBatch(requests);
    handle_s.push_back(NowS() - t0);

    ds::ServiceRunnerOptions runner_options = options;
    runner_options.service = svc_options;
    auto runner = ds::ServiceRunner::Create(runner_options);
    if (!runner.ok()) return;
    for (size_t i = 0; i < encoded.size(); ++i) {
      (void)(*runner)->Submit(static_cast<int>(i), encoded[i], nullptr);
    }
    t0 = NowS();
    (*runner)->Drain();
    drain_s.push_back(NowS() - t0);
  }
  const double handle = Median(handle_s);
  const double drain = Median(drain_s);
  out.Set("service.handle_batch_ms", 1e3 * handle, "ms");
  out.Set("service.runner_overhead_frac",
          drain > 0 ? 1.0 - handle / drain : 0.0, "ratio");
}

}  // namespace sketchbench
