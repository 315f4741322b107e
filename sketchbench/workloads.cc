#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "autoconf/protocol_factory.h"
#include "common/rng.h"
#include "dist/cluster.h"
#include "dist/protocol.h"
#include "layers.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "service_flow.h"
#include "sketch/countsketch.h"
#include "store/sketch_store.h"
#include "workload/generators.h"
#include "workload/partition.h"

namespace sketchbench {

namespace ds = distsketch;
using ds::autoconf::SketchConfig;

namespace {

constexpr size_t kBatchRows = 32;
constexpr size_t kIngestsPerQuery = 16;

// service_mixed load, fixed numbers so that two builds compared on one
// host see the same work. On the reference host (4-vCPU AVX-512 x86, pool
// of 2) phase-1 capacity is 240-270k ingest rows/s, about 8000 requests/s.
// Phase 1 submits a fixed number of requests, sized to take 35% of the
// run there (the runner's log, and so peak memory, then grows by the same
// amount in every run). Phase 2 offers a quarter of the capacity: at half,
// the host's slow phases saturated the service and doubled the median in
// one run of five.
constexpr double kReferenceRequestsPerS = 8000.0;
constexpr double kOfferedRowsPerS = 64000.0;

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string RunDir(const Args& args, const std::string& what) {
  return args.out_dir + "/" + what + "-" + std::to_string(getpid());
}

SketchConfig Family(const std::string& family, double eps, size_t k,
                    ds::MergeTopologyOptions topology) {
  SketchConfig c;
  c.family = family;
  c.working_eps = eps;
  c.k = k;
  c.topology = topology;
  c.sampling = ds::SamplingFunctionKind::kQuadratic;
  c.delta = 0.1;
  return c;
}

// The bound each family's own tests assert (tests/dist/
// protocol_guarantee_sweep_test.cc, countsketch_protocol_test.cc):
// fd_merge at 2 eps (merge-of-sketches constant), adaptive as an
// (3 eps, k)-sketch, svs (alpha = eps / 4) and countsketch at eps, and
// exact_gram exact up to 1e-6 of the mass.
double Guarantee(const SketchConfig& c, double mass,
                 const std::vector<double>& eig_desc) {
  if (c.family == "fd_merge") return 2.0 * c.working_eps * mass;
  if (c.family == "exact_gram") return 1e-6 * mass;
  if (c.family == "adaptive_sketch") {
    double tail = 0.0;
    for (size_t i = c.k; i < eig_desc.size(); ++i) {
      tail += std::max(0.0, eig_desc[i]);
    }
    return 3.0 * c.working_eps * tail / static_cast<double>(c.k);
  }
  return c.working_eps * mass;
}

// All five families, for the per-family replays: the workload's own
// configuration where its job cycle has one, a fixed default otherwise.
std::vector<SketchConfig> AllFamilies(const std::vector<SketchConfig>& cycle,
                                      size_t dim,
                                      ds::MergeTopologyOptions topology) {
  std::vector<SketchConfig> out = {
      Family("fd_merge", 0.1, 0, topology),
      Family("exact_gram", 0.1, 0, topology),
      Family("svs", 0.2, 0, ds::MergeTopologyOptions::Star()),
      Family("adaptive_sketch", 0.1, std::min<size_t>(8, dim / 2),
             ds::MergeTopologyOptions::Star()),
      Family("countsketch", 0.1, 0, topology)};
  for (SketchConfig& c : out) {
    for (const SketchConfig& own : cycle) {
      if (own.family == c.family) c = own;
    }
  }
  return out;
}

ds::ServiceRunnerOptions RunnerOptions(size_t dim, size_t tenants,
                                       size_t max_resident,
                                       ds::SketchStore* store) {
  ds::ServiceRunnerOptions o;
  o.service.tenant = {.dim = dim, .eps = 0.1, .epoch_rows = 256};
  o.service.max_tenants = tenants;
  o.service.max_resident = max_resident;
  o.service.store = store;
  // Deep enough that the channel never sheds: a shed is a failure here.
  o.channel.peer_queue_capacity = size_t{1} << 20;
  return o;
}

ds::ConfigureParams TenantGoal(size_t dim) {
  ds::ConfigureParams p;
  p.eps = 0.1;
  p.num_servers = 1;
  p.dim = dim;
  p.expected_rows = 1 << 16;
  p.epoch_rows = 256;
  return p;
}

std::vector<Matrix> Chunk(const Matrix& m, size_t rows) {
  std::vector<Matrix> out;
  for (size_t r = 0; r < m.rows(); r += rows) {
    out.push_back(m.RowRange(r, std::min(m.rows(), r + rows)));
  }
  return out;
}

void PrintSelfTimes(const Tracer& tracer) {
  for (const auto& [name, ms] : tracer.SelfTimeMs()) {
    std::printf("# self_ms %-16s %.3f\n", name.c_str(), ms);
  }
}

// ---------------------------------------------------------------- batch

struct BatchSpec {
  size_t n = 0;
  size_t d = 0;
  size_t s = 0;
  size_t rank = 0;
  /// Zipf spectrum over Zipf-sized shards (scale-out), else low-rank plus
  /// noise over a round-robin partition.
  bool zipf = false;
  ds::MergeTopologyOptions topology;
  std::vector<SketchConfig> cycle;
};

BatchSpec MakeBatchSpec(const std::string& name, bool smoke) {
  BatchSpec spec;
  if (name == "batch_d256") {
    spec.n = smoke ? 2048 : 16384;
    spec.d = smoke ? 32 : 256;
    spec.s = smoke ? 4 : 16;
    spec.rank = smoke ? 4 : 16;
    spec.topology = ds::MergeTopologyOptions::Star();
    spec.cycle = {Family("fd_merge", 1.0 / 63.0, 0, spec.topology),
                  Family("exact_gram", 0.1, 0, spec.topology),
                  Family("svs", 0.2, 0, spec.topology),
                  Family("adaptive_sketch", 0.1, smoke ? 4 : 8, spec.topology)};
  } else {
    spec.n = smoke ? 2048 : 16384;
    spec.d = smoke ? 16 : 64;
    spec.s = smoke ? 64 : 1024;
    spec.zipf = true;
    spec.topology = ds::MergeTopologyOptions::Tree(8);
    spec.cycle = {Family("fd_merge", 0.125, 0, spec.topology),
                  Family("exact_gram", 0.1, 0, spec.topology),
                  Family("countsketch", 0.1, 0, spec.topology)};
  }
  return spec;
}

struct BatchSetup {
  Matrix a;
  std::vector<Matrix> parts;
  std::optional<ds::Cluster> cluster;
};

// Builds the inputs and the cluster; returns false on failure.
bool SetUpBatch(const BatchSpec& spec, uint64_t seed, BatchSetup& st,
                double& generate_s) {
  const double t0 = NowS();
  st.a = spec.zipf
             ? ds::GenerateZipfSpectrum(
                   {.rows = spec.n, .cols = spec.d, .alpha = 1.0, .seed = seed})
             : ds::GenerateLowRankPlusNoise({.rows = spec.n,
                                             .cols = spec.d,
                                             .rank = spec.rank,
                                             .seed = seed});
  generate_s = NowS() - t0;
  st.parts = spec.zipf ? ds::PartitionRowsZipf(st.a, spec.s, 1.0)
                       : ds::PartitionRows(st.a, spec.s,
                                           ds::PartitionScheme::kRoundRobin);
  double eps_hint = 1.0;
  for (const SketchConfig& c : spec.cycle) {
    eps_hint = std::min(eps_hint, c.working_eps);
  }
  auto cluster = ds::Cluster::Create(st.parts, eps_hint);
  if (!cluster.ok()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().ToString().c_str());
    return false;
  }
  st.cluster.emplace(std::move(*cluster));
  return true;
}

struct Job {
  size_t family = 0;
  double seconds = 0.0;
  ds::CommStats comm;
  uint64_t coord_bytes = 0;
};

struct Answer {
  size_t family = 0;
  uint64_t op = 0;
  uint64_t jobs = 0;
  Matrix sketch;
};

struct BatchRun {
  std::vector<Job> jobs;
  std::map<uint64_t, Answer> answers;  // by sketch digest
  uint64_t next_op = 1;
  bool injected = false;
};

// Closed loop, one job at a time, in whole cycles: stops when one more
// cycle would end further past `seconds` than stopping now falls short.
void RunCycles(BatchSetup& st, const BatchSpec& spec, const Args& args,
               double seconds, Tracer& tracer, Ledger& ledger, BatchRun& run) {
  const double t0 = NowS();
  double cycle_s = 0.0;
  do {
    const double c0 = NowS();
    for (size_t f = 0; f < spec.cycle.size(); ++f) {
      const SketchConfig& config = spec.cycle[f];
      const uint64_t op = run.next_op++;
      ledger.Attempt();
      Job job;
      job.family = f;
      ds::StatusOr<ds::SketchProtocolResult> result =
          ds::Status::Internal("not run");
      const double j0 = NowS();
      {
        Tracer::Scope span(tracer, "job", op);
        ds::StatusOr<std::unique_ptr<ds::SketchProtocol>> protocol =
            ds::Status::Internal("not built");
        {
          Tracer::Scope build(tracer, "build_protocol", op);
          // A fresh protocol seed per job: the randomized families' misses
          // are then independent draws, which their gate needs.
          protocol = ds::autoconf::BuildProtocol(
              config, ds::Rng::DeriveSeed(args.seed, op));
        }
        if (protocol.ok()) {
          Tracer::Scope running(tracer, "run", op);
          result = (*protocol)->Run(*st.cluster);
        } else {
          result = protocol.status();
        }
      }
      job.seconds = NowS() - j0;
      if (!result.ok()) {
        ledger.Fail(config.family + ": " + result.status().ToString(), false);
        run.jobs.push_back(job);
        continue;
      }
      job.comm = result->comm;
      job.coord_bytes = st.cluster->log().WireBytesReceivedBy(ds::kCoordinator);
      run.jobs.push_back(job);
      if (args.inject_wrong && !run.injected && config.family == "fd_merge") {
        result->sketch = Matrix();
        run.injected = true;
      }
      const uint64_t digest = MatrixDigest(result->sketch);
      auto [it, inserted] = run.answers.try_emplace(digest);
      if (inserted) {
        it->second.family = f;
        it->second.op = op;
        it->second.sketch = std::move(result->sketch);
      }
      ++it->second.jobs;
    }
    cycle_s = NowS() - c0;
  } while (NowS() - t0 + 0.5 * cycle_s < seconds);
}

// Failure probability each family states its bound with: svs and
// adaptive carry their delta, countsketch at m = 4 / eps^2 buckets misses
// eps ||A||_F^2 with probability at most 1/2 (Chebyshev on the AMM
// variance), and the deterministic families never.
double MissProbability(const SketchConfig& c) {
  if (c.family == "svs" || c.family == "adaptive_sketch") return c.delta;
  if (c.family == "countsketch") return 0.5;
  return 0.0;
}

// P(X >= k) for X ~ Binomial(n, p).
double BinomialTail(uint64_t n, uint64_t k, double p) {
  double tail = 0.0;
  for (uint64_t i = k; i <= n; ++i) {
    tail += std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                     std::lgamma(n - i + 1.0) + i * std::log(p) +
                     (n - i) * std::log1p(-p));
  }
  return tail;
}

// Checks every distinct answer against its family's guarantee; every job
// that returned it shares the verdict. A deterministic family's answer
// above its bound is wrong. A randomized family's answers may miss at its
// stated rate; only a miss count implausible at that rate (binomial tail
// below 1e-6) marks them wrong. Returns the worst coverr / bound over the
// deterministic answers, which repeats exactly for a given input.
double CheckBatch(const BatchSetup& st, const BatchSpec& spec,
                  const BatchRun& run, Tracer& tracer, Ledger& ledger) {
  const Matrix gram = ds::GramParallel(st.a);
  std::vector<double> eig_desc;
  if (auto eig = ds::ComputeSymmetricEigen(gram); eig.ok()) {
    eig_desc = eig->eigenvalues;
  }
  std::sort(eig_desc.rbegin(), eig_desc.rend());
  double mass = 0.0;
  for (size_t i = 0; i < gram.rows(); ++i) mass += gram(i, i);
  double worst = 0.0;
  const size_t families = spec.cycle.size();
  std::vector<uint64_t> jobs(families, 0), misses(families, 0);
  std::vector<std::vector<double>> ratios(families);
  for (const auto& [digest, ans] : run.answers) {
    Tracer::Scope span(tracer, "check", ans.op);
    const SketchConfig& config = spec.cycle[ans.family];
    const double bound = Guarantee(config, mass, eig_desc);
    const double ratio = CoverrFromGram(gram, ans.sketch) / bound;
    const bool miss = !(ratio <= 1.0 + 1e-9);
    jobs[ans.family] += ans.jobs;
    ratios[ans.family].insert(ratios[ans.family].end(), ans.jobs, ratio);
    if (MissProbability(config) == 0.0) {
      worst = std::max(worst, ratio);
      for (uint64_t j = 0; miss && j < ans.jobs; ++j) {
        ledger.Fail(config.family + " sketch above its guarantee", true);
      }
    } else if (miss) {
      misses[ans.family] += ans.jobs;
    }
  }
  for (size_t f = 0; f < families; ++f) {
    const double p = MissProbability(spec.cycle[f]);
    if (p == 0.0) continue;
    std::printf("# coverr/bound %-16s median %.4f, %llu of %llu above "
                "(stated miss rate %.2f)\n",
                spec.cycle[f].family.c_str(), Median(ratios[f]),
                static_cast<unsigned long long>(misses[f]),
                static_cast<unsigned long long>(jobs[f]), p);
    if (misses[f] > 0 && BinomialTail(jobs[f], misses[f], p) < 1e-6) {
      for (uint64_t j = 0; j < misses[f]; ++j) {
        ledger.Fail(spec.cycle[f].family + " misses its bound too often",
                    true);
      }
    }
  }
  return worst;
}

struct CycleStats {
  double cycle_p25_s = 0.0;
  double cycle_p50_s = 0.0;
  double cycle_p75_s = 0.0;
  double cycle_mean_s = 0.0;
  double rows_per_s = 0.0;
  double words = 0.0;
  double wire_bytes = 0.0;
  double coord_wire_bytes = 0.0;
  double messages = 0.0;
  std::vector<double> family_p50_s;
};

CycleStats SummarizeCycles(const BatchSpec& spec, const BatchRun& run) {
  const size_t f_count = spec.cycle.size();
  const size_t cycles = run.jobs.size() / f_count;
  CycleStats out;
  std::vector<double> cycle_s(cycles, 0.0);
  std::vector<std::vector<double>> family_s(f_count);
  for (size_t i = 0; i < cycles * f_count; ++i) {
    const Job& job = run.jobs[i];
    cycle_s[i / f_count] += job.seconds;
    family_s[job.family].push_back(job.seconds);
    out.words += static_cast<double>(job.comm.total_words);
    out.wire_bytes += static_cast<double>(job.comm.total_wire_bytes +
                                          job.comm.control_wire_bytes);
    out.coord_wire_bytes += static_cast<double>(job.coord_bytes);
    out.messages += static_cast<double>(job.comm.num_messages +
                                        job.comm.num_control_messages);
  }
  double sum_p50 = 0.0;
  for (const auto& f : family_s) {
    out.family_p50_s.push_back(Median(f));
    sum_p50 += out.family_p50_s.back();
  }
  out.cycle_p25_s = Quantile(cycle_s, 0.25);
  out.cycle_p50_s = Median(cycle_s);
  out.cycle_p75_s = Quantile(cycle_s, 0.75);
  for (double c : cycle_s) out.cycle_mean_s += c / cycle_s.size();
  out.rows_per_s = sum_p50 > 0 ? spec.n * f_count / sum_p50 : 0.0;
  const double c = std::max<double>(1.0, static_cast<double>(cycles));
  out.words /= c;
  out.wire_bytes /= c;
  out.coord_wire_bytes /= c;
  out.messages /= c;
  return out;
}

// The service layer replayed on a batch workload's rows: up to 64 tenants
// ingest the servers' rows in 32-row chunks, then every tenant is checked.
void ServiceReplay(const std::vector<Matrix>& parts, size_t dim,
                   const Args& args, Ledger& ledger, Tracer& tracer,
                   Metrics& out) {
  ServiceInputs in;
  const size_t tenants = std::min<size_t>(parts.size(), 64);
  for (size_t t = 0; t < tenants; ++t) {
    in.tenants.push_back("r" + std::to_string(t));
  }
  for (const Matrix& p : parts) {
    for (Matrix& c : Chunk(p, kBatchRows)) in.batches.push_back(std::move(c));
  }
  in.goal = TenantGoal(dim);
  in.sequence = MakeSequence(tenants, in.batches.size(), 0.0, kIngestsPerQuery,
                             1 << 15, ds::Rng::DeriveSeed(args.seed, 7));
  const std::string dir = RunDir(args, "replay-store");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  auto store = ds::SketchStore::Open(dir);
  if (!store.ok()) {
    ledger.Fail("replay store: " + store.status().ToString(), false);
    return;
  }
  const ds::ServiceRunnerOptions options =
      RunnerOptions(dim, tenants, tenants, &*store);
  {
    auto flow = ServiceFlow::Create(in, options, ledger, tracer);
    if (!flow.ok()) {
      ledger.Fail("replay runner: " + flow.status().ToString(), false);
      return;
    }
    (void)(*flow)->Provision();
    const ClosedResult closed = (*flow)->RunClosed(20, 64);
    const OpenResult open = (*flow)->RunOpen(1.5, 0.5 * closed.RowsPerS());
    (*flow)->CheckAll(false);
    ReportServiceFlow(open, (*flow)->runner(), (*flow)->submitted(), out);
  }
  MeasureHandleBatch(in, options, 64, out);
  std::filesystem::remove_all(dir, ec);
}

bool RunBatch(const Args& args, Metrics& out, Ledger& ledger, Tracer& tracer) {
  const BatchSpec spec = MakeBatchSpec(args.workload, args.smoke);
  BatchSetup st;
  std::vector<double> setup_s, generate_s;
  for (int rep = 0; rep < (args.smoke ? 1 : 3); ++rep) {
    st = BatchSetup();
    const double t0 = NowS();
    double gen = 0.0;
    if (!SetUpBatch(spec, args.seed, st, gen)) return false;
    setup_s.push_back(NowS() - t0);
    generate_s.push_back(gen);
  }

  BatchRun run;
  Tracer off(false);
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  RunCycles(st, spec, args, untraced_s, off, ledger, run);
  const CycleStats stats = SummarizeCycles(spec, run);
  std::printf("# cycle_ms p25 %.1f p50 %.1f p75 %.1f mean %.1f over %zu "
              "cycles\n",
              1e3 * stats.cycle_p25_s, 1e3 * stats.cycle_p50_s,
              1e3 * stats.cycle_p75_s, 1e3 * stats.cycle_mean_s,
              run.jobs.size() / spec.cycle.size());
  for (size_t f = 0; f < spec.cycle.size(); ++f) {
    std::printf("# job_s %-16s p50 %.4f over %zu runs\n",
                spec.cycle[f].family.c_str(), stats.family_p50_s[f],
                run.jobs.size() / spec.cycle.size());
  }

  if (!args.trace) {
    const double coverr_ratio = CheckBatch(st, spec, run, off, ledger);
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("rows_per_s", stats.rows_per_s, "rows/s");
    out.Set("op_p50_ms", 1e3 * stats.cycle_p50_s, "ms");
    out.Set("words", stats.words, "words/op");
    out.Set("wire_bytes", stats.wire_bytes, "B/op");
    out.Set("coord_wire_bytes", stats.coord_wire_bytes, "B/op");
    out.Set("coverr_ratio", coverr_ratio, "ratio");
    out.Set("peak_rss_mb", PeakRssMb(), "MiB");
    return true;
  }

  // The traced half also runs under a telemetry context, so the library's
  // existing fd.shrinks counter can be read; its cost is part of the
  // reported trace overhead.
  BatchRun traced;
  traced.next_op = run.next_op;
  const uint64_t shrinks = CountShrinks([&] {
    RunCycles(st, spec, args, args.seconds / 2, tracer, ledger, traced);
  });
  const CycleStats traced_stats = SummarizeCycles(spec, traced);
  CheckBatch(st, spec, run, off, ledger);
  CheckBatch(st, spec, traced, tracer, ledger);

  LayerInputs in;
  in.full = &st.a;
  in.parts = &st.parts;
  in.cluster = &*st.cluster;
  in.topology = spec.topology;
  in.fd_ell = ds::autoconf::FamilySketchRows(
      "fd_merge", spec.cycle[0].working_eps, 0, spec.d);
  if (spec.zipf) {
    // Largest uplink of the scale-out cycle: a countsketch bucket matrix.
    ds::CountSketchCompressor cs(400, spec.d, args.seed);
    const Matrix& p = st.parts[0];
    for (size_t i = 0; i < p.rows(); ++i) cs.Absorb(i, p.Row(i));
    in.uplink = cs.compressed();
  } else {
    // Largest uplink of the d = 256 cycle: a server's d x d Gram.
    in.uplink = ds::Gram(st.parts[0]);
  }
  in.tenant = {.dim = spec.d, .eps = 0.1, .epoch_rows = 256};
  in.tenant_batches = Chunk(st.parts[0], kBatchRows);
  if (in.tenant_batches.size() > 64) in.tenant_batches.resize(64);
  in.goal.goal.eps = spec.cycle[0].working_eps;
  in.goal.shape = {.num_servers = spec.s, .dim = spec.d, .total_rows = spec.n};
  // Families of the cycle report their measured job time; the others
  // are replayed on this cluster.
  for (const SketchConfig& c : AllFamilies(spec.cycle, spec.d, spec.topology)) {
    bool in_cycle = false;
    for (size_t f = 0; f < spec.cycle.size(); ++f) {
      if (spec.cycle[f].family != c.family) continue;
      in_cycle = true;
      out.Set("dist.run_ms." + c.family, 1e3 * stats.family_p50_s[f], "ms");
    }
    if (!in_cycle) in.families.push_back(c);
  }
  in.store_dir = RunDir(args, "layer-store");
  in.seed = args.seed;
  MeasureLayers(in, out);

  ServiceReplay(st.parts, spec.d, args, ledger, tracer, out);
  out.Set("sketch.shrinks_per_op",
          static_cast<double>(shrinks) * spec.cycle.size() /
              std::max<size_t>(1, traced.jobs.size()),
          "count");
  out.Set("wire.bytes_per_word", stats.wire_bytes / stats.words, "B/word");
  out.Set("dist.messages_per_op", stats.messages, "count");
  out.Set("workload.generate_s", Median(generate_s), "s");
  out.Set("bench.trace_overhead_frac",
          traced_stats.cycle_p50_s / stats.cycle_p50_s - 1.0, "ratio");
  PrintSelfTimes(tracer);
  return true;
}

// -------------------------------------------------------------- service

struct ServiceSetup {
  Matrix rows;
  ServiceInputs in;
  std::string store_dir;
  std::optional<ds::SketchStore> store;
  ds::ServiceRunnerOptions options;
  std::unique_ptr<ServiceFlow> flow;
  ~ServiceSetup() {
    flow.reset();
    std::error_code ec;
    if (!store_dir.empty()) std::filesystem::remove_all(store_dir, ec);
  }
};

// Input generation, runner build over a fresh store, and kConfigure
// provisioning of every tenant. Null (message on stderr) on failure.
std::unique_ptr<ServiceSetup> SetUpService(const Args& args, int rep,
                                           Ledger& ledger, Tracer& tracer,
                                           double& generate_s) {
  const size_t tenants = args.smoke ? 16 : 256;
  const size_t pool = args.smoke ? 64 : 1024;
  const size_t dim = 32;
  auto st = std::make_unique<ServiceSetup>();
  const double t0 = NowS();
  st->rows = ds::GenerateLowRankPlusNoise(
      {.rows = pool * kBatchRows, .cols = dim, .rank = 8, .seed = args.seed});
  st->in.batches = Chunk(st->rows, kBatchRows);
  st->in.sequence = MakeSequence(tenants, pool, 1.0, kIngestsPerQuery, 1 << 17,
                                 ds::Rng::DeriveSeed(args.seed, 3));
  generate_s = NowS() - t0;
  for (size_t t = 0; t < tenants; ++t) {
    char name[32];
    std::snprintf(name, sizeof(name), "tenant-%03zu", t);
    st->in.tenants.push_back(name);
  }
  st->in.goal = TenantGoal(dim);
  st->store_dir = RunDir(args, "store") + "-" + std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(st->store_dir, ec);
  auto store = ds::SketchStore::Open(st->store_dir);
  if (!store.ok()) {
    std::fprintf(stderr, "store: %s\n", store.status().ToString().c_str());
    return nullptr;
  }
  st->store.emplace(std::move(*store));
  st->options = RunnerOptions(dim, tenants, args.smoke ? 12 : 192, &*st->store);
  auto flow = ServiceFlow::Create(st->in, st->options, ledger, tracer);
  if (!flow.ok()) {
    std::fprintf(stderr, "runner: %s\n", flow.status().ToString().c_str());
    return nullptr;
  }
  st->flow = std::move(*flow);
  if (ds::Status s = st->flow->Provision(); !s.ok()) {
    std::fprintf(stderr, "provision: %s\n", s.ToString().c_str());
    return nullptr;
  }
  return st;
}

bool RunService(const Args& args, Metrics& out, Ledger& ledger,
                Tracer& tracer) {
  std::unique_ptr<ServiceSetup> st;
  std::vector<double> setup_s, generate_s;
  Tracer off(false);
  const int reps = args.smoke ? 1 : 3;
  for (int rep = 0; rep < reps; ++rep) {
    st.reset();
    // Only the kept set-up's provisioning counts as attempted work.
    Ledger discarded;
    const double t0 = NowS();
    double gen = 0.0;
    st = SetUpService(args, rep, rep == reps - 1 ? ledger : discarded, off,
                      gen);
    if (!st) return false;
    setup_s.push_back(NowS() - t0);
    generate_s.push_back(gen);
  }
  ServiceFlow& flow = *st->flow;
  const size_t round = st->in.tenants.size();
  // The smoke run's 16 tenants get a proportionally smaller load.
  const double scale = args.smoke ? 1.0 / 8 : 1.0;
  const double offered = scale * kOfferedRowsPerS;
  const double span = args.trace ? args.seconds / 2 : args.seconds;
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(0.35 * span * scale * kReferenceRequestsPerS /
                             round));

  const CommMark before = MarkComm(flow.runner().log());
  const uint64_t first = flow.submitted();
  const ClosedResult closed = flow.RunClosed(rounds, round);
  const OpenResult open = flow.RunOpen(0.65 * span, offered);
  const CommMark after = MarkComm(flow.runner().log());
  const double requests = static_cast<double>(flow.submitted() - first);
  std::printf(
      "# service capacity %.0f rows/s; open loop %.0f rows/s: ingest p50 %.4f "
      "p99 %.4f ms (%zu), query p99 %.4f ms (%zu), late %.3f ms\n",
      closed.RowsPerS(), offered, Quantile(open.ingest_ms, 0.5),
      Quantile(open.ingest_ms, 0.99), open.ingest_ms.size(),
      Quantile(open.query_ms, 0.99), open.query_ms.size(), open.gen_late_ms);
  const double words = (after.words - before.words) / requests;
  const double wire_bytes = (after.wire_bytes - before.wire_bytes) / requests;

  if (!args.trace) {
    const double coverr_ratio = flow.CheckAll(args.inject_wrong);
    out.Set("setup_s", Median(setup_s), "s");
    out.Set("rows_per_s", closed.RowsPerS(), "rows/s");
    out.Set("op_p50_ms", Quantile(open.ingest_ms, 0.5), "ms");
    out.Set("words", words, "words/op");
    out.Set("wire_bytes", wire_bytes, "B/op");
    out.Set("coord_wire_bytes",
            (after.coord_wire_bytes - before.coord_wire_bytes) / requests,
            "B/op");
    out.Set("coverr_ratio", coverr_ratio, "ratio");
    out.Set("peak_rss_mb", PeakRssMb(), "MiB");
    return true;
  }

  // Traced half on the same service.
  flow.SetTracer(tracer);
  (void)flow.RunClosed(rounds, round);
  const OpenResult traced_open = flow.RunOpen(0.65 * span, offered);
  flow.SetTracer(off);
  const uint64_t shrinks = CountShrinks([&] { flow.RunRound(round); });
  flow.CheckAll(false);
  ReportServiceFlow(open, flow.runner(), flow.submitted(), out);
  MeasureHandleBatch(st->in, st->options, round, out);

  // Each tenant's rows for the replays: the pool batches b = t (mod T).
  std::vector<Matrix> parts(round, Matrix(0, st->rows.cols()));
  for (size_t b = 0; b < st->in.batches.size(); ++b) {
    parts[b % round].AppendRows(st->in.batches[b]);
  }
  auto cluster = ds::Cluster::Create(parts, st->in.goal.eps);
  if (!cluster.ok()) return false;
  LayerInputs in;
  in.full = &st->rows;
  in.parts = &parts;
  in.cluster = &*cluster;
  in.topology = ds::MergeTopologyOptions::Tree(8);
  in.fd_ell = ds::autoconf::FamilySketchRows("fd_merge", st->in.goal.eps, 0,
                                            st->rows.cols());
  in.uplink = st->in.batches[0];
  in.tenant = st->options.service.tenant;
  in.tenant_batches.assign(st->in.batches.begin(),
                           st->in.batches.begin() +
                               std::min<size_t>(64, st->in.batches.size()));
  in.goal.goal.eps = st->in.goal.eps;
  in.goal.shape = {.num_servers = 1,
                   .dim = st->rows.cols(),
                   .total_rows = st->in.goal.expected_rows};
  in.families = AllFamilies({}, st->rows.cols(), in.topology);
  in.store_dir = RunDir(args, "layer-store");
  in.seed = args.seed;
  MeasureLayers(in, out);

  out.Set("sketch.shrinks_per_op", static_cast<double>(shrinks) / round,
          "count");
  out.Set("wire.bytes_per_word", wire_bytes / words, "B/word");
  out.Set("dist.messages_per_op", (after.messages - before.messages) / requests,
          "count");
  out.Set("workload.generate_s", Median(generate_s), "s");
  out.Set("bench.trace_overhead_frac",
          Quantile(traced_open.ingest_ms, 0.5) / Quantile(open.ingest_ms, 0.5) -
              1.0,
          "ratio");
  PrintSelfTimes(tracer);
  return true;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "batch_d256", "scale_out_s1024", "service_mixed"};
  return names;
}

bool RunWorkload(const Args& args, Metrics& out, Ledger& ledger,
                 Tracer& tracer) {
  if (args.workload == "service_mixed") {
    return RunService(args, out, ledger, tracer);
  }
  return RunBatch(args, out, ledger, tracer);
}

}  // namespace sketchbench
