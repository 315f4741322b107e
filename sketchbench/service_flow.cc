#include "service_flow.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.h"
#include "linalg/blas.h"

namespace sketchbench {

using distsketch::ServiceResponse;
using distsketch::Status;
using distsketch::StatusCode;

std::vector<Slot> MakeSequence(size_t tenants, size_t batches, double alpha,
                               size_t ingests_per_query, size_t length,
                               uint64_t seed) {
  std::vector<double> cdf(tenants);
  double acc = 0.0;
  for (size_t t = 0; t < tenants; ++t) {
    acc += std::pow(static_cast<double>(t + 1), -alpha);
    cdf[t] = acc;
  }
  distsketch::Rng rng(seed);
  std::vector<Slot> seq(length);
  for (size_t i = 0; i < length; ++i) {
    const double u = rng.NextDouble() * acc;
    const size_t t = std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        tenants - 1);
    seq[i].tenant = static_cast<uint32_t>(t);
    seq[i].query = (i % (ingests_per_query + 1)) == ingests_per_query;
    seq[i].batch = static_cast<uint32_t>(rng.NextUint64Below(batches));
  }
  return seq;
}

CommMark MarkComm(const distsketch::CommLog& log) {
  const distsketch::CommStats s = log.Stats();
  CommMark m;
  m.words = s.total_words;
  m.wire_bytes = s.total_wire_bytes + s.control_wire_bytes;
  m.coord_wire_bytes = log.WireBytesReceivedBy(distsketch::kCoordinator);
  m.messages = s.num_messages + s.num_control_messages;
  return m;
}

distsketch::StatusOr<std::unique_ptr<ServiceFlow>> ServiceFlow::Create(
    const ServiceInputs& inputs,
    const distsketch::ServiceRunnerOptions& options, Ledger& ledger,
    Tracer& tracer) {
  auto runner = distsketch::ServiceRunner::Create(options);
  if (!runner.ok()) return runner.status();
  std::unique_ptr<ServiceFlow> flow(new ServiceFlow(inputs, ledger, tracer));
  flow->runner_ = std::move(*runner);
  flow->expected_rows_.assign(inputs.tenants.size(), 0);
  flow->working_eps_.assign(inputs.tenants.size(), inputs.goal.eps);
  flow->max_resident_ = std::max<size_t>(1, options.service.max_resident);
  return flow;
}

Status ServiceFlow::Provision() {
  std::vector<ServiceResponse> answers(in_.tenants.size());
  std::vector<bool> answered(in_.tenants.size(), false);
  for (size_t t = 0; t < in_.tenants.size(); ++t) {
    ledger_.Attempt();
    Status st = runner_->SubmitConfigure(
        static_cast<int>(t), in_.tenants[t], in_.goal,
        [&answers, &answered, t](const ServiceResponse& r) {
          answers[t] = r;
          answered[t] = true;
        });
    if (!st.ok()) return st;
  }
  runner_->Drain();
  for (size_t t = 0; t < in_.tenants.size(); ++t) {
    const ServiceResponse& r = answers[t];
    if (!answered[t] || r.code != StatusCode::kOk || !r.config.present ||
        r.config.family != "fd_merge") {
      ledger_.Fail("kConfigure failed for " + in_.tenants[t], false);
      continue;
    }
    working_eps_[t] = r.config.working_eps;
  }
  return Status::OK();
}

uint64_t ServiceFlow::SubmitNext(double due_s) {
  const size_t pos = next_ % in_.sequence.size();
  ++next_;
  const Slot& slot = in_.sequence[pos];
  const size_t id = records_.size();
  records_.emplace_back();
  Record& rec = records_.back();
  rec.slot = static_cast<uint32_t>(pos);
  rec.due_s = due_s;
  const uint64_t rows = slot.query ? 0 : in_.batches[slot.batch].rows();
  rec.expected_rows = expected_rows_[slot.tenant] + rows;
  ledger_.Attempt();

  auto cb = [this, id](const ServiceResponse& resp) {
    const uint64_t t0 = tracer_->enabled() ? Tracer::NowNs() : 0;
    Record& r = records_[id];
    r.answered = true;
    r.code = resp.code;
    r.rows = resp.rows_ingested;
    r.drain_start_s = drain_start_s_;
    r.done_s = NowS();
    if (tracer_->enabled()) tracer_->Add("callback", id, t0, Tracer::NowNs());
  };
  const int client = static_cast<int>(slot.tenant);
  const std::string& tenant = in_.tenants[slot.tenant];
  Status st;
  {
    Tracer::Scope span(*tracer_, "submit", id);
    st = slot.query
             ? runner_->Submit(client, distsketch::EncodeQueryRequest(tenant),
                               cb)
             : runner_->SubmitIngest(client, tenant, in_.batches[slot.batch],
                                     cb);
  }
  if (!st.ok()) {
    // Shed at the channel: no callback will fire.
    rec.answered = true;
    rec.code = st.code();
    return 0;
  }
  expected_rows_[slot.tenant] += rows;
  return rows;
}

void ServiceFlow::DrainNow() {
  drain_start_s_ = NowS();
  Tracer::Scope span(*tracer_, "drain", 0);
  runner_->Drain();
}

uint64_t ServiceFlow::RunRound(size_t round) {
  uint64_t rows = 0;
  for (size_t i = 0; i < round; ++i) rows += SubmitNext(NowS());
  DrainNow();
  return rows;
}

ClosedResult ServiceFlow::RunClosed(size_t rounds, size_t round) {
  ClosedResult out;
  const double t0 = NowS();
  for (size_t r = 0; r < rounds; ++r) out.rows += RunRound(round);
  out.seconds = NowS() - t0;
  return out;
}

OpenResult ServiceFlow::RunOpen(double seconds, double rows_per_s) {
  double rows_per_slot = 0.0;
  for (const Slot& s : in_.sequence) {
    if (!s.query) rows_per_slot += in_.batches[s.batch].rows();
  }
  rows_per_slot /= static_cast<double>(in_.sequence.size());
  const double interval = rows_per_slot / rows_per_s;

  OpenResult out;
  const size_t first = records_.size();
  const double t0 = NowS();
  uint64_t k = 0;
  for (;;) {
    const double now = NowS();
    if (now - t0 >= seconds) break;
    bool any = false;
    while (t0 + static_cast<double>(k) * interval <= now) {
      const double due = t0 + static_cast<double>(k) * interval;
      out.gen_late_ms = std::max(out.gen_late_ms, (NowS() - due) * 1e3);
      SubmitNext(due);
      ++k;
      any = true;
    }
    if (any) {
      DrainNow();
      ++out.drains;
      continue;
    }
    const double wait = t0 + static_cast<double>(k) * interval - NowS();
    if (wait > 300e-6) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(wait - 150e-6));
    }
  }
  DrainNow();
  ++out.drains;
  out.seconds = NowS() - t0;
  out.requests = records_.size() - first;
  for (size_t i = first; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (!r.answered || r.code != StatusCode::kOk) continue;
    const double lat = (r.done_s - r.due_s) * 1e3;
    (in_.sequence[r.slot].query ? out.query_ms : out.ingest_ms).push_back(lat);
    out.wait_ms.push_back((r.drain_start_s - r.due_s) * 1e3);
  }
  return out;
}

double ServiceFlow::CheckAll(bool inject_wrong) {
  const size_t tenants = in_.tenants.size();
  // Every response: typed code, and rows_ingested against our count.
  std::vector<std::vector<uint32_t>> accepted(tenants);
  for (const Record& r : records_) {
    const Slot& slot = in_.sequence[r.slot];
    if (!r.answered) {
      ledger_.Fail("request never answered", true);
      continue;
    }
    if (r.code != StatusCode::kOk) {
      ledger_.Fail(std::string("request answered ") +
                       std::string(distsketch::StatusCodeToString(r.code)),
                   false);
      continue;
    }
    if (r.rows != r.expected_rows) {
      ledger_.Fail("rows_ingested " + std::to_string(r.rows) + " != " +
                       std::to_string(r.expected_rows) + " for " +
                       in_.tenants[slot.tenant],
                   true);
      continue;
    }
    if (!slot.query) accepted[slot.tenant].push_back(slot.batch);
  }

  // Final sketches, queried through the front door in batches that fit
  // the residency cap.
  std::vector<ServiceResponse> finals(tenants);
  std::vector<bool> answered(tenants, false);
  for (size_t t = 0; t < tenants; ++t) {
    ledger_.Attempt();
    Status st = runner_->Submit(
        static_cast<int>(t), distsketch::EncodeQueryRequest(in_.tenants[t]),
        [&finals, &answered, t](const ServiceResponse& r) {
          finals[t] = r;
          answered[t] = true;
        });
    if (!st.ok()) ledger_.Fail("final query shed", false);
    if ((t + 1) % max_resident_ == 0) runner_->Drain();
  }
  runner_->Drain();

  const size_t d = in_.goal.dim;
  std::vector<Matrix> batch_gram(in_.batches.size());
  double worst = 0.0;
  size_t hottest = 0;
  for (size_t t = 0; t < tenants; ++t) {
    if (accepted[t].size() > accepted[hottest].size()) hottest = t;
  }
  for (size_t t = 0; t < tenants; ++t) {
    if (!answered[t]) continue;
    if (finals[t].code != StatusCode::kOk) {
      ledger_.Fail("final query failed for " + in_.tenants[t], false);
      continue;
    }
    if (finals[t].rows_ingested != expected_rows_[t]) {
      ledger_.Fail("final rows_ingested mismatch for " + in_.tenants[t],
                   true);
      continue;
    }
    Matrix gram(d, d);
    for (uint32_t b : accepted[t]) {
      if (batch_gram[b].empty()) {
        batch_gram[b] = distsketch::Gram(in_.batches[b]);
      }
      for (size_t i = 0; i < gram.size(); ++i) {
        gram.data()[i] += batch_gram[b].data()[i];
      }
    }
    double mass = 0.0;
    for (size_t i = 0; i < d; ++i) mass += gram(i, i);
    if (mass <= 0.0) continue;
    Matrix sketch = finals[t].sketch;
    if (inject_wrong && t == hottest) sketch = Matrix();
    const double bound = working_eps_[t] * mass;
    const double coverr = CoverrFromGram(gram, sketch);
    worst = std::max(worst, coverr / bound);
    if (!(coverr <= bound * (1.0 + 1e-9))) {
      ledger_.Fail("tenant " + in_.tenants[t] + " coverr above FD bound",
                   true);
    }
  }
  return worst;
}

}  // namespace sketchbench
