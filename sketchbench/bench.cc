#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace_export.h"
#include "wire/checksum.h"

namespace sketchbench {

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.value = value;
      e.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

void Ledger::Fail(const std::string& why, bool wrong_answer) {
  ++failed_;
  if (wrong_answer) ++wrong_;
  if (reasons_.size() < 16) reasons_.push_back(why);
}

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, uint64_t op) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  index_ = tracer.spans_.size();
  const int64_t parent =
      tracer.open_.empty() ? -1 : static_cast<int64_t>(tracer.open_.back());
  tracer.spans_.push_back({name, op, parent, NowNs(), 0});
  tracer.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

void Tracer::Add(const char* name, uint64_t op, uint64_t start_ns,
                 uint64_t end_ns) {
  if (!enabled_) return;
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({name, op, parent, start_ns, end_ns});
}

std::vector<std::pair<std::string, double>> Tracer::SelfTimeMs() const {
  // Children of one parent run one after another on the client thread,
  // so their durations never overlap and subtract directly.
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Rec& r : spans_) {
    if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    const uint64_t own = dur > child_ns[i] ? dur - child_ns[i] : 0;
    self[spans_[i].name] += static_cast<double>(own) * 1e-6;
  }
  return {self.begin(), self.end()};
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  distsketch::telemetry::Telemetry telem;
  for (const Rec& r : spans_) {
    distsketch::telemetry::SpanRecord rec;
    rec.name = r.name;
    rec.start_ns = r.start_ns;
    rec.end_ns = r.end_ns;
    rec.phase_root = r.parent < 0;
    rec.attrs.push_back({"op", std::to_string(r.op), false});
    rec.attrs.push_back({"parent", std::to_string(r.parent), false});
    telem.RecordSpan(std::move(rec));
  }
  return distsketch::telemetry::WriteChromeTrace(telem, path);
}

double CoverrFromGram(const Matrix& gram, const Matrix& sketch) {
  Matrix diff = gram;
  if (!sketch.empty()) {
    const Matrix sg = distsketch::Gram(sketch);
    for (size_t i = 0; i < diff.size(); ++i) diff.data()[i] -= sg.data()[i];
  }
  auto eig = distsketch::ComputeSymmetricEigen(diff);
  if (!eig.ok()) return INFINITY;
  double worst = 0.0;
  for (double l : eig->eigenvalues) worst = std::max(worst, std::abs(l));
  return worst;
}

uint64_t MatrixDigest(const Matrix& m) {
  const uint64_t shape[2] = {m.rows(), m.cols()};
  uint64_t h = distsketch::Checksum64(
      reinterpret_cast<const uint8_t*>(shape), sizeof(shape));
  return distsketch::Checksum64(
      reinterpret_cast<const uint8_t*>(m.data()), m.size() * sizeof(double),
      h);
}

}  // namespace sketchbench
