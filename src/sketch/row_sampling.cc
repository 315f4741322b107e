#include "sketch/row_sampling.h"

#include <cmath>

#include "linalg/blas.h"

namespace distsketch {

RowSamplingSketch::RowSamplingSketch(size_t dim, size_t num_samples,
                                     uint64_t seed)
    : dim_(dim),
      num_samples_(num_samples),
      rng_(seed),
      reservoir_(num_samples),
      reservoir_weight_(num_samples, 0.0) {
  DS_CHECK(dim >= 1);
  DS_CHECK(num_samples >= 1);
}

StatusOr<RowSamplingSketch> RowSamplingSketch::FromEps(size_t dim, double eps,
                                                       uint64_t seed,
                                                       double oversample) {
  if (!(eps > 0.0) || !(oversample > 0.0)) {  // also rejects NaN
    return Status::InvalidArgument("FromEps: eps and oversample must be > 0");
  }
  const size_t t =
      static_cast<size_t>(std::ceil(oversample / (eps * eps)));
  return RowSamplingSketch(dim, std::max<size_t>(t, 1), seed);
}

StatusOr<RowSamplingSketch> RowSamplingSketch::FromState(
    const RowSamplingState& state) {
  if (state.dim < 1 || state.num_samples < 1) {
    return Status::InvalidArgument(
        "RowSamplingSketch::FromState: dim and num_samples must be >= 1");
  }
  if (state.reservoir.rows() != state.num_samples ||
      state.reservoir.cols() != state.dim) {
    return Status::InvalidArgument(
        "RowSamplingSketch::FromState: reservoir matrix shape mismatch");
  }
  if (state.present.size() != state.num_samples ||
      state.weights.size() != state.num_samples) {
    return Status::InvalidArgument(
        "RowSamplingSketch::FromState: present/weights size mismatch");
  }
  RowSamplingSketch sketch(state.dim, state.num_samples, 0);
  sketch.rng_ = Rng::FromState(state.rng);
  for (size_t r = 0; r < state.num_samples; ++r) {
    if (state.present[r] != 0) {
      const auto row = state.reservoir.Row(r);
      sketch.reservoir_[r].assign(row.begin(), row.end());
      sketch.reservoir_weight_[r] = state.weights[r];
    }
  }
  sketch.total_mass_ = state.total_mass;
  return sketch;
}

RowSamplingState RowSamplingSketch::ExportState() const {
  RowSamplingState state;
  state.dim = dim_;
  state.num_samples = num_samples_;
  state.rng = rng_.SaveState();
  state.reservoir.SetZero(num_samples_, dim_);
  state.present.assign(num_samples_, 0);
  state.weights.assign(num_samples_, 0.0);
  for (size_t r = 0; r < num_samples_; ++r) {
    if (reservoir_[r].empty()) continue;
    state.present[r] = 1;
    state.weights[r] = reservoir_weight_[r];
    double* dst = state.reservoir.data() + r * dim_;
    for (size_t j = 0; j < dim_; ++j) dst[j] = reservoir_[r][j];
  }
  state.total_mass = total_mass_;
  return state;
}

void RowSamplingSketch::Append(std::span<const double> row) {
  DS_CHECK(row.size() == dim_);
  const double w = SquaredNorm2(row);
  if (w == 0.0) return;
  total_mass_ += w;
  const double replace_prob = w / total_mass_;
  for (size_t r = 0; r < num_samples_; ++r) {
    if (rng_.NextBernoulli(replace_prob)) {
      reservoir_[r].assign(row.begin(), row.end());
      reservoir_weight_[r] = w;
    }
  }
}

void RowSamplingSketch::AppendRows(const Matrix& rows) {
  for (size_t i = 0; i < rows.rows(); ++i) Append(rows.Row(i));
}

Matrix RowSamplingSketch::Sketch() const {
  Matrix out(0, dim_);
  if (total_mass_ == 0.0) return out;
  std::vector<double> scaled(dim_);
  for (size_t r = 0; r < num_samples_; ++r) {
    if (reservoir_[r].empty()) continue;
    // p_i = w_i / ||A||_F^2; rescale by 1/sqrt(t * p_i).
    const double p = reservoir_weight_[r] / total_mass_;
    const double scale =
        1.0 / std::sqrt(static_cast<double>(num_samples_) * p);
    for (size_t j = 0; j < dim_; ++j) scaled[j] = scale * reservoir_[r][j];
    out.AppendRow(scaled);
  }
  return out;
}

}  // namespace distsketch
