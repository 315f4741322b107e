#ifndef DISTSKETCH_COMMON_SKETCH_SIZE_H_
#define DISTSKETCH_COMMON_SKETCH_SIZE_H_

#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"

namespace distsketch {

/// Ceiling on a sketch size (FD rows, CountSketch buckets, samples)
/// computed from an accuracy formula such as 1/eps or 4/eps^2. It admits
/// every size the tests, benches and experiments use (a few 10^4 at
/// most) and keeps the size cast and the rows-by-d allocation defined.
inline constexpr size_t kMaxSketchRows = size_t{1} << 24;

/// ceil(value) as a size; InvalidArgument if `value` is NaN, infinite,
/// negative or above kMaxSketchRows. `what` names it in the error.
inline StatusOr<size_t> SizeFromReal(double value, std::string_view what) {
  const double rounded = std::ceil(value);
  if (!(rounded >= 0.0 && rounded <= static_cast<double>(kMaxSketchRows))) {
    return Status::InvalidArgument(std::string(what) + " = " +
                                   std::to_string(value) +
                                   " is not a sketch size <= 2^24");
  }
  return static_cast<size_t>(rounded);
}

}  // namespace distsketch

#endif  // DISTSKETCH_COMMON_SKETCH_SIZE_H_
