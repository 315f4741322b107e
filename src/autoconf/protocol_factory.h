#ifndef DISTSKETCH_AUTOCONF_PROTOCOL_FACTORY_H_
#define DISTSKETCH_AUTOCONF_PROTOCOL_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "autoconf/config_plan.h"
#include "common/status.h"
#include "dist/protocol.h"
#include "dist/protocol_planner.h"

namespace distsketch {
namespace autoconf {

/// Turns a solved SketchConfig into a runnable protocol — the executable
/// half of the plan's machine-checkable rationale: tests and the
/// calibration sweep run exactly what the solver priced. Rejects
/// unknown families and invalid combinations (quantization off the
/// fd_merge star) with InvalidArgument.
StatusOr<std::unique_ptr<SketchProtocol>> BuildProtocol(
    const SketchConfig& config, uint64_t seed);

/// The l knob of Table 1 the solver reports in SketchConfig::sketch_rows
/// (defined beside the cost oracle that prices it).
using ::distsketch::FamilySketchRows;

/// The calibration/predictor key of a configuration: the family plus the
/// knobs that change its measured behaviour ("fd_merge_q" for the
/// quantized wire, "svs_linear" / "svs_quadratic" for the Thm 5 / Thm 6
/// sampling functions).
std::string FamilyKey(const SketchConfig& config);

}  // namespace autoconf
}  // namespace distsketch

#endif  // DISTSKETCH_AUTOCONF_PROTOCOL_FACTORY_H_
