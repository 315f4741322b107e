#ifndef DISTSKETCH_AUTOCONF_SOLVER_H_
#define DISTSKETCH_AUTOCONF_SOLVER_H_

#include <cstdint>

#include "autoconf/config_plan.h"
#include "autoconf/error_predictor.h"
#include "common/status.h"
#include "dist/sketch_goal.h"

namespace distsketch {
namespace autoconf {

/// Input to the constraint solver: what the caller wants (goal), what
/// they can afford (budget), and the instance it runs against (shape).
struct AutoConfRequest {
  SketchGoal goal;
  Budget budget;
  InstanceShape shape;
  uint64_t seed = 42;
  /// When true the solver may relax working_eps above goal.eps wherever
  /// the calibrated predictor certifies the measured error still meets
  /// the goal (the SketchConf trade: cheaper configs on benign spectra).
  /// When false — or with no predictor — only analytic bounds count.
  bool trust_calibration = true;
};

/// Solves goal x budget -> ranked sketch configurations. This is the one
/// protocol chooser: "the cheapest protocol for an instance" is a solve
/// with an unconstrained Budget and trust_calibration = false, built
/// with BuildProtocol(plan.best().config, seed).
///
/// The search space is protocol family x working_eps x sampling function
/// x quantization x merge topology, priced through the protocol_planner
/// cost oracle (Table 1 word formulas, topology inbound/critical-path
/// model) and the calibrated error predictor. A pure single-threaded
/// function of its inputs: the returned plan (and PlanSummary) is
/// byte-identical at any DS_THREADS. With telemetry enabled the decision
/// is recorded in a "planner/plan" span (instance, cheapest words per
/// family, winner, rationale) and the planner.plans /
/// planner.pick.<family> counters.
///
/// Errors: InvalidArgument for malformed inputs; FailedPrecondition when
/// the goal itself is unsatisfiable by any family (e.g. a deterministic
/// guarantee over an arbitrary partition). An *infeasible budget* is not
/// an error: the plan comes back with feasible() == false and the ranked
/// candidates show how far each config overshoots (headroom < 1).
StatusOr<ConfigPlan> SolveSketchConfig(const AutoConfRequest& request,
                                       const ErrorPredictor* predictor);

}  // namespace autoconf
}  // namespace distsketch

#endif  // DISTSKETCH_AUTOCONF_SOLVER_H_
