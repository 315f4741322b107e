// Drives a ServiceRunner from the single client thread: kConfigure
// provisioning, a closed loop (rounds of submits, then Drain) and an
// open loop at a fixed offered rate. The runner is always driven through
// Drain(); loop mode (StartLoop + Process) is avoided because its channel
// thread and Process() both append to the runner's unlocked CommLog.
//
// Every response is checked after the timed region: its code, and its
// rows_ingested against the benchmark's own per-tenant count. Final tenant
// sketches are checked against the FD bound at the working eps each
// tenant's ConfigSummary echoed, using Grams of exactly the batches the
// service had accepted.

#ifndef SKETCHBENCH_SERVICE_FLOW_H_
#define SKETCHBENCH_SERVICE_FLOW_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "dist/comm_log.h"
#include "service/service_runner.h"

namespace sketchbench {

/// One request of the pre-generated sequence.
struct Slot {
  bool query = false;
  uint32_t tenant = 0;
  uint32_t batch = 0;
};

/// Everything the service sees, generated in setup.
struct ServiceInputs {
  std::vector<std::string> tenants;
  /// Pool of ingest batches; Slot::batch indexes it.
  std::vector<Matrix> batches;
  /// Replayed cyclically.
  std::vector<Slot> sequence;
  /// kConfigure goal sent for every tenant.
  distsketch::ConfigureParams goal;
};

/// Tenant popularity: Zipf(alpha) over tenant ids (alpha = 0 is uniform);
/// one query after every `ingests_per_query` ingests.
std::vector<Slot> MakeSequence(size_t tenants, size_t batches, double alpha,
                               size_t ingests_per_query, size_t length,
                               uint64_t seed);

/// Communication totals at one point of a run.
struct CommMark {
  uint64_t words = 0;
  uint64_t wire_bytes = 0;
  uint64_t coord_wire_bytes = 0;
  uint64_t messages = 0;
};
CommMark MarkComm(const distsketch::CommLog& log);

struct ClosedResult {
  double seconds = 0.0;
  uint64_t rows = 0;
  double RowsPerS() const { return seconds > 0 ? rows / seconds : 0.0; }
};

struct OpenResult {
  double seconds = 0.0;
  uint64_t requests = 0;
  uint64_t drains = 0;
  /// Due time -> callback, per request kind.
  std::vector<double> ingest_ms;
  std::vector<double> query_ms;
  /// Due time -> start of the Drain that answered the request.
  std::vector<double> wait_ms;
  /// Largest gap between a request's due time and its submission.
  double gen_late_ms = 0.0;
};

class ServiceFlow {
 public:
  static distsketch::StatusOr<std::unique_ptr<ServiceFlow>> Create(
      const ServiceInputs& inputs,
      const distsketch::ServiceRunnerOptions& options, Ledger& ledger,
      Tracer& tracer);
  ServiceFlow(const ServiceFlow&) = delete;
  ServiceFlow& operator=(const ServiceFlow&) = delete;

  /// Provisions every tenant through kConfigure; records each tenant's
  /// echoed working eps.
  distsketch::Status Provision();
  /// Closed loop: `rounds` rounds of `round` submits, each then Drain.
  ClosedResult RunClosed(size_t rounds, size_t round);
  /// One closed round: `round` submits, then Drain. Returns rows sent.
  uint64_t RunRound(size_t round);
  /// Open loop at `rows_per_s` offered ingest rows (queries ride along
  /// in sequence order), for `seconds`, then drains the backlog.
  OpenResult RunOpen(double seconds, double rows_per_s);
  /// Checks every recorded response, then queries every tenant and
  /// checks its sketch. Returns the worst coverr / bound over tenants.
  double CheckAll(bool inject_wrong);

  /// Spans of later calls go to `tracer`.
  void SetTracer(Tracer& tracer) { tracer_ = &tracer; }
  distsketch::ServiceRunner& runner() { return *runner_; }
  uint64_t submitted() const { return records_.size(); }

 private:
  struct Record {
    uint32_t slot = 0;
    uint64_t expected_rows = 0;
    double due_s = 0.0;
    double drain_start_s = 0.0;
    double done_s = 0.0;
    bool answered = false;
    distsketch::StatusCode code = distsketch::StatusCode::kOk;
    uint64_t rows = 0;
  };
  ServiceFlow(const ServiceInputs& inputs, Ledger& ledger, Tracer& tracer)
      : in_(inputs), ledger_(ledger), tracer_(&tracer) {}
  /// Submits the next slot of the sequence, due at `due_s`. Returns the
  /// rows it carries (0 for a query or a shed request).
  uint64_t SubmitNext(double due_s);
  void DrainNow();

  const ServiceInputs& in_;
  Ledger& ledger_;
  Tracer* tracer_;
  std::unique_ptr<distsketch::ServiceRunner> runner_;
  size_t next_ = 0;
  double drain_start_s_ = 0.0;
  std::vector<uint64_t> expected_rows_;
  std::vector<double> working_eps_;
  /// Residency cap: one HandleBatch can only hold this many tenants live.
  size_t max_resident_ = 1;
  /// Requests in submission order; deque keeps callback references valid.
  std::deque<Record> records_;
};

}  // namespace sketchbench

#endif  // SKETCHBENCH_SERVICE_FLOW_H_
