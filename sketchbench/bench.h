// Shared pieces of the benchmark program: command-line arguments, the
// metric table printed at exit, the correctness ledger, the in-memory
// span tracer, and small statistics helpers.
//
// The benchmark enters the system only through its front doors
// (autoconf::BuildProtocol + SketchProtocol::Run for batch jobs,
// ServiceRunner + the Encode*Request wire for the service); layer
// figures come from timing calls into each layer's public functions
// on the workload's own inputs (layers.cc).

#ifndef SKETCHBENCH_BENCH_H_
#define SKETCHBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"

namespace sketchbench {

using distsketch::Matrix;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny input sizes, for the self-test.
  bool smoke = false;
  /// Replace one answer with an empty sketch (self-test of the gate).
  bool inject_wrong = false;
  /// Directory (inside the checkout) for store dirs and trace files.
  std::string out_dir = ".bench_build";
};

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> v, double q);

/// Named metrics with units, printed in insertion order.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Every operation the run attempted, and every one that failed: shed
/// requests, typed errors, wrong answers and failed checks. A wrong
/// answer also makes the run exit non-zero.
class Ledger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why, bool wrong_answer);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool any_wrong() const { return wrong_ > 0; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_ = 0;
  std::vector<std::string> reasons_;
};

/// In-memory span recorder for the benchmark's own call boundaries.
/// Spans of one job or request share an op id; parents come from the
/// open-span stack of the single client thread. Inert when disabled.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    size_t index_ = 0;
  };

  bool enabled() const { return enabled_; }
  /// Records an already-timed span (e.g. a callback stamped inside
  /// Drain) as a child of the innermost open span.
  void Add(const char* name, uint64_t op, uint64_t start_ns,
           uint64_t end_ns);
  /// Self time per span name: duration minus the part covered by child
  /// spans, summed over all spans of that name (milliseconds).
  std::vector<std::pair<std::string, double>> SelfTimeMs() const;
  /// Writes every span through the telemetry chrome-trace exporter.
  bool WriteChromeTrace(const std::string& path) const;
  static uint64_t NowNs();

 private:
  struct Rec {
    const char* name;
    uint64_t op;
    int64_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  bool enabled_;
  std::vector<Rec> spans_;
  std::vector<size_t> open_;
};

/// ||G - B^T B||_2 for a symmetric d-by-d Gram G (exact eigensolve).
double CoverrFromGram(const Matrix& gram, const Matrix& sketch);

/// Byte digest of a matrix (shape + entries), to share one correctness
/// verdict between identical answers.
uint64_t MatrixDigest(const Matrix& m);

}  // namespace sketchbench

#endif  // SKETCHBENCH_BENCH_H_
