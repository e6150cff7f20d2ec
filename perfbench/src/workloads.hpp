#pragma once

// The benchmark's workloads. Each drives the library from outside,
// through the public entry points of its modules, and splits its work
// into a repeatable set-up step and a timed pass; checks run between
// passes, outside the timed section.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// `tiny` shrinks every input so the smoke test runs in seconds.
enum class Size { Full, Tiny };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::Full;
  std::string out_dir = ".";  ///< the capture file and the span file go here
};

/// Metric values by name; the catalog in main.cpp fixes names and units.
using Values = std::map<std::string, double, std::less<>>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Set-ups measured before the first pass.
  [[nodiscard]] virtual int setup_repeats() const = 0;
  /// Whether each pass consumes the state set-up builds.
  [[nodiscard]] virtual bool setup_each_pass() const = 0;

  /// Releases the previous set-up's state, then builds the state for the
  /// next pass; returns the host seconds of the build alone.
  [[nodiscard]] virtual double setup() = 0;
  virtual void pass(Tracer& tracer) = 0;

  /// Checks the last pass's outputs against invariants every correct
  /// version meets. Prints each failure to stderr; returns false on any.
  [[nodiscard]] virtual bool check() = 0;

  /// Deterministic simulated-time metrics of the last pass.
  virtual void end_to_end(Values& out) const = 0;

  /// Per-layer metrics: span times over the traced runs, the last pass's
  /// counters, and per-call timings taken here, after the passes.
  virtual void per_layer(Values& out, const Tracer& tracer, const std::vector<int>& runs) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opts);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Median of a non-empty sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> xs);

/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> xs, double q);

}  // namespace perfbench
