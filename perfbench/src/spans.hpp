#pragma once

// Host-clock spans recorded by the benchmark around its calls into each
// library layer. Nothing here reaches into src/: the spans sit at the
// layer boundaries the benchmark drives from outside.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Host monotonic time in nanoseconds. The benchmark's only clock read.
[[nodiscard]] std::int64_t now_ns();

[[nodiscard]] inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a pass's root
  int run = 0;      ///< the traced pass this span belongs to
};

/// In-memory span recorder. A disabled tracer records nothing and reads
/// no clock, so untraced passes pay only a null check per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Starts a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int begin(std::string_view name);
  void end(int index);

  /// Starts a new traced pass: later root spans carry the next run id.
  void next_run() noexcept { ++run_; }
  [[nodiscard]] int run() const noexcept { return run_; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration minus the time covered by the span's direct children.
  [[nodiscard]] double self_seconds(std::size_t index) const;

  /// Sum over the spans named `name` in run `run` of their durations.
  [[nodiscard]] double total_seconds(std::string_view name, int run) const;

  /// Number of spans named `name` in run `run`.
  [[nodiscard]] std::size_t count(std::string_view name, int run) const;

  /// Writes every span as a Chrome trace-event `X` row (µs timestamps
  /// relative to the first span), loadable in Perfetto. Returns false when
  /// the file cannot be written.
  [[nodiscard]] bool write_chrome_trace(const std::string& path, std::string_view process) const;

 private:
  bool enabled_;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name) : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(index_); }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Scope(Scope&&) = delete;
  Scope& operator=(Scope&&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
