#pragma once

// Shared plumbing for the reproduction benches: every bench runs one or
// more kernels at Class A under the paper noise profile and prints the
// rows/series of the corresponding paper table or figure.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "bench/cli.hpp"
#include "common/error.hpp"
#include "core/evaluate.hpp"
#include "engine/engine.hpp"
#include "engine/registry.hpp"
#include "ingest/source.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "mpi/world.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace mpipred::bench {

struct TracedRun {
  std::unique_ptr<mpi::World> world;
  apps::AppOutcome outcome;
};

/// Runs `app` with `procs` ranks at the given class under the paper's
/// simulated-machine profile and returns the world (with traces) plus the
/// outcome. Seed fixed by default for reproducible bench output.
inline TracedRun run_traced(const std::string& app, int procs,
                            apps::ProblemClass cls = apps::ProblemClass::A,
                            std::uint64_t seed = 2003) {
  TracedRun run;
  run.world = std::make_unique<mpi::World>(procs, apps::paper_world_config(seed));
  run.outcome = apps::find_app(app).run(*run.world, apps::AppConfig{.problem_class = cls});
  return run;
}

inline double pct(double x) { return 100.0 * x; }

/// Per-(app, procs) cell of Figures 3/4, routed through the prediction
/// engine: the representative process's arrivals are demultiplexed and
/// scored by an engine pass (identical to a hand-wired per-rank
/// evaluation; feeding only that receiver's events keeps the cost at the
/// old single-rank level).
inline core::StreamEvaluation evaluate_level(mpi::World& world, trace::Level level,
                                             const std::string& predictor = "dpd",
                                             const engine::PredictorOptions& options = {}) {
  const int rep = trace::representative_rank(world.traces(), level);
  engine::PredictionEngine eng(engine::EngineConfig{.predictor = predictor, .options = options});
  eng.observe_all(engine::events_from_rank(world.traces(), rep, level));
  for (const auto& stream : eng.report().streams) {
    if (stream.key.destination == rep) {
      return {.senders = stream.senders, .sizes = stream.sizes};
    }
  }
  // Empty stream (nothing received at this level): zeroed rows, printable
  // like any other report.
  core::StreamEvaluation zero;
  zero.senders.horizons.resize(options.horizon);
  zero.sizes.horizons.resize(options.horizon);
  return zero;
}

/// `--predictor` / `--list-predictors` handling for bench mains without
/// positionals: the registry-level helper performs the listing/error
/// exits, and any leftover argument is rejected here (a typoed flag must
/// not silently run the default).
inline std::string predictor_flag(int argc, char** argv, std::string fallback = "dpd") {
  const auto arg = engine::predictor_arg_or_exit(argc, argv, std::move(fallback));
  reject_arguments(arg.rest);
  return arg.name;
}

/// Consumes every `<flag> <value>` / `<flag>=<value>` occurrence from
/// `rest` and returns the last value, or `fallback` when the flag is absent.
/// Exits on a missing or empty value (a dangling `--trace` or an unset
/// shell variable in `--trace=$FILE` must not silently run the default).
inline std::string string_flag(std::vector<std::string>& rest, const std::string& flag,
                               std::string fallback = {}) {
  std::string value = std::move(fallback);
  const auto take = [&](std::string v) {
    if (v.empty()) {
      std::fprintf(stderr, "%s requires a non-empty value\n", flag.c_str());
      std::exit(1);
    }
    value = std::move(v);
  };
  for (auto it = rest.begin(); it != rest.end();) {
    if (*it == flag) {
      if (std::next(it) == rest.end()) {
        std::fprintf(stderr, "%s requires a value\n", flag.c_str());
        std::exit(1);
      }
      take(*std::next(it));
      it = rest.erase(it, std::next(it, 2));
    } else if (it->starts_with(flag + "=")) {
      take(it->substr(flag.size() + 1));
      it = rest.erase(it);
    } else {
      ++it;
    }
  }
  return value;
}

/// Consumes every `<flag> <n>` / `<flag>=<n>` occurrence from `rest` (the
/// unparsed remainder of parse_predictor_arg) and returns the last value,
/// or nullopt when the flag is absent (tools use this to reject flags that
/// only make sense in some modes instead of silently ignoring them). Exits
/// on a missing or malformed number, so a typo can never silently run the
/// default.
inline std::optional<std::size_t> opt_size_flag(std::vector<std::string>& rest,
                                                const std::string& flag) {
  const std::string text = string_flag(rest, flag);
  if (text.empty()) {
    return std::nullopt;
  }
  const auto value = parse_int<std::size_t>(text);
  if (!value) {
    std::fprintf(stderr, "%s requires a non-negative integer, got '%s'\n", flag.c_str(),
                 text.c_str());
    std::exit(1);
  }
  return value;
}

/// opt_size_flag with a `fallback` for an absent flag.
inline std::size_t size_flag(std::vector<std::string>& rest, const std::string& flag,
                             std::size_t fallback) {
  return opt_size_flag(rest, flag).value_or(fallback);
}

/// Shared `--shards <n>` handling: engine shard count, 0 = one shard per
/// hardware thread (the engine default).
inline std::size_t shards_flag(std::vector<std::string>& rest, std::size_t fallback = 0) {
  return size_flag(rest, "--shards", fallback);
}

/// The shard counts the `--trace` gates run at: {1, 2, 4} plus the
/// explicitly requested count when it is not already covered.
inline std::vector<std::size_t> gate_shard_sweep(std::size_t shards) {
  std::vector<std::size_t> sweep{1, 2, 4};
  if (shards != 0 && std::find(sweep.begin(), sweep.end(), shards) == sweep.end()) {
    sweep.push_back(shards);
  }
  return sweep;
}

/// Opens a CSV trace (ingest::open_trace), printing the diagnostic and
/// exiting 1 on failure — the shared open boilerplate of every `--trace`
/// consumer (predict_nas, bench_adaptive, replay_trace).
inline std::unique_ptr<ingest::TraceSource> open_trace_or_exit(const std::string& path) {
  try {
    return ingest::open_trace(path);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

/// The shared streamed-ingest flags of every `--trace` consumer:
/// `--trace <file>`, `--batch-events <n>` (0 = unbounded), `--window
/// <t0>:<t1>`, and `--remap-ranks <spec>`.
struct TraceFlags {
  std::string path;
  std::size_t batch_events = ingest::kDefaultBatchEvents;
  ingest::TransformSpec transforms;
};

/// Consumes the shared ingest flags from `rest`. Exits 1 on a malformed
/// window/remap spec, or when an ingest-only flag is given without
/// `--trace` (it would otherwise be a silent no-op).
inline TraceFlags trace_flags_or_exit(std::vector<std::string>& rest) {
  TraceFlags flags;
  flags.path = string_flag(rest, "--trace");
  const auto batch = opt_size_flag(rest, "--batch-events");
  if (batch) {
    flags.batch_events = *batch;
  }
  const std::string window_spec = string_flag(rest, "--window");
  const std::string remap_spec = string_flag(rest, "--remap-ranks");
  if (flags.path.empty() &&
      (batch.has_value() || !window_spec.empty() || !remap_spec.empty())) {
    std::fprintf(stderr,
                 "--batch-events, --window and --remap-ranks require --trace <file>\n");
    std::exit(1);
  }
  try {
    flags.transforms = ingest::TransformSpec::parse(window_spec, remap_spec);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
  return flags;
}

/// The shared telemetry-export flags of every CLI: `--emit-metrics
/// <file>` writes the final metrics snapshot as JSON, `--emit-trace-events
/// <file>` writes the simulated-time span stream as Chrome trace-event
/// JSON (loadable in Perfetto / chrome://tracing).
struct TelemetryFlags {
  std::string metrics_path;
  std::string trace_path;

  [[nodiscard]] bool any() const noexcept {
    return !metrics_path.empty() || !trace_path.empty();
  }
};

/// Consumes `--emit-metrics <file>` and `--emit-trace-events <file>` from
/// `rest` (exits 1 on a dangling or empty value, like every other flag).
inline TelemetryFlags telemetry_flags(std::vector<std::string>& rest) {
  TelemetryFlags flags;
  flags.metrics_path = string_flag(rest, "--emit-metrics");
  flags.trace_path = string_flag(rest, "--emit-trace-events");
  return flags;
}

/// Writes `text` to `path`, exiting 1 when the file cannot be written — an
/// export the user asked for must never vanish silently.
inline void write_file_or_exit(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    std::exit(1);
  }
}

/// Writes whichever telemetry exports were requested: the metrics snapshot
/// to `--emit-metrics`, the trace-event stream to `--emit-trace-events`.
inline void write_telemetry_or_exit(const TelemetryFlags& flags,
                                    const telemetry::Telemetry& telemetry) {
  if (!flags.metrics_path.empty()) {
    write_file_or_exit(flags.metrics_path, telemetry.metrics().snapshot().to_json());
  }
  if (!flags.trace_path.empty()) {
    std::ofstream out(flags.trace_path, std::ios::binary);
    telemetry.trace_sink().write_json(out);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", flags.trace_path.c_str());
      std::exit(1);
    }
  }
}

inline void print_accuracy_grid_header(const char* what) {
  std::printf("%-10s %-8s", "config", what);
  for (int h = 1; h <= 5; ++h) {
    std::printf("   +%d ", h);
  }
  std::printf("\n");
}

inline void print_accuracy_row(const std::string& config, const char* stream,
                               const core::AccuracyReport& report) {
  std::printf("%-10s %-8s", config.c_str(), stream);
  for (std::size_t h = 1; h <= 5; ++h) {
    std::printf(" %5.1f", pct(report.at(h).accuracy()));
  }
  std::printf("\n");
}

}  // namespace mpipred::bench
