// External traces through the whole stack: open any supported trace file
// (run `trace_export` or `predict_nas --export-trace` to make one, or
// bring a `time_ns,sender,receiver,bytes[,kind]` flat CSV from a real
// capture tool), replay it through the resident prediction service — one
// PredictionServer, one session per trace level, each file parsed in
// pulled batches that overlap the shard drain — and drive the adaptive
// runtime's decision layer over the arrival stream; no simulator
// involved. `--window` slices a capture-time range and `--remap-ranks`
// folds/subsets the rank space before anything else sees the events. Ends
// with the O(events) gates of bench/trace_gates.hpp (streamed ==
// materialized events, engine invariance across shard counts {1,2,4} and
// batch sizes {64,4096,unbounded} one axis at a time, session ==
// reference report, write_csv round trip) plus an adaptive replay
// byte-identical across the shard counts; exits 2 on any mismatch.
//
// `--emit-metrics <file>` writes the final metrics snapshot (serve.*,
// engine.feed.* per tenant, adaptive.policy.*) as JSON;
// `--emit-trace-events <file>` records the adaptive replay's per-event
// decisions as Chrome trace-event instants stamped with event ordinals (an
// ingested file has no simulated clock). Either flag arms a telemetry gate:
// the instrumented adaptive replay must reproduce the un-instrumented
// sweep's summary byte for byte, or the tool exits 2.
//
//   $ ./examples/replay_trace --trace <file> [--predictor <name>] [--shards <n>]
//       [--batch-events <n>] [--window <t0>:<t1>] [--remap-ranks <spec>]
//       [--emit-metrics <file>] [--emit-trace-events <file>]

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/trace_gates.hpp"
#include "engine/engine.hpp"
#include "ingest/replay.hpp"
#include "ingest/streaming.hpp"
#include "serve/server.hpp"

namespace {

/// +1 accuracy as a percentage; 0 when the stream was empty (an empty
/// window or keep set must degrade to a zero report, not an abort).
double pct_at_one(const mpipred::core::AccuracyReport& report) {
  return report.max_horizon() == 0 ? 0.0 : 100.0 * report.at(1).accuracy();
}

constexpr std::string_view kUsage =
    "usage: replay_trace --trace <file> [--predictor <name>] [--shards <n>]\n"
    "                    [--batch-events <n>] [--window <t0>:<t1>]\n"
    "                    [--remap-ranks <spec>] [--emit-metrics <file>]\n"
    "                    [--emit-trace-events <file>]\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t shards = bench::shards_flag(arg.rest);
  const bench::TraceFlags flags = bench::trace_flags_or_exit(arg.rest);
  const bench::TelemetryFlags telem_flags = bench::telemetry_flags(arg.rest);
  bench::reject_arguments(arg.rest);
  if (flags.path.empty()) {
    throw UsageError("replay_trace requires --trace <file>");
  }

  const auto source = bench::open_trace_or_exit(flags.path);
  const engine::EngineConfig cfg{.predictor = arg.name, .shards = shards};

  // Registry + (ordinal-clocked) trace sink behind the `--emit-*` flags.
  // The serve sessions report into the registry; the gates' reference
  // engines stay metrics-free, so the serve gate doubles as an on/off
  // check.
  telemetry::Telemetry telem;
  if (!telem_flags.trace_path.empty()) {
    telem.enable_tracing();
  }
  engine::EngineConfig server_cfg = cfg;
  if (telem_flags.any()) {
    server_cfg.metrics = &telem.metrics();
  }
  std::printf("%s: format %s, %d ranks, predictor %s, batch %zu events\n", flags.path.c_str(),
              std::string(source->format()).c_str(), source->nranks(), arg.name.c_str(),
              flags.batch_events);

  // The paper's accuracy question, answered from the file alone through
  // the resident service: one PredictionServer, one isolated session per
  // trace level, each fed by the incremental reader in batches (parse of
  // batch N+1 overlapped with the drain of batch N). The last level's
  // transformed arrivals are the adaptive replay's input below (physical,
  // when the format records it).
  serve::PredictionServer server({.engine = server_cfg});
  const bench::TraceReplay replay = bench::replay_trace_or_exit(*source, flags, server, cfg);
  for (const bench::TraceLevel& tl : replay.levels) {
    const ingest::StreamedRun& run = tl.session;
    std::printf("%s level: %lld messages over %zu streams in %zu batches, +1 accuracy "
                "senders %.1f%% / sizes %.1f%%\n",
                std::string(to_string(tl.level)).c_str(), static_cast<long long>(run.events),
                run.report.streams.size(), run.batches, pct_at_one(run.report.aggregate_senders),
                pct_at_one(run.report.aggregate_sizes));
    std::printf("%s", tl.transform_lines.c_str());
  }
  const std::vector<engine::Event>& arrivals = replay.levels.back().events;

  // The §2 runtime question — what would the adaptive library have done?
  // — swept across shard counts (the first determinism gate).
  const auto sweep = bench::gate_shard_sweep(shards);
  adaptive::RuntimeConfig rt;
  rt.service.engine.predictor = arg.name;
  const auto swept = ingest::replay_adaptive_swept(arrivals, rt, sweep);
  std::printf("adaptive replay: %s\n", swept.replay.summary().c_str());
  if (!swept.deterministic) {
    std::fprintf(stderr, "adaptive replay differs at %s\n", swept.mismatch.c_str());
    return 2;
  }
  if (telem_flags.any()) {
    // Telemetry on/off gate: the instrumented replay (metrics registry
    // wired in, decision instants recorded) must reproduce the
    // un-instrumented sweep's summary byte for byte.
    const auto gate = bench::verify_adaptive_telemetry(arrivals, rt, swept.replay, telem);
    if (!gate.ok) {
      std::fprintf(stderr, "%s FAILED\n", gate.detail.c_str());
      return 2;
    }
  }
  std::printf("gates: ok (%s; adaptive replay byte-identical across shards {1,2,4})\n",
              bench::kTraceGatesSummary);
  if (telem_flags.any()) {
    bench::write_telemetry_or_exit(telem_flags, telem);
    std::printf("telemetry gate: ok (instrumented replay identical)");
    if (!telem_flags.metrics_path.empty()) {
      std::printf("; metrics -> %s", telem_flags.metrics_path.c_str());
    }
    if (!telem_flags.trace_path.empty()) {
      std::printf("; trace events -> %s", telem_flags.trace_path.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
