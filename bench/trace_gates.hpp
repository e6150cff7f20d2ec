#pragma once

// The self-audit gates of the tools, in one place, each O(events) (see
// ingest/verify.hpp). predict_nas --trace, replay_trace and bench_adaptive
// --trace replay their file through replay_trace_or_exit; predict_nas
// --export-trace re-reads its file through verify_export; the adaptive
// replays' telemetry on/off check is verify_adaptive_telemetry. A tool
// exits 2 when a gate fails.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "ingest/replay.hpp"
#include "ingest/verify.hpp"
#include "serve/server.hpp"

namespace mpipred::bench {

/// What replay_trace_gated proves, for the tools' summary lines.
inline constexpr const char* kTraceGatesSummary =
    "streamed == materialized events; engine reports invariant across shards {1,2,4} and "
    "batch sizes {64,4096,unbounded}; session == reference report per level; write_csv "
    "round trip";

/// Opens one level's transformed input; every call yields a fresh chain
/// over the same events. A test wraps the chain's stream in a mutant.
using LevelChainFactory = std::function<ingest::TransformChain(trace::Level)>;

/// The `--trace` tools' input: the incremental file reader plus the
/// `--window` / `--remap-ranks` transforms.
[[nodiscard]] inline LevelChainFactory file_chains(const TraceFlags& flags) {
  return [path = flags.path, spec = flags.transforms](trace::Level level) {
    return ingest::apply_transforms(ingest::open_event_stream(path, level), spec);
  };
}

/// One level as a `--trace` tool replayed it.
struct TraceLevel {
  trace::Level level{};
  ingest::StreamedRun session;  // the serve session's run over the chain
  /// The transformed events, materialized from the parsed source (the
  /// ingest gate proves they are the ones the session saw).
  std::vector<engine::Event> events;
  std::string transform_lines;  // "  <window summary>\n", "  remap ...\n" if given
  int nranks = 0;               // after the remap
};

struct TraceReplay {
  std::vector<TraceLevel> levels;
  /// The first failed gate; ok when every gate held.
  ingest::GateResult gates;
};

/// Replays every level of `source` through its own session of `server`,
/// fed by make_chain(level) in `flags.batch_events` batches, and gates it:
///  * ingest: make_chain(level) drained at every gate batch size equals
///    the materialized reference (source.stream_events + the transforms);
///  * engine invariance on the reference events under `cfg`, across
///    gate_shard_sweep(cfg.shards) and the gate batch sizes;
///  * serve: the session's report equals the invariance reference;
///  * round trip: a write_csv export of the source's store re-ingests to
///    the same events (formats that keep a store only).
/// Throws mpipred::Error when the input cannot be ingested.
[[nodiscard]] inline TraceReplay replay_trace_gated(const ingest::TraceSource& source,
                                                    const TraceFlags& flags,
                                                    serve::PredictionServer& server,
                                                    const engine::EngineConfig& cfg,
                                                    const LevelChainFactory& make_chain) {
  const auto sweep = gate_shard_sweep(cfg.shards);
  TraceReplay out;
  const auto failed = [&out](const std::string& detail) {
    out.gates = {.ok = false, .detail = detail};
    return out;
  };
  for (const trace::Level level : source.levels()) {
    const std::string label = " gate: " + std::string(trace::to_string(level)) + " level: ";
    TraceLevel tl;
    tl.level = level;
    tl.nranks = source.nranks();
    auto chain = make_chain(level);
    tl.session = ingest::run_into(*chain.stream, *server.open_session(), flags.batch_events);
    if (chain.window != nullptr) {
      tl.transform_lines += "  " + chain.window->summary() + "\n";
    }
    if (chain.remap != nullptr) {
      tl.transform_lines += "  remap " + chain.remap->config().to_string() + ": " +
                            chain.remap->report().summary() + "\n";
      tl.nranks = chain.remap->report().nranks();
    }

    const auto reference = ingest::drain(
        *ingest::apply_transforms(source.stream_events(level), flags.transforms).stream);
    tl.events = ingest::strip_times(reference);
    const auto ingest_gate =
        ingest::verify_stream_events([&] { return make_chain(level).stream; }, reference);
    if (!ingest_gate.ok) {
      return failed("ingest" + label + ingest_gate.detail);
    }
    const auto invariance = ingest::verify_engine_invariance(tl.events, cfg, sweep);
    if (!invariance.gate.ok) {
      return failed("engine-invariance" + label + invariance.gate.detail);
    }
    if (tl.session.report != invariance.reference) {
      return failed("serve" + label + "session report differs from the reference report");
    }
    out.levels.push_back(std::move(tl));
  }
  if (const trace::TraceStore* store = source.store()) {
    const auto round_trip = ingest::verify_csv_round_trip(*store);
    if (!round_trip.ok) {
      return failed("round-trip gate: " + round_trip.detail);
    }
  }
  return out;
}

/// replay_trace_gated over the `--trace` file: prints the diagnostic and
/// exits 1 when the file cannot be ingested, 2 when a gate fails.
[[nodiscard]] inline TraceReplay replay_trace_or_exit(const ingest::TraceSource& source,
                                                      const TraceFlags& flags,
                                                      serve::PredictionServer& server,
                                                      const engine::EngineConfig& cfg) {
  try {
    TraceReplay replay = replay_trace_gated(source, flags, server, cfg, file_chains(flags));
    if (replay.gates.ok) {
      return replay;
    }
    std::fprintf(stderr, "%s FAILED\n", replay.gates.detail.c_str());
    std::exit(2);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
}

/// The `--export-trace` gate: the file at `path`, re-opened, must hold
/// `store`'s events at every level, and engine invariance under `cfg` must
/// hold on them.
[[nodiscard]] inline ingest::GateResult verify_export(const std::string& path,
                                                      const trace::TraceStore& store,
                                                      const engine::EngineConfig& cfg) {
  std::unique_ptr<ingest::TraceSource> source;
  try {
    source = ingest::open_trace(path);
  } catch (const Error& e) {
    return {.ok = false, .detail = std::string("re-reading the export failed: ") + e.what()};
  }
  for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
    const std::string label = std::string(trace::to_string(level)) + " level: ";
    const auto events = source->events(level);
    if (events != engine::events_from_trace(store, level)) {
      return {.ok = false, .detail = label + "the file's events differ from the run's"};
    }
    const auto invariance =
        ingest::verify_engine_invariance(events, cfg, gate_shard_sweep(cfg.shards));
    if (!invariance.gate.ok) {
      return {.ok = false, .detail = label + invariance.gate.detail};
    }
  }
  return {};
}

/// The serve gate over a simulated run: a session of `server` fed the
/// level's events must report what a single-tenant engine under `cfg`
/// reports. Returns that report, or nullopt when the two differ.
[[nodiscard]] inline std::optional<engine::EngineReport> served_report(
    serve::PredictionServer& server, const trace::TraceStore& store, trace::Level level,
    const engine::EngineConfig& cfg) {
  auto report = engine::run_over_trace(store, level, cfg);
  const auto session = server.open_session();
  session->observe_all(engine::events_from_trace(store, level));
  if (session->report() != report) {
    return std::nullopt;
  }
  return report;
}

/// The adaptive replay's telemetry on/off gate: replaying `arrivals` with
/// `telem` attached must reproduce `plain`'s summary byte for byte.
[[nodiscard]] inline ingest::GateResult verify_adaptive_telemetry(
    std::span<const engine::Event> arrivals, const adaptive::RuntimeConfig& rt,
    const ingest::AdaptiveReplay& plain, telemetry::Telemetry& telem) {
  const ingest::AdaptiveReplay instrumented = ingest::replay_adaptive(arrivals, rt, &telem);
  if (instrumented.summary() == plain.summary()) {
    return {};
  }
  return {.ok = false,
          .detail = "telemetry gate: instrumented replay differs\n  ref : " + plain.summary() +
                    "\n  got : " + instrumented.summary()};
}

}  // namespace mpipred::bench
