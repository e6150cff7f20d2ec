#pragma once

// The reproducibility gates at the ingest boundary, each O(events). Event
// sequences are compared directly (a stream that yields the same events in
// the same order feeds any engine identically); engine invariance is
// checked one axis at a time, so its cost is the sum of the shard and
// batch axes, not their product (the full grid runs in ctest on small
// captures). The `--trace` tools run them through bench/trace_gates.hpp
// and exit 2 on any mismatch. The bounded-memory property belongs to the
// replay pass (StreamingReplay over CsvStreamReader), not to the gates.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "engine/engine.hpp"
#include "ingest/streaming.hpp"
#include "trace/store.hpp"

namespace mpipred::ingest {

/// Batch sizes every streamed gate sweeps (0 = unbounded, one batch).
inline constexpr std::size_t kGateBatchEvents[] = {64, 4096, 0};

struct GateResult {
  bool ok = true;
  /// First mismatch (what differed, and where); empty when ok.
  std::string detail;
};

/// Produces a fresh stream of the same events on every call (streams are
/// single-use; every gate point replays from the start).
using StreamFactory = std::function<std::unique_ptr<EventStream>()>;

/// The ingest gate: make_stream() drained at every kGateBatchEvents size
/// must yield exactly `reference`, timestamps included. No engine runs.
[[nodiscard]] GateResult verify_stream_events(const StreamFactory& make_stream,
                                              std::span<const TimedEvent> reference);

/// Exports `store` as CSV in memory, re-ingests it, and requires the
/// re-ingested events of every level to equal the store's own.
[[nodiscard]] GateResult verify_csv_round_trip(const trace::TraceStore& store);

struct InvarianceResult {
  /// observe_all over the events at shard_counts.front().
  engine::EngineReport reference;
  GateResult gate;
};

/// The engine-invariance gate: the reference report, then an observe_all
/// pass at each further entry of `shard_counts` and a StreamingReplay pass
/// for each kGateBatchEvents size at shard_counts.back() (the batch passes
/// run on the most shards); every report must equal the reference.
[[nodiscard]] InvarianceResult verify_engine_invariance(std::span<const engine::Event> events,
                                                        const engine::EngineConfig& cfg,
                                                        std::span<const std::size_t> shard_counts);

}  // namespace mpipred::ingest
