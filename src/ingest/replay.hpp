#pragma once

// Replays an ingested event stream through the adaptive runtime's decision
// layer — protocol choice per message, pre-post scoring, service feed —
// via adaptive::replay, in the order mpi::detail::Endpoint drives live.
// This is what makes an external trace first-class: the same registry
// predictor, the same sharded engine, the same policy code, fed from a
// file instead of the simulator.

#include <span>
#include <string>

#include "adaptive/config.hpp"
#include "adaptive/policy.hpp"
#include "engine/config.hpp"
#include "telemetry/telemetry.hpp"

namespace mpipred::ingest {

/// Accounting of one adaptive replay over an ingested event stream.
struct AdaptiveReplay {
  adaptive::PolicyStats stats;

  /// One-line summary of every stat (integers and fixed-precision floats
  /// only), compared byte-for-byte across shard counts by the `--trace`
  /// determinism gates.
  [[nodiscard]] std::string summary() const;
};

/// Feeds `events` (time-ordered arrivals) through one AdaptivePolicy:
/// each message is scored for protocol choice (eager / rendezvous /
/// elided) and against the receiver's pre-post plan, then learned from.
/// Pure per-stream predictor state, so the result is identical for any
/// `cfg.service.engine.shards` value.
///
/// `telemetry`, when given, receives the run's metrics (engine.feed.*,
/// adaptive.policy.*) and — if tracing is enabled there — one decision
/// instant per event on the destination's track, stamped with the event
/// ordinal (an ingested stream has no simulated clock). Telemetry never
/// feeds back into a decision: stats are byte-identical with or without
/// it, which telemetry_test and the CLI `--emit-*` gates pin.
[[nodiscard]] AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                                             const adaptive::RuntimeConfig& cfg = {},
                                             telemetry::Telemetry* telemetry = nullptr);

/// replay_adaptive at every shard count in `shard_counts` plus the
/// byte-identical-summary gate — the one implementation every `--trace`
/// consumer's determinism check goes through.
struct SweptReplay {
  /// The replay at shard_counts.front() (all others must match it).
  AdaptiveReplay replay;
  bool deterministic = true;
  /// First mismatch (shard count, both summaries); empty when deterministic.
  std::string mismatch;
};

[[nodiscard]] SweptReplay replay_adaptive_swept(std::span<const engine::Event> events,
                                                adaptive::RuntimeConfig cfg,
                                                std::span<const std::size_t> shard_counts);

}  // namespace mpipred::ingest
