#include "ingest/replay.hpp"

#include <cstdio>
#include <utility>

namespace mpipred::ingest {

std::string AdaptiveReplay::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "messages=%lld hits=%lld misses=%lld avg_buffers=%.6f peak_buffers=%lld "
                "eager=%lld rendezvous=%lld elided=%lld",
                static_cast<long long>(stats.messages), static_cast<long long>(stats.prepost_hits),
                static_cast<long long>(stats.prepost_misses), stats.avg_buffers(),
                static_cast<long long>(stats.peak_buffers),
                static_cast<long long>(stats.eager_sends),
                static_cast<long long>(stats.rendezvous_sends),
                static_cast<long long>(stats.rendezvous_elided));
  return buf;
}

AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                               const adaptive::RuntimeConfig& cfg,
                               telemetry::Telemetry* telemetry) {
  adaptive::ServiceConfig service_cfg = cfg.service;
  if (telemetry != nullptr) {
    service_cfg.engine.metrics = &telemetry->metrics();
  }
  adaptive::AdaptivePolicy policy(std::move(service_cfg), cfg.policy);
  telemetry::TraceEventSink* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  std::int64_t ordinal = 0;
  const auto trace = [&](const engine::Event& event, adaptive::Protocol, bool hit) {
    if (tracer != nullptr) {
      // An ingested stream has no clock; event ordinals stand in for it.
      tracer->instant_at(event.destination, hit ? "prepost-hit" : "prepost-miss", "replay",
                         ordinal,
                         "\"sender\":" + std::to_string(event.source) +
                             ",\"bytes\":" + std::to_string(event.bytes));
    }
    ++ordinal;
  };
  adaptive::replay(policy, events, trace);
  if (telemetry != nullptr) {
    policy.export_metrics(telemetry->metrics());
  }
  return {.stats = policy.stats()};
}

SweptReplay replay_adaptive_swept(std::span<const engine::Event> events,
                                  adaptive::RuntimeConfig cfg,
                                  std::span<const std::size_t> shard_counts) {
  SweptReplay out;
  std::string reference;
  for (const std::size_t shards : shard_counts) {
    cfg.service.engine.shards = shards;
    AdaptiveReplay replay = replay_adaptive(events, cfg);
    const std::string summary = replay.summary();
    if (reference.empty()) {
      out.replay = std::move(replay);
      reference = summary;
    } else if (out.deterministic && summary != reference) {
      out.deterministic = false;
      out.mismatch = "shards=" + std::to_string(shards) + ":\n  ref : " + reference +
                     "\n  got : " + summary;
    }
  }
  return out;
}

}  // namespace mpipred::ingest
