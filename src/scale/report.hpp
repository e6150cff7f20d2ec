#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/config.hpp"

namespace mpipred::scale {

/// One receiver's physical stream as the events the what-ifs replay
/// through adaptive::replay: every message arrives at destination 0 and
/// carries `sizes[i]` bytes (zero when `sizes` is empty — senders alone
/// drive the buffer mechanism).
[[nodiscard]] inline std::vector<engine::Event> receiver_events(
    std::span<const std::int64_t> senders, std::span<const std::int64_t> sizes = {}) {
  std::vector<engine::Event> out;
  out.reserve(senders.size());
  for (std::size_t i = 0; i < senders.size(); ++i) {
    out.push_back({.source = static_cast<std::int32_t>(senders[i]),
                   .destination = 0,
                   .tag = 0,
                   .bytes = sizes.empty() ? 0 : sizes[i]});
  }
  return out;
}

/// Simple first-order latency model for the trace-driven what-if analyses:
/// a message that can go out directly costs one latency plus its
/// serialization time; a message that must first ask permission costs three
/// latencies (request, grant, data) plus serialization — the §2
/// control-flow overhead the paper describes.
struct LatencyModel {
  double latency_ns = 20'000.0;
  double ns_per_byte = 10.0;

  [[nodiscard]] double direct_ns(std::int64_t bytes) const noexcept {
    return latency_ns + static_cast<double>(bytes) * ns_per_byte;
  }
  [[nodiscard]] double handshake_ns(std::int64_t bytes) const noexcept {
    return 3.0 * latency_ns + static_cast<double>(bytes) * ns_per_byte;
  }
  /// The unexpected-copy/ask-permission fallback the live simulator
  /// charges through sim::NetworkConfig::fallback_cost: the payload
  /// already arrived eagerly, so only the ask and grant crossings remain
  /// (two latencies, no data leg — cheaper than a full handshake_ns).
  /// Keeping the ratio here ties the trace-driven replays to the live
  /// endpoint's pricing.
  [[nodiscard]] double fallback_rtt_ns() const noexcept { return 2.0 * latency_ns; }
};

}  // namespace mpipred::scale
