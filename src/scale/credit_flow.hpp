#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "engine/engine.hpp"
#include "scale/report.hpp"

namespace mpipred::scale {

/// §2.2 — control flow for short messages. Implementations like MPICH send
/// short messages eagerly, assuming the receiver has memory; with thousands
/// of senders that assumption breaks. The paper's proposal: the receiver
/// predicts upcoming (sender, size) pairs, pre-allocates those buffers and
/// sends the matching senders a *credit*; a sender holding a credit may
/// send eagerly into guaranteed memory, everyone else must ask first.
///
/// This trace-driven replay scores a credit protocol over one receiver's
/// physical stream:
///  * credit hit: the arriving (sender, size<=granted) had a credit — fast
///    path, bounded memory;
///  * credit miss: sender pays the three-message handshake.
/// Compared against "eager everything" (fast but unbounded memory: the
/// receiver must absorb any burst) and "always ask" (bounded memory, 3x
/// latency on every message). Rates return 0.0 on empty replays.
struct CreditFlowReport {
  std::string policy;
  std::int64_t messages = 0;
  std::int64_t credit_hits = 0;
  std::int64_t credit_misses = 0;
  /// Peak bytes of buffer memory the receiver had pledged at any instant.
  std::int64_t peak_pledged_bytes = 0;
  /// Total latency under the model, summed over messages.
  double total_latency_ns = 0.0;

  [[nodiscard]] double hit_rate() const noexcept {
    return messages == 0 ? 0.0
                         : static_cast<double>(credit_hits) / static_cast<double>(messages);
  }
  [[nodiscard]] double mean_latency_ns() const noexcept {
    return messages == 0 ? 0.0 : total_latency_ns / static_cast<double>(messages);
  }
};

struct CreditFlowConfig {
  /// Predictor family and options for the per-stream engine views.
  engine::EngineConfig engine{};
  LatencyModel latency{};
  /// A granted credit reserves the predicted size rounded up to this
  /// granule (buffers come from a pool of fixed-size slots); <= 0 reserves
  /// the exact size.
  std::int64_t granule_bytes = 1024;
};

struct CreditComparison {
  CreditFlowReport eager_everything;  // unbounded memory baseline
  CreditFlowReport always_ask;        // 3x latency baseline
  CreditFlowReport predicted_credits; // the paper's proposal
};

/// Replays one receiver's physical (sender, size) streams. Credits are
/// planned *per stream*: every known (source -> receiver) flow whose next
/// size the engine predicts gets its own credit — not one window over the
/// interleaved peer sequence — so coverage does not depend on predicting
/// the interleaving of independent flows.
[[nodiscard]] CreditComparison compare_credit_policies(std::span<const std::int64_t> senders,
                                                       std::span<const std::int64_t> sizes,
                                                       const CreditFlowConfig& cfg = {});

}  // namespace mpipred::scale
