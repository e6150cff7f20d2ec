#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "engine/config.hpp"
#include "scale/report.hpp"

namespace mpipred::scale {

/// §2.1 — memory reduction. Current MPI implementations pre-allocate one
/// receive buffer *per peer* (the paper: 16 KB x 10000 nodes = 160 MB per
/// process). If the receiver can predict which processes will send next,
/// it only needs buffers for those; an unpredicted sender falls back to
/// the slow ask-permission path.
///
/// This is a trace-driven what-if: replay the physical sender stream of
/// one receiver under a buffer policy and account memory and latency.
/// Every rate below returns 0.0 on an empty replay (messages == 0).
struct BufferPolicyReport {
  std::string policy;
  std::int64_t messages = 0;
  std::int64_t hits = 0;        // sender had a pre-allocated buffer
  std::int64_t misses = 0;      // slow path
  double avg_buffers = 0.0;     // mean resident buffer count
  std::int64_t peak_buffers = 0;
  std::int64_t buffer_bytes = 0;  // per-buffer size used for memory figures

  [[nodiscard]] double hit_rate() const noexcept {
    return messages == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(messages);
  }
  [[nodiscard]] std::int64_t peak_memory_bytes() const noexcept {
    return peak_buffers * buffer_bytes;
  }
  [[nodiscard]] double avg_memory_bytes() const noexcept {
    return avg_buffers * static_cast<double>(buffer_bytes);
  }
  /// Mean per-message latency under the model (hit = direct, miss =
  /// three-way handshake), using `mean_bytes` as the message size.
  [[nodiscard]] double mean_latency_ns(const LatencyModel& model, double mean_bytes) const {
    if (messages == 0) {
      return 0.0;
    }
    const auto b = static_cast<std::int64_t>(mean_bytes);
    return (static_cast<double>(hits) * model.direct_ns(b) +
            static_cast<double>(misses) * model.handshake_ns(b)) /
           static_cast<double>(messages);
  }
};

struct BufferManagerConfig {
  BufferManagerConfig() { engine.options.horizon = 8; }

  /// Predictor family and options, instantiated through the engine (no
  /// direct predictor wiring); the horizon defaults to 8 (wider than the
  /// paper's +5 evaluation) because the predicted *set* must cover all
  /// frequent senders of a window — BT has up to 6.
  engine::EngineConfig engine{};
  /// Per-peer buffer size (the IBM MPI figure the paper quotes).
  std::int64_t buffer_bytes = 16 * 1024;
  /// Buffers additionally retained for the most recently seen senders
  /// (small LRU so a briefly mispredicted regular sender is not evicted).
  std::size_t lru_keep = 3;
};

/// Replays `senders` (the physical sender stream of one receiver in a
/// world of `nranks`) under three policies: all-pairs pre-allocation,
/// prediction-driven allocation, and no pre-allocation.
struct BufferComparison {
  BufferPolicyReport all_pairs;
  BufferPolicyReport predicted;
  BufferPolicyReport none;
};

[[nodiscard]] BufferComparison compare_buffer_policies(std::span<const std::int64_t> senders,
                                                       int nranks,
                                                       const BufferManagerConfig& cfg = {});

/// Prediction-free yardstick at fixed capacity: keep buffers for the `k`
/// most recently seen senders only. bench_adaptive compares the adaptive
/// policy against this "same memory, no predictor" baseline.
[[nodiscard]] BufferPolicyReport replay_lru_buffers(std::span<const std::int64_t> senders,
                                                    std::size_t k,
                                                    std::int64_t buffer_bytes = 16 * 1024);

}  // namespace mpipred::scale
