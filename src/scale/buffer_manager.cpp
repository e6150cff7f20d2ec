#include "scale/buffer_manager.hpp"

#include <algorithm>

#include "adaptive/policy.hpp"
#include "common/assert.hpp"

namespace mpipred::scale {

BufferComparison compare_buffer_policies(std::span<const std::int64_t> senders, int nranks,
                                         const BufferManagerConfig& cfg) {
  MPIPRED_REQUIRE(nranks >= 1, "need at least one rank");
  BufferComparison out;

  // All-pairs: one buffer per peer, always a hit. An empty replay holds
  // no residency either — every report must read all-zero for it.
  out.all_pairs.policy = "all-pairs";
  out.all_pairs.buffer_bytes = cfg.buffer_bytes;
  out.all_pairs.messages = static_cast<std::int64_t>(senders.size());
  out.all_pairs.hits = out.all_pairs.messages;
  if (!senders.empty()) {
    out.all_pairs.peak_buffers = nranks - 1;
    out.all_pairs.avg_buffers = static_cast<double>(nranks - 1);
  }

  // No pre-allocation: every message pays the handshake.
  out.none.policy = "none";
  out.none.buffer_bytes = cfg.buffer_bytes;
  out.none.messages = static_cast<std::int64_t>(senders.size());
  out.none.misses = out.none.messages;

  // Prediction-driven: the adaptive policy's pre-post plan, read once the
  // replay is done.
  adaptive::AdaptivePolicy policy(
      adaptive::ServiceConfig{.engine = cfg.engine},
      adaptive::PolicyConfig{.buffer_bytes = cfg.buffer_bytes, .lru_keep = cfg.lru_keep});
  adaptive::replay(policy, receiver_events(senders),
                   [](const engine::Event&, adaptive::Protocol, bool) {});
  const adaptive::PolicyStats& stats = policy.stats();
  out.predicted = {.policy = "predicted",
                   .messages = stats.messages,
                   .hits = stats.prepost_hits,
                   .misses = stats.prepost_misses,
                   .avg_buffers = stats.avg_buffers(),
                   .peak_buffers = stats.peak_buffers,
                   .buffer_bytes = cfg.buffer_bytes};
  return out;
}

BufferPolicyReport replay_lru_buffers(std::span<const std::int64_t> senders, std::size_t k,
                                      std::int64_t buffer_bytes) {
  BufferPolicyReport report;
  report.policy = "lru-" + std::to_string(k);
  report.buffer_bytes = buffer_bytes;
  std::vector<std::int64_t> lru;  // newest last
  double buffer_sum = 0.0;
  for (const auto s : senders) {
    const bool hit = std::find(lru.begin(), lru.end(), s) != lru.end();
    ++report.messages;
    if (hit) {
      ++report.hits;
    } else {
      ++report.misses;
    }
    buffer_sum += static_cast<double>(lru.size());
    report.peak_buffers = std::max(report.peak_buffers, static_cast<std::int64_t>(lru.size()));
    lru.erase(std::remove(lru.begin(), lru.end(), s), lru.end());
    lru.push_back(s);
    if (lru.size() > k) {
      lru.erase(lru.begin());
    }
  }
  if (report.messages > 0) {
    report.avg_buffers = buffer_sum / static_cast<double>(report.messages);
  }
  return report;
}

}  // namespace mpipred::scale
