#include "scale/credit_flow.hpp"

#include <algorithm>
#include <vector>

#include "adaptive/policy.hpp"
#include "common/assert.hpp"

namespace mpipred::scale {

CreditComparison compare_credit_policies(std::span<const std::int64_t> senders,
                                         std::span<const std::int64_t> sizes,
                                         const CreditFlowConfig& cfg) {
  MPIPRED_REQUIRE(senders.size() == sizes.size(), "sender/size streams must align");
  CreditComparison out;
  const auto n = static_cast<std::int64_t>(senders.size());

  // Eager everything: every message direct, receiver memory unbounded —
  // model the pledge as "whatever shows up is buffered"; its peak is the
  // largest burst, which in the worst case is the whole stream. We report
  // the sum of all message bytes as the exposure (what §2.2 warns about:
  // nothing limits it).
  out.eager_everything.policy = "eager-everything";
  out.eager_everything.messages = n;
  out.eager_everything.credit_hits = n;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.eager_everything.total_latency_ns += cfg.latency.direct_ns(sizes[i]);
    out.eager_everything.peak_pledged_bytes += adaptive::round_up(sizes[i], cfg.granule_bytes);
  }

  // Always ask: bounded memory (one message at a time), 3x latency.
  out.always_ask.policy = "always-ask";
  out.always_ask.messages = n;
  out.always_ask.credit_misses = n;
  std::int64_t max_granule = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.always_ask.total_latency_ns += cfg.latency.handshake_ns(sizes[i]);
    max_granule = std::max(max_granule, adaptive::round_up(sizes[i], cfg.granule_bytes));
  }
  out.always_ask.peak_pledged_bytes = max_granule;

  // Predicted credits, planned per stream through the engine: each known
  // (source -> receiver) flow with a predicted next size holds one credit
  // covering that size. replay() has already learned an arrival when it
  // visits, so the view keeps the plan the previous visit read: charge
  // its pledge, check the arrival against it, then re-read the plan.
  CreditFlowReport& predicted = out.predicted_credits;
  predicted.policy = "predicted-credits";
  predicted.messages = n;
  adaptive::AdaptivePolicy policy(
      adaptive::ServiceConfig{.engine = cfg.engine},
      adaptive::PolicyConfig{.credit_granule_bytes = cfg.granule_bytes});
  std::vector<adaptive::Credit> credits;
  const auto account = [&](const engine::Event& event, adaptive::Protocol, bool) {
    std::int64_t pledged = 0;
    for (const adaptive::Credit& c : credits) {
      pledged += c.bytes;
    }
    predicted.peak_pledged_bytes = std::max(predicted.peak_pledged_bytes, pledged);
    if (std::any_of(credits.begin(), credits.end(), [&](const adaptive::Credit& c) {
          return c.covers(event.source, event.bytes);
        })) {
      ++predicted.credit_hits;
      predicted.total_latency_ns += cfg.latency.direct_ns(event.bytes);
    } else {
      ++predicted.credit_misses;
      predicted.total_latency_ns += cfg.latency.handshake_ns(event.bytes);
    }
    credits = policy.credit_plan(0);
  };
  adaptive::replay(policy, receiver_events(senders, sizes), account);
  return out;
}

}  // namespace mpipred::scale
