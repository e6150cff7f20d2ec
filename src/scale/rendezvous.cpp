#include "scale/rendezvous.hpp"

#include "adaptive/policy.hpp"
#include "common/assert.hpp"

namespace mpipred::scale {

RendezvousReport evaluate_rendezvous_elision(std::span<const std::int64_t> senders,
                                             std::span<const std::int64_t> sizes,
                                             const RendezvousConfig& cfg) {
  MPIPRED_REQUIRE(senders.size() == sizes.size(), "sender/size streams must align");
  RendezvousReport report;
  adaptive::AdaptivePolicy policy(
      adaptive::ServiceConfig{.engine = cfg.engine},
      adaptive::PolicyConfig{.rendezvous_threshold_bytes = cfg.threshold_bytes});
  const auto account = [&](const engine::Event& event, adaptive::Protocol protocol, bool) {
    if (protocol == adaptive::Protocol::Eager) {
      return;
    }
    ++report.long_messages;
    report.baseline_latency_ns += cfg.latency.handshake_ns(event.bytes);
    if (protocol == adaptive::Protocol::ElidedRendezvous) {
      ++report.elided;
      report.predicted_latency_ns += cfg.latency.direct_ns(event.bytes);
    } else {
      report.predicted_latency_ns += cfg.latency.handshake_ns(event.bytes);
    }
  };
  adaptive::replay(policy, receiver_events(senders, sizes), account);
  return report;
}

}  // namespace mpipred::scale
