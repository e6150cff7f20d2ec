// Differential oracle for the offline decision replayer: the §2 what-ifs
// (rendezvous elision, credit flow control, buffer pre-posting) and the
// ingested-trace adaptive replay are views over one policy loop,
// adaptive::replay. This test keeps each view's former hand-written loop
// as a reference copy, drives both with seeded random (sender, size)
// streams (clean periodic, noisy periodic with pattern switches, pure
// noise, a stream a new flow closes, and the empty stream) under several
// predictors, rendezvous thresholds, credit granules and runtime configs,
// and requires every report field to compare equal — doubles included.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "adaptive/policy.hpp"
#include "common/assert.hpp"
#include "ingest/replay.hpp"
#include "scale/buffer_manager.hpp"
#include "scale/credit_flow.hpp"
#include "scale/rendezvous.hpp"
#include "sim/rng.hpp"
#include "telemetry/telemetry.hpp"

namespace mpipred {
namespace reference {

// ---------------------------------------------------------------------
// Reference loops: each view as it was before it moved onto
// adaptive::replay.

scale::RendezvousReport evaluate_rendezvous_elision(std::span<const std::int64_t> senders,
                                                    std::span<const std::int64_t> sizes,
                                                    const scale::RendezvousConfig& cfg) {
  MPIPRED_REQUIRE(senders.size() == sizes.size(), "sender/size streams must align");
  scale::RendezvousReport report;
  adaptive::AdaptivePolicy policy(
      adaptive::ServiceConfig{.engine = cfg.engine},
      adaptive::PolicyConfig{.rendezvous_threshold_bytes = cfg.threshold_bytes});

  for (std::size_t i = 0; i < senders.size(); ++i) {
    const engine::Event event{.source = static_cast<std::int32_t>(senders[i]),
                              .destination = 0,
                              .tag = 0,
                              .bytes = sizes[i]};
    if (sizes[i] > cfg.threshold_bytes) {
      ++report.long_messages;
      report.baseline_latency_ns += cfg.latency.handshake_ns(sizes[i]);
      if (policy.choose_protocol(event) == adaptive::Protocol::ElidedRendezvous) {
        ++report.elided;
        report.predicted_latency_ns += cfg.latency.direct_ns(sizes[i]);
      } else {
        report.predicted_latency_ns += cfg.latency.handshake_ns(sizes[i]);
      }
    }
    policy.service().observe(event);
  }
  return report;
}

// The former private copy; it divides by zero on a zero granule, so the
// oracle only drives positive granules (scale_test covers zero).
std::int64_t round_up(std::int64_t bytes, std::int64_t granule) noexcept {
  return (bytes + granule - 1) / granule * granule;
}

scale::CreditComparison compare_credit_policies(std::span<const std::int64_t> senders,
                                                std::span<const std::int64_t> sizes,
                                                const scale::CreditFlowConfig& cfg) {
  MPIPRED_REQUIRE(senders.size() == sizes.size(), "sender/size streams must align");
  scale::CreditComparison out;
  const auto n = static_cast<std::int64_t>(senders.size());

  out.eager_everything.policy = "eager-everything";
  out.eager_everything.messages = n;
  out.eager_everything.credit_hits = n;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.eager_everything.total_latency_ns += cfg.latency.direct_ns(sizes[i]);
    out.eager_everything.peak_pledged_bytes += round_up(sizes[i], cfg.granule_bytes);
  }

  out.always_ask.policy = "always-ask";
  out.always_ask.messages = n;
  out.always_ask.credit_misses = n;
  std::int64_t max_granule = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    out.always_ask.total_latency_ns += cfg.latency.handshake_ns(sizes[i]);
    max_granule = std::max(max_granule, round_up(sizes[i], cfg.granule_bytes));
  }
  out.always_ask.peak_pledged_bytes = max_granule;

  out.predicted_credits.policy = "predicted-credits";
  out.predicted_credits.messages = n;
  adaptive::AdaptivePolicy policy(adaptive::ServiceConfig{.engine = cfg.engine},
                                  adaptive::PolicyConfig{.credit_granule_bytes =
                                                             cfg.granule_bytes});
  std::vector<adaptive::Credit> credits;
  for (std::size_t i = 0; i < senders.size(); ++i) {
    std::int64_t pledged = 0;
    for (const adaptive::Credit& c : credits) {
      pledged += c.bytes;
    }
    out.predicted_credits.peak_pledged_bytes =
        std::max(out.predicted_credits.peak_pledged_bytes, pledged);

    const auto it =
        std::find_if(credits.begin(), credits.end(), [&](const adaptive::Credit& c) {
          return c.sender == senders[i] && c.bytes >= sizes[i];
        });
    if (it != credits.end()) {
      ++out.predicted_credits.credit_hits;
      out.predicted_credits.total_latency_ns += cfg.latency.direct_ns(sizes[i]);
      credits.erase(it);
    } else {
      ++out.predicted_credits.credit_misses;
      out.predicted_credits.total_latency_ns += cfg.latency.handshake_ns(sizes[i]);
    }

    policy.service().observe({.source = static_cast<std::int32_t>(senders[i]),
                              .destination = 0,
                              .tag = 0,
                              .bytes = sizes[i]});
    credits = policy.credit_plan(0);
  }
  return out;
}

scale::BufferComparison compare_buffer_policies(std::span<const std::int64_t> senders,
                                                int nranks,
                                                const scale::BufferManagerConfig& cfg) {
  MPIPRED_REQUIRE(nranks >= 1, "need at least one rank");
  scale::BufferComparison out;

  out.all_pairs.policy = "all-pairs";
  out.all_pairs.buffer_bytes = cfg.buffer_bytes;
  out.all_pairs.messages = static_cast<std::int64_t>(senders.size());
  out.all_pairs.hits = out.all_pairs.messages;
  if (!senders.empty()) {
    out.all_pairs.peak_buffers = nranks - 1;
    out.all_pairs.avg_buffers = static_cast<double>(nranks - 1);
  }

  out.none.policy = "none";
  out.none.buffer_bytes = cfg.buffer_bytes;
  out.none.messages = static_cast<std::int64_t>(senders.size());
  out.none.misses = out.none.messages;

  // The former single-receiver online manager, inlined.
  adaptive::AdaptivePolicy policy(
      adaptive::ServiceConfig{.engine = cfg.engine},
      adaptive::PolicyConfig{.buffer_bytes = cfg.buffer_bytes, .lru_keep = cfg.lru_keep});
  out.predicted.policy = "predicted";
  out.predicted.buffer_bytes = cfg.buffer_bytes;
  for (const auto s : senders) {
    (void)policy.on_arrival(
        {.source = static_cast<std::int32_t>(s), .destination = 0, .tag = 0, .bytes = 0});
    const adaptive::PolicyStats& stats = policy.stats();
    out.predicted.messages = stats.messages;
    out.predicted.hits = stats.prepost_hits;
    out.predicted.misses = stats.prepost_misses;
    out.predicted.avg_buffers = stats.avg_buffers();
    out.predicted.peak_buffers = stats.peak_buffers;
  }
  return out;
}

ingest::AdaptiveReplay replay_adaptive(std::span<const engine::Event> events,
                                       const adaptive::RuntimeConfig& cfg,
                                       telemetry::Telemetry* telemetry) {
  adaptive::ServiceConfig service_cfg = cfg.service;
  if (telemetry != nullptr) {
    service_cfg.engine.metrics = &telemetry->metrics();
  }
  adaptive::AdaptivePolicy policy(std::move(service_cfg), cfg.policy);
  telemetry::TraceEventSink* tracer = telemetry != nullptr ? telemetry->tracer() : nullptr;
  std::int64_t ordinal = 0;
  for (const engine::Event& event : events) {
    (void)policy.choose_protocol(event);
    const bool hit = policy.on_arrival(event);
    if (tracer != nullptr) {
      tracer->instant_at(event.destination, hit ? "prepost-hit" : "prepost-miss", "replay",
                         ordinal,
                         "\"sender\":" + std::to_string(event.source) +
                             ",\"bytes\":" + std::to_string(event.bytes));
    }
    ++ordinal;
  }
  if (telemetry != nullptr) {
    policy.export_metrics(telemetry->metrics());
  }
  return {.stats = policy.stats()};
}

}  // namespace reference

namespace {

// ---------------------------------------------------------------------
// Seeded streams.

enum class Shape { Periodic, Noisy, Noise };

/// Sizes straddle the 16 KiB default threshold and the tested granules.
constexpr std::int64_t kSizes[] = {0,     1,     100,   1024,  1025,  4096,
                                   16384, 16385, 20000, 32768, 65536, 100000};

engine::Event random_message(sim::Rng& rng, std::uint64_t ranks, std::uint64_t destinations) {
  return {.source = static_cast<std::int32_t>(rng.below(ranks)),
          .destination = static_cast<std::int32_t>(rng.below(destinations)),
          .tag = static_cast<std::int32_t>(rng.below(3)),
          .bytes = kSizes[rng.below(std::size(kSizes))]};
}

std::vector<engine::Event> random_pattern(sim::Rng& rng, std::uint64_t ranks,
                                          std::uint64_t destinations) {
  std::vector<engine::Event> pattern(1 + rng.below(8));
  for (engine::Event& e : pattern) {
    e = random_message(rng, ranks, destinations);
  }
  return pattern;
}

/// n messages over `destinations` receivers: a repeated random pattern,
/// optionally with isolated replacements and pattern switches, or noise.
std::vector<engine::Event> make_stream(Shape shape, sim::Rng& rng, std::size_t n,
                                       std::uint64_t destinations) {
  const std::uint64_t ranks = 2 + rng.below(10);
  std::vector<engine::Event> pattern = random_pattern(rng, ranks, destinations);
  std::vector<engine::Event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::Periodic:
        out.push_back(pattern[i % pattern.size()]);
        break;
      case Shape::Noisy:
        if (rng.below(200) == 0) {
          pattern = random_pattern(rng, ranks, destinations);
        }
        out.push_back(rng.below(25) == 0 ? random_message(rng, ranks, destinations)
                                         : pattern[i % pattern.size()]);
        break;
      case Shape::Noise:
        out.push_back(random_message(rng, ranks, destinations));
        break;
    }
  }
  return out;
}

struct Streams {
  std::vector<std::int64_t> senders;
  std::vector<std::int64_t> sizes;
};

Streams single_receiver(const std::vector<engine::Event>& events) {
  Streams out;
  for (const engine::Event& e : events) {
    out.senders.push_back(e.source);
    out.sizes.push_back(e.bytes);
  }
  return out;
}

/// Every seeded single-receiver stream the what-if views are driven with,
/// the empty stream first.
std::vector<Streams> what_if_streams() {
  std::vector<Streams> out{Streams{}};
  for (const Shape shape : {Shape::Periodic, Shape::Noisy, Shape::Noise}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(shape));
      out.push_back(single_receiver(make_stream(shape, rng, 200 + rng.below(1200), 1)));
    }
  }
  // A new, larger flow closes the stream: the plan re-read after the last
  // arrival pledges more than any plan an arrival was checked against.
  Streams tail{.senders = std::vector<std::int64_t>(300, 1),
               .sizes = std::vector<std::int64_t>(300, 512)};
  tail.senders.push_back(7);
  tail.sizes.push_back(100000);
  out.push_back(std::move(tail));
  return out;
}

constexpr const char* kPredictors[] = {"dpd", "last-value", "markov-1"};

// ---------------------------------------------------------------------
// Field-by-field comparisons (== on doubles: the sums must run in the
// same order).

void expect_same(const scale::RendezvousReport& got, const scale::RendezvousReport& want) {
  EXPECT_EQ(got.long_messages, want.long_messages);
  EXPECT_EQ(got.elided, want.elided);
  EXPECT_EQ(got.baseline_latency_ns, want.baseline_latency_ns);
  EXPECT_EQ(got.predicted_latency_ns, want.predicted_latency_ns);
}

void expect_same(const scale::CreditFlowReport& got, const scale::CreditFlowReport& want) {
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.credit_hits, want.credit_hits);
  EXPECT_EQ(got.credit_misses, want.credit_misses);
  EXPECT_EQ(got.peak_pledged_bytes, want.peak_pledged_bytes);
  EXPECT_EQ(got.total_latency_ns, want.total_latency_ns);
}

void expect_same(const scale::BufferPolicyReport& got, const scale::BufferPolicyReport& want) {
  EXPECT_EQ(got.policy, want.policy);
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.avg_buffers, want.avg_buffers);
  EXPECT_EQ(got.peak_buffers, want.peak_buffers);
  EXPECT_EQ(got.buffer_bytes, want.buffer_bytes);
}

void expect_same(const adaptive::PolicyStats& got, const adaptive::PolicyStats& want) {
  EXPECT_EQ(got.messages, want.messages);
  EXPECT_EQ(got.prepost_hits, want.prepost_hits);
  EXPECT_EQ(got.prepost_misses, want.prepost_misses);
  EXPECT_EQ(got.peak_buffers, want.peak_buffers);
  EXPECT_EQ(got.buffer_sum, want.buffer_sum);
  EXPECT_EQ(got.eager_sends, want.eager_sends);
  EXPECT_EQ(got.rendezvous_sends, want.rendezvous_sends);
  EXPECT_EQ(got.rendezvous_elided, want.rendezvous_elided);
  EXPECT_EQ(got.degraded_arrivals, want.degraded_arrivals);
  EXPECT_EQ(got.elision_saved_ns, want.elision_saved_ns);
}

// ---------------------------------------------------------------------
// The what-if views.

TEST(ReplayOracle, RendezvousViewMatchesReference) {
  std::int64_t elided = 0;
  for (const char* predictor : kPredictors) {
    for (const std::int64_t threshold : {std::int64_t{16 * 1024}, std::int64_t{0},
                                         std::int64_t{1024}, std::int64_t{32768}}) {
      scale::RendezvousConfig cfg;
      cfg.engine.predictor = predictor;
      cfg.threshold_bytes = threshold;
      for (const Streams& s : what_if_streams()) {
        SCOPED_TRACE(::testing::Message() << predictor << " threshold=" << threshold
                                          << " n=" << s.senders.size());
        const scale::RendezvousReport want =
            reference::evaluate_rendezvous_elision(s.senders, s.sizes, cfg);
        expect_same(scale::evaluate_rendezvous_elision(s.senders, s.sizes, cfg), want);
        elided += want.elided;
      }
    }
  }
  EXPECT_GT(elided, 0);  // the streams exercise the elision branch
}

TEST(ReplayOracle, CreditViewMatchesReference) {
  std::int64_t hits = 0;
  for (const char* predictor : kPredictors) {
    for (const std::int64_t granule : {std::int64_t{1024}, std::int64_t{1}, std::int64_t{4096},
                                       std::int64_t{3000}}) {
      scale::CreditFlowConfig cfg;
      cfg.engine.predictor = predictor;
      cfg.granule_bytes = granule;
      for (const Streams& s : what_if_streams()) {
        SCOPED_TRACE(::testing::Message() << predictor << " granule=" << granule
                                          << " n=" << s.senders.size());
        const scale::CreditComparison want =
            reference::compare_credit_policies(s.senders, s.sizes, cfg);
        const scale::CreditComparison got =
            scale::compare_credit_policies(s.senders, s.sizes, cfg);
        expect_same(got.eager_everything, want.eager_everything);
        expect_same(got.always_ask, want.always_ask);
        expect_same(got.predicted_credits, want.predicted_credits);
        hits += want.predicted_credits.credit_hits;
      }
    }
  }
  EXPECT_GT(hits, 0);
}

TEST(ReplayOracle, BufferViewMatchesReference) {
  std::int64_t hits = 0;
  for (const char* predictor : kPredictors) {
    for (const std::size_t lru_keep : {std::size_t{3}, std::size_t{0}, std::size_t{6}}) {
      scale::BufferManagerConfig cfg;
      cfg.engine.predictor = predictor;
      cfg.lru_keep = lru_keep;
      for (const Streams& s : what_if_streams()) {
        SCOPED_TRACE(::testing::Message() << predictor << " lru_keep=" << lru_keep
                                          << " n=" << s.senders.size());
        const scale::BufferComparison want =
            reference::compare_buffer_policies(s.senders, 12, cfg);
        const scale::BufferComparison got = scale::compare_buffer_policies(s.senders, 12, cfg);
        expect_same(got.all_pairs, want.all_pairs);
        expect_same(got.predicted, want.predicted);
        expect_same(got.none, want.none);
        hits += want.predicted.hits;
      }
    }
  }
  EXPECT_GT(hits, 0);
}

// ---------------------------------------------------------------------
// The ingested-trace replay, with telemetry and without.

std::vector<adaptive::RuntimeConfig> runtime_configs() {
  std::vector<adaptive::RuntimeConfig> out(5);
  out[1].service.engine.predictor = "last-value";
  out[2].service.engine.predictor = "markov-1";
  out[2].service.by_tag = true;
  out[3].policy.min_confidence = 0.5;  // degrade path
  out[3].policy.rendezvous_threshold_bytes = 1024;
  out[4].service.engine.shards = 3;
  out[4].policy.lru_keep = 1;
  return out;
}

TEST(ReplayOracle, AdaptiveTraceReplayMatchesReference) {
  std::int64_t elided = 0;
  for (const adaptive::RuntimeConfig& cfg : runtime_configs()) {
    for (const Shape shape : {Shape::Periodic, Shape::Noisy, Shape::Noise}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Rng rng(seed * 104729 + static_cast<std::uint64_t>(shape));
        const std::vector<engine::Event> events =
            make_stream(shape, rng, 300 + rng.below(1500), 1 + rng.below(4));
        SCOPED_TRACE(::testing::Message() << cfg.service.engine.predictor << " shape="
                                          << static_cast<int>(shape) << " seed=" << seed);
        const ingest::AdaptiveReplay want = reference::replay_adaptive(events, cfg, nullptr);
        const ingest::AdaptiveReplay got = ingest::replay_adaptive(events, cfg);
        expect_same(got.stats, want.stats);
        EXPECT_EQ(got.summary(), want.summary());
        elided += want.stats.rendezvous_elided;
      }
    }
  }
  EXPECT_GT(elided, 0);
}

TEST(ReplayOracle, InstrumentedTraceReplayMatchesReference) {
  for (const adaptive::RuntimeConfig& cfg : runtime_configs()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      sim::Rng rng(seed * 15485863);
      const std::vector<engine::Event> events = make_stream(Shape::Noisy, rng, 800, 3);
      SCOPED_TRACE(::testing::Message() << cfg.service.engine.predictor << " seed=" << seed);
      telemetry::Telemetry want_telem;
      want_telem.enable_tracing();
      const ingest::AdaptiveReplay want = reference::replay_adaptive(events, cfg, &want_telem);
      telemetry::Telemetry got_telem;
      got_telem.enable_tracing();
      const ingest::AdaptiveReplay got = ingest::replay_adaptive(events, cfg, &got_telem);
      expect_same(got.stats, want.stats);
      EXPECT_EQ(got.summary(), want.summary());
      EXPECT_EQ(got_telem.metrics().snapshot().to_json(),
                want_telem.metrics().snapshot().to_json());
      std::ostringstream got_trace;
      std::ostringstream want_trace;
      got_telem.trace_sink().write_json(got_trace);
      want_telem.trace_sink().write_json(want_trace);
      EXPECT_EQ(got_trace.str(), want_trace.str());
    }
  }
}

TEST(ReplayOracle, EmptyTraceReplayMatchesReference) {
  const std::vector<engine::Event> none;
  telemetry::Telemetry want_telem;
  want_telem.enable_tracing();
  telemetry::Telemetry got_telem;
  got_telem.enable_tracing();
  const ingest::AdaptiveReplay want = reference::replay_adaptive(none, {}, &want_telem);
  const ingest::AdaptiveReplay got = ingest::replay_adaptive(none, {}, &got_telem);
  expect_same(got.stats, want.stats);
  EXPECT_EQ(got.summary(), want.summary());
  EXPECT_EQ(got_telem.metrics().snapshot().to_json(), want_telem.metrics().snapshot().to_json());
  EXPECT_EQ(got_telem.trace_sink().size(), 0u);
}

}  // namespace
}  // namespace mpipred
