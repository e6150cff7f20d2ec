// The §2 scalability mechanisms: prediction-driven buffer allocation
// (§2.1), credit-based flow control (§2.2), and rendezvous elision (§2.3).
// All three replays are routed through the engine-backed adaptive layer —
// no direct single-stream predictor wiring (the JointPredictor-era tests
// for the query surface now live in adaptive_test.cpp).

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/error.hpp"
#include "scale/buffer_manager.hpp"
#include "scale/credit_flow.hpp"
#include "scale/rendezvous.hpp"

namespace mpipred::scale {
namespace {

std::vector<std::int64_t> cycle(std::initializer_list<std::int64_t> pattern, std::size_t n) {
  std::vector<std::int64_t> p(pattern);
  std::vector<std::int64_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(p[i % p.size()]);
  }
  return out;
}

// ---------------------------------------------------- buffer manager §2.1 --

TEST(BufferManager, PeriodicSendersNeedFewBuffers) {
  // 32-rank world, but the receiver only ever hears from 4 peers in a
  // cycle: predicted allocation should sit near 4 buffers with a high hit
  // rate, while all-pairs burns 31.
  const auto senders = cycle({3, 9, 17, 25}, 4000);
  const auto cmp = compare_buffer_policies(senders, 32);

  EXPECT_EQ(cmp.all_pairs.peak_buffers, 31);
  EXPECT_DOUBLE_EQ(cmp.all_pairs.hit_rate(), 1.0);

  EXPECT_GT(cmp.predicted.hit_rate(), 0.95);
  EXPECT_LE(cmp.predicted.peak_buffers, 6);
  EXPECT_LT(cmp.predicted.avg_memory_bytes(), 0.25 * cmp.all_pairs.avg_memory_bytes());

  EXPECT_DOUBLE_EQ(cmp.none.hit_rate(), 0.0);
}

TEST(BufferManager, MissesFallBackGracefully) {
  // An aperiodic stream: hits rare, but the replay must not crash and the
  // accounting must add up.
  std::vector<std::int64_t> senders;
  for (std::uint64_t i = 0; i < 500; ++i) {
    std::uint64_t x = i + 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    senders.push_back(static_cast<std::int64_t>((x ^ (x >> 31)) % 23));
  }
  const auto cmp = compare_buffer_policies(senders, 23);
  EXPECT_EQ(cmp.predicted.hits + cmp.predicted.misses, 500);
  EXPECT_LE(cmp.predicted.hit_rate(), 0.7);
}

TEST(BufferManager, LatencyModelOrdersPolicies) {
  const auto senders = cycle({1, 2}, 1000);
  const auto cmp = compare_buffer_policies(senders, 16);
  const LatencyModel model;
  const double fast = cmp.all_pairs.mean_latency_ns(model, 1024);
  const double mid = cmp.predicted.mean_latency_ns(model, 1024);
  const double slow = cmp.none.mean_latency_ns(model, 1024);
  EXPECT_LE(fast, mid);
  EXPECT_LT(mid, slow);
}

// ------------------------------------------------------ credit flow §2.2 --

TEST(CreditFlow, PredictableStreamGetsCreditsAndBoundedMemory) {
  const auto senders = cycle({1, 2, 3, 4}, 2000);
  const auto sizes = cycle({512, 1024, 512, 2048}, 2000);
  const auto cmp = compare_credit_policies(senders, sizes);

  EXPECT_GT(cmp.predicted_credits.hit_rate(), 0.95);
  // Memory bounded by the credit window, far below eager-everything.
  EXPECT_LT(cmp.predicted_credits.peak_pledged_bytes, 16 * 1024);
  EXPECT_GT(cmp.eager_everything.peak_pledged_bytes, 1'000'000);
  // Latency close to eager, far better than always-ask.
  EXPECT_LT(cmp.predicted_credits.mean_latency_ns(), 1.1 * cmp.eager_everything.mean_latency_ns());
  EXPECT_LT(cmp.predicted_credits.mean_latency_ns(), 0.8 * cmp.always_ask.mean_latency_ns());
}

TEST(CreditFlow, CreditRequiresSufficientBytes) {
  // Sizes alternate small/large; if the size stream were mispredicted the
  // credit would not cover the large message. With a correct period-2
  // prediction both sizes are granted correctly.
  const auto senders = cycle({1}, 600);
  const auto sizes = cycle({100, 10000}, 600);
  const auto cmp = compare_credit_policies(senders, sizes);
  EXPECT_GT(cmp.predicted_credits.hit_rate(), 0.9);
}

TEST(CreditFlow, UnpredictableStreamDegradesToAsking) {
  std::vector<std::int64_t> senders;
  std::vector<std::int64_t> sizes;
  for (std::uint64_t i = 0; i < 400; ++i) {
    std::uint64_t x = i * 0x9E3779B97F4A7C15ULL + 17;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    x ^= x >> 31;
    senders.push_back(static_cast<std::int64_t>(x % 13));
    sizes.push_back(static_cast<std::int64_t>((x >> 8) % 7 + 1) * 100);
  }
  const auto cmp = compare_credit_policies(senders, sizes);
  EXPECT_LT(cmp.predicted_credits.hit_rate(), 0.5);
  // Still correct accounting.
  EXPECT_EQ(cmp.predicted_credits.credit_hits + cmp.predicted_credits.credit_misses, 400);
}

TEST(CreditFlow, ZeroGranuleMeansNoRounding) {
  // A granule of 0 reserves exact sizes: the pledges are the raw byte
  // counts, and the per-stream credits still cover a periodic stream.
  const auto senders = cycle({1, 2}, 600);
  const auto sizes = cycle({100, 9000}, 600);
  CreditFlowConfig cfg;
  cfg.granule_bytes = 0;
  const auto cmp = compare_credit_policies(senders, sizes, cfg);
  EXPECT_EQ(cmp.eager_everything.peak_pledged_bytes, 300 * (100 + 9000));
  EXPECT_EQ(cmp.always_ask.peak_pledged_bytes, 9000);
  EXPECT_EQ(cmp.predicted_credits.peak_pledged_bytes, 100 + 9000);
  EXPECT_GT(cmp.predicted_credits.hit_rate(), 0.9);
}

TEST(CreditFlow, MismatchedStreamsThrow) {
  const std::vector<std::int64_t> a{1, 2};
  const std::vector<std::int64_t> b{1};
  EXPECT_THROW((void)compare_credit_policies(a, b), UsageError);
}

// ------------------------------------------------- rendezvous elision §2.3 --

TEST(Rendezvous, PeriodicLargeMessagesGetElided) {
  // Every 4th message is large; the pattern is periodic so the receiver
  // can pre-grant.
  const auto senders = cycle({1, 2, 3, 7}, 2000);
  const auto sizes = cycle({1024, 1024, 1024, 64 * 1024}, 2000);
  const auto report = evaluate_rendezvous_elision(senders, sizes);
  EXPECT_EQ(report.long_messages, 500);
  EXPECT_GT(report.elision_rate(), 0.95);
  EXPECT_GT(report.speedup(), 1.05);
}

TEST(Rendezvous, SmallMessagesAreIgnored) {
  const auto senders = cycle({1, 2}, 100);
  const auto sizes = cycle({512, 1024}, 100);
  const auto report = evaluate_rendezvous_elision(senders, sizes);
  EXPECT_EQ(report.long_messages, 0);
  EXPECT_EQ(report.elision_rate(), 0.0);
  EXPECT_EQ(report.speedup(), 1.0);
}

TEST(Rendezvous, UnderpredictedSizeIsNotElided) {
  // The size stream alternates two large values; prediction of the
  // *smaller* one must not elide the bigger message (buffer too small).
  // With period 2 both are predicted exactly, so elision still works; but
  // an aperiodic size stream must not elide.
  std::vector<std::int64_t> senders(300, 1);
  std::vector<std::int64_t> sizes;
  for (std::int64_t i = 0; i < 300; ++i) {
    sizes.push_back(20'000 + (i * i * 997) % 50'000);  // aperiodic large
  }
  const auto report = evaluate_rendezvous_elision(senders, sizes);
  EXPECT_EQ(report.long_messages, 300);
  EXPECT_LT(report.elision_rate(), 0.1);
}

TEST(Rendezvous, ThresholdIsRespected) {
  const auto senders = cycle({1}, 200);
  const auto sizes = cycle({30'000}, 200);
  RendezvousConfig cfg;
  cfg.threshold_bytes = 64 * 1024;  // everything below threshold
  const auto report = evaluate_rendezvous_elision(senders, sizes, cfg);
  EXPECT_EQ(report.long_messages, 0);
}

TEST(LatencyModelSanity, HandshakeCostsTwoExtraLatencies) {
  const LatencyModel m;
  EXPECT_DOUBLE_EQ(m.handshake_ns(1000) - m.direct_ns(1000), 2.0 * m.latency_ns);
}

// ------------------------------------------------------- empty replays --

TEST(EmptyReplays, BufferPolicyRatesAreZero) {
  const std::vector<std::int64_t> empty;
  const auto cmp = compare_buffer_policies(empty, 8);
  for (const auto* report : {&cmp.all_pairs, &cmp.predicted, &cmp.none}) {
    EXPECT_EQ(report->messages, 0);
    EXPECT_EQ(report->hit_rate(), 0.0);
    EXPECT_EQ(report->avg_memory_bytes(), 0.0);
    EXPECT_EQ(report->mean_latency_ns(LatencyModel{}, 1024.0), 0.0);
  }
  EXPECT_EQ(cmp.predicted.avg_buffers, 0.0);
  const auto lru = replay_lru_buffers(empty, 4);
  EXPECT_EQ(lru.hit_rate(), 0.0);
  EXPECT_EQ(lru.avg_buffers, 0.0);
}

TEST(EmptyReplays, CreditFlowRatesAreZero) {
  const std::vector<std::int64_t> empty;
  const auto cmp = compare_credit_policies(empty, empty);
  for (const auto* report :
       {&cmp.eager_everything, &cmp.always_ask, &cmp.predicted_credits}) {
    EXPECT_EQ(report->messages, 0);
    EXPECT_EQ(report->hit_rate(), 0.0);
    EXPECT_EQ(report->mean_latency_ns(), 0.0);
  }
}

TEST(EmptyReplays, RendezvousRatesAreZero) {
  const std::vector<std::int64_t> empty;
  const auto report = evaluate_rendezvous_elision(empty, empty);
  EXPECT_EQ(report.long_messages, 0);
  EXPECT_EQ(report.elision_rate(), 0.0);
  EXPECT_EQ(report.speedup(), 1.0);
}

// ------------------------------------------------- engine-routed replays --

TEST(EngineRouting, RegistryPredictorDrivesBufferPolicy) {
  // The replay accepts any registered family through the engine config —
  // the property that retired the direct predictor wiring.
  BufferManagerConfig cfg;
  cfg.engine.predictor = "last-value";
  const auto senders = cycle({4, 4, 4, 4}, 400);
  const auto cmp = compare_buffer_policies(senders, 8, cfg);
  EXPECT_GT(cmp.predicted.hit_rate(), 0.9);  // constant stream: last-value nails it
}

TEST(EngineRouting, UnknownPredictorNameThrows) {
  BufferManagerConfig cfg;
  cfg.engine.predictor = "no-such-predictor";
  const auto senders = cycle({1, 2}, 10);
  EXPECT_THROW((void)compare_buffer_policies(senders, 4, cfg), UsageError);
}

}  // namespace
}  // namespace mpipred::scale
