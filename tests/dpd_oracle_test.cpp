// Differential oracle for the DPD core: the production detectors select
// their prediction lag (PeriodicityDetector) or period
// (WindowedDpdPredictor) once per observe() and index the sample ring
// without modulo. This test keeps the straightforward formulation — every
// query rescans all lags, every ring read takes a modulo — as a reference
// copy, drives both with seeded random streams (clean periodic, isolated
// swaps, phase shifts, pattern switches, pure noise, reset mid-stream)
// under several DpdConfigs, and requires identical answers after every
// single sample. The lag scan is compiled once per CPU tier; every tier
// this build and CPU support is held to the reference's full state (each
// lag's run and score, not only the predictions).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "core/dpd.hpp"
#include "core/stream_predictor.hpp"
#include "core/windowed_dpd.hpp"
#include "sim/rng.hpp"

namespace mpipred::core {
namespace reference {

// ---------------------------------------------------------------------
// Reference detector: the rescanning formulation, kept as it was before
// lag selection moved into observe().

class PeriodicityDetector {
 public:
  using Value = std::int64_t;

  explicit PeriodicityDetector(DpdConfig cfg = {});
  void observe(Value v);
  [[nodiscard]] std::optional<std::size_t> period() const;
  [[nodiscard]] std::optional<std::size_t> prediction_lag() const;
  [[nodiscard]] int distance(std::size_t m) const;
  [[nodiscard]] std::size_t run(std::size_t m) const { return run_[m - 1]; }
  [[nodiscard]] std::size_t score(std::size_t m) const { return score_[m - 1]; }
  [[nodiscard]] std::int64_t samples() const noexcept { return total_; }
  [[nodiscard]] Value value_at_lag(std::size_t lag) const;
  [[nodiscard]] std::size_t buffered() const noexcept;
  [[nodiscard]] const DpdConfig& config() const noexcept { return cfg_; }
  void reset();

 private:
  [[nodiscard]] std::size_t threshold(std::size_t m) const noexcept;

  DpdConfig cfg_;
  std::vector<Value> ring_;         // circular buffer of the last `window` samples
  std::vector<std::size_t> run_;    // run_[m-1]: strict consecutive matches at lag m
  std::vector<std::size_t> score_;  // score_[m-1]: hysteretic match score at lag m
  std::int64_t total_ = 0;
};

PeriodicityDetector::PeriodicityDetector(DpdConfig cfg) : cfg_(cfg) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1, "max_period must be at least 1");
  MPIPRED_REQUIRE(cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods (max_period*2 <= window)");
  MPIPRED_REQUIRE(cfg_.confirm_periods >= 1, "confirm_periods must be at least 1");
  MPIPRED_REQUIRE(cfg_.mismatch_penalty >= 1, "mismatch penalty must be at least 1");
  ring_.assign(cfg_.window, Value{0});
  run_.assign(cfg_.max_period, 0);
  score_.assign(cfg_.max_period, 0);
}

void PeriodicityDetector::reset() {
  std::fill(ring_.begin(), ring_.end(), Value{0});
  std::fill(run_.begin(), run_.end(), std::size_t{0});
  std::fill(score_.begin(), score_.end(), std::size_t{0});
  total_ = 0;
}

std::size_t PeriodicityDetector::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

PeriodicityDetector::Value PeriodicityDetector::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  const std::size_t pos =
      static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                               static_cast<std::int64_t>(cfg_.window));
  return ring_[pos];
}

void PeriodicityDetector::observe(Value v) {
  // Update the per-lag match scores before inserting, using the existing
  // history: the comparison is x[t] vs x[t-m]. A match earns one point
  // (capped), a mismatch costs `mismatch_penalty` — hysteresis that rides
  // through isolated glitches but drains quickly on real pattern changes.
  const auto have = static_cast<std::size_t>(std::min<std::int64_t>(
      total_, static_cast<std::int64_t>(cfg_.window)));
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    auto& run = run_[m - 1];
    auto& score = score_[m - 1];
    if (m > have) {
      run = 0;  // x[t-m] not available yet
      score = 0;
      continue;
    }
    if (value_at_lag(m - 1) == v) {  // lag m-1 of the *old* buffer == x[t-m] of the new sample
      ++run;
      score = std::min(score + 1, 2 * threshold(m));
    } else {
      run = 0;
      score -= std::min(score, cfg_.mismatch_penalty);
    }
  }
  ring_[static_cast<std::size_t>(total_ % static_cast<std::int64_t>(cfg_.window))] = v;
  ++total_;
}

std::size_t PeriodicityDetector::threshold(std::size_t m) const noexcept {
  return std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples);
}

std::optional<std::size_t> PeriodicityDetector::period() const {
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (run_[m - 1] < threshold(m)) {
      continue;
    }
    // Exact verification over a recent window of ~3 periods (at least the
    // confirmation floor): the window must be m-periodic sample for
    // sample, which score drift cannot fake.
    const std::size_t span =
        std::min(buffered(), std::max(3 * m, 2 * cfg_.min_confirm_samples));
    if (span <= m) {
      continue;
    }
    bool exact = true;
    for (std::size_t i = 0; i + m < span && exact; ++i) {
      exact = value_at_lag(i) == value_at_lag(i + m);
    }
    if (exact) {
      return m;
    }
  }
  return std::nullopt;
}

std::optional<std::size_t> PeriodicityDetector::prediction_lag() const {
  // First choice: strict evidence. Among lags whose *consecutive* match
  // run passes the threshold, take the smallest one within half of the
  // longest run — on clean streams this is the fundamental period (or a
  // harmless multiple), and the evidence weighting discards lags that only
  // hold locally.
  std::size_t best_run = 0;
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (run_[m - 1] >= threshold(m)) {
      best_run = std::max(best_run, run_[m - 1]);
    }
  }
  if (best_run > 0) {
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      if (run_[m - 1] >= threshold(m) && 2 * run_[m - 1] >= best_run) {
        return m;
      }
    }
  }
  // Fallback: hysteretic evidence. Right after an isolated reordering all
  // strict runs are broken; the capped scores remember which lags held
  // until a moment ago, so prediction continues instead of going silent
  // for a whole relearning interval.
  std::size_t best_score = 0;
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (score_[m - 1] >= threshold(m)) {
      best_score = std::max(best_score, score_[m - 1]);
    }
  }
  if (best_score == 0) {
    return std::nullopt;
  }
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (score_[m - 1] >= threshold(m) && 2 * score_[m - 1] >= best_score) {
      return m;
    }
  }
  return std::nullopt;  // unreachable: the best-scoring lag qualifies
}

int PeriodicityDetector::distance(std::size_t m) const {
  MPIPRED_REQUIRE(m >= 1 && m <= cfg_.max_period, "delay out of range");
  const std::size_t n = buffered();
  if (n <= m) {
    return 1;  // nothing comparable: treat as "not periodic at m"
  }
  for (std::size_t i = 0; i + m < n; ++i) {
    // Compare x[t-i] with x[t-i-m] over the window.
    if (value_at_lag(i) != value_at_lag(i + m)) {
      return 1;
    }
  }
  return 0;
}

/// StreamPredictor::predict(h) over the reference detector.
std::optional<std::int64_t> predict(const PeriodicityDetector& detector,
                                    const StreamPredictorConfig& cfg, std::size_t h) {
  MPIPRED_REQUIRE(h >= 1 && h <= cfg.horizon, "horizon out of range");
  const auto period = detector.prediction_lag();
  if (!period) {
    if (cfg.last_value_fallback && detector.samples() > 0) {
      return detector.value_at_lag(0);
    }
    return std::nullopt;
  }
  const std::size_t m = *period;
  const std::size_t k = (h + m - 1) / m;  // ceil(h / m)
  const std::size_t lag = k * m - h;      // in [0, m)
  if (lag >= detector.buffered()) {
    return std::nullopt;
  }
  return detector.value_at_lag(lag);
}

// ---------------------------------------------------------------------
// Reference full-window predictor: period() rescans all lags per call.

class WindowedDpdPredictor {
 public:
  using Value = std::int64_t;

  explicit WindowedDpdPredictor(DpdConfig cfg = {}, std::size_t horizon = 5);
  void observe(Value v);
  [[nodiscard]] std::optional<Value> predict(std::size_t h) const;
  [[nodiscard]] std::optional<std::size_t> period() const;
  [[nodiscard]] std::int64_t samples() const noexcept { return total_; }
  void reset();

 private:
  [[nodiscard]] std::size_t buffered() const noexcept;
  [[nodiscard]] Value value_at_lag(std::size_t lag) const;

  DpdConfig cfg_;
  std::size_t horizon_;
  std::vector<Value> ring_;
  std::vector<std::int64_t> last_bad_;
  std::int64_t total_ = 0;
};

WindowedDpdPredictor::WindowedDpdPredictor(DpdConfig cfg, std::size_t horizon)
    : cfg_(cfg), horizon_(horizon) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1 && cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods");
  MPIPRED_REQUIRE(horizon >= 1 && horizon <= cfg_.window - cfg_.max_period,
                  "horizon must leave a full period of lookback");
  ring_.assign(cfg_.window, Value{0});
  last_bad_.assign(cfg_.max_period, -1);
}

void WindowedDpdPredictor::reset() {
  std::fill(ring_.begin(), ring_.end(), Value{0});
  std::fill(last_bad_.begin(), last_bad_.end(), std::int64_t{-1});
  total_ = 0;
}

std::size_t WindowedDpdPredictor::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

WindowedDpdPredictor::Value WindowedDpdPredictor::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  return ring_[static_cast<std::size_t>((total_ - 1 - static_cast<std::int64_t>(lag)) %
                                        static_cast<std::int64_t>(cfg_.window))];
}

void WindowedDpdPredictor::observe(Value v) {
  const std::size_t have = buffered();
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (m > have) {
      continue;  // x[t-m] does not exist yet: no comparison at this lag
    }
    if (value_at_lag(m - 1) != v) {
      last_bad_[m - 1] = total_;
    }
  }
  ring_[static_cast<std::size_t>(total_ % static_cast<std::int64_t>(cfg_.window))] = v;
  ++total_;
}

std::optional<std::size_t> WindowedDpdPredictor::period() const {
  const auto window_start = total_ - static_cast<std::int64_t>(buffered());
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    // d(m) == 0 over the window: the latest mismatch predates the window.
    if (last_bad_[m - 1] >= window_start) {
      continue;
    }
    // Require enough *comparable* clean samples (learning, as in the
    // paper): comparisons exist from index m on, and only those after the
    // last mismatch count.
    const std::int64_t clean = std::min(total_ - static_cast<std::int64_t>(m),
                                        total_ - last_bad_[m - 1] - 1);
    if (clean >= static_cast<std::int64_t>(
                     std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples))) {
      return m;
    }
  }
  return std::nullopt;
}

std::optional<WindowedDpdPredictor::Value> WindowedDpdPredictor::predict(std::size_t h) const {
  MPIPRED_REQUIRE(h >= 1 && h <= horizon_, "horizon out of range");
  const auto period = this->period();
  if (!period) {
    return std::nullopt;
  }
  const std::size_t m = *period;
  const std::size_t k = (h + m - 1) / m;
  const std::size_t lag = k * m - h;
  if (lag >= buffered()) {
    return std::nullopt;
  }
  return value_at_lag(lag);
}

}  // namespace reference

namespace {

// ---------------------------------------------------------------------
// Seeded stream generators. Each draws values from a small alphabet so
// lags match by accident as well as by design.

enum class Shape { Clean, Swaps, PhaseShifts, PatternSwitches, Noise };

std::string to_string(Shape s) {
  switch (s) {
    case Shape::Clean:
      return "clean";
    case Shape::Swaps:
      return "swaps";
    case Shape::PhaseShifts:
      return "phase_shifts";
    case Shape::PatternSwitches:
      return "pattern_switches";
    case Shape::Noise:
      return "noise";
  }
  return "?";
}

std::vector<std::int64_t> random_pattern(sim::Rng& rng, std::size_t max_len,
                                         std::uint64_t alphabet) {
  std::vector<std::int64_t> pattern(1 + rng.below(max_len));
  for (auto& v : pattern) {
    v = static_cast<std::int64_t>(rng.below(alphabet));
  }
  return pattern;
}

std::vector<std::int64_t> make_stream(Shape shape, sim::Rng& rng, std::size_t n,
                                      std::size_t max_len) {
  const std::uint64_t alphabet = 2 + rng.below(6);
  std::vector<std::int64_t> pattern = random_pattern(rng, max_len, alphabet);
  std::vector<std::int64_t> out;
  out.reserve(n);
  std::size_t pos = 0;
  while (out.size() < n) {
    switch (shape) {
      case Shape::Clean:
        break;
      case Shape::Swaps:
        // An isolated reordering: two neighbours trade places.
        if (rng.below(40) == 0 && !out.empty()) {
          out.push_back(pattern[pos % pattern.size()]);
          std::swap(out[out.size() - 1], out[out.size() - 2]);
          ++pos;
          continue;
        }
        break;
      case Shape::PhaseShifts:
        // Skip ahead or fall back inside the pattern.
        if (rng.below(60) == 0) {
          pos += 1 + rng.below(pattern.size() + 1);
        }
        break;
      case Shape::PatternSwitches:
        if (rng.below(150) == 0) {
          pattern = random_pattern(rng, max_len, alphabet);
          pos = 0;
        }
        break;
      case Shape::Noise:
        out.push_back(static_cast<std::int64_t>(rng.below(alphabet)));
        continue;
    }
    out.push_back(pattern[pos % pattern.size()]);
    ++pos;
  }
  return out;
}

struct OracleCase {
  std::string name;
  DpdConfig dpd;
  bool last_value_fallback = false;
};

void PrintTo(const OracleCase& c, std::ostream* os) {
  *os << c.name;
}

std::vector<OracleCase> oracle_cases() {
  return {
      {"default", {}},
      {"tiny_wrapping_ring", {.window = 8, .max_period = 4}},
      {"small_no_floor", {.window = 16, .max_period = 8, .min_confirm_samples = 1}},
      {"confirm_two_periods", {.window = 64, .max_period = 32, .confirm_periods = 2}},
      {"penalty_one", {.window = 48, .max_period = 24, .mismatch_penalty = 1}},
      {"penalty_three", {.window = 40, .max_period = 20, .mismatch_penalty = 3}},
      {"odd_window_fallback", {.window = 37, .max_period = 17}, true},
  };
}

constexpr Shape kShapes[] = {Shape::Clean, Shape::Swaps, Shape::PhaseShifts,
                             Shape::PatternSwitches, Shape::Noise};

std::size_t horizon_for(const DpdConfig& dpd) {
  return std::min<std::size_t>(5, dpd.window - dpd.max_period);
}

class DpdOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(DpdOracle, StreamPredictorMatchesReferenceAfterEverySample) {
  const OracleCase& c = GetParam();
  StreamPredictorConfig cfg;
  cfg.dpd = c.dpd;
  cfg.horizon = horizon_for(c.dpd);
  cfg.last_value_fallback = c.last_value_fallback;
  const bool check_distance = c.dpd.window <= 64;
  // Coverage: the comparison must see locked and unlocked states, and
  // lags that only the hysteretic fallback (or an inexact lock) holds.
  std::size_t locked = 0;
  std::size_t unlocked = 0;
  std::size_t locked_without_period = 0;
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(to_string(shape) + " seed " + std::to_string(seed));
      sim::Rng rng(seed * 7919 + static_cast<std::uint64_t>(shape));
      const std::size_t n = 3 * c.dpd.window + 400;
      // Patterns up to a little beyond max_period: some streams are
      // periodic at a lag the detector cannot see.
      const auto stream = make_stream(shape, rng, n, c.dpd.max_period + 3);
      StreamPredictor fast(cfg);
      reference::PeriodicityDetector ref(cfg.dpd);
      for (std::size_t t = 0; t < stream.size(); ++t) {
        if (rng.below(500) == 0) {  // stream restart mid-way
          fast.reset();
          ref.reset();
          ASSERT_EQ(fast.detector().prediction_lag(), ref.prediction_lag()) << "t=" << t;
          ASSERT_EQ(fast.predict(1), reference::predict(ref, cfg, 1)) << "t=" << t;
        }
        fast.observe(stream[t]);
        ref.observe(stream[t]);
        const PeriodicityDetector& det = fast.detector();
        ASSERT_EQ(det.samples(), ref.samples()) << "t=" << t;
        ASSERT_EQ(det.buffered(), ref.buffered()) << "t=" << t;
        ASSERT_EQ(det.prediction_lag(), ref.prediction_lag()) << "t=" << t;
        ASSERT_EQ(det.period(), ref.period()) << "t=" << t;
        if (det.prediction_lag()) {
          ++locked;
          locked_without_period += det.period() ? 0 : 1;
        } else {
          ++unlocked;
        }
        for (std::size_t i = 0; i < ref.buffered(); ++i) {
          ASSERT_EQ(det.value_at_lag(i), ref.value_at_lag(i)) << "t=" << t << " lag=" << i;
        }
        for (std::size_t h = 1; h <= cfg.horizon; ++h) {
          ASSERT_EQ(fast.predict(h), reference::predict(ref, cfg, h)) << "t=" << t << " h=" << h;
        }
        if (check_distance) {
          for (std::size_t m = 1; m <= cfg.dpd.max_period; ++m) {
            ASSERT_EQ(det.distance(m), ref.distance(m)) << "t=" << t << " m=" << m;
          }
        }
      }
    }
  }
  EXPECT_GT(locked, 0u);
  EXPECT_GT(unlocked, 0u);
  EXPECT_GT(locked_without_period, 0u);
}

TEST_P(DpdOracle, EveryTierMatchesReferenceStateAfterEverySample) {
  const OracleCase& c = GetParam();
  const std::size_t m_max = c.dpd.max_period;
  for (const LagScanTier tier : supported_lag_scan_tiers()) {
    SCOPED_TRACE("tier " + std::string(to_string(tier)));
    std::size_t strict = 0;    // the lag came from a passing run
    std::size_t fallback = 0;  // ...or only from the hysteretic scores
    for (const Shape shape : kShapes) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(to_string(shape) + " seed " + std::to_string(seed));
        sim::Rng rng(seed * 6007 + static_cast<std::uint64_t>(shape));
        const auto stream = make_stream(shape, rng, 3 * c.dpd.window + 400, m_max + 3);
        PeriodicityDetector det(c.dpd);
        reference::PeriodicityDetector ref(c.dpd);
        for (std::size_t t = 0; t < stream.size(); ++t) {
          if (rng.below(500) == 0) {
            det.reset();
            ref.reset();
          }
          det.observe(stream[t], tier);
          ref.observe(stream[t]);
          ASSERT_EQ(det.samples(), ref.samples()) << "t=" << t;
          ASSERT_EQ(det.prediction_lag(), ref.prediction_lag()) << "t=" << t;
          ASSERT_EQ(det.period(), ref.period()) << "t=" << t;
          bool any_run = false;
          for (std::size_t m = 1; m <= m_max; ++m) {
            ASSERT_EQ(det.run(m), ref.run(m)) << "t=" << t << " m=" << m;
            ASSERT_EQ(det.score(m), ref.score(m)) << "t=" << t << " m=" << m;
            any_run = any_run || ref.run(m) >= std::max(c.dpd.confirm_periods * m,
                                                        c.dpd.min_confirm_samples);
          }
          for (std::size_t i = 0; i < ref.buffered(); ++i) {
            ASSERT_EQ(det.value_at_lag(i), ref.value_at_lag(i)) << "t=" << t << " lag=" << i;
          }
          if (det.prediction_lag()) {
            (any_run ? strict : fallback) += 1;
          }
        }
      }
    }
    EXPECT_GT(strict, 0u);
    EXPECT_GT(fallback, 0u);
  }
}

TEST_P(DpdOracle, WindowedPredictorMatchesReferenceAfterEverySample) {
  const OracleCase& c = GetParam();
  const std::size_t horizon = horizon_for(c.dpd);
  std::size_t detected = 0;
  std::size_t silent = 0;
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(to_string(shape) + " seed " + std::to_string(seed));
      sim::Rng rng(seed * 104729 + static_cast<std::uint64_t>(shape));
      const auto stream = make_stream(shape, rng, 3 * c.dpd.window + 400, c.dpd.max_period + 3);
      WindowedDpdPredictor fast(c.dpd, horizon);
      reference::WindowedDpdPredictor ref(c.dpd, horizon);
      for (std::size_t t = 0; t < stream.size(); ++t) {
        if (rng.below(500) == 0) {
          fast.reset();
          ref.reset();
          ASSERT_EQ(fast.period(), ref.period()) << "t=" << t;
        }
        fast.observe(stream[t]);
        ref.observe(stream[t]);
        ASSERT_EQ(fast.samples(), ref.samples()) << "t=" << t;
        ASSERT_EQ(fast.period(), ref.period()) << "t=" << t;
        (fast.period() ? detected : silent) += 1;
        for (std::size_t h = 1; h <= horizon; ++h) {
          ASSERT_EQ(fast.predict(h), ref.predict(h)) << "t=" << t << " h=" << h;
        }
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(silent, 0u);
}

INSTANTIATE_TEST_SUITE_P(Configs, DpdOracle, ::testing::ValuesIn(oracle_cases()),
                         [](const ::testing::TestParamInfo<OracleCase>& info) {
                           return info.param.name;
                         });

TEST(DpdTiers, DispatchesTheWidestSupportedTier) {
  const auto tiers = supported_lag_scan_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), LagScanTier::Generic);
  EXPECT_EQ(dispatched_lag_scan_tier(), tiers.back());
  std::string names;
  for (const LagScanTier tier : tiers) {
    names += (names.empty() ? "" : " ") + std::string(to_string(tier));
  }
  std::cout << "lag scan: dispatched " << to_string(dispatched_lag_scan_tier())
            << " (supported: " << names << ")\n";
  RecordProperty("dispatched_tier", std::string(to_string(dispatched_lag_scan_tier())));
  // A tier this build or CPU lacks is refused, never run.
  for (const LagScanTier tier : {LagScanTier::Generic, LagScanTier::Avx2, LagScanTier::Avx512}) {
    if (std::find(tiers.begin(), tiers.end(), tier) == tiers.end()) {
      PeriodicityDetector det;
      EXPECT_THROW(det.observe(1, tier), UsageError) << to_string(tier);
    }
  }
}

TEST(DpdTiers, DefaultFootprintIsPinned) {
  // Every report's footprint_bytes sums this figure; a change to the
  // detector's layout (another member, a wider counter) must show here
  // before it silently moves them. LP64: 184 B of object, a 512-sample
  // ring and 2 x 256 lag counters of 8 B.
  if constexpr (sizeof(void*) != 8) {
    GTEST_SKIP() << "pinned for 64-bit targets";
  }
  EXPECT_EQ(StreamPredictor{}.footprint_bytes(), 8376u);
}

TEST(DpdOracle, ResetForgetsTheCachedLagAndPeriod) {
  StreamPredictor p;
  WindowedDpdPredictor w;
  for (int i = 0; i < 64; ++i) {
    p.observe(i % 4);
    w.observe(i % 4);
  }
  ASSERT_TRUE(p.detector().prediction_lag().has_value());
  ASSERT_TRUE(w.period().has_value());
  p.reset();
  w.reset();
  EXPECT_FALSE(p.detector().prediction_lag().has_value());
  EXPECT_FALSE(p.predict(1).has_value());
  EXPECT_FALSE(w.period().has_value());
  EXPECT_FALSE(w.predict(1).has_value());
}

}  // namespace
}  // namespace mpipred::core
