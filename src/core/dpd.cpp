#include "core/dpd.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mpipred::core {

PeriodicityDetector::PeriodicityDetector(DpdConfig cfg) : cfg_(cfg) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1, "max_period must be at least 1");
  MPIPRED_REQUIRE(cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods (max_period*2 <= window)");
  MPIPRED_REQUIRE(cfg_.confirm_periods >= 1, "confirm_periods must be at least 1");
  MPIPRED_REQUIRE(cfg_.mismatch_penalty >= 1, "mismatch penalty must be at least 1");
  ring_.assign(cfg_.window, Value{0});
  lags_.assign(cfg_.max_period, LagState{});
}

void PeriodicityDetector::reset() {
  std::fill(ring_.begin(), ring_.end(), Value{0});
  std::fill(lags_.begin(), lags_.end(), LagState{});
  total_ = 0;
  head_ = 0;
  lag_.reset();
}

std::size_t PeriodicityDetector::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

PeriodicityDetector::Value PeriodicityDetector::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  return lag < head_ ? ring_[head_ - 1 - lag] : ring_[head_ + cfg_.window - 1 - lag];
}

void PeriodicityDetector::observe(Value v) {
  // Update the per-lag match scores before inserting, using the existing
  // history: the comparison is x[t] vs x[t-m]. A match earns one point
  // (capped), a mismatch costs `mismatch_penalty` — hysteresis that rides
  // through isolated glitches but drains quickly on real pattern changes.
  // Lags beyond the buffered history have no x[t-m] yet; their state is
  // still zero from construction or reset() (buffered() only grows until
  // then), so the loop stops at them.
  const std::size_t limit = std::min(buffered(), cfg_.max_period);
  std::size_t best_run = 0;    // longest run that passes its lag's threshold
  std::size_t best_score = 0;  // highest score that passes its lag's threshold
  const auto update = [&](std::size_t m, Value past) {
    LagState& lag = lags_[m - 1];
    const std::size_t need = threshold(m);
    if (past == v) {
      ++lag.run;
      lag.score = std::min(lag.score + 1, 2 * need);
    } else {
      lag.run = 0;
      lag.score -= std::min(lag.score, cfg_.mismatch_penalty);
    }
    if (lag.run >= need) {
      best_run = std::max(best_run, lag.run);
    }
    if (lag.score >= need) {
      best_score = std::max(best_score, lag.score);
    }
  };
  // x[t-m] lies in two contiguous segments of the ring: just below head_
  // for m <= head_, and wrapped to the top of the ring beyond that.
  const std::size_t near = std::min(limit, head_);
  for (std::size_t m = 1; m <= near; ++m) {
    update(m, ring_[head_ - m]);
  }
  for (std::size_t m = near + 1; m <= limit; ++m) {
    update(m, ring_[head_ + cfg_.window - m]);
  }
  ring_[head_] = v;
  head_ = head_ + 1 == cfg_.window ? 0 : head_ + 1;
  ++total_;
  lag_ = select_lag(best_run, best_score);
}

std::size_t PeriodicityDetector::threshold(std::size_t m) const noexcept {
  return std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples);
}

std::optional<std::size_t> PeriodicityDetector::period() const {
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (lags_[m - 1].run < threshold(m)) {
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

std::optional<std::size_t> PeriodicityDetector::select_lag(std::size_t best_run,
                                                           std::size_t best_score) const noexcept {
  // First choice: strict evidence. Among lags whose *consecutive* match
  // run passes the threshold, take the smallest one within half of the
  // longest run — on clean streams this is the fundamental period (or a
  // harmless multiple), and the evidence weighting discards lags that only
  // hold locally.
  if (best_run > 0) {
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      const LagState& lag = lags_[m - 1];
      if (lag.run >= threshold(m) && 2 * lag.run >= best_run) {
        return m;
      }
    }
  }
  // Fallback: hysteretic evidence. Right after an isolated reordering all
  // strict runs are broken; the capped scores remember which lags held
  // until a moment ago, so prediction continues instead of going silent
  // for a whole relearning interval.
  if (best_score > 0) {
    for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
      const LagState& lag = lags_[m - 1];
      if (lag.score >= threshold(m) && 2 * lag.score >= best_score) {
        return m;
      }
    }
  }
  return std::nullopt;
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

}  // namespace mpipred::core
