#include "core/windowed_dpd.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace mpipred::core {

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
  head_ = 0;
  period_.reset();
}

std::size_t WindowedDpdPredictor::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

Predictor::Value WindowedDpdPredictor::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  return lag < head_ ? ring_[head_ - 1 - lag] : ring_[head_ + cfg_.window - 1 - lag];
}

void WindowedDpdPredictor::observe(Value v) {
  // No comparison at lags m > buffered(): x[t-m] does not exist yet.
  const std::size_t limit = std::min(buffered(), cfg_.max_period);
  // x[t-m] lies just below head_ for m <= head_, and wraps to the top of
  // the ring beyond that.
  const std::size_t near = std::min(limit, head_);
  for (std::size_t m = 1; m <= near; ++m) {
    if (ring_[head_ - m] != v) {
      last_bad_[m - 1] = total_;
    }
  }
  for (std::size_t m = near + 1; m <= limit; ++m) {
    if (ring_[head_ + cfg_.window - m] != v) {
      last_bad_[m - 1] = total_;
    }
  }
  ring_[head_] = v;
  head_ = head_ + 1 == cfg_.window ? 0 : head_ + 1;
  ++total_;
  period_ = detect_period();
}

std::optional<std::size_t> WindowedDpdPredictor::detect_period() const {
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

std::optional<Predictor::Value> WindowedDpdPredictor::predict(std::size_t h) const {
  MPIPRED_REQUIRE(h >= 1 && h <= horizon_, "horizon out of range");
  if (!period_) {
    return std::nullopt;
  }
  const std::size_t m = *period_;
  const std::size_t k = (h + m - 1) / m;
  const std::size_t lag = k * m - h;
  if (lag >= buffered()) {
    return std::nullopt;
  }
  return value_at_lag(lag);
}

std::unique_ptr<Predictor> WindowedDpdPredictor::clone_fresh() const {
  return std::make_unique<WindowedDpdPredictor>(cfg_, horizon_);
}

std::size_t WindowedDpdPredictor::footprint_bytes() const {
  return sizeof(*this) + ring_.capacity() * sizeof(Value) +
         last_bad_.capacity() * sizeof(std::int64_t);
}

}  // namespace mpipred::core
