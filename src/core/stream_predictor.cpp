#include "core/stream_predictor.hpp"

#include "common/assert.hpp"

namespace mpipred::core {

StreamPredictor::StreamPredictor(StreamPredictorConfig cfg) : cfg_(cfg), detector_(cfg.dpd) {
  MPIPRED_REQUIRE(cfg_.horizon >= 1, "horizon must be at least 1");
  MPIPRED_REQUIRE(cfg_.horizon <= cfg_.dpd.window - cfg_.dpd.max_period,
                  "window must retain a full period of history beyond the horizon");
}

void StreamPredictor::observe(Value v) { detector_.observe(v); }

std::optional<Predictor::Value> StreamPredictor::predict(std::size_t h) const {
  MPIPRED_REQUIRE(h >= 1 && h <= cfg_.horizon, "horizon out of range");
  // Read history through the detector's prediction lag, selected once per
  // observe(): on clean periodic streams it is the fundamental period (or
  // a multiple of it — identical predictions), and it bridges spots where
  // a small lag only held locally — see
  // PeriodicityDetector::prediction_lag(). O(1) per call.
  const auto period = detector_.prediction_lag();
  if (!period) {
    if (cfg_.last_value_fallback && detector_.samples() > 0) {
      return detector_.value_at_lag(0);
    }
    return std::nullopt;
  }
  // x̂(t+h) = x(t+h - k*m) for the smallest k that reaches into history.
  const std::size_t m = *period;
  const std::size_t k = (h + m - 1) / m;  // ceil(h / m)
  const std::size_t lag = k * m - h;      // in [0, m)
  if (lag >= detector_.buffered()) {
    return std::nullopt;  // cannot happen after confirmation, but stay safe
  }
  return detector_.value_at_lag(lag);
}

std::vector<std::optional<Predictor::Value>> StreamPredictor::predict_all() const {
  std::vector<std::optional<Value>> out(cfg_.horizon);
  for (std::size_t h = 1; h <= cfg_.horizon; ++h) {
    out[h - 1] = predict(h);
  }
  return out;
}

void StreamPredictor::reset() { detector_.reset(); }

std::unique_ptr<Predictor> StreamPredictor::clone_fresh() const {
  return std::make_unique<StreamPredictor>(cfg_);
}

std::size_t StreamPredictor::footprint_bytes() const {
  // Detector state: the sample ring plus per-lag run and score counters,
  // 8 B each, held in one vector of 2·M (sizeof(*this) covers the
  // detector's cached head and lag). Every report's footprint sums this
  // figure, so a layout change moves them all; dpd_oracle_test pins the
  // default.
  return sizeof(*this) + cfg_.dpd.window * sizeof(Value) +
         2 * cfg_.dpd.max_period * sizeof(std::size_t);
}

}  // namespace mpipred::core
