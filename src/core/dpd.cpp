#include "core/dpd.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

// The wider tiers need x86-64 and the GNU target attribute (gcc, clang).
#if defined(__x86_64__) && defined(__GNUC__)
#define MPIPRED_DPD_X86_TIERS 1
#endif

namespace mpipred::core {

namespace {

using Value = PeriodicityDetector::Value;

struct Best {
  std::int64_t run = 0;    // longest run that passes its lag's threshold
  std::int64_t score = 0;  // highest score that passes its lag's threshold
};

// Moves the evidence of n consecutive lags, the first of which is `first`,
// against v; past[i] is x[t-(first+i)]. A match earns one point (capped at
// twice the lag's threshold), a mismatch costs `penalty` — hysteresis that
// rides through isolated glitches but drains quickly on real pattern
// changes. Branch-free, so every tier vectorizes it.
[[gnu::always_inline]] inline Best update_lags(const Value* __restrict past,
                                               std::int64_t* __restrict run,
                                               std::int64_t* __restrict score, std::int64_t n,
                                               std::int64_t first, const DpdConfig& cfg, Value v,
                                               Best best) {
  const auto c = static_cast<std::int64_t>(cfg.confirm_periods);
  const auto floor = static_cast<std::int64_t>(cfg.min_confirm_samples);
  const auto penalty = static_cast<std::int64_t>(cfg.mismatch_penalty);
  std::int64_t cm = c * first;  // c*m as an induction variable
  std::int64_t best_run = best.run;
  std::int64_t best_score = best.score;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t need = std::max(cm, floor);
    cm += c;
    const bool hit = past[i] == v;
    const std::int64_t r = hit ? run[i] + 1 : 0;
    const std::int64_t s =
        hit ? std::min(score[i] + 1, need + need) : std::max<std::int64_t>(score[i] - penalty, 0);
    run[i] = r;
    score[i] = s;
    best_run = std::max(best_run, r >= need ? r : 0);
    best_score = std::max(best_score, s >= need ? s : 0);
  }
  return {best_run, best_score};
}

// The smallest lag m in 1..n whose evidence passes its threshold and is at
// least half of `best`, or 0. A max over (n - i) instead of an early exit,
// and both conditions as one min instead of `&&`, keep the loop a plain
// reduction.
[[gnu::always_inline]] inline std::size_t first_qualifying(const std::int64_t* __restrict evidence,
                                                          std::int64_t n, const DpdConfig& cfg,
                                                          std::int64_t best) {
  const auto c = static_cast<std::int64_t>(cfg.confirm_periods);
  const auto floor = static_cast<std::int64_t>(cfg.min_confirm_samples);
  std::int64_t cm = c;
  std::int64_t key = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t need = std::max(cm, floor);
    cm += c;
    const std::int64_t e = evidence[i];
    key = std::max(key, std::min(e - need, e + e - best) >= 0 ? n - i : 0);
  }
  return key == 0 ? 0 : static_cast<std::size_t>(n - key + 1);
}

// first_qualifying as a loop that stops at the first qualifying lag: the
// generic tier's selection, where no vector unit runs the reduction and
// the winner is usually among the first few lags.
[[gnu::always_inline]] inline std::size_t first_qualifying_early(
    const std::int64_t* __restrict evidence, std::int64_t n, const DpdConfig& cfg,
    std::int64_t best) {
  const auto c = static_cast<std::int64_t>(cfg.confirm_periods);
  const auto floor = static_cast<std::int64_t>(cfg.min_confirm_samples);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t e = evidence[i];
    if (e >= std::max(c * (i + 1), floor) && e + e >= best) {
      return static_cast<std::size_t>(i + 1);
    }
  }
  return 0;
}

// The whole per-sample scan, one body for every tier. Lag m compares v
// with x[t-m], which the downward ring holds at slot head + m - 1: lags
// up to the ring's top first, then the wrapped rest from slot 0. Lags
// beyond `limit` have no x[t-m] yet; their state is still zero from
// construction or reset() (buffered() only grows until then), so neither
// pass needs to look at them. `Select` is first_qualifying or
// first_qualifying_early.
template <auto Select>
[[gnu::always_inline]] inline std::size_t scan_lags(const DpdConfig& cfg, const Value* ring,
                                                   std::size_t head, std::size_t limit,
                                                   std::int64_t* counters, Value v) {
  const auto lags = static_cast<std::int64_t>(limit);
  const auto near = static_cast<std::int64_t>(std::min(limit, cfg.window - head));
  std::int64_t* run = counters;
  std::int64_t* score = counters + cfg.max_period;
  Best best = update_lags(ring + head, run, score, near, 1, cfg, v, {});
  best = update_lags(ring, run + near, score + near, lags - near, near + 1, cfg, v, best);
  // First choice: strict evidence. Among lags whose *consecutive* match
  // run passes the threshold, take the smallest one within half of the
  // longest run — on clean streams this is the fundamental period (or a
  // harmless multiple), and the evidence weighting discards lags that only
  // hold locally.
  if (best.run > 0) {
    return Select(run, lags, cfg, best.run);
  }
  // Fallback: hysteretic evidence. Right after an isolated reordering all
  // strict runs are broken; the capped scores remember which lags held
  // until a moment ago, so prediction continues instead of going silent
  // for a whole relearning interval.
  if (best.score > 0) {
    return Select(score, lags, cfg, best.score);
  }
  return 0;
}

std::size_t scan_generic(const DpdConfig& cfg, const Value* ring, std::size_t head,
                         std::size_t limit, std::int64_t* counters, Value v) {
  return scan_lags<first_qualifying_early>(cfg, ring, head, limit, counters, v);
}

#ifdef MPIPRED_DPD_X86_TIERS
[[gnu::target("avx2")]] std::size_t scan_avx2(const DpdConfig& cfg, const Value* ring,
                                              std::size_t head, std::size_t limit,
                                              std::int64_t* counters, Value v) {
  return scan_lags<first_qualifying>(cfg, ring, head, limit, counters, v);
}

[[gnu::target("avx512f,avx512vl")]] std::size_t scan_avx512(const DpdConfig& cfg,
                                                            const Value* ring, std::size_t head,
                                                            std::size_t limit,
                                                            std::int64_t* counters, Value v) {
  return scan_lags<first_qualifying>(cfg, ring, head, limit, counters, v);
}
#endif

using Scan = std::size_t (*)(const DpdConfig&, const Value*, std::size_t, std::size_t,
                             std::int64_t*, Value);

Scan scan_for(LagScanTier tier) {
  switch (tier) {
#ifdef MPIPRED_DPD_X86_TIERS
    case LagScanTier::Avx512:
      return &scan_avx512;
    case LagScanTier::Avx2:
      return &scan_avx2;
#endif
    default:
      return &scan_generic;
  }
}

struct TierTable {
  std::array<LagScanTier, 3> tiers{LagScanTier::Generic};
  std::size_t count = 1;
};

const TierTable& tier_table() {
  static const TierTable table = [] {
    TierTable t;
#ifdef MPIPRED_DPD_X86_TIERS
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      t.tiers[t.count++] = LagScanTier::Avx2;
    }
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")) {
      t.tiers[t.count++] = LagScanTier::Avx512;
    }
#endif
    return t;
  }();
  return table;
}

}  // namespace

std::string_view to_string(LagScanTier tier) noexcept {
  switch (tier) {
    case LagScanTier::Generic:
      return "generic";
    case LagScanTier::Avx2:
      return "avx2";
    case LagScanTier::Avx512:
      return "avx512";
  }
  return "?";
}

std::span<const LagScanTier> supported_lag_scan_tiers() {
  const TierTable& t = tier_table();
  return {t.tiers.data(), t.count};
}

LagScanTier dispatched_lag_scan_tier() { return supported_lag_scan_tiers().back(); }

PeriodicityDetector::PeriodicityDetector(DpdConfig cfg) : cfg_(cfg) {
  MPIPRED_REQUIRE(cfg_.window >= 2, "window must hold at least two samples");
  MPIPRED_REQUIRE(cfg_.max_period >= 1, "max_period must be at least 1");
  MPIPRED_REQUIRE(cfg_.max_period * 2 <= cfg_.window,
                  "window must fit two full periods (max_period*2 <= window)");
  MPIPRED_REQUIRE(cfg_.confirm_periods >= 1, "confirm_periods must be at least 1");
  MPIPRED_REQUIRE(cfg_.mismatch_penalty >= 1, "mismatch penalty must be at least 1");
  ring_.assign(cfg_.window, Value{0});
  counters_.assign(2 * cfg_.max_period, 0);
}

void PeriodicityDetector::reset() {
  std::fill(ring_.begin(), ring_.end(), Value{0});
  std::fill(counters_.begin(), counters_.end(), std::int64_t{0});
  total_ = 0;
  head_ = 0;
  lag_.reset();
}

std::size_t PeriodicityDetector::buffered() const noexcept {
  return std::min<std::size_t>(static_cast<std::size_t>(total_), cfg_.window);
}

PeriodicityDetector::Value PeriodicityDetector::value_at_lag(std::size_t lag) const {
  MPIPRED_REQUIRE(lag < buffered(), "lag exceeds buffered history");
  const std::size_t slot = head_ + lag;
  return ring_[slot < cfg_.window ? slot : slot - cfg_.window];
}

std::size_t PeriodicityDetector::run(std::size_t m) const {
  MPIPRED_REQUIRE(m >= 1 && m <= cfg_.max_period, "delay out of range");
  return static_cast<std::size_t>(counters_[m - 1]);
}

std::size_t PeriodicityDetector::score(std::size_t m) const {
  MPIPRED_REQUIRE(m >= 1 && m <= cfg_.max_period, "delay out of range");
  return static_cast<std::size_t>(counters_[cfg_.max_period + m - 1]);
}

void PeriodicityDetector::observe(Value v) {
  static const Scan scan = scan_for(dispatched_lag_scan_tier());
  step(v, scan);
}

void PeriodicityDetector::observe(Value v, LagScanTier tier) {
  const auto tiers = supported_lag_scan_tiers();
  MPIPRED_REQUIRE(std::find(tiers.begin(), tiers.end(), tier) != tiers.end(),
                  "lag-scan tier not supported by this build and CPU");
  step(v, scan_for(tier));
}

void PeriodicityDetector::step(Value v, LagScan scan) {
  // Score the new sample against the existing history first (x[t] vs
  // x[t-m]), then insert it below the newest one.
  const std::size_t m = scan(cfg_, ring_.data(), head_, std::min(buffered(), cfg_.max_period),
                             counters_.data(), v);
  head_ = head_ == 0 ? cfg_.window - 1 : head_ - 1;
  ring_[head_] = v;
  ++total_;
  lag_ = m == 0 ? std::nullopt : std::optional<std::size_t>(m);
}

std::size_t PeriodicityDetector::threshold(std::size_t m) const noexcept {
  return std::max(cfg_.confirm_periods * m, cfg_.min_confirm_samples);
}

std::optional<std::size_t> PeriodicityDetector::period() const {
  for (std::size_t m = 1; m <= cfg_.max_period; ++m) {
    if (run(m) < threshold(m)) {
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
