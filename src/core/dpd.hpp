#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace mpipred::core {

/// Configuration of the dynamic periodicity detector.
struct DpdConfig {
  /// N: how many recent samples are kept (bounds the memory of the
  /// detector and the maximum lookback for predictions).
  std::size_t window = 512;
  /// M: largest candidate period examined. Must satisfy max_period*2 <=
  /// window so a full confirmation fits in the buffer. 256 covers the
  /// longest super-periods of the paper's workloads (e.g. CG's full outer
  /// cycle: up to ~254 receives at 32 processes).
  std::size_t max_period = 256;
  /// A period m is declared once the stream has matched itself at lag m
  /// for `confirm_periods` consecutive full periods (1 == "the pattern has
  /// been seen twice", the paper's learning requirement)...
  std::size_t confirm_periods = 1;
  /// ...and for at least this many consecutive samples. This floor guards
  /// small lags against locking onto short locally-constant bursts (e.g.
  /// six equal-sized face exchanges in a row must not read as period 1).
  std::size_t min_confirm_samples = 8;
  /// Each mismatch subtracts this many points from the lag's match score
  /// (a match adds one, capped at twice the confirmation threshold).
  /// Values > 1 give hysteresis: an isolated reordering costs a few
  /// mispredictions — the paper's "each random change of the message
  /// pattern leads to a failure" — without silencing the predictor for a
  /// whole relearning interval. A genuine pattern change still drains the
  /// score within a few samples.
  std::size_t mismatch_penalty = 2;
};

/// One compiled form of the per-sample lag scan in
/// PeriodicityDetector::observe(). The scan is integer-only (compares,
/// adds, min/max, no multiply, no floating point), so every tier computes
/// the same detector state bit for bit; they differ only in how many lags
/// one instruction covers.
enum class LagScanTier : std::uint8_t {
  Generic,  ///< the target's baseline instruction set (SSE2 on x86-64)
  Avx2,     ///< x86-64 AVX2: four 64-bit lanes
  Avx512,   ///< x86-64 AVX-512 F + VL: eight 64-bit lanes
};

[[nodiscard]] std::string_view to_string(LagScanTier tier) noexcept;

/// The tiers compiled into this build that the running CPU supports,
/// narrowest first. Generic is always there; builds for targets other
/// than x86-64 compile only Generic.
[[nodiscard]] std::span<const LagScanTier> supported_lag_scan_tiers();

/// The tier observe(v) runs: the widest supported one, picked once per
/// process.
[[nodiscard]] LagScanTier dispatched_lag_scan_tier();

/// Dynamic periodicity detector (DPD) after Freitag, Corbalan & Labarta
/// (IPDPS 2001), as modified for prediction in the IPDPS 2003 paper this
/// repository reproduces.
///
/// The reference formulation slides a window of N samples and computes, for
/// every candidate delay m,
///
///   d(m) = sign( sum_{i=0}^{N-1} |x[i] - x[i-m]| )            (eq. 1)
///
/// declaring periodicity m when d(m) == 0 (the window matches itself
/// shifted by m). Recomputing d(m) per sample costs O(N*M); this
/// implementation is incremental: for each lag m it tracks the length of
/// the current run of samples satisfying x[t] == x[t-m], which gives the
/// same "has matched for long enough" signal in O(M) per observation and
/// O(N + M) space — small enough to run inside an MPI library (the §4.2
/// overhead requirement; see bench_predictor_overhead).
///
/// Cost model: observe() is O(M) and also selects the prediction lag, so
/// prediction_lag() — and with it StreamPredictor::predict(h) — is O(1).
/// period() and distance() stay O(M + window); they serve reports.
/// The O(M) part is two branch-free passes over contiguous int64 arrays:
///  * the update pass compares the new sample with x[t-1..t-M] and moves
///    every lag's run and score;
///  * the selection pass finds the smallest qualifying lag as a max over
///    (n - i), so it reduces like a sum instead of exiting early.
/// The ring is written *downward*: the newest sample sits at head_ and
/// older ones at ascending slots, so x[t-1..t-M] is at most two ascending
/// runs of the ring, and each pass streams through memory in lag order.
/// Thresholds advance as an induction variable (need(m+1) = need(m) + c
/// before the floor) because AVX2 has no 64-bit multiply, and all lanes
/// are signed because AVX2 has no unsigned 64-bit compare. Being integer
/// only, the passes give identical state in every LagScanTier; the widest
/// one the CPU supports runs. With the default config (M = 256) on a
/// 37-periodic stream with 1% noise, one observe takes about 300 ns with
/// AVX-512, 730 ns with AVX2 and 1370 ns generic (medians of 15 runs; gcc
/// 12, Release, a 4-core AVX-512 x86-64).
///
/// Values are opaque integers: sender ranks or message sizes here, but any
/// symbol stream works.
class PeriodicityDetector {
 public:
  using Value = std::int64_t;

  explicit PeriodicityDetector(DpdConfig cfg = {});

  /// Feeds the next sample of the stream: updates every lag's evidence
  /// and selects the prediction lag in one O(M) call.
  void observe(Value v);

  /// observe(v) through `tier` instead of the dispatched one, so a test
  /// can hold every tier to the same state. `tier` must be supported.
  void observe(Value v, LagScanTier tier);

  /// The smallest confirmed period, if any — the *fundamental* period in
  /// the paper's sense: the smallest lag that is score-confirmed AND has
  /// d(m) == 0 over a recent window of ~3 periods (the exact check keeps
  /// high-match-density sub-lags, whose hysteretic score can drift over
  /// the threshold, out of the report). O(M + window); meant for reports
  /// and analysis — prediction uses prediction_lag().
  [[nodiscard]] std::optional<std::size_t> period() const;

  /// The lag prediction should read history through: the smallest
  /// *confirmed* lag whose match-run is at least half of the longest
  /// confirmed run. On an exactly m-periodic stream this is the
  /// fundamental period. Weighting by run length (evidence) discards lags
  /// that only hold locally — a constant stretch inside a longer pattern
  /// (which would fake a tiny period) or a lag that happens to align
  /// across a recent phase shift (which would fake a huge one) — both of
  /// which mispredict the rest of the pattern. O(1): selected by observe().
  [[nodiscard]] std::optional<std::size_t> prediction_lag() const noexcept { return lag_; }

  /// The paper's d(m) evaluated over the *current* window contents:
  /// 1 if any comparison mismatches, 0 if the window is m-periodic.
  /// O(window); intended for analysis and tests, not the hot path.
  [[nodiscard]] int distance(std::size_t m) const;

  /// Evidence for lag m (1 <= m <= max_period): the current run of
  /// consecutive samples with x[t] == x[t-m], and the hysteretic match
  /// score (a match adds one up to twice the lag's threshold, a mismatch
  /// subtracts `mismatch_penalty` down to zero).
  [[nodiscard]] std::size_t run(std::size_t m) const;
  [[nodiscard]] std::size_t score(std::size_t m) const;

  /// Total samples observed so far.
  [[nodiscard]] std::int64_t samples() const noexcept { return total_; }

  /// The sample observed `lag` steps ago (lag 0 = most recent), in O(1).
  /// lag must be < min(samples(), window).
  [[nodiscard]] Value value_at_lag(std::size_t lag) const;

  /// Number of buffered samples: min(samples(), window).
  [[nodiscard]] std::size_t buffered() const noexcept;

  [[nodiscard]] const DpdConfig& config() const noexcept { return cfg_; }

  /// Forgets everything (stream restart).
  void reset();

 private:
  /// One tier's lag scan: updates the counters of lags 1..limit against
  /// `v` and returns the selected prediction lag, 0 for none.
  using LagScan = std::size_t (*)(const DpdConfig& cfg, const Value* ring, std::size_t head,
                                  std::size_t limit, std::int64_t* counters, Value v);

  [[nodiscard]] std::size_t threshold(std::size_t m) const noexcept;
  void step(Value v, LagScan scan);

  DpdConfig cfg_;
  std::vector<Value> ring_;  // the last `window` samples, written downward
  // Signed lag evidence, struct-of-arrays in one allocation:
  // [0, M) the run of lag m at index m-1, [M, 2M) its score.
  std::vector<std::int64_t> counters_;
  std::int64_t total_ = 0;
  std::size_t head_ = 0;  // ring_ slot of the newest sample; lag k sits at (head_ + k) mod window
  std::optional<std::size_t> lag_;  // prediction_lag(), selected at the end of observe()
};

}  // namespace mpipred::core
