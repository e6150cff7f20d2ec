#pragma once

// The metrics half of the observability layer: a registry of named
// counters, gauges, and fixed-bucket histograms with hierarchical labels
// (rank, shard, tenant, ...), and a deterministic snapshot/merge surface.
//
// Determinism contract: a snapshot is a sorted, fixed-format rendering of
// instrument values, so two runs that perform the same instrument
// operations produce byte-identical snapshots — across shard counts,
// dispatch thresholds, and repeated runs. Instruments registered by parallel
// subsystems must therefore be *shard-invariant* quantities (per-event
// totals, not per-worker ones); telemetry_test pins this for the engine
// and serve layers.
//
// Instruments are lock-free atomics with stable addresses: registration
// takes the registry mutex once, after which the returned reference is
// safe to update from shard workers and progress tasks concurrently
// (the TSan CI job covers this path).

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace mpipred::telemetry {

/// A sorted set of (key, value) labels identifying one instrument
/// instance within a metric name — e.g. {rank=3} or {tenant=2}.
/// Serialized as "k=v,k=v" in key order, so label order at the call site
/// never changes identity or snapshot bytes.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string_view, std::string_view>> kvs) {
    for (const auto& [k, v] : kvs) {
      set(std::string(k), std::string(v));
    }
  }

  /// Adds or replaces one label, keeping key order.
  void set(std::string key, std::string value);

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool empty() const noexcept { return kvs_.empty(); }

  [[nodiscard]] auto operator<=>(const LabelSet&) const = default;

 private:
  std::vector<std::pair<std::string, std::string>> kvs_;  // key order
};

/// Monotonically increasing count. Relaxed atomics: totals are exact,
/// ordering against other instruments is not promised (and never read).
class Counter {
 public:
  void inc() noexcept { add(1); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// A level plus its high-water mark. `add` raises the peak only when the
/// level grows — exactly the existing `*_now` / `*_peak` counter-pair
/// idiom it replaces (a subtract never lowers a recorded peak), which is
/// what keeps the mpi_gate_test golden fingerprints intact.
class Gauge {
 public:
  void add(std::int64_t d) noexcept {
    const std::int64_t now = value_.fetch_add(d, std::memory_order_relaxed) + d;
    if (d > 0) {
      observe_peak(now);
    }
  }
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
    observe_peak(v);
  }
  /// Max-only update: raises the peak without touching the level (the
  /// adaptive feed-lag peak has no meaningful instantaneous level).
  void observe_peak(std::int64_t v) noexcept {
    std::int64_t seen = peak_.load(std::memory_order_relaxed);
    while (v > seen && !peak_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t peak() const noexcept { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i]
/// (first matching bound wins), with one implicit overflow bucket past
/// the last bound. Bounds are fixed at registration and must be strictly
/// increasing, so snapshots of the same metric always agree on shape.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> bounds);

  void observe(std::int64_t x) noexcept;

  [[nodiscard]] std::span<const std::int64_t> bounds() const noexcept { return bounds_; }
  /// Buckets in bound order; index bounds().size() is the overflow bucket.
  [[nodiscard]] std::int64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<std::int64_t> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

enum class InstrumentKind : std::uint8_t { Counter, Gauge, Histogram };

[[nodiscard]] constexpr std::string_view to_string(InstrumentKind k) noexcept {
  switch (k) {
    case InstrumentKind::Counter: return "counter";
    case InstrumentKind::Gauge: return "gauge";
    case InstrumentKind::Histogram: return "histogram";
  }
  return "?";
}

/// One instrument's state at snapshot time.
struct SnapshotRow {
  std::string name;
  std::string labels;  // LabelSet::to_string()
  InstrumentKind kind = InstrumentKind::Counter;
  std::int64_t value = 0;              // counter/gauge level, histogram count
  std::int64_t peak = 0;               // gauge only
  std::int64_t sum = 0;                // histogram only
  std::vector<std::int64_t> bounds;    // histogram only
  std::vector<std::int64_t> buckets;   // histogram only, bounds.size() + 1

  [[nodiscard]] bool operator==(const SnapshotRow&) const = default;
};

/// A point-in-time copy of every registered instrument, in (name, labels)
/// order. Two snapshots of runs that performed the same instrument
/// operations are equal — and render to byte-identical JSON — regardless
/// of registration order or thread interleaving.
class MetricsSnapshot {
 public:
  [[nodiscard]] std::span<const SnapshotRow> rows() const noexcept { return rows_; }

  /// Field-wise sum by (name, labels, kind): counters, gauge levels *and*
  /// gauge peaks, histogram counts/sums/buckets all add — the same
  /// semantics World::aggregate_counters applies to per-endpoint peaks.
  /// Rows only present in `other` are appended (keeping sort order).
  /// Throws UsageError on a kind or bucket-shape conflict.
  void merge(const MetricsSnapshot& other);

  /// Sum of `value` across every row named `name` (any labels); 0 when
  /// absent.
  [[nodiscard]] std::int64_t value(std::string_view name) const noexcept;

  /// Deterministic JSON: rows in (name, labels) order, integers only,
  /// fixed key order. Byte-identical across equal snapshots.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] bool operator==(const MetricsSnapshot&) const = default;

 private:
  friend class MetricsRegistry;
  std::vector<SnapshotRow> rows_;  // (name, labels) order
};

/// Find-or-create registry of instruments. Thread-safe; returned
/// references stay valid for the registry's lifetime. Re-registering a
/// name+labels pair with a different kind (or different histogram
/// bounds) throws UsageError — a metric's shape is part of its contract.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(std::string name, const LabelSet& labels = {})
      MPIPRED_EXCLUDES(mu_);
  [[nodiscard]] Gauge& gauge(std::string name, const LabelSet& labels = {}) MPIPRED_EXCLUDES(mu_);
  [[nodiscard]] Histogram& histogram(std::string name, std::vector<std::int64_t> bounds,
                                     const LabelSet& labels = {}) MPIPRED_EXCLUDES(mu_);

  [[nodiscard]] MetricsSnapshot snapshot() const MPIPRED_EXCLUDES(mu_);

 private:
  struct Instrument {
    InstrumentKind kind = InstrumentKind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& find_or_create(std::string name, const LabelSet& labels, InstrumentKind kind)
      MPIPRED_REQUIRES(mu_);

  mutable common::Mutex mu_;
  // Keyed (name, serialized labels): the map's order *is* snapshot order.
  // Guarded registration only — the returned instrument references have
  // stable addresses and are themselves lock-free atomics.
  std::map<std::pair<std::string, std::string>, Instrument> instruments_ MPIPRED_GUARDED_BY(mu_);
};

}  // namespace mpipred::telemetry
