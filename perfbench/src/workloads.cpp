#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "adaptive/policy.hpp"
#include "apps/app.hpp"
#include "core/stream_predictor.hpp"
#include "engine/engine.hpp"
#include "ingest/replay.hpp"
#include "ingest/streaming.hpp"
#include "ingest/transform.hpp"
#include "mpi/world.hpp"
#include "scale/buffer_manager.hpp"
#include "scale/credit_flow.hpp"
#include "scale/rendezvous.hpp"
#include "serve/server.hpp"
#include "trace/csv.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace perfbench {

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  return xs[rank - 1];
}

namespace {

using namespace mpipred;

constexpr int kRanks = 16;
constexpr std::array<trace::Level, 2> kLevels = {trace::Level::Logical, trace::Level::Physical};
constexpr std::size_t kPhysical = 1;  // index of the physical level in kLevels

/// Per-call probes stop after this many calls, so each takes at most a
/// few seconds and the p99 still has hundreds of samples beyond it.
constexpr std::size_t kProbeCalls = 50'000;

/// Probed results are folded in here so the calls cannot be optimized away.
std::uint64_t g_probe_sink = 0;

bool expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

/// Sessions shard their streams; two shards leave the other cores of a
/// small machine free, which keeps the feed's timing steady.
std::size_t session_shards() {
  return std::thread::hardware_concurrency() >= 2 ? 2 : 1;
}

engine::EngineConfig dpd_config(std::size_t shards) {
  return engine::EngineConfig{.predictor = "dpd", .shards = shards};
}

double accuracy_pct(const core::AccuracyReport& report, std::size_t h) {
  return report.max_horizon() < h ? 0.0 : 100.0 * report.at(h).accuracy();
}

void put_accuracy(Values& out, const engine::EngineReport& report) {
  out["sender_acc_pct"] = accuracy_pct(report.aggregate_senders, 1);
  out["size_acc_pct"] = accuracy_pct(report.aggregate_sizes, 1);
  out["sender_acc5_pct"] = accuracy_pct(report.aggregate_senders, 5);
}

/// Median over the traced runs of the per-run total of spans `name`.
double median_total(const Tracer& tracer, std::string_view name, const std::vector<int>& runs) {
  std::vector<double> totals;
  for (const int run : runs) {
    totals.push_back(tracer.total_seconds(name, run));
  }
  return totals.empty() ? 0.0 : median(std::move(totals));
}

/// Median over the traced runs of the mean duration of spans `name`.
double median_mean(const Tracer& tracer, std::string_view name, const std::vector<int>& runs) {
  std::vector<double> means;
  for (const int run : runs) {
    const std::size_t n = tracer.count(name, run);
    if (n > 0) {
      means.push_back(tracer.total_seconds(name, run) / static_cast<double>(n));
    }
  }
  return means.empty() ? 0.0 : median(std::move(means));
}

void put_call_times(Values& out, const std::string& prefix, std::vector<double> ns) {
  out[prefix + ".n"] = static_cast<double>(ns.size());
  out[prefix + ".p50"] = ns.empty() ? 0.0 : percentile(ns, 0.50);
  out[prefix + ".p99"] = ns.empty() ? 0.0 : percentile(std::move(ns), 0.99);
}

/// Per-call StreamPredictor::observe and predict(h) over one recorded
/// stream, h cycling through the predictor's horizons. Each sample
/// includes one clock read.
void probe_core(Values& out, std::span<const std::int64_t> stream) {
  core::StreamPredictor predictor;
  const std::size_t n = std::min(stream.size(), kProbeCalls);
  std::vector<double> observe_ns;
  std::vector<double> predict_ns;
  observe_ns.reserve(n);
  predict_ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    predictor.observe(stream[i]);
    const std::int64_t t1 = now_ns();
    const auto predicted = predictor.predict(1 + i % predictor.max_horizon());
    const std::int64_t t2 = now_ns();
    g_probe_sink += static_cast<std::uint64_t>(predicted.value_or(0));
    observe_ns.push_back(static_cast<double>(t1 - t0));
    predict_ns.push_back(static_cast<double>(t2 - t1));
  }
  put_call_times(out, "core.observe_ns", std::move(observe_ns));
  put_call_times(out, "core.predict_ns", std::move(predict_ns));
}

/// Arrivals replayed one call at a time through a fresh policy.
void probe_on_arrival(Values& out, std::span<const engine::Event> arrivals,
                      const adaptive::RuntimeConfig& rt) {
  adaptive::AdaptivePolicy policy(rt.service, rt.policy);
  const std::size_t n = std::min(arrivals.size(), kProbeCalls);
  std::vector<double> ns;
  ns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t t0 = now_ns();
    const bool hit = policy.on_arrival(arrivals[i]);
    const std::int64_t t1 = now_ns();
    g_probe_sink += static_cast<std::uint64_t>(hit);
    ns.push_back(static_cast<double>(t1 - t0));
  }
  put_call_times(out, "adaptive.on_arrival_ns", std::move(ns));
}

/// The adaptive runtime as the closed loop and the replay configure it:
/// one engine shard, since the policy feeds one arrival at a time.
adaptive::RuntimeConfig runtime_config(double min_confidence) {
  adaptive::RuntimeConfig rt;
  rt.service.engine.shards = 1;
  rt.policy.min_confidence = min_confidence;
  return rt;
}

bool credits_balanced(const mpi::detail::EndpointCounters& c) {
  return c.stream_credit_grants == c.stream_credit_releases && c.stream_credit_bytes_now == 0;
}

void put_sim_stats(Values& out, mpi::World& world) {
  const sim::EngineStats& stats = world.engine().stats();
  out["sim.events"] += static_cast<double>(stats.events_processed);
  out["sim.context_switches"] += static_cast<double>(stats.context_switches);
  out["mpi.progress_tasks"] += static_cast<double>(world.aggregate_progress_stats().executed);
}

// ----------------------------------------------------------------------------
// offline_lu16: simulate NAS LU, then score both trace levels through
// resident serve sessions. Simulator and DPD observe path; no adaptive,
// no ingest.

class OfflineLu16 final : public Workload {
 public:
  explicit OfflineLu16(const Options& opts)
      : seed_(opts.seed),
        app_{.problem_class = opts.size == Size::Full ? apps::ProblemClass::A
                                                      : apps::ProblemClass::S,
             .iterations_override = opts.size == Size::Full ? 40 : 3} {}

  [[nodiscard]] int setup_repeats() const override { return 25; }
  [[nodiscard]] bool setup_each_pass() const override { return true; }

  // Set-up builds the simulated machine and the prediction server; both
  // are single-use per pass.
  double setup() override {
    sessions_.clear();
    server_.reset();
    world_.reset();
    const std::int64_t t0 = now_ns();
    world_ = std::make_unique<mpi::World>(kRanks, apps::paper_world_config(seed_));
    server_ = std::make_unique<serve::PredictionServer>(
        serve::ServeConfig{.engine = dpd_config(session_shards())});
    return seconds_between(t0, now_ns());
  }

  void pass(Tracer& tracer) override {
    {
      Scope s(tracer, "apps.run");
      outcome_ = apps::run_lu(*world_, app_);
    }
    fed_ = 0;
    for (std::size_t i = 0; i < kLevels.size(); ++i) {
      std::vector<engine::Event> events;
      {
        Scope s(tracer, "trace.merge");
        events = engine::events_from_trace(world_->traces(), kLevels[i]);
      }
      {
        Scope s(tracer, "engine.feed");
        sessions_.push_back(server_->open_session());
        sessions_.back()->observe_all(events);
      }
      {
        Scope s(tracer, "serve.report");
        reports_[i] = sessions_.back()->report();
      }
      fed_ += static_cast<std::int64_t>(events.size());
    }
  }

  bool check() override {
    bool ok = expect(outcome_.verified, "lu.16 did not verify");
    ok &= expect(credits_balanced(world_->aggregate_counters()),
                 "lu.16 stream-credit grants differ from releases");
    for (std::size_t i = 0; i < kLevels.size(); ++i) {
      ok &= expect(reports_[i].events ==
                       static_cast<std::int64_t>(world_->traces().total_records(kLevels[i])),
                   "a session did not score every trace record");
    }
    if (first_.events == 0) {
      // The session report must equal the single-tenant engine's; once per
      // run, as it repeats the whole physical-level feed.
      ok &= expect(engine::run_over_trace(world_->traces(), trace::Level::Physical,
                                          dpd_config(1)) == reports_[kPhysical],
                   "physical session report differs from the engine's");
      first_ = reports_[kPhysical];
    }
    ok &= expect(reports_[kPhysical] == first_,
                 "the same seed gave a different physical report on a later pass");
    sessions_.clear();
    return ok;
  }

  void end_to_end(Values& out) const override { put_accuracy(out, reports_[kPhysical]); }

  void per_layer(Values& out, const Tracer& tracer, const std::vector<int>& runs) override {
    out["apps.run_s"] = median_total(tracer, "apps.run", runs);
    put_sim_stats(out, *world_);
    out["sim.ns_per_event"] = 1e9 * out["apps.run_s"] / out["sim.events"];
    out["trace.merge_s"] = median_total(tracer, "trace.merge", runs);
    out["engine.feed_s"] = median_total(tracer, "engine.feed", runs);
    out["engine.ns_per_msg"] = 1e9 * out["engine.feed_s"] / static_cast<double>(fed_);
    out["engine.footprint_kib"] = static_cast<double>(reports_[0].total_footprint_bytes +
                                                      reports_[1].total_footprint_bytes) /
                                  1024.0;
    const trace::TraceStore& traces = world_->traces();
    const int rep = trace::representative_rank(traces, trace::Level::Physical);
    probe_core(out, trace::extract_streams(traces, rep, trace::Level::Physical).senders);
    probe_on_arrival(out, engine::events_from_trace(traces, trace::Level::Physical),
                     runtime_config(0.0));
  }

 private:
  std::uint64_t seed_;
  apps::AppConfig app_;
  std::unique_ptr<mpi::World> world_;
  std::unique_ptr<serve::PredictionServer> server_;
  std::vector<std::shared_ptr<serve::Session>> sessions_;
  apps::AppOutcome outcome_;
  std::array<engine::EngineReport, 2> reports_;
  engine::EngineReport first_;
  std::int64_t fed_ = 0;
};

// ----------------------------------------------------------------------------
// closed_loop_cg16: NAS CG with the adaptive runtime live inside the
// simulated library, at the bench_adaptive_speedup settings. Per sim seed
// one static world and adaptive worlds at two confidence thresholds.

class ClosedLoopCg16 final : public Workload {
 public:
  static constexpr std::array<double, 2> kConfidences = {0.0, 0.8};
  static constexpr std::int64_t kFallbackNs = 20'000;

  explicit ClosedLoopCg16(const Options& opts)
      : app_{.problem_class = opts.size == Size::Full ? apps::ProblemClass::A
                                                      : apps::ProblemClass::S,
             .iterations_override = opts.size == Size::Full ? 8 : 1} {
    seeds_.resize(opts.size == Size::Full ? 5 : 1);
    for (std::size_t s = 0; s < seeds_.size(); ++s) {
      seeds_[s].sim_seed = opts.seed + s;
    }
  }

  [[nodiscard]] int setup_repeats() const override { return 25; }
  [[nodiscard]] bool setup_each_pass() const override { return true; }

  double setup() override {
    for (SeedRun& s : seeds_) {
      s.static_world.reset();
      for (auto& w : s.adaptive_worlds) {
        w.reset();
      }
    }
    const std::int64_t t0 = now_ns();
    for (SeedRun& s : seeds_) {
      s.static_world = std::make_unique<mpi::World>(kRanks, world_config(s.sim_seed, std::nullopt));
      for (std::size_t c = 0; c < kConfidences.size(); ++c) {
        s.adaptive_worlds[c] =
            std::make_unique<mpi::World>(kRanks, world_config(s.sim_seed, kConfidences[c]));
      }
    }
    return seconds_between(t0, now_ns());
  }

  void pass(Tracer& tracer) override {
    for (SeedRun& s : seeds_) {
      {
        Scope span(tracer, "apps.static");
        s.static_outcome = apps::run_cg(*s.static_world, app_);
      }
      for (std::size_t c = 0; c < kConfidences.size(); ++c) {
        Scope span(tracer, "apps.adaptive");
        s.adaptive_outcomes[c] = apps::run_cg(*s.adaptive_worlds[c], app_);
      }
    }
  }

  bool check() override {
    bool ok = true;
    for (SeedRun& s : seeds_) {
      const std::string at = " (sim seed " + std::to_string(s.sim_seed) + ")";
      ok &= expect(s.static_outcome.verified, "static cg.16 did not verify" + at);
      std::array<std::int64_t, 3> finals = {final_ns(*s.static_world), 0, 0};
      for (std::size_t c = 0; c < kConfidences.size(); ++c) {
        const mpi::World& w = *s.adaptive_worlds[c];
        const adaptive::PolicyStats& stats = w.adaptive_policy()->stats();
        ok &= expect(s.adaptive_outcomes[c].verified, "adaptive cg.16 did not verify" + at);
        ok &= expect(credits_balanced(w.aggregate_counters()),
                     "stream-credit grants differ from releases" + at);
        ok &= expect(stats.prepost_hits + stats.prepost_misses == stats.messages,
                     "pre-post hits and misses do not add up to the arrivals scored" + at);
        finals[c + 1] = final_ns(*s.adaptive_worlds[c]);
      }
      if (s.finals[0] == 0) {
        s.finals = finals;
      }
      ok &= expect(finals == s.finals,
                   "the same seed gave different final simulated times on a later pass" + at);
    }
    return ok;
  }

  void end_to_end(Values& out) const override {
    log_speedups();
    // The live predictor's accuracy at the receivers of every adaptive
    // world, pooled: the physical arrival streams the policy steers by.
    std::array<core::HorizonAccuracy, 3> pooled{};  // senders +1, sizes +1, senders +5
    for (const SeedRun& s : seeds_) {
      for (const auto& world : s.adaptive_worlds) {
        const engine::EngineReport report =
            world->adaptive_policy()->service().arrival_engine().report();
        const std::array<const core::HorizonAccuracy*, 3> parts = {
            &report.aggregate_senders.at(1), &report.aggregate_sizes.at(1),
            &report.aggregate_senders.at(5)};
        for (std::size_t i = 0; i < pooled.size(); ++i) {
          pooled[i].hits += parts[i]->hits;
          pooled[i].misses += parts[i]->misses;
          pooled[i].unpredicted += parts[i]->unpredicted;
        }
      }
    }
    out["sender_acc_pct"] = 100.0 * pooled[0].accuracy();
    out["size_acc_pct"] = 100.0 * pooled[1].accuracy();
    out["sender_acc5_pct"] = 100.0 * pooled[2].accuracy();
  }

  /// Per sim seed, the speedups in BENCH_adaptive_speedup.json's form,
  /// 100 * (static - adaptive) / static, for cross-checking that file.
  void log_speedups() const {
    for (const SeedRun& s : seeds_) {
      std::printf("cg.16 sim seed %llu: static %lld ns",
                  static_cast<unsigned long long>(s.sim_seed), static_cast<long long>(s.finals[0]));
      for (std::size_t c = 0; c < kConfidences.size(); ++c) {
        std::printf("; min_confidence %.1f: %lld ns, speedup %+.3f%%", kConfidences[c],
                    static_cast<long long>(s.finals[c + 1]),
                    100.0 * static_cast<double>(s.finals[0] - s.finals[c + 1]) /
                        static_cast<double>(s.finals[0]));
      }
      std::printf("\n");
    }
  }

  void per_layer(Values& out, const Tracer& tracer, const std::vector<int>& runs) override {
    out["apps.static_s"] = median_mean(tracer, "apps.static", runs);
    out["apps.adaptive_s"] = median_mean(tracer, "apps.adaptive", runs);
    std::vector<double> run_totals;
    for (const int run : runs) {
      run_totals.push_back(tracer.total_seconds("apps.static", run) +
                           tracer.total_seconds("apps.adaptive", run));
    }
    out["apps.run_s"] = median(run_totals);
    out["adaptive.overhead_s"] = out["apps.adaptive_s"] - out["apps.static_s"];

    double messages = 0;
    double hits = 0;
    std::vector<double> speedup;
    std::vector<double> gated;
    std::vector<double> final_static;
    std::vector<double> final_adaptive;
    std::vector<double> final_gated;
    for (const SeedRun& s : seeds_) {
      put_sim_stats(out, *s.static_world);
      for (const auto& w : s.adaptive_worlds) {
        put_sim_stats(out, *w);
        const adaptive::PolicyStats& stats = w->adaptive_policy()->stats();
        const mpi::detail::EndpointCounters c = w->aggregate_counters();
        messages += static_cast<double>(stats.messages);
        hits += static_cast<double>(stats.prepost_hits);
        out["adaptive.elided"] += static_cast<double>(stats.rendezvous_elided);
        out["adaptive.degraded_arrivals"] += static_cast<double>(stats.degraded_arrivals);
        out["mpi.fallback_round_trips"] += static_cast<double>(c.fallback_round_trips);
        out["mpi.fallback_sim_ms"] += static_cast<double>(c.fallback_ns) / 1e6;
        out["mpi.unexpected_arrivals"] += static_cast<double>(c.unexpected_arrivals);
        out["mpi.stream_credit_grants"] += static_cast<double>(c.stream_credit_grants);
      }
      const double static_ms = static_cast<double>(s.finals[0]) / 1e6;
      const double adaptive_ms = static_cast<double>(s.finals[1]) / 1e6;
      const double gated_ms = static_cast<double>(s.finals[2]) / 1e6;
      speedup.push_back(100.0 * static_ms / adaptive_ms);
      gated.push_back(100.0 * static_ms / gated_ms);
      final_static.push_back(static_ms);
      final_adaptive.push_back(adaptive_ms);
      final_gated.push_back(gated_ms);
    }
    const double adaptive_worlds = static_cast<double>(seeds_.size() * kConfidences.size());
    out["adaptive.ns_per_arrival"] =
        1e9 * out["adaptive.overhead_s"] / (messages / adaptive_worlds);
    out["adaptive.prepost_hit_pct"] = 100.0 * hits / messages;
    out["sim.ns_per_event"] = 1e9 * out["apps.run_s"] / out["sim.events"];
    out["sim.final_ms.static"] = median(final_static);
    out["sim.final_ms.adaptive"] = median(final_adaptive);
    out["sim.final_ms.gated"] = median(final_gated);
    out["adaptive.sim_speedup_pct"] = median(speedup);
    out["adaptive.gated_speedup_pct"] = median(gated);

    const mpi::World& ungated = *seeds_.back().adaptive_worlds[0];
    const trace::TraceStore& traces = ungated.traces();
    const int rep = trace::representative_rank(traces, trace::Level::Physical);
    probe_core(out, trace::extract_streams(traces, rep, trace::Level::Physical).senders);
    probe_on_arrival(out, engine::events_from_trace(traces, trace::Level::Physical),
                     runtime_config(kConfidences[0]));
  }

 private:
  struct SeedRun {
    std::uint64_t sim_seed = 0;
    std::unique_ptr<mpi::World> static_world;
    std::array<std::unique_ptr<mpi::World>, 2> adaptive_worlds;
    apps::AppOutcome static_outcome;
    std::array<apps::AppOutcome, 2> adaptive_outcomes;
    std::array<std::int64_t, 3> finals{};  ///< static, then per confidence, from pass 1
  };

  /// A static world without a threshold, an adaptive one with it.
  [[nodiscard]] static mpi::WorldConfig world_config(std::uint64_t seed,
                                                     std::optional<double> min_confidence) {
    mpi::WorldConfig cfg = apps::paper_world_config(seed);
    cfg.engine.network.fallback_cost = sim::SimTime{kFallbackNs};
    if (min_confidence.has_value()) {
      cfg.adaptive = runtime_config(*min_confidence);
      cfg.adaptive.enabled = true;
      cfg.adaptive.per_stream_credits = true;
    }
    return cfg;
  }

  [[nodiscard]] static std::int64_t final_ns(mpi::World& world) {
    return world.engine().stats().final_time.count();
  }

  apps::AppConfig app_;
  std::vector<SeedRun> seeds_;
};

// ----------------------------------------------------------------------------
// replay_window: an lu.16 CSV capture (made at set-up) replayed through
// ingest with a time window and a rank fold, fed to serve sessions, then
// the offline decision loops: the adaptive replay and the scale what-ifs.
// The simulator is not in the timed part.

/// Counts the rows the CSV reader hands to the transform chain.
class CountingStream final : public ingest::EventStream {
 public:
  explicit CountingStream(std::unique_ptr<ingest::EventStream> inner) : inner_(std::move(inner)) {}

  std::size_t next_batch(std::size_t max_events, std::vector<ingest::TimedEvent>& out) override {
    const std::size_t got = inner_->next_batch(max_events, out);
    rows_ += static_cast<std::int64_t>(got);
    return got;
  }
  [[nodiscard]] bool time_ordered() const noexcept override { return inner_->time_ordered(); }
  [[nodiscard]] std::int64_t rows() const noexcept { return rows_; }

 private:
  std::unique_ptr<ingest::EventStream> inner_;
  std::int64_t rows_ = 0;
};

class ReplayWindow final : public Workload {
 public:
  static constexpr std::int32_t kFoldedRanks = 8;

  explicit ReplayWindow(const Options& opts)
      : seed_(opts.seed),
        tiny_(opts.size == Size::Tiny),
        capture_{.problem_class = tiny_ ? apps::ProblemClass::S : apps::ProblemClass::A,
                 .iterations_override = tiny_ ? 6 : 125},
        path_((std::filesystem::path(opts.out_dir) /
               ("replay_window-capture-" + std::to_string(opts.seed) + ".csv"))
                  .string()) {}

  ReplayWindow(const ReplayWindow&) = delete;
  ReplayWindow& operator=(const ReplayWindow&) = delete;
  ReplayWindow(ReplayWindow&&) = delete;
  ReplayWindow& operator=(ReplayWindow&&) = delete;

  ~ReplayWindow() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  [[nodiscard]] int setup_repeats() const override { return 3; }
  [[nodiscard]] bool setup_each_pass() const override { return false; }

  // Set-up simulates lu.16 and exports its two-level trace as CSV; the
  // passes only read the file.
  double setup() override {
    const std::int64_t t0 = now_ns();
    {
      mpi::World world(kRanks, apps::paper_world_config(seed_));
      capture_verified_ = apps::run_lu(world, capture_).verified;
      trace::write_csv_file(path_, world.traces());
      capture_rows_ =
          static_cast<std::int64_t>(world.traces().total_records(trace::Level::Logical) +
                                    world.traces().total_records(trace::Level::Physical));
      capture_end_ns_ = world.engine().stats().final_time.count();
    }
    const double seconds = seconds_between(t0, now_ns());
    file_bytes_ = static_cast<double>(std::filesystem::file_size(path_));
    // A one-second slice near the end of the ~9.2 s capture, so the reader
    // parses nearly every row and the window keeps about a tenth; tiny
    // captures are shorter, so they take their second half.
    const std::int64_t begin = tiny_ ? capture_end_ns_ / 2 : 8'000'000'000;
    const std::int64_t end = tiny_ ? capture_end_ns_ - 1 : 9'000'000'000;
    spec_ = ingest::TransformSpec{
        .window = ingest::TimeWindow{.begin_ns = begin, .end_ns = end},
        .remap = ingest::RankRemapConfig::parse("mod:" + std::to_string(kFoldedRanks))};
    return seconds;
  }

  void pass(Tracer& tracer) override {
    for (std::size_t i = 0; i < kLevels.size(); ++i) {
      {
        Scope s(tracer, "ingest.parse");
        auto counted =
            std::make_unique<CountingStream>(ingest::open_event_stream(path_, kLevels[i]));
        const CountingStream* counter = counted.get();
        auto chain = ingest::apply_transforms(std::move(counted), spec_);
        const std::vector<ingest::TimedEvent> timed = ingest::drain(*chain.stream);
        rows_read_[i] = counter->rows();
        events_[i] = ingest::strip_times(timed);
      }
      {
        Scope s(tracer, "serve.feed");
        sessions_.push_back(server_.open_session());
        sessions_.back()->observe_all(events_[i]);
      }
      {
        Scope s(tracer, "serve.report");
        reports_[i] = sessions_.back()->report();
      }
    }
    const std::vector<engine::Event>& arrivals = events_[kPhysical];
    {
      Scope s(tracer, "adaptive.replay");
      replay_ = ingest::replay_adaptive(arrivals, runtime_config(0.0));
    }
    Scope s(tracer, "scale.replays");
    scale_what_ifs(tracer, arrivals);
  }

  bool check() override {
    bool ok = expect(capture_verified_, "the lu.16 capture run did not verify");
    ok &= expect(capture_end_ns_ > spec_.window->end_ns, "the capture ends inside the window");
    for (std::size_t i = 0; i < kLevels.size(); ++i) {
      ok &= expect(!events_[i].empty() &&
                       static_cast<std::int64_t>(events_[i].size()) <= rows_read_[i],
                   "the window kept no rows, or more rows than were read");
      ok &= expect(reports_[i].events == static_cast<std::int64_t>(events_[i].size()),
                   "a session did not score every windowed row");
      for (const engine::Event& e : events_[i]) {
        if (e.destination < 0 || e.destination >= kFoldedRanks) {
          ok &= expect(false, "a folded destination lies outside mod:8");
          break;
        }
      }
    }
    engine::PredictionEngine reference(dpd_config(1));
    reference.observe_all(events_[kPhysical]);
    ok &= expect(reference.report() == reports_[kPhysical],
                 "physical session report differs from the engine's");
    const adaptive::PolicyStats& stats = replay_.stats;
    ok &= expect(stats.messages == static_cast<std::int64_t>(events_[kPhysical].size()) &&
                     stats.prepost_hits + stats.prepost_misses == stats.messages,
                 "the adaptive replay did not score every arrival exactly once");
    ok &= expect(buffer_hits_ + buffer_misses_ == scale_messages_ &&
                     credit_hits_ + credit_misses_ == scale_messages_ &&
                     scale_messages_ == static_cast<std::int64_t>(events_[kPhysical].size()),
                 "a scale what-if did not account for every arrival");
    if (first_.events == 0) {
      first_ = reports_[kPhysical];
    }
    ok &= expect(reports_[kPhysical] == first_, "a later pass gave a different physical report");
    sessions_.clear();
    return ok;
  }

  void end_to_end(Values& out) const override { put_accuracy(out, reports_[kPhysical]); }

  void per_layer(Values& out, const Tracer& tracer, const std::vector<int>& runs) override {
    const double parse_s = median_total(tracer, "ingest.parse", runs);
    const double rows_read = static_cast<double>(rows_read_[0] + rows_read_[1]);
    const double rows_kept = static_cast<double>(events_[0].size() + events_[1].size());
    out["ingest.parse_s"] = parse_s;
    out["ingest.rows_read"] = rows_read;
    out["ingest.rows_kept"] = rows_kept;
    out["ingest.kept_pct"] = 100.0 * rows_kept / rows_read;
    // Bytes read estimated as rows read times the capture's mean row size.
    const double row_bytes = file_bytes_ / static_cast<double>(capture_rows_);
    out["ingest.mib_per_s"] = rows_read * row_bytes / (1024.0 * 1024.0) / parse_s;
    out["serve.feed_s"] = median_total(tracer, "serve.feed", runs);
    out["engine.ns_per_msg"] = 1e9 * out["serve.feed_s"] / rows_kept;
    out["engine.footprint_kib"] = static_cast<double>(reports_[0].total_footprint_bytes +
                                                      reports_[1].total_footprint_bytes) /
                                  1024.0;
    out["adaptive.replay_s"] = median_total(tracer, "adaptive.replay", runs);
    out["scale.replays_s"] = median_total(tracer, "scale.replays", runs);
    out["adaptive.prepost_hit_pct"] = 100.0 * replay_.stats.hit_rate();
    out["adaptive.elided"] = static_cast<double>(replay_.stats.rendezvous_elided);

    const std::vector<engine::Event>& arrivals = events_[kPhysical];
    const auto by_dest = per_destination(arrivals);
    std::size_t busiest = 0;
    for (std::size_t d = 0; d < by_dest.size(); ++d) {
      if (by_dest[d].senders.size() > by_dest[busiest].senders.size()) {
        busiest = d;
      }
    }
    probe_core(out, by_dest[busiest].senders);
    probe_on_arrival(out, arrivals, runtime_config(0.0));
  }

 private:
  /// The three scale:: what-if replays, per folded destination.
  void scale_what_ifs(Tracer& tracer, const std::vector<engine::Event>& arrivals) {
    const auto by_dest = per_destination(arrivals);
    scale_messages_ = buffer_hits_ = buffer_misses_ = credit_hits_ = credit_misses_ = 0;
    {
      Scope s(tracer, "scale.rendezvous");
      scale::RendezvousConfig cfg;
      cfg.engine.shards = 1;
      for (const trace::Streams& d : by_dest) {
        const scale::RendezvousReport r =
            scale::evaluate_rendezvous_elision(d.senders, d.sizes, cfg);
        g_probe_sink += static_cast<std::uint64_t>(r.elided);
      }
    }
    {
      Scope s(tracer, "scale.credit_flow");
      scale::CreditFlowConfig cfg;
      cfg.engine.shards = 1;
      for (const trace::Streams& d : by_dest) {
        const scale::CreditComparison c = scale::compare_credit_policies(d.senders, d.sizes, cfg);
        scale_messages_ += c.predicted_credits.messages;
        credit_hits_ += c.predicted_credits.credit_hits;
        credit_misses_ += c.predicted_credits.credit_misses;
      }
    }
    Scope s(tracer, "scale.buffers");
    scale::BufferManagerConfig cfg;
    cfg.engine.shards = 1;
    for (const trace::Streams& d : by_dest) {
      const scale::BufferComparison c =
          scale::compare_buffer_policies(d.senders, kFoldedRanks, cfg);
      buffer_hits_ += c.predicted.hits;
      buffer_misses_ += c.predicted.misses;
    }
  }

  [[nodiscard]] static std::vector<trace::Streams> per_destination(
      const std::vector<engine::Event>& arrivals) {
    std::vector<trace::Streams> out(kFoldedRanks);
    for (const engine::Event& e : arrivals) {
      const auto d = static_cast<std::size_t>(std::clamp(e.destination, 0, kFoldedRanks - 1));
      out[d].senders.push_back(e.source);
      out[d].sizes.push_back(e.bytes);
    }
    return out;
  }

  std::uint64_t seed_;
  bool tiny_;
  apps::AppConfig capture_;
  std::string path_;
  bool capture_verified_ = false;
  std::int64_t capture_rows_ = 0;
  std::int64_t capture_end_ns_ = 0;
  double file_bytes_ = 0.0;
  ingest::TransformSpec spec_;
  serve::PredictionServer server_{{.engine = dpd_config(session_shards())}};
  std::vector<std::shared_ptr<serve::Session>> sessions_;
  std::array<std::int64_t, 2> rows_read_{};
  std::array<std::vector<engine::Event>, 2> events_;
  std::array<engine::EngineReport, 2> reports_;
  engine::EngineReport first_;
  ingest::AdaptiveReplay replay_;
  std::int64_t scale_messages_ = 0;
  std::int64_t buffer_hits_ = 0;
  std::int64_t buffer_misses_ = 0;
  std::int64_t credit_hits_ = 0;
  std::int64_t credit_misses_ = 0;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"offline_lu16", "closed_loop_cg16",
                                                 "replay_window"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  if (opts.workload == "offline_lu16") {
    return std::make_unique<OfflineLu16>(opts);
  }
  if (opts.workload == "closed_loop_cg16") {
    return std::make_unique<ClosedLoopCg16>(opts);
  }
  if (opts.workload == "replay_window") {
    return std::make_unique<ReplayWindow>(opts);
  }
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
