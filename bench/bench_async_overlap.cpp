// The number the async front-end exists to produce: how much prediction
// work (predict → pre-post → reconcile) the progress engine hides behind
// application compute.
//
// For each NAS app (bt/cg/lu at 16 ranks, paper machine profile) the same
// adaptive run executes three times:
//
//   baseline  predict_cost_ns = 0 — the feed is free; the reference run.
//   inline    the feed costs C ns charged on the receive path
//             (FeedPath::Inline): every packet waits behind the
//             prediction work, the pre-refactor architecture's cost.
//   async     the same C ns charged as progress-engine work
//             (FeedPath::Progress): delivery timing untouched, the work
//             tracked in the endpoint's feed counters.
//
// Two gates, both exit 2 on failure:
//   1. The async run is byte-identical to the baseline — logical and
//      physical trace fingerprints, payload checksum, and final simulated
//      time all match. Off the critical path means *provably* off.
//   2. The inline run is strictly slower than the async run on every app:
//      the refactor moved real overhead off the critical path.
//
// Writes BENCH_async_overlap.json (deterministic, diffable).
//
//   $ ./bench_async_overlap [--cost-ns <n>] [--iters <n>] [--out <file>]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "bench/json_writer.hpp"
#include "mpi/world.hpp"
#include "trace/store.hpp"

namespace {

using namespace mpipred;

constexpr int kProcs = 16;

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

/// Order-sensitive hash of every record of every (rank, level) stream —
/// the same fingerprint mpi_gate_test pins the blocking wrappers with.
std::uint64_t trace_fingerprint(const trace::TraceStore& store, trace::Level level) {
  std::uint64_t h = kFnvOffset;
  for (int r = 0; r < store.nranks(); ++r) {
    mix(h, 0x5241u + static_cast<std::uint64_t>(r));
    for (const trace::Record& rec : store.records(r, level)) {
      mix(h, static_cast<std::uint64_t>(rec.time.count()));
      mix(h, static_cast<std::uint64_t>(rec.sender));
      mix(h, static_cast<std::uint64_t>(rec.bytes));
      mix(h, static_cast<std::uint64_t>(rec.kind));
      mix(h, static_cast<std::uint64_t>(rec.op));
    }
  }
  return h;
}

struct RunResult {
  std::uint64_t logical = 0;
  std::uint64_t physical = 0;
  std::uint64_t checksum = 0;
  std::int64_t final_time_ns = 0;
  std::int64_t feed_events = 0;
  std::int64_t feed_work_ns = 0;
  std::int64_t feed_lag_peak_ns = 0;
};

RunResult run_app(const std::string& app, int iters, std::int64_t cost_ns,
                  adaptive::FeedPath path) {
  mpi::WorldConfig cfg = apps::paper_world_config(/*seed=*/2003);
  cfg.adaptive.enabled = true;
  cfg.adaptive.service.engine.shards = 1;
  cfg.adaptive.predict_cost_ns = cost_ns;
  cfg.adaptive.feed_path = path;
  mpi::World world(kProcs, cfg);
  const auto outcome = apps::find_app(app).run(
      world, apps::AppConfig{.problem_class = apps::ProblemClass::S,
                             .iterations_override = iters});
  const auto counters = world.aggregate_counters();
  RunResult r;
  r.logical = trace_fingerprint(world.traces(), trace::Level::Logical);
  r.physical = trace_fingerprint(world.traces(), trace::Level::Physical);
  r.checksum = outcome.combined_checksum();
  r.final_time_ns = world.engine().stats().final_time.count();
  r.feed_events = counters.prepost_hits + counters.prepost_misses;
  r.feed_work_ns = counters.adaptive_feed_ns;
  r.feed_lag_peak_ns = counters.adaptive_feed_lag_peak_ns;
  return r;
}

int fail_gate(const char* what) {
  std::fprintf(stderr, "GATE FAILED: %s\n", what);
  return 2;
}

}  // namespace

static int run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto cost_ns = static_cast<std::int64_t>(bench::size_flag(args, "--cost-ns", 2000));
  const int iters = static_cast<int>(bench::size_flag(args, "--iters", 8));
  const std::string out_path = bench::string_flag(args, "--out", "BENCH_async_overlap.json");
  bench::reject_arguments(args);

  std::printf("async overlap: %d ranks, class S, %d iters, feed cost %lld ns/arrival\n\n",
              kProcs, iters, static_cast<long long>(cost_ns));
  std::printf("%-4s %14s %14s %14s %12s %12s %8s\n", "app", "baseline_ns", "inline_ns",
              "async_ns", "inline_ovh", "hidden_ns", "hidden%");

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("async_overlap");
  json.key("config").begin_object();
  json.key("procs").value(std::int64_t{kProcs});
  json.key("problem_class").value("S");
  json.key("iterations").value(static_cast<std::int64_t>(iters));
  json.key("predict_cost_ns").value(cost_ns);
  json.key("seed").value(std::int64_t{2003});
  json.end_object();
  json.key("apps").begin_array();

  bool async_identical = true;
  bool inline_slower = true;
  for (const char* app : {"bt", "cg", "lu"}) {
    const RunResult baseline = run_app(app, iters, 0, adaptive::FeedPath::Progress);
    const RunResult inl = run_app(app, iters, cost_ns, adaptive::FeedPath::Inline);
    const RunResult async = run_app(app, iters, cost_ns, adaptive::FeedPath::Progress);

    const bool identical = async.logical == baseline.logical &&
                           async.physical == baseline.physical &&
                           async.checksum == baseline.checksum &&
                           async.final_time_ns == baseline.final_time_ns;
    async_identical = async_identical && identical;
    inline_slower = inline_slower && inl.final_time_ns > async.final_time_ns;

    const std::int64_t inline_overhead = inl.final_time_ns - baseline.final_time_ns;
    // The work the progress engine absorbed without moving the clock.
    const std::int64_t hidden = async.feed_work_ns;
    const double hidden_pct =
        inline_overhead > 0 ? 100.0 * static_cast<double>(hidden) /
                                  static_cast<double>(inline_overhead + hidden)
                            : 0.0;

    std::printf("%-4s %14lld %14lld %14lld %12lld %12lld %7.1f%%\n", app,
                static_cast<long long>(baseline.final_time_ns),
                static_cast<long long>(inl.final_time_ns),
                static_cast<long long>(async.final_time_ns),
                static_cast<long long>(inline_overhead), static_cast<long long>(hidden),
                hidden_pct);

    json.begin_object();
    json.key("app").value(app);
    json.key("feed_events").value(baseline.feed_events);
    json.key("baseline_final_time_ns").value(baseline.final_time_ns);
    json.key("inline_final_time_ns").value(inl.final_time_ns);
    json.key("async_final_time_ns").value(async.final_time_ns);
    json.key("inline_overhead_ns").value(inline_overhead);
    json.key("async_overhead_ns").value(async.final_time_ns - baseline.final_time_ns);
    json.key("overlapped_feed_work_ns").value(hidden);
    json.key("feed_lag_peak_ns").value(async.feed_lag_peak_ns);
    json.key("async_identical_to_baseline").value(identical);
    json.end_object();
  }

  json.end_array();
  json.key("gates").begin_object();
  json.key("async_byte_identical_to_baseline").value(async_identical);
  json.key("inline_strictly_slower_than_async").value(inline_slower);
  json.end_object();
  json.end_object();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", json.str().c_str());
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!async_identical) {
    return fail_gate("async feed run diverged from the zero-cost baseline");
  }
  if (!inline_slower) {
    return fail_gate("inline feed cost did not slow the run vs the async path");
  }
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(
      argc, argv, "usage: bench_async_overlap [--cost-ns <n>] [--iters <n>] [--out <file>]\n", run);
}
