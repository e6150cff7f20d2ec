// Throughput of the sharded PredictionEngine on a synthetic many-stream
// trace, swept over shard counts. Every sweep point is checked for report
// equality against the sequential (1-shard) run, so this bench doubles as
// a large-scale equivalence check on top of engine_parallel_test.
//
//   $ ./bench_engine_scaling [--predictor <name>] [--events <n>]
//                            [--streams <n>] [--shards <n>]
//
// Defaults: 1M events over 100k per-receiver streams; sweep shards
// {1, 2, 4, 8, hw}. `--shards <n>` measures that single count instead.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "engine/engine.hpp"

namespace {

using mpipred::engine::Event;

/// Periodic traffic over `streams` receivers: stream s sees sender
/// (s + round) % 1024 and sizes cycling over five powers of two — signal
/// the predictors genuinely chew on, unlike white noise.
std::vector<Event> synthetic_trace(std::size_t events, std::size_t streams) {
  std::vector<Event> out;
  out.reserve(events);
  for (std::size_t i = 0; i < events; ++i) {
    const std::size_t stream = i % streams;
    const std::size_t round = i / streams;
    out.push_back({.source = static_cast<std::int32_t>((stream + round) % 1024),
                   .destination = static_cast<std::int32_t>(stream),
                   .tag = 0,
                   .bytes = std::int64_t{64} << (round % 5)});
  }
  return out;
}

}  // namespace

static int run(int argc, char** argv) {
  using namespace mpipred;
  auto arg = engine::predictor_arg_or_exit(argc, argv);
  const std::size_t events_n = bench::size_flag(arg.rest, "--events", 1'000'000);
  const std::size_t streams_n = bench::size_flag(arg.rest, "--streams", 100'000);
  const std::size_t fixed_shards = bench::shards_flag(arg.rest, 0);
  bench::reject_arguments(arg.rest);
  if (events_n == 0 || streams_n == 0) {
    std::fprintf(stderr, "--events and --streams must be at least 1\n");
    return 1;
  }

  const std::size_t hw = engine::effective_shard_count(0);
  std::vector<std::size_t> counts;
  if (fixed_shards != 0) {
    counts = {1, engine::effective_shard_count(fixed_shards)};
  } else {
    counts = {1, 2, 4, 8, hw};
  }
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::printf("engine scaling: %zu events, %zu streams, predictor %s, %zu hardware threads\n\n",
              events_n, streams_n, arg.name.c_str(), hw);
  const auto events = synthetic_trace(events_n, streams_n);

  std::printf("%8s %10s %12s %9s %10s\n", "shards", "seconds", "events/s", "speedup",
              "identical");
  engine::EngineReport baseline;
  double baseline_seconds = 0.0;
  bool all_identical = true;
  for (const std::size_t shards : counts) {
    engine::PredictionEngine eng(
        engine::EngineConfig{.predictor = arg.name, .shards = shards});
    // mpipred-lint: allow(wall-clock) -- this bench times the real feed path on the host
    const auto start = std::chrono::steady_clock::now();
    eng.observe_all(events);
    // mpipred-lint: allow(wall-clock) -- same measurement, closing timestamp
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    const auto report = eng.report();

    const double seconds = elapsed.count();
    if (shards == 1) {
      baseline = report;
      baseline_seconds = seconds;
    }
    const bool identical = report == baseline;
    all_identical = all_identical && identical;
    std::printf("%8zu %10.3f %12.0f %8.2fx %10s\n", shards, seconds,
                static_cast<double>(events_n) / seconds, baseline_seconds / seconds,
                identical ? "yes" : "NO");
  }

  std::printf("\n%zu streams, %.1f MiB predictor state\n", baseline.streams.size(),
              static_cast<double>(baseline.total_footprint_bytes) / (1024.0 * 1024.0));
  if (hw == 1) {
    std::printf("(single hardware thread: shard counts > 1 only prove equivalence here;\n"
                " speedups need a multi-core host)\n");
  }
  return all_identical ? 0 : 2;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(
      argc, argv,
      "usage: bench_engine_scaling [--predictor <name>] [--events <n>] [--streams <n>]\n"
      "                            [--shards <n>]\n",
      run);
}
