// §4.2 — "To have a small overhead is important since prediction has to be
// done at runtime. It was shown in [6] that the overhead of such an
// implementation is small." google-benchmark micro-benchmarks of the
// predictor hot path: observe() (per received message) and observe +
// five-horizon predict() (what an MPI library pays per receive).
//
// Every family comes out of the predictor registry — the sweep covers all
// builtin names uniformly, and each benchmark reports the predictor's own
// footprint_bytes() as the state-size counter instead of a hand-computed
// estimate. Standard google-benchmark flags (--benchmark_filter=...) select
// subsets.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "engine/registry.hpp"

namespace {

using mpipred::engine::make_predictor;
using mpipred::engine::PredictorOptions;

std::vector<std::int64_t> periodic_stream(std::size_t period, std::size_t n) {
  std::vector<std::int64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int64_t>(i % period);
  }
  return out;
}

void observe_only(benchmark::State& state, const std::string& name,
                  const PredictorOptions& options) {
  const auto predictor = make_predictor(name, options);
  const auto stream = periodic_stream(18, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    predictor->observe(stream[i++ & 4095]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["state_bytes"] = static_cast<double>(predictor->footprint_bytes());
}

void observe_and_predict(benchmark::State& state, const std::string& name,
                         const PredictorOptions& options) {
  // The full per-message runtime cost: one observation + refreshing the
  // five-value lookahead.
  const auto predictor = make_predictor(name, options);
  const auto stream = periodic_stream(18, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    predictor->observe(stream[i++ & 4095]);
    for (std::size_t h = 1; h <= 5; ++h) {
      benchmark::DoNotOptimize(predictor->predict(h));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["state_bytes"] = static_cast<double>(predictor->footprint_bytes());
}

void dpd_observe_at_max_period(benchmark::State& state) {
  // DPD-specific scaling probe: observe() cost is O(max_period) per
  // sample; sweep the lag-table size the way the old hard-wired bench did,
  // but through the registry options.
  PredictorOptions options;
  options.dpd.max_period = static_cast<std::size_t>(state.range(0));
  options.dpd.window = 2 * options.dpd.max_period + 16;
  observe_only(state, "dpd", options);
}
BENCHMARK(dpd_observe_at_max_period)->Arg(64)->Arg(128)->Arg(256);

}  // namespace

static int run(int argc, char** argv) {
  for (const auto& name : mpipred::engine::builtin_predictor_names()) {
    benchmark::RegisterBenchmark(("observe/" + name).c_str(),
                                 [name](benchmark::State& state) {
                                   observe_only(state, name, PredictorOptions{});
                                 });
    benchmark::RegisterBenchmark(("observe_and_predict/" + name).c_str(),
                                 [name](benchmark::State& state) {
                                   observe_and_predict(state, name, PredictorOptions{});
                                 });
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(
      argc, argv, "usage: bench_predictor_overhead [--benchmark_<flag>=<value> ...]\n", run);
}
