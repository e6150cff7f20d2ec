// §2.1 — memory reduction. "Just imagine that each process allocates a
// 16KB buffer for each other process ... 10000 nodes ... 160MB of memory
// per process." With sender prediction the receiver only keeps buffers for
// the peers about to send; mispredictions fall back to the slow
// ask-permission path. Replays real physical traces under the three
// policies and extrapolates the per-process memory to large machines.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "scale/buffer_manager.hpp"

static int run(int argc, char** argv) {
  mpipred::bench::reject_arguments({argv + 1, argv + argc});
  using namespace mpipred;
  std::printf("§2.1 — buffer memory: all-pairs vs prediction-driven (physical traces)\n\n");
  std::printf("%-12s %10s %10s %10s %12s %12s %10s\n", "config", "hit-rate%", "buffers",
              "peak-buf", "mem-bytes", "allpairs-B", "latencyx");

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] : {Case{"bt", 16}, Case{"bt", 25}, Case{"lu", 32},
                                   Case{"cg", 32}, Case{"sweep3d", 32}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
    const auto streams = trace::extract_streams(run.world->traces(), rep, trace::Level::Physical,
                                                {.kind = trace::OpKind::PointToPoint});
    const auto cmp = scale::compare_buffer_policies(streams.senders, procs);
    const scale::LatencyModel model;
    const double mean_bytes = 4096;
    std::printf("%-12s %10.1f %10.1f %10lld %12.0f %12lld %10.2f\n",
                (std::string(app) + "." + std::to_string(procs)).c_str(),
                bench::pct(cmp.predicted.hit_rate()), cmp.predicted.avg_buffers,
                static_cast<long long>(cmp.predicted.peak_buffers),
                cmp.predicted.avg_memory_bytes(),
                static_cast<long long>(cmp.all_pairs.peak_memory_bytes()),
                cmp.predicted.mean_latency_ns(model, mean_bytes) /
                    cmp.all_pairs.mean_latency_ns(model, mean_bytes));
    std::fflush(stdout);
  }

  std::printf("\nExtrapolation of §2.1's example (16 KiB per peer buffer):\n");
  for (const long long nodes : {100LL, 1000LL, 10000LL}) {
    const long long all_pairs = (nodes - 1) * 16 * 1024;
    // Prediction keeps roughly (frequent senders + LRU) buffers resident;
    // use 8 as the observed ceiling across our traces.
    const long long predicted = 8 * 16 * 1024;
    std::printf("  %6lld nodes: all-pairs %8.1f MiB/process -> predicted %5.2f MiB/process\n",
                nodes, static_cast<double>(all_pairs) / (1024.0 * 1024.0),
                static_cast<double>(predicted) / (1024.0 * 1024.0));
  }
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, "usage: bench_memory_reduction\n", run);
}
