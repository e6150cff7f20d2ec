// §2.1 scenario: plan receive buffers from predictions. Runs BT on 16
// simulated processes, takes one process's *physical* sender stream, and
// replays it through the prediction-driven buffer manager, comparing the
// memory footprint and slow-path rate against all-pairs pre-allocation.
//
//   $ ./examples/buffer_planner [procs]    (default 16, must be a square)

#include <cstdio>
#include <string>
#include <string_view>

#include "apps/app.hpp"
#include "bench/cli.hpp"
#include "mpi/world.hpp"
#include "scale/buffer_manager.hpp"
#include "trace/stats.hpp"
#include "trace/stream.hpp"

namespace {

constexpr std::string_view kUsage =
    "usage: buffer_planner [procs]    (default 16, must be a square)\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  if (argc > 2) {
    throw UsageError(std::string("unexpected argument '") + argv[2] + "'");
  }
  const int procs = argc > 1 ? bench::int_arg<int>(argv[1], "procs") : 16;
  if (!apps::bt_supports(procs)) {
    std::printf("BT needs a square process count (got %d)\n", procs);
    return 1;
  }

  std::printf("running bt.%d and planning buffers from its physical trace...\n\n", procs);
  mpi::World world(procs, apps::paper_world_config(7));
  (void)apps::run_bt(world, apps::AppConfig{.problem_class = apps::ProblemClass::A});

  const int rank = trace::representative_rank(world.traces(), trace::Level::Physical);
  const auto streams = trace::extract_streams(world.traces(), rank, trace::Level::Physical,
                                              {.kind = trace::OpKind::PointToPoint});
  const auto cmp = scale::compare_buffer_policies(streams.senders, procs);

  const auto print = [](const scale::BufferPolicyReport& r) {
    std::printf("  %-12s hit-rate %5.1f%%  avg buffers %5.1f  peak %3lld  avg memory %8.0f B\n",
                r.policy.c_str(), 100.0 * r.hit_rate(), r.avg_buffers,
                static_cast<long long>(r.peak_buffers), r.avg_memory_bytes());
  };
  std::printf("process %d received %zu point-to-point messages\n", rank, streams.length());
  print(cmp.all_pairs);
  print(cmp.predicted);
  print(cmp.none);

  std::printf("\nmemory saved by prediction: %.1f%% (at %d processes; the gap widens\n"
              "linearly with machine size — that is §2.1's argument)\n",
              100.0 * (1.0 - cmp.predicted.avg_memory_bytes() /
                                 cmp.all_pairs.avg_memory_bytes()),
              procs);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
