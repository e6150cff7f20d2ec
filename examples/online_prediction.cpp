// Online use: predict *while* the application runs. Replays the physical
// traces of ALL Sweep3D processes in global delivery order through the
// prediction engine, which demultiplexes them into one stream per
// receiving process on the fly. Before each arrival the engine's +1
// prediction for that stream is scored, the way an MPI library would
// pre-post a buffer just before the message lands.
//
//   $ ./examples/online_prediction [--predictor <name>]

#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "apps/app.hpp"
#include "bench/cli.hpp"
#include "engine/engine.hpp"
#include "mpi/world.hpp"

namespace {

constexpr std::string_view kUsage =
    "usage: online_prediction [--predictor <name>] [--list-predictors]\n";

int run(int argc, char** argv) {
  using namespace mpipred;
  const auto arg = engine::predictor_arg_or_exit(argc, argv);
  bench::reject_arguments(arg.rest);
  const std::string& predictor = arg.name;

  std::printf("running sweep3d.6 (Class A)...\n");
  mpi::World world(6, apps::paper_world_config(99));
  (void)apps::run_sweep3d(world, apps::AppConfig{.problem_class = apps::ProblemClass::A});

  const auto events = engine::events_from_trace(world.traces(), trace::Level::Physical);
  std::printf("replaying %zu physical arrivals across all 6 processes online (%s)...\n\n",
              events.size(), predictor.c_str());

  engine::PredictionEngine eng(engine::EngineConfig{.predictor = predictor});
  std::map<engine::StreamKey, std::int64_t> seen;
  std::int64_t hits = 0;
  std::int64_t total = 0;
  std::int64_t window_hits = 0;
  std::int64_t window_total = 0;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    // Score the +1 prediction the receiving process's stream held *before*
    // this message arrived (joint: sender AND size must both be right).
    // Every arrival after a stream's first counts — the paper's metric,
    // where a stream with nothing to say scores a miss.
    const auto key = eng.key_of(event);
    if (seen[key]++ > 0) {
      const auto sender = eng.predict_sender(key);
      const auto size = eng.predict_size(key);
      const bool hit = sender == event.source && size == event.bytes;
      hits += hit ? 1 : 0;
      window_hits += hit ? 1 : 0;
      ++total;
      ++window_total;
    }
    eng.observe(event);

    if (window_total == 256) {
      std::printf("  after %5zu arrivals: rolling (sender,size) hit rate %5.1f%%  (%zu streams)\n",
                  i + 1, 100.0 * static_cast<double>(window_hits) / 256.0, eng.stream_count());
      window_hits = 0;
      window_total = 0;
    }
  }
  const auto report = eng.report();
  std::printf("\noverall joint +1 hit rate: %.1f%% over %lld scored arrivals\n",
              total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) / static_cast<double>(total),
              static_cast<long long>(total));
  std::printf("engine state: %zu streams over %zu shards, %.1f KiB of predictor memory\n",
              report.streams.size(), eng.shard_count(),
              static_cast<double>(report.total_footprint_bytes) / 1024.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, kUsage, run);
}
