// Ablation — detector criterion variants on real traces. DESIGN.md calls
// out the one place this implementation deliberately deviates from the
// reference DPD formulation: the production detector confirms a lag from
// its *match run* with score hysteresis, while the reference checks
// d(m) == 0 over the full window. On clean logical streams the two are
// nearly identical; on physical streams the full-window criterion goes
// silent for a whole window after every random swap. This bench
// quantifies that difference, plus the contribution of the hysteresis
// fallback alone (mismatch_penalty high enough that scores never help).
//
// Every variant is built through the predictor registry, so the swept
// column accepts any registered family:
//
//   $ ./bench/bench_ablation [--predictor <name>]      (default: dpd)
//   $ ./bench/bench_ablation --list-predictors

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.hpp"

namespace {

using namespace mpipred;

core::AccuracyReport eval_family(const std::string& name, const engine::PredictorOptions& options,
                                 std::span<const std::int64_t> stream) {
  const auto predictor = engine::make_predictor(name, options);
  return core::evaluate_with(*predictor, stream, 5);
}

}  // namespace

static int run(int argc, char** argv) {
  const std::string predictor = bench::predictor_flag(argc, argv);

  // Effectively disable the hysteresis fallback: one mismatch drains any
  // score, leaving only the strict run criterion.
  engine::PredictorOptions strict_options;
  strict_options.dpd.mismatch_penalty = 1u << 20;

  std::printf("Ablation — detector criterion on real traces (+1 / +5 %% accuracy)\n\n");
  std::printf("%-14s %-9s  %-13s %-13s %-13s\n", "config", "level", predictor.c_str(),
              "strict-run", "full-window");

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] : {Case{"bt", 9}, Case{"lu", 8}, Case{"sweep3d", 16},
                                   Case{"cg", 16}}) {
    auto run = bench::run_traced(app, procs);
    for (const auto level : {trace::Level::Logical, trace::Level::Physical}) {
      const int rep = trace::representative_rank(run.world->traces(), level);
      const auto streams = trace::extract_streams(run.world->traces(), rep, level);
      const auto swept = eval_family(predictor, {}, streams.senders);
      const auto strict = eval_family("dpd", strict_options, streams.senders);
      const auto window = eval_family("dpd-window", {}, streams.senders);
      std::printf("%-14s %-9s  %5.1f /%5.1f  %5.1f /%5.1f  %5.1f /%5.1f\n",
                  (std::string(app) + "." + std::to_string(procs)).c_str(),
                  std::string(to_string(level)).c_str(), bench::pct(swept.at(1).accuracy()),
                  bench::pct(swept.at(5).accuracy()), bench::pct(strict.at(1).accuracy()),
                  bench::pct(strict.at(5).accuracy()), bench::pct(window.at(1).accuracy()),
                  bench::pct(window.at(5).accuracy()));
      std::fflush(stdout);
    }
  }
  std::printf("\n(expected with the default dpd column: all three agree on logical streams;\n"
              " on physical streams hysteretic production > strict runs > full-window d(m))\n");
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(
      argc, argv, "usage: bench_ablation [--predictor <name>] [--list-predictors]\n", run);
}
