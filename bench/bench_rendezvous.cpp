// §2.3 — long messages without rendezvous. A large message normally pays a
// three-leg handshake; a receiver that *predicts* the (sender, size) can
// allocate the buffer and pre-grant the transfer, making the long message
// travel like a short one. Replays physical traces and reports the elision
// rate and modeled latency improvement for rendezvous-sized messages.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "scale/rendezvous.hpp"

static int run(int argc, char** argv) {
  mpipred::bench::reject_arguments({argv + 1, argv + argc});
  using namespace mpipred;
  std::printf("§2.3 — rendezvous elision for long messages (physical traces)\n\n");
  std::printf("%-12s %10s %10s %14s %10s\n", "config", "long-msgs", "elided%", "lat-saved-us",
              "speedup");

  struct Case {
    const char* app;
    int procs;
    std::int64_t threshold;
  };
  for (const auto& [app, procs, threshold] :
       {Case{"lu", 4, 16 * 1024}, Case{"lu", 16, 16 * 1024}, Case{"bt", 9, 16 * 1024},
        Case{"bt", 25, 16 * 1024}, Case{"cg", 8, 16 * 1024}, Case{"is", 8, 16 * 1024}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
    const auto streams =
        trace::extract_streams(run.world->traces(), rep, trace::Level::Physical);
    scale::RendezvousConfig cfg;
    cfg.threshold_bytes = threshold;
    const auto report = scale::evaluate_rendezvous_elision(streams.senders, streams.sizes, cfg);
    std::printf("%-12s %10lld %10.1f %14.2f %10.3f\n",
                (std::string(app) + "." + std::to_string(procs)).c_str(),
                static_cast<long long>(report.long_messages), bench::pct(report.elision_rate()),
                (report.baseline_latency_ns - report.predicted_latency_ns) / 1000.0,
                report.speedup());
    std::fflush(stdout);
  }
  std::printf("\n(expected: periodic large transfers — LU faces, BT faces — mostly elided;\n"
              " IS's data-dependent alltoallv sizes resist elision)\n");
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, "usage: bench_rendezvous\n", run);
}
