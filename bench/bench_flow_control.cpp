// §2.2 — control flow for short messages. Eager-everything is fast but the
// receiver's memory exposure is unbounded (it must buffer any burst);
// always-ask bounds memory but triples the latency of every message. The
// paper's proposal: grant credits for *predicted* (sender, size) pairs —
// eager speed with bounded, receiver-controlled memory. Replays physical
// traces under all three policies.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "scale/credit_flow.hpp"

static int run(int argc, char** argv) {
  mpipred::bench::reject_arguments({argv + 1, argv + argc});
  using namespace mpipred;
  std::printf("§2.2 — credit-based flow control on physical traces\n\n");
  std::printf("%-12s %-18s %10s %14s %14s\n", "config", "policy", "hit-rate%", "peak-pledged-B",
              "mean-lat-us");

  struct Case {
    const char* app;
    int procs;
  };
  for (const auto& [app, procs] :
       {Case{"lu", 8}, Case{"bt", 9}, Case{"cg", 16}, Case{"sweep3d", 16}, Case{"is", 16}}) {
    auto run = bench::run_traced(app, procs);
    const int rep = trace::representative_rank(run.world->traces(), trace::Level::Physical);
    const auto streams =
        trace::extract_streams(run.world->traces(), rep, trace::Level::Physical);
    const auto cmp = scale::compare_credit_policies(streams.senders, streams.sizes);
    for (const auto* report :
         {&cmp.eager_everything, &cmp.always_ask, &cmp.predicted_credits}) {
      std::printf("%-12s %-18s %10.1f %14lld %14.2f\n",
                  (std::string(app) + "." + std::to_string(procs)).c_str(),
                  report->policy.c_str(), bench::pct(report->hit_rate()),
                  static_cast<long long>(report->peak_pledged_bytes),
                  report->mean_latency_ns() / 1000.0);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("(expected: predicted-credits ~eager latency with ~always-ask memory bounds\n"
              " on periodic apps; IS degrades towards always-ask)\n");
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, "usage: bench_flow_control\n", run);
}
