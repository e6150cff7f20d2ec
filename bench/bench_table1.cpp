// Table 1 — "MPI applications used for this study": per application and
// process count, the number of point-to-point and collective messages
// received by a (representative) process, and the number of frequently
// appearing message sizes and senders. Paper values printed alongside for
// comparison; absolute counts depend on iteration structure, the *shape*
// (magnitudes, p2p/collective split, locality counts) is the claim.

#include <cstdio>
#include <map>
#include <string>

#include "bench/bench_util.hpp"

namespace {

struct PaperRow {
  long p2p;
  long coll;
  int sizes;
  int senders;
};

// Table 1 of the paper, keyed by "app.procs".
const std::map<std::string, PaperRow> kPaper = {
    {"bt.4", {2416, 9, 3, 3}},      {"bt.9", {3651, 9, 3, 7}},
    {"bt.16", {4826, 9, 3, 7}},     {"bt.25", {6030, 9, 3, 7}},
    {"cg.4", {1679, 0, 2, 2}},      {"cg.8", {2942, 0, 2, 2}},
    {"cg.16", {2942, 0, 2, 2}},     {"cg.32", {4204, 0, 2, 2}},
    {"lu.4", {31472, 18, 2, 2}},    {"lu.8", {31474, 18, 4, 2}},
    {"lu.16", {31474, 18, 2, 2}},   {"lu.32", {47211, 18, 4, 2}},
    {"is.4", {11, 89, 3, 4}},       {"is.8", {11, 177, 3, 8}},
    {"is.16", {11, 353, 3, 16}},    {"is.32", {11, 705, 3, 32}},
    {"sweep3d.6", {1438, 36, 2, 3}}, {"sweep3d.16", {949, 36, 2, 2}},
    {"sweep3d.32", {949, 36, 2, 2}},
};

}  // namespace

static int run(int argc, char** argv) {
  mpipred::bench::reject_arguments({argv + 1, argv + argc});
  using namespace mpipred;
  std::printf("Table 1 — application characteristics (Class A, representative rank)\n");
  std::printf("%-12s | %9s %9s %6s %8s | %9s %9s %6s %8s\n", "app.procs", "p2p", "coll",
              "sizes", "senders", "p2p*", "coll*", "sizes*", "senders*");
  std::printf("%-12s | %38s | %38s\n", "", "measured", "paper");
  std::printf("--------------------------------------------------------------------------------"
              "-------------\n");

  for (const auto& info : apps::all_apps()) {
    for (const int procs : info.paper_proc_counts) {
      auto run = bench::run_traced(std::string(info.name), procs);
      const int rep = trace::representative_rank(run.world->traces(), trace::Level::Logical);
      const auto s = trace::summarize_rank(run.world->traces(), rep, trace::Level::Logical);
      const std::string key = std::string(info.name) + "." + std::to_string(procs);
      const auto it = kPaper.find(key);
      std::printf("%-12s | %9lld %9lld %6d %8d |", key.c_str(),
                  static_cast<long long>(s.p2p_msgs), static_cast<long long>(s.coll_msgs),
                  s.clustered_frequent_sizes, s.frequent_senders);
      if (it != kPaper.end()) {
        std::printf(" %9ld %9ld %6d %8d", it->second.p2p, it->second.coll, it->second.sizes,
                    it->second.senders);
      }
      std::printf("  %s\n", run.outcome.verified ? "" : "[UNVERIFIED]");
      std::fflush(stdout);
    }
  }
  std::printf("\n(* paper values; our counts come from the simulator's Class A runs —\n"
              " magnitudes and locality structure are the reproduction target)\n");
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(argc, argv, "usage: bench_table1\n", run);
}
