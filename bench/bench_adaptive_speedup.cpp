// The paper's headline claim, finally in simulated seconds: with every
// adaptive decision point priced — a pre-post miss pays the §2.2
// unexpected-copy/ask-permission round-trip (sim::NetworkConfig::
// fallback_cost), an elided rendezvous actually skips the RTS/CTS legs,
// and eager flow control runs on the policy's per-stream credits — how
// much faster is the adaptive runtime than the static per-peer library?
//
// For each NAS app (bt/cg/lu at 16 ranks, paper machine profile, class A)
// and each sim seed, one static world and five adaptive worlds run, the
// adaptive ones sweeping PolicyConfig::min_confidence over
// {0.0, 0.5, 0.8, 0.95, 1.0}. Speedup is reported per confidence as
// median / p10 / p90 over the seeds (Hunold & Carpen-Amarie, "MPI
// Benchmarking Revisited": seeded repetitions and spread, never a single
// run; the seeds are disclosed in the header and the artifact).
//
// Two gates, both exit 2 on failure:
//   1. The default-confidence adaptive run's report (trace fingerprints,
//      final time, and every aggregate endpoint counter) is byte-identical
//      across engine shard counts {1, 2, 4}.
//   2. min_confidence = 1.0 degrades every stream to static per-peer
//      behavior: logical/physical fingerprints, payload checksum, and
//      final simulated time all equal the static world's, for every app
//      and seed.
//
// Writes BENCH_adaptive_speedup.json (deterministic, diffable).
//
//   $ ./bench_adaptive_speedup [--apps bt,cg,lu] [--seeds <n>]
//                              [--iters <n>] [--fallback-ns <n>]
//                              [--out <file>]

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "adaptive/policy.hpp"
#include "apps/app.hpp"
#include "apps/registry.hpp"
#include "bench/bench_util.hpp"
#include "bench/json_writer.hpp"
#include "mpi/world.hpp"
#include "scale/report.hpp"
#include "trace/store.hpp"

namespace {

using namespace mpipred;

constexpr int kProcs = 16;
constexpr std::uint64_t kBaseSeed = 2003;
constexpr double kConfidences[] = {0.0, 0.5, 0.8, 0.95, 1.0};

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
  mpi::detail::EndpointCounters counters{};
  std::int64_t rendezvous_round_trips = 0;  // policy view: full handshakes
  std::int64_t rendezvous_elided = 0;
  std::int64_t elision_saved_ns = 0;
  std::int64_t degraded_arrivals = 0;
};

/// The behavioral fields only — what "identical to static" means. The
/// counter set is excluded on purpose: an adaptive world counts its
/// prediction scoring even while every decision is degraded off.
bool behaviorally_equal(const RunResult& a, const RunResult& b) {
  return a.logical == b.logical && a.physical == b.physical && a.checksum == b.checksum &&
         a.final_time_ns == b.final_time_ns;
}

/// Byte-comparable report for the cross-shard gate: fingerprints, final
/// time, and every aggregate endpoint counter by name.
std::string report(const RunResult& r) {
  char buf[128];
  std::string out;
  std::snprintf(buf, sizeof(buf), "logical=%016llx physical=%016llx checksum=%016llx final=%lld",
                static_cast<unsigned long long>(r.logical),
                static_cast<unsigned long long>(r.physical),
                static_cast<unsigned long long>(r.checksum),
                static_cast<long long>(r.final_time_ns));
  out += buf;
  for (const auto& field : mpi::detail::EndpointCounters::fields()) {
    std::snprintf(buf, sizeof(buf), " %s=%lld", field.name,
                  static_cast<long long>(r.counters.*(field.member)));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), " elided=%lld saved_ns=%lld degraded=%lld",
                static_cast<long long>(r.rendezvous_elided),
                static_cast<long long>(r.elision_saved_ns),
                static_cast<long long>(r.degraded_arrivals));
  out += buf;
  return out;
}

RunResult run_case(const std::string& app, int iters, std::uint64_t seed, std::int64_t fallback_ns,
                   bool adaptive_on, double min_confidence, std::size_t shards) {
  mpi::WorldConfig cfg = apps::paper_world_config(seed);
  cfg.engine.network.fallback_cost = sim::SimTime{fallback_ns};
  cfg.adaptive.enabled = adaptive_on;
  if (adaptive_on) {
    cfg.adaptive.service.engine.shards = shards;
    cfg.adaptive.policy.min_confidence = min_confidence;
    cfg.adaptive.per_stream_credits = true;
  }
  mpi::World world(kProcs, cfg);
  const auto outcome = apps::find_app(app).run(
      world,
      apps::AppConfig{.problem_class = apps::ProblemClass::A, .iterations_override = iters});
  RunResult r;
  r.logical = trace_fingerprint(world.traces(), trace::Level::Logical);
  r.physical = trace_fingerprint(world.traces(), trace::Level::Physical);
  r.checksum = outcome.combined_checksum();
  r.final_time_ns = world.engine().stats().final_time.count();
  r.counters = world.aggregate_counters();
  if (const adaptive::AdaptivePolicy* policy = world.adaptive_policy()) {
    r.rendezvous_round_trips = policy->stats().rendezvous_sends;
    r.rendezvous_elided = policy->stats().rendezvous_elided;
    r.elision_saved_ns = policy->stats().elision_saved_ns;
    r.degraded_arrivals = policy->stats().degraded_arrivals;
  }
  return r;
}

/// Nearest-rank percentile over a small sample (q in [0, 1]).
double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::min(std::max<std::size_t>(rank, 1), xs.size());
  return xs[rank - 1];
}

int fail_gate(const char* what) {
  std::fprintf(stderr, "GATE FAILED: %s\n", what);
  return 2;
}

/// Reduced-but-representative iteration counts: enough warm-up for the
/// predictor to lock on and elide, small enough that the full
/// 3 apps x 6 worlds x 5 seeds sweep fits a CI job.
int default_iters(const std::string& app) {
  if (app == "cg") {
    return 8;  // outer niter; each runs cgitmax inner exchanges
  }
  return app == "bt" ? 100 : 125;
}

}  // namespace

static int run(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto nseeds = bench::size_flag(args, "--seeds", 5);
  const int iters_flag = static_cast<int>(bench::size_flag(args, "--iters", 0));
  const auto fallback_ns =
      static_cast<std::int64_t>(bench::size_flag(args, "--fallback-ns", 20'000));
  const std::string apps_csv = bench::string_flag(args, "--apps", "bt,cg,lu");
  const std::string out_path = bench::string_flag(args, "--out", "BENCH_adaptive_speedup.json");
  bench::reject_arguments(args);
  if (nseeds == 0) {
    std::fprintf(stderr, "--seeds must be at least 1\n");
    return 1;
  }

  std::vector<std::string> app_list;
  for (std::size_t start = 0; start <= apps_csv.size();) {
    const std::size_t comma = std::min(apps_csv.find(',', start), apps_csv.size());
    if (comma > start) {
      app_list.push_back(apps_csv.substr(start, comma - start));
    }
    start = comma + 1;
  }
  for (const std::string& app : app_list) {
    (void)apps::find_app(app);  // an unknown name fails here, before any world runs
  }

  // The nominal fallback round-trip mirrors the trace-driven replays'
  // first-order model (scale::LatencyModel): two control crossings, no
  // data leg.
  const scale::LatencyModel replay_model{.latency_ns = static_cast<double>(fallback_ns)};

  std::printf("adaptive speedup: %d ranks, class A, %zu repetitions per configuration "
              "(sim seeds %llu..%llu)\n",
              kProcs, static_cast<std::size_t>(nseeds),
              static_cast<unsigned long long>(kBaseSeed),
              static_cast<unsigned long long>(kBaseSeed + nseeds - 1));
  std::printf("(fallback cost %lld ns/crossing — nominal round-trip %.0f ns; per-stream "
              "credits live; speedup vs static per-peer, median [p10, p90] over seeds)\n\n",
              static_cast<long long>(fallback_ns), replay_model.fallback_rtt_ns());

  bench::JsonWriter json;
  json.begin_object();
  json.key("bench").value("adaptive_speedup");
  json.key("config").begin_object();
  json.key("procs").value(std::int64_t{kProcs});
  json.key("problem_class").value("A");
  json.key("fallback_cost_ns").value(fallback_ns);
  json.key("per_stream_credits").value(true);
  json.key("seeds").begin_array();
  for (std::size_t s = 0; s < nseeds; ++s) {
    json.value(static_cast<std::uint64_t>(kBaseSeed + s));
  }
  json.end_array();
  json.key("confidence_thresholds").begin_array();
  for (const double conf : kConfidences) {
    json.value(conf);
  }
  json.end_array();
  json.end_object();
  json.key("apps").begin_array();

  bool shard_identical = true;
  bool conf_one_static = true;
  bool default_conf_faster = true;

  for (const std::string& app : app_list) {
    const int iters = iters_flag > 0 ? iters_flag : default_iters(app);
    constexpr std::size_t kConfCount = std::size(kConfidences);

    std::vector<std::int64_t> static_final(nseeds, 0);
    std::vector<std::vector<std::int64_t>> adaptive_final(kConfCount);
    std::vector<std::vector<double>> speedup(kConfCount);
    std::vector<RunResult> per_conf_first;  // seed kBaseSeed, one per confidence

    for (std::size_t s = 0; s < nseeds; ++s) {
      const std::uint64_t seed = kBaseSeed + s;
      const RunResult stat = run_case(app, iters, seed, fallback_ns, false, 0.0, 1);
      static_final[s] = stat.final_time_ns;
      for (std::size_t ci = 0; ci < kConfCount; ++ci) {
        const RunResult adap =
            run_case(app, iters, seed, fallback_ns, true, kConfidences[ci], 1);
        adaptive_final[ci].push_back(adap.final_time_ns);
        speedup[ci].push_back(100.0 *
                              static_cast<double>(stat.final_time_ns - adap.final_time_ns) /
                              static_cast<double>(stat.final_time_ns));
        if (s == 0) {
          per_conf_first.push_back(adap);
        }
        if (kConfidences[ci] >= 1.0 && !behaviorally_equal(adap, stat)) {
          conf_one_static = false;
          std::printf("%s seed %llu: min_confidence=1.0 diverged from static\n", app.c_str(),
                      static_cast<unsigned long long>(seed));
        }
      }
    }

    // Cross-shard byte-identity at the default confidence, base seed.
    const std::string ref_report = report(per_conf_first[0]);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      const RunResult rerun = run_case(app, iters, kBaseSeed, fallback_ns, true, 0.0, shards);
      if (report(rerun) != ref_report) {
        shard_identical = false;
        std::printf("%s: REPORT MISMATCH at shards=%zu\n  ref : %s\n  got : %s\n", app.c_str(),
                    shards, ref_report.c_str(), report(rerun).c_str());
      }
    }

    std::printf("%s.16 (%d iters; static median %lld ns)\n", app.c_str(), iters,
                static_cast<long long>(
                    static_cast<std::int64_t>(percentile(
                        std::vector<double>(static_final.begin(), static_final.end()), 0.5))));

    json.begin_object();
    json.key("app").value(app);
    json.key("iterations").value(static_cast<std::int64_t>(iters));
    json.key("static_final_time_ns_by_seed").begin_array();
    for (const std::int64_t t : static_final) {
      json.value(t);
    }
    json.end_array();
    json.key("confidences").begin_array();
    for (std::size_t ci = 0; ci < kConfCount; ++ci) {
      const double med = percentile(speedup[ci], 0.5);
      const double p10 = percentile(speedup[ci], 0.10);
      const double p90 = percentile(speedup[ci], 0.90);
      if (ci == 0) {
        default_conf_faster = default_conf_faster && med > 0.0;
      }
      const RunResult& first = per_conf_first[ci];
      std::printf("  min_confidence %.2f : speedup %+6.2f%% [%+6.2f%%, %+6.2f%%]"
                  "  (elided %lld, saved %lld ns, fallbacks %lld, stream credits %lld, "
                  "degraded %lld)\n",
                  kConfidences[ci], med, p10, p90,
                  static_cast<long long>(first.rendezvous_elided),
                  static_cast<long long>(first.elision_saved_ns),
                  static_cast<long long>(first.counters.fallback_round_trips),
                  static_cast<long long>(first.counters.stream_credit_grants),
                  static_cast<long long>(first.degraded_arrivals));

      json.begin_object();
      json.key("min_confidence").value(kConfidences[ci]);
      json.key("final_time_ns_by_seed").begin_array();
      for (const std::int64_t t : adaptive_final[ci]) {
        json.value(t);
      }
      json.end_array();
      json.key("speedup_pct_by_seed").begin_array();
      for (const double sp : speedup[ci]) {
        json.value(sp);
      }
      json.end_array();
      json.key("median_speedup_pct").value(med);
      json.key("p10_speedup_pct").value(p10);
      json.key("p90_speedup_pct").value(p90);
      json.key("rendezvous_round_trips").value(first.rendezvous_round_trips);
      json.key("rendezvous_elided").value(first.rendezvous_elided);
      json.key("elision_saved_ns").value(first.elision_saved_ns);
      json.key("fallback_round_trips").value(first.counters.fallback_round_trips);
      json.key("fallback_ns").value(first.counters.fallback_ns);
      json.key("stream_credit_grants").value(first.counters.stream_credit_grants);
      json.key("stream_credit_releases").value(first.counters.stream_credit_releases);
      json.key("degraded_arrivals").value(first.degraded_arrivals);
      json.key("behaviorally_static").value(kConfidences[ci] >= 1.0);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("\n");
  }

  json.end_array();
  json.key("gates").begin_object();
  json.key("reports_byte_identical_across_shards").value(shard_identical);
  json.key("confidence_one_equals_static").value(conf_one_static);
  json.end_object();
  json.end_object();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", json.str().c_str());
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());

  if (!default_conf_faster) {
    std::printf("note: median speedup at default confidence was not positive for every app\n");
  }
  if (!shard_identical) {
    return fail_gate("adaptive report differs across engine shard counts");
  }
  if (!conf_one_static) {
    return fail_gate("min_confidence=1.0 did not degrade to static per-peer behavior");
  }
  return 0;
}

int main(int argc, char** argv) {
  return mpipred::bench::cli_main(
      argc, argv,
      "usage: bench_adaptive_speedup [--apps bt,cg,lu] [--seeds <n>] [--iters <n>]\n"
      "                              [--fallback-ns <n>] [--out <file>]\n",
      run);
}
