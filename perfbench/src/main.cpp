// perfbench: host-time benchmark of the mpipred library, one workload per
// invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--out-dir <dir>] [--commit <text>]
//
// Set-up runs several times and is reported as its median. Timed passes
// then repeat until --seconds have gone by; each pass's outputs are
// checked between passes, outside the timed section. --trace 0 reports
// the end-to-end metrics; --trace 1 alternates untraced and traced passes,
// reports the per-layer metrics, and writes the spans as Chrome trace
// events to <out-dir>/<workload>-seed<n>.trace.json. The last stdout line
// is the result as one JSON object. Exit status: 0 when every check held,
// 1 when one failed, 2 on a usage or set-up error.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Values;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; perfbench/run.py checks that it does.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"sender_acc_pct", "%"},
    {"size_acc_pct", "%"},
    {"sender_acc5_pct", "%"},
};

constexpr MetricDef kPerLayer[] = {
    {"apps.run_s", "s"},
    {"apps.static_s", "s"},
    {"apps.adaptive_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.context_switches", "count"},
    {"sim.final_ms.static", "ms"},
    {"sim.final_ms.adaptive", "ms"},
    {"sim.final_ms.gated", "ms"},
    {"mpi.progress_tasks", "count"},
    {"mpi.fallback_round_trips", "count"},
    {"mpi.fallback_sim_ms", "ms"},
    {"mpi.unexpected_arrivals", "count"},
    {"mpi.stream_credit_grants", "count"},
    {"trace.merge_s", "s"},
    {"engine.feed_s", "s"},
    {"engine.ns_per_msg", "ns"},
    {"engine.footprint_kib", "KiB"},
    {"core.observe_ns.p50", "ns"},
    {"core.observe_ns.p99", "ns"},
    {"core.observe_ns.n", "count"},
    {"core.predict_ns.p50", "ns"},
    {"core.predict_ns.p99", "ns"},
    {"core.predict_ns.n", "count"},
    {"adaptive.overhead_s", "s"},
    {"adaptive.ns_per_arrival", "ns"},
    {"adaptive.on_arrival_ns.p50", "ns"},
    {"adaptive.on_arrival_ns.p99", "ns"},
    {"adaptive.on_arrival_ns.n", "count"},
    {"adaptive.prepost_hit_pct", "%"},
    {"adaptive.elided", "count"},
    {"adaptive.degraded_arrivals", "count"},
    {"adaptive.sim_speedup_pct", "%"},
    {"adaptive.gated_speedup_pct", "%"},
    {"adaptive.replay_s", "s"},
    {"ingest.parse_s", "s"},
    {"ingest.rows_read", "count"},
    {"ingest.rows_kept", "count"},
    {"ingest.kept_pct", "%"},
    {"ingest.mib_per_s", "MiB/s"},
    {"serve.feed_s", "s"},
    {"scale.replays_s", "s"},
    {"tracing.run_s", "s"},
    {"tracing.untraced_run_s", "s"},
    {"tracing.overhead_s", "s"},
    {"tracing.coverage_pct", "%"},
    {"tracing.spans", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--size full|tiny] [--out-dir <dir>] [--commit <text>]\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options parse_args(int argc, char** argv, std::string& commit) {
  perfbench::Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
      if (value != "0" && value != "1") {
        usage("--trace takes 0 or 1");
      }
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") {
        usage("--size takes full or tiny");
      }
      opts.size = value == "tiny" ? perfbench::Size::Tiny : perfbench::Size::Full;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage("bad number '" + value + "' for " + std::string(flag));
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  if (!(opts.seconds > 0.0)) {
    usage("--seconds must be positive");
  }
  return opts;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Percent of a traced pass covered by its layer spans: the root span's
/// duration minus its own self time.
double coverage_pct(const perfbench::Tracer& tracer, int run) {
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].run == run && spans[i].parent < 0) {
      const double total = perfbench::seconds_between(spans[i].start_ns, spans[i].end_ns);
      return 100.0 * (total - tracer.self_seconds(i)) / total;
    }
  }
  return 0.0;
}

void print_result(bool correct, long attempted, long failed, const Values& values,
                  bool per_layer) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  const auto emit = [&](const MetricDef& def) {
    const auto it = values.find(def.name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, def.name, v, def.unit);
    sep = ", ";
  };
  if (per_layer) {
    for (const MetricDef& def : kPerLayer) {
      emit(def);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      emit(def);
    }
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const perfbench::Options opts = parse_args(argc, argv, commit);
  std::printf("perfbench: workload %s, seed %llu, %g s, trace %d, size %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.size == perfbench::Size::Full ? "full" : "tiny");
  std::printf("perfbench: commit %s, nproc %u, compiler %s, build %s\n", commit.c_str(),
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  try {
    const auto workload = perfbench::make_workload(opts);
    perfbench::Tracer off(false);
    perfbench::Tracer tracer(opts.trace);

    std::vector<double> setup_s;
    for (int i = 0; i < workload->setup_repeats(); ++i) {
      setup_s.push_back(workload->setup());
    }

    std::vector<double> untraced_s;
    std::vector<double> traced_s;
    std::vector<int> traced_runs;
    long attempted = 0;
    long failed = 0;
    bool state_fresh = true;
    const std::int64_t loop_start = perfbench::now_ns();
    // A traced run opens with a warm-up pass that neither side counts, so
    // the cold first pass does not bias the tracing overhead.
    const std::size_t min_passes = 3;
    for (std::size_t pass = 0;; ++pass) {
      if (!state_fresh && workload->setup_each_pass()) {
        setup_s.push_back(workload->setup());
      }
      const bool traced = opts.trace && pass % 2 == 1;
      if (traced) {
        tracer.next_run();
        traced_runs.push_back(tracer.run());
      }
      const std::int64_t t0 = perfbench::now_ns();
      {
        perfbench::Scope root(traced ? tracer : off, opts.workload + ".pass");
        workload->pass(traced ? tracer : off);
      }
      const double seconds = perfbench::seconds_between(t0, perfbench::now_ns());
      if (!opts.trace || pass > 0) {
        (traced ? traced_s : untraced_s).push_back(seconds);
      }
      state_fresh = false;
      ++attempted;
      if (!workload->check()) {
        ++failed;
      }
      std::printf("pass %zu%s: %.6f s\n", pass + 1,
                  traced ? " (traced)" : (opts.trace && pass == 0 ? " (warm-up)" : ""), seconds);
      std::fflush(stdout);
      const double elapsed = perfbench::seconds_between(loop_start, perfbench::now_ns());
      if (pass + 1 >= min_passes && elapsed >= opts.seconds) {
        break;
      }
    }

    Values values;
    if (opts.trace) {
      workload->per_layer(values, tracer, traced_runs);
      std::vector<double> coverage;
      for (const int run : traced_runs) {
        coverage.push_back(coverage_pct(tracer, run));
      }
      values["tracing.run_s"] = perfbench::median(traced_s);
      values["tracing.untraced_run_s"] = perfbench::median(untraced_s);
      values["tracing.overhead_s"] = values["tracing.run_s"] - values["tracing.untraced_run_s"];
      values["tracing.coverage_pct"] = perfbench::median(coverage);
      values["tracing.spans"] = static_cast<double>(tracer.spans().size());
      const std::string path = opts.out_dir + "/" + opts.workload + "-seed" +
                               std::to_string(opts.seed) + ".trace.json";
      if (!tracer.write_chrome_trace(path, "perfbench " + opts.workload)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 2;
      }
      std::printf("spans -> %s\n", path.c_str());
    } else {
      workload->end_to_end(values);
      values["setup_s"] = perfbench::median(setup_s);
      values["run_s"] = perfbench::median(untraced_s);
      values["peak_rss_mib"] = peak_rss_mib();
    }
    bool finite = true;
    for (auto& [name, v] : values) {
      if (!std::isfinite(v)) {
        std::fprintf(stderr, "CHECK FAILED: metric %s is not finite\n", name.c_str());
        finite = false;
        v = 0.0;
      }
    }
    std::printf("setup %zu x, median %.6f s; %ld passes\n", setup_s.size(),
                perfbench::median(setup_s), attempted);
    const bool correct = failed == 0 && finite;
    print_result(correct, attempted, failed, values, opts.trace);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
