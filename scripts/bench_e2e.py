#!/usr/bin/env python3
"""Host wall-clock cost of the mpipred tools, before vs after a change.

Times whole-process runs of the CLI tools from two Release build trees —
`predict_nas {bt,cg,lu,is,sweep3d} 16`, `predict_nas lu 16 --export-trace`,
`bench_adaptive_speedup --apps lu --seeds 1`, and `replay_trace` over an
lu.16 CSV capture with a one-second `--window` and `--remap-ranks mod:8` —
in before/after pairs whose order alternates, so drift on the machine hits
both sides alike. Each side exports its own capture once (`predict_nas lu
16 --export-trace`, untimed) into a scratch directory, and its replays run
there. Each side's standard output (and the speedup bench's JSON) must be
byte-identical across its repetitions and, apart from the tools' gate
summary lines, across the two sides, or the script exits 1: the numbers
compare the same work. Where Google Benchmark is installed it also
records the `observe_and_predict/dpd` micro benchmark from
`bench_predictor_overhead`.

Every number here is host time (seconds or nanoseconds of wall clock) and
is reported as median, p10 and p90 over the repetitions. Simulated-time
results live in BENCH_adaptive_speedup.json, never in this file.

Usage:
    bench_e2e.py --before OLD_BUILD --after NEW_BUILD [--out BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CAPTURE = "lu16.csv"
EXPORT = ["predict_nas", "lu", "16", "--export-trace", CAPTURE]
TOOLS = [
    *(["predict_nas", app, "16"] for app in ("bt", "cg", "lu", "is", "sweep3d")),
    ["predict_nas", "lu", "16", "--export-trace", "export.csv"],
    ["bench_adaptive_speedup", "--apps", "lu", "--seeds", "1", "--out", "speedup.json"],
    # The capture spans about 18.2 simulated seconds; the window is its
    # second-to-last second, so the reader parses nearly every row.
    ["replay_trace", "--trace", CAPTURE, "--window", "17000000000:18000000000",
     "--remap-ranks", "mod:8"],
]
# Output files named on a command line; the row names leave them out.
OUTPUT_FILES = ("--out", "speedup.json", "export.csv")
# A line summarizing a self-audit gate ("gates: ok (...)", "round-trip gate:
# ok", ...). A change to the gates may reword these; the sides are compared
# without them.
GATE_SUMMARY = re.compile(rb"^.*\bgates?: .*\n?", re.MULTILINE)
MICRO = "observe_and_predict/dpd"
RUNS = 5         # whole-process runs per side and tool
MICRO_RUNS = 10  # google-benchmark repetitions per side


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summary(values: list[float], digits: int) -> dict:
    return {
        "median": round(percentile(values, 0.5), digits),
        "p10": round(percentile(values, 0.1), digits),
        "p90": round(percentile(values, 0.9), digits),
        "runs": [round(v, digits) for v in values],
    }


def timed_run(build: Path, argv: list[str], capture_dir: Path) -> tuple[float, bytes]:
    """Runs one tool in a scratch directory (the side's capture directory
    when it reads the capture); returns (seconds, output)."""
    with tempfile.TemporaryDirectory() as fresh:
        cwd = capture_dir if CAPTURE in argv else fresh
        start = time.perf_counter()
        done = subprocess.run([str(build / argv[0]), *argv[1:]], cwd=cwd,
                              capture_output=True, check=False)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            sys.exit(f"{build / argv[0]} {' '.join(argv[1:])} exited {done.returncode}:\n"
                     f"{done.stderr.decode(errors='replace')[-2000:]}")
        output = done.stdout.replace(b"speedup.json", b"")
        json_out = Path(cwd) / "speedup.json"
        if json_out.exists():
            output += json_out.read_bytes()
    return seconds, output


def micro_ns(build: Path, runs: int) -> list[float] | None:
    binary = build / "bench_predictor_overhead"
    if not binary.exists():
        return None
    done = subprocess.run(
        [str(binary), f"--benchmark_filter=^{MICRO}$", f"--benchmark_repetitions={runs}",
         "--benchmark_format=json"],
        capture_output=True, text=True, check=True)
    rows = json.loads(done.stdout)["benchmarks"]
    return [r["real_time"] for r in rows
            if r.get("run_type") == "iteration" and r.get("time_unit") == "ns"]


def compiler(build: Path) -> str:
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            version = subprocess.run([path, "--version"], capture_output=True, text=True,
                                     check=False).stdout.splitlines()
            return version[0] if version else path
    return "unknown"


def build_type(build: Path) -> str:
    for line in (build / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, type=Path, help="build tree of the parent")
    parser.add_argument("--after", required=True, type=Path, help="build tree of the change")
    parser.add_argument("--out", type=Path, default=Path("BENCH_e2e.json"),
                        help="where to write the JSON report")
    opts = parser.parse_args()
    sides = {"before": opts.before.resolve(), "after": opts.after.resolve()}
    for side, build in sides.items():
        if build_type(build) != "Release":
            sys.exit(f"--{side} {build} is not a Release build")

    scratch = tempfile.TemporaryDirectory()
    captures = {}
    for side, build in sides.items():
        captures[side] = Path(scratch.name) / side
        captures[side].mkdir()
        subprocess.run([str(build / EXPORT[0]), *EXPORT[1:]], cwd=captures[side],
                       capture_output=True, check=True)
    if not filecmp.cmp(captures["before"] / CAPTURE, captures["after"] / CAPTURE, shallow=False):
        sys.exit(f"{' '.join(EXPORT)}: the two sides exported different captures")

    tools = {}
    for argv in TOOLS:
        name = " ".join(a for a in argv if a not in OUTPUT_FILES)
        seconds: dict[str, list[float]] = {"before": [], "after": []}
        outputs: dict[str, bytes] = {}
        for rep in range(RUNS):
            order = ["before", "after"] if rep % 2 == 0 else ["after", "before"]
            for side in order:
                s, out = timed_run(sides[side], argv, captures[side])
                seconds[side].append(s)
                if outputs.setdefault(side, out) != out:
                    sys.exit(f"{name}: {side} output differs between repetitions")
        if GATE_SUMMARY.sub(b"", outputs["before"]) != GATE_SUMMARY.sub(b"", outputs["after"]):
            sys.exit(f"{name}: output differs between --before and --after")
        before = summary(seconds["before"], 3)
        after = summary(seconds["after"], 3)
        tools[name] = {
            "before_s": before,
            "after_s": after,
            "median_change_pct": round(100.0 * (after["median"] / before["median"] - 1.0), 1),
        }
        print(f"{name}: {before['median']:.2f} s -> {after['median']:.2f} s", flush=True)

    micro = {}
    before_ns = micro_ns(sides["before"], MICRO_RUNS)
    after_ns = micro_ns(sides["after"], MICRO_RUNS)
    if before_ns and after_ns:
        micro[MICRO] = {
            "before_ns": summary(before_ns, 1),
            "after_ns": summary(after_ns, 1),
            "median_change_pct": round(
                100.0 * (percentile(after_ns, 0.5) / percentile(before_ns, 0.5) - 1.0), 1),
        }
        print(f"{MICRO}: {percentile(before_ns, 0.5):.0f} ns -> "
              f"{percentile(after_ns, 0.5):.0f} ns", flush=True)

    result = {
        "bench": "e2e",
        "clock": "host wall clock only; simulated-time results are in "
                 "BENCH_adaptive_speedup.json",
        "machine": {
            "cpus": os.cpu_count(),
            "arch": platform.machine(),
            "compiler": compiler(sides["after"]),
            "build_type": "Release",
        },
        "method": f"whole-process wall clock, before/after pairs in alternating order, "
                  f"{RUNS} runs per side; replay_trace reads a capture each side exported "
                  f"once with '{' '.join(EXPORT)}'; median/p10/p90 by linear interpolation; "
                  f"outputs byte-identical across sides apart from gate summary lines; micro: google-benchmark real_time, "
                  f"{MICRO_RUNS} repetitions per side",
        "tools_s": tools,
        "micro_ns": micro,
    }
    scratch.cleanup()
    opts.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {opts.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
