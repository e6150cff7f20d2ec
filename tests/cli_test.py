#!/usr/bin/env python3
"""CLI robustness check for every tool under examples/ and bench/.

Each tool is run with `--help`, with junk arguments and with a path that
does not exist. `--help` must exit 0 and print a usage line; every bad
invocation must exit 1 with a diagnostic on stderr. A tool killed by a
signal (an uncaught exception ends in SIGABRT) or exiting with any other
status fails the check. Tools run in a scratch working directory, so a
tool that writes files cannot litter the build tree. Bad input must be
rejected before any simulation starts, so every case is fast.

Usage:
    cli_test.py --bin-dir BUILD_DIR [--with-bench]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
MISSING = "no-such-dir/no-such-file.csv"

# Bad invocations per tool, beyond the shared `--no-such-flag` case. Every
# examples/*.cpp and bench/bench_*.cpp tool must have an entry, so a new
# tool cannot slip past.
BAD_ARGS: dict[str, list[list[str]]] = {
    "buffer_planner": [["abc"], ["16x"], [MISSING]],
    "online_prediction": [[MISSING], ["--predictor", "nope"]],
    "predict_nas": [
        ["bt", "abc"],
        ["bt", "9", "extra"],
        ["nope"],
        ["--trace", MISSING],
        ["--shards", "-1"],
    ],
    "quickstart": [[MISSING], ["dpd", "extra"]],
    "replay_trace": [[], ["--trace", MISSING], ["--trace", MISSING, "--batch-events", "x"]],
    "trace_export": [[MISSING], ["out.csv", "extra"]],
    "bench_ablation": [["--predictor", "nope"], ["extra"]],
    "bench_adaptive": [["--trace", MISSING], ["--shards", "x"], ["--window", "1:2"], ["extra"]],
    "bench_adaptive_speedup": [["--apps", "nope"], ["--apps", "bt,nope"], ["--seeds", "0"]],
    "bench_async_overlap": [["--iters", "x"], ["extra"]],
    "bench_baselines": [["extra"]],
    "bench_engine_latency": [["--events", "x"], ["--predictor", "nope"]],
    "bench_engine_scaling": [["--events", "0"], ["--predictor", "nope"]],
    "bench_figure1": [["extra"]],
    "bench_figure2": [["extra"]],
    "bench_figure3": [["--predictor", "nope"]],
    "bench_figure4": [["--predictor", "nope"]],
    "bench_flow_control": [["extra"]],
    "bench_memory_reduction": [["extra"]],
    "bench_predictor_overhead": [],
    "bench_rendezvous": [["extra"]],
    "bench_set_prediction": [["--predictor", "nope"]],
    "bench_table1": [["extra"]],
}

# Built only where Google Benchmark is installed.
OPTIONAL_TOOLS = {"bench_predictor_overhead"}

TIMEOUT_S = 120


def run(binary: Path, args: list[str], cwd: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [str(binary), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        check=False,
    )


def describe(tool: str, args: list[str], proc: subprocess.CompletedProcess[str]) -> str:
    status = (f"signal {-proc.returncode}" if proc.returncode < 0
              else f"exit {proc.returncode}")
    return f"{tool} {' '.join(args)!r}: {status}\n  stderr: {proc.stderr.strip()[:400]}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin-dir", required=True, type=Path)
    parser.add_argument("--with-bench", action="store_true",
                        help="also check the bench/ tools (built with MPIPRED_BUILD_BENCH)")
    opts = parser.parse_args()
    bin_dir = opts.bin_dir.resolve()

    tools = sorted(p.stem for p in (REPO_ROOT / "examples").glob("*.cpp"))
    if opts.with_bench:
        tools += sorted(p.stem for p in (REPO_ROOT / "bench").glob("bench_*.cpp"))
    failures: list[str] = []
    for tool in tools:
        if tool not in BAD_ARGS:
            failures.append(f"{tool}: no bad-argument cases listed in {Path(__file__).name}")
            continue
        binary = bin_dir / tool
        if not binary.exists():
            if tool in OPTIONAL_TOOLS:
                print(f"{tool}: not built, skipped")
            else:
                failures.append(f"{tool}: binary not found at {binary}")
            continue
        with tempfile.TemporaryDirectory() as cwd:
            proc = run(binary, ["--help"], cwd)
            if proc.returncode != 0 or "usage:" not in proc.stdout:
                failures.append("--help must exit 0 and print usage: " +
                                describe(tool, ["--help"], proc))
            for args in [["--no-such-flag"], *BAD_ARGS[tool]]:
                proc = run(binary, args, cwd)
                if proc.returncode != 1 or not proc.stderr.strip():
                    failures.append("bad input must exit 1 with a diagnostic: " +
                                    describe(tool, args, proc))
        print(f"{tool}: checked {2 + len(BAD_ARGS[tool])} invocations")

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
