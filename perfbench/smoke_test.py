#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at `--size tiny` through
perfbench/run.py, untraced and traced, and asserts that:

- each run exits 0 and its last stdout line is a result with correct=true;
- every metric BENCHMARK.json names for the mode is printed with its unit;
- a repeated untraced run with the same seed gives identical
  simulated-time metrics (the accuracy percentages);
- the traced run's span file passes scripts/check_trace_events.py and
  its layer spans cover at least 90% of the traced pass;
- the benchmark's sources pass scripts/mpipred_lint.py;
- run.py fails, printing no result, in a directory that holds only
  BENCHMARK.json and perfbench/.

Exits 1 listing every failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SIM_METRICS = ("sender_acc_pct", "size_acc_pct", "sender_acc5_pct")


def run(cwd: Path, workload: str, trace: int) -> tuple[int, list[str], str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, check=False)
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    for workload in (w["name"] for w in spec["workloads"]):
        sim_values = []
        for trace in (0, 0, 1):
            code, lines, err = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                failures.append(f"{label}: exit status {code}: {err[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if result.get("correct") is not True or result.get("failed") != 0:
                failures.append(f"{label}: result not correct: {lines[-1][:200]}")
            metrics = result.get("metrics", {})
            for m in spec["per_layer" if trace else "end_to_end"]:
                row = metrics.get(m["name"])
                if row is None or row.get("unit") != m["unit"]:
                    failures.append(f"{label}: metric {m['name']} missing or not in {m['unit']}")
            if trace == 0:
                sim_values.append([metrics.get(n, {}).get("value") for n in SIM_METRICS])
                continue
            coverage = metrics.get("tracing.coverage_pct", {}).get("value", 0.0)
            if coverage < 90.0:
                failures.append(f"{label}: layer spans cover only {coverage:.1f}% of the pass")
            spans = ROOT / ".bench_build" / "out" / f"{workload}-seed{SEED}.trace.json"
            checker = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "check_trace_events.py"), str(spans)],
                capture_output=True, text=True, check=False)
            if checker.returncode != 0:
                failures.append(f"{label}: span file rejected: {checker.stdout[-500:]}")
        if len(sim_values) == 2 and sim_values[0] != sim_values[1]:
            failures.append(f"{workload}: simulated-time metrics differ between two runs "
                            f"of seed {SEED}: {sim_values}")

    lint = subprocess.run([sys.executable, str(ROOT / "scripts" / "mpipred_lint.py"), str(HERE)],
                          capture_output=True, text=True, check=False)
    if lint.returncode != 0:
        failures.append(f"lint: {lint.stdout[-1000:]}")

    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(bare, spec["workloads"][0]["name"], 0)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        failures.append("run.py did not fail cleanly without the library sources")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}")
    print("smoke test:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
