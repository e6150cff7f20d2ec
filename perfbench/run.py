#!/usr/bin/env python3
"""Builds and runs the mpipred host-time benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside an mpipred checkout. It configures and builds
perfbench/ (which builds the library from src/) under .bench_build/ at the
checkout root, then runs one workload. The driver's stdout passes through;
its last line, the result object, is checked against BENCHMARK.json (every
metric of the mode, with its unit) and printed last. Spans of a traced run
and the replay workload's CSV capture go to .bench_build/out/.

Exit status: the benchmark's own (0 when every output check held, 1 when
one failed), or 2 when the checkout, the build or the result is unusable;
in that case no result line is printed. `--size tiny` shrinks every input
for the smoke test (perfbench/smoke_test.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170  # the whole command must end within 180 s once built


def fail(message: str) -> int:
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """Short digest of the library and benchmark sources, so a run can be
    tied to its code where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in {".cpp", ".hpp", ".txt", ".py"}:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:12]


def commit_label() -> str:
    label = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            label = got.stdout.strip()
    return f"{label}, sources {source_digest()}"


def build() -> Path | None:
    cmake_dir = BUILD / "cmake"
    log_path = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "--build", str(cmake_dir), "--target", "perfbench", "-j", jobs]]
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "w", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                tail = log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                return None
    return cmake_dir / "perfbench"


def check_result(result: object, spec: dict, trace: bool) -> str | None:
    """Returns what is wrong with the result object, or None."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        return "the result does not have exactly correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted is not a positive whole number"
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metrics differ from BENCHMARK.json (missing {missing}, unexpected {extra})"
    for name, unit in expected.items():
        row = metrics[name]
        if row.get("unit") != unit or not isinstance(row.get("value"), (int, float)):
            return f"metric {name} is not a number in {unit}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail(f"{ROOT} holds no mpipred sources (CMakeLists.txt, src/) to build")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; choose from {names}")

    binary = build()
    if binary is None:
        return fail("the build failed (log above)")
    out_dir = BUILD / "out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--out-dir", str(out_dir), "--commit", commit_label()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    result_line = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith('{"correct"'):
                result_line = line
            else:
                sys.stdout.write(line)
                sys.stdout.flush()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    if code not in (0, 1) or result_line is None:
        return fail(f"the benchmark exited with status {code} and no result")
    try:
        result = json.loads(result_line)
    except ValueError as e:
        return fail(f"the result line is not JSON: {e}")
    problem = check_result(result, spec, args.trace == 1)
    if problem is not None:
        return fail(problem)
    sys.stdout.write(result_line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
