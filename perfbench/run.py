#!/usr/bin/env python3
"""Build and run the served-join benchmark.

One run, from the repository root:

    python3 perfbench/run.py --workload full-answer --seed 1 --seconds 10 --trace 0

builds the `ringjoin` server binary and the `perfbench` client from
source (into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload, and prints the result as the last line of standard output.

Steadiness check:

    python3 perfbench/run.py --steadiness

runs each workload of BENCHMARK.json ten times for its run_seconds,
with seeds 100 to 109, and prints, for
every end-to-end metric, the median, the quartiles and the spread
(interquartile range over median) next to the metric's bound from
BENCHMARK.json, plus the median p50 of each quarter of the timed phase
so drift within a run shows.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One run must end within this many seconds once built.
RUN_TIMEOUT_S = 175
# The steadiness check's runs per workload, and its first seed.
STEADY_RUNS = 10
STEADY_SEED_BASE = 100


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def bench_env():
    """The environment for builds and runs: no shard threads or crash
    points leak in from the caller, and build output has one home."""
    env = dict(os.environ)
    env.pop("RINGJOIN_THREADS", None)
    env.pop("RINGJOIN_CRASH_POINT", None)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    return env, target


def build(env):
    """Builds the server binary and the benchmark client (offline)."""
    if not (ROOT / "Cargo.toml").is_file():
        log(f"no Cargo.toml at {ROOT}: the benchmark needs the full source tree")
        return False
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ringjoin_cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            return False
    return True


def run_once(env, target, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text). The client
    runs in its own process group so a timeout reaps its server too."""
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--server-bin", str(target / "release" / "ringjoin"),
        "--out-dir", str(out_dir),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"{workload} seed {seed}: timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def steadiness(env, target):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        quarters = []
        attempted = failed = 0
        for i in range(STEADY_RUNS):
            seed = STEADY_SEED_BASE + i
            code, out = run_once(env, target, workload, seed, seconds, 0)
            if code != 0:
                log(f"{workload} seed {seed}: exit code {code}")
                return 1
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                log(f"{workload} seed {seed}: answers failed their checks")
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            detail = json.loads((ROOT / ".bench_out" / f"detail-{workload}-seed{seed}-trace0.json").read_text())
            quarters.append(detail["quarters_p50_ms"])
            log(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds))
        print(f"== {workload}: {STEADY_RUNS} runs, {seconds} s each, "
              f"failure share {failed}/{attempted} ==")
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'spread/bound':>14}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ratio = spread / bounds[name]
            worst = max(worst, ratio)
            flag = "" if ratio < 1 / 3 else ("  <- above a third of the bound" if ratio <= 1 else "  <- OVER BOUND")
            print(f"{name:<14}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}{bounds[name]:>7}{ratio:>14.3f}{flag}")
        per_quarter = [statistics.median(q[k] for q in quarters) for k in range(len(quarters[0]))]
        print("p50_ms per quarter of the timed phase (median over runs): "
              + ", ".join(f"{v:.4g}" for v in per_quarter))
        print()
    print(f"largest spread/bound: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    if not args.steadiness and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required (or --steadiness)")
    env, target = bench_env()
    if not build(env):
        return 1
    if args.steadiness:
        return steadiness(env, target)
    code, out = run_once(env, target, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
