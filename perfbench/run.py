#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        Builds `reproduce` and the benchmark client from source, runs one
        workload and prints its result JSON as the last stdout line.

    python3 perfbench/run.py --repeat K [--workload W ...] [--seconds S] [--trace 0|1]
        Steadiness mode: runs each workload K times (seeds 1..K) and prints,
        per metric, the median, quartiles and spread (IQR / median), flagging
        any spread above the metric's bound in BENCHMARK.json.

    python3 perfbench/run.py --self-test
        Checks the input generators, then feeds a corrupted reference into
        live runs and asserts that each run reports the mismatch.

The benchmark client and every server it starts run in their own process
group, which is killed and reaped when the run ends for any reason, so no
server outlives its run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["query-warm", "query-cold", "sweep-local", "sweep-cluster"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def target_dir():
    return os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the served program and the benchmark client (release)."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "exp")
    ):
        fail("the repository sources (Cargo.toml, crates/) are missing next to perfbench/")
    target = target_dir()
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "ayd-exp", "--bin", "reproduce"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(BENCH_DIR, "Cargo.toml")],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(step)}")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    return os.path.join(target, "release", "reproduce"), os.path.join(target, "release", "perfbench")


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except (ProcessLookupError, PermissionError):
        return False


def reap_group(pgid):
    """Kills whatever is left of the process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + 10
    while group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_client(client, args, capture):
    """Runs the client in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(
        [client] + args,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
    )

    def terminate(signum, _frame):
        reap_group(proc.pid)
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, terminate) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate()
    finally:
        reap_group(proc.pid)
        # The client removes its servers' scratch directory itself unless it
        # was killed before it could.
        shutil.rmtree(os.path.join(BENCH_DIR, "out", f"tmp-{proc.pid}"), ignore_errors=True)
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, (out.decode() if capture else "")


def workload_args(reproduce, workload, seed, seconds, trace, extra=()):
    return [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--reproduce", reproduce,
        "--out", os.path.join(BENCH_DIR, "out"), *extra,
    ]


def last_json(stdout):
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def repeat(reproduce, client, workloads, runs, seconds, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    for workload in workloads:
        values = {}
        for seed in range(1, runs + 1):
            code, out = run_client(client, workload_args(reproduce, workload, seed, seconds, trace), True)
            result = last_json(out)
            if code != 0 or not result or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                flagged += 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {runs} runs, --seconds {seconds}, --trace {trace}")
        print(f"  {'metric':<38} {'unit':<8} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag = "  FLAG: spread above bound"
                flagged += 1
            elif bound is not None and spread > bound / 3:
                flag = "  (above a third of the bound)"
            shown = f"{bound:>6}" if bound is not None else f"{'-':>6}"
            unit = units.get(name, "")
            print(f"  {name:<38} {unit:<8} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {shown}{flag}")
    return 1 if flagged else 0


def self_test(reproduce, client):
    code, out = run_client(client, ["--self-test"], True)
    print(out, end="")
    failures = 0 if code == 0 else 1
    for workload in ("query-cold", "sweep-local"):
        code, out = run_client(
            client, workload_args(reproduce, workload, 7, 1, 0, ["--corrupt-reference"]), True
        )
        result = last_json(out)
        caught = code != 0 and result is not None and not result["correct"] and result["failed"] > 0
        print(f"self-test: corrupted reference on {workload}: "
              f"{'reported' if caught else 'NOT REPORTED'} (exit {code}, result {result})")
        failures += 0 if caught else 1
    print(f"self-test: {'ok' if failures == 0 else f'{failures} failures'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description="Repository benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, metavar="K")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    reproduce, client = build()
    if args.self_test:
        return self_test(reproduce, client)
    if args.repeat:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = args.seconds or json.load(f)["run_seconds"]
        return repeat(reproduce, client, args.workload or WORKLOADS, args.repeat, seconds, args.trace)
    if not args.workload or len(args.workload) != 1 or args.seed is None or args.seconds is None:
        fail("one --workload, --seed and --seconds are required")
    code, _ = run_client(
        client, workload_args(reproduce, args.workload[0], args.seed, args.seconds, args.trace), False
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
