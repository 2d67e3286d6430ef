"""Benchmark launcher for walkpovm.

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  The launcher uses only the standard
library: it pins the BLAS thread count and puts the checkout's ``src/``
on ``PYTHONPATH``, then starts each workload in a fresh interpreter
(``worker.py``).  With ``--trace 0`` it sets the workload up
``SETUP_RUNS`` times and reports the median set-up time.  It prints a
report with every metric's unit and sample count, and as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("design", "density", "sweep", "cli")
SETUP_RUNS = 7
# one BLAS thread: the benchmark is a single closed-loop client and a
# multithreaded BLAS on a shared machine widens the run-to-run spread
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_sha() -> str:
    """HEAD of the checkout read from ``.git`` without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker(env, workload: str, seed: int, seconds: float, trace: int, setup_only=False) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(env, workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        return worker(env, workload, seed, seconds, 1)
    setups = [worker(env, workload, seed, seconds, 0, setup_only=True)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    result = worker(env, workload, seed, seconds, 0)
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    result["metrics"] = {
        "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
        "latency_ms_p50": {"value": result["latency_ms_p50"], "unit": "ms"},
        "latency_ms_tail": {"value": result["latency_ms_tail"], "unit": "ms"},
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }
    return result


def report(workload: str, r: dict, trace: int) -> None:
    n, failed = r["attempted"], r["failed"]
    print(f"{workload}: attempted {n} distinct inputs, failed {failed}, correct {r['correct']}")
    if trace:
        for name, seg in r["segments"].items():
            print(f"  traced segment {name}: {seg['passes']} passes over "
                  f"{seg['attempted']} inputs, {seg['failed']} failed")
        for name, m in r["metrics"].items():
            print(f"  {name:58s} {m['value']:12.6g} {m['unit']}")
        return
    timed = r["timed_ops"]
    ok = timed - r["raised"] - r["check_failures"]
    rows = (
        ("ops_per_s", r["ops_per_s"], "1/s",
         f"median of {r['rounds']} rounds; {ok} ok ops in {r['timed_s']:.3f} s timed"),
        ("latency_ms_p50", r["latency_ms_p50"], "ms", f"n={timed}"),
        ("latency_ms_tail", r["latency_ms_tail"], "ms",
         f"p{r['tail_percentile']:g}, n={timed}, {r['tail_beyond']} beyond"),
        ("failed_ratio", failed / n, "ratio",
         f"n={n} inputs; of {timed} ops {r['raised']} raised, "
         f"{r['check_failures']} failed checks"),
        ("setup_s", r["setup_s"], "s", f"median of {SETUP_RUNS} set-ups"),
        ("peak_rss_mb", r["peak_rss_mb"], "MB", r["rusage"]),
    )
    for name, value, unit, note in rows:
        print(f"  {name:16s} {value:12.6g} {unit:6s} ({note})")
    for err in r["errors"]:
        print(f"  error: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "walkpovm" / "__init__.py").is_file():
        print(f"error: no walkpovm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.trace:
        # one traced run covers the segments of every workload
        names = names[:1]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(env, name, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = next(iter(results.values()))
    print(f"env: python {first['env']['python']}, numpy {first['env']['numpy']}, "
          f"nproc {len(os.sched_getaffinity(0))}, blas_threads {BLAS_THREADS}, "
          f"git {git_sha()}, walkpovm from {first['env']['walkpovm']}")
    for name, r in results.items():
        report(name, r, args.trace)

    if len(results) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
