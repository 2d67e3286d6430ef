"""One benchmark process: set up a workload, run it, print one JSON result line.

Started by ``run.py`` in a fresh interpreter whose environment pins the
BLAS thread count and puts the checkout's ``src/`` on ``PYTHONPATH``.
Modes:

* ``--setup-only``: set up, report ``setup_s`` and exit;
* ``--trace 0``: a closed loop over whole rounds of the input pool for
  ``--seconds``, with output checks after each op, outside its timed region;
* ``--trace 1``: traced segments for every workload, the layer grid and
  the CLI start-up probes (see ``traced_run``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import walkpovm
from walkpovm import experiment, optics, povm, walk

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent

# tail percentile per workload, fixed so every commit reports the same one:
# at the current speed each has at least 20 samples beyond it, which steadies
# it on a shared host and leaves 10 beyond if a commit halves the throughput.
# sweep and cli use p75: all their ops cost about the same, so beyond p75
# their latencies held only host stalls, and p90 spread 0.11-0.2 of its
# median across seeds
TAIL_PERCENTILE = {"design": 95.0, "density": 75.0, "sweep": 75.0, "cli": 75.0}
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# synthesize retries outcome orderings, up to n! of them, when a peel step
# fails; a stuck op becomes a failed op instead of a hung run
OP_TIMEOUT_S = 30

GRID_N = (4, 16, 32, 64)
GRID_MIN_S = 0.2
GRID_MIN_REPS = 3
TRACE_SHARE = {"design": 0.2, "density": 0.2, "sweep": 0.1, "cli": 0.1}
IMPORT_PROBES = 5


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_TIMEOUT_S} s")


def assert_checkout_package() -> None:
    src = (ROOT / "src").resolve()
    where = Path(walkpovm.__file__).resolve()
    if src not in where.parents:
        raise SystemExit(f"walkpovm imported from {where}, not from {src}")


def nearest_rank(ranked, p: float) -> tuple:
    """(value, samples beyond it) of the p-th percentile of sorted ``ranked``."""
    idx = max(0, math.ceil(p / 100.0 * len(ranked)) - 1)
    return ranked[idx], len(ranked) - idx - 1


def tail(ranked, preferred: float) -> tuple:
    """``preferred`` percentile, or the highest ladder one with ten samples beyond it."""
    for p in (preferred,) + tuple(q for q in TAIL_LADDER if q < preferred):
        value, beyond = nearest_rank(ranked, p)
        if beyond >= 10 or p == TAIL_LADDER[-1]:
            return p, value, beyond


# ---------------------------------------------------------------------------
# closed loop (--trace 0)
# ---------------------------------------------------------------------------

def closed_loop(wl, first_round, seconds: float) -> dict:
    """Whole rounds over the input pool until ``seconds`` of loop time have passed.

    The loop completes the pool once even past the deadline.  ``attempted``
    counts the pool's distinct inputs and ``failed`` those that failed on
    any of their ops, so both depend only on the seed.  ``ops_per_s`` is
    the median over rounds of successful ops per second of timed op time,
    so a short stall on a shared machine moves one round, not the result;
    every round holds the same op mix.
    """
    elapsed, ok, errors, per_round = [], [], [], []
    failed_inputs = set()
    raised = check_failures = 0
    deadline = time.perf_counter() + seconds
    inputs, r = first_round, 0
    attempted = 0
    while True:
        first = len(elapsed)
        pool_r = r % wl.pool_rounds
        if r < wl.pool_rounds:
            attempted += len(inputs)
        for i, inp in enumerate(inputs):
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception as exc:  # a rejected input is a failed op, not a crash
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                raised += 1
                elapsed.append(dt)
                ok.append(False)
                failed_inputs.add((pool_r, i))
                errors.append(f"{type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            problems = wl.check(inp, out)
            if problems:
                check_failures += 1
                failed_inputs.add((pool_r, i))
                errors.extend(problems)
            elapsed.append(dt)
            ok.append(not problems)
        per_round.append(sum(ok[first:]) / sum(elapsed[first:]))
        r += 1
        if r >= wl.pool_rounds and time.perf_counter() >= deadline:
            break
        inputs = wl.round(r % wl.pool_rounds)

    ranked = sorted(dt * 1e3 if good else math.inf for dt, good in zip(elapsed, ok))
    p50, _ = nearest_rank(ranked, 50.0)
    tail_p, tail_ms, beyond = tail(ranked, TAIL_PERCENTILE[wl.name])
    if math.isinf(tail_ms):
        raise SystemExit(f"{wl.name}: too many failed ops for a latency tail "
                         f"({raised} raised, {check_failures} failed checks of {len(elapsed)}); "
                         + "; ".join(errors[:5]))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "attempted": attempted,
        "failed": len(failed_inputs),
        "timed_ops": len(elapsed),
        "raised": raised,
        "check_failures": check_failures,
        "correct": check_failures == 0,
        "errors": errors[:5],
        "rounds": r,
        "timed_s": sum(elapsed),
        "ops_per_s": statistics.median(per_round),
        "latency_ms_p50": p50,
        "latency_ms_tail": tail_ms,
        "tail_percentile": tail_p,
        "tail_beyond": beyond,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "rusage": "RUSAGE_CHILDREN" if who == resource.RUSAGE_CHILDREN else "RUSAGE_SELF",
    }


# ---------------------------------------------------------------------------
# traced run (--trace 1)
# ---------------------------------------------------------------------------

# per-layer metrics reported from each workload's traced segment: (span, stat)
SEGMENT_METRICS = {
    "design": (
        ("walk.run", "calls"), ("walk.run", "self_ms"), ("walk.run", "steps"),
        ("walk.CoinSchedule", "self_ms"),
        ("povm.synthesize", "calls"), ("povm.synthesize", "self_ms"), ("povm.synthesize", "failed"),
        ("povm.extract_povm", "calls"), ("povm.extract_povm", "self_ms"),
        ("povm.build_circuit", "self_ms"),
        ("optics.decompose", "calls"), ("optics.decompose", "self_ms"),
        ("optics.compile_netlist", "self_ms"), ("optics.compile_netlist", "plates"),
        ("optics.interferometers", "self_ms"), ("optics.output_ports", "self_ms"),
    ),
    "density": (
        ("experiment.run_density", "calls"), ("experiment.run_density", "self_ms"),
        ("experiment.run_density", "site_steps"), ("experiment.run_density", "ns_per_site_step"),
        ("optics.interferometers", "calls"), ("optics.interferometers", "self_ms"),
        ("experiment.apply_efficiencies", "self_ms"),
        ("experiment.sample_counts", "calls"), ("experiment.sample_counts", "self_ms"),
    ),
    "sweep": (
        ("experiment.usd_sweep", "calls"), ("experiment.usd_sweep", "self_ms"),
        ("experiment.run_density", "calls"), ("experiment.run_density", "self_ms"),
        ("experiment.run_density", "ns_per_site_step"),
        ("optics.interferometers", "calls"), ("optics.interferometers", "self_ms"),
        ("povm.build_circuit", "self_ms"), ("walk.CoinSchedule", "self_ms"),
        ("experiment.apply_efficiencies", "self_ms"),
        ("experiment.sample_counts", "calls"), ("experiment.sample_counts", "self_ms"),
    ),
    "cli": (
        ("cli.main", "self_ms"), ("walk.run", "self_ms"), ("walk.position_distribution", "self_ms"),
        ("optics.output_ports", "self_ms"), ("povm.extract_povm", "self_ms"),
        ("experiment.run_density", "self_ms"),
    ),
}


def _stat(totals: dict, span: str, stat: str) -> float:
    t = totals.get(span, {})
    if stat == "self_ms":
        return t.get("self_ns", 0) / 1e6
    if stat == "ns_per_site_step":
        return t.get("self_ns", 0) / max(1, t.get("site_steps", 0))
    return t.get(stat, 0)


class CliSegment(workloads.Cli):
    """The cli workload's commands run in-process, so spans can be recorded."""

    def op(self, argv):
        return workloads.cli_in_process(argv)


def traced_segment(tracer, wl, inputs, seconds: float, out: dict) -> dict:
    """Passes over a fixed op list; each op runs once plain and once traced.

    The order of the two runs alternates between ops.  Layer metrics are
    medians over passes of the per-pass totals; the tracing overhead is
    the traced p50 latency over the plain one.  ``attempted`` counts the
    distinct inputs and ``failed`` those that failed in any pass or mode,
    so neither depends on the number of passes.
    """
    plain, traced, passes = [], [], []
    failed_inputs = set()
    correct = True
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        since = len(tracer.spans)
        for i, inp in enumerate(inputs):
            results = {}
            for mode in ((False, True) if (i + len(passes)) % 2 else (True, False)):
                tracer.op_id += 1
                with tracer.installed() if mode else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        results[mode] = wl.op(inp)
                    except Exception:  # the rejection is counted; both modes see it
                        results[mode] = None
                    dt = time.perf_counter() - t0
                (traced if mode else plain).append(dt * 1e3)
            if results[True] is None or results[False] is None:
                failed_inputs.add(i)
                continue
            if wl.name == "sweep":
                problems = wl.check(inp, results[True], repeat=results[False])
            else:
                problems = wl.check(inp, results[True])
            if problems:
                failed_inputs.add(i)
                correct = False
        passes.append(tracer.layer_totals(since))
    for span, stat in SEGMENT_METRICS[wl.name]:
        out[f"{wl.name}.{span}.{stat}"] = statistics.median(_stat(t, span, stat) for t in passes)
    p_plain, p_traced = statistics.median(plain), statistics.median(traced)
    out[f"trace.{wl.name}.p50_overhead_pct"] = 100.0 * (p_traced - p_plain) / p_plain
    if wl.name == "cli":
        out["cli.main_ms_p50"] = p_plain
    return {"attempted": len(inputs), "failed": len(failed_inputs), "correct": correct,
            "passes": len(passes)}


def import_probe_ms() -> float:
    """p50 wall time of a fresh ``python -c 'import walkpovm.cli'``."""
    code = "import sys, walkpovm.cli; sys.stdout.write(walkpovm.cli.__file__)"
    times = []
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=workloads.cli_env(), timeout=60, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
        if (ROOT / "src").resolve() not in Path(proc.stdout).resolve().parents:
            raise SystemExit(f"CLI subprocess imported walkpovm from {proc.stdout}")
    return statistics.median(times)


def _time_cell(fn) -> float:
    """Median ms of ``fn()`` over at least GRID_MIN_REPS calls and GRID_MIN_S seconds.

    A single call longer than ten times GRID_MIN_S is its own median.
    """
    times = []
    while len(times) < GRID_MIN_REPS or sum(times) < GRID_MIN_S * 1e3:
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
        if times[0] > 10 * GRID_MIN_S * 1e3:
            break
    return statistics.median(times)


def layer_grid(seed: int, out: dict) -> None:
    """``grid.<fn>.n<N>.ms`` on one random synthesised circuit per N.

    The circuit is synthesised from a design-workload target.  A target
    that ``synthesize`` rejects cannot give a circuit, so the next seeded
    target is drawn; ``grid.synthesize.rejected`` counts those draws (the
    design workload counts the same rejections as failed ops).
    """
    h = np.array([1.0, 0.0])
    rejected = 0
    for n in GRID_N:
        rng = workloads.seeded_rng(seed, workloads.GRID_STREAM, n)
        while True:
            target = workloads.rank_one_target(rng, n)
            try:
                pairs, _ = povm.synthesize(target)
                break
            except (walk.ValidationError, povm.SynthesisInfeasibleError):
                rejected += 1
        schedule = povm.build_circuit(pairs)
        v097 = experiment.ImperfectionConfig(
            visibilities={p: 0.97 for p in optics.interferometers(schedule)})
        cells = {
            "synthesize": lambda: povm.synthesize(target),
            "build_circuit": lambda: povm.build_circuit(pairs),
            "run": lambda: walk.run(schedule, h),
            "extract_povm": lambda: povm.extract_povm(schedule),
            "run_density": lambda: experiment.run_density(schedule, h),
            "run_density_v097": lambda: experiment.run_density(schedule, h, v097),
            "compile_netlist": lambda: optics.compile_netlist(schedule),
        }
        for fn, call in cells.items():
            out[f"grid.{fn}.n{n}.ms"] = _time_cell(call)
    out["grid.synthesize.rejected"] = rejected


def traced_run(seed: int, seconds: float, workload: str) -> dict:
    tracer = tracing.Tracer()
    metrics, totals = {}, {"attempted": 0, "failed": 0, "correct": True}
    segments = {}
    for name, share in TRACE_SHARE.items():
        wl = (CliSegment if name == "cli" else workloads.WORKLOADS[name])(seed)
        seg = traced_segment(tracer, wl, wl.round(0), share * seconds, metrics)
        segments[name] = seg
        totals["attempted"] += seg["attempted"]
        totals["failed"] += seg["failed"]
        totals["correct"] = totals["correct"] and seg["correct"]
    metrics["cli.import_ms_p50"] = import_probe_ms()
    layer_grid(seed, metrics)
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload}-spans.jsonl")
    return {**totals, "segments": segments,
            "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}


def _unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "ns_per_site_step":
        return "ns"
    if last.endswith("_pct"):
        return "%"
    if last in ("self_ms", "ms") or last.endswith("_ms_p50"):
        return "ms"
    return "count"


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "walkpovm": str(Path(walkpovm.__file__).resolve().relative_to(ROOT.resolve())),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    args = parser.parse_args(argv)
    assert_checkout_package()
    os.chdir(ROOT)
    signal.signal(signal.SIGALRM, _alarm)

    if args.trace:
        result = traced_run(args.seed, args.seconds, args.workload)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed)
        first = wl.round(0)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = {"setup_s": setup_s, **closed_loop(wl, first, args.seconds)}
    result["env"] = environment()
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
