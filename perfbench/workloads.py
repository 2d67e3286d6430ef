"""Seeded inputs, operations and output checks for the four workloads.

Every workload is a closed loop with one client.  Inputs come in rounds:
round ``r`` of a workload is a pure function of ``(seed, r)``.  Where the
cost of an op depends strongly on the outcome count n, a round holds
every n of the workload's range once, in a seeded order, so that a run
made of whole rounds sees the same n mix whatever the seed.

A run cycles through a pool of ``pool_rounds`` rounds (round ``r % pool_rounds``)
and always completes the pool once.  The pool is the run's set of distinct
inputs, so its size and the inputs the program rejects depend only on the
seed, never on how many rounds fit in the time.

An op is the timed call sequence; ``check`` runs afterwards, outside the
timed region, and returns a list of problems (empty when correct).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np

from walkpovm import cli, experiment, optics, povm, walk
from walkpovm.tolerances import DEFAULT

# stream ids keep the workloads' random streams apart for one seed
_DESIGN, _DENSITY, _SWEEP, _CLI, GRID_STREAM = range(5)


def seeded_rng(seed: int, *keys: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, *keys])


def haar_unitary(rng) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_pairs(rng, n: int) -> list:
    return [povm.IterationPair(haar_unitary(rng), haar_unitary(rng)) for _ in range(n - 1)]


def random_state(rng) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def rank_one_target(rng, n: int) -> povm.PovmSet:
    """Complete rank-1 POVM E_i = f_i^dag f_i, rows f_i of the QR of a complex Gaussian n x 2."""
    z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    q, _ = np.linalg.qr(z)
    return povm.PovmSet.build(
        povm.PovmElement(np.outer(q[i].conj(), q[i]), f"o{i}", i) for i in range(n)
    )


def phase_aligned_dist(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{it} b| at the global phase t that best aligns b to a."""
    t = np.trace(b.conj().T @ a)
    phase = t / abs(t) if abs(t) > 1e-12 else 1.0
    return float(np.max(np.abs(a - phase * b)))


# ---------------------------------------------------------------------------
# design: synthesize -> build_circuit -> compile_netlist on random targets
# ---------------------------------------------------------------------------

class Design:
    name = "design"
    n_range = range(2, 65)
    # 504 targets, about 6 s of ops at the current speed
    pool_rounds = 8

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = seeded_rng(self.seed, _DESIGN, r)
        return [rank_one_target(rng, int(n)) for n in rng.permutation(self.n_range)]

    @staticmethod
    def op(target):
        pairs, assignment = povm.synthesize(target)
        schedule = povm.build_circuit(pairs)
        return pairs, assignment, schedule, optics.compile_netlist(schedule)

    @staticmethod
    def check(target, out) -> list:
        pairs, assignment, schedule, netlist = out
        problems = []
        produced = {e.port: e.matrix for e in povm.extract_povm(povm.build_circuit(pairs)).elements}
        for e in target.elements:
            got = produced.get(assignment[e.label])
            if got is None or np.max(np.abs(got - e.matrix)) > DEFAULT.synthesis_roundtrip:
                problems.append(f"round trip of {e.label} off at n={len(target.elements)}")
        slots = {}
        for p in netlist.plates:
            slots.setdefault((p.step, p.position), []).append(p)
        for s, coins in enumerate(schedule.steps, start=1):
            for x, coin in coins.items():
                product = optics.plates_matrix(slots.get((s, x), []))
                if phase_aligned_dist(product, coin) > DEFAULT.plate_product:
                    problems.append(f"plate product off at step {s}, position {x}")
        return problems


# ---------------------------------------------------------------------------
# density: run_density -> apply_efficiencies -> sample_counts on prebuilt schedules
# ---------------------------------------------------------------------------

class DensityInput:
    def __init__(self, schedule, state, config, control: bool, sample_seed: int):
        self.schedule = schedule
        self.state = state
        self.config = config
        self.control = control
        self.sample_seed = sample_seed


class Density:
    name = "density"
    # op cost grows as n^4, so a round samples [8, 48] on a stride of 4:
    # an 11-op round takes about 2.5 s on one BLAS thread, and a run holds
    # several samples of every n, which steadies its percentiles
    n_range = range(8, 49, 4)
    total = 40000
    # the V=1 control moves through the n values from round to round, so
    # over a pool of four rounds every n is a control exactly once and the
    # pool's op mix is the same for every seed
    pool_rounds = 4

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = seeded_rng(self.seed, _DENSITY, r)
        out = []
        for n in rng.permutation(self.n_range):
            schedule = povm.build_circuit(haar_pairs(rng, int(n)))
            control = (self.n_range.index(n) + r) % 4 == 0
            vis = {pair: 1.0 if control else float(rng.uniform(0.9, 1.0))
                   for pair in optics.interferometers(schedule)}
            eff = {2 * i: float(rng.uniform(0.96, 1.0)) for i in range(int(n))}
            config = experiment.ImperfectionConfig(visibilities=vis, port_efficiencies=eff)
            out.append(DensityInput(schedule, random_state(rng), config, control,
                                    int(rng.integers(2**31))))
        return out

    @classmethod
    def op(cls, inp):
        dist = experiment.run_density(inp.schedule, inp.state, inp.config)
        weighted = experiment.apply_efficiencies(dist, inp.config.port_efficiencies)
        return dist, experiment.sample_counts(weighted, cls.total, inp.sample_seed)

    @classmethod
    def check(cls, inp, out) -> list:
        dist, table = out
        problems = []
        if abs(sum(dist.values()) - 1.0) > DEFAULT.distribution:
            problems.append(f"distribution sums to {sum(dist.values())!r}")
        if table.total != cls.total:
            problems.append(f"sampled {table.total} counts, not {cls.total}")
        if inp.control:
            ideal = walk.position_distribution(walk.run(inp.schedule, inp.state))
            worst = max(abs(dist.get(x, 0.0) - ideal.get(x, 0.0)) for x in set(dist) | set(ideal))
            if worst > DEFAULT.distribution:
                problems.append(f"V=1 control differs from the pure walk by {worst:.3g}")
        return problems


# ---------------------------------------------------------------------------
# sweep: usd_sweep over 200 signed angles
# ---------------------------------------------------------------------------

class SweepInput:
    def __init__(self, thetas, config, sweep_seed: int):
        self.thetas = thetas
        self.config = config
        self.sweep_seed = sweep_seed


class Sweep:
    name = "sweep"
    n_angles = 200
    total = 40000
    ops_per_round = 4
    pool_rounds = 32

    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list:
        rng = seeded_rng(self.seed, _SWEEP, r)
        out = []
        for _ in range(self.ops_per_round):
            # magnitudes in (0, pi/2]: 1 - U[0, 1) lies in (0, 1]
            mags = (math.pi / 2.0) * (1.0 - rng.random(self.n_angles))
            signs = rng.choice([-1.0, 1.0], size=self.n_angles)
            config = experiment.ImperfectionConfig(
                visibilities={(1, 2): float(rng.uniform(0.9, 1.0))},
                port_efficiencies={p: float(rng.uniform(0.96, 1.0)) for p in (0, 2, 4)},
            )
            out.append(SweepInput([float(t) for t in signs * mags], config,
                                  int(rng.integers(2**31))))
        return out

    @classmethod
    def op(cls, inp):
        return experiment.usd_sweep(inp.thetas, inp.config, total=cls.total, seed=inp.sweep_seed)

    @classmethod
    def check(cls, inp, rows, repeat=None) -> list:
        """``repeat`` is a second sweep on the same input; it is run here when absent."""
        problems = []
        for th, row in zip(inp.thetas, rows):
            if row.theta != th or abs(row.p_theory - (1.0 - math.cos(abs(th)))) > 1e-12:
                problems.append(f"p_theory {row.p_theory!r} at theta {th!r}")
                break
        if len(rows) != len(inp.thetas):
            problems.append(f"{len(rows)} rows for {len(inp.thetas)} angles")
        if repeat is None:
            repeat = cls.op(inp)
        if repeat != rows:
            problems.append("a repeated seed gave different rows")
        return problems


# ---------------------------------------------------------------------------
# cli: `python -m walkpovm.cli ...` subprocesses on the built-in scenarios
# ---------------------------------------------------------------------------

IMPERFECTIONS = os.path.join("perfbench", "data", "imperfections.json")


def cli_commands(seed: int) -> list:
    """The fixed command list; sampling seeds and the starting command come from ``seed``."""
    rng = seeded_rng(seed, _CLI)
    s1, s2, s3 = (str(int(v)) for v in rng.integers(2**31, size=3))
    commands = [
        ["run", "--scenario", "trine", "--input", "psi3-1"],
        ["run", "--scenario", "sic", "--input", "psibar4-2", "--imperfections", IMPERFECTIONS],
        ["sample", "--scenario", "sic", "--input", "psi4-3", "--seed", s1, "--format", "csv"],
        ["run", "--scenario", "usd", "--theta", "45°", "--input", "psi+",
         "--imperfections", IMPERFECTIONS, "--counts", "40000", "--seed", s2],
        ["extract", "--scenario", "sic"],
        ["extract", "--scenario", "trine", "--format", "csv"],
        ["compile", "--scenario", "usd", "--theta", "0.7854"],
        ["sweep", "--seed", s3, "--format", "csv"],
    ]
    start = int(rng.integers(len(commands)))
    return commands[start:] + commands[:start]


def cli_in_process(argv) -> tuple:
    """(exit code, stdout bytes) of ``cli.main`` run in this interpreter."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode("utf-8")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


class Cli:
    name = "cli"
    timeout_s = 60
    # every round is the same command list
    pool_rounds = 1

    def __init__(self, seed: int):
        self.commands = cli_commands(seed)
        self.env = cli_env()
        self.expected = {tuple(argv): cli_in_process(argv) for argv in self.commands}

    def round(self, r: int) -> list:
        return self.commands

    def op(self, argv):
        proc = subprocess.run([sys.executable, "-m", "walkpovm.cli", *argv],
                              capture_output=True, env=self.env, timeout=self.timeout_s)
        return proc.returncode, proc.stdout

    def check(self, argv, out) -> list:
        code, stdout = out
        problems = []
        if code != 0:
            problems.append(f"exit code {code} for {' '.join(argv)}")
        if (0, stdout) != self.expected[tuple(argv)]:
            problems.append(f"stdout differs from in-process cli.main for {' '.join(argv)}")
        return problems


WORKLOADS = {w.name: w for w in (Design, Density, Sweep, Cli)}
