"""Counting statistics and optical imperfections for walk measurements.

``run_density`` evolves the density matrix over (position, coin) and
models finite interference contrast: at every displacer belonging to an
interferometer with visibility V, off-diagonal coherences are multiplied
by V.  It keeps rho in the frame of ``walk._coin_rows``, which moves with
the beam displacer, so the conditional shift changes no data; a step
rewrites only its coins' rows and columns and, when it dephases, the
light-cone block the walker occupies.  With all visibilities at 1 it
reproduces the ideal pure-state probabilities exactly.  ``sample_counts``
adds multinomial shot noise with a seeded, portable generator, and
``apply_efficiencies`` models per-port detector imbalance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .povm import usd_scenario, usd_state, usd_success_probability, build_circuit
from .tolerances import DEFAULT
from .walk import CoinSchedule, ValidationError, _coin_rows, coin_column, decoding


@dataclass(frozen=True)
class ImperfectionConfig:
    """Optical non-idealities of the apparatus.

    ``visibilities`` maps an interferometer (its displacer pair) to the
    interference contrast in [0, 1]; pairs absent from the map are
    perfect.  ``port_efficiencies`` maps detection ports to relative
    detector efficiencies in (0, 1]; their spread must stay inside
    ``imbalance_budget``, a finite number >= 0.  ``from_json`` rejects any
    key it does not know except the ``"seed"`` older files carry.
    """

    visibilities: dict = field(default_factory=dict)
    port_efficiencies: dict = field(default_factory=dict)
    imbalance_budget: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.imbalance_budget < math.inf:
            raise ValidationError(
                f"imbalance_budget must be finite and >= 0, not {self.imbalance_budget}")
        for pair, v in self.visibilities.items():
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"visibility for {pair} must lie in [0, 1]")
        for port, eta in self.port_efficiencies.items():
            if not 0.0 < eta <= 1.0:
                raise ValidationError(f"efficiency for port {port} must lie in (0, 1]")
        if self.port_efficiencies:
            values = list(self.port_efficiencies.values())
            spread = (max(values) - min(values)) / max(values)
            if spread > self.imbalance_budget + DEFAULT.norm:
                raise ValidationError(
                    f"efficiency imbalance {spread:.4f} exceeds budget "
                    f"{self.imbalance_budget:.4f}"
                )

    def to_json(self) -> str:
        payload = {
            "visibilities": {f"{a}-{b}": v for (a, b), v in self.visibilities.items()},
            "port_efficiencies": {str(p): e for p, e in self.port_efficiencies.items()},
            "imbalance_budget": self.imbalance_budget,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ImperfectionConfig":
        with decoding("imperfection config"):
            data = json.loads(text)
            unknown = data.keys() - {"visibilities", "port_efficiencies", "imbalance_budget", "seed"}
            if unknown:
                raise ValidationError(f"malformed imperfection config: unknown key {min(unknown)!r}")
            vis = {}
            for key, v in data.get("visibilities", {}).items():
                a, b = key.split("-")
                vis[(int(a), int(b))] = float(v)
            eff = {int(p): float(e) for p, e in data.get("port_efficiencies", {}).items()}
            return cls(
                visibilities=vis,
                port_efficiencies=eff,
                imbalance_budget=float(data.get("imbalance_budget", 0.05)),
            )


IDEAL = ImperfectionConfig()


@dataclass(frozen=True)
class CountTable:
    """Per-port photon counts with normalised probabilities and standard errors."""

    counts: dict
    total: int
    probabilities: dict
    std_errors: dict

    @classmethod
    def from_counts(cls, counts: dict) -> "CountTable":
        total = int(sum(counts.values()))
        if total <= 0:
            raise ValidationError("count table needs a positive total")
        probs = {p: c / total for p, c in counts.items()}
        errs = {p: float(np.sqrt(q * (1.0 - q) / total)) for p, q in probs.items()}
        return cls(dict(counts), total, probs, errs)

    def parenthetical(self, port: int, digits: int = 4) -> str:
        """Value with the uncertainty in the last printed digits, e.g. 0.1684(19)."""
        p = self.probabilities[port]
        err_units = round(self.std_errors[port] * 10 ** digits)
        return f"{p:.{digits}f}({err_units:02d})"

    def to_json(self) -> str:
        payload = {
            "counts": {str(p): c for p, c in sorted(self.counts.items())},
            "total": self.total,
            "probabilities": {str(p): v for p, v in sorted(self.probabilities.items())},
            "std_errors": {str(p): v for p, v in sorted(self.std_errors.items())},
        }
        return json.dumps(payload, sort_keys=True)


def run_density(schedule: CoinSchedule, coin_vector, config: ImperfectionConfig = None) -> dict:
    """Final position distribution under the dephasing imperfection model.

    Coherences pick up one factor of the relevant visibility per
    interferometer displacer they traverse, so a closed pair damps the
    recombined-path coherence by V^2.

    rho is one (2T + 2)-square array in the frame of ``walk._coin_rows``:
    after s steps (x, R) is index T + (x - s)/2 and (x, L) is
    T + 1 + (x + s)/2, so the shift moves no data.  Before and after step s
    the walker lies in the light-cone block [T + 1 - s, T + s].  A coin
    touches its two rows and two columns within that block, dephasing
    touches the block only, and port 2k - T sums indices k and T + 1 + k.
    """
    if config is None:
        config = IDEAL
    damping = {}
    for pair in schedule._structure[1]:
        v = config.visibilities.get(pair, 1.0)
        for member in pair:
            damping[member] = damping.get(member, 1.0) * v

    t = schedule.n_steps
    psi = coin_column(coin_vector)
    rho = np.zeros((2 * t + 2, 2 * t + 2), dtype=complex)
    rho[t:t + 2, t:t + 2] = np.outer(psi, psi.conj())
    for s, coins in enumerate(schedule.steps, start=1):
        cone = slice(t + 1 - s, t + s + 1)
        for x, m in coins.items():
            rows = _coin_rows(t, s, x)
            if rows is not None:
                rho[rows, cone] = m @ rho[rows, cone]
                rho[cone, rows] = rho[cone, rows] @ m.conj().T
        v = damping.get(s, 1.0)
        if v != 1.0:
            block = rho[cone, cone]
            diag = block.diagonal().copy()
            block *= v
            np.fill_diagonal(block, diag)

    p = rho.diagonal().real
    return {2 * k - t: max(0.0, float(q)) for k, q in enumerate(p[:t + 1] + p[t + 1:])}


def _check_finite(dist: dict) -> None:
    """NaN fails every comparison, so the callers' range checks would let it through."""
    for port, q in dist.items():
        if not math.isfinite(q):
            raise ValidationError(f"probability for port {port} is not finite: {q}")


def apply_efficiencies(dist: dict, efficiencies: dict) -> dict:
    """Reweight port probabilities by detector efficiencies and renormalise."""
    _check_finite(dist)
    for port, eta in efficiencies.items():
        if not 0.0 < eta <= 1.0:
            raise ValidationError(f"efficiency for port {port} must lie in (0, 1]")
    weighted = {p: q * efficiencies.get(p, 1.0) for p, q in dist.items()}
    total = sum(weighted.values())
    if total <= 0.0:
        raise ValidationError("all probability removed by efficiencies")
    return {p: q / total for p, q in weighted.items()}


def _check_draw(total, seed) -> None:
    """A photon count is an integer >= 1 and a seed an integer >= 0."""
    if not isinstance(total, (int, np.integer)) or total < 1:
        raise ValidationError(f"total count must be an integer >= 1, not {total!r}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, not {seed!r}")


def sample_counts(dist: dict, total: int, seed: int) -> CountTable:
    """Multinomial draw over ports; identical seeds give identical tables."""
    _check_draw(total, seed)
    _check_finite(dist)
    ports = sorted(dist)
    probs = np.array([dist[p] for p in ports], dtype=float)
    if np.any(probs < DEFAULT.psd_floor):
        raise ValidationError("negative probabilities cannot be sampled")
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > DEFAULT.distribution:
        raise ValidationError(f"distribution sums to {probs.sum():.12f}, not 1")
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    draws = rng.multinomial(total, probs)
    return CountTable.from_counts({p: int(c) for p, c in zip(ports, draws)})


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    p_theory: float
    p_sampled: float
    std_error: float


def usd_sweep(theta_values, config: ImperfectionConfig = None, total: int = 40000,
              seed: int = 0) -> list:
    """Conclusive-outcome probability across state separations.

    Negative angles mirror the positive ones (the success probability is
    even in theta) and probe the second input state, whose conclusive
    port is x = 0 instead of x = 2.  Each angle gets an independent
    sub-stream of the seeded generator.
    """
    _check_draw(total, seed)
    thetas = list(theta_values)
    for th in thetas:
        if not 0.0 < abs(th) <= np.pi / 2.0 + DEFAULT.norm:
            raise ValidationError("sweep angles must have magnitude in (0, pi/2]")
    if config is None:
        config = IDEAL
    children = np.random.SeedSequence(seed).spawn(len(thetas))
    rows = []
    for th, child in zip(thetas, children):
        mag = abs(th)
        schedule = build_circuit(usd_scenario(mag))
        state = usd_state(+1 if th > 0 else -1, mag)
        success_port = 2 if th > 0 else 0
        dist = run_density(schedule, state, config)
        dist = apply_efficiencies(dist, config.port_efficiencies)
        table = sample_counts(dist, total, int(child.generate_state(1)[0]))
        p_hat = table.probabilities.get(success_port, 0.0)
        err = table.std_errors.get(success_port, 0.0)
        rows.append(SweepPoint(th, usd_success_probability(mag), p_hat, err))
    return rows
