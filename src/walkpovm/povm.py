"""Rank-1 qubit POVMs as peel-off walk circuits.

A circuit for an n-outcome POVM is built from n-1 coin-operation pairs:
iteration i applies its first coin at x = 0, shifts, then applies its
second coin at x = 1 together with a NOT at x = -1, and shifts again.
Each iteration routes one outcome's amplitude onto a dedicated
detection port (an even position); whatever remains at x = 0 after the
last iteration is the final outcome.  ``_layout`` writes this layout
once; ``build_circuit`` checks it into a ``CoinSchedule``, the only
schedule built here from coins a caller gives.

``synthesize`` builds these pairs in one pass over the outcomes in their
given order (Kurzynski & Wojcik, PRL 110, 200404 (2013)).  One ``eigh``
of the stacked effects gives the rows f_i, E_i = f_i^dag f_i, of an n x 2
isometry.  Each iteration peels the next row and rewrites the remaining
rows in the frame the walker's residual state moves to, so the rows stay
an isometry and every peel is feasible.  Outcome i leaves at port
2(n-1-i); no outcome ordering is searched.  The coins are unitary by
construction, so the circuit is checked by ``_effects`` of its layout,
the K^dag K read-out ``extract_povm`` shares, with no schedule and no
``PovmElement``; ``usd_sweep`` walks the same layout with peel coins.

A POVM is a ``PovmSet``: one read-only (n, 2, 2) stack of effects with
labels and ports.  ``PovmSet.build`` and ``from_json`` check each effect
through ``PovmElement``; ``extract_povm`` and ``synthesize`` read stacks.

``NAMED_STATES`` holds the paper's input states by label: ``H``, ``V``,
the trine states ``psi3-i``, the SIC states ``psi4-i`` and the states
``psibar3-i``, ``psibar4-i`` orthogonal to them.  Its vectors are read-only,
as are the coins ``HADAMARD_LIKE`` and ``_TILT`` that the built-in scenarios
hand out.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .tolerances import DEFAULT
from .walk import (
    IDENTITY_COIN,
    NOT_COIN,
    CoinSchedule,
    ValidationError,
    _RuleError,
    _complex,
    _frozen,
    _integer,
    _loads,
    _propagate,
    _real,
    _unique,
    complex_from_json,
    complex_to_json,
    decoding,
)

HADAMARD_LIKE = _frozen(np.sqrt(0.5) * np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex))
_TILT = _frozen(np.sqrt(1.0 / 3.0) * np.array(
    [[np.sqrt(2.0), 1.0], [1.0, -np.sqrt(2.0)]], dtype=complex
))


class SynthesisInfeasibleError(ValidationError):
    """A synthesised circuit does not reproduce one target element."""

    def __init__(self, label: str, deviation: float):
        super().__init__(
            f"element {label}: the synthesised circuit reproduces it only within "
            f"{deviation:.3g} (round-trip tolerance {DEFAULT.synthesis_roundtrip:g})"
        )
        self.label = label
        self.deviation = deviation


@dataclass(frozen=True, eq=False)
class PovmElement:
    """A 2x2 positive-semidefinite effect with an outcome label (a str) and port."""

    matrix: np.ndarray
    label: str
    port: int

    def __init__(self, matrix, label: str, port: int):
        if not isinstance(label, str):
            raise _RuleError(f"element label must be a string, not {label!r}")
        m = _complex(matrix, f"element {label}: matrix")
        if m.shape != (2, 2):
            raise ValidationError(f"element {label}: matrix must be 2x2")
        a, b, c, d = m.ravel().tolist()
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise ValidationError(f"element {label}: matrix is not finite")
        # the entries of M - M^dag; hypot, unlike abs of a complex, cannot overflow
        if not max(2.0 * abs(a.imag), 2.0 * abs(d.imag),
                   math.hypot(b.real - c.real, b.imag + c.imag)) <= DEFAULT.hermiticity:
            raise ValidationError(f"element {label}: matrix is not Hermitian")
        # smaller eigenvalue, from the lower triangle as eigvalsh reads it
        mean, half_gap = 0.5 * (a.real + d.real), 0.5 * (a.real - d.real)
        if not mean - math.hypot(half_gap, c.real, c.imag) >= DEFAULT.psd_floor:
            raise ValidationError(f"element {label}: matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", _frozen(0.5 * (m + m.conj().T)))
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "port", _integer(port, f"element {label}: port"))


@dataclass(frozen=True, eq=False)
class PovmSet:
    """A POVM as one read-only (n, 2, 2) stack of effects, with a label and a port each.

    ``build`` and ``from_json`` check each effect through ``PovmElement``.  The
    constructor checks nothing: it is for stacks the package computes, such as
    ``extract_povm``'s, and keeps a read-only copy of the stack it is given.
    ``completeness_residual`` (the operator-norm distance of the effects' sum
    from 1) and ``elements`` (checked, read-only records) are built on first read.
    """

    effects: np.ndarray
    labels: tuple
    ports: tuple

    def __post_init__(self):
        object.__setattr__(self, "effects", _frozen(self.effects.copy()))

    @cached_property
    def completeness_residual(self) -> float:
        return float(np.linalg.norm(self.effects.sum(axis=0) - np.eye(2), ord=2))

    @cached_property
    def elements(self) -> tuple:
        return tuple(map(PovmElement, self.effects, self.labels, self.ports))

    @classmethod
    def build(cls, elements) -> "PovmSet":
        elems = tuple(elements)
        return cls(np.array([e.matrix for e in elems], dtype=complex).reshape(-1, 2, 2),
                   tuple(e.label for e in elems), tuple(e.port for e in elems))

    def to_json(self) -> str:
        payload = {
            "elements": [
                {"label": label, "port": port, "matrix": complex_to_json(m)}
                for m, label, port in zip(self.effects, self.labels, self.ports)
            ],
            "residual": self.completeness_residual,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PovmSet":
        with decoding("POVM file"):
            return cls.build(
                PovmElement(complex_from_json(raw["matrix"]), raw["label"], raw["port"])
                for raw in _loads(text)["elements"]
            )


@dataclass(frozen=True, eq=False)
class IterationPair:
    """One peel-off iteration: c1 acts at x = 0, c2 at x = 1; ``build_circuit`` checks both."""

    c1: np.ndarray
    c2: np.ndarray


def _layout(pairs) -> list:
    """The peel-off steps, unchecked: c1 at x = 0, then a NOT at x = -1 and c2 at x = 1.

    Each map lists its coins in slot order, as a ``CoinSchedule``'s ``steps`` do.
    """
    return [step for p in pairs for step in ({0: p.c1}, {-1: NOT_COIN, 1: p.c2})]


def build_circuit(pairs) -> CoinSchedule:
    """Lay out the peel-off schedule: 2 steps per iteration pair.

    The schedule checks every coin: a bad c1 of pair k is named as position
    0 in step 2k + 1, a bad c2 as position 1 in step 2k + 2.
    """
    steps = _layout(pairs)
    if not steps:
        raise ValidationError("at least one iteration pair is required (n >= 2 outcomes)")
    return CoinSchedule(steps)


def extract_povm(schedule: CoinSchedule) -> PovmSet:
    """Recover the POVM a schedule implements: ``_effects`` at every port a basis state reaches.

    The schedule checked its coins, so the effects are made exactly Hermitian, not checked.
    """
    t = schedule.n_steps
    effects = _effects(t, schedule.steps)
    k = np.flatnonzero(effects.any(axis=(1, 2)))
    kept, ports = effects[k], (2 * k - t).tolist()
    return PovmSet(0.5 * (kept + kept.conj().swapaxes(1, 2)),
                   tuple(f"E{x}" for x in ports), tuple(ports))


def _effects(t: int, steps) -> np.ndarray:
    """E_x = K_x^dag K_x at every port x = 2k - t (row k) of the t-step walk, unchecked.

    Both coin basis states walk from x = 0 in one pass to K_x (rows: final coin, columns: input).
    """
    kraus = _propagate(t, steps, IDENTITY_COIN)
    return kraus.conj().swapaxes(1, 2) @ kraus


def _orthonormal_completion(row) -> np.ndarray:
    """Unit row orthogonal to the unit ``row``, a pair of complex numbers, whose first
    nonzero entry is real positive."""
    comp0, comp1 = -row[1].conjugate(), row[0].conjugate()
    entry = comp0 if abs(comp0) > DEFAULT.norm else comp1
    phase = entry.conjugate() / abs(entry)
    return np.array([comp0 * phase, comp1 * phase])


def _rows(target: PovmSet) -> np.ndarray:
    """Rows f_i with E_i = f_i^dag f_i, from one ``eigh`` of the target's effects."""
    vals, vecs = np.linalg.eigh(target.effects)
    if (wide := vals[:, 0] > DEFAULT.rank_one).any():
        raise ValidationError(f"element {target.labels[wide.argmax()]} is not rank 1")
    return np.sqrt(np.maximum(vals[:, 1], 0.0))[:, None] * vecs[:, :, 1].conj()


def synthesize(target: PovmSet):
    """Iteration pairs realising a rank-1 POVM, plus the outcome->port map.

    Iteration k peels row g_k with c1 = [r; low], r = g_k / |g_k|.  The
    rows after k keep their component along low and have their component
    along r, of norm b, scaled to unit norm.  c2 = [[a, b], [b, -a]] with
    (a, b) = (|g_k|, b) normalised, or the identity when b is negligible;
    taking b from the rows rather than from sqrt(1 - a^2) keeps coins and
    rows consistent when a^2 + b^2 is off 1 by rounding or by up to the
    completeness gate.  Outcome i goes to port 2(n-1-i).  The 2-vector
    arithmetic of a peel runs on Python scalars; numpy only rewrites the
    remaining rows.  The rows come from one ``eigh``, and ``_effects`` of
    the layout checks the circuit: each element must equal K^dag K at its
    port.  A repeated label is rejected, since the labels key the
    outcome->port map.
    """
    n = len(target.labels)
    if n < 2:
        raise ValidationError("a POVM needs at least two outcomes")
    g = _rows(target)
    # the residual of the rows actually peeled, not of the target's effects
    residual = float(np.linalg.norm(g.conj().T @ g - np.eye(2), ord=2))
    if residual >= DEFAULT.completeness:
        raise ValidationError(f"target POVM is not complete (residual {residual:.3g})")
    assignment = _unique(((label, 2 * (n - 1 - i)) for i, label in enumerate(target.labels)),
                         "target POVM label")

    pairs, rest = [], g
    for _ in range(n - 1):
        (g0, g1), rest = rest[0].tolist(), rest[1:]
        a = math.hypot(g0.real, g0.imag, g1.real, g1.imag)
        r0, r1 = (g0 / a, g1 / a) if a > DEFAULT.norm else (1.0 + 0j, 0j)
        low0, low1 = _orthonormal_completion((r0, r1)).tolist()
        # the remaining rows' components along low and along r
        rest = rest @ np.array([[low0.conjugate(), r0.conjugate()],
                                [low1.conjugate(), r1.conjugate()]])
        c = math.sqrt(np.vdot(rest[:, 1], rest[:, 1]).real)
        h = math.hypot(a, c) or 1.0
        a, b = a / h, c / h
        if b <= DEFAULT.norm:
            c2 = IDENTITY_COIN
            rest[:, 1] = 0.0
        else:
            c2 = np.array([[a, b], [b, -a]], dtype=complex)
            rest[:, 1] /= c
        pairs.append(IterationPair(np.array([[r0, r1], [low0, low1]]), c2))

    # outcome i leaves at port 2(n-1-i): row 2(n-1) - i of the walk's effects
    produced = _effects(2 * (n - 1), _layout(pairs))[:n - 2:-1]
    deviations = np.max(np.abs(produced - target.effects), axis=(1, 2))
    for label, deviation in zip(target.labels, deviations.tolist()):
        if not deviation <= DEFAULT.synthesis_roundtrip:
            raise SynthesisInfeasibleError(label, deviation)
    return pairs, assignment


# ---------------------------------------------------------------------------
# Built-in measurement scenarios and their input states.
# ---------------------------------------------------------------------------

_SIC_PHASES = (1.0, np.exp(2j * np.pi / 3.0), np.exp(-2j * np.pi / 3.0))

NAMED_STATES = MappingProxyType({name: _frozen(v) for name, v in {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "psi3-1": np.array([1.0, 0.0], dtype=complex),
    "psi3-2": -0.5 * np.array([1.0, -np.sqrt(3.0)], dtype=complex),
    "psi3-3": -0.5 * np.array([1.0, np.sqrt(3.0)], dtype=complex),
    "psibar3-1": np.array([0.0, 1.0], dtype=complex),
    "psibar3-2": np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex),
    "psibar3-3": np.array([np.sqrt(3.0) / 2.0, -0.5], dtype=complex),
    "psi4-1": np.array([1.0, 0.0], dtype=complex),
    **{f"psi4-{i}": np.array([-1.0 / np.sqrt(3.0), np.sqrt(2.0 / 3.0) * phase], dtype=complex)
       for i, phase in enumerate(_SIC_PHASES, start=2)},
    "psibar4-1": np.array([0.0, 1.0], dtype=complex),
    **{f"psibar4-{i}": np.array([np.sqrt(2.0 / 3.0), 1.0 / np.sqrt(3.0) * phase], dtype=complex)
       for i, phase in enumerate(_SIC_PHASES, start=2)},
}.items()})


def usd_state(sign: int, theta: float) -> np.ndarray:
    """The pair of non-orthogonal states cos(t/2)|H> +/- sin(t/2)|V>."""
    if _integer(sign, "sign") not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    return _usd_columns(sign, _real(theta, "theta"))


def _usd_columns(sign, theta) -> np.ndarray:
    """``usd_state`` unchecked, for a sign and an angle or for equal-shaped arrays of them.

    The coin axis is last.
    """
    return np.stack([np.cos(theta / 2.0), sign * np.sin(theta / 2.0)], axis=-1).astype(complex)


def trine_scenario() -> list:
    return [
        IterationPair(IDENTITY_COIN, _TILT),
        IterationPair(HADAMARD_LIKE, IDENTITY_COIN),
    ]


def sic_scenario() -> list:
    split = np.sqrt(0.5) * np.array([[-1.0, 1.0], [1.0, 1.0]], dtype=complex)
    phase = np.sqrt(0.5) * np.array(
        [
            [np.exp(-1j * np.pi / 3.0), np.exp(1j * np.pi / 6.0)],
            [np.exp(1j * np.pi / 3.0), np.exp(-1j * np.pi / 6.0)],
        ],
        dtype=complex,
    )
    return [
        IterationPair(IDENTITY_COIN, split),
        IterationPair(split, _TILT),
        IterationPair(phase, IDENTITY_COIN),
    ]


def usd_scenario(theta: float) -> list:
    """Discrimination circuit for the state pair at separation angle theta.

    Requires 0 < theta <= pi/2 so that tan(theta/2) <= 1 and the matrix
    square root stays real (``_usd_angle``).
    """
    return [
        IterationPair(IDENTITY_COIN, _usd_peel(_usd_angle(theta))),
        IterationPair(HADAMARD_LIKE, IDENTITY_COIN),
    ]


def _usd_angle(theta, what: str = "theta", *, zero: bool = False):
    """The USD angle rule: ``theta`` as a float in (0, pi/2], or [0, pi/2] with ``zero``;
    an angle up to ``DEFAULT.norm`` above pi/2 is taken as pi/2.

    ``theta`` may also be a float array of finite angles, which the rule takes in one
    pass; where some fail, the first of them goes through the scalar rule and names it.
    """
    high = np.pi / 2.0 + DEFAULT.norm
    if isinstance(theta, np.ndarray):
        ok = ((theta >= 0.0) if zero else (theta > 0.0)) & (theta <= high)
        if ok.all():
            return np.minimum(theta, np.pi / 2.0)
        theta = theta.tolist()[np.argmin(ok)]
    return min(_real(theta, what, 0.0, high, open_low=not zero), np.pi / 2.0)


def _usd_peel(theta) -> np.ndarray:
    """The peel coin [[q, t], [t, -q]], t = tan(theta/2), q = sqrt(1 - t^2), for 0 < theta <= pi/2.

    Unchecked; ``theta`` may be an array of angles, which gives a stack of coins.
    """
    t = np.tan(np.asarray(theta) / 2.0)
    q = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    peel = np.empty(t.shape + (2, 2), dtype=complex)
    peel[..., 0, 0], peel[..., 0, 1] = q, t
    peel[..., 1, 0], peel[..., 1, 1] = t, -q
    return peel


def usd_success_probability(theta: float) -> float:
    """Probability of a conclusive outcome: 2 sin^2(theta/2) = 1 - cos(theta).

    ``theta`` lies in [0, pi/2] (``_usd_angle``).
    """
    return float(_usd_success(_usd_angle(theta, zero=True)))


def _usd_success(theta):
    """``usd_success_probability`` unchecked, for an angle or an array of angles."""
    return 1.0 - np.cos(theta)


_SCENARIOS = {"trine": trine_scenario, "sic": sic_scenario, "usd": usd_scenario}


def scenario_schedule(name: str, theta: float = None) -> CoinSchedule:
    """Schedule for a named scenario; ``theta`` is required for "usd"."""
    if name not in _SCENARIOS:
        raise ValidationError(f"unknown scenario {name!r}")
    return build_circuit(usd_scenario(theta) if name == "usd" else _SCENARIOS[name]())


def scenario_port_map(name: str, theta: float = None) -> dict:
    """Outcome->port assignment discovered by extraction, not assumed.

    Trine and SIC ports are matched to the scenario's defining states by
    picking, for each extracted effect, the state it is proportional to.
    For "usd", "plus" is the port whose effect annihilates psi- (weight at
    most ``DEFAULT.norm``) but not psi+, "minus" the mirror case and
    "failure" the remaining port.
    """
    schedule = scenario_schedule(name, theta)
    extracted = extract_povm(schedule)
    if name == "usd":
        mapping = {}
        for m, port in zip(extracted.effects, extracted.ports):
            silent = [float((v.conj() @ m @ v).real) <= DEFAULT.norm
                      for v in (usd_state(+1, theta), usd_state(-1, theta))]
            outcome = {(False, True): "plus", (True, False): "minus"}.get(tuple(silent), "failure")
            mapping[outcome] = port
        return mapping
    n = 3 if name == "trine" else 4
    mapping = {}
    for i in range(1, n + 1):
        v = NAMED_STATES[f"psi{n}-{i}"]
        projector = 2.0 / n * np.outer(v, v.conj())
        for m, port in zip(extracted.effects, extracted.ports):
            if np.max(np.abs(m - projector)) < DEFAULT.synthesis_roundtrip:
                mapping[i] = port
                break
    return mapping
