"""Jones-calculus lowering of coin schedules onto wave plates and beam displacers.

Conventions (fixed once, used everywhere):

* ``hwp(phi)``  = [[cos 2phi, sin 2phi], [sin 2phi, -cos 2phi]] in the
  {H, V} basis, fast axis at ``phi`` degrees from horizontal.
* ``qwp(phi)``  = R(phi) diag(1, i) R(-phi)
  = [[cos^2 + i sin^2, (1-i) sin cos], [(1-i) sin cos, sin^2 + i cos^2]].

A physical quarter-wave plate with the opposite retardance sign (the
other equally common convention) at angle ``a`` acts, up to a global
phase, like ``qwp(a + 90)``.  ``lab_qwp_angle`` converts a ``qwp`` angle
into that opposite-sign convention; hardware angle tables written in it
match our angles only after this shift.  Half-wave plates are real
matrices, identical in both conventions, with ``hwp(phi + 90) = -hwp(phi)``
so their setting is physically meaningful modulo 90 degrees (up to sign).

``decompose`` factors any coin unitary into at most three plates,
following the pattern QWP * HWP * QWP with omissions; the list is in
matrix-product order (leftmost applied last, i.e. the beam traverses the
list right to left).  It searches nothing: the coin's Bloch rotation
picks closed-form candidates with none, one, two and three plates, and
the first whose product matches the coin is returned, each verified
once.  ``compile_netlist`` lowers a schedule's coins the same way
without checking them again, and reads the ports and interferometers
that every ``CoinSchedule`` finds once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .tolerances import DEFAULT
from .walk import CoinSchedule, ValidationError, validate_coin

_SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)


def hwp(angle_deg: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at ``angle_deg``."""
    a = math.radians(2.0 * angle_deg)
    return np.array(
        [[math.cos(a), math.sin(a)], [math.sin(a), -math.cos(a)]], dtype=complex
    )


def qwp(angle_deg: float) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at ``angle_deg``."""
    a = math.radians(angle_deg)
    c, s = math.cos(a), math.sin(a)
    return np.array(
        [
            [c * c + 1j * s * s, (1.0 - 1j) * s * c],
            [(1.0 - 1j) * s * c, s * s + 1j * c * c],
        ],
        dtype=complex,
    )


def lab_qwp_angle(angle_deg: float) -> float:
    """Quarter-wave angle in the opposite-retardance-sign convention."""
    return (angle_deg - 90.0) % 180.0


def format_dms(angle_deg: float) -> str:
    """Render an angle as degrees and arcminutes, e.g. ``17°38′``."""
    sign = "-" if angle_deg < 0 else ""
    total_minutes = round(abs(angle_deg) * 60.0)
    d, m = divmod(total_minutes, 60)
    return f"{sign}{d}°{m:02d}′"


@dataclass(frozen=True)
class WavePlate:
    """One wave plate: kind, fast-axis angle, and its slot in the network.

    ``position``/``step`` are filled in by the netlist compiler; bare
    ``decompose`` results leave them at 0.
    """

    kind: str
    angle_deg: float
    position: int = 0
    step: int = 0

    def __post_init__(self):
        if self.kind not in ("HWP", "QWP"):
            raise ValidationError(f"unknown plate kind {self.kind!r}")
        # twice, because -tiny % 180 rounds to 180 itself
        object.__setattr__(self, "angle_deg", float(self.angle_deg) % 180.0 % 180.0)

    @property
    def angle_dms(self) -> str:
        return format_dms(self.angle_deg)

    @property
    def matrix(self) -> np.ndarray:
        return hwp(self.angle_deg) if self.kind == "HWP" else qwp(self.angle_deg)


@dataclass(frozen=True)
class OpticalNetlist:
    """Compiled hardware description: displacer count, plates, ports, interferometers."""

    displacers: int
    plates: tuple
    ports: tuple
    interferometers: tuple

    def to_json(self) -> str:
        payload = {
            "displacers": self.displacers,
            "plates": [
                {
                    "kind": p.kind,
                    "angle_deg": p.angle_deg,
                    "angle_dms": p.angle_dms,
                    "position": p.position,
                    "step": p.step,
                }
                for p in self.plates
            ],
            "ports": list(self.ports),
            "interferometers": [list(pair) for pair in self.interferometers],
        }
        return json.dumps(payload, sort_keys=True)


def plates_matrix(plates) -> np.ndarray:
    """Product of plate matrices in list order (beam enters at the list's end)."""
    m = np.eye(2, dtype=complex)
    for p in plates:
        m = m @ p.matrix
    return m


def _phase_aligned_dist(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - e^{i t} b| over the optimal global phase t, for unitaries a and b.

    When tr(b^dag a) = 0 every phase leaves the distance at 1 or more.
    """
    t = np.trace(b.conj().T @ a)
    phase = t / abs(t) if t else 1.0
    return float(np.max(np.abs(a - phase * b)))


def _so3(u: np.ndarray) -> np.ndarray:
    """Bloch-sphere rotation of a 2x2 unitary (insensitive to global phase)."""
    # r[j, k] = tr(sigma_j u sigma_k u^dag) / 2
    return 0.5 * np.einsum("jab,bc,kcd,ad->jk", _SIGMA, u, _SIGMA, u.conj()).real


def _hwp_angle(h: np.ndarray) -> float:
    """Angle of the HWP whose Bloch rotation is h: H = 2 n n^T - I, n = (sin 2b, 0, cos 2b)."""
    return math.degrees(math.atan2(h[0, 2], h[2, 2])) / 4.0 % 90.0 % 90.0


def _pair(r: np.ndarray) -> list:
    """HWP * QWP for a Bloch rotation r with r[1, 1] = 0; the QWP undoes r's action on y."""
    gamma = math.degrees(math.atan2(r[1, 2], -r[1, 0])) / 2.0
    return [WavePlate("HWP", _hwp_angle(r @ _so3(qwp(gamma)).T)), WavePlate("QWP", gamma)]


def _candidates(r: np.ndarray):
    """Closed-form plate lists for the Bloch rotation r, fewest plates first.

    The gates only skip candidates that cannot fit; the caller verifies each.
    """
    if np.max(np.abs(r - np.eye(3))) <= DEFAULT.so3_pattern:
        yield []
    if abs(r[1, 1] + 1.0) <= DEFAULT.so3_pattern:
        yield [WavePlate("HWP", _hwp_angle(r))]
    if abs(r[1, 1]) <= DEFAULT.so3_pattern:
        if abs(np.trace(r) - 1.0) <= DEFAULT.so3_pattern:
            # quarter turn; its axis is the vector of r's antisymmetric part
            two_alpha = math.atan2(r[2, 1] - r[1, 2], r[1, 0] - r[0, 1])
            yield [WavePlate("QWP", math.degrees(two_alpha) / 2.0)]
        yield _pair(r)
    # the outer QWP turns r's image of y back into the x-z plane
    w = r[:, 1]
    alpha = 0.0
    if math.hypot(w[0], w[2]) > DEFAULT.norm:
        alpha = math.degrees(math.atan2(w[0], w[2])) / 2.0
    yield [WavePlate("QWP", alpha)] + _pair(_so3(qwp(alpha)).T @ r)


def _lower(u: np.ndarray) -> list:
    """Plates for a coin already checked to be unitary: the first verified candidate."""
    for plates in _candidates(_so3(u)):
        if _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product:
            return plates
    raise ValidationError("no wave-plate decomposition found (input not unitary?)")


def decompose(u) -> list:
    """Factor a coin unitary into wave plates (QWP * HWP * QWP with omissions).

    One closed-form candidate is built per plate count from the coin's
    Bloch rotation r, fewest first: none when r = I, one HWP for a
    half-turn about an x-z axis, one QWP for a quarter turn about one,
    HWP * QWP when r maps y into the x-z plane, and otherwise an outer
    QWP that brings r there followed by that pair (Simon & Mukunda,
    Phys. Lett. A 143, 165 (1990)).  The first candidate whose product
    equals ``u`` up to a global phase within ``DEFAULT.plate_product`` is
    returned; the empty list is verified like any other.  Results are the
    same for e^{i d} u at any d.
    """
    return _lower(validate_coin(u))


def usd_plate_angle(theta: float) -> float:
    """Half-wave angle implementing the discrimination circuit's peel coin.

    Equals arcsin(tan(theta/2)) / 2 in degrees; valid for 0 < theta <= pi/2.
    """
    if not 0.0 < theta <= math.pi / 2.0 + DEFAULT.norm:
        raise ValidationError("theta must lie in (0, pi/2]")
    return math.degrees(0.5 * math.asin(min(1.0, math.tan(theta / 2.0))))


def interferometers(schedule: CoinSchedule) -> list:
    """Displacer pairs that recombine paths before a mixing coin.

    A coin at step t that superposes both coin components, both reachable
    from x = 0, interferes the two path histories merged by displacer t-1
    after they split at t-2; the pair (t-2, t-1) must stay phase stable.
    """
    return list(schedule._structure[1])


def output_ports(schedule: CoinSchedule) -> list:
    """Positions reachable at the end of the walk from the x = 0 start."""
    return list(schedule._structure[0])


def compile_netlist(schedule: CoinSchedule) -> OpticalNetlist:
    """Lower a schedule to hardware: one displacer per step, plates per coin."""
    plates = []
    for s, coins in enumerate(schedule.steps, start=1):
        for x in sorted(coins):
            for p in _lower(coins[x]):
                plates.append(replace(p, position=x, step=s))
    ports, pairs = schedule._structure
    return OpticalNetlist(
        displacers=schedule.n_steps,
        plates=tuple(plates),
        ports=ports,
        interferometers=pairs,
    )


def state_prep_angles(target, include_qwp: bool | None = None):
    """Plate angles preparing ``target`` from |H>: (hwp1_deg, qwp1_deg or None).

    The preparation stage is HWP then QWP (Jones product qwp @ hwp).
    Targets that are real up to a global phase need no quarter-wave
    plate and return ``None`` for it unless ``include_qwp`` is True, in
    which case the plate is oriented where it acts trivially.  For
    genuinely complex targets the quarter-wave plate sits along the
    polarisation ellipse's orientation; the equally valid solution with
    the plate rotated by 90 degrees (and the half-wave plate moved
    accordingly) prepares the same state.
    """
    v = np.asarray(target, dtype=complex).reshape(2)
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= DEFAULT.input_norm:
        raise ValidationError("target state must be normalised")
    v = v / nrm
    s1 = abs(v[0]) ** 2 - abs(v[1]) ** 2
    s2 = 2.0 * (np.conj(v[0]) * v[1]).real
    s3 = 2.0 * (np.conj(v[0]) * v[1]).imag
    psi = math.degrees(0.5 * math.atan2(s2, s1))
    chi = math.degrees(0.5 * math.asin(max(-1.0, min(1.0, s3))))

    if abs(s3) < DEFAULT.norm:
        half = psi / 2.0
        if include_qwp:
            return half, (psi + 90.0) % 180.0
        return half, None
    if include_qwp is False:
        raise ValidationError("a quarter-wave plate is required for complex targets")
    return (psi + chi) / 2.0, psi % 180.0


def prepared_state(hwp1_deg: float, qwp1_deg: float | None) -> np.ndarray:
    """State produced from |H> by the preparation plates."""
    v = hwp(hwp1_deg) @ np.array([1.0, 0.0], dtype=complex)
    if qwp1_deg is not None:
        v = qwp(qwp1_deg) @ v
    return v
