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
list right to left).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .tolerances import DEFAULT
from .walk import CoinSchedule, ValidationError, _step, validate_coin

_SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)

# tolerance for the SO(3) pattern tests inside decompose; final results
# are always re-verified against the unitary at DEFAULT.plate_product
_SO3_TOL = 1e-8


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
        object.__setattr__(self, "angle_deg", float(self.angle_deg) % 180.0)

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
    """max |a - e^{i t} b| over the optimal global phase t."""
    t = np.trace(b.conj().T @ a)
    if abs(t) < 1e-9:
        idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
        if abs(b[idx]) < 1e-12:
            return float(np.max(np.abs(a - b)))
        t = a[idx] / b[idx]
        if abs(t) < 1e-12:
            return float(np.max(np.abs(a - b)))
    phase = t / abs(t)
    return float(np.max(np.abs(a - phase * b)))


def _so3(u: np.ndarray) -> np.ndarray:
    """Bloch-sphere rotation of a 2x2 unitary (insensitive to global phase)."""
    # r[j, k] = tr(sigma_j u sigma_k u^dag) / 2
    return 0.5 * np.einsum("jab,bc,kcd,ad->jk", _SIGMA, u, _SIGMA, u.conj()).real


def _canonical_hwp_angle(sin2b: float, cos2b: float) -> float:
    # fix the +/- matrix sign so that sin(2 beta) >= 0, i.e. beta in [0, 90]
    if sin2b < 0 or (abs(sin2b) < 1e-12 and cos2b < 0):
        sin2b, cos2b = -sin2b, -cos2b
    return math.degrees(math.atan2(sin2b, cos2b)) / 2.0 % 180.0


def _hwp_angle_from_matrix(m: np.ndarray) -> float | None:
    """Angle beta if m is e^{i d} * hwp(beta), else None."""
    idx = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    if abs(m[idx]) < 1e-12:
        return None
    n = m / (m[idx] / abs(m[idx]))
    if np.max(np.abs(n.imag)) > 1e-9:
        return None
    nr = n.real
    if abs(nr[0, 1] - nr[1, 0]) > 1e-9 or abs(nr[0, 0] + nr[1, 1]) > 1e-9:
        return None
    return _canonical_hwp_angle(nr[0, 1], nr[0, 0])


def _qwp_angle_from_so3(r: np.ndarray) -> float | None:
    """Angle alpha if r is the Bloch rotation of qwp(alpha), else None."""
    if abs(np.trace(r) - 1.0) > _SO3_TOL:
        return None
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if abs(w[1]) > _SO3_TOL or np.linalg.norm(w) < _SO3_TOL:
        return None
    u = w / np.linalg.norm(w)
    return math.degrees(math.atan2(u[0], u[2])) / 2.0 % 180.0


def _try_pair(u: np.ndarray, r: np.ndarray, qwp_first: bool) -> list | None:
    """Solve u = hwp(beta) qwp(alpha) (qwp_first) or u = qwp(alpha) hwp(beta)."""
    if qwp_first:
        two_alpha = math.atan2(r[1, 2], -r[1, 0])
    else:
        two_alpha = math.atan2(-r[2, 1], r[0, 1])
    alpha = math.degrees(two_alpha) / 2.0 % 180.0
    q = qwp(alpha)
    h_cand = u @ q.conj().T if qwp_first else q.conj().T @ u
    beta = _hwp_angle_from_matrix(h_cand)
    if beta is None:
        return None
    if qwp_first:
        plates = [WavePlate("HWP", beta), WavePlate("QWP", alpha)]
    else:
        plates = [WavePlate("QWP", alpha), WavePlate("HWP", beta)]
    if _phase_aligned_dist(plates_matrix(plates), u) > DEFAULT.plate_product:
        return None
    return plates


def decompose(u) -> list:
    """Factor a coin unitary into wave plates (QWP * HWP * QWP with omissions).

    The product of the returned plate matrices equals ``u`` up to a global
    phase within 1e-10.  Identical results are produced for e^{i d} u at
    any d, since the factorisation runs on the Bloch-sphere rotation.
    """
    u = validate_coin(u)
    r = _so3(u)

    if np.max(np.abs(r - np.eye(3))) <= _SO3_TOL:
        return []

    if abs(r[1, 1] + 1.0) <= _SO3_TOL:
        # half-turn about an axis in the x-z plane: a single HWP
        m = 0.5 * (r + np.eye(3))
        k = int(np.argmax(np.diag(m)))
        u_axis = m[:, k] / math.sqrt(m[k, k])
        beta = _canonical_hwp_angle(u_axis[0], u_axis[2])
        plates = [WavePlate("HWP", beta)]
        if _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product:
            return plates

    alpha = _qwp_angle_from_so3(r)
    if alpha is not None:
        plates = [WavePlate("QWP", alpha)]
        if _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product:
            return plates

    if abs(r[1, 1]) <= _SO3_TOL:
        for qwp_first in (True, False):
            plates = _try_pair(u, r, qwp_first)
            if plates is not None:
                return plates

    # general case: outer QWP from the image of the y axis, then a pair
    w = r[:, 1]
    w_plane = math.hypot(w[0], w[2])
    if w_plane > _SO3_TOL:
        base = math.degrees(math.atan2(w[0], w[2])) / 2.0
        candidates = [base % 180.0, (base + 90.0) % 180.0]
    else:
        candidates = [0.0, 45.0]
    for alpha in candidates:
        q = qwp(alpha)
        v = q.conj().T @ u
        inner = _try_pair(v, _so3(v), qwp_first=True)
        if inner is None:
            continue
        plates = [WavePlate("QWP", alpha)] + inner
        if _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product:
            return plates
    raise ValidationError("no wave-plate decomposition found (input not unitary?)")


def usd_plate_angle(theta: float) -> float:
    """Half-wave angle implementing the discrimination circuit's peel coin.

    Equals arcsin(tan(theta/2)) / 2 in degrees; valid for 0 < theta <= pi/2.
    """
    if not 0.0 < theta <= math.pi / 2.0 + 1e-12:
        raise ValidationError("theta must lie in (0, pi/2]")
    return math.degrees(0.5 * math.asin(min(1.0, math.tan(theta / 2.0))))


def _is_mixing(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True when some output of the coin superposes both inputs."""
    return bool(
        abs(m[0, 0] * m[0, 1]) > tol or abs(m[1, 0] * m[1, 1]) > tol
    )


def _reach(schedule: CoinSchedule) -> list:
    """Reachable (position, coin) masks from x = 0: before each step, then final.

    Row x + T holds position x.  Each coin's pattern of entries above 1e-12
    walks in its place as a boolean matrix: its product is an OR of ANDs,
    which cannot cancel, so an entry is True exactly when some path reaches it.
    """
    t = schedule.n_steps
    a = np.zeros((2 * t + 1, 2, 1), dtype=bool)
    a[t] = True
    masks = [a[:, :, 0].copy()]
    for coins in schedule.steps:
        _step(a, {x: np.abs(m) > 1e-12 for x, m in coins.items()}, t)
        masks.append(a[:, :, 0].copy())
    return masks


def interferometers(schedule: CoinSchedule) -> list:
    """Displacer pairs that recombine paths before a mixing coin.

    A coin at step t that superposes both coin components interferes the
    two path histories merged by displacer t-1 after they split at t-2;
    the pair (t-2, t-1) must therefore stay phase stable.  Reachability
    from the x = 0 start decides whether both components can actually be
    populated.
    """
    return _interferometers(schedule, _reach(schedule))


def _interferometers(schedule: CoinSchedule, reach: list) -> list:
    origin = schedule.n_steps

    def interferes(t, x, m):
        return 0 <= x + origin <= 2 * origin and reach[t - 1][x + origin].all() and _is_mixing(m)

    return [(t - 2, t - 1) for t, coins in enumerate(schedule.steps, start=1)
            if t >= 3 and any(interferes(t, x, m) for x, m in coins.items())]


def output_ports(schedule: CoinSchedule) -> list:
    """Positions reachable at the end of the walk from the x = 0 start."""
    return _output_ports(schedule, _reach(schedule))


def _output_ports(schedule: CoinSchedule, reach: list) -> list:
    return (np.flatnonzero(reach[-1].any(axis=1)) - schedule.n_steps).tolist()


def compile_netlist(schedule: CoinSchedule) -> OpticalNetlist:
    """Lower a schedule to hardware: one displacer per step, plates per coin."""
    plates = []
    for s, coins in enumerate(schedule.steps, start=1):
        for x in sorted(coins):
            for p in decompose(coins[x]):
                plates.append(replace(p, position=x, step=s))
    reach = _reach(schedule)
    return OpticalNetlist(
        displacers=schedule.n_steps,
        plates=tuple(plates),
        ports=tuple(_output_ports(schedule, reach)),
        interferometers=tuple(_interferometers(schedule, reach)),
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
    if abs(nrm - 1.0) > DEFAULT.input_norm:
        raise ValidationError("target state must be normalised")
    v = v / nrm
    s1 = abs(v[0]) ** 2 - abs(v[1]) ** 2
    s2 = 2.0 * (np.conj(v[0]) * v[1]).real
    s3 = 2.0 * (np.conj(v[0]) * v[1]).imag
    psi = math.degrees(0.5 * math.atan2(s2, s1))
    chi = math.degrees(0.5 * math.asin(max(-1.0, min(1.0, s3))))

    if abs(s3) < 1e-12:
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
