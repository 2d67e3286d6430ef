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
gives closed-form candidates with none, one, two and three plates, and
the first whose product matches the coin is returned.  ``compile_netlist``
stacks a schedule's coins and lowers them at once: each candidate class
solves and verifies, in one batch, every coin still pending, and a coin
whose candidate fails waits for the next class.  Ports and
interferometers come from the pass every ``CoinSchedule`` makes once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .povm import _usd_angle
from .tolerances import DEFAULT
from .walk import CoinSchedule, ValidationError, _integer, _norm, _real, coin_column, validate_coin


def hwp(angle_deg) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at ``angle_deg`` (or a stack)."""
    a = np.radians(2.0 * np.asarray(angle_deg, dtype=float))
    c, s = np.cos(a), np.sin(a)
    return np.stack([c, s, s, -c], axis=-1).reshape(a.shape + (2, 2)).astype(complex)


def qwp(angle_deg) -> np.ndarray:
    """Jones matrix of a quarter-wave plate with fast axis at ``angle_deg`` (or a stack)."""
    a = np.radians(np.asarray(angle_deg, dtype=float))
    c, s = np.cos(a), np.sin(a)
    m = [c * c + 1j * s * s, (1.0 - 1j) * s * c, (1.0 - 1j) * s * c, s * s + 1j * c * c]
    return np.stack(m, axis=-1).reshape(a.shape + (2, 2))


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

    ``position`` (an integer) and ``step`` (an integer >= 0) are filled in
    by the netlist compiler; bare ``decompose`` results leave them at 0.
    """

    kind: str
    angle_deg: float
    position: int = 0
    step: int = 0

    def __init__(self, kind: str, angle_deg: float, position: int = 0, step: int = 0):
        if kind not in ("HWP", "QWP"):
            raise ValidationError(f"unknown plate kind {kind!r}")
        # each field is set once; the angle mod 180 twice, because -tiny % 180 rounds to 180 itself
        self.__dict__.update(kind=kind, angle_deg=_real(angle_deg, "plate angle") % 180.0 % 180.0,
                             position=_integer(position, "plate position"),
                             step=_integer(step, "plate step", 0))

    @property
    def angle_dms(self) -> str:
        return format_dms(self.angle_deg)

    @property
    def matrix(self) -> np.ndarray:
        return hwp(self.angle_deg) if self.kind == "HWP" else qwp(self.angle_deg)


def _plate(kind: str, angle_deg: float, position: int, step: int) -> WavePlate:
    """A ``WavePlate`` of fields already checked, in the form ``__init__`` gives them."""
    plate = object.__new__(WavePlate)
    plate.__dict__.update(kind=kind, angle_deg=angle_deg, position=position, step=step)
    return plate


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
            "plates": [{**vars(p), "angle_dms": p.angle_dms} for p in self.plates],
            "ports": list(self.ports),
            "interferometers": [list(pair) for pair in self.interferometers],
        }
        return json.dumps(payload, sort_keys=True)


def plates_matrix(plates) -> np.ndarray:
    """Product of plate matrices in list order (beam enters at the list's end)."""
    return reduce(np.matmul, (p.matrix for p in plates), np.eye(2, dtype=complex))


def _phase_aligned_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - e^{i t} b| over the optimal global phase t, for (..., 2, 2) unitaries.

    When tr(b^dag a) = 0 every phase leaves the distance at 1 or more.
    """
    t = np.einsum("...ij,...ij->...", b.conj(), a)
    zero = t == 0  # the phase is 1 there and t / |t| elsewhere
    phase = (t + zero) / (np.abs(t) + zero)
    return np.max(np.abs(a - phase[..., None, None] * b), axis=(-2, -1))


def _so3(u: np.ndarray) -> np.ndarray:
    """Bloch-sphere rotations of (..., 2, 2) unitaries (insensitive to global phase)."""
    # column k is (Re m01, -Im m01, (m00 - m11) / 2) for m = u sigma_k u^dag
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    x, y = b * c.conj() + a * d.conj(), 1j * (b * c.conj() - a * d.conj())
    z, xz = a * c.conj() - b * d.conj(), a * b.conj() - c * d.conj()
    zz = (abs(a) ** 2 - abs(b) ** 2 - abs(c) ** 2 + abs(d) ** 2) / 2.0
    r = np.stack([x.real, -x.imag, xz.real, y.real, -y.imag, xz.imag, z.real, -z.imag, zz], -1)
    return r.reshape(u.shape[:-2] + (3, 3)).swapaxes(-1, -2)


def _qwp_so3(angle_deg: np.ndarray) -> np.ndarray:
    """``_so3(qwp(a))`` in closed form: the quarter turn n n^T + [n]x about
    n = (sin 2a, 0, cos 2a), for an array of angles a in degrees."""
    a = np.radians(2.0 * angle_deg)
    s, c = np.sin(a), np.cos(a)
    r = np.stack([s * s, -c, s * c, c, 0.0 * a, -s, s * c, s, c * c], -1)
    return r.reshape(a.shape + (3, 3))


def _hwp_angle(h: np.ndarray) -> np.ndarray:
    """Angles of HWPs with Bloch rotations h: H = 2 n n^T - I, n = (sin 2b, 0, cos 2b)."""
    return np.degrees(np.arctan2(h[:, 0, 2], h[:, 2, 2])) / 4.0 % 90.0 % 90.0


def _pair(r: np.ndarray) -> np.ndarray:
    """HWP * QWP angles for Bloch rotations r with r[1, 1] = 0; the QWP undoes r's action on y."""
    gamma = np.degrees(np.arctan2(r[:, 1, 2], -r[:, 1, 0])) / 2.0
    return np.column_stack([_hwp_angle(r @ _qwp_so3(gamma).swapaxes(1, 2)), gamma])


def _triple(r: np.ndarray) -> np.ndarray:
    """QWP * HWP * QWP angles: the outer QWP turns r's image of y back into the x-z plane."""
    w0, w2 = r[:, 0, 1], r[:, 2, 1]
    alpha = np.where(np.hypot(w0, w2) > DEFAULT.norm, np.degrees(np.arctan2(w0, w2)) / 2.0, 0.0)
    return np.column_stack([alpha, _pair(_qwp_so3(alpha).swapaxes(1, 2) @ r)])


def _lower(us: np.ndarray, slots=None) -> list:
    """One plate list per coin of an (N, 2, 2) stack already checked to be unitary.

    Candidate classes go fewest plates first, each solving and verifying at
    once the pending coins its gate passes; a coin whose candidate fails
    stays pending.  ``slots`` (position, step) label the plates and errors.
    The plates are checked once, as arrays: a verified product leaves no
    non-finite angle, so each class's angles are taken mod 180 in one array
    and become ``_plate`` records, with no ``WavePlate.__init__`` per plate.
    """
    r, plates = _so3(us), [None] * len(us)
    pending = np.ones(len(us), dtype=bool)

    def attempt(kinds, gate, solve):
        idx = np.flatnonzero(pending & gate)
        if idx.size == 0:
            return
        angles = solve(r[idx])
        product = np.eye(2, dtype=complex)
        for k, kind in enumerate(kinds):
            product = product @ (hwp if kind == "HWP" else qwp)(angles[:, k])
        ok = _phase_aligned_dist(product, us[idx]) <= DEFAULT.plate_product
        pending[idx[ok]] = False
        # the angle mod 180 twice, as WavePlate takes it, for the whole class at once
        for i, row in zip(idx[ok].tolist(), (angles[ok] % 180.0 % 180.0).tolist()):
            x, s = slots[i] if slots else (0, 0)
            plates[i] = [_plate(kind, a, x, s) for kind, a in zip(kinds, row)]

    tol = DEFAULT.so3_pattern
    in_plane = np.abs(r[:, 1, 1]) <= tol  # r maps y into the x-z plane
    attempt((), np.max(np.abs(r - np.eye(3)), axis=(1, 2)) <= tol, lambda q: q[:, :0, 0])
    attempt(("HWP",), np.abs(r[:, 1, 1] + 1.0) <= tol, lambda q: _hwp_angle(q)[:, None])
    # a quarter turn; its axis is the vector of r's antisymmetric part
    attempt(("QWP",), in_plane & (np.abs(np.trace(r, axis1=1, axis2=2) - 1.0) <= tol), lambda q:
            np.degrees(np.arctan2(q[:, 2, 1] - q[:, 1, 2], q[:, 1, 0] - q[:, 0, 1]))[:, None] / 2.0)
    attempt(("HWP", "QWP"), in_plane, _pair)
    attempt(("QWP", "HWP", "QWP"), True, _triple)
    if pending.any():
        where = " at position {} in step {}".format(*slots[np.argmax(pending)]) if slots else ""
        raise ValidationError(f"no wave-plate decomposition found{where} (input not unitary?)")
    return plates


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
    return _lower(validate_coin(u)[None])[0]


def usd_plate_angle(theta: float) -> float:
    """Half-wave angle implementing the discrimination circuit's peel coin.

    Equals arcsin(tan(theta/2)) / 2 in degrees, for theta under ``povm._usd_angle``.
    """
    return math.degrees(0.5 * math.asin(min(1.0, math.tan(_usd_angle(theta) / 2.0))))


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
    """Lower a schedule to hardware: one displacer per step, its coins' plates as one stack.

    A slot's plates match its coin only up to a global phase, and the netlist
    keeps no phase.  Where two coins of one step feed paths that recombine,
    their relative phase is measured, so the plates can measure another POVM:
    for a seeded Haar coin on every site of a 4-step walk, 0.59 away in
    operator norm.  Peel-off circuits lose nothing, since c1 sits alone in its
    step and c2 and the NOT beside it are exactly half-wave plates.  ROADMAP
    item 2 keeps the slot phases.  The plates are checked once, as arrays, by
    ``_lower``'s plate products; the schedule has checked the slots.
    """
    slots = [(x, s) for s, coins in enumerate(schedule.steps, start=1) for x in sorted(coins)]
    us = np.array([schedule.steps[s - 1][x] for x, s in slots]).reshape(-1, 2, 2)
    plates = tuple(p for group in _lower(us, slots) for p in group)
    ports, pairs = schedule._structure
    return OpticalNetlist(schedule.n_steps, plates, ports, tuple(pairs))


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
    v = coin_column(target)
    v = v / _norm(v)
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
