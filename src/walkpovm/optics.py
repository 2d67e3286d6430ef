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
lowers a schedule's coin stack at once: one round gates every coin into
its first candidate class, solves each class's coins and verifies all the
plate products together, and a coin whose candidate fails goes to another
round from its next class.  The netlist keeps the angles and each slot's
phase as arrays and builds its ``WavePlate`` records only when they are
read.  Ports and interferometers come from the pass every ``CoinSchedule``
makes once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .povm import _usd_angle
from .tolerances import DEFAULT
from .walk import (CoinSchedule, ValidationError, _frozen, _integer, _norm, _real, coin_column,
                   complex_to_json, validate_coin)


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
    fields = plate.__dict__  # one store per key: update(**kwargs) builds a dict first
    fields["kind"] = kind
    fields["angle_deg"] = angle_deg
    fields["position"] = position
    fields["step"] = step
    return plate


@dataclass(frozen=True, eq=False)
class OpticalNetlist:
    """Compiled hardware description: displacer count, ports, interferometers and plates.

    The plates are kept as read-only arrays over the schedule's ``slots``, its
    (position, step) pairs in slot order: ``classes`` indexes ``_CLASSES``, the
    slot's plate kinds, ``angles`` (N, 3) holds their angles in degrees (0 past
    the last plate), and ``phases`` the slot's phase, a unit complex number with
    coin = phase * plate product.  ``plates`` builds the ``WavePlate`` records
    on first read and keeps them.
    """

    displacers: int
    ports: tuple
    interferometers: tuple
    slots: tuple
    classes: np.ndarray
    angles: np.ndarray
    phases: np.ndarray

    @cached_property
    def plates(self) -> tuple:
        """The plates in slot order, each in matrix-product order within its slot."""
        return tuple(_plate(kind, a, x, s)
                     for (x, s), c, row in zip(self.slots, self.classes.tolist(),
                                               self.angles.tolist())
                     for kind, a in zip(_CLASSES[c], row))

    def to_json(self) -> str:
        """The netlist as JSON; ``phases`` lists only the slots whose phase is not 1
        within ``DEFAULT.plate_product``, and is left out where there are none."""
        payload = {
            "displacers": self.displacers,
            "plates": [{**vars(p), "angle_dms": p.angle_dms} for p in self.plates],
            "ports": list(self.ports),
            "interferometers": [list(pair) for pair in self.interferometers],
        }
        off = np.flatnonzero(np.abs(self.phases - 1.0) > DEFAULT.plate_product)
        if off.size:
            payload["phases"] = [
                {"position": self.slots[i][0], "step": self.slots[i][1],
                 "phase": complex_to_json(self.phases[i])} for i in off.tolist()]
        return json.dumps(payload, sort_keys=True)


def plates_matrix(plates) -> np.ndarray:
    """Product of plate matrices in list order (beam enters at the list's end)."""
    return reduce(np.matmul, (p.matrix for p in plates), np.eye(2, dtype=complex))


def _phase_fit(a: np.ndarray, b: np.ndarray) -> tuple:
    """(max |a - e^{i t} b| over the optimal global phase t, e^{i t}), for (..., 2, 2) unitaries.

    When tr(b^dag a) = 0 every phase leaves the distance at 1 or more, and e^{i t} is 1.
    """
    t = np.einsum("...ij,...ij->...", b.conj(), a)
    zero = t == 0  # the phase is 1 there and t / |t| elsewhere
    phase = (t + zero) / (np.abs(t) + zero)
    return np.max(np.abs(a - phase[..., None, None] * b), axis=(-2, -1)), phase


def _phase_aligned_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - e^{i t} b| over the optimal global phase t, for (..., 2, 2) unitaries."""
    return _phase_fit(a, b)[0]


def _so3(u: np.ndarray) -> np.ndarray:
    """Bloch-sphere rotations of (..., 2, 2) unitaries (insensitive to global phase)."""
    # column k is (Re m01, -Im m01, (m00 - m11) / 2) for m = u sigma_k u^dag
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    cc, dc = c.conj(), d.conj()
    bc, ad = b * cc, a * dc
    x, y = bc + ad, 1j * (bc - ad)
    z, xz = a * cc - b * dc, a * b.conj() - c * dc
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


def _quarter(r: np.ndarray) -> np.ndarray:
    """QWP angles of quarter turns r: the axis is the vector of r's antisymmetric part."""
    return np.degrees(np.arctan2(r[:, 2, 1] - r[:, 1, 2], r[:, 1, 0] - r[:, 0, 1]))[:, None] / 2.0


# the candidate classes, fewest plates first: the plate kinds of each, the solver
# of their angles from Bloch rotations, and e^{i delta} of each plate's retardance
# delta (1 past the last plate, where the plate at angle 0 is the identity)
_CLASSES = ((), ("HWP",), ("QWP",), ("HWP", "QWP"), ("QWP", "HWP", "QWP"))
_SOLVERS = (None, lambda r: _hwp_angle(r)[:, None], _quarter, _pair, _triple)
_RETARDANCE = np.array([[{"HWP": -1.0, "QWP": 1j}[k] for k in kinds] + [1.0] * (3 - len(kinds))
                        for kinds in _CLASSES])
_CLASS_INDEX = np.arange(len(_CLASSES))
_EYE3 = np.eye(3)


def _plate_products(e: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The (M, 2, 2) products of M rows of three retarders, e (M, 3) = e^{i delta} of each.

    A retarder R(a) diag(1, e) R(-a) at angle a is the symmetric [[p, q], [q, r]]:
    ``hwp(a)`` where e is -1 and ``qwp(a)`` where e is i, within rounding, and the
    identity where e is 1 and a is 0.  Each product is written out entry by entry.
    """
    a = np.radians(angles)
    c, s = np.cos(a), np.sin(a)
    cc, ss = c * c, s * s
    p, q, r = (cc + e * ss).T, ((1.0 - e) * (s * c)).T, (ss + e * cc).T
    m00, m01 = p[0] * p[1] + q[0] * q[1], p[0] * q[1] + q[0] * r[1]
    m10, m11 = q[0] * p[1] + r[0] * q[1], q[0] * q[1] + r[0] * r[1]
    return np.stack([m00 * p[2] + m01 * q[2], m00 * q[2] + m01 * r[2],
                     m10 * p[2] + m11 * q[2], m10 * q[2] + m11 * r[2]], axis=-1).reshape(-1, 2, 2)


def _lower(us: np.ndarray, slots=None) -> tuple:
    """(classes, angles, phases) for an (N, 2, 2) stack of coins already checked to be unitary.

    A coin's class indexes ``_CLASSES``; its (3,) row of ``angles`` holds its
    plates' angles in degrees, mod 180 as ``WavePlate`` takes them, and 0 past
    the last plate; its phase is tr(P^dag U) / |tr(P^dag U)| for plate product
    P, so U = phase * P within ``DEFAULT.plate_product``.  One round gates every
    coin into the first class whose gate passes, solves each class's coins,
    and verifies all their plate products at once; a coin whose candidate
    fails goes to a new round from its next class.  ``slots`` (position, step)
    name the first coin that fails every class.
    """
    n = len(us)
    r, tol = _so3(us), DEFAULT.so3_pattern
    in_plane = np.abs(r[:, 1, 1]) <= tol  # r maps y into the x-z plane
    gates = np.stack([
        np.max(np.abs(r - _EYE3), axis=(1, 2)) <= tol,
        np.abs(r[:, 1, 1] + 1.0) <= tol,
        in_plane & (np.abs(np.trace(r, axis1=1, axis2=2) - 1.0) <= tol),
        in_plane,
        np.ones(n, dtype=bool),
    ], axis=1)

    def attempt(idx, cls):
        """Angles, plate-product distances and phases of the class-``cls`` candidates."""
        found = np.zeros((len(idx), 3))
        for k, count in enumerate(np.bincount(cls, minlength=len(_CLASSES)).tolist()):
            if k and count:
                pick = cls == k
                found[pick, :len(_CLASSES[k])] = _SOLVERS[k](r[idx[pick]])
        return (found, *_phase_fit(_plate_products(_RETARDANCE[cls], found), us[idx]))

    classes = np.argmax(gates, axis=1)
    angles, dist, phases = attempt(np.arange(n), classes)
    retry, failed = np.flatnonzero(~(dist <= DEFAULT.plate_product)), []
    while retry.size:
        start = classes[retry] + 1
        failed += retry[start == len(_CLASSES)].tolist()
        retry, start = retry[start < len(_CLASSES)], start[start < len(_CLASSES)]
        classes[retry] = np.argmax(gates[retry] & (_CLASS_INDEX >= start[:, None]), axis=1)
        angles[retry], dist[retry], phases[retry] = attempt(retry, classes[retry])
        retry = retry[~(dist[retry] <= DEFAULT.plate_product)]
    if failed:
        where = " at position {} in step {}".format(*slots[min(failed)]) if slots else ""
        raise ValidationError(f"no wave-plate decomposition found{where} (input not unitary?)")
    # angles mod 180 twice, as WavePlate takes them; U = conj(e^{i t}) P for P = e^{i t} U
    return classes, angles % 180.0 % 180.0, phases.conj()


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
    classes, angles, _ = _lower(validate_coin(u)[None])
    return [_plate(kind, a, 0, 0) for kind, a in zip(_CLASSES[classes[0]], angles[0].tolist())]


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
    """Lower a schedule to hardware: one displacer per step, its coin stack's plates as arrays.

    ``_lower`` takes the schedule's checked coin stack at once and verifies
    every plate product; the ``WavePlate`` records are built only when
    ``plates`` is read.  A slot's plates match its coin only up to a global
    phase, and the netlist keeps that phase per slot.  Where two coins of one
    step feed paths that recombine, their relative phase is measured, so the
    plates without the phases can measure another POVM: for a seeded Haar coin
    on every site of a 4-step walk, 0.59 away in operator norm.  Peel-off
    circuits need no phase, since c1 sits alone in its step and c2 and the NOT
    beside it are exactly half-wave plates.
    """
    classes, angles, phases = _lower(schedule.coins, schedule.slots)
    ports, pairs = schedule._structure
    return OpticalNetlist(schedule.n_steps, ports, tuple(pairs), schedule.slots,
                          _frozen(classes), _frozen(angles), _frozen(phases))


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
