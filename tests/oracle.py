"""Reference walk engines kept as a test oracle.

These are the engines the package used before the array propagator in
``walkpovm.walk`` and the closed-form plate lowering in
``walkpovm.optics`` replaced them, kept as they were:

* the dict engine ``apply_coin``/``translate``/``run`` and the two-run
  ``extract_povm`` built on it;
* the set-based reachability ``_step_reach`` behind ``output_ports`` and
  ``interferometers``;
* the dense ``run_density``, which builds the full dim x dim step
  unitary and permutes the density matrix with ``np.ix_``;
* ``so3``, the Bloch rotation of a coin as nine separate traces, which
  ``optics._so3`` now forms as one contraction;
* the search ``decompose``, which tries identity, HWP, QWP, both pair
  orders and two outer-QWP angles and verifies each try, where
  ``optics.decompose`` now builds one closed-form candidate per plate
  count.

``tests/test_propagator.py`` and ``tests/test_optics.py`` hold the
package to these on random schedules and coins.  They are slow by design
(``run_density`` is O(T dim^3)) and are not part of the package.
"""

import math

import numpy as np

from walkpovm.experiment import IDEAL
from walkpovm.optics import (
    _SIGMA,
    WavePlate,
    _phase_aligned_dist,
    _so3,
    plates_matrix,
    qwp,
)
from walkpovm.povm import PovmElement, PovmSet
from walkpovm.tolerances import DEFAULT
from walkpovm.walk import L, R, ValidationError, WalkState, _is_mixing, validate_coin

# tolerance for the SO(3) pattern tests inside decompose; final results
# are always re-verified against the unitary at DEFAULT.plate_product
_SO3_TOL = 1e-8


def apply_coin(state: WalkState, coins) -> WalkState:
    """Apply position-dependent coin operations; identity where unspecified."""
    checked = {int(x): validate_coin(m, position=x) for x, m in coins.items()}
    new = dict(state.amplitudes)
    for x, m in checked.items():
        a_r = state.amplitude(x, R)
        a_l = state.amplitude(x, L)
        if a_r == 0 and a_l == 0:
            continue
        out = m @ np.array([a_r, a_l])
        for c in (R, L):
            if out[c] == 0:
                new.pop((x, c), None)
            else:
                new[(x, c)] = complex(out[c])
    return WalkState(new)


def translate(state: WalkState) -> WalkState:
    """Conditional shift: (x, R) -> (x+1, R) and (x, L) -> (x-1, L)."""
    new = {}
    for (x, c), a in state.amplitudes.items():
        new[(x + 1, R) if c == R else (x - 1, L)] = a
    return WalkState(new)


def run(schedule, coin_vector, prune_threshold: float = 0.0) -> WalkState:
    """Run the walk from x = 0: coin-then-shift for every schedule step."""
    state = WalkState.from_coin_vector(coin_vector)
    for coins in schedule.steps:
        state = translate(apply_coin(state, coins))
        if prune_threshold > 0.0:
            state = state.pruned(prune_threshold)
    return state


def extract_povm(schedule) -> PovmSet:
    """Recover the POVM a schedule implements.

    Runs both coin basis states, assembles per-port Kraus maps K_x
    (rows: final coin, columns: input basis) and returns E_x = K_x^dag K_x.
    """
    finals = [run(schedule, v) for v in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    ports = sorted({x for st in finals for (x, _c) in st.amplitudes})
    elements = []
    for x in ports:
        k = np.array(
            [[finals[j].amplitude(x, c) for j in range(2)] for c in (R, L)],
            dtype=complex,
        )
        elements.append(PovmElement(k.conj().T @ k, f"E{x}", x))
    return PovmSet.build(elements)


def _step_reach(reach, coins):
    """Propagate the reachable (position, coin) set through one walk step."""
    after_coin = set()
    for (x, c) in reach:
        m = coins.get(x)
        if m is None:
            after_coin.add((x, c))
            continue
        for out in (R, L):
            if abs(m[out, c]) > 1e-12:
                after_coin.add((x, out))
    return {(x + 1, R) if c == R else (x - 1, L) for (x, c) in after_coin}


def interferometers(schedule) -> list:
    """Displacer pairs that recombine paths before a mixing coin.

    A coin at step t that superposes both coin components interferes the
    two path histories merged by displacer t-1 after they split at t-2;
    the pair (t-2, t-1) must therefore stay phase stable.  Reachability
    from the x = 0 start decides whether both components can actually be
    populated.
    """
    reach = {(0, R), (0, L)}
    pairs = []
    for t, coins in enumerate(schedule.steps, start=1):
        if t >= 3:
            for x, m in coins.items():
                if _is_mixing(m) and (x, R) in reach and (x, L) in reach:
                    pair = (t - 2, t - 1)
                    if pair not in pairs:
                        pairs.append(pair)
        reach = _step_reach(reach, coins)
    return pairs


def output_ports(schedule) -> list:
    """Positions reachable at the end of the walk from the x = 0 start."""
    reach = {(0, R), (0, L)}
    for coins in schedule.steps:
        reach = _step_reach(reach, coins)
    return sorted({x for (x, _c) in reach})


def run_density(schedule, coin_vector, config=None) -> dict:
    """Final position distribution under the dephasing imperfection model.

    Coherences pick up one factor of the relevant visibility per
    interferometer displacer they traverse, so a closed pair damps the
    recombined-path coherence by V^2.
    """
    if config is None:
        config = IDEAL
    steps = schedule.steps
    t_max = max(1, len(steps))
    n_pos = 2 * t_max + 1
    dim = 2 * n_pos

    def idx(x: int, c: int) -> int:
        return 2 * (x + t_max) + c

    start = WalkState.from_coin_vector(coin_vector)
    vec = np.zeros(dim, dtype=complex)
    for (x, c), a in start.amplitudes.items():
        vec[idx(x, c)] = a
    rho = np.outer(vec, vec.conj())

    damping = {}
    for pair in interferometers(schedule):
        v = config.visibilities.get(pair, 1.0)
        for member in pair:
            damping[member] = damping.get(member, 1.0) * v

    # cyclic shift permutation; support never reaches the wrap-around edge
    dest = np.arange(dim)
    for x in range(-t_max, t_max + 1):
        dest[idx(x, R)] = idx(x + 1 if x < t_max else -t_max, R)
        dest[idx(x, L)] = idx(x - 1 if x > -t_max else t_max, L)
    inv = np.empty(dim, dtype=int)
    inv[dest] = np.arange(dim)

    for s, coins in enumerate(steps, start=1):
        if coins:
            u = np.eye(dim, dtype=complex)
            for x, m in coins.items():
                i, j = idx(x, R), idx(x, L)
                u[i, i], u[i, j] = m[0, 0], m[0, 1]
                u[j, i], u[j, j] = m[1, 0], m[1, 1]
            rho = u @ rho @ u.conj().T
        rho = rho[np.ix_(inv, inv)]
        v = damping.get(s)
        if v is not None and v != 1.0:
            diag = np.diag(np.diag(rho))
            rho = diag + v * (rho - diag)

    out = {}
    for x in range(-t_max, t_max + 1):
        if (x - len(steps)) % 2 != 0:
            continue
        p = rho[idx(x, R), idx(x, R)].real + rho[idx(x, L), idx(x, L)].real
        out[x] = max(0.0, float(p))
    return out


def so3(u: np.ndarray) -> np.ndarray:
    """Bloch-sphere rotation of a 2x2 unitary, one trace per entry."""
    r = np.empty((3, 3))
    udag = u.conj().T
    for j in range(3):
        sj_u = _SIGMA[j] @ u
        for k in range(3):
            r[j, k] = 0.5 * np.trace(sj_u @ _SIGMA[k] @ udag).real
    return r


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
