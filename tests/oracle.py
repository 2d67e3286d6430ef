"""Reference walk engines kept as a test oracle.

These are the engines the package used before the array propagator in
``walkpovm.walk`` and the closed-form plate lowering in
``walkpovm.optics`` replaced them, kept as they were:

* the dict engine ``start_state``/``apply_coin``/``translate``/``run``
  and the two-run ``extract_povm`` built on it, the only copy of that
  engine: the package walks with its array propagator alone;
* the set-based reachability ``_step_reach`` behind ``output_ports`` and
  ``interferometers``, with the ``_is_mixing`` test they apply;
* the dense ``run_density``, which builds the full dim x dim step
  unitary and permutes the density matrix with ``np.ix_``;
* the eager frame engine ``walk_density``/``run_density_eager``, which
  multiplies the whole light-cone block of rho by V at every damped
  step, where ``experiment._walk_density`` rescales only the diagonal
  of rho = scale * A;
* the per-angle ``usd_sweep``, which builds, checks and walks one
  schedule per angle and draws its counts through ``sample_counts``,
  where ``experiment.usd_sweep`` walks every angle in one batch;
* ``so3``, the Bloch rotation of a coin as nine separate traces, which
  ``optics._so3`` now writes out entry by entry for a stack of coins;
* the search ``decompose``, which tries identity, HWP, QWP, both pair
  orders and two outer-QWP angles and verifies each try;
* the scalar closed-form chain ``_candidates``/``_pair``/``_lower``,
  which builds one candidate per plate count for one coin and verifies
  each in turn, where ``optics._lower`` now solves and verifies a whole
  stack of coins one candidate class at a time;
* the numpy peel ``peel``/``_completion``, which does each peel's 2-vector
  arithmetic with numpy calls, where ``povm.synthesize`` now does it on
  Python scalars;
* the per-port ``extract_povm_by_element``, which checks one
  ``PovmElement`` per port and sums the effects in Python, where
  ``povm.extract_povm`` symmetrises the whole stack of effects at once.

``tests/test_propagator.py``, ``tests/test_optics.py`` and
``tests/test_experiment.py`` hold the package to these on random
schedules, coins and sweeps.  They are slow by design
(``run_density`` is O(T dim^3), ``walk_density`` O(T^3)) and are not
part of the package.
"""

import json
import math

import numpy as np

from walkpovm.experiment import (
    SweepPoint,
    _check_draw,
    _config,
    apply_efficiencies,
    run_density as package_run_density,
    sample_counts,
)
from walkpovm.optics import WavePlate, _phase_aligned_dist, _so3, plates_matrix, qwp
from walkpovm.povm import (
    PovmElement,
    PovmSet,
    _effects,
    _usd_angle,
    build_circuit,
    usd_scenario,
    usd_state,
    usd_success_probability,
)
from walkpovm.tolerances import DEFAULT
from walkpovm.walk import (
    IDENTITY_COIN,
    L,
    R,
    ValidationError,
    WalkState,
    _coin_rows,
    coin_column,
    complex_to_json,
    validate_coin,
)

# tolerance for the SO(3) pattern tests inside decompose; final results
# are always re-verified against the unitary at DEFAULT.plate_product
_SO3_TOL = 1e-8

_SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)


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


def start_state(coin_vector) -> WalkState:
    """The walker at x = 0 with the given coin state, nonzero entries only."""
    v = coin_column(coin_vector)
    return WalkState({(0, c): complex(v[c]) for c in (R, L) if v[c] != 0})


def run(schedule, coin_vector) -> WalkState:
    """Run the walk from x = 0: coin-then-shift for every schedule step."""
    state = start_state(coin_vector)
    for coins in schedule.steps:
        state = translate(apply_coin(state, coins))
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


def extract_povm_by_element(schedule) -> tuple:
    """(elements, residual, JSON text) of the per-port extraction ``povm.extract_povm`` did.

    It checked one ``PovmElement`` per port a basis state reaches, summed
    their matrices in Python for the completeness residual and wrote the
    elements to JSON one by one.
    """
    t = schedule.n_steps
    effects = _effects(t, schedule.steps)
    elements = [PovmElement(effects[k], f"E{2 * k - t}", 2 * k - t)
                for k in np.flatnonzero(effects.any(axis=(1, 2))).tolist()]
    total = sum((e.matrix for e in elements), np.zeros((2, 2), dtype=complex))
    residual = float(np.linalg.norm(total - np.eye(2), ord=2))
    text = json.dumps({
        "elements": [{"label": e.label, "port": e.port, "matrix": complex_to_json(e.matrix)}
                     for e in elements],
        "residual": residual,
    }, sort_keys=True)
    return elements, residual, text


def _is_mixing(m: np.ndarray) -> bool:
    """True when some output of the coin superposes both inputs."""
    return bool(
        abs(m[0, 0] * m[0, 1]) > DEFAULT.norm or abs(m[1, 0] * m[1, 1]) > DEFAULT.norm
    )


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


def _damping(schedule, config) -> dict:
    """Step -> V, the product of the visibilities of the interferometers it closes or opens."""
    damping = {}
    for pair in interferometers(schedule):
        v = config.visibilities.get(pair, 1.0)
        for member in pair:
            damping[member] = damping.get(member, 1.0) * v
    return damping


def run_density(schedule, coin_vector, config=None) -> dict:
    """Final position distribution under the dephasing imperfection model.

    Coherences pick up one factor of the relevant visibility per
    interferometer displacer they traverse, so a closed pair damps the
    recombined-path coherence by V^2.
    """
    config = _config(config)
    steps = schedule.steps
    t_max = max(1, len(steps))
    n_pos = 2 * t_max + 1
    dim = 2 * n_pos

    def idx(x: int, c: int) -> int:
        return 2 * (x + t_max) + c

    start = start_state(coin_vector)
    vec = np.zeros(dim, dtype=complex)
    for (x, c), a in start.amplitudes.items():
        vec[idx(x, c)] = a
    rho = np.outer(vec, vec.conj())

    damping = _damping(schedule, config)

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


def walk_density(t: int, steps, psi: np.ndarray, damping: dict) -> np.ndarray:
    """Port probabilities of a dephasing walk, damping the whole light-cone block.

    The frame and the result are those of ``experiment._walk_density``; a
    damped step keeps the block's diagonal and multiplies the whole block
    by V.  ``damping`` maps a step to a float V, or to a (B, 1, 1) array
    for a batch of B walks.
    """
    d = 2 * t + 2
    rho = np.zeros(psi.shape[:-1] + (d, d), dtype=complex)
    flat = rho.reshape(psi.shape[:-1] + (d * d,))
    rho[..., t:t + 2, t:t + 2] = psi[..., :, None] * psi[..., None, :].conj()
    for s, coins in enumerate(steps, start=1):
        lo, hi = t + 1 - s, t + s + 1
        cone = slice(lo, hi)
        for x, m in coins.items():
            rows = _coin_rows(t, s, x)
            if rows is not None:
                rho[..., rows, cone] = m @ rho[..., rows, cone]
                rho[..., cone, rows] = rho[..., cone, rows] @ m.conj().swapaxes(-1, -2)
        if s in damping:
            diag = flat[..., lo * (d + 1):hi * (d + 1):d + 1]
            kept = diag.copy()
            rho[..., cone, cone] *= damping[s]
            diag[...] = kept
    p = flat[..., ::d + 1].real
    q = p[..., :t + 1] + p[..., t + 1:]
    return np.where(q > 0.0, q, 0.0)


def run_density_eager(schedule, coin_vector, config=None) -> dict:
    """``run_density`` on the eager frame engine ``walk_density``."""
    config = _config(config)
    t = schedule.n_steps
    damping = {s: v for s, v in _damping(schedule, config).items() if v != 1.0}
    p = walk_density(t, schedule.steps, coin_column(coin_vector), damping)
    return {2 * k - t: q for k, q in enumerate(p.tolist())}


def usd_sweep(theta_values, config=None, total: int = 40000, seed: int = 0) -> list:
    """Conclusive-outcome probability across state separations, one angle at a time."""
    _check_draw(total, seed)
    config = _config(config)
    thetas = list(theta_values)
    mags = [_usd_angle(abs(th)) for th in thetas]
    children = np.random.SeedSequence(seed).spawn(len(thetas))
    rows = []
    for th, mag, child in zip(thetas, mags, children):
        schedule = build_circuit(usd_scenario(mag))
        state = usd_state(+1 if th > 0 else -1, mag)
        success_port = 2 if th > 0 else 0
        dist = package_run_density(schedule, state, config)
        dist = apply_efficiencies(dist, config.port_efficiencies)
        table = sample_counts(dist, total, int(child.generate_state(1)[0]))
        p_hat = table.probabilities.get(success_port, 0.0)
        err = table.std_errors.get(success_port, 0.0)
        rows.append(SweepPoint(th, usd_success_probability(mag), p_hat, err))
    return rows


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


def _hwp_angle(h: np.ndarray) -> float:
    """Angle of the HWP whose Bloch rotation is h: H = 2 n n^T - I, n = (sin 2b, 0, cos 2b)."""
    return math.degrees(math.atan2(h[0, 2], h[2, 2])) / 4.0 % 90.0 % 90.0


def _pair(r: np.ndarray) -> list:
    """HWP * QWP for a Bloch rotation r with r[1, 1] = 0; the QWP undoes r's action on y."""
    gamma = math.degrees(math.atan2(r[1, 2], -r[1, 0])) / 2.0
    return [WavePlate("HWP", _hwp_angle(r @ so3(qwp(gamma)).T)), WavePlate("QWP", gamma)]


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
    yield [WavePlate("QWP", alpha)] + _pair(so3(qwp(alpha)).T @ r)


def _lower(u: np.ndarray) -> list:
    """Plates for a coin already checked to be unitary: the first verified candidate."""
    for plates in _candidates(so3(u)):
        if _phase_aligned_dist(plates_matrix(plates), u) <= DEFAULT.plate_product:
            return plates
    raise ValidationError("no wave-plate decomposition found (input not unitary?)")


def _completion(row: np.ndarray) -> np.ndarray:
    """Unit row orthogonal to the unit ``row`` whose first nonzero entry is real positive."""
    comp = np.array([-np.conj(row[1]), np.conj(row[0])])
    entry = comp[0] if abs(comp[0]) > DEFAULT.norm else comp[1]
    return comp * (np.conj(entry) / abs(entry))


def peel(rows: np.ndarray) -> list:
    """(c1, c2) of each peel-off iteration for the rows f_i of an n x 2 isometry.

    Iteration k peels row g_k with c1 = [r; low] and rewrites the rows after
    it in the frame (low, r), the component along r scaled to unit norm.
    """
    g = np.array(rows, dtype=complex)
    coins = []
    for k in range(len(g) - 1):
        a = float(np.linalg.norm(g[k]))
        r = g[k] / a if a > DEFAULT.norm else np.array([1.0 + 0j, 0.0 + 0j])
        low = _completion(r)
        rest = g[k + 1:] @ np.array([low, r]).conj().T
        c = float(np.linalg.norm(rest[:, 1]))
        h = math.hypot(a, c) or 1.0
        a, b = a / h, c / h
        if b <= DEFAULT.norm:
            c2 = IDENTITY_COIN
            rest[:, 1] = 0.0
        else:
            c2 = np.array([[a, b], [b, -a]], dtype=complex)
            rest[:, 1] /= c
        coins.append((np.vstack([r, low]), c2))
        g[k + 1:] = rest
    return coins
