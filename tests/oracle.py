"""Reference walk engines kept as a test oracle.

These are the three engines the package used before the array
propagator in ``walkpovm.walk`` replaced them, kept as they were:

* the dict engine ``apply_coin``/``translate``/``run`` and the two-run
  ``extract_povm`` built on it;
* the set-based reachability ``_step_reach`` behind ``output_ports`` and
  ``interferometers``;
* the dense ``run_density``, which builds the full dim x dim step
  unitary and permutes the density matrix with ``np.ix_``.

``tests/test_propagator.py`` holds the package to these on random
schedules.  They are slow by design (``run_density`` is O(T dim^3)) and
are not part of the package.
"""

import numpy as np

from walkpovm.experiment import IDEAL
from walkpovm.optics import _is_mixing
from walkpovm.povm import PovmElement, PovmSet
from walkpovm.walk import L, R, WalkState, validate_coin


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
