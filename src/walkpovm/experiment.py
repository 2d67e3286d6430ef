"""Counting statistics and optical imperfections for walk measurements.

One density engine, ``_walk_density``, evolves the density matrix over
(position, coin) and models finite interference contrast: at every
displacer belonging to an interferometer with visibility V, off-diagonal
coherences are multiplied by V.  It keeps rho in the frame of
``walk._coin_rows``, which moves with the beam displacer, so the
conditional shift changes no data, and a coin rewrites only its two rows
and columns.  It dephases lazily: rho is scale * A, and a damped step
divides A's light-cone diagonal by V and multiplies scale by V, O(s)
work where damping the block costs O(s^2).  Only where scale would fall
below a fixed floor (V = 0, or many small V) does a step damp the block
and fold scale into A.  With all visibilities at 1 it reproduces the
ideal pure-state probabilities exactly.  It has a leading batch axis:
``run_density`` calls it for one walk, and ``usd_sweep`` for all of a
sweep's angles at once, stacking the one coin in which their circuits
differ; ``walk._reach`` over those coins, as one (N, B, 2, 2) stack in which
the shared coins are broadcast, gives each angle's interferometers.

``sample_counts`` adds multinomial shot noise with a seeded, portable
generator, ``default_rng(seed)``, and ``apply_efficiencies`` models per-port
detector imbalance; both check and reweight through array functions over a
trailing port axis, which the sweep applies to all its angles at once.  The
sweep draws angle i from ``default_rng`` seeded with numpy's SeedSequence
child i of its seed, as before; ``_sweep_streams`` runs that same published
hash (NEP 19) for all angles in one vectorised pass, so an angle's draws
depend only on (seed, i).
Counts, seeds and ports pass ``walk._integer``, visibilities and efficiencies
``walk._real``, sweep angles ``povm._usd_angle``, coins the ``walk.CoinSchedule`` they sit in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .povm import _layout, _usd_angle, _usd_columns, _usd_peel, _usd_success, usd_scenario
from .tolerances import DEFAULT
from .walk import (CoinSchedule, ValidationError, _coin_rows, _integer, _loads, _numeral, _reach,
                   _real, _unique, coin_column, decoding)


@dataclass(frozen=True)
class ImperfectionConfig:
    """Optical non-idealities of the apparatus.

    ``visibilities`` maps an interferometer, its (int, int) pair of displacer
    steps, each >= 1, to the interference contrast in [0, 1]; pairs absent
    from the map are perfect, and a pair that is not an interferometer of the
    schedule being run is ignored.  ``port_efficiencies`` maps integer
    detection ports to relative detector efficiencies in (0, 1]; their spread
    must stay inside ``imbalance_budget``, a finite number >= 0.  Both maps
    are kept checked, behind read-only views.  ``from_json`` rejects any key it
    does not know except the ``"seed"`` older files carry.
    """

    visibilities: dict = field(default_factory=dict)
    port_efficiencies: dict = field(default_factory=dict)
    imbalance_budget: float = 0.05

    def __post_init__(self):
        vis = {}
        for pair, v in self.visibilities.items():
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise ValidationError(f"visibility key {pair!r} must be an (int, int) displacer pair")
            vis[tuple(_integer(a, f"visibility key {pair!r} entry", 1) for a in pair)] = _real(
                v, f"visibility for {pair}", 0.0, 1.0)
        eff = {_integer(port, "efficiency port"):
               _real(eta, f"efficiency for port {port}", 0.0, 1.0, open_low=True)
               for port, eta in self.port_efficiencies.items()}
        # keep the checked values, as ints and floats, so that to_json writes what was checked
        object.__setattr__(self, "visibilities", MappingProxyType(vis))
        object.__setattr__(self, "port_efficiencies", MappingProxyType(eff))
        object.__setattr__(self, "imbalance_budget",
                           _real(self.imbalance_budget, "imbalance_budget", 0.0))
        if eff:
            values = list(eff.values())
            spread = (max(values) - min(values)) / max(values)
            if spread > self.imbalance_budget + DEFAULT.norm:
                raise ValidationError(
                    f"efficiency imbalance {spread:.4f} exceeds budget "
                    f"{self.imbalance_budget:.4f}"
                )

    def __reduce__(self):
        # a read-only view does not pickle; the maps it shows do
        return type(self), (dict(self.visibilities), dict(self.port_efficiencies),
                            self.imbalance_budget)

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
            data = _loads(text)
            unknown = data.keys() - {"visibilities", "port_efficiencies", "imbalance_budget", "seed"}
            if unknown:
                raise ValidationError(f"malformed imperfection config: unknown key {min(unknown)!r}")
            vis = []
            for key, v in data.get("visibilities", {}).items():
                a, b = key.split("-")
                vis.append(((_numeral(a, f"visibility key {key!r} entry"),
                             _numeral(b, f"visibility key {key!r} entry")), v))
            # "1-2" and "01-2" name one pair, "0" and "00" one port
            eff = ((_numeral(p, "efficiency port"), e)
                   for p, e in data.get("port_efficiencies", {}).items())
            return cls(_unique(vis, "visibility pair"), _unique(eff, "efficiency port"),
                       data.get("imbalance_budget", 0.05))


IDEAL = ImperfectionConfig()


@dataclass(frozen=True)
class CountTable:
    """Per-port photon counts with normalised probabilities and standard errors.

    ``from_counts`` takes integer counts >= 0 with a positive total.
    """

    counts: dict
    total: int
    probabilities: dict
    std_errors: dict

    @classmethod
    def from_counts(cls, counts: dict) -> "CountTable":
        counts = {p: _integer(c, f"count for port {p}", 0) for p, c in counts.items()}
        total = sum(counts.values())
        if total <= 0:
            raise ValidationError("count table needs a positive total")
        probs = {p: c / total for p, c in counts.items()}
        errs = _std_error(np.array(list(probs.values())), total)
        return cls(counts, total, probs, dict(zip(probs, errs.tolist())))

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


# the smallest scale a lazy walk keeps before it folds: scale stays a normal
# number, and A's entries stay below about 1/_FOLD_FLOOR (7e153), far from overflow
_FOLD_FLOOR = math.sqrt(np.finfo(float).tiny)


def _damping(interferometers: dict, visibilities: dict) -> dict:
    """Step -> V for the displacers of ``walk._reach``'s interferometers, only where V != 1.

    Each interferometer damps coherences by its V at both of its displacers.  A
    (B,) walks mask makes V (B, 1), and 1 in the walks the pair does not mix.
    """
    damping = {}
    for pair, walks in interferometers.items():
        v = visibilities.get(pair, 1.0)
        if v != 1.0:  # V <= 1, so a product of factors below 1 stays below 1
            if walks is not True:
                v = np.where(walks, v, 1.0)[:, None]
            for member in pair:
                damping[member] = damping.get(member, 1.0) * v
    return damping


def _walk_density(t: int, steps, psi: np.ndarray, damping: dict) -> np.ndarray:
    """Port probabilities of a dephasing walk, batched over the leading axes of ``psi``.

    ``psi`` is (..., 2) and each coin (2, 2), or (B, 2, 2) for a batch of B
    walks that share the schedule's layout.  ``damping`` maps a step to its
    V, a float or a (B, 1) array, and holds only steps with V != 1.
    Returns (..., t + 1): port 2k - t at k, clipped at 0.

    rho is scale * A, with A (..., 2t + 2, 2t + 2) in the frame of
    ``walk._coin_rows``: after s steps (x, R) is index t + (x - s)/2 and
    (x, L) is t + 1 + (x + s)/2, so the shift moves no data.  Before and
    after step s the walker lies in the light-cone block [t + 1 - s, t + s].
    A coin touches its two rows and two columns within that block.  Damping
    by V, which keeps rho's diagonal and multiplies the rest of the block by
    V, divides A's block diagonal by V and multiplies scale by V instead;
    A is zero outside the block, so this is exact and costs O(s), not
    O(s^2).  Port 2k - t is scale * (A[k, k] + A[t + 1 + k, t + 1 + k]).

    scale holds one factor per walk.  A walk whose scale * V would fall
    below ``_FOLD_FLOOR`` (V = 0, or many small V in a row) damps the block
    instead and folds its scale into A, so A stays finite.  Each walk of a
    batch folds exactly when it would alone; while some walks fold, the
    others take their lazy step through factors of exactly 1, so the batch
    gives every walk's singleton result bit for bit.
    """
    d = 2 * t + 2
    rho = np.zeros(psi.shape[:-1] + (d, d), dtype=complex)
    # a float, or (B, 1) once a batch's V has been applied.  fl(scale * V) <= scale
    # for V <= 1, so when the product of all the V stays above the floor, no step
    # can fold and none needs to look
    scale = 1.0
    may_fold = not np.all(math.prod(damping[s] for s in sorted(damping)) >= _FOLD_FLOOR)
    # rho is contiguous, so every (d + 1)-th entry of this view is on its diagonal,
    # and a basic slice of it is a writable view of a block's diagonal
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
            v = damping[s]
            diag = flat[..., lo * (d + 1):hi * (d + 1):d + 1]
            lazy = scale * v
            if may_fold and np.any(fold := lazy < _FOLD_FLOOR):
                # rho = scale * (V A_off + A_diag) on the folding walks; the others
                # see their lazy step with factors of exactly 1 in between
                kept = diag * np.where(fold, scale, 1.0) / np.where(fold, 1.0, v)
                rho[..., cone, cone] *= np.where(fold, lazy, 1.0)[..., None]
                diag[...] = kept
                scale = np.where(fold, 1.0, lazy)
            else:
                diag /= v
                scale = lazy
    p = flat[..., ::d + 1].real
    q = scale * (p[..., :t + 1] + p[..., t + 1:])
    # clip with where: np.maximum would pass a NaN on, and this reads it as 0
    return np.where(q > 0.0, q, 0.0)


def _config(config) -> ImperfectionConfig:
    """``IDEAL`` for None; any other value must be an ``ImperfectionConfig``."""
    if config is None or isinstance(config, ImperfectionConfig):
        return config or IDEAL
    raise ValidationError(f"config must be an ImperfectionConfig or None, not {config!r}")


def run_density(schedule: CoinSchedule, coin_vector, config: ImperfectionConfig = None) -> dict:
    """Final position distribution under the dephasing imperfection model.

    Coherences pick up one factor of the relevant visibility per
    interferometer displacer they traverse, so a closed pair damps the
    recombined-path coherence by V^2.  A visibility for a pair that is not an
    interferometer of the schedule is ignored.  One unbatched call of ``_walk_density``.
    """
    t = schedule.n_steps
    damping = _damping(schedule._structure[1], _config(config).visibilities)
    p = _walk_density(t, schedule.steps, coin_column(coin_vector), damping)
    return {2 * k - t: q for k, q in enumerate(p.tolist())}


def _check_finite(ports, probs: np.ndarray) -> None:
    """NaN fails every comparison, so the callers' range checks would let it through."""
    finite = np.isfinite(probs)
    if not finite.all():
        bad = tuple(np.argwhere(~finite)[0])
        raise ValidationError(f"probability for port {ports[bad[-1]]} is not finite: {probs[bad]}")


def _reweighted(ports, probs: np.ndarray, efficiencies: dict) -> np.ndarray:
    """``apply_efficiencies`` over the trailing port axis of ``probs``."""
    _check_finite(ports, probs)
    etas = {port: _real(eta, f"efficiency for port {port}", 0.0, 1.0, open_low=True)
            for port, eta in efficiencies.items()}
    weighted = probs * np.array([etas.get(p, 1.0) for p in ports], dtype=float)
    total = weighted.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValidationError("all probability removed by efficiencies")
    return weighted / total


def apply_efficiencies(dist: dict, efficiencies: dict) -> dict:
    """Reweight port probabilities by detector efficiencies and renormalise."""
    ports = list(dist)
    weighted = _reweighted(ports, np.array([dist[p] for p in ports], dtype=float), efficiencies)
    return dict(zip(ports, weighted.tolist()))


def _check_draw(total, seed) -> None:
    """A photon count is an integer in [1, 2^63 - 1], the most numpy's draw takes, and a
    seed an integer >= 0."""
    _integer(total, "total count", 1, np.iinfo(np.int64).max)
    _integer(seed, "seed", 0)


def _sampling_weights(ports, probs: np.ndarray) -> np.ndarray:
    """Multinomial weights over the trailing port axis of ``probs``.

    Every entry must be finite and at least ``DEFAULT.psd_floor``, and every
    distribution must sum to 1 within ``DEFAULT.distribution``; the entries
    are clipped at 0 and each distribution renormalised.
    """
    _check_finite(ports, probs)
    if (probs < DEFAULT.psd_floor).any():
        raise ValidationError("negative probabilities cannot be sampled")
    probs = np.clip(probs, 0.0, None)
    sums = probs.sum(axis=-1, keepdims=True)
    off = np.abs(sums - 1.0) > DEFAULT.distribution
    if off.any():
        raise ValidationError(f"distribution sums to {sums[off][0]:.12f}, not 1")
    return probs / sums


def _std_error(q: np.ndarray, total: int) -> np.ndarray:
    """Binomial standard errors of the frequencies q over ``total`` counts."""
    return np.sqrt(q * (1.0 - q) / total)


def sample_counts(dist: dict, total: int, seed: int) -> CountTable:
    """Multinomial draw over ports; identical seeds give identical tables."""
    _check_draw(total, seed)
    ports = sorted(dist)
    probs = _sampling_weights(ports, np.array([dist[p] for p in ports], dtype=float))
    draws = np.random.default_rng(seed).multinomial(total, probs)
    return CountTable.from_counts(dict(zip(ports, draws.tolist())))


# numpy's SeedSequence hash (NEP 19): pool size, word shift and 32-bit multipliers
_POOL, _XSHIFT, _MASK32 = 4, 16, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's ``hashmix`` of ``value`` under ``const``: (hashed value, next const).

    ``value`` is a Python int below 2^32 or a uint32 array; an array wraps mod 2^32 as
    it goes, and the masks do the same to an int.  A numpy scalar would warn on overflow.
    """
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> _XSHIFT, const_next


def _mix(x, y):
    """SeedSequence's ``mix`` of two pool words, each an int or a uint32 array."""
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> _XSHIFT


def _seed_pool(entropy: list) -> list:
    """SeedSequence's ``mix_entropy`` of its assembled entropy words into a fresh pool."""
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for extra in entropy[_POOL:]:
        for dst in range(_POOL):
            word, const = _hashmix(extra, const)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _pool_state(pool: list, n_words: int) -> list:
    """SeedSequence's ``generate_state(n_words)`` as a list of uint32 words."""
    const, words = _INIT_B, []
    for i in range(n_words):
        word, const = _hashmix(pool[i % _POOL], const, _MULT_B)
        words.append(word)
    return words


def _sweep_streams(seed: int, count: int) -> tuple:
    """Child seeds and PCG64 words of ``count`` angles, in one pass over all of them.

    Angle i gets ``s_i = SeedSequence(seed).spawn(count)[i].generate_state(1)[0]``, and
    ``default_rng(s_i)`` seeds its PCG64 with ``SeedSequence(s_i).generate_state(4,
    np.uint64)``.  Both hashes run here as uint32 array operations over the angles: the
    children share the seed's words, zero-padded to the pool, and differ only in their
    last entropy word, the spawn key i (one word, so ``count`` stays below 2^32).
    ``seed`` is an integer >= 0.  Returns (s, words): s (count,) uint32 and words
    (count, 4) uint64.
    """
    seed = int(seed)
    # the seed's little-endian 32-bit words ([0] for 0), zero-padded to the pool, then i
    entropy = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (_POOL - len(entropy)) + [np.arange(count, dtype=np.uint32)]
    s = _pool_state(_seed_pool(entropy), 1)[0]
    # generate_state(4, np.uint64) reads its eight uint32 words as '<u4' pairs, low word first
    words = np.stack(_pool_state(_seed_pool([s]), 2 * 4), axis=-1)
    return s, words.astype("<u4").view("<u8").astype(np.uint64)


_STREAM_WORDS = None  # the seed-sequence class of _sweep_generators, made on its first call


def _sweep_generators(seed: int, count: int):
    """Angle i's generator for i < ``count``, one at a time: ``default_rng`` of numpy's
    SeedSequence child i of ``seed``, from the words of ``_sweep_streams``.

    PCG64 takes a ``numpy.random.bit_generator.ISeedSequence`` as it is.  numpy loads
    ``numpy.random`` on first use, so the subclass is made here and not at import; a
    registered virtual subclass would pass PCG64's check about 1 us slower an angle.
    """
    global _STREAM_WORDS
    if _STREAM_WORDS is None:
        class StreamWords(np.random.bit_generator.ISeedSequence):
            """One angle's PCG64 words, for PCG64's one request of four uint64 words."""

            def __init__(self, words: np.ndarray):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                if n_words != 4 or np.dtype(dtype) != np.uint64:
                    raise ValueError(f"sweep stream holds 4 uint64 words, not {n_words} "
                                     f"{np.dtype(dtype)}")
                return self.words

        _STREAM_WORDS = StreamWords
    return (np.random.Generator(np.random.PCG64(_STREAM_WORDS(words)))
            for words in _sweep_streams(seed, count)[1])


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
    even in theta) and probe the second input state, whose conclusive port
    is x = 0 instead of x = 2.  Magnitudes pass ``povm._usd_angle``; every
    angle it admits gives a unitary peel, and the circuit's other coins are
    fixed unitaries, so the sweep walks ``povm._layout`` with no schedule to
    check them.  All angles walk in one batched ``_walk_density`` call; one
    ``_reach`` of the layout's coins, stacked (N, B, 2, 2) with the coins the
    angles share broadcast, gives each angle's interferometers.  Angle i
    draws from ``default_rng(s_i)``, where s_i is numpy's SeedSequence child i
    of ``seed``; ``_sweep_streams`` derives every angle's PCG64 words in one
    vectorised pass of the same hash, so an angle's draws depend only on
    (seed, i) and match the per-angle chain bit for bit.
    """
    _check_draw(total, seed)
    config = _config(config)
    thetas = [_real(th, "sweep angle") for th in theta_values]
    mags = _usd_angle(np.abs(np.array(thetas, dtype=float)), "sweep angle magnitude")
    if not thetas:
        return []
    # the angles' circuits differ only in the peel coin at position 1 of step 2
    steps = _layout(usd_scenario(mags[0]))
    steps[1][1] = _usd_peel(mags)
    n = len(steps)
    slots = [(x, s) for s, coins in enumerate(steps, start=1) for x in coins]
    stack = np.empty((len(slots),) + mags.shape + (2, 2), dtype=complex)
    for k, (x, s) in enumerate(slots):
        stack[k] = steps[s - 1][x]  # a coin all angles share is broadcast
    damping = _damping(_reach(n, stack, slots)[1], config.visibilities)
    ports = [2 * k - n for k in range(n + 1)]
    probs = _walk_density(n, steps, _usd_columns(np.sign(thetas), mags), damping)
    weights = _sampling_weights(ports, _reweighted(ports, probs, config.port_efficiencies))

    p_hats = []
    for th, rng, w in zip(thetas, _sweep_generators(seed, len(thetas)), weights):
        p_hats.append(int(rng.multinomial(total, w)[ports.index(2 if th > 0 else 0)]) / total)
    errs = _std_error(np.array(p_hats), total).tolist()
    return [SweepPoint(th, p, p_hat, err)
            for th, p, p_hat, err in zip(thetas, _usd_success(mags).tolist(), p_hats, errs)]
