"""Discrete-time quantum walk on the integer line with site-dependent coins.

The walker state lives on basis kets ``|x, c>`` with integer position ``x``
and a two-level coin ``c``.  Coin index 0 ("R") moves right under the
conditional shift and doubles as horizontal polarisation; index 1 ("L")
moves left / vertical.  All operations are pure functions on immutable
values, so states can be shared freely between threads.

``_step`` is the one propagator for pure states, Kraus maps and
reachability masks, which all walk through it as (position, coin, batch)
arrays; ``experiment.run_density`` keeps the density matrix in moving
frames instead, where the shift is an index change.  Complex values cross
JSON as ``{"re", "im"}`` cells only.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT

R = 0
L = 1
_COIN_NAME = {R: "R", L: "L"}
_NAME_COIN = {"R": R, "L": L}

IDENTITY_COIN = np.eye(2, dtype=complex)
NOT_COIN = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class ValidationError(ValueError):
    """An input violated a documented precondition."""


def validate_coin(matrix, *, position=None, step=None, tol: float = DEFAULT.unitarity) -> np.ndarray:
    """Return the coin as a complex array, rejecting non-unitary input.

    The error message names the offending position (and step, if given).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2) or not np.max(np.abs(m.conj().T @ m - np.eye(2))) <= tol:
        where = ""
        if position is not None:
            where += f" at position {position}"
        if step is not None:
            where += f" in step {step}"
        raise ValidationError(f"coin operation{where} is not a 2x2 unitary")
    return m


def coin_column(vector, tol: float = DEFAULT.input_norm) -> np.ndarray:
    """The input coin state as a complex 2-vector, rejecting any other input."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape != (2,) or abs(np.linalg.norm(v) - 1.0) > tol:
        raise ValidationError("input coin state must be a normalised 2-vector")
    return v


def complex_to_json(value):
    """A complex scalar as ``{"re", "im"}``; an array as those cells nested in lists."""
    if np.ndim(value):
        return [complex_to_json(v) for v in value]
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def complex_from_json(cells):
    """Inverse of ``complex_to_json``; call it inside ``decoding``."""
    if isinstance(cells, list):
        return np.array([complex_from_json(c) for c in cells], dtype=complex)
    return complex(cells["re"], cells["im"])


@contextmanager
def decoding(what: str):
    """Report any failure to decode ``what`` from JSON as a ValidationError."""
    try:
        yield
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, RecursionError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ValidationError(f"malformed {what}: {detail}") from exc


@dataclass(frozen=True)
class WalkState:
    """Sparse walker wavefunction: map (position, coin) -> complex amplitude."""

    amplitudes: dict

    @classmethod
    def from_coin_vector(cls, vector, position: int = 0,
                         tol: float = DEFAULT.input_norm) -> "WalkState":
        v = coin_column(vector, tol)
        return cls({(position, c): complex(v[c]) for c in (R, L) if v[c] != 0})

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def amplitude(self, position: int, coin: int) -> complex:
        return self.amplitudes.get((position, coin), 0j)

    def pruned(self, threshold: float = 0.0) -> "WalkState":
        """Drop entries with magnitude below ``threshold``.

        Dropping k entries changes the squared norm by less than
        k * threshold**2; the default threshold 0 keeps the state exact.
        """
        if threshold <= 0.0:
            return self
        return WalkState({k: a for k, a in self.amplitudes.items()
                          if abs(a) >= threshold})

    def to_json(self) -> str:
        entries = [
            {"x": x, "coin": _COIN_NAME[c], **complex_to_json(a)}
            for (x, c), a in sorted(self.amplitudes.items())
        ]
        return json.dumps({"entries": entries}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "WalkState":
        with decoding("walk state"):
            return cls({(int(e["x"]), _NAME_COIN[e["coin"]]): complex_from_json(e)
                        for e in json.loads(text)["entries"]})


@dataclass(frozen=True)
class CoinSchedule:
    """Ordered walk steps; each step maps position -> coin operation.

    Positions absent from a step's map receive the identity.  Every coin
    is checked for unitarity on construction.
    """

    steps: tuple

    def __init__(self, steps):
        object.__setattr__(self, "steps", tuple(
            {int(x): validate_coin(m, position=x, step=s) for x, m in coins.items()}
            for s, coins in enumerate(steps, start=1)
        ))

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def to_json(self) -> str:
        out = [
            {"coins": [{"position": x, "matrix": complex_to_json(m)}
                       for x, m in sorted(coins.items())]}
            for coins in self.steps
        ]
        return json.dumps({"steps": out}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CoinSchedule":
        with decoding("schedule file"):
            return cls([
                {int(e["position"]): complex_from_json(e["matrix"]) for e in raw.get("coins", [])}
                for raw in json.loads(text)["steps"]
            ])


def _apply_coins(a: np.ndarray, coins, origin: int) -> None:
    """Apply each coin in place to row x + origin; coins off the array act on nothing."""
    for x, m in coins.items():
        if 0 <= x + origin < len(a):
            a[x + origin] = m @ a[x + origin]


def _step(a: np.ndarray, coins, origin: int) -> None:
    """One walk step in place on a (position, coin, batch) array: coins, then shift.

    The shift moves coin R up a row and coin L down a row, so the end rows
    must be empty, as they are on 2T + 1 rows walked from the middle for T steps.
    """
    _apply_coins(a, coins, origin)
    a[1:, R] = a[:-1, R]
    a[:-1, L] = a[1:, L]


def _propagate(schedule: CoinSchedule, columns: np.ndarray) -> np.ndarray:
    """Final array of the walk from x = 0 for each input coin column.

    It has 2T + 1 rows for T steps, row x + T holding position x.
    """
    t = schedule.n_steps
    a = np.zeros((2 * t + 1, 2, columns.shape[1]), dtype=complex)
    a[t] = columns
    for coins in schedule.steps:
        _step(a, coins, t)
    return a


def _from_lattice(a: np.ndarray, origin: int) -> WalkState:
    rows, coins = np.nonzero(a[:, :, 0])
    return WalkState({(int(i) - origin, int(c)): complex(a[i, c, 0])
                      for i, c in zip(rows, coins)})


def _on_lattice(state: WalkState, act) -> WalkState:
    """Lay the state out with an empty row at each end, ``act(array, origin)``, read back."""
    xs = [x for x, _c in state.amplitudes] or [0]
    origin = 1 - min(xs)
    a = np.zeros((max(xs) + origin + 2, 2, 1), dtype=complex)
    for (x, c), amp in state.amplitudes.items():
        a[x + origin, c, 0] = amp
    act(a, origin)
    return _from_lattice(a, origin)


def apply_coin(state: WalkState, coins) -> WalkState:
    """Apply position-dependent coin operations; identity where unspecified."""
    checked = {int(x): validate_coin(m, position=x) for x, m in coins.items()}
    return _on_lattice(state, lambda a, origin: _apply_coins(a, checked, origin))


def translate(state: WalkState) -> WalkState:
    """Conditional shift: (x, R) -> (x+1, R) and (x, L) -> (x-1, L)."""
    return _on_lattice(state, lambda a, origin: _step(a, {}, origin))


def run(schedule: CoinSchedule, coin_vector) -> WalkState:
    """Run the walk from x = 0: coin-then-shift for every schedule step."""
    a = _propagate(schedule, coin_column(coin_vector)[:, None])
    return _from_lattice(a, schedule.n_steps)


def position_distribution(state: WalkState) -> dict:
    """Marginalise the coin: probability at x is the summed |amplitude|^2."""
    dist = {}
    for (x, _c), a in state.amplitudes.items():
        dist[x] = dist.get(x, 0.0) + abs(a) ** 2
    return dict(sorted(dist.items()))
