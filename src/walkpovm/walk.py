"""Discrete-time quantum walk on the integer line with site-dependent coins.

The walker state lives on basis kets ``|x, c>`` with integer position ``x``
and a two-level coin ``c``.  Coin index 0 ("R") moves right under the
conditional shift and doubles as horizontal polarisation; index 1 ("L")
moves left / vertical.  All operations are pure functions on immutable
values, so states can be shared freely between threads.

``_coin_rows`` states the one frame that amplitudes, Kraus maps,
reachability and density matrices all walk in, where the shift moves no
data; ``apply_coin`` and ``translate`` act on the sparse dict directly.
A ``CoinSchedule`` checks its coins once, when built, and finds its ports
and interferometers once, on first use.  Complex values cross JSON as
``{"re", "im"}`` cells only.
"""

from __future__ import annotations

import cmath
import json
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

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


def validate_coin(matrix, *, position=None, step=None) -> np.ndarray:
    """Return the coin as a complex array, rejecting non-unitary input.

    Entries must be finite and M^dag M - I within ``DEFAULT.unitarity``.
    The error message names the offending position (and step, if given).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape == (2, 2):
        a, b, c, d = m.ravel().tolist()
        # each entry of M^dag M - I is compared on its own: a fold such as max() skips a NaN
        if (all(map(cmath.isfinite, (a, b, c, d)))
                and abs(abs(a) ** 2 + abs(c) ** 2 - 1.0) <= DEFAULT.unitarity
                and abs(abs(b) ** 2 + abs(d) ** 2 - 1.0) <= DEFAULT.unitarity
                and abs(a.conjugate() * b + c.conjugate() * d) <= DEFAULT.unitarity):
            return m
    where = ""
    if position is not None:
        where += f" at position {position}"
    if step is not None:
        where += f" in step {step}"
    raise ValidationError(f"coin operation{where} is not a 2x2 unitary")


def _is_mixing(m: np.ndarray) -> bool:
    """True when some output of the coin superposes both inputs."""
    return bool(
        abs(m[0, 0] * m[0, 1]) > DEFAULT.norm or abs(m[1, 0] * m[1, 1]) > DEFAULT.norm
    )


def coin_column(vector) -> np.ndarray:
    """The input coin state as a complex 2-vector, rejecting any other input."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape != (2,) or not abs(np.linalg.norm(v) - 1.0) <= DEFAULT.input_norm:
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
    def from_coin_vector(cls, vector, position: int = 0) -> "WalkState":
        v = coin_column(vector)
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

    Positions absent from a step's map receive the identity.  The one
    constructor checks every coin for unitarity; ``_structure`` finds the
    ports and interferometers on first use and keeps them.
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

    @cached_property
    def _structure(self) -> tuple:
        """(ports, interferometers) of the walk from x = 0, as tuples, in one pass.

        A bool vector walks the frame of ``_coin_rows`` with each coin's
        pattern of entries above ``DEFAULT.norm``; an OR of ANDs cannot
        cancel, so a row is True exactly when some path reaches it.
        """
        t = self.n_steps
        lit = np.zeros(2 * t + 2, dtype=bool)
        lit[t:t + 2] = True
        pairs = []
        for s, coins in enumerate(self.steps, start=1):
            mixes = False
            for x, m in coins.items():
                rows = _coin_rows(t, s, x)
                if rows is not None:
                    mixes = mixes or (s >= 3 and lit[rows].all() and _is_mixing(m))
                    lit[rows] = (np.abs(m) > DEFAULT.norm) @ lit[rows]
            if mixes:
                pairs.append((s - 2, s - 1))
        ports = tuple(2 * k - t for k in np.flatnonzero(lit[:t + 1] | lit[t + 1:]).tolist())
        return ports, tuple(pairs)

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


def _coin_rows(t: int, s: int, x: int):
    """Frame rows a coin at x rewrites before step s of t, or None if it meets no amplitude.

    The 2t + 2 rows move with the displacer and keep the walker's parity:
    after s steps (x, R) is row t + (x - s)/2 and (x, L) row t + 1 + (x + s)/2,
    so port 2k - t is rows k and t + 1 + k.
    """
    if abs(x) >= s or (x - s) % 2 == 0:
        return None
    i = t + (x - s + 1) // 2
    return slice(i, i + s + 1, s)


def _propagate(schedule: CoinSchedule, columns: np.ndarray) -> np.ndarray:
    """Final amplitudes of the walk from x = 0 for each input coin column.

    Row k of the (T + 1, coin, batch) result holds port 2k - T.
    """
    t = schedule.n_steps
    a = np.zeros((2 * t + 2, columns.shape[1]), dtype=complex)
    a[t:t + 2] = columns
    for s, coins in enumerate(schedule.steps, start=1):
        for x, m in coins.items():
            rows = _coin_rows(t, s, x)
            if rows is not None:
                a[rows] = m @ a[rows]
    return a.reshape(2, t + 1, -1).swapaxes(0, 1)


def apply_coin(state: WalkState, coins) -> WalkState:
    """Apply position-dependent coin operations; identity where unspecified."""
    checked = {int(x): validate_coin(m, position=x) for x, m in coins.items()}
    amps = {(int(x), int(c)): complex(a) for (x, c), a in state.amplitudes.items()}
    for x, m in checked.items():
        if (x, R) in amps or (x, L) in amps:
            out = m @ np.array([[amps.get((x, R), 0j)], [amps.get((x, L), 0j)]])
            amps[x, R], amps[x, L] = complex(out[R, 0]), complex(out[L, 0])
    return WalkState({k: a for k, a in amps.items() if a != 0})


def translate(state: WalkState) -> WalkState:
    """Conditional shift: (x, R) -> (x+1, R) and (x, L) -> (x-1, L)."""
    return WalkState({(int(x) + (1 if c == R else -1), int(c)): complex(a)
                      for (x, c), a in state.amplitudes.items() if a != 0})


def run(schedule: CoinSchedule, coin_vector) -> WalkState:
    """Run the walk from x = 0: coin-then-shift for every schedule step."""
    t = schedule.n_steps
    final = _propagate(schedule, coin_column(coin_vector)[:, None])[:, :, 0]
    return WalkState({(2 * int(k) - t, int(c)): complex(final[k, c])
                      for k, c in zip(*np.nonzero(final))})


def position_distribution(state: WalkState) -> dict:
    """Marginalise the coin: probability at x is the summed |amplitude|^2."""
    dist = {}
    for (x, _c), a in state.amplitudes.items():
        dist[x] = dist.get(x, 0.0) + abs(a) ** 2
    return dict(sorted(dist.items()))
