"""Discrete-time quantum walk on the integer line with site-dependent coins.

The walker state lives on basis kets ``|x, c>`` with integer position ``x``
and a two-level coin ``c``.  Coin index 0 ("R") moves right under the
conditional shift and doubles as horizontal polarisation; index 1 ("L")
moves left / vertical.  All operations are pure functions on immutable
values, so states can be shared freely between threads.

``_coin_rows`` states the one frame that amplitudes, Kraus maps,
reachability and density matrices all walk in, where the shift moves no
data.  A ``CoinSchedule`` checks its coins once, when built, and finds its
ports and interferometers once, on first use.  Complex values cross JSON
as ``{"re", "im"}`` cells only.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tolerances import DEFAULT

R = 0
L = 1

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
        # each entry of M^dag M - I is compared on its own: a fold such as max() skips a NaN.
        # hypot neither overflows nor drops a NaN or inf, so the column norms reject any
        # non-finite or huge entry before the cross term multiplies two entries
        col0 = math.hypot(a.real, a.imag, c.real, c.imag)
        col1 = math.hypot(b.real, b.imag, d.real, d.imag)
        if (abs(col0 * col0 - 1.0) <= DEFAULT.unitarity
                and abs(col1 * col1 - 1.0) <= DEFAULT.unitarity
                and abs(a.conjugate() * b + c.conjugate() * d) <= DEFAULT.unitarity):
            return m
    where = ""
    if position is not None:
        where += f" at position {position}"
    if step is not None:
        where += f" in step {step}"
    raise ValidationError(f"coin operation{where} is not a 2x2 unitary")


def _is_unitary(ms: np.ndarray) -> np.ndarray:
    """``validate_coin``'s test over a (..., 2, 2) stack: True where a coin passes.

    Every comparison is ``<=``, so a NaN or infinite entry reads False.
    """
    a, b, c, d = ms[..., 0, 0], ms[..., 0, 1], ms[..., 1, 0], ms[..., 1, 1]
    col0 = np.hypot(abs(a), abs(c))
    col1 = np.hypot(abs(b), abs(d))
    return ((abs(col0 * col0 - 1.0) <= DEFAULT.unitarity)
            & (abs(col1 * col1 - 1.0) <= DEFAULT.unitarity)
            & (abs(a.conj() * b + c.conj() * d) <= DEFAULT.unitarity))


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a complex vector, by ``math.hypot`` over its parts.

    ``hypot`` scales by the largest part, so a huge finite entry cannot
    overflow the sum of squares, and it looks at every part, so any
    infinite or NaN entry makes the norm inf or NaN, which callers reject.
    """
    return math.hypot(*v.real.tolist(), *v.imag.tolist())


def coin_column(vector) -> np.ndarray:
    """The input coin state as a complex 2-vector, rejecting any other input."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.shape != (2,) or not abs(_norm(v) - 1.0) <= DEFAULT.input_norm:
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

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def amplitude(self, position: int, coin: int) -> complex:
        return self.amplitudes.get((position, coin), 0j)


@dataclass(frozen=True, eq=False)
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

        A list of bools walks the frame of ``_coin_rows``, a coin's two rows at
        a time, with its pattern of entries above ``DEFAULT.norm``; an OR of
        ANDs cannot cancel, so a row is True exactly when some path reaches it.
        """
        t, tol = self.n_steps, DEFAULT.norm
        lit = [False] * (2 * t + 2)
        lit[t] = lit[t + 1] = True
        pairs = []
        for s, coins in enumerate(self.steps, start=1):
            mixes = False
            for x, m in coins.items():
                rows = _coin_rows(t, s, x)
                if rows is not None:
                    i, j = rows.start, rows.start + s
                    a, b, c, d = m.ravel().tolist()
                    # the coin mixes when some output superposes both inputs
                    mixes = mixes or (s >= 3 and lit[i] and lit[j]
                                      and (abs(a * b) > tol or abs(c * d) > tol))
                    lit[i], lit[j] = ((abs(a) > tol and lit[i]) or (abs(b) > tol and lit[j]),
                                      (abs(c) > tol and lit[i]) or (abs(d) > tol and lit[j]))
            if mixes:
                pairs.append((s - 2, s - 1))
        ports = tuple(2 * k - t for k in range(t + 1) if lit[k] or lit[t + 1 + k])
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
                {int(e["position"]): complex_from_json(e["matrix"]) for e in raw["coins"]}
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
