"""Discrete-time quantum walk on the integer line with site-dependent coins.

The walker state lives on basis kets ``|x, c>`` with integer position ``x``
and a two-level coin ``c``.  Coin index 0 ("R") moves right under the
conditional shift and doubles as horizontal polarisation; index 1 ("L")
moves left / vertical.  All operations are pure functions on immutable
values, so states can be shared freely between threads.

``_coin_rows`` states the one frame that amplitudes, Kraus maps,
reachability and density matrices all walk in, where the shift moves no
data.  The walkers ``_propagate`` and ``experiment._walk_density`` take
``(t, steps, ...)``, a step count and position -> coin maps, and ``_reach``
takes ``(t, coins, slots)``, a coin stack and each coin's (position, step).
None of them checks its coins, so a caller may walk coins it made unitary
itself without building a schedule.  Each input rule is written once, here:
``_integer`` (an int or numpy integer, never a bool, in a range), ``_real``
(a finite real in a range), ``_numeral`` (a number written as text),
``_complex`` (an array of numbers, never a bool or str) and ``_unitary``, the
one unitarity test, applied to a stack of coins; ``validate_coin`` applies it
to one.  A ``CoinSchedule`` copies its coins into one read-only stack, checks
its positions and that stack once, when built, and finds its ports and
interferometers once, on first use, by ``_reach``, the one reachability pass.
The package's own coins are read-only too.  Complex values cross JSON as
``{"re", "im"}`` cells only, and a file reader takes no object that gives one
key twice (``_loads``).
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

_COMPLEX = np.dtype(complex)


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


IDENTITY_COIN = _frozen(np.eye(2, dtype=complex))
NOT_COIN = _frozen(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


class ValidationError(ValueError):
    """An input violated a documented precondition."""


class _RuleError(ValidationError):
    """A value broke an input rule below; in a file, ``decoding`` calls the file malformed."""


def _integer(value, what: str, low: float = -math.inf, high: float = math.inf) -> int:
    """``value`` as an int: an int or numpy integer, never a bool, in [low, high]."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value <= high):
        return int(value)
    within = ("" if low == -math.inf else f" >= {low}" if high == math.inf
              else f" in [{low}, {high}]")
    raise _RuleError(f"{what} must be an integer{within}, not {value!r}")


def _real(value, what: str, low=-math.inf, high=math.inf, *, open_low=False) -> float:
    """``value`` as a float: a finite int, float or numpy real, never a bool or str,
    in [low, high], or in (low, high] with ``open_low``."""
    if isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond every float is not finite either
            v = math.inf
        if math.isfinite(v) and (low < v if open_low else low <= v) and v <= high:
            return v
    within = "" if (low, high) == (-math.inf, math.inf) else (
        f" in {'(' if open_low else '['}{low:g}, {high:g}{')' if high == math.inf else ']'}")
    raise _RuleError(f"{what} must be a finite number{within}, not {value!r}")


def _numeral(text: str, what: str, kind=int):
    """A number written as text, read by ``kind`` (int, float or complex): ASCII only, no ``_``
    and no surrounding space.  An int is an optional ``-`` and digits; leading zeros are legal."""
    digits = text[1:] if text.startswith("-") else text
    if (text.isascii() and "_" not in text and text == text.strip()
            and (kind is not int or digits.isdigit())):
        try:
            return kind(text)
        except ValueError:  # float("x"), or more digits than int() reads
            pass
    noun = "an integer" if kind is int else "a number"
    raise _RuleError(f"{what} must be {noun} written in plain ASCII, not {text!r}")


def _complex(value, what, *args) -> np.ndarray:
    """``value`` as a complex array; a bool, str or other non-number entry, or a ragged list,
    fails.  A complex ndarray, as every coin on the design path is, is returned as it is.

    ``what`` names the value, or is a function of ``args`` that names it on failure only.
    """
    if type(value) is np.ndarray and value.dtype is _COMPLEX:
        return value  # what np.asarray(value, dtype=complex) returns
    try:
        # numpy reads a bool or numeric str as a number, also inside a list of numbers
        if any(isinstance(v, (bool, np.bool_, str, bytes)) for v in np.asarray(value, object).flat):
            raise TypeError("a bool or str is not a number")
        return np.asarray(value, dtype=complex)
    except (TypeError, ValueError) as exc:
        name = what(*args) if args else what
        raise _RuleError(f"{name} must be an array of numbers, not {value!r}") from exc


def _coin_name(position, step) -> str:
    """"coin operation", with the position and step where they are given."""
    return ("coin operation" + ("" if position is None else f" at position {position}")
            + ("" if step is None else f" in step {step}"))


def _unitary(coins: np.ndarray) -> np.ndarray:
    """Which coins of an (N, 2, 2) complex stack are unitary: the one unitarity rule.

    Every real and imaginary part must lie in [-2, 2], as in any unitary; a NaN
    or inf fails this, and the squares below cannot overflow.  Then
    |a|^2 + |c|^2 - 1, |b|^2 + |d|^2 - 1 and |conj(a) b + conj(c) d| must each
    be within ``DEFAULT.unitarity``; a fold such as max() would skip a NaN.
    """
    small = ((np.abs(coins.real) <= 2.0) & (np.abs(coins.imag) <= 2.0)).all(axis=(1, 2))
    if not small.all():
        coins = np.where(small[:, None, None], coins, 0.0)
    squares = coins.real * coins.real + coins.imag * coins.imag
    cols = squares[:, 0] + squares[:, 1]
    cross = coins[:, 0, 0].conj() * coins[:, 0, 1] + coins[:, 1, 0].conj() * coins[:, 1, 1]
    tol = DEFAULT.unitarity
    return small & (np.abs(cols - 1.0) <= tol).all(axis=1) & (np.abs(cross) <= tol)


def validate_coin(matrix, *, position=None, step=None) -> np.ndarray:
    """Return the coin as a complex array, rejecting non-unitary input.

    The coin must be 2x2 and pass ``_unitary``, the rule a ``CoinSchedule``
    applies to its whole stack.  The error message names the offending
    position (and step, if given).
    """
    m = _complex(matrix, _coin_name, position, step)
    if m.shape == (2, 2) and _unitary(m[None])[0]:
        return m
    raise ValidationError(f"{_coin_name(position, step)} is not a 2x2 unitary")


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a complex vector, by ``math.hypot`` over its parts.

    ``hypot`` scales by the largest part, so a huge finite entry cannot
    overflow the sum of squares, and it looks at every part, so any
    infinite or NaN entry makes the norm inf or NaN, which callers reject.
    """
    return math.hypot(*v.real.tolist(), *v.imag.tolist())


def coin_column(vector) -> np.ndarray:
    """The input coin state as a complex 2-vector, rejecting any other input."""
    v = _complex(vector, "input coin state").reshape(-1)
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
    if type(cells["re"]) not in (int, float) or type(cells["im"]) not in (int, float):
        raise _RuleError(f"a complex cell's parts must be numbers, not {cells!r}")
    return complex(cells["re"], cells["im"])


def _unique(items, what: str) -> dict:
    """The (key, value) ``items`` as a dict; a key given twice is an error naming it."""
    out = {}
    for key, value in items:
        if key in out:
            raise _RuleError(f"{what} {key!r} is given twice")
        out[key] = value
    return out


def _loads(text: str):
    """``json.loads`` in which an object that gives one key twice is an error naming the key."""
    return json.loads(text, object_pairs_hook=lambda pairs: _unique(pairs, "key"))


@contextmanager
def decoding(what: str):
    """Report any failure to decode ``what`` from JSON as a ValidationError."""
    try:
        yield
    except _RuleError as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc
    except ValidationError:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, RecursionError,
            OverflowError) as exc:
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
    constructor copies the coins into ``coins``, one read-only (N, 2, 2)
    stack in slot order (step, then position), with ``slots`` beside it, the
    (position, step) of each, and checks the whole stack for unitarity at
    once.  The maps in ``steps`` keep the order they were given in, and their
    coins are read-only views of the stack.  ``_structure`` finds the ports
    and interferometers on first use and keeps them.
    """

    steps: tuple

    def __init__(self, steps):
        coins, given = {}, []  # (position, step) -> coin, and each step's positions as given
        for s, step in enumerate(steps, start=1):
            xs = []
            for x, m in step.items():
                if type(x) is not int:  # a plain int passes _integer as it is
                    x = _integer(x, f"coin position in step {s}")
                m = _complex(m, _coin_name, x, s)
                if m.shape != (2, 2):
                    raise ValidationError(f"{_coin_name(x, s)} is not a 2x2 unitary")
                coins[x, s] = m
                xs.append(x)
            given.append(xs)
        slots = tuple((x, s) for s, xs in enumerate(given, start=1) for x in sorted(xs))
        stack = np.array([coins[slot] for slot in slots], dtype=complex).reshape(-1, 2, 2)
        bad = ~_unitary(stack)
        if bad.any():
            raise ValidationError(f"{_coin_name(*slots[bad.argmax()])} is not a 2x2 unitary")
        views = dict(zip(slots, _frozen(stack)))
        self.__dict__.update(
            steps=tuple({x: views[x, s] for x in xs} for s, xs in enumerate(given, start=1)),
            coins=stack, slots=slots)

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @cached_property
    def _structure(self) -> tuple:
        """``_reach`` of the schedule's coin stack, found on first use and kept."""
        return _reach(self.n_steps, self.coins, self.slots)

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
                _unique(((e["position"], complex_from_json(e["matrix"])) for e in raw["coins"]),
                        f"step {s}: position")
                for s, raw in enumerate(_loads(text)["steps"], start=1)
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


def _reach(t: int, coins: np.ndarray, slots) -> tuple:
    """(ports any walk reaches, {interferometer: the walks it mixes in}) from x = 0.

    ``coins`` is an (N, 2, 2) stack, or (N, B, 2, 2) for B walks of one layout,
    and ``slots`` gives each coin's (position, step), in step order.  One pass
    over the stack finds each coin's entries above ``DEFAULT.norm`` and whether
    it mixes, that is, whether some output superposes both inputs.  Each row
    of the ``_coin_rows`` frame then has a flag, a bool or (B,) bool array,
    made from those by ORs of ANDs, which cannot cancel: it is set exactly
    where some path reaches the row.
    """
    tol = DEFAULT.norm
    big = np.abs(coins) > tol
    flags = np.moveaxis(big.reshape(big.shape[:-2] + (4,)), -1, 1)  # (N, 4[, B])
    mixing = (np.abs(coins[..., 0] * coins[..., 1]) > tol).any(axis=-1)
    if coins.ndim == 3:  # one walk: Python bools
        flags, mixing = flags.tolist(), mixing.tolist()
    lit = [False] * (2 * t + 2)
    lit[t] = lit[t + 1] = True
    mixes = {}
    for (x, s), (a, b, c, d), mix in zip(slots, flags, mixing):
        rows = _coin_rows(t, s, x)
        if rows is not None:
            i, j = rows.start, rows.start + s
            li, lj = lit[i], lit[j]
            if mix is not False:
                mixes[s] = mixes.get(s, False) | (li & lj & mix)
            lit[i], lit[j] = (a & li) | (b & lj), (c & li) | (d & lj)
    pairs = {(s - 2, s - 1): mix for s, mix in mixes.items() if s >= 3 and _some(mix)}
    ports = tuple(2 * k - t for k in range(t + 1) if _some(lit[k] | lit[t + 1 + k]))
    return ports, pairs


def _some(flag) -> bool:
    """Whether a reach flag, a bool or a (B,) bool array, holds for some walk."""
    return flag is True or (flag is not False and flag.any())


def _propagate(t: int, steps, columns: np.ndarray) -> np.ndarray:
    """Final amplitudes of the t-step walk from x = 0 for each input coin column.

    Row k of the (t + 1, coin, batch) result holds port 2k - t.
    """
    a = np.zeros((2 * t + 2, columns.shape[1]), dtype=complex)
    a[t:t + 2] = columns
    for s, coins in enumerate(steps, start=1):
        for x, m in coins.items():
            rows = _coin_rows(t, s, x)
            if rows is not None:
                a[rows] = m @ a[rows]
    return a.reshape(2, t + 1, -1).swapaxes(0, 1)


def run(schedule: CoinSchedule, coin_vector) -> WalkState:
    """Run the walk from x = 0: coin-then-shift for every schedule step."""
    t = schedule.n_steps
    final = _propagate(t, schedule.steps, coin_column(coin_vector)[:, None])[:, :, 0]
    return WalkState({(2 * int(k) - t, int(c)): complex(final[k, c])
                      for k, c in zip(*np.nonzero(final))})


def position_distribution(state: WalkState) -> dict:
    """Marginalise the coin: probability at x is the summed |amplitude|^2."""
    dist = {}
    for (x, _c), a in state.amplitudes.items():
        dist[x] = dist.get(x, 0.0) + abs(a) ** 2
    return dict(sorted(dist.items()))
