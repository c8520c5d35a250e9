"""Ergodic base dynamics on the torus, plus Diophantine diagnostics.

Three maps are provided, matching the models the library supports:

* :class:`Shift` -- rotation ``x -> x + omega`` on T^1 (a potential is a
  polynomial in one variable, so a shift has one frequency),
* :class:`SkewShift` -- ``(x, y) -> (x + y, y + omega)`` on T^2, iterated
  through the closed form ``T^n(x,y) = (x + n y + n(n-1)/2 * omega, y + n omega)``,
* :class:`Doubling` -- ``x -> 2x`` on T^1.

The skew-shift also appears in the literature in the conjugate form
``(x, y) -> (x + omega, y + x)``; the two are the same map up to a torus
change of variables, and only the form above (which admits the O(1)
closed-form iterate) is implemented.

Phases are plain numpy arrays with every coordinate reduced to [0, 1);
``phase()`` builds one.  Reduction mod 1 is applied after every
arithmetic step, never lazily.

A caution on :class:`Doubling`: binary floating-point orbits of the
doubling map collapse to 0 after roughly 52 steps (one mantissa bit is
consumed per doubling), so orbit-based sampling for this map should draw
fresh random phases per segment rather than following one long orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

#: the golden-mean frequency (sqrt(5)-1)/2, the canonical Diophantine choice
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0

Phase = np.ndarray


def mod1(t):
    """Reduce a scalar or array to [0, 1)."""
    return t - np.floor(t)


def phase(*coords: float) -> Phase:
    """Build a torus phase from coordinates, reducing each mod 1."""
    return mod1(np.asarray(coords, dtype=float))


def fracmul(n: int, t: float) -> float:
    """n*t mod 1 without rounding loss, for arbitrarily large integer n.

    A float t is the exact rational p/q (q a power of two), so the
    fractional part of n*t is ((n*p) mod q)/q computed in exact integer
    arithmetic.  Plain float multiplication loses absolute accuracy of
    order n*eps, which corrupts phases once n exceeds about 1e10.
    """
    p, q = float(t).as_integer_ratio()
    return ((int(n) * p) % q) / q


def _fracmuls(ns, t: float, triangular: bool = False) -> np.ndarray:
    """``fracmul(n, t)`` for every integer n in ns, as a float array.

    With ``triangular`` the multiplier is n(n-1)/2 instead of n.  As in
    ``fracmul``, t = p/q with q a power of two.  For q <= 2^64 the numerator
    (n p) mod q is the low bits of n p in wrapping uint64 arithmetic, which
    holds for negative n too, and n(n-1)/2 is formed mod 2^64 as its even
    factor halved times the other; so the result equals ``fracmul`` bit for
    bit.  A larger q (t < 2^-12), or an n that int64 cannot hold, takes
    exact Python integers.
    """
    p, q = float(t).as_integer_ratio()
    arr = np.arange(ns.start, ns.stop, ns.step) if isinstance(ns, range) else np.asarray(ns)
    if q > 1 << 64 or arr.dtype != np.int64:
        ints = [int(n) for n in ns]
        if triangular:
            ints = [n * (n - 1) // 2 for n in ints]
        return np.array([((n * p) % q) / q for n in ints], dtype=float)
    words = arr.view(np.uint64)
    if triangular:
        # (n >> 1) * (n - 1) for even n, n * ((n - 1) >> 1) for odd n
        words = (arr >> 1).view(np.uint64) * (arr - 1 + (arr & 1)).view(np.uint64)
    return ((words * np.uint64(p % q)) & np.uint64(q - 1)) / float(q)


def _fracmul_each(ts):
    """A function n -> ``fracmul(n, t)`` for every float t in ts, as an array.

    A float t is M 2^-s with M its mantissa as a 53-bit integer.  For
    0 < s <= 64, which takes in 0 and every |t| in [2^-12, 2^52), the
    numerator (n M) mod 2^s is the low s bits of n M in wrapping uint64
    arithmetic, with n taken mod 2^64 and a negative M as its two's
    complement; so the result equals ``fracmul`` bit for bit.  Every other
    t takes exact Python integers.  M and s are split out once, so each n
    costs a few passes over the phases.
    """
    ts = np.asarray(ts, dtype=float)
    mant, exp = np.frexp(ts)
    bits = 53 - exp
    slow = (bits <= 0) | (bits > 64)
    # a slow t's result is replaced; s = 64 keeps its shifts in range
    bits[slow] = 64
    words = (mant * 2.0 ** 53).astype(np.int64).view(np.uint64)
    drop = (64 - bits).astype(np.uint64)

    def times(n: int) -> np.ndarray:
        low = ((words * np.uint64(n % (1 << 64))) << drop) >> drop
        out = np.ldexp(low.astype(float), -bits)
        if slow.any():
            out[slow] = [fracmul(n, t) for t in ts[slow]]
        return out

    return times


def _as_phase(x, d: int) -> Phase:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (d,):
        raise ValueError(f"phase has shape {arr.shape}, dynamics needs ({d},)")
    return mod1(arr)


@dataclass(frozen=True)
class Shift:
    """Rotation x -> x + omega on T^1.

    ``omega`` is a float or a one-element sequence; more frequencies
    raise ValueError.
    """

    omega: float

    def __init__(self, omega: Union[float, Sequence[float]]):
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        if om.shape != (1,):
            raise ValueError(f"Shift takes one frequency, got shape {om.shape}")
        object.__setattr__(self, "omega", float(om[0]))

    @property
    def d(self) -> int:
        return 1


@dataclass(frozen=True)
class SkewShift:
    """Skew-shift (x, y) -> (x + y, y + omega) on T^2."""

    omega: float

    @property
    def d(self) -> int:
        return 2


@dataclass(frozen=True)
class Doubling:
    """Doubling map x -> 2x on T^1."""

    @property
    def d(self) -> int:
        return 1


Dynamics = Union[Shift, SkewShift, Doubling]


def iterate(dyn: Dynamics, x, n: int) -> Phase:
    """Return T^n x with all coordinates reduced mod 1.

    For :class:`SkewShift` the closed form
    ``T^n(x,y) = (x + n y + n(n-1)/2 omega, y + n omega)`` is used, so the
    cost is O(1) in n.  :class:`Doubling` doubles step by step (with
    reduction each step) but stops early once the orbit hits the fixed
    point 0, which every binary float eventually does.
    """
    if n < 0:
        raise ValueError("iterate needs n >= 0")
    p = _as_phase(x, dyn.d)
    if n == 0:
        return p
    if isinstance(dyn, Shift):
        return mod1(p + fracmul(n, dyn.omega))
    if isinstance(dyn, SkewShift):
        xx, yy = p
        quad = fracmul(n * (n - 1) // 2, dyn.omega)
        return phase(xx + fracmul(n, yy) + quad, yy + fracmul(n, dyn.omega))
    if isinstance(dyn, Doubling):
        t = float(p[0])
        for _ in range(n):
            if t == 0.0:
                break
            t = t * 2.0
            t -= math.floor(t)
        return np.array([t])
    raise TypeError(f"unknown dynamics {dyn!r}")


def torus_distance(t) -> float:
    """Distance ``||t||`` from a real number to the nearest integer.

    Accepts scalars or arrays; the result lies in [0, 0.5].
    """
    t = np.asarray(t, dtype=float)
    d = np.abs(t - np.round(t))
    return float(d) if d.ndim == 0 else d


@dataclass(frozen=True)
class CFTerm:
    """One continued-fraction step: partial quotient a and convergent p/q."""

    a: int
    p: int
    q: int


@dataclass(frozen=True)
class CFExpansion:
    terms: tuple
    rational: bool

    @property
    def partial_quotients(self):
        return [t.a for t in self.terms]

    @property
    def denominators(self):
        return [t.q for t in self.terms]


# remainders below this are treated as exactly zero (omega rational in floats)
_CF_RATIONAL_TOL = 1e-12


def continued_fraction(omega: float, depth: int = 40) -> CFExpansion:
    """Continued-fraction expansion of omega in (0,1) with convergents.

    Returns up to ``depth`` terms ``(a_r, p_r, q_r)`` where p_r/q_r is the
    r-th convergent (integer arithmetic throughout, so the recurrence
    ``q_{r+1} = a_{r+1} q_r + q_{r-1}`` is exact).  If the remainder hits
    zero to machine tolerance the expansion is truncated and flagged
    rational.  Denominators past 1/tolerance are not trustworthy in double
    precision, which is why ``depth`` is capped at 40.
    """
    if not 0.0 < omega < 1.0:
        raise ValueError("omega must lie in (0,1)")
    if depth < 1 or depth > 40:
        raise ValueError("depth must be between 1 and 40")
    terms = []
    rational = False
    p_prev, q_prev = 1, 0   # p_{-1}, q_{-1}
    p_cur, q_cur = 0, 1     # p_0, q_0 for omega = [0; a1, a2, ...]
    r = omega
    for _ in range(depth):
        inv = 1.0 / r
        a = int(math.floor(inv))
        r = inv - a
        p_next = a * p_cur + p_prev
        q_next = a * q_cur + q_prev
        terms.append(CFTerm(a=a, p=p_next, q=q_next))
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_next, q_next
        # once q is this large the float remainder carries no information
        if r < _CF_RATIONAL_TOL or q_cur > 1e15:
            rational = r < _CF_RATIONAL_TOL
            break
    return CFExpansion(terms=tuple(terms), rational=rational)


@dataclass(frozen=True)
class DiophantineReport:
    """Worst-case lower-bound data for ||n omega|| over a tested range.

    ``worst_value`` is the minimum over n of the weighted distance
    (``||n omega|| * n^a`` for the power-law variant, or
    ``||n omega|| * n * (log n)^a`` for the logarithmic variant); ``c`` is
    set to that minimum, so ``||n omega|| >= c / weight(n)`` holds over
    the whole tested range with the best possible constant.
    """

    c: float
    a: float
    worst_n: int
    worst_value: float
    n_max: int
    variant: str = "power"


def diophantine_check(omega: float, a: float, n_max: int,
                      variant: str = "power") -> DiophantineReport:
    """Scan n = 1..n_max for the worst Diophantine ratio of omega.

    ``variant="power"`` weights by ``n^a`` (lower bounds of the form
    ``||n omega|| >= c/n^a``); ``variant="log"`` weights by
    ``n (log n)^a`` and starts the scan at n = 2, since log 1 = 0 would
    make the n = 1 term vacuous, so it needs n_max >= 2.  Each
    ``||n omega||`` is read from the exact frac(n omega) of ``fracmul``.
    """
    if a <= 1.0:
        raise ValueError("exponent a must exceed 1")
    if variant not in ("power", "log"):
        raise ValueError(f"unknown variant {variant!r}")
    first = 1 if variant == "power" else 2
    if n_max < first:
        raise ValueError(f"n_max must be >= {first} for the {variant} variant")
    n = np.arange(first, n_max + 1, dtype=float)
    weights = n ** a if variant == "power" else n * np.log(n) ** a
    values = torus_distance(_fracmuls(range(first, n_max + 1), omega)) * weights
    i = int(np.argmin(values))
    worst = float(values[i])
    return DiophantineReport(c=worst, a=a, worst_n=int(n[i]),
                             worst_value=worst, n_max=n_max, variant=variant)
