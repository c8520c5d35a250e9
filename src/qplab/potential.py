"""Trigonometric-polynomial sampling functions V with coupling lambda.

A potential is a real trigonometric polynomial

    V(x) = sum_{|k| <= k0} v(k) e(kx),      e(t) = exp(2 pi i t),

with v(-k) = conj(v(k)) so V is real on the real torus, scaled by a real
coupling ``lam``.  All evaluation routines return ``lam * V``; the
coupling is part of the potential object, not of the callers.

Complexified phases use the coordinate convention

    (x, y)  ->  z = e(x) * exp(2 pi y),

so positive y inflates the unit circle (|z| = exp(2 pi y)), and a strip
|y| <= h maps to the annulus exp(-2 pi h) <= |z| <= exp(2 pi h).  V
continues to the whole punctured plane as the Laurent polynomial
``eval_laurent(p, ComplexPhase(x, y).to_z())``.  For the cosine potential
this gives cosh(2 pi t) at (x, y) = (0, t) and i sinh(2 pi t) at (0.25, t).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

_TWO_PI = 2.0 * math.pi

# imaginary residue below IMAG_DISCARD is rounding noise and is dropped;
# anything above IMAG_ERROR means the conjugacy invariant is broken
IMAG_DISCARD = 1e-12
IMAG_ERROR = 1e-9


class ConsistencyError(ValueError):
    """The coefficient table violates v(-k) = conj(v(k)) badly enough
    that a supposedly real evaluation came out complex."""


@dataclass(frozen=True)
class ComplexPhase:
    """A point x + iy of the complexified torus (y is the strip coordinate)."""

    x: float
    y: float = 0.0

    def to_z(self) -> complex:
        """The annulus coordinate z = e(x) * exp(2 pi y)."""
        return cmath.exp(complex(2.0 * math.pi * self.y, _TWO_PI * self.x))


@dataclass(frozen=True)
class Potential:
    """Real trigonometric polynomial with coupling.

    Parameters
    ----------
    coeffs : mapping int -> complex
        Fourier coefficients v(k).  Keys may cover only k >= 0, in which
        case the negative side is filled in by conjugation; if both signs
        are present they must satisfy v(-k) = conj(v(k)) and v(0) real.
    lam : float
        Coupling lambda multiplying the whole polynomial.  It and every
        v(k) must be finite (ValueError otherwise).
    """

    coeffs: Tuple[Tuple[int, complex], ...]
    lam: float = 1.0
    _ks: np.ndarray = field(repr=False, compare=False, default=None)
    _vs: np.ndarray = field(repr=False, compare=False, default=None)

    def __init__(self, coeffs, lam: float = 1.0):
        lam = float(lam)
        table: Dict[int, complex] = {}
        for k, v in dict(coeffs).items():
            table[int(k)] = complex(v)
        if not (math.isfinite(lam) and all(map(cmath.isfinite, table.values()))):
            raise ValueError("a potential needs a finite coupling and finite coefficients")
        full: Dict[int, complex] = {}
        for k, v in table.items():
            full[k] = v
            if -k not in table:
                full[-k] = v.conjugate()
        for k in sorted(full):
            if k >= 0:
                mirror = full[-k].conjugate()
                if abs(full[k] - mirror) > IMAG_ERROR * max(1.0, abs(full[k])):
                    raise ConsistencyError(
                        f"coefficients break v(-k)=conj(v(k)) at k={k}: "
                        f"{full[k]} vs conj of {full[-k]}")
        ks = np.array(sorted(full), dtype=int)
        vs = np.array([full[int(k)] for k in ks], dtype=complex)
        object.__setattr__(self, "coeffs", tuple((int(k), full[int(k)]) for k in ks))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "_ks", ks)
        object.__setattr__(self, "_vs", vs)

    @property
    def k0(self) -> int:
        """Degree of the trigonometric polynomial."""
        return int(self._ks[-1]) if self._ks.size else 0

    def coeff(self, k: int) -> complex:
        for kk, vv in self.coeffs:
            if kk == k:
                return vv
        return 0.0 + 0.0j

    def sup_bound(self) -> float:
        """Upper bound for |lam * V| on the real torus (L1 of coefficients)."""
        return abs(self.lam) * float(np.sum(np.abs(self._vs)))

    def derivative(self) -> Potential:
        """(lam V)' as a potential: coefficients 2 pi i k v(k), the same lam."""
        return Potential({k: 2j * math.pi * k * v for k, v in self.coeffs}, lam=self.lam)


def almost_mathieu(lam: float) -> Potential:
    """The cosine potential V(x) = cos(2 pi x), i.e. v(+-1) = 1/2."""
    return Potential({1: 0.5, -1: 0.5}, lam=lam)


def from_triples(triples: Iterable, lam: float) -> Potential:
    """Build a potential from config-style (k, re, im) triples.

    Triples may list only k >= 0 (the conjugate side is implied); listing
    both signs is allowed and validated.
    """
    table = {}
    for entry in triples:
        k, re, im = entry
        k = int(k)
        if k in table:
            raise ValueError(f"duplicate coefficient for k={k}")
        table[k] = complex(float(re), float(im))
    if 0 in table and abs(table[0].imag) > IMAG_ERROR:
        raise ConsistencyError("v(0) must be real")
    return Potential(table, lam=lam)


def eval_real(p: Potential, x: float) -> float:
    """lam * V(x) at a real phase x.

    The complex Fourier sum is formed in full; an imaginary residue below
    1e-12 is discarded, anything above 1e-9 raises ConsistencyError.
    """
    z = np.exp(2j * math.pi * float(x) * p._ks)
    val = p.lam * complex(np.dot(p._vs, z))
    scale = max(1.0, abs(val))
    if abs(val.imag) > IMAG_ERROR * scale:
        raise ConsistencyError(
            f"eval_real produced imaginary residue {val.imag:.3e} at x={x}")
    return float(val.real)


def eval_real_many(p: Potential, x: np.ndarray) -> np.ndarray:
    """Vectorized lam * V over an array of real phases.

    Uses the manifestly real cosine/sine form (exact consequence of the
    conjugacy invariant), so no imaginary parts ever appear.  This is the
    hot path for transfer-matrix sweeps: a harmonic with v_k real skips
    its sine and one with v_k imaginary its cosine.  The skipped term is
    an exact zero, so the sum is the full cos - sin form's bit for bit.
    Each harmonic is formed in one work buffer and added in place, in
    the order ((0 + v_0) + 2 t_1) + 2 t_2 ..., where 2 t_k is formed as
    (2 v_k) times the cosine and sine: doubling is exact, so this rounds
    as 2 (v_k cos - ...) does.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    ang, term = np.empty_like(x), None
    for k, v in zip(p._ks, p._vs):
        if k < 0:
            continue
        if k == 0:
            out += v.real
            continue
        np.multiply(_TWO_PI * k, x, out=ang)
        if v.imag == 0:
            out += np.multiply(2.0 * v.real, np.cos(ang, out=ang), out=ang)
        elif v.real == 0:
            out -= np.multiply(2.0 * v.imag, np.sin(ang, out=ang), out=ang)
        else:
            if term is None:
                term = np.empty_like(x)
            # both parts from the one angle, the sine into the second buffer
            np.sin(ang, out=term)
            np.cos(ang, out=ang)
            ang *= 2.0 * v.real
            term *= 2.0 * v.imag
            ang -= term
            out += ang
    out *= p.lam
    return out


def eval_laurent(p: Potential, z) -> complex:
    """lam * sum_k v(k) z^k for z in the punctured plane.

    This is the analytic continuation of V in the annulus coordinate;
    accepts a scalar or an ndarray of z values.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise ZeroDivisionError("Laurent evaluation needs z != 0")
    acc = np.zeros_like(z)
    for k, v in zip(p._ks, p._vs):
        acc = acc + v * z ** int(k)
    acc = p.lam * acc
    return complex(acc) if acc.ndim == 0 else acc
