"""Extended complex numbers: affine chart values of the projective line.

A point of P^1 is stored as a finite chart value or an explicit
at-infinity flag, never both.  All chart swaps in the package go through
this type so that no formula silently divides by zero at the pole of a
chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ExtendedComplex", "INFINITY", "chordal_homogeneous", "roots_of_unity",
           "node_powers", "polyval"]


@dataclass(frozen=True)
class ExtendedComplex:
    """A point of P^1: finite chart value XOR the point at infinity."""

    value: complex = 0j
    at_infinity: bool = False

    def __post_init__(self):
        if self.at_infinity and self.value != 0:
            raise ValueError("infinite point must carry value 0")
        object.__setattr__(self, "value", complex(self.value))

    @staticmethod
    def of(v) -> "ExtendedComplex":
        if isinstance(v, ExtendedComplex):
            return v
        return ExtendedComplex(complex(v))

    @property
    def finite(self) -> bool:
        return not self.at_infinity

    def antipode(self) -> "ExtendedComplex":
        """tau(v) = -1/conj(v), the fixed-point-free antipodal involution."""
        if self.at_infinity:
            return ExtendedComplex(0j)
        if self.value == 0:
            return INFINITY
        return ExtendedComplex(-1.0 / self.value.conjugate())

    def unit_sphere(self) -> np.ndarray:
        """Inverse stereographic image on S^2 (infinity -> north pole)."""
        if self.at_infinity:
            return np.array([0.0, 0.0, 1.0])
        v = self.value
        m = abs(v) ** 2
        return np.array([2 * v.real, 2 * v.imag, m - 1.0]) / (m + 1.0)

    def isclose(self, other: "ExtendedComplex", tol: float = 1e-10) -> bool:
        """Chordal closeness on P^1 (well behaved near infinity)."""
        return chordal_distance(self, other) < tol


INFINITY = ExtendedComplex(0j, at_infinity=True)


def chordal_distance(p: ExtendedComplex, q: ExtendedComplex) -> float:
    """Distance of the unit-sphere images, max value 2, from (v, 1) and (1, 0) at infinity."""
    (p1, p2), (q1, q2) = ((1.0, 0.0) if u.at_infinity else (u.value, 1.0) for u in (p, q))
    return chordal_homogeneous(p1, p2, q1, q2)


def chordal_homogeneous(p1, p2, q1, q2) -> float:
    """Chordal distance 2 |p1 q2 - p2 q1| / (|p| |q|) of the points of P^1 with
    homogeneous coordinates (p1 : p2) and (q1 : q2), on Python scalars."""
    return 2.0 * abs(p1 * q2 - p2 * q1) / math.hypot(abs(p1), abs(p2)) / math.hypot(abs(q1), abs(q2))


def polyval(coeffs, x):
    """numpy.polynomial's polyval(x, coeffs) step for step, so bit for bit on scalars too."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


@lru_cache(maxsize=16)
def roots_of_unity(n: int) -> np.ndarray:
    """exp(2 pi i j / n), j = 0..n-1: the unit-circle nodes of the
    package's trapezoid rules, built once per n, read-only."""
    zs = np.exp(2j * math.pi * np.arange(n) / n)
    zs.setflags(write=False)
    return zs


_POWERS: dict[int, np.ndarray] = {}


def node_powers(nodes: int, degree: int) -> np.ndarray:
    """Read-only (degree + 1, nodes) table of w_j^m for the nodes w_j of
    `roots_of_unity(nodes)`, row m the node set permuted: one table per
    node count, grown row by row below its old rows when a higher degree is asked for."""
    table = _POWERS.get(nodes)
    have = 0 if table is None else len(table)
    if have <= degree:
        grown = np.empty((degree + 1, nodes), complex)
        if have:
            grown[:have] = table
        for m in range(have, degree + 1):   # row m is w[m j mod nodes]
            np.take(roots_of_unity(nodes), m * np.arange(nodes), out=grown[m], mode="wrap")
        grown.setflags(write=False)
        table = _POWERS[nodes] = grown
    return table[:degree + 1]


# 16-point Gauss-Legendre on [-1, 1], leggauss(16) bit for bit without numpy.polynomial
_NODES = np.array([0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
                   0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499])
_WEIGHTS = np.array([0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
                     0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
                     0.062253523938647456, 0.027152459411754176])
_LEGENDRE_16 = (np.concatenate([-_NODES[::-1], _NODES]), np.concatenate([_WEIGHTS[::-1], _WEIGHTS]))
