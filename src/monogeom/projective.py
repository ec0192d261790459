"""Extended complex numbers: affine chart values of the projective line.

A point of P^1 is stored as a finite chart value or an explicit
at-infinity flag, never both.  All chart swaps in the package go through
this type so that no formula silently divides by zero at the pole of a
chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ExtendedComplex", "INFINITY", "tau"]


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
        if v is None:
            return INFINITY
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
        return ExtendedComplex(-1.0 / np.conj(self.value))

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

    def __repr__(self):
        return "ExtendedComplex(inf)" if self.at_infinity else f"ExtendedComplex({self.value})"


INFINITY = ExtendedComplex(0j, at_infinity=True)


def tau(v):
    """Antipodal map on chart values: complex -> complex, 0 <-> infinity.

    Accepts and returns plain complex numbers for use in numeric inner
    loops; use ExtendedComplex.antipode for chart-safe code.
    """
    if isinstance(v, ExtendedComplex):
        return v.antipode()
    return -1.0 / np.conj(v)


def chordal_distance(p: ExtendedComplex, q: ExtendedComplex) -> float:
    """Distance in the round metric's chordal chart, max value 2."""
    return float(np.linalg.norm(p.unit_sphere() - q.unit_sphere()))
