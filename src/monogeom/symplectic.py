"""Deformation coordinates of lifted spectral curves and their
holomorphic symplectic pairing.

A lifted curve near the fiber over 0 is a list of sheet graphs
zeta -> (eta_i(zeta), u_i(zeta)) with u_i nonvanishing; an infinitesimal
deformation is a list of per-sheet component functions (eta'_i, u'_i).
For deformations marked at a divisor point zeta_0 (both components
vanish there) the pairing has two independent evaluations: a residue
sum at zeta = 0 and a contour integral over a circle, whose agreement is
the central consistency check of the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .projective import node_powers, polyval, roots_of_unity

__all__ = [
    "Series",
    "SheetData",
    "TangentVector",
    "MarkedDivisor",
    "omega_D_residue",
    "omega_D_contour",
    "rho_form",
    "patch_jacobian",
    "fiber_coordinates",
    "random_marked_tangent",
]


@dataclass(frozen=True)
class Series:
    """Truncated power series (ascending coefficients) on a disc whose
    radius of validity is the caller's responsibility; synthetic data in
    this package uses polynomials, for which evaluation is exact."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.array(self.coeffs, complex, copy=None, ndmin=1))

    def __call__(self, zeta):
        return polyval(self.coeffs, zeta)

    def __add__(self, other):
        a, b = self.coeffs, Series.of(other).coeffs
        n = max(len(a), len(b))
        out = np.zeros(n, dtype=complex)
        out[:len(a)] += a
        out[:len(b)] += b
        return Series(out)

    def __mul__(self, other):
        if np.isscalar(other):
            return Series(self.coeffs * other)
        # trimmed as numpy's polymul trims its factors and product
        return Series(_trim(np.convolve(_trim(self.coeffs), _trim(Series.of(other).coeffs))))

    __rmul__ = __mul__

    @staticmethod
    def of(v) -> "Series":
        if isinstance(v, Series):
            return v
        if np.isscalar(v):
            return Series(np.array([v], dtype=complex))
        return Series(v)

    def at_zero(self) -> complex:
        return complex(self.coeffs[0])


def _trim(c: np.ndarray) -> np.ndarray:
    """c without trailing zeros, keeping at least one coefficient."""
    if c[-1] != 0:
        return c
    nz = np.flatnonzero(c)
    return c[:nz[-1] + 1] if nz.size else c[:1]


def _stack(rows) -> np.ndarray:
    """Coefficient arrays as the rows of one zero-padded array."""
    out = np.zeros((len(rows), max(map(len, rows), default=1)), dtype=complex)
    for dst, src in zip(out, rows):
        dst[:len(src)] = src
    return out


@dataclass(frozen=True)
class MarkedDivisor:
    """Marking point zeta_0 (nonzero, away from branch points) at which
    admissible deformations vanish."""

    zeta0: complex

    def __post_init__(self):
        if self.zeta0 == 0:
            raise ValueError("the marking point must be nonzero")

    def vanishing_factor(self) -> Series:
        """The linear factor (zeta/zeta_0 - 1)."""
        return Series(np.array([-1.0, 1.0 / self.zeta0], dtype=complex))


@dataclass(frozen=True)
class SheetData:
    """Sheets of a lifted curve: eta_i and nonvanishing u_i per sheet."""

    etas: tuple[Series, ...]
    us: tuple[Series, ...]

    def __post_init__(self):
        etas = tuple(Series.of(e) for e in self.etas)
        us = tuple(Series.of(u) for u in self.us)
        if len(etas) != len(us):
            raise ValueError("need one u per sheet")
        object.__setattr__(self, "etas", etas)
        object.__setattr__(self, "us", us)
        for u in us:
            # |u_0| > sum |u_m| leaves no zero in the closed unit disc;
            # otherwise the roots show whether one lies on the circle
            size = list(map(abs, u.coeffs.tolist()))
            on_circle = size[0] <= sum(size[1:]) and bool(np.any(
                np.abs(np.abs(np.roots(u.coeffs[::-1])) - 1.0) <= 1e-12))
            if size[0] < 1e-12 or on_circle:
                raise ValueError("u must be bounded away from zero on the domain")

    @cached_property
    def u_zero_modulus(self) -> float:
        """Smallest |zeta| where some u_i vanishes (inf when none does)."""
        return float(min((abs(r) for u in self.us for r in np.roots(u.coeffs[::-1])),
                         default=np.inf))

    @property
    def k(self) -> int:
        return len(self.etas)


@dataclass(frozen=True)
class TangentVector:
    """Deformation components per sheet; `marked_at` records the divisor
    point where all components vanish."""

    eta_primes: tuple[Series, ...]
    u_primes: tuple[Series, ...]
    marked_at: complex | None = None

    def __post_init__(self):
        ep = tuple(Series.of(e) for e in self.eta_primes)
        up = tuple(Series.of(u) for u in self.u_primes)
        if len(ep) != len(up):
            raise ValueError("need one u' per sheet")
        object.__setattr__(self, "eta_primes", ep)
        object.__setattr__(self, "u_primes", up)
        if self.marked_at is not None:
            z0, coeffs = self.marked_at, [s.coeffs.tolist() for s in ep + up]
            worst = max((abs(polyval(cs, z0)) for cs in coeffs), default=0.0)  # on Python scalars
            if worst > 1e-9 * max(1.0, *map(abs, sum(coeffs, []))):
                raise ValueError("marked tangent components must vanish at the marking")

    @property
    def k(self) -> int:
        return len(self.eta_primes)


def _check_pair(X1: TangentVector, X2: TangentVector, sheets: SheetData):
    if X1.k != sheets.k or X2.k != sheets.k:
        raise ValueError("sheet count mismatch")
    if X1.marked_at is None or X2.marked_at is None:
        raise ValueError("both deformations must be marked at a divisor point")
    if abs(X1.marked_at - X2.marked_at) > 1e-12:
        raise ValueError("deformations marked at different divisor points")


def omega_D_residue(X1: TangentVector, X2: TangentVector, sheets: SheetData) -> complex:
    """Residue-sum evaluation at zeta = 0:
    sum_i (eta'_{i,1}(0) u'_{i,2}(0) - eta'_{i,2}(0) u'_{i,1}(0)) / u_i(0)."""
    _check_pair(X1, X2, sheets)
    total = 0j
    for e1, u1, e2, u2, u in zip(X1.eta_primes, X1.u_primes,
                                 X2.eta_primes, X2.u_primes, sheets.us):
        total += (e1.at_zero() * u2.at_zero() - e2.at_zero() * u1.at_zero()) / u.at_zero()
    return total


def omega_D_contour(X1: TangentVector, X2: TangentVector, sheets: SheetData,
                    nodes: int = 2048, radius: float = 1.0) -> complex:
    """Contour evaluation over |zeta| = radius of
    sum_i (eta'_{i,1} u'_{i,2} - eta'_{i,2} u'_{i,1})
          / ((zeta/zeta_0 - 1)^2 u_i) dzeta / (2 pi i zeta),
    by the trapezoid rule, spectrally accurate for analytic data, from
    the coefficients of all numerators and u_i times a cached table of
    the nodes' powers.  A contour through or around a zero of some u_i,
    a pole the residue sum at 0 does not see, is refused."""
    _check_pair(X1, X2, sheets)
    if nodes < 64:
        raise ValueError("use at least 64 quadrature nodes")
    z0 = X1.marked_at
    if abs(abs(z0) - radius) < 1e-6:
        raise ValueError("marking point within 1e-6 of the contour: ill conditioned")
    k = sheets.k
    C = _stack([np.convolve(e1.coeffs, u2.coeffs) for e1, u2 in zip(X1.eta_primes, X2.u_primes)]
               + [np.convolve(e2.coeffs, u1.coeffs) for e2, u1 in zip(X2.eta_primes, X1.u_primes)]
               + [u.coeffs for u in sheets.us])
    # |u_0| > sum_m |u_m| R^m rules out a zero of u in |zeta| <= R without its roots
    U = np.abs(C[2 * k:]) * (radius + 1e-6) ** np.arange(C.shape[1])
    if np.any(U[:, 0] <= U[:, 1:].sum(axis=1)) and radius > sheets.u_zero_modulus - 1e-6:
        raise ValueError(f"a u_i vanishes at |zeta| = {sheets.u_zero_modulus:.6g}, "
                         "not inside the contour")
    C = np.concatenate([C[:k] - C[k:2 * k], C[2 * k:]]) * radius ** np.arange(C.shape[1])
    vals = C @ node_powers(nodes, C.shape[1] - 1)
    zs = radius * roots_of_unity(nodes)
    # 1 / (zeta/zeta_0 - 1)^2 = zeta_0^2 / (zeta - zeta_0)^2: a subtraction per node
    return complex(z0 * z0 * np.mean(np.sum(vals[:k] / vals[k:], axis=0) / (zs - z0) ** 2))


def rho_form(zeta, eta, u, v1, v2, v3) -> complex:
    """The trivialized volume form d zeta wedge d eta wedge du/u paired
    with three tangent vectors (components in the chart frame
    (d/dzeta, d/deta, d/du))."""
    if u == 0:
        raise ZeroDivisionError("rho has a pole at u = 0")
    rows = np.array([v1, v2, v3], dtype=complex)
    rows[:, 2] = rows[:, 2] / u
    return complex(np.linalg.det(rows.T))


def patch_jacobian(zeta: complex, eta: complex, u: complex) -> np.ndarray:
    """Jacobian of (zeta, eta, u) -> (1/zeta, eta/zeta^2, e^{eta/zeta} u)."""
    if zeta == 0:
        raise ZeroDivisionError("patch transition at the chart pole")
    t = np.exp(eta / zeta)
    return np.array([
        [-1.0 / zeta ** 2, 0.0, 0.0],
        [-2.0 * eta / zeta ** 3, 1.0 / zeta ** 2, 0.0],
        [-t * u * eta / zeta ** 2, t * u / zeta, t],
    ], dtype=complex)


def fiber_coordinates(curve, trivialization, zeta_star: complex,
                      branch_tol: float = 1e-8):
    """Intersection points (eta, u) of a lifted curve with the fiber over
    zeta_star.

    `curve` is a CurveO2k; `trivialization` maps (zeta, eta) to u and for
    k = 1 may be None, in which case the closed-form charge-1
    trivialization is used.  Fails on (near-)branch fibers, where the
    intersection has multiplicity.
    """
    etas = np.asarray(curve.sheets_over(zeta_star))
    if len(etas) > 1:
        d = np.abs(etas[:, None] - etas[None, :]) + np.eye(len(etas))
        if float(np.min(d)) < branch_tol:
            raise ValueError("fiber over a branch point: multiple intersection")
    if trivialization is None:
        from .minitwistor import l2_trivialization
        u0, _ = l2_trivialization(curve)
        return [(complex(e), complex(u0(zeta_star))) for e in etas]
    return [(complex(e), complex(trivialization(zeta_star, e))) for e in etas]


def random_marked_tangent(k: int, zeta0: complex, rng, degree: int = 3) -> TangentVector:
    """Synthetic marked deformation: each component is (zeta/zeta_0 - 1)
    times a random polynomial, the k eta' and then the k u'.  One draw
    gives the real, then the imaginary coefficients of each in turn.  All
    products at once, summed as np.convolve's dot product sums them:
    (f.real p_{m-1} - p_m) + i f.imag p_{m-1}, f = 1/zeta_0."""
    f = 1.0 / MarkedDivisor(zeta0).zeta0
    draw = rng.normal(size=(2 * k, 2, degree + 1))
    p = np.zeros((2 * k, degree + 3), dtype=complex)   # zero-padded at both ends
    p.real[:, 1:-1], p.imag[:, 1:-1] = draw[:, 0], draw[:, 1]
    parts = [Series(c) for c in (f.real * p[:, :-1] - p[:, 1:]) + (1j * f.imag) * p[:, :-1]]
    return TangentVector(tuple(parts[:k]), tuple(parts[k:]), marked_at=zeta0)
