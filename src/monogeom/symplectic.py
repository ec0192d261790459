"""Deformation coordinates of lifted spectral curves and their
holomorphic symplectic pairing.

A lifted curve near the fiber over 0 is a list of sheet graphs
zeta -> (eta_i(zeta), u_i(zeta)) with u_i nonvanishing; an infinitesimal
deformation is a list of per-sheet component functions (eta'_i, u'_i),
both held as complex coefficient matrices, rows = sheets.  For deformations
marked at a divisor point zeta_0 (both components vanish there) the pairing
has two independent evaluations: a residue sum at zeta = 0 and a contour
integral over a circle, whose agreement is the central consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .projective import node_powers, roots_of_unity

__all__ = [
    "Series",
    "SheetData",
    "TangentVector",
    "MarkedDivisor",
    "omega_D_residue",
    "omega_D_contour",
    "rho_form",
    "patch_jacobian",
    "random_marked_tangent",
]


@dataclass(frozen=True)
class Series:
    """Ascending coefficients of one truncated power series: an input row of
    the coefficient matrices of `SheetData` and `TangentVector`, which hold
    and evaluate it.  Its disc of validity is the caller's concern;
    synthetic data here uses polynomials."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.array(self.coeffs, complex, copy=None, ndmin=1))


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


class _Rows:
    """Two fields of k rows each (Series, coefficient arrays or a matrix),
    held as the halves of one zero-padded complex matrix `coeffs`."""

    def _hold(self, top: str, bottom: str, unequal: str) -> np.ndarray:
        a, b = getattr(self, top), getattr(self, bottom)
        if len(a) != len(b):
            raise ValueError(unequal)
        rows = [r.coeffs if isinstance(r, Series) else r for r in (*a, *b)]
        width = max(map(len, rows), default=1)
        m = np.array([r if len(r) == width else list(r) + [0] * (width - len(r)) for r in rows],
                     dtype=complex).reshape(len(rows), width)
        for name, value in (("coeffs", m), (top, m[:len(a)]), (bottom, m[len(a):])):
            object.__setattr__(self, name, value)
        return m

    @property
    def k(self) -> int:
        return len(self.coeffs) // 2


@dataclass(frozen=True)
class SheetData(_Rows):
    """Sheets of a lifted curve: eta_i and nonvanishing u_i, rows of `etas` and `us`."""

    etas: np.ndarray
    us: np.ndarray

    def __post_init__(self):
        self._hold("etas", "us", "need one u per sheet")
        for u in self.us.tolist():
            # |u_0| > sum |u_m| leaves no zero in the closed unit disc;
            # otherwise the roots show whether one lies on the circle
            size = list(map(abs, u))
            on_circle = size[0] <= sum(size[1:]) and bool(np.any(
                np.abs(np.abs(np.roots(u[::-1])) - 1.0) <= 1e-12))
            if size[0] < 1e-12 or on_circle:
                raise ValueError("u must be bounded away from zero on the domain")

    @cached_property
    def u_zero_modulus(self) -> float:
        """Smallest |zeta| where some u_i vanishes (inf when none does)."""
        return float(min((abs(r) for u in self.us for r in np.roots(u[::-1])), default=np.inf))


@dataclass(frozen=True)
class TangentVector(_Rows):
    """Deformation components, rows of `eta_primes` and `u_primes`, vanishing at `marked_at`."""

    eta_primes: np.ndarray
    u_primes: np.ndarray
    marked_at: complex | None = None

    def __post_init__(self):
        m = self._hold("eta_primes", "u_primes", "need one u' per sheet")
        if self.marked_at is not None:
            # all components at zeta_0 in one product; max(1, |c|) read only past 1e-9
            worst = np.abs(m @ self.marked_at ** np.arange(m.shape[1])).max(initial=0.0)
            if worst > 1e-9 and worst > 1e-9 * np.abs(m).max():
                raise ValueError("marked tangent components must vanish at the marking")


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
    k, a, b = sheets.k, X1.coeffs[:, 0].tolist(), X2.coeffs[:, 0].tolist()
    return sum(((e1 * u2 - e2 * u1) / u for e1, u1, e2, u2, u in
                zip(a[:k], a[k:], b[:k], b[k:], sheets.us[:, 0].tolist())), 0j)


@lru_cache(maxsize=16)
def _wedge(n1: int, n2: int) -> np.ndarray:
    """Read-only 0/+-1 matrix taking a sheet's flattened outer product of (eta'_1,
    u'_1) with (u'_2, eta'_2) to the coefficients of eta'_1 u'_2 - u'_1 eta'_2."""
    s, a, b = np.ogrid[:2, :n1, :n2]
    w = np.zeros((2, n1, n2, n1 + n2 - 1), dtype=complex)
    w[s, a, b, a + b] = 1 - 2 * s
    w.setflags(write=False)
    return w.reshape(2 * n1 * n2, -1)


@lru_cache(maxsize=16)
def _zero_screen(R: float, n: int) -> np.ndarray:
    """Read-only (-1, R, ..., R^(n-1)): a row of |u_m| times it is sum_{m>0} |u_m| R^m - |u_0|.
    Cached, because building it and slicing u_0 off per call cost three times the per-row sum."""
    v = np.array([-1.0, *(R ** m for m in range(1, n))])
    v.setflags(write=False)
    return v


def omega_D_contour(X1: TangentVector, X2: TangentVector, sheets: SheetData,
                    nodes: int = 2048, radius: float = 1.0) -> complex:
    """Contour evaluation over |zeta| = radius of
    sum_i (eta'_{i,1} u'_{i,2} - eta'_{i,2} u'_{i,1})
          / ((zeta/zeta_0 - 1)^2 u_i) dzeta / (2 pi i zeta),
    by the trapezoid rule, spectrally accurate for analytic data.  The sheets sum to F / G,
    G = prod_l u_l, F = sum_i N_i prod_{l != i} u_l for the numerators N_i, convolved from
    the coefficient rows, scaled to the radius and read at the nodes from the cached node
    powers; then G (w - c)^2, one division, one sum.  A contour through or around a zero
    of some u_i, a pole the residue sum does not see, is refused."""
    _check_pair(X1, X2, sheets)
    if not isinstance(nodes, (int, np.integer)) or nodes < 64 or not 0.0 < radius < np.inf:
        raise ValueError("need an integer of at least 64 nodes and a finite radius > 0")
    z0 = X1.marked_at
    if abs(abs(z0) - radius) < 1e-6:
        raise ValueError("marking point within 1e-6 of the contour: ill conditioned")
    k, us = sheets.k, sheets.us
    # |u_0| > sum_m |u_m| R^m rules out a zero of u in |zeta| <= R (at a rounding tie, in |zeta| < R)
    if max((np.abs(us) @ _zero_screen(radius + 1e-6, us.shape[1])).tolist()) >= 0 \
            and radius > sheets.u_zero_modulus - 1e-6:
        raise ValueError(f"a u_i vanishes at |zeta| = {sheets.u_zero_modulus:.6g}, "
                         "not inside the contour")
    p, q = (X.coeffs.reshape(2, k, -1).transpose(1, 0, 2) for X in (X1, X2))
    num = (p[..., None] * q[:, ::-1, None, :]).reshape(k, -1) @ _wedge(p.shape[2], q.shape[2])
    F, G = num[0], us[0]
    for n, u in zip(num[1:], us[1:]):   # F / G + n / u = (F u + n G) / (G u), both of one length
        F, G = np.convolve(F, u) + np.convolve(n, G), np.convolve(G, u)
    if radius != 1.0:   # F(radius w) has coefficients F_m radius^m
        F, G = (P * radius ** np.arange(len(P)) for P in (F, G))
    w = node_powers(nodes, max(len(F), len(G)) - 1)
    c = z0 / radius   # at zeta = radius w: 1 / (zeta/zeta_0 - 1)^2 = c^2 / (w - c)^2
    d = np.subtract(roots_of_unity(nodes), c)
    d *= d
    d *= G @ w[:len(G)]
    return complex(c * c / nodes * np.divide(F @ w[:len(F)], d, out=d).sum())


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
    m = (f.real * p[:, :-1] - p[:, 1:]) + (1j * f.imag) * p[:, :-1]
    return TangentVector(m[:k], m[k:], marked_at=zeta0)
