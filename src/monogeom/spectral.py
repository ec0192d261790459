"""Spectral data of charge-1 singular hyperbolic monopoles.

The geodesics through a point q form a projective line; restricting the
multi-center section to it gives a product of quadratics, one per
singular center, each with antipodal root pair.  Splitting the roots
into the two orientations factorizes the section into a pair (x, y)
with x the antipodal conjugate of y, unique up to a phase, and the
divisor of x singles out an orientation for every geodesic joining q to
a center.  Together with the charge-doubling and lambda = 1 + 2 m
bookkeeping this is exactly the data of one point of the charge-1
moduli space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential, OrientedGeodesic, PointUHS
from .projective import INFINITY, ExtendedComplex, tau
from .twistor import (CHART_ROTATIONS, BiDegreeSection, matrix_point, point_matrix,
                      sqrtm_det1)

__all__ = [
    "QuadraticRestriction",
    "FactorPair",
    "SpectralDataC1",
    "DivisorPoint",
    "LineChart",
    "DegenerateRestrictionError",
    "ChartRotationRequired",
    "restrict_to_line",
    "factor",
    "lift_twistor_line",
    "genus_of_spectral_curve",
    "antipodal_conjugate",
    "multiset_distance",
]


class DegenerateRestrictionError(ValueError):
    """The restriction vanishes identically (q coincides with a center)."""


class ChartRotationRequired(ValueError):
    """A quadratic has a = 0 (root at the chart pole); rotate the chart."""


@dataclass(frozen=True)
class LineChart:
    """Identification of the geodesics through q with P^1.

    Built from the positive square root of the matrix of q, optionally
    composed with one of a fixed list of SU(2) chart rotations.  The
    transport sends q to the base point, so the geodesics through q
    become the diagonal, coordinatized by their forward endpoint.  The
    SL(2) matrix of the transport and its inverse are computed once, on
    first use.
    """

    q: PointUHS
    su2: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    @cached_property
    def matrix(self) -> np.ndarray:
        h = sqrtm_det1(point_matrix(hyp.embed(self.q)))
        return self.su2 @ np.linalg.inv(h)

    @cached_property
    def _inverse(self) -> np.ndarray:
        return np.linalg.inv(self.matrix)

    def transport(self, x: PointUHS) -> np.ndarray:
        """Hyperboloid coordinates of x in the q-centered frame."""
        A = self.matrix
        return matrix_point(A @ point_matrix(hyp.embed(x)) @ A.conj().T)

    def quadratic(self, center: PointUHS) -> "QuadraticRestriction":
        """Quadratic cut out on the line of q by the section of a center."""
        X = self.transport(center)
        return QuadraticRestriction(complex(X[1], -X[2]), float(-X[3]))

    def _null_back(self, u: ExtendedComplex) -> ExtendedComplex:
        Ainv = self._inverse
        N = Ainv @ point_matrix(hyp.null_vector(u)) @ Ainv.conj().T
        if abs(N[1, 1]) < 1e-13 * abs(np.trace(N)):
            return INFINITY
        return ExtendedComplex(complex(np.conj(N[0, 1] / N[1, 1])))

    def root_to_geodesic(self, zeta) -> OrientedGeodesic:
        """Geodesic through q whose chart coordinate is zeta: forward
        endpoint zeta, backward endpoint tau(zeta), both transported back."""
        ze = ExtendedComplex.of(zeta)
        return OrientedGeodesic(start=self._null_back(ze.antipode()),
                                end=self._null_back(ze))


@dataclass(frozen=True)
class QuadraticRestriction:
    """Restriction of a single-center (1,1) section to the line of q:
    the quadratic a zeta^2 + 2 b zeta - conj(a), b real."""

    a: complex
    b: float

    def __post_init__(self):
        if abs(self.a) < 1e-14 and abs(self.b) < 1e-14:
            raise DegenerateRestrictionError(
                "restriction vanishes identically: q coincides with the center")

    @property
    def delta(self) -> float:
        """Positive square root of the quarter-discriminant b^2 + |a|^2,
        which equals sinh of the distance from q to the center."""
        return math.hypot(self.b, abs(self.a))

    @property
    def alpha(self) -> complex:
        if abs(self.a) < 1e-14:
            raise ChartRotationRequired("a = 0: root at the chart pole")
        return (-self.b + self.delta) / self.a

    @property
    def beta(self) -> complex:
        if abs(self.a) < 1e-14:
            raise ChartRotationRequired("a = 0: root at the chart pole")
        return (-self.b - self.delta) / self.a

    def coeffs(self) -> np.ndarray:
        return np.array([-np.conj(self.a), 2 * self.b, self.a], dtype=complex)

    def __call__(self, zeta):
        return npoly.polyval(zeta, self.coeffs())


def restrict_to_line(center, q: PointUHS, su2: np.ndarray | None = None) -> QuadraticRestriction:
    """Quadratic cut out on the line of q by the section of a center.

    `center` may be a PointUHS or a (1,1) BiDegreeSection of one (the
    center is then read off the coefficients).  The roots are the two
    oriented geodesics through q and the center.
    """
    if isinstance(center, BiDegreeSection):
        center = center_of_line_section(center)
    return (LineChart(q) if su2 is None else LineChart(q, su2)).quadratic(center)


def center_of_line_section(sec: BiDegreeSection) -> PointUHS:
    """Recover the center point from a (1,1) twistor-line section."""
    if sec.degrees != (1, 1):
        raise ValueError("expected a section of bidegree (1,1)")
    c = sec.coeffs
    M = np.array([[c[1, 1], c[1, 0]], [c[0, 1], c[0, 0]]])
    d = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(d) < 1e-300:
        raise ValueError("degenerate section")
    M = M / np.sqrt(d)
    eps_inv = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    Xh = M @ eps_inv
    Xh = np.array([[Xh[1, 1], -Xh[0, 1]], [-Xh[1, 0], Xh[0, 0]]])  # adjugate
    X = matrix_point(Xh)
    if X[0] < 0:
        X = -X
    return PointUHS.from_array(hyp.unembed(X))


def antipodal_conjugate(coeffs: np.ndarray, degree: int | None = None) -> np.ndarray:
    """Coefficients of p*(zeta) = conj(p(tau(zeta))) zeta^l for a
    degree-l polynomial p; the chart weight convention is +zeta^l."""
    c = np.asarray(coeffs, dtype=complex)
    l = degree if degree is not None else len(c) - 1
    if len(c) < l + 1:
        c = np.concatenate([c, np.zeros(l + 1 - len(c), dtype=complex)])
    j = np.arange(l + 1)
    return ((-1.0) ** (l - j)) * np.conj(c[::-1])


@dataclass(frozen=True)
class FactorPair:
    """Factorization x(zeta) y(zeta) of a product of quadratics with
    x = y* (antipodal conjugate); the residual U(1) gauge is `phase`.
    x and y are evaluated in root form, x[-1] prod (zeta - alpha_i)^{l_i}
    and y[-1] prod (zeta - beta_i)^{l_i}, which stays accurate at high
    degree where the expanded coefficients round."""

    x: np.ndarray
    y: np.ndarray
    phase: complex
    alphas: tuple[complex, ...]
    betas: tuple[complex, ...]
    multiplicities: tuple[int, ...]

    def x_at(self, zeta):
        return _root_form(self.x[-1], self.alphas, self.multiplicities, zeta)

    def y_at(self, zeta):
        return _root_form(self.y[-1], self.betas, self.multiplicities, zeta)

    def product_at(self, zeta):
        return self.x_at(zeta) * self.y_at(zeta)

    def reality_defect(self, n: int = 128) -> float:
        """Max relative defect of x = y* on the unit circle."""
        zs = np.exp(2j * math.pi * np.arange(n) / n)
        ystar = npoly.polyval(zs, antipodal_conjugate(self.y))
        xs = npoly.polyval(zs, self.x)
        scale = max(float(np.max(np.abs(xs))), 1e-300)
        return float(np.max(np.abs(xs - ystar))) / scale


def factor(quadratics, charges, phase: float = 0.0) -> FactorPair:
    """Split a product of quadratics into x = A prod (zeta - alpha_i)^{l_i}
    and y = B prod (zeta - beta_i)^{l_i} with A B = prod a_i^{l_i} and
    x = y*; unique up to the U(1) phase.

    Since a_i beta_i = -(b_i + delta_i) is real, (zeta - beta_i)* equals
    -conj(beta_i) (zeta - alpha_i), and x = y* fixes the modulus
    |A|^2 = prod (b_i + delta_i)^{l_i}, positive wherever the alphas are
    defined (delta_i = hypot(b_i, |a_i|) > -b_i unless a_i = 0).
    """
    quadratics = list(quadratics)
    charges = [int(l) for l in charges]
    if len(quadratics) != len(charges):
        raise ValueError("need one charge per quadratic")
    alphas = [qd.alpha for qd in quadratics]
    betas = [qd.beta for qd in quadratics]
    # b + delta, as |a|^2 / (delta - b) when b < 0 to avoid cancellation
    mod2 = math.prod((qd.b + qd.delta if qd.b >= 0 else abs(qd.a) ** 2 / (qd.delta - qd.b)) ** l
                     for qd, l in zip(quadratics, charges))
    A = math.sqrt(mod2) * np.exp(1j * phase)
    prod_a = np.prod([qd.a ** l for qd, l in zip(quadratics, charges)]) if quadratics else 1.0
    x = A * _poly_from_roots(alphas, charges)
    y = (prod_a / A) * _poly_from_roots(betas, charges)
    return FactorPair(x, y, np.exp(1j * phase), tuple(alphas), tuple(betas), tuple(charges))


def _root_form(lead, roots, mults, zeta):
    out = lead
    for r, m in zip(roots, mults):
        out = out * (zeta - r) ** m
    return out


def _poly_from_roots(roots, mults) -> np.ndarray:
    out = np.array([1.0 + 0j])
    for r, m in zip(roots, mults):
        for _ in range(m):
            out = npoly.polymul(out, np.array([-r, 1.0], dtype=complex))
    return np.asarray(out, dtype=complex)


@dataclass(frozen=True)
class DivisorPoint:
    """One point of the divisor: chart root, multiplicity, and the
    oriented geodesic it selects in the ambient coordinates."""

    zeta: complex
    multiplicity: int
    geodesic: OrientedGeodesic


def multiset_distance(a, b) -> float:
    """Largest |a_i - b_j| over the pairs of a minimum-total-distance
    matching of two multisets of complex numbers (0 for two empty ones,
    inf when their sizes differ).  Unlike pairing by sorted order, no
    rounding boundary between nearby values can mis-pair them.  scipy's
    assignment solver is imported on the first call, so that importing
    the package does not load scipy."""
    from scipy.optimize import linear_sum_assignment

    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.size != b.size:
        return math.inf
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max(initial=0.0))


@dataclass(frozen=True)
class SpectralDataC1:
    """Point of the charge-1 moduli space over a singular configuration:
    monopole location q, mass, the lifted pair (x, y) in the q-adapted
    trivialization with the restricted quadratics it factorizes, and the
    divisor selecting geodesic orientations."""

    q: PointUHS
    mass: float
    pair: FactorPair
    quadratics: tuple[QuadraticRestriction, ...]
    divisor: tuple[DivisorPoint, ...]
    chart: LineChart

    def divisor_supports_disjoint(self, tol: float = 1e-9) -> bool:
        """Support of D and its sigma image never meet."""
        for d in self.divisor:
            for e in self.divisor:
                if abs(tau(d.zeta) - e.zeta) < tol:
                    return False
        return True

    def divisor_doubling_defect(self) -> float:
        """Multiset defect of D + sigma(D) against the divisor of the
        restricted squared section (exact on root multisets)."""
        got = []
        for d in self.divisor:
            got += [d.zeta] * d.multiplicity
            got += [tau(d.zeta)] * d.multiplicity
        want = []
        for a, b, m in zip(self.pair.alphas, self.pair.betas, self.pair.multiplicities):
            want += [a] * m + [b] * m
        return multiset_distance(got, want)

    def product_residual(self, n: int = 64) -> float:
        """Relative residual of x y against the restricted section
        prod q_i^{l_i} on an n-point unit-circle grid of the line of q."""
        zs = np.exp(2j * math.pi * np.arange(n) / n)
        target = np.ones_like(zs)
        for qd, m in zip(self.quadratics, self.pair.multiplicities):
            target = target * qd(zs) ** m
        scale = max(float(np.max(np.abs(target))), 1e-300)
        return float(np.max(np.abs(self.pair.product_at(zs) - target))) / scale


def lift_twistor_line(q: PointUHS, V: MultiCenterPotential,
                      phase: float = 0.0) -> SpectralDataC1:
    """Lift the line of q into the total space cut out by the
    multi-center section (xy = product of center sections).

    V must already carry the charge-1 moduli bookkeeping (lambda = 1+2m
    and doubled charges, see MultiCenterPotential.for_su2_charge1).  The
    result holds the chart pair (x, y) in the q-adapted trivialization
    (the line trivialization of the mass bundle restricts to a positive
    constant there, so real powers are unambiguous and taken to be 1)
    and the divisor of x with its geodesic orientations.
    """
    for c in V.centers:
        if hyp.dist(q, c) < 1e-10:
            raise DegenerateRestrictionError("q coincides with a singular center")
    last_exc: Exception | None = None
    for su2 in CHART_ROTATIONS:
        chart = LineChart(q, su2)
        try:
            quadratics = tuple(chart.quadratic(c) for c in V.centers)
            pair = factor(quadratics, V.charges, phase=phase)
        except ChartRotationRequired as exc:
            last_exc = exc
            continue
        divisor = tuple(
            DivisorPoint(zeta=a, multiplicity=m, geodesic=chart.root_to_geodesic(a))
            for a, m in zip(pair.alphas, pair.multiplicities))
        return SpectralDataC1(q=q, mass=V.mass, pair=pair, quadratics=quadratics,
                              divisor=divisor, chart=chart)
    raise last_exc if last_exc is not None else RuntimeError("no admissible chart")


def genus_of_spectral_curve(k: int) -> int:
    """Genus of a smooth charge-k spectral curve: (k-1)^2."""
    if k < 1:
        raise ValueError("charge must be a positive integer")
    return (k - 1) ** 2
