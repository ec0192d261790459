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

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import numpy.polynomial.polynomial as npoly

from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential, OrientedGeodesic, PointUHS
from .projective import INFINITY, ExtendedComplex, roots_of_unity, tau
from .twistor import CHART_ROTATIONS, BiDegreeSection, matrix_point, point_matrix

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
    transport A and its inverse are computed once, on first use; each
    method moves a batch by one A P A^dagger product over a stack.
    """

    q: PointUHS
    su2: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    @cached_property
    def _transport(self) -> tuple[np.ndarray, np.ndarray]:
        # A = su2 h^-1 with h = (Q + I) / sqrt(tr Q + 2) the positive square
        # root of the det-1 matrix Q of q; h^-1 is the adjugate of h, the
        # same form with the spatial part negated, and su2^-1 = su2^dagger
        Y = hyp.embed(self.q) + [1.0, 0.0, 0.0, 0.0]
        s = math.sqrt(2.0 * Y[0])
        return (self.su2 @ point_matrix(Y * [1.0, -1.0, -1.0, -1.0]) / s,
                point_matrix(Y) @ self.su2.conj().T / s)

    def quadratics(self, centers: np.ndarray) -> tuple["QuadraticRestriction", ...]:
        """Quadratics cut out on the line of q by the sections of the
        centers, an (n, 3) array of points: in the q-centered frame a
        center X gives a = X1 - i X2 and b = -X3."""
        A, _ = self._transport
        X = A @ point_matrix(hyp.embed(centers)) @ A.conj().T
        a = X[:, 0, 1].tolist()
        b = ((X[:, 1, 1].real - X[:, 0, 0].real) / 2).tolist()
        return tuple(QuadraticRestriction(ai, bi) for ai, bi in zip(a, b))

    def geodesics(self, zetas) -> tuple[OrientedGeodesic, ...]:
        """Geodesics through q with finite chart coordinates zetas:
        forward endpoint zeta and backward endpoint tau(zeta), whose
        sphere image is minus that of zeta, both transported back."""
        _, B = self._transport
        v = np.asarray(zetas, dtype=complex).reshape(-1)
        m = np.abs(v) ** 2
        n = np.stack([2 * v.real, 2 * v.imag, m - 1.0], axis=-1) / (m + 1.0)[:, None]
        null = np.concatenate([np.ones((2, len(v), 1)), [n, -n]], axis=-1)  # forward, backward
        N = B @ point_matrix(null) @ B.conj().T
        pole = np.abs(N[..., 1, 1]) < 1e-13 * np.abs(N[..., 0, 0] + N[..., 1, 1])
        ends = np.conj(N[..., 0, 1] / np.where(pole, 1.0, N[..., 1, 1]))
        end, start = ([INFINITY if p else ExtendedComplex(e) for p, e in zip(*row)]
                      for row in zip(pole.tolist(), ends.tolist()))
        return tuple(map(OrientedGeodesic, start, end))


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

    def __call__(self, zeta):
        return (self.a * zeta + 2 * self.b) * zeta - self.a.conjugate()


def restrict_to_line(center, q: PointUHS, su2: np.ndarray | None = None) -> QuadraticRestriction:
    """Quadratic cut out on the line of q by the section of a center.

    `center` may be a PointUHS or a (1,1) BiDegreeSection of one (the
    center is then read off the coefficients).  The roots are the two
    oriented geodesics through q and the center.
    """
    if isinstance(center, BiDegreeSection):
        center = center_of_line_section(center)
    chart = LineChart(q) if su2 is None else LineChart(q, su2)
    return chart.quadratics(center.as_array()[None])[0]


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


def antipodal_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of p*(zeta) = conj(p(tau(zeta))) zeta^l for a
    degree-l polynomial p; the chart weight convention is +zeta^l."""
    c = np.asarray(coeffs, dtype=complex)
    l = len(c) - 1
    return ((-1.0) ** (l - np.arange(l + 1))) * np.conj(c[::-1])


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
        zs = roots_of_unity(n)
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
    A = math.sqrt(mod2) * cmath.exp(1j * phase)
    prod_a = math.prod(qd.a ** l for qd, l in zip(quadratics, charges))
    x = A * _poly_from_roots(alphas, charges)
    y = (prod_a / A) * _poly_from_roots(betas, charges)
    return FactorPair(x, y, cmath.exp(1j * phase), tuple(alphas), tuple(betas), tuple(charges))


def _root_form(lead, roots, mults, zeta):
    out = lead
    for r, m in zip(roots, mults):
        out = out * (zeta - r) ** m
    return out


def _poly_from_roots(roots, mults) -> np.ndarray:
    """Ascending coefficients of prod (zeta - r)^m, on Python scalars."""
    c = [1.0 + 0j]
    for r, m in zip(roots, mults):
        for _ in range(m):
            c = [lo - r * hi for lo, hi in zip([0j] + c, c + [0j])]
    return np.array(c, dtype=complex)


@dataclass(frozen=True)
class DivisorPoint:
    """One point of the divisor: chart root, multiplicity, and the
    oriented geodesic it selects in the ambient coordinates."""

    zeta: complex
    multiplicity: int
    geodesic: OrientedGeodesic


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
        """Defect of D + sigma(D) against the divisor of the restricted
        section.  Divisor point i and quadratic i come from the same
        center, so zeta_i pairs with alpha_i and tau(zeta_i) with beta_i:
        the largest of those distances, inf when the counts or a
        multiplicity differ."""
        p = self.pair
        if [d.multiplicity for d in self.divisor] != list(p.multiplicities):
            return math.inf
        return max((float(max(abs(d.zeta - a), abs(tau(d.zeta) - b)))
                    for d, a, b in zip(self.divisor, p.alphas, p.betas)), default=0.0)

    def product_residual(self, n: int = 64) -> float:
        """Relative residual of x y against the restricted section
        prod q_i^{l_i} on an n-point unit-circle grid of the line of q."""
        zs = roots_of_unity(n)
        target = math.prod((qd(zs) ** m for qd, m in zip(self.quadratics, self.pair.multiplicities)),
                           start=np.ones_like(zs))
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
    centers = np.array([c.as_array() for c in V.centers], dtype=float).reshape(-1, 3)
    if np.any(hyp.dist(q, centers) < 1e-10):
        raise DegenerateRestrictionError("q coincides with a singular center")
    for su2 in CHART_ROTATIONS:
        chart = LineChart(q, su2)
        try:
            quadratics = chart.quadratics(centers)
            pair = factor(quadratics, V.charges, phase=phase)
            break
        except ChartRotationRequired:
            if su2 is CHART_ROTATIONS[-1]:
                raise
    divisor = tuple(
        DivisorPoint(zeta=a, multiplicity=m, geodesic=g)
        for a, m, g in zip(pair.alphas, pair.multiplicities, chart.geodesics(pair.alphas)))
    return SpectralDataC1(q=q, mass=V.mass, pair=pair, quadratics=quadratics,
                          divisor=divisor, chart=chart)


def genus_of_spectral_curve(k: int) -> int:
    """Genus of a smooth charge-k spectral curve: (k-1)^2."""
    if k < 1:
        raise ValueError("charge must be a positive integer")
    return (k - 1) ** 2
