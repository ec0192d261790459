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

from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential, OrientedGeodesic, PointUHS
from .projective import (INFINITY, ExtendedComplex, chordal_homogeneous, node_powers,
                         roots_of_unity)
from .twistor import CHART_ROTATIONS

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
    transport A is formed once, as four Python complexes; the methods
    work on Python scalars, cheaper than numpy calls at a few centers.
    """

    q: PointUHS
    su2: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    @cached_property
    def transport(self) -> tuple[complex, complex, complex, complex]:
        """(A00, A01, A10, A11) of A = su2 h^-1, h = (Q + I) / sqrt(tr Q + 2) the positive
        square root of the det-1 matrix Q of q = (x, y, z); h^-1, the adjugate of h, is
        [[1 + 1/z, -(x - iy)/z], [-(x + iy)/z, 1 + |q|^2/z]] / sqrt(2 + (|q|^2 + 1)/z)."""
        x, y, z = self.q.x, self.q.y, self.q.z
        s = x * x + y * y + z * z
        r = 1.0 / math.sqrt(2.0 + (s + 1.0) / z)
        h00, h01, h11 = (1.0 + 1.0 / z) * r, complex(-x, y) / z * r, (1.0 + s / z) * r
        (u00, u01), (u10, u11) = self.su2.tolist()
        return (u00 * h00 + u01 * h01.conjugate(), u00 * h01 + u01 * h11,
                u10 * h00 + u11 * h01.conjugate(), u10 * h01 + u11 * h11)

    def quadratics(self, centers) -> tuple["QuadraticRestriction", ...]:
        """Quadratics cut out on the line of q by the sections of the centers,
        (n, 3) rows of points.  A center c = (x, y, z) has point matrix P =
        [[d, w], [w*, 1/z]], d = |c|^2 / z, w = (x - iy) / z; with A = [[p, q], [r, t]],
        M = A P A^dagger gives a = M01 = p r* d + q t* / z + p t* w + q r* w* and
        b = (M11 - M00) / 2 = (|r|^2 - |p|^2) d / 2 + (|t|^2 - |q|^2) / 2z + Re((r t* - p q*) w)."""
        p, q, r, t = self.transport
        pr, qt, pt, qr = p * r.conjugate(), q * t.conjugate(), p * t.conjugate(), q * r.conjugate()
        b_d, b_z = (abs(r) ** 2 - abs(p) ** 2) / 2, (abs(t) ** 2 - abs(q) ** 2) / 2
        b_w = r * t.conjugate() - p * q.conjugate()
        out = []
        for x, y, z in np.asarray(centers, dtype=float).reshape(-1, 3).tolist():
            d, w = (x * x + y * y + z * z) / z, complex(x, -y) / z
            out.append(QuadraticRestriction(pr * d + qt / z + pt * w + qr * w.conjugate(),
                                            b_d * d + b_z / z + (b_w * w).real))
        return tuple(out)

    def geodesics(self, zetas) -> tuple[OrientedGeodesic, ...]:
        """Geodesics through q with finite chart coordinates zetas, ends
        transported back by B = A^-1 = [[b0, b1], [b2, b3]].  A chart value v has
        null matrix ~ w w^dagger, w = (conj v, 1), so the forward end is
        (c0 v + c1) / (c2 v + c3) with c = conj(b); the backward end tau(v)
        has w ~ (-1, v), so it is (c1 conj(v) - c0) / (c3 conj(v) - c2)."""
        p, q, r, t = self.transport
        c0, c1, c2, c3 = t.conjugate(), -q.conjugate(), -r.conjugate(), p.conjugate()
        def endpoint(num, den):  # infinite within rounding, |den|^2 < 1e-28 (|num|^2 + |den|^2)
            d2 = abs(den) ** 2
            return INFINITY if d2 < 1e-28 * (abs(num) ** 2 + d2) else ExtendedComplex(num / den)
        return tuple(OrientedGeodesic(start=endpoint(c1 * v.conjugate() - c0, c3 * v.conjugate() - c2),
                                      end=endpoint(c0 * v + c1, c2 * v + c3))
                     for v in map(complex, zetas))


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
    def roots(self) -> tuple[complex, complex]:
        """(alpha, beta) from one delta; alpha beta = -conj(a) / a spares cancelling b and delta."""
        a, b, d = self.a, self.b, self.delta
        if abs(a) < 1e-14:
            raise ChartRotationRequired("a = 0: root at the chart pole")
        if b < 0:
            return (d - b) / a, -a.conjugate() / (d - b)
        return a.conjugate() / (b + d), -(b + d) / a

    def __call__(self, zeta):
        return (self.a * zeta + 2 * self.b) * zeta - self.a.conjugate()


def restrict_to_line(center: PointUHS, q: PointUHS,
                     su2: np.ndarray | None = None) -> QuadraticRestriction:
    """Quadratic cut out on the line of q by the section of a center.
    The roots are the two oriented geodesics through q and the center."""
    chart = LineChart(q) if su2 is None else LineChart(q, su2)
    return chart.quadratics(center.as_array()[None])[0]


def antipodal_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of p*(zeta) = conj(p(tau(zeta))) zeta^l for a
    degree-l polynomial p; the chart weight convention is +zeta^l."""
    c = np.asarray(coeffs, dtype=complex)
    l = len(c) - 1
    return ((-1.0) ** (l - np.arange(l + 1))) * np.conj(c[::-1])


@dataclass(frozen=True)
class FactorPair:
    """Factorization x(zeta) y(zeta) of a product of quadratics with x = y*
    (antipodal conjugate), up to the U(1) gauge `phase`, held in root form:
    x = lead_x prod (zeta - alpha_i)^{l_i}, y = lead_y prod (zeta - beta_i)^{l_i},
    accurate at high degree where coefficients round.  x and y are built on first read."""

    lead_x: complex
    lead_y: complex
    phase: complex
    alphas: tuple[complex, ...]
    betas: tuple[complex, ...]
    multiplicities: tuple[int, ...]

    x = cached_property(lambda self: self.lead_x * _poly_from_roots(self.alphas, self.multiplicities))
    y = cached_property(lambda self: self.lead_y * _poly_from_roots(self.betas, self.multiplicities))

    def x_at(self, zeta):
        return _root_form(self.lead_x, self.alphas, self.multiplicities, zeta)

    def y_at(self, zeta):
        return _root_form(self.lead_y, self.betas, self.multiplicities, zeta)

    def product_at(self, zeta):
        return self.x_at(zeta) * self.y_at(zeta)

    def reality_defect(self, n: int = 128) -> float:
        """Max relative defect of x = y* at the n unit-circle nodes, where tau(zeta) = -zeta
        and y*(zeta) = conj(y(-zeta)) zeta^l: x(zeta) and y(-zeta) = (-1)^l lead_y
        prod (zeta + beta_i)^{l_i} in one root-form pass, zeta^l from the node powers."""
        zs, l = roots_of_unity(n), sum(self.multiplicities)
        roots = np.array([self.alphas, [-b for b in self.betas]], dtype=complex).T[:, :, None]
        x, y = _root_form(np.array([[self.lead_x], [(-1) ** l * self.lead_y]]), roots,
                          self.multiplicities, zs)
        defect = np.abs(x - y.conjugate() * node_powers(n, l)[l]).max()
        return float(defect) / max(float(np.abs(x).max()), 1e-300)


def factor(quadratics, charges, phase: float = 0.0) -> FactorPair:
    """Split a product of quadratics into x = A prod (zeta - alpha_i)^{l_i}
    and y = B prod (zeta - beta_i)^{l_i} with A B = prod a_i^{l_i} and
    x = y*; unique up to the U(1) phase.

    Since a_i beta_i = -(b_i + delta_i) is real, (zeta - beta_i)* equals
    -conj(beta_i) (zeta - alpha_i), and x = y* fixes the modulus
    |A|^2 = prod |a_i beta_i|^{l_i}, positive wherever the roots are
    defined (delta_i = hypot(b_i, |a_i|) > -b_i unless a_i = 0).
    """
    quadratics = list(quadratics)
    charges = [int(l) for l in charges]
    if len(quadratics) != len(charges):
        raise ValueError("need one charge per quadratic")
    alphas, betas = tuple(zip(*(qd.roots for qd in quadratics))) or ((), ())
    mod2 = math.prod(abs(qd.a * b) ** l for qd, b, l in zip(quadratics, betas, charges))
    A = math.sqrt(mod2) * cmath.exp(1j * phase)
    prod_a = math.prod(qd.a ** l for qd, l in zip(quadratics, charges))
    return FactorPair(A, prod_a / A, cmath.exp(1j * phase), alphas, betas, tuple(charges))


def _ipow(z, m: int):
    """z ** m for an integer m >= 1 by repeated squaring: numpy's complex ** is a slow generic loop."""
    out = z if m & 1 else None
    while m := m >> 1:
        z = z * z
        if m & 1:
            out = z if out is None else out * z
    return out


def _root_form(lead, roots, mults, zeta):
    out = lead
    for r, m in zip(roots, mults):
        out = out * _ipow(zeta - r, m)
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
    """One point of the divisor: chart root, multiplicity, and the line chart of q;
    the oriented geodesic it selects in the ambient coordinates is built on first read."""

    zeta: complex
    multiplicity: int
    chart: LineChart = field(compare=False, repr=False)

    geodesic = cached_property(lambda self: self.chart.geodesics((self.zeta,))[0])


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
        """Support of D and its sigma image tau(zeta) = (-1 : conj zeta) stay chordally tol apart."""
        return all(chordal_homogeneous(-1.0, d.zeta.conjugate(), e.zeta, 1.0) >= tol
                   for d in self.divisor for e in self.divisor)

    def divisor_doubling_defect(self) -> float:
        """Defect of D + sigma(D) against the divisor of the restricted
        section.  Divisor point i and quadratic i come from the same
        center, so zeta_i pairs with alpha_i and tau(zeta_i) with beta_i:
        the largest of their chordal distances, with tau(zeta) = (-1 : conj zeta)
        so that no chart enters, nor tau(0) = inf; inf when the counts or a
        multiplicity differ."""
        p = self.pair
        if [d.multiplicity for d in self.divisor] != list(p.multiplicities):
            return math.inf
        return max((max(chordal_homogeneous(d.zeta, 1.0, a, 1.0),
                        chordal_homogeneous(-1.0, d.zeta.conjugate(), b, 1.0))
                    for d, a, b in zip(self.divisor, p.alphas, p.betas)), default=0.0)

    def product_residual(self, n: int = 64) -> float:
        """Relative residual of x y = lead_x lead_y prod ((zeta - alpha_i)(zeta - beta_i))^{l_i} against
        prod q_i^{l_i} at n unit-circle nodes, each center's two rows from one node-power product."""
        p = self.pair
        rows = np.array([((-qd.a.conjugate(), 2.0 * qd.b, qd.a), (a * b, -(a + b), 1.0))
                         for qd, a, b in zip(self.quadratics, p.alphas, p.betas)]) @ node_powers(n, 2)
        target, xy = math.prod(map(_ipow, rows, p.multiplicities))
        scale = max(float(np.max(np.abs(target))), 1e-300)
        return float(np.max(np.abs(p.lead_x * p.lead_y * xy - target))) / scale


def lift_twistor_line(q: PointUHS, V: MultiCenterPotential,
                      phase: float = 0.0) -> SpectralDataC1:
    """Lift the line of q into the total space cut out by the
    multi-center section (xy = product of center sections).

    V must already carry the charge-1 moduli bookkeeping (lambda = 1+2m
    and doubled charges, see MultiCenterPotential.for_su2_charge1).  The
    result holds the chart pair (x, y) in the q-adapted trivialization
    (the line trivialization of the mass bundle restricts to a positive
    constant there, so real powers are unambiguous and taken to be 1)
    and the divisor of x; each divisor point builds its geodesic orientation on first read.
    """
    if any(hyp.dist(q, c) < 1e-10 for c in V.centers):   # RunConfig.load refuses these too
        raise DegenerateRestrictionError("q coincides with a singular center")
    centers = [(c.x, c.y, c.z) for c in V.centers]
    for su2 in CHART_ROTATIONS:
        chart = LineChart(q, su2)
        try:
            quadratics = chart.quadratics(centers)
            pair = factor(quadratics, V.charges, phase=phase)
            break
        except ChartRotationRequired:
            if su2 is CHART_ROTATIONS[-1]:
                raise
    divisor = tuple(DivisorPoint(a, m, chart) for a, m in zip(pair.alphas, pair.multiplicities))
    return SpectralDataC1(q=q, mass=V.mass, pair=pair, quadratics=quadratics,
                          divisor=divisor, chart=chart)


def genus_of_spectral_curve(k: int) -> int:
    """Genus of a smooth charge-k spectral curve: (k-1)^2."""
    if k < 1:
        raise ValueError("charge must be a positive integer")
    return (k - 1) ** 2
