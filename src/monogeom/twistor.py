"""The space of oriented geodesics of hyperbolic 3-space.

Fixing the base point O = (0,0,1), an oriented geodesic is encoded by a
pair of chart values (z, w): z is the boundary chart value of the
forward endpoint and w the antipodal image of the backward one.  The
geodesics through O then form the diagonal z = w, the excluded
anti-diagonal w = tau(z) corresponds to degenerate (coincident-endpoint)
pairs, and reversing orientation is the fixed-point-free involution
sigma(z, w) = (tau(w), tau(z)).

The set of geodesics through a point x is cut out by a bidegree-(1,1)
polynomial section with an exact coefficient formula in terms of the
hyperboloid coordinates of x; products of those sections are the
multi-center sections used by the spectral-data machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential, OrientedGeodesic, PointUHS
from .projective import ExtendedComplex

__all__ = [
    "TwistorPoint",
    "BiDegreeSection",
    "from_geodesic",
    "to_geodesic",
    "sigma",
    "theta01",
    "twistor_line_section",
    "ptilde",
    "closest_point",
    "closest_point_chart",
    "closest_point_wirtinger",
    "cosh_rho_endpoints",
    "gamma_L_integral",
    "point_matrix",
    "matrix_point",
    "sqrtm_det1",
]


@dataclass(frozen=True)
class TwistorPoint:
    """Oriented geodesic in endpoint-chart coordinates (z, w)."""

    z: ExtendedComplex
    w: ExtendedComplex

    def __post_init__(self):
        object.__setattr__(self, "z", ExtendedComplex.of(self.z))
        object.__setattr__(self, "w", ExtendedComplex.of(self.w))
        if self.z.isclose(self.w.antipode(), tol=1e-14):
            raise ValueError("anti-diagonal pair does not define a geodesic")

    @staticmethod
    def of(z, w) -> "TwistorPoint":
        return TwistorPoint(ExtendedComplex.of(z), ExtendedComplex.of(w))

    @property
    def finite(self) -> bool:
        return self.z.finite and self.w.finite


def from_geodesic(g: OrientedGeodesic) -> TwistorPoint:
    return TwistorPoint(g.end, g.start.antipode())


def to_geodesic(p: TwistorPoint) -> OrientedGeodesic:
    return OrientedGeodesic(start=p.w.antipode(), end=p.z)


def sigma(p: TwistorPoint) -> TwistorPoint:
    """Orientation reversal: (z, w) -> (tau(w), tau(z)).  Involution,
    no fixed points, maps every set of geodesics through a point to itself."""
    return TwistorPoint(p.w.antipode(), p.z.antipode())


# ---------------------------------------------------------------------------
# spinor-style 2x2 matrix coordinates on the hyperboloid
# ---------------------------------------------------------------------------

def point_matrix(X: np.ndarray) -> np.ndarray:
    """Hermitian 2x2 matrix of a Minkowski 4-vector, det = -<X,X>."""
    return np.array([[X[0] + X[3], X[1] - 1j * X[2]],
                     [X[1] + 1j * X[2], X[0] - X[3]]])


def matrix_point(M: np.ndarray) -> np.ndarray:
    """Inverse of `point_matrix`."""
    return np.array([(M[0, 0].real + M[1, 1].real) / 2, M[0, 1].real,
                     -M[0, 1].imag, (M[0, 0].real - M[1, 1].real) / 2])


def sqrtm_det1(A: np.ndarray) -> np.ndarray:
    """Square root of a positive Hermitian 2x2 matrix with det 1."""
    return (A + np.eye(2)) / math.sqrt(np.trace(A).real + 2.0)


# ---------------------------------------------------------------------------
# bidegree sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiDegreeSection:
    """Polynomial section of O(a,b): sum_{j,k} c[j,k] z^j w^k in the
    standard chart, with explicit coefficient-reversal chart swaps."""

    coeffs: np.ndarray  # (a+1, b+1) complex

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", c)

    @property
    def degrees(self) -> tuple[int, int]:
        return self.coeffs.shape[0] - 1, self.coeffs.shape[1] - 1

    def __call__(self, z, w):
        zp = np.vander(np.atleast_1d(np.asarray(z, dtype=complex)),
                       self.coeffs.shape[0], increasing=True)
        wp = np.vander(np.atleast_1d(np.asarray(w, dtype=complex)),
                       self.coeffs.shape[1], increasing=True)
        out = np.einsum("ij,jk,ik->i", zp, self.coeffs, wp)
        return out[0] if np.isscalar(z) and np.isscalar(w) else out

    def __mul__(self, other: "BiDegreeSection") -> "BiDegreeSection":
        a1, b1 = self.degrees
        a2, b2 = other.degrees
        out = np.zeros((a1 + a2 + 1, b1 + b2 + 1), dtype=complex)
        for j in range(a1 + 1):
            for k in range(b1 + 1):
                out[j:j + a2 + 1, k:k + b2 + 1] += self.coeffs[j, k] * other.coeffs
        return BiDegreeSection(out)

    def __pow__(self, n: int) -> "BiDegreeSection":
        if n < 0:
            raise ValueError("nonnegative powers only")
        out = BiDegreeSection(np.ones((1, 1), dtype=complex))
        for _ in range(n):
            out = out * self
        return out

    def restrict_diagonal(self) -> np.ndarray:
        """Coefficients (ascending) of p(zeta, zeta), a degree a+b polynomial."""
        a, b = self.degrees
        out = np.zeros(a + b + 1, dtype=complex)
        for j in range(a + 1):
            out[j:j + b + 1] += self.coeffs[j]
        return out

    def chart_swap_z(self) -> "BiDegreeSection":
        """Coefficients in the chart z -> 1/z (weighted reversal)."""
        return BiDegreeSection(self.coeffs[::-1, :].copy())

    def sigma_conjugate(self) -> "BiDegreeSection":
        """Pullback under sigma composed with conjugation and chart weight.

        Sends O(a,b) sections to O(b,a) sections; a section with a = b is
        called sigma-real when this returns (-1)^a times itself.
        """
        a, b = self.degrees
        out = np.empty((b + 1, a + 1), dtype=complex)
        for j in range(b + 1):
            for k in range(a + 1):
                out[j, k] = (-1.0) ** (a + b - j - k) * np.conj(self.coeffs[a - k, b - j])
        return BiDegreeSection(out)

    def sigma_reality_defect(self) -> float:
        """Max coefficient defect of the sigma-reality condition."""
        a, b = self.degrees
        if a != b:
            return float("inf")
        target = (-1.0) ** a * self.coeffs
        return float(np.max(np.abs(self.sigma_conjugate().coeffs - target)))

    def is_sigma_real(self, tol: float = 1e-10) -> bool:
        scale = max(float(np.max(np.abs(self.coeffs))), 1e-300)
        return self.sigma_reality_defect() <= tol * scale

    def normalize_phase(self) -> "BiDegreeSection":
        """Canonical representative of the C* (or R* for sigma-real) ray.

        The coefficient scanned first in (total degree, z-degree) order is
        rotated to the positive real axis; for sigma-real sections only a
        sign flip is allowed, so the scanned coefficient gets a positive
        real part (positive imaginary part if its real part vanishes).
        """
        c = self.coeffs
        a, b = self.degrees
        order = sorted(((j, k) for j in range(a + 1) for k in range(b + 1)),
                       key=lambda jk: (-(jk[0] + jk[1]), -jk[0]))
        scale = max(float(np.max(np.abs(c))), 1e-300)
        lead = next(((j, k) for j, k in order if abs(c[j, k]) > 1e-13 * scale), None)
        if lead is None:
            return self
        v = c[lead]
        if self.is_sigma_real():
            s = 1.0
            if abs(v.real) > 1e-13 * abs(v):
                s = math.copysign(1.0, v.real)
            elif v.imag < 0:
                s = -1.0
            return BiDegreeSection(c * s)
        return BiDegreeSection(c * (np.conj(v) / abs(v)))


def twistor_line_section(x: PointUHS) -> BiDegreeSection:
    """The sigma-real (1,1) section whose zero set is exactly the
    geodesics through x.

    Closed form: with X the hyperboloid vector of x,
    p(z, w) = (X1 - i X2) z w + (X0 - X3) z - (X0 + X3) w - (X1 + i X2).
    For x = O this is z - w.
    """
    X = hyp.embed(x)
    c = np.empty((2, 2), dtype=complex)
    c[1, 1] = X[1] - 1j * X[2]
    c[1, 0] = X[0] - X[3]
    c[0, 1] = -(X[0] + X[3])
    c[0, 0] = -(X[1] + 1j * X[2])
    return BiDegreeSection(c)


def ptilde(V: MultiCenterPotential) -> BiDegreeSection:
    """Product of the twistor-line sections of the centers, with their
    charges as exponents: a sigma-real section of O(l, l), l the total
    charge."""
    out = BiDegreeSection(np.ones((1, 1), dtype=complex))
    for c, l in zip(V.centers, V.charges):
        out = out * (twistor_line_section(c) ** l)
    return out


# ---------------------------------------------------------------------------
# the natural 1-form
# ---------------------------------------------------------------------------

def theta01(z: complex, w: complex) -> tuple[complex, complex]:
    """(0,1) part of the tautological 1-form in the finite chart.

    Returns the coefficients of (dzbar, dwbar):
    (z - w) / ((1 + z zbar)(1 + zbar w)) and
    (z - w) / ((1 + w wbar)(1 + z wbar)).
    Vanishes on the diagonal; singular on the anti-diagonal.
    """
    z = complex(z)
    w = complex(w)
    d1 = (1 + z * np.conj(z)) * (1 + np.conj(z) * w)
    d2 = (1 + w * np.conj(w)) * (1 + z * np.conj(w))
    if min(abs(d1), abs(d2)) < 1e-14:
        raise ZeroDivisionError("theta is singular on the anti-diagonal")
    return ((z - w) / d1, (z - w) / d2)


# ---------------------------------------------------------------------------
# closest-point map
# ---------------------------------------------------------------------------

def closest_point_chart(z: complex, w: complex) -> PointUHS:
    """Finite-chart formula for the point of the geodesic (z, w) closest
    to O: mu ((1+|w|^2) z - (1+|z|^2) w, sqrt((1+|z|^2)(1+|w|^2)) |1+z wbar|)
    with mu = 1/(1 + 2|w|^2 + |z w|^2)."""
    z = complex(z)
    w = complex(w)
    mu = 1.0 / (1.0 + 2.0 * abs(w) ** 2 + abs(z * w) ** 2)
    horiz = mu * ((1 + abs(w) ** 2) * z - (1 + abs(z) ** 2) * w)
    vert = mu * math.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2)) * abs(1 + z * np.conj(w))
    return PointUHS(horiz.real, horiz.imag, vert)


_CHART_ROTATIONS = None


def _chart_rotations():
    global _CHART_ROTATIONS
    if _CHART_ROTATIONS is None:
        mats = [np.eye(4)]
        for axis, angle in (((1.0, 0.3, 0.2), 1.1), ((0.2, 1.0, -0.4), 0.8),
                            ((-0.5, 0.4, 1.0), 1.9)):
            a = np.asarray(axis) / np.linalg.norm(axis)
            K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
            R = np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)
            L = np.eye(4)
            L[1:, 1:] = R
            mats.append(L)
        _CHART_ROTATIONS = mats
    return _CHART_ROTATIONS


def _rotate_boundary(L: np.ndarray, u: ExtendedComplex) -> ExtendedComplex:
    return hyp.boundary_chart_of_null(L @ hyp.null_vector(u))


def closest_point(p: TwistorPoint) -> PointUHS:
    """Point of the geodesic p closest to O.

    Uses the finite-chart closed form; coordinates at infinity are
    handled by rotating about O into a finite chart and rotating the
    resulting point back (rotations about O act on both chart values by
    the same boundary action and commute with the construction).
    """
    if p.finite:
        return closest_point_chart(p.z.value, p.w.value)
    for L in _chart_rotations():
        z1 = _rotate_boundary(L, p.z)
        w1 = _rotate_boundary(L, p.w)
        if z1.finite and w1.finite:
            q = closest_point_chart(z1.value, w1.value)
            return hyp.apply_lorentz(L.T, q)
    raise RuntimeError("no finite chart found (unreachable)")


def closest_point_wirtinger(z: complex, w: complex, h: float = 1e-3) -> np.ndarray:
    """Wirtinger Jacobian of the closest-point map in the finite chart.

    Returns a (3, 4) array: rows are the components (x, y, height) of
    the map, columns the derivatives with respect to (z, zbar, w, wbar),
    computed by complex-step differentiation of the analytic
    polarization (z, zbar, w, wbar treated as independent variables).
    """
    from .numdiff import holo_partial

    def pol(zz, zzb, ww, wwb):
        mu = 1.0 / (1.0 + 2.0 * ww * wwb + zz * zzb * ww * wwb)
        horiz = mu * ((1.0 + ww * wwb) * zz - (1.0 + zz * zzb) * ww)
        horizb = mu * ((1.0 + ww * wwb) * zzb - (1.0 + zz * zzb) * wwb)
        rad = (1.0 + zz * zzb) * (1.0 + ww * wwb) * (1.0 + zz * wwb) * (1.0 + zzb * ww)
        vert = mu * np.sqrt(rad)
        return np.array([(horiz + horizb) / 2.0, (horiz - horizb) / 2j, vert])

    args = (complex(z), complex(np.conj(z)), complex(w), complex(np.conj(w)))
    cols = [holo_partial(pol, args, k, h=h) for k in range(4)]
    return np.stack(cols, axis=1)


def cosh_rho_endpoints(z, w) -> float:
    """cosh of the distance from O to the geodesic (z, w):
    sqrt((1+|z|^2)(1+|w|^2)) / |1 + z wbar|, with the chart-swapped
    limit when a coordinate is at infinity."""
    ze = ExtendedComplex.of(z)
    we = ExtendedComplex.of(w)
    if ze.isclose(we.antipode(), tol=1e-14):
        raise ZeroDivisionError("anti-diagonal: distance is infinite")
    if ze.finite and we.finite:
        zv, wv = ze.value, we.value
        return math.sqrt((1 + abs(zv) ** 2) * (1 + abs(wv) ** 2)) / abs(1 + zv * np.conj(wv))
    if not ze.finite and not we.finite:
        return 1.0
    v = we.value if ze.at_infinity else ze.value
    return math.sqrt(1 + abs(v) ** 2) / abs(v)


# ---------------------------------------------------------------------------
# the 4 pi i integral
# ---------------------------------------------------------------------------

def gamma_L_integral(radius: float | None = None) -> complex:
    """Integral of 2/(1+|zeta|^2)^2 over the plane (optionally a disc of
    the given radius) against the area pairing oriented so the full
    integral is +4 pi i.

    The integrand is radial, so the quadrature reduces to a 1-d radial
    integral done with adaptive quadrature.  The orientation convention
    (d zetabar wedge d zeta = +2i dx dy) is fixed here once; the
    opposite one flips the sign.
    """
    upper = np.inf if radius is None else radius
    val, _ = quad(lambda r: 2.0 * r * 2.0 / (1.0 + r * r) ** 2, 0.0, upper,
                  epsabs=1e-12, epsrel=1e-12)
    return 2j * math.pi * val


def gamma_L_integrand(zeta: complex) -> float:
    return 2.0 / (1.0 + abs(zeta) ** 2) ** 2
