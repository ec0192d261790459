"""Hyperbolic 3-space in the upper half-space model.

Points are (x, y, z) with z > 0 and metric (dx^2 + dy^2 + dz^2)/z^2.
Next to the chart we keep the hyperboloid picture: a point maps to a
unit timelike vector in Minkowski R^{1,3}, a boundary point to a null
ray, and every isometry to a Lorentz matrix.  Distances, geodesics,
Busemann functions, frames and the boundary 2-sphere of horospherical
gauges all have closed forms there, which is what the rest of the
package builds on.

All operations are pure functions of immutable values and can be called
from any number of threads or processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numdiff import derivatives, richardson
from .projective import INFINITY, ExtendedComplex

__all__ = [
    "PointUHS",
    "BoundaryPoint",
    "OrientedGeodesic",
    "MultiCenterPotential",
    "ORIGIN",
    "dist",
    "busemann",
    "horospherical_height",
    "green",
    "green_from_distance",
    "laplacian",
    "is_geodesically_trapped",
    "geodesic_point",
    "geodesic_tangent",
    "dist_to_geodesic",
    "embed",
    "unembed",
    "mdot",
    "null_vector",
    "boundary_chart_of_null",
    "tangent_toward",
    "tangent_toward_boundary",
    "point_at",
    "orthonormal_frame_at",
    "rotation_to_infinity",
    "apply_lorentz",
]

BoundaryPoint = ExtendedComplex
"""Points of the conformal boundary, as chart values of P^1."""

MINK = np.diag([-1.0, 1.0, 1.0, 1.0])


@dataclass(frozen=True)
class PointUHS:
    """Point of the upper half-space, z strictly positive."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (self.z > 0):
            raise ValueError(f"upper half-space requires z > 0, got z={self.z}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a) -> "PointUHS":
        a = np.asarray(a, dtype=float)
        return PointUHS(float(a[0]), float(a[1]), float(a[2]))


ORIGIN = PointUHS(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class OrientedGeodesic:
    """Oriented geodesic, stored by its two boundary endpoints.

    `start` is the backward limit point (t -> -infinity), `end` the
    forward one.  Coincident endpoints do not give a geodesic.
    """

    start: BoundaryPoint
    end: BoundaryPoint

    def __post_init__(self):
        if self.start.isclose(self.end, tol=1e-14):
            raise ValueError("start and end boundary points must differ")

    def reversed(self) -> "OrientedGeodesic":
        return OrientedGeodesic(self.end, self.start)


# ---------------------------------------------------------------------------
# hyperboloid embedding
# ---------------------------------------------------------------------------

def embed(p) -> np.ndarray:
    """Map UHS points (..., 3) to unit timelike vectors (..., 4)."""
    a = p.as_array() if isinstance(p, PointUHS) else np.asarray(p, dtype=float)
    x, y, z = a[..., 0], a[..., 1], a[..., 2]
    s = x * x + y * y + z * z
    return np.stack([(s + 1) / (2 * z), x / z, y / z, (s - 1) / (2 * z)], axis=-1)


def unembed(X) -> np.ndarray:
    """Inverse of `embed`; returns raw (..., 3) coordinate arrays."""
    X = np.asarray(X, dtype=float)
    z = 1.0 / (X[..., 0] - X[..., 3])
    return np.stack([X[..., 1] * z, X[..., 2] * z, z], axis=-1)


def mdot(a, b):
    """Minkowski pairing -a0*b0 + a.b on (..., 4) arrays."""
    a = np.asarray(a)
    b = np.asarray(b)
    return (-a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] + a[..., 3] * b[..., 3])


def null_vector(u: BoundaryPoint) -> np.ndarray:
    """Future null vector (1, n) of a boundary point, n its sphere image."""
    n = u.unit_sphere()
    return np.array([1.0, n[0], n[1], n[2]])


def boundary_chart_of_null(N) -> BoundaryPoint:
    """Chart value of a future null ray; inverse of `null_vector` up to scale."""
    N = np.asarray(N, dtype=float)
    den = N[0] - N[3]
    if abs(den) <= 1e-14 * abs(N[0]):
        return INFINITY
    return ExtendedComplex(complex(N[1] / den, N[2] / den))


def apply_lorentz(L: np.ndarray, p: PointUHS) -> PointUHS:
    return PointUHS.from_array(unembed(L @ embed(p)))


# ---------------------------------------------------------------------------
# distance, geodesics
# ---------------------------------------------------------------------------

def dist(p, q):
    """Hyperbolic distance 2 asinh(|p - q| / (2 sqrt(z_p z_q))); accepts
    PointUHS or raw (..., 3) arrays and stays accurate down to coincident
    points, where arccosh(1 + |p - q|^2 / (2 z_p z_q)) cancels."""
    a = p.as_array() if isinstance(p, PointUHS) else np.asarray(p, dtype=float)
    b = q.as_array() if isinstance(q, PointUHS) else np.asarray(q, dtype=float)
    d = np.sqrt(np.sum((a - b) ** 2, axis=-1))
    return 2.0 * np.arcsinh(d / (2.0 * np.sqrt(a[..., 2] * b[..., 2])))


def _geodesic_null_pair(g: OrientedGeodesic):
    Ne, Ns = null_vector(g.end), null_vector(g.start)
    ip = mdot(Ne, Ns)
    if ip >= -1e-15:
        raise ValueError("degenerate geodesic: coincident endpoints")
    return Ne, Ns, ip


def _geodesic_scaled(g: OrientedGeodesic, base: PointUHS):
    """Scaled null pair A, B with X(t) = e^t A + e^{-t} B, X(0) closest to base."""
    Ne, Ns, ip = _geodesic_null_pair(g)
    P = embed(base)
    ce, cs = mdot(Ne, P), mdot(Ns, P)   # both strictly negative
    mu = -1.0 / (2.0 * ip)
    r = cs / ce
    return np.sqrt(mu * r) * Ne, np.sqrt(mu / r) * Ns


def geodesic_point(g: OrientedGeodesic, base: PointUHS, t) -> PointUHS | np.ndarray:
    """Arc-length point on g, with t = 0 at the closest point to `base`.

    Scalar t gives a PointUHS; an array of t gives raw (..., 3) arrays.
    """
    A, B = _geodesic_scaled(g, base)
    t_arr = np.asarray(t, dtype=float)
    X = np.exp(t_arr)[..., None] * A + np.exp(-t_arr)[..., None] * B
    out = unembed(X)
    if np.isscalar(t) or t_arr.ndim == 0:
        return PointUHS.from_array(out)
    return out


def geodesic_tangent(g: OrientedGeodesic, base: PointUHS, t: float) -> np.ndarray:
    """Unit tangent (hyperboloid components) along g at parameter t."""
    A, B = _geodesic_scaled(g, base)
    return math.exp(t) * A - math.exp(-t) * B


def dist_to_geodesic(p: PointUHS, g: OrientedGeodesic) -> float:
    """Distance from a point to a complete geodesic."""
    Ne, Ns, ip = _geodesic_null_pair(g)
    X = embed(p)
    c2 = -2.0 * mdot(Ne, X) * mdot(Ns, X) / ip
    return math.acosh(max(math.sqrt(max(c2, 1.0)), 1.0))


def tangent_toward(p: PointUHS, q: PointUHS) -> np.ndarray:
    """Unit tangent at p pointing toward q (hyperboloid components)."""
    P, Q = embed(p), embed(q)
    U = Q + mdot(P, Q) * P
    n = math.sqrt(max(mdot(U, U), 0.0))
    if n == 0:
        raise ValueError("coincident points have no direction")
    return U / n


def tangent_toward_boundary(p: PointUHS, u: BoundaryPoint) -> np.ndarray:
    """Unit tangent at p of the geodesic ray from p to the boundary point u."""
    P = embed(p)
    N = null_vector(u)
    c = mdot(N, P)  # < 0
    return -N / c - P


def point_at(p: PointUHS, unit_tangent: np.ndarray, rho: float) -> PointUHS:
    """Exponential map: geodesic from p with given unit tangent, length rho."""
    X = math.cosh(rho) * embed(p) + math.sinh(rho) * unit_tangent
    return PointUHS.from_array(unembed(X))


def orthonormal_frame_at(p: PointUHS) -> np.ndarray:
    """Rows E1, E2, E3: a Minkowski-orthonormal spacelike frame at p.

    E3 is the direction obtained from the z-coordinate axis, used as the
    polar axis of geodesic spherical coordinates about p.
    """
    P = embed(p)
    frame = []
    for k in (1, 2, 3):
        v = np.zeros(4)
        v[k] = 1.0
        v = v + mdot(v, P) * P
        for e in frame:
            v = v - mdot(v, e) * e
        n = math.sqrt(mdot(v, v))
        frame.append(v / n)
    return np.array(frame)


# ---------------------------------------------------------------------------
# Busemann functions and horospherical heights
# ---------------------------------------------------------------------------

def busemann(u: BoundaryPoint, base: PointUHS, x: PointUHS) -> float:
    """Busemann function of the boundary point u, normalized to 0 at base.

    Computed in closed form from the hyperboloid pairing with the null
    vector of u; equals lim_{t->inf} (t - dist(x, gamma(t))) along any
    unit-speed geodesic gamma with gamma(infinity) = u, gamma(0) = base.
    """
    N = null_vector(u)
    return float(np.log(mdot(embed(base), N) / mdot(embed(x), N)))


def horospherical_height(u: BoundaryPoint, x, base: PointUHS = ORIGIN):
    """exp of the Busemann function: the height q_u with q_u(base) = 1.

    Level sets are horospheres tangent to the boundary at u; for
    u = infinity and base at (0,0,1) this is the coordinate z itself.
    Accepts raw (..., 3) arrays for x.
    """
    N = null_vector(u)
    c0 = float(mdot(embed(base), N))
    return c0 / mdot(embed(x), N)


def rotation_to_infinity(u: BoundaryPoint) -> np.ndarray:
    """Lorentz rotation about (0,0,1) taking the boundary point u to infinity.

    Used to put any horospherical gauge into the standard chart where
    its height function is the coordinate z.
    """
    n = u.unit_sphere()
    zhat = np.array([0.0, 0.0, 1.0])
    R = _rotation_between(n, zhat)
    L = np.eye(4)
    L[1:, 1:] = R
    return L


def _rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SO(3) matrix sending unit vector a to unit vector b."""
    v = np.cross(a, b)
    c = float(np.dot(a, b))
    if c < -1 + 1e-12:
        # opposite vectors: rotate by pi about any axis orthogonal to a
        axis = np.cross(a, [1.0, 0.0, 0.0])
        if np.linalg.norm(axis) < 1e-8:
            axis = np.cross(a, [0.0, 1.0, 0.0])
        axis /= np.linalg.norm(axis)
        return 2.0 * np.outer(axis, axis) - np.eye(3)
    K = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + K + K @ K / (1.0 + c)


# ---------------------------------------------------------------------------
# Green's function and multi-center potentials
# ---------------------------------------------------------------------------

def green_from_distance(rho):
    """Green's function of the hyperbolic Laplacian as a function of distance."""
    rho = np.asarray(rho, dtype=float)
    return 1.0 / np.expm1(2.0 * rho)


def green(p: PointUHS, x) -> float | np.ndarray:
    """G_p(x) = 1/(e^{2 rho(p,x)} - 1); positive, pole at x = p."""
    rho = dist(p, x)
    if np.any(rho < 1e-14):
        raise ZeroDivisionError("Green's function pole: evaluation at its center")
    return green_from_distance(rho)


def laplacian(f, x, h: float = 1e-3) -> float:
    """Laplace-Beltrami operator of the half-space metric applied to a
    scalar sampler at x, z^2 (f_xx + f_yy + f_zz) - z f_z, by 4th-order
    stencils with step-halving Richardson extrapolation."""
    x = np.asarray(x, dtype=float)

    def at(jet):
        return x[2] ** 2 * sum(jet.d2) - x[2] * jet.d1[2]
    jet, jet2 = derivatives(f, x, (h, h / 2), second="diag")
    return float(richardson(at(jet), at(jet2)))


@dataclass(frozen=True)
class MultiCenterPotential:
    """V = lambda + sum_i l_i G_{p_i}: the harmonic function of a singular
    abelian monopole with centers p_i, positive integer charges l_i and
    constant part lambda (lambda = 1 + 2m in the charge-1 moduli setup).
    """

    lam: float
    centers: tuple[PointUHS, ...]
    charges: tuple[int, ...]
    mass: float = 0.0

    def __post_init__(self):
        if self.lam < 0 or self.mass < 0:
            raise ValueError("lambda and mass must be nonnegative")
        if len(self.centers) != len(self.charges):
            raise ValueError("need one charge per center")
        if any(l <= 0 or int(l) != l for l in self.charges):
            raise ValueError("charges must be positive integers")
        for i in range(len(self.centers)):
            for j in range(i + 1, len(self.centers)):
                if dist(self.centers[i], self.centers[j]) < 1e-12:
                    raise ValueError("centers must be pairwise distinct")
        object.__setattr__(self, "centers", tuple(self.centers))
        object.__setattr__(self, "charges", tuple(int(l) for l in self.charges))

    @staticmethod
    def for_su2_charge1(centers: Sequence[PointUHS], charges: Sequence[int],
                        mass: float) -> "MultiCenterPotential":
        """Potential governing the charge-1 moduli space: lambda = 1 + 2m
        and doubled abelian charges."""
        return MultiCenterPotential(1.0 + 2.0 * mass, tuple(centers),
                                    tuple(2 * int(l) for l in charges), mass)

    @property
    def total_charge(self) -> int:
        return int(sum(self.charges))

    def value(self, x) -> float | np.ndarray:
        """V at a point (PointUHS or raw (..., 3) array)."""
        out = np.asarray(self.lam, dtype=float)
        for c, l in zip(self.centers, self.charges):
            out = out + l * green(c, x)
        return float(out) if out.ndim == 0 else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Coordinate gradient (dV/dx, dV/dy, dV/dz), closed form."""
        x = np.asarray(x, dtype=float)
        g = np.zeros(3)
        for c, l in zip(self.centers, self.charges):
            ca = c.as_array()
            d2 = np.sum((x - ca) ** 2)
            zz = x[2] * ca[2]
            ch = 1.0 + d2 / (2 * zz)
            # d cosh(rho) in coordinates
            dch = (x - ca) / zz
            dch[2] -= d2 / (2 * zz * x[2])
            sh = math.sqrt(ch * ch - 1.0)
            e2r = math.exp(2 * math.acosh(ch))
            dG = -2.0 * e2r / (e2r - 1.0) ** 2 / sh
            g += l * dG * dch
        return g


def is_geodesically_trapped(x: PointUHS, centers: Sequence[PointUHS],
                            tol: float = 1e-9) -> bool:
    """True iff x lies on the closed geodesic segment between two centers.

    Tested through the triangle defect d(p_i,x) + d(x,p_j) - d(p_i,p_j),
    which vanishes exactly on the segment.
    """
    n = len(centers)
    for i in range(n):
        di = dist(centers[i], x)
        for j in range(i + 1, n):
            defect = di + dist(x, centers[j]) - dist(centers[i], centers[j])
            if defect <= tol:
                return True
    return False
