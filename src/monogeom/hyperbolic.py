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
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .numdiff import derivatives, pointwise
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
    "half_space_only",
    "is_geodesically_trapped",
    "geodesic_point",
    "geodesic_tangent",
    "dist_to_geodesic",
    "embed",
    "unembed",
    "mdot",
    "null_vector",
    "boundary_chart_of_null",
    "tangent_toward_boundary",
    "point_at",
    "orthonormal_frame_at",
    "rotation_to_infinity",
    "apply_lorentz",
]

BoundaryPoint = ExtendedComplex
"""Points of the conformal boundary, as chart values of P^1."""


@dataclass(frozen=True)
class PointUHS:
    """Point of the upper half-space: finite x, y and z > 0, else ValueError (NaN too)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (abs(self.x) < math.inf and abs(self.y) < math.inf and 0 < self.z < math.inf):
            raise ValueError(f"upper half-space requires finite x, y and z > 0, got {self}")

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
    points, where arccosh(1 + |p - q|^2 / (2 z_p z_q)) cancels.  Two PointUHS
    take the same steps on Python scalars, with numpy's arcsinh (math.asinh
    differs from it in the last bit), so both paths agree bit for bit."""
    if isinstance(p, PointUHS) and isinstance(q, PointUHS):
        dx, dy, dz = p.x - q.x, p.y - q.y, p.z - q.z
        return 2.0 * np.arcsinh(math.sqrt(dx * dx + dy * dy + dz * dz) / (2.0 * math.sqrt(p.z * q.z)))
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
    """Distance from a point to a complete geodesic: asinh sqrt<n, n>,
    with n the part of p's hyperboloid vector normal to the geodesic's
    plane, so no cosh - 1 cancels near the geodesic."""
    Ne, Ns, ip = _geodesic_null_pair(g)
    X = embed(p)
    n = X - (mdot(X, Ns) / ip) * Ne - (mdot(X, Ne) / ip) * Ns
    return math.asinh(math.sqrt(max(float(mdot(n, n)), 0.0)))


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


def half_space_only(f):
    """The sampler f behind a check that raises ValueError, before f sees
    them, on points at height z <= 0: a stencil reaching out of the upper
    half-space."""
    def checked(p):
        if np.asarray(p)[..., 2].min() <= 0:
            raise ValueError("stencil leaves the upper half-space (a point has z <= 0)")
        return f(p)
    return checked


def laplacian(f, x, h: float = 1e-3) -> float:
    """Laplace-Beltrami operator of the half-space metric applied to a
    scalar sampler of one point at x, z^2 (f_xx + f_yy + f_zz) - z f_z,
    from the order-6 derivatives of the stencil engine (4th-order
    stencils at h and h/2, Richardson-extrapolated)."""
    x = np.asarray(x, dtype=float)
    jet = derivatives(half_space_only(pointwise(f)), x, h, second="diag", order=6)
    return float(x[2] ** 2 * sum(jet.d2) - x[2] * jet.d1[2])


def _positive_integers(charges) -> tuple[int, ...]:
    if any(isinstance(l, bool) or not (l > 0 and float(l).is_integer()) for l in charges):
        raise ValueError("charges must be positive integers")
    return tuple(int(l) for l in charges)


@dataclass(frozen=True)
class MultiCenterPotential:
    """V = lambda + sum_i l_i G_{p_i}: the harmonic function of a singular
    abelian monopole with pairwise distinct centers p_i, one positive integer
    charge l_i each (not a boolean), constant part lambda (1 + 2m in the
    charge-1 moduli setup) and mass m finite and >= 0; else ValueError.
    """

    lam: float
    centers: tuple[PointUHS, ...]
    charges: tuple[int, ...]
    mass: float = 0.0

    def __post_init__(self):
        if not (0 <= self.lam < math.inf and 0 <= self.mass < math.inf):
            raise ValueError("lambda and mass must be finite and nonnegative")
        if len(self.centers) != len(self.charges):
            raise ValueError("need one charge per center")
        centers = tuple(self.centers)
        if any(dist(c, d) < 1e-12 for c, d in combinations(centers, 2)):
            raise ValueError("centers must be pairwise distinct")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "charges", _positive_integers(self.charges))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (C, 3) center coordinates and (C,) charges, built on
        the first evaluation (potentials that are never evaluated, as in
        a spectral lift, hold no arrays)."""
        centers = np.array([(c.x, c.y, c.z) for c in self.centers], dtype=float).reshape(-1, 3)
        charges = np.array(self.charges, dtype=float)
        centers.flags.writeable = charges.flags.writeable = False
        return centers, charges

    @staticmethod
    def for_su2_charge1(centers: Sequence[PointUHS], charges: Sequence[int],
                        mass: float) -> "MultiCenterPotential":
        """Potential governing the charge-1 moduli space: lambda = 1 + 2m
        and doubled abelian charges (checked before they are doubled)."""
        return MultiCenterPotential(1.0 + 2.0 * mass, tuple(centers),
                                    tuple(2 * l for l in _positive_integers(charges)), mass)

    def value(self, x) -> float | np.ndarray:
        """V at a point (PointUHS or raw (..., 3) array), of shape (...), from one
        `dist` call against all centers (the moduli samplers read V off the Dirac frame)."""
        a = x.as_array() if isinstance(x, PointUHS) else np.asarray(x, dtype=float)
        centers, charges = self._arrays
        rho = dist(a[..., None, :], centers)
        if (rho < 1e-14).any():
            raise ZeroDivisionError("Green's function pole: evaluation at its center")
        out = self.lam + np.sum(charges * green_from_distance(rho), axis=-1)
        return float(out) if out.ndim == 0 else out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Coordinate gradient (dV/dx, dV/dy, dV/dz), closed form."""
        x = np.asarray(x, dtype=float)
        g = np.zeros(3)
        for c, l in zip(self.centers, self.charges):
            ca = c.as_array()
            d2 = np.sum((x - ca) ** 2)
            zz = x[2] * ca[2]
            # d cosh(rho) in coordinates
            dch = (x - ca) / zz
            dch[2] -= d2 / (2 * zz * x[2])
            # sinh rho and e^{2 rho} - 1 from s = sinh(rho / 2), as in `dist`
            s = math.sqrt(d2 / (4 * zz))
            sh = 2.0 * s * math.sqrt(1.0 + s * s)
            em = math.expm1(4.0 * math.asinh(s))
            dG = -2.0 * (em + 1.0) / (em * em) / sh
            g += l * dG * dch
        return g


def is_geodesically_trapped(x: PointUHS, centers: Sequence[PointUHS],
                            tol: float = 1e-9) -> bool:
    """True iff x lies on the closed geodesic segment between two centers.

    Tested through the triangle defect d(p_i,x) + d(x,p_j) - d(p_i,p_j),
    which vanishes exactly on the segment.
    """
    to_x = [dist(c, x) for c in centers]
    return any(to_x[i] + to_x[j] - dist(centers[i], centers[j]) <= tol
               for i, j in combinations(range(len(centers)), 2))

