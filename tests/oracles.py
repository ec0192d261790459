"""Second methods the tests hold the library against, which no subcommand,
check or benchmark needs: the twistor closest-point chart formula, the
point-to-geodesic distance, the Wirtinger derivative, the antipodal
conjugate of a polynomial, the Hermitian matrix of a 4-vector, the
splitting reflection of decaying data, the mini-twistor chart of a line and
the 2x2 matrix of a scattering sampler's components."""

import math

import numpy as np

from monogeom.hyperbolic import OrientedGeodesic, PointUHS, _geodesic_null_pair, embed, mdot
from monogeom.minitwistor import MiniTwistorPoint
from monogeom.numdiff import derivatives, pointwise


def closest_point_chart(z: complex, w: complex) -> PointUHS:
    """Point of the geodesic (z, w) closest to O, finite charts only:
    mu ((1+|w|^2) z - (1+|z|^2) w, sqrt((1+|z|^2)(1+|w|^2)) |1+z wbar|)
    with mu = 1/(1 + 2|w|^2 + |z w|^2), the map `twistor.closest_point_wirtinger`
    differentiates."""
    z, w = complex(z), complex(w)
    mu = 1.0 / (1.0 + 2.0 * abs(w) ** 2 + abs(z * w) ** 2)
    horiz = mu * ((1 + abs(w) ** 2) * z - (1 + abs(z) ** 2) * w)
    vert = mu * math.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2)) * abs(1 + z * np.conj(w))
    return PointUHS(horiz.real, horiz.imag, vert)


def dist_to_geodesic(p: PointUHS, g: OrientedGeodesic) -> float:
    """Distance from a point to a complete geodesic: asinh sqrt<n, n>,
    with n the part of p's hyperboloid vector normal to the geodesic's
    plane, so no cosh - 1 cancels near the geodesic."""
    Ne, Ns, ip = _geodesic_null_pair(g)
    X = embed(p)
    n = X - (mdot(X, Ns) / ip) * Ne - (mdot(X, Ne) / ip) * Ns
    return math.asinh(math.sqrt(max(float(mdot(n, n)), 0.0)))


def wirtinger(f, z, h=1e-4, var="z"):
    """df/dz or df/dzbar at z of a smooth map of one complex variable, from
    the order-6 derivatives in the two real directions."""
    z = complex(z)
    fx, fy = derivatives(pointwise(lambda p: f(complex(*p))), (z.real, z.imag), h, order=6).d1
    return (fx - 1j * fy) / 2.0 if var == "z" else (fx + 1j * fy) / 2.0


def antipodal_conjugate(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of p*(zeta) = conj(p(tau(zeta))) zeta^l for a
    degree-l polynomial p; the chart weight convention is +zeta^l."""
    c = np.asarray(coeffs, dtype=complex)
    l = len(c) - 1
    return ((-1.0) ** (l - np.arange(l + 1))) * np.conj(c[::-1])


def point_matrix(X: np.ndarray) -> np.ndarray:
    """Hermitian 2x2 matrix of a Minkowski 4-vector, det = -<X,X>;
    (..., 4) arrays map to (..., 2, 2) stacks."""
    X = np.asarray(X)
    M = np.empty(X.shape[:-1] + (2, 2), dtype=complex)
    M[..., 0, 0] = X[..., 0] + X[..., 3]
    M[..., 0, 1] = X[..., 1] - 1j * X[..., 2]
    M[..., 1, 0] = X[..., 1] + 1j * X[..., 2]
    M[..., 1, 1] = X[..., 0] - X[..., 3]
    return M


def traceless_matrix(c) -> np.ndarray:
    """M = [[d, p], [q, -d]] from components (d, p, q) along the first axis, as (..., 2, 2):
    the matrix a scattering sampler's `ode_components` gives."""
    d, p, q = np.asarray(c)
    return np.stack([np.stack([d, p], axis=-1), np.stack([q, -d], axis=-1)], axis=-2)


def splitting_reflection(data) -> np.ndarray:
    """The reflection through the two decaying lines of a `DecayingData`, +1 on
    the forward one, -1 on the backward one: its 2-norm is `reflection_norm`."""
    S = np.column_stack([data.s0, data.s0_prime])
    return S @ np.diag([1.0, -1.0]) @ np.linalg.inv(S)


def minitwistor_of_line(point, direction) -> MiniTwistorPoint:
    """Chart coordinates of the oriented line through `point` with
    `direction`, in the convention for which `charge1_curve(p)` consists of
    the lines through p: zeta is the stereographic chart value of the
    direction seen from its south pole, and that pole raises ZeroDivisionError."""
    u = np.asarray(direction, dtype=float)
    u = u / np.linalg.norm(u)
    if u[2] <= -1 + 1e-14:
        raise ZeroDivisionError("direction at the chart pole")
    zeta = complex(u[0], u[1]) / (1.0 + u[2])
    p = np.asarray(point, dtype=float)
    v = p - np.dot(p, u) * u
    eta = (v[0] + 1j * v[1]) - 2.0 * v[2] * zeta - (v[0] - 1j * v[1]) * zeta ** 2
    return MiniTwistorPoint(zeta, eta)
