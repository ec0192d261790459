"""Geometry of the charge-1 moduli space: the circle bundle over the
complement of the centers with its Gibbons-Hawking-type metric and the
boundary 2-sphere of scalar-flat Kahler structures.

With V a multi-center harmonic potential and omega = dtheta + A a
connection whose curvature is the 3-dimensional dual of dV, the metric
V h + V^{-1} omega (x) omega on coordinates (x, y, z, theta) has
anti-self-dual Weyl curvature in the orientation given by the
coordinate order, and the rescaling z^2 (V h + V^{-1} omega (x) omega)
is Kahler and scalar-flat for the complex structure that pairs
(dx, dy) and (dz, z V^{-1} omega).  Replacing z by any horospherical
height yields the full 2-sphere of such structures inside one conformal
class; the samplers here realize each gauge in its adapted chart via an
exact Lorentz rotation of the configuration.

Samplers are immutable closures; evaluations at different points share
no state and may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import hyperbolic as hyp
from .diffgeo import CurvatureReport, curvature_report, hodge_star
from .hyperbolic import BoundaryPoint, MultiCenterPotential, PointUHS
from .numdiff import derivatives

__all__ = [
    "MFramePoint",
    "DiracConnection",
    "KahlerGauge",
    "CurvatureReport",
    "metric_asd",
    "gibbons_hawking_metric",
    "kahler_structure",
    "curvature",
    "default_step",
    "dOmega_residual",
    "nijenhuis_residual",
    "abelian_charge",
    "hodge_identity_residuals",
    "conformal_gauge_factor",
    "dirac_curvature_residual",
]


@dataclass(frozen=True)
class MFramePoint:
    """Point of the total space: base coordinates plus the fiber angle."""

    x: float
    y: float
    z: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.z > 0):
            raise ValueError("base point must have z > 0")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z, self.theta])

    def base(self) -> PointUHS:
        return PointUHS(self.x, self.y, self.z)


def _embed_jacobian(p: np.ndarray) -> np.ndarray:
    """d(embed)/d(x,y,z): 4x3 matrix."""
    x, y, z = p
    s = x * x + y * y + z * z
    return np.array([
        [x / z, y / z, (2 * z * z - (s + 1)) / (2 * z * z)],
        [1 / z, 0.0, -x / (z * z)],
        [0.0, 1 / z, -y / (z * z)],
        [x / z, y / z, (2 * z * z - (s - 1)) / (2 * z * z)],
    ])


class DiracConnection:
    """Gauge potential A with dA equal to the 3-dimensional dual of dV.

    Per center, in geodesic spherical coordinates (rho, theta, phi)
    about it, the potential is (l/2)(cos theta -+ 1) dphi: the dual of
    d(l G) is -(l/2) sin theta dtheta dphi independently of the radius,
    so each patch has the right curvature and the two differ by the
    pure gauge l dphi.  The patch sign is fixed per center per sampler
    (the string must stay away from every stencil), and the azimuth
    differential has a closed form through the hyperboloid frame, so
    only the final exterior derivative is ever done numerically.
    """

    def __init__(self, V: MultiCenterPotential,
                 patches: Sequence[int] | None = None,
                 extra: Callable[[np.ndarray], np.ndarray] | None = None):
        self.V = V
        self.patches = tuple(patches) if patches is not None else tuple([-1] * len(V.centers))
        if len(self.patches) != len(V.centers):
            raise ValueError("need one patch sign per center")
        if any(s not in (-1, +1) for s in self.patches):
            raise ValueError("patch signs are -1 (string at south) or +1 (north)")
        self.extra = extra
        self._P = [hyp.embed(c) for c in V.centers]
        self._E = [hyp.orthonormal_frame_at(c) for c in V.centers]

    def cos_polar(self, p, i: int) -> float:
        """cos of the polar angle of p about center i."""
        X = hyp.embed(np.asarray(p, dtype=float))
        ch = -hyp.mdot(X, self._P[i])
        sh = math.sqrt(max(ch * ch - 1.0, 1e-300))
        return float(hyp.mdot(X, self._E[i][2]) / sh)

    def with_patches_for(self, p) -> "DiracConnection":
        """Copy with each string rotated away from the given base point."""
        signs = [(-1 if self.cos_polar(p, i) > -0.2 else +1)
                 for i in range(len(self.V.centers))]
        return DiracConnection(self.V, signs, self.extra)

    def __call__(self, p) -> np.ndarray:
        """Components (A_x, A_y, A_z) at a base point (array of 3).

        Evaluated through the cancellation-free combination
        (cos theta + s) dphi = s (e1 de2 - e2 de1) / (sh (sh - s e3)),
        which is regular on the whole string-free half-axis.
        """
        p = np.asarray(p, dtype=float)
        X = hyp.embed(p)
        J = _embed_jacobian(p)
        Jm = J.copy()
        Jm[0] = -Jm[0]  # Minkowski-lowered Jacobian rows
        A = np.zeros(3)
        for E, l, s in zip(self._E, self.V.charges, self.patches):
            e1 = hyp.mdot(X, E[0])
            e2 = hyp.mdot(X, E[1])
            e3 = hyp.mdot(X, E[2])
            de1 = E[0] @ Jm
            de2 = E[1] @ Jm
            sh = math.sqrt(e1 * e1 + e2 * e2 + e3 * e3)
            den = sh * (sh - s * e3)
            if den < 1e-14 * sh * sh or sh < 1e-150:
                raise ZeroDivisionError("point on a Dirac string; switch the patch")
            A += 0.5 * l * s * (e1 * de2 - e2 * de1) / den
        if self.extra is not None:
            A = A + self.extra(p)
        return A


def dirac_curvature_residual(conn: DiracConnection, p, h: float | None = None) -> float:
    """Max component defect of dA against the 3-dimensional dual of dV
    at a base point (the defining property of the connection)."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = 1e-4 * p[2]
    dA = derivatives(conn, p, (h,))[0].d1  # dA[a][b] = d_a A_b
    curl = np.array([dA[1, 2] - dA[2, 1], dA[2, 0] - dA[0, 2], dA[0, 1] - dA[1, 0]])
    # *dV for h = delta/z^2: (*dV)_{yz} = V_x / z etc.
    grad = conn.V.gradient(p)
    target = grad / p[2]
    return float(np.max(np.abs(curl - target)))


# ---------------------------------------------------------------------------
# metrics, complex structure, Kahler form
# ---------------------------------------------------------------------------

def gibbons_hawking_metric(V: MultiCenterPotential, conn: DiracConnection):
    """Sampler of V h + V^{-1} omega (x) omega on (x, y, z, theta)."""
    def metric(p4: np.ndarray) -> np.ndarray:
        p = p4[:3]
        v = float(V.value(p))
        A = conn(p)
        g = np.zeros((4, 4))
        g[:3, :3] = (v / p[2] ** 2) * np.eye(3) + np.outer(A, A) / v
        g[:3, 3] = A / v
        g[3, :3] = A / v
        g[3, 3] = 1.0 / v
        return g
    return metric


def metric_asd(V: MultiCenterPotential, conn: DiracConnection, p: MFramePoint) -> np.ndarray:
    """Metric components of the conformally anti-self-dual representative
    at a point (patch rotated away from the point automatically)."""
    c = conn.with_patches_for(p.as_array()[:3])
    return gibbons_hawking_metric(V, c)(p.as_array())


def _lebrun_metric(V: MultiCenterPotential, conn: DiracConnection):
    gh = gibbons_hawking_metric(V, conn)

    def metric(p4: np.ndarray) -> np.ndarray:
        return p4[2] ** 2 * gh(p4)
    return metric


def _complex_structure(V: MultiCenterPotential, conn: DiracConnection):
    def J(p4: np.ndarray) -> np.ndarray:
        p = p4[:3]
        z = p[2]
        v = float(V.value(p))
        A = conn(p)
        E = np.array([A[0], A[1], A[2], 1.0])
        K = np.zeros((4, 4))
        K[0] = [0.0, 1.0, 0.0, 0.0]
        K[1] = [-1.0, 0.0, 0.0, 0.0]
        K[2] = (z / v) * E
        K[3] = [A[1] - A[2] * (z / v) * A[0],
                -A[0] - A[2] * (z / v) * A[1],
                -v / z - A[2] * (z / v) * A[2],
                -A[2] * (z / v)]
        return K
    return J


def _kahler_form(V: MultiCenterPotential, conn: DiracConnection):
    g = _lebrun_metric(V, conn)
    J = _complex_structure(V, conn)

    def omega(p4: np.ndarray) -> np.ndarray:
        return J(p4).T @ g(p4)
    return omega


@dataclass(frozen=True)
class KahlerGauge:
    """Scalar-flat Kahler structure of one boundary gauge, realized in
    its adapted chart (the gauge's height function is the coordinate z
    there).  `lorentz` maps original coordinates to the adapted chart.
    """

    u: BoundaryPoint
    V: MultiCenterPotential
    conn: DiracConnection
    lorentz: np.ndarray
    metric: Callable[[np.ndarray], np.ndarray]
    complex_structure: Callable[[np.ndarray], np.ndarray]
    kahler_form: Callable[[np.ndarray], np.ndarray]


def kahler_structure(V: MultiCenterPotential, conn: DiracConnection,
                     u: BoundaryPoint, base_for_patches: PointUHS | None = None) -> KahlerGauge:
    """Samplers (g, J, Omega) of the scalar-flat Kahler structure of the
    boundary gauge u, in the chart rotated so u sits at infinity.

    The configuration is transported by the exact rotation about the
    base point; the connection is rebuilt for the transported centers
    with strings rotated away from `base_for_patches` (transported O by
    default).
    """
    L = hyp.rotation_to_infinity(u)
    centers = tuple(hyp.apply_lorentz(L, c) for c in V.centers)
    Vt = MultiCenterPotential(V.lam, centers, V.charges, V.mass)
    ct = DiracConnection(Vt, extra=conn.extra)
    anchor = base_for_patches if base_for_patches is not None else hyp.ORIGIN
    ct = ct.with_patches_for(anchor.as_array())
    return KahlerGauge(
        u=u, V=Vt, conn=ct, lorentz=L,
        metric=_lebrun_metric(Vt, ct),
        complex_structure=_complex_structure(Vt, ct),
        kahler_form=_kahler_form(Vt, ct),
    )


# ---------------------------------------------------------------------------
# residual diagnostics
# ---------------------------------------------------------------------------

def default_step(p4: np.ndarray) -> float:
    return 1e-3 * float(p4[2])


def curvature(metric, p4, step: float | None = None) -> CurvatureReport:
    """Curvature report of a metric sampler at a point of the total
    space; step defaults to 1e-3 scaled by the height."""
    p4 = np.asarray(p4, dtype=float)
    if step is None:
        step = default_step(p4)
        if p4[2] - 2.5 * step <= 0:
            raise ValueError("stencil would exit the upper half-space")
    return curvature_report(metric, p4, step)


def dOmega_residual(omega_sampler, p4, step: float = 1e-4) -> float:
    """Norm of the numerical exterior derivative of a 2-form sampler
    (2nd-order differences, so the residual scales like step^2)."""
    dOm = derivatives(omega_sampler, p4, (step,), order=2)[0].d1
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                worst = max(worst, abs(dOm[a, b, c] + dOm[b, c, a] + dOm[c, a, b]))
    return worst


def nijenhuis_residual(J_sampler, p4, step: float | None = None) -> float:
    """Norm of the Nijenhuis tensor of an almost complex structure
    sampler (4th-order differences on J)."""
    p4 = np.asarray(p4, dtype=float)
    if step is None:
        step = default_step(p4)
    J0 = J_sampler(p4)
    dJ = derivatives(J_sampler, p4, (step,))[0].d1
    # N^k_{ij} = J^l_i dJ[l][k,j] - J^l_j dJ[l][k,i] - J^k_l (dJ[i][l,j] - dJ[j][l,i])
    t1 = np.einsum("li,lkj->kij", J0, dJ)
    t2 = np.einsum("lj,lki->kij", J0, dJ)
    t3 = np.einsum("kl,ilj->kij", J0, dJ)
    t4 = np.einsum("kl,jli->kij", J0, dJ)
    N = t1 - t2 - t3 + t4
    return float(np.linalg.norm(N))


def abelian_charge(V: MultiCenterPotential, i: int, rho0: float = 0.2,
                   levels: int = 6) -> float:
    """Limit of 2 rho V along a ray into center i, recovered by Neville
    extrapolation over radii rho0 / 2^j; returns the abelian charge."""
    p = V.centers[i]
    E = hyp.orthonormal_frame_at(p)
    rhos = np.array([rho0 / 2 ** j for j in range(levels)])
    vals = np.array([2.0 * r * V.value(hyp.point_at(p, E[0], r)) for r in rhos])
    # Neville tableau toward rho = 0
    tbl = vals.copy()
    xs = rhos.copy()
    for m in range(1, levels):
        for j in range(levels - m):
            tbl[j] = tbl[j + 1] + (tbl[j + 1] - tbl[j]) * xs[j + m] / (xs[j] - xs[j + m])
    return float(tbl[0])


def _wedge11(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.outer(a, b) - np.outer(b, a)


def hodge_identity_residuals(V: MultiCenterPotential, conn: DiracConnection,
                             p4, pairing_conn: DiracConnection | None = None) -> float:
    """Max residual of the two algebraic duality identities of the
    Gibbons-Hawking ansatz at a point: the 4-dimensional star of a base
    2-form equals V^{-1} (star_3 of it) wedge omega, and the star of
    (base 1-form wedge omega) equals V times the base star.

    `pairing_conn` substitutes a different potential into the wedge
    products only (negative controls); the identities require it to be
    the metric's own connection."""
    p4 = np.asarray(p4, dtype=float)
    p = p4[:3]
    z = p[2]
    v = float(V.value(p))
    A = (pairing_conn or conn)(p)
    E4 = np.array([A[0], A[1], A[2], 1.0])
    g4 = gibbons_hawking_metric(V, conn)(p4)
    g3 = np.eye(3) / z ** 2
    worst = 0.0
    # identity on base 2-forms
    for a in range(3):
        for b in range(a + 1, 3):
            al3 = np.zeros((3, 3))
            al3[a, b], al3[b, a] = 1.0, -1.0
            al4 = np.zeros((4, 4))
            al4[:3, :3] = al3
            lhs = hodge_star(g4, al4, 2)
            s3 = hodge_star(g3, al3, 2)  # 1-form on the base
            rhs = _wedge11(np.array([s3[0], s3[1], s3[2], 0.0]), E4) / v
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    # identity on base 1-forms wedged with omega
    for a in range(3):
        al3 = np.zeros(3)
        al3[a] = 1.0
        al4 = np.array([al3[0], al3[1], al3[2], 0.0])
        lhs = hodge_star(g4, _wedge11(al4, E4), 2)
        s3 = hodge_star(g3, al3, 1)  # 2-form on the base
        rhs = np.zeros((4, 4))
        rhs[:3, :3] = v * s3
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def conformal_gauge_factor(u1: BoundaryPoint, u2: BoundaryPoint,
                           V: MultiCenterPotential, conn: DiracConnection,
                           p4) -> tuple[float, float]:
    """Conformal factor between two boundary gauges at a point, with the
    residual of the matrix identity g_{u1} = factor * g_{u2}.

    The factor is exp(2 (b_{u1} - b_{u2})) from the Busemann closed
    forms; each metric is built independently by reading the gauge's
    height through the exact Lorentz transport, so the residual checks
    transport against the closed forms.
    """
    p4 = np.asarray(p4, dtype=float)
    base = PointUHS.from_array(p4[:3])
    b1 = hyp.busemann(u1, hyp.ORIGIN, base)
    b2 = hyp.busemann(u2, hyp.ORIGIN, base)
    factor = math.exp(2.0 * (b1 - b2))
    gh = gibbons_hawking_metric(V, conn)(p4)

    def height(u: BoundaryPoint) -> float:
        L = hyp.rotation_to_infinity(u)
        return hyp.apply_lorentz(L, base).z

    g1 = height(u1) ** 2 * gh
    g2 = height(u2) ** 2 * gh
    resid = float(np.max(np.abs(g1 - factor * g2)) / np.max(np.abs(g1)))
    return factor, resid
