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

The samplers keep the batch contract of `numdiff`: the metric, complex
structure and Kahler form map a (..., 4) array of points to (..., 4, 4)
values, the connection a (..., 3) array to (..., 3), and a single point
to one plain value.  Each is thin algebra on the local data (V, omega, z) of
its batch from one pass over the Dirac frame, whose |e| = sinh rho gives V; the
Kahler form is v (dy (x) dx - dx (x) dy) + z (omega (x) dz - dz (x) omega).  A
connection's `extra` 1-form is a function of one (3,) point; the connection
applies it row by row through `numdiff.pointwise`.  Samplers are immutable
closures; evaluations at different points share no state and may run concurrently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import hyperbolic as hyp
from .diffgeo import CurvatureReport, curvature_report, hodge_star
from .hyperbolic import BoundaryPoint, MultiCenterPotential, PointUHS
from .numdiff import derivatives, pointwise

__all__ = [
    "DiracConnection",
    "KahlerGauge",
    "CurvatureReport",
    "gibbons_hawking_metric",
    "kahler_structure",
    "curvature",
    "dOmega_residual",
    "nijenhuis_residual",
    "abelian_charge",
    "hodge_identity_residuals",
    "dirac_curvature_residual",
]


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
    `extra` is a 1-form of one (3,) point, added row by row.
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
        # frame components are affine in (|p|^2, x, y, 1)/z and vanish at the center
        # p_c: with c = E_3 - E_0 and d = p - p_c, e = ((d.(p + p_c)) c/2 + d_x E_1 + d_y E_2)/z
        E = np.array([hyp.orthonormal_frame_at(c) for c in V.centers]).reshape(-1, 3, 4)
        E0, E1, E2, E3 = E.transpose(2, 1, 0)    # Ek[j, i]: component k of E_j, center i
        sign = np.array(self.patches, dtype=float)
        # one row per constant, one column per center: p_c, c, E_1, E_2, sign, l sign / 2, l
        self._rows = np.concatenate([np.array([c.as_array() for c in V.centers]).reshape(-1, 3).T,
                                     E3 - E0, E1, E2, [sign, 0.5 * sign * V.charges, V.charges]])

    def _frame(self, p: np.ndarray):
        """Per-center rows shaped against points p (..., 3), and the frame components
        (3, C, ...) of every center at p: centers lead, so each pass runs along the
        points, and d.(p + p_c) is summed by hand, so a batch and its rows round alike."""
        k = self._rows.reshape(self._rows.shape + (1,) * (p.ndim - 1))
        pt = p.transpose(-1, *range(p.ndim - 1))[:, None]                # (3, 1, ...)
        d = pt - k[:3]                                                   # (3, C, ...)
        dq = d * (pt + k[:3])
        s = 0.5 * (dq[0] + dq[1] + dq[2])                                # d.(p + p_c) / 2
        return k, (s * k[3:6] + d[0] * k[6:9] + d[1] * k[9:12]) / pt[2]

    def cos_polar(self, p, i: int) -> float:
        """cos of the polar angle of p about center i."""
        e1, e2, e3 = (float(e[i]) for e in self._frame(np.asarray(p, dtype=float))[1])
        return e3 / max(math.sqrt(e1 * e1 + e2 * e2 + e3 * e3), 1e-300)

    def with_patches_for(self, p) -> "DiracConnection":
        """Copy with each string rotated away from the given base point."""
        signs = [(-1 if self.cos_polar(p, i) > -0.2 else +1)
                 for i in range(len(self.V.centers))]
        return DiracConnection(self.V, signs, self.extra)

    def _local_data(self, p: np.ndarray):
        """V (...), omega = dtheta + A (..., 4) and the height z (...) at points p (..., 3),
        the local data of the samplers, from one `_frame` pass.

        With sh = |e| = sinh rho, V = lambda + sum l G(sh^2) (`hyp.green_from_sinh2`).
        A is the cancellation-free combination (cos theta + s) dphi
        = s (e1 de2 - e2 de1) / (sh (sh - s e3)), regular on the whole string-free
        half-axis; e_j are exactly 0 at the center.  Their differentials are d_x e =
        (x c + E_1)/z, d_y e = (y c + E_2)/z and d_z e = c - e/z, so with (w, a1, a2) =
        e1 (c2, E_21, E_22) - e2 (c1, E_11, E_12) the numerator is (x w + a1, y w + a2, z w)/z.
        """
        k, (e1, e2, e3) = self._frame(p)
        x, y, z, sign, coef, l = p[..., 0], p[..., 1], p[..., 2], k[12], k[13], k[14]
        sh = np.sqrt(e1 * e1 + e2 * e2 + e3 * e3)
        den = sh * (sh - sign * e3)
        if (sh < 1e-14).any():    # sh = sinh rho: the pole of V and of A
            raise ZeroDivisionError("connection pole: evaluation at a center")
        if (den < 1e-14 * sh * sh).any():
            raise ZeroDivisionError("point on a Dirac string; switch the patch")
        v = self.V.lam + np.sum(l * hyp.green_from_sinh2(sh * sh), axis=0)
        f = coef / den
        w, a1, a2 = ((f * e1) * k[4:12:3] - (f * e2) * k[3:12:3]).sum(axis=1)  # (c, E_1, E_2)_j
        om = np.ones(w.shape + (4,))
        om[..., 0], om[..., 1], om[..., 2] = (x * w + a1) / z, (y * w + a2) / z, w
        if self.extra is not None:
            om[..., :3] += pointwise(self.extra)(p)
        return v, om, z

    def __call__(self, p) -> np.ndarray:
        """Components (A_x, A_y, A_z) at base points (..., 3)."""
        return self._local_data(np.asarray(p, dtype=float))[1][..., :3]


def dirac_curvature_residual(conn: DiracConnection, p, h: float | None = None) -> float:
    """Max component defect of dA against the 3-dimensional dual of dV
    at a base point (the defining property of the connection)."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = 1e-4 * p[2]
    dA = derivatives(hyp.half_space_only(conn), p, h).d1  # dA[a][b] = d_a A_b
    curl = np.array([dA[1, 2] - dA[2, 1], dA[2, 0] - dA[0, 2], dA[0, 1] - dA[1, 0]])
    # *dV for h = delta/z^2: (*dV)_{yz} = V_x / z etc.
    grad = conn.V.gradient(p)
    target = grad / p[2]
    return float(np.max(np.abs(curl - target)))


# ---------------------------------------------------------------------------
# metrics, complex structure, Kahler form
# ---------------------------------------------------------------------------

def _gh(v, w, z) -> np.ndarray:
    """V h + V^{-1} omega (x) omega from local data: `_lebrun` over z^2."""
    return _lebrun(v, w, z) / (z * z)[..., None, None]


def _j(v, w, z) -> np.ndarray:
    """The complex structure pairing (dx, dy) and (dz, z V^{-1} omega)."""
    r = z / v
    k = w[..., 2] * r
    K = np.zeros(v.shape + (4, 4))
    K[..., 0, 1], K[..., 1, 0] = 1.0, -1.0
    K[..., 2, :] = r[..., None] * w
    K[..., 3, 0] = w[..., 1] - k * w[..., 0]
    K[..., 3, 1] = -w[..., 0] - k * w[..., 1]
    K[..., 3, 2] = -v / z - k * w[..., 2]
    K[..., 3, 3] = -k
    return K


def _lebrun(v, w, z) -> np.ndarray:
    """z^2 (V h + V^{-1} omega (x) omega) = v (dx^2 + dy^2 + dz^2) + (z^2 / v) omega^2."""
    g = w[..., :, None] * (w * (z * z / v)[..., None])[..., None, :]
    np.einsum("...ii->...i", g)[..., :3] += v[..., None]
    return g


def _omega(v, w, z) -> np.ndarray:
    """The Kahler form J^T g of `_j` and `_lebrun` in closed form: written out,
    the k-terms cancel and Omega = v (dy (x) dx - dx (x) dy) + z (omega (x) dz - dz (x) omega)."""
    om = np.zeros(v.shape + (4, 4))
    om[..., 1, 0], om[..., 0, 1], om[..., :, 2] = v, -v, z[..., None] * w
    om[..., 2, :] -= om[..., :, 2]
    return om


def _sampler(V: MultiCenterPotential, conn: DiracConnection, build):
    """Batched sampler of build(v, omega, z) on total-space points (..., 4); V is read from conn."""
    if conn.V != V:
        raise ValueError("the connection is built on a different potential than V")
    return lambda p4: build(*conn._local_data(np.asarray(p4, dtype=float)[..., :3]))


def gibbons_hawking_metric(V: MultiCenterPotential, conn: DiracConnection):
    """Sampler of V h + V^{-1} omega (x) omega on (x, y, z, theta)."""
    return _sampler(V, conn, _gh)


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
    if conn.V != V:
        raise ValueError("the connection is built on a different potential than V")
    L = hyp.rotation_to_infinity(u)
    centers = tuple(hyp.apply_lorentz(L, c) for c in V.centers)
    Vt = MultiCenterPotential(V.lam, centers, V.charges, V.mass)
    ct = DiracConnection(Vt, extra=conn.extra)
    anchor = base_for_patches if base_for_patches is not None else hyp.ORIGIN
    ct = ct.with_patches_for(anchor.as_array())
    return KahlerGauge(
        u=u, V=Vt, conn=ct, lorentz=L,
        metric=_sampler(Vt, ct, _lebrun),
        complex_structure=_sampler(Vt, ct, _j),
        kahler_form=_sampler(Vt, ct, _omega),
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
    return curvature_report(hyp.half_space_only(metric), p4,
                            default_step(p4) if step is None else step)


def dOmega_residual(omega_sampler, p4, step: float = 1e-4) -> float:
    """Norm of the numerical exterior derivative of a 2-form sampler
    (2nd-order differences, so the residual scales like step^2)."""
    dOm = derivatives(hyp.half_space_only(omega_sampler), p4, step, order=2).d1
    return float(np.max(np.abs([dOm[a, b, c] + dOm[b, c, a] + dOm[c, a, b]
                                for a, b, c in itertools.combinations(range(4), 3)])))


def nijenhuis_residual(J_sampler, p4, step: float | None = None) -> float:
    """Norm of the Nijenhuis tensor of an almost complex structure
    sampler (4th-order differences on J)."""
    p4 = np.asarray(p4, dtype=float)
    if step is None:
        step = default_step(p4)
    J0, dJ, _ = derivatives(hyp.half_space_only(J_sampler), p4, step)
    # N^k_ij = X^k_ij - X^k_ji with X^k_ij = J^l_i dJ[l][k,j] - J^k_l dJ[i][l,j]
    X = np.einsum("li,lkj->kij", J0, dJ) - np.einsum("kl,ilj->kij", J0, dJ)
    return float(np.linalg.norm(X - np.swapaxes(X, 1, 2)))


def abelian_charge(V: MultiCenterPotential, i: int, rho0: float = 0.2,
                   levels: int = 6) -> float:
    """Limit of 2 rho V along a ray into center i, recovered by Neville
    extrapolation over radii rho0 / 2^j; returns the abelian charge."""
    p = V.centers[i]
    E = hyp.orthonormal_frame_at(p)
    rhos = np.array([rho0 / 2 ** j for j in range(levels)])
    tbl = 2.0 * rhos * V.value(np.array([hyp.point_at(p, E[0], r).as_array() for r in rhos]))
    # Neville tableau toward rho = 0
    for m in range(1, levels):
        for j in range(levels - m):
            tbl[j] = tbl[j + 1] + (tbl[j + 1] - tbl[j]) * rhos[j + m] / (rhos[j] - rhos[j + m])
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
    v, E4, z = _sampler(V, conn, lambda *local: local)(p4)
    g4 = _gh(v, E4, z)
    if pairing_conn is not None:
        E4 = np.append(pairing_conn(p4[:3]), 1.0)
    g3 = np.eye(3) / z ** 2
    ex = np.eye(4)
    defects = []    # of each identity, reduced by np.max, which keeps a NaN
    # identity on base 2-forms
    for a, b in itertools.combinations(range(3), 2):
        al4 = _wedge11(ex[a], ex[b])
        s3 = hodge_star(g3, al4[:3, :3], 2)  # 1-form on the base
        rhs = _wedge11(np.append(s3, 0.0), E4) / v
        defects.append(hodge_star(g4, al4, 2) - rhs)
    # identity on base 1-forms wedged with omega
    for a in range(3):
        lhs = hodge_star(g4, _wedge11(ex[a], E4), 2)
        rhs = np.zeros((4, 4))
        rhs[:3, :3] = v * hodge_star(g3, ex[a, :3], 1)  # 2-form on the base
        defects.append(lhs - rhs)
    return float(np.max(np.abs(defects)))

