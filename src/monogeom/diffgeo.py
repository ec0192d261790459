"""Finite-difference curvature engine for metric samplers.

A metric sampler maps a coordinate 4-vector to a symmetric 4x4 matrix.
Curvature comes from 4th-order stencils of the stencil engine
(`numdiff.derivatives`) for the first and second metric derivatives,
assembled into the curvature tensor directly (one level of differencing
only):

    R_abcd = (g_bd,ac + g_ac,bd - g_ad,bc - g_bc,ad)/2
             + g_ef (Gamma^e_ac Gamma^f_bd - Gamma^e_ad Gamma^f_bc)

Weyl and its (anti-)self-dual split are computed in an oriented
orthonormal coframe.  Orientation convention, fixed here once: the
coordinate order of the sampler is positively oriented, and the duality
operator on 2-forms uses the Levi-Civita symbol with eps_0123 = +1 in
that frame.  Richardson extrapolation pairs steps h and h/2, sampled
together so their common stencil points are evaluated once, on every
tensor component before norms are taken.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numdiff import derivatives, richardson

__all__ = [
    "CurvatureReport",
    "curvature_report",
    "riemann_tensors",
    "orthonormal_coframe",
    "weyl_sd_asd_norms",
    "hodge_star",
    "levi_civita_symbol",
]

_FRAME_PAIRS = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))


@dataclass(frozen=True)
class CurvatureReport:
    """Pointwise curvature summary of a metric sampler."""

    scalar: float
    ricci_norm: float
    weyl_sd_norm: float
    weyl_asd_norm: float
    riemann_norm: float
    step: float

    def as_dict(self) -> dict:
        return {
            "scalar": self.scalar,
            "ricci": self.ricci_norm,
            "weyl_sd": self.weyl_sd_norm,
            "weyl_asd": self.weyl_asd_norm,
            "riemann": self.riemann_norm,
            "step": self.step,
        }


def levi_civita_symbol(n: int = 4) -> np.ndarray:
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


_EPS4 = levi_civita_symbol(4)


def riemann_tensors(g, dg, d2g):
    """All-lower Riemann, Ricci, scalar and Weyl from the metric g and
    its derivatives dg[a] = g_,a and d2g[a, b] = g_,ab at one point
    (a `numdiff.Jet` with full second derivatives)."""
    ginv = np.linalg.inv(g)
    # gamma_l[a,b,d] = (g_ab,d + g_ad,b - g_bd,a)/2, then Gamma^c_bd
    gamma_l = 0.5 * (np.einsum("dab->abd", dg) + np.einsum("bad->abd", dg)
                     - np.einsum("abd->abd", dg))
    gamma = np.einsum("ca,abd->cbd", ginv, gamma_l)
    # R_abcd = (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)/2
    #          + g_np (Gamma^n_bc Gamma^p_ad - Gamma^n_bd Gamma^p_ac)
    term = 0.5 * (np.einsum("bcad->abcd", d2g) + np.einsum("adbc->abcd", d2g)
                  - np.einsum("bdac->abcd", d2g) - np.einsum("acbd->abcd", d2g))
    quad = np.einsum("np,nbc,pad->abcd", g, gamma, gamma) \
        - np.einsum("np,nbd,pac->abcd", g, gamma, gamma)
    riem = term + quad
    ricci = np.einsum("ac,abcd->bd", ginv, riem)
    scal = float(np.einsum("bd,bd->", ginv, ricci))
    # W = R - (Ric o g)/2 + (scal/12)(g o g), o the Kulkarni-Nomizu product
    ac, ad = g[:, None, :, None], g[:, None, None, :]
    bc, bd = g[None, :, :, None], g[None, :, None, :]
    weyl = riem - 0.5 * (ac * ricci[None, :, None, :] - ad * ricci[None, :, :, None]
                         - bc * ricci[:, None, None, :] + bd * ricci[:, None, :, None])
    weyl = weyl + (scal / 6.0) * (ac * bd - ad * bc)
    return riem, ricci, scal, weyl


def orthonormal_coframe(g: np.ndarray) -> np.ndarray:
    """Frame matrix F with F^T g F = I and det F > 0, so the coframe is
    positively oriented relative to the coordinate order."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def _frame_tensor4(T: np.ndarray, F: np.ndarray) -> np.ndarray:
    return np.einsum("am,bn,cp,dq,mnpq->abcd", F.T, F.T, F.T, F.T, T)


def _weyl_operator(weyl_frame: np.ndarray) -> np.ndarray:
    W = np.empty((6, 6))
    for I, (a, b) in enumerate(_FRAME_PAIRS):
        for J, (c, d) in enumerate(_FRAME_PAIRS):
            W[I, J] = weyl_frame[a, b, c, d]
    return W


def _duality_matrix() -> np.ndarray:
    D = np.zeros((6, 6))
    for I, (a, b) in enumerate(_FRAME_PAIRS):
        for J, (c, d) in enumerate(_FRAME_PAIRS):
            D[I, J] = _EPS4[a, b, c, d]
    return D


_DUAL6 = _duality_matrix()
_PROJ_SD = 0.5 * (np.eye(6) + _DUAL6)
_PROJ_ASD = 0.5 * (np.eye(6) - _DUAL6)


def weyl_sd_asd_norms(g: np.ndarray, weyl: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of the self-dual and anti-self-dual Weyl blocks in
    an oriented orthonormal coframe."""
    F = orthonormal_coframe(g)
    W = _weyl_operator(_frame_tensor4(weyl, F))
    return (float(np.linalg.norm(_PROJ_SD @ W @ _PROJ_SD)),
            float(np.linalg.norm(_PROJ_ASD @ W @ _PROJ_ASD)))


def curvature_report(metric, x, step: float) -> CurvatureReport:
    """Curvature of a metric sampler at x: the tensors at steps h and
    h/2, from one set of metric samples, are extrapolated component-wise
    before any norm is formed."""
    jet, jet2 = derivatives(metric, x, (step, step / 2), second="full")
    riem, ricci, scal, weyl = (richardson(t, t2) for t, t2 in
                               zip(riemann_tensors(*jet), riemann_tensors(*jet2)))
    g = jet.value
    F = orthonormal_coframe(g)
    sd, asd = weyl_sd_asd_norms(g, weyl)
    return CurvatureReport(
        scalar=float(scal),
        ricci_norm=float(np.linalg.norm(F.T @ ricci @ F)),
        weyl_sd_norm=sd,
        weyl_asd_norm=asd,
        riemann_norm=float(np.linalg.norm(_frame_tensor4(riem, F))),
        step=step,
    )


# ---------------------------------------------------------------------------
# Hodge stars
# ---------------------------------------------------------------------------

def hodge_star(g: np.ndarray, form: np.ndarray, k: int) -> np.ndarray:
    """Hodge star of a k-form for the metric g, orientation given by the
    coordinate order.  Forms are full antisymmetric component arrays:
    (*alpha)_{b...} = sqrt(g) alpha^a eps_{a b...} for 1-forms and
    (*beta)_{cd}    = sqrt(g)/2 beta^{ab} eps_{ab cd} for 2-forms."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    sqg = math.sqrt(float(np.linalg.det(g)))
    eps = levi_civita_symbol(n)
    if k == 1:
        raised = ginv @ form
        return sqg * np.einsum("a,a...->...", raised, eps)
    if k == 2:
        raised = ginv @ form @ ginv.T
        return 0.5 * sqg * np.einsum("ab,ab...->...", raised, eps)
    raise NotImplementedError("stars implemented for 1- and 2-forms")
