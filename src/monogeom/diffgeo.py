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

import functools
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


@functools.lru_cache(maxsize=None)
def levi_civita_symbol(n: int = 4) -> np.ndarray:
    """eps with n indices, eps_{01...} = +1; built once per n, read-only."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        eps[perm] = (-1.0) ** inversions
    eps.flags.writeable = False
    return eps


_EPS4 = levi_civita_symbol(4)


def riemann_tensors(g, dg, d2g):
    """All-lower Riemann, Ricci, scalar and Weyl from the metric g and
    its derivatives dg[a] = g_,a and d2g[a, b] = g_,ab (a `numdiff.Jet`
    with full second derivatives).  Leading axes are batch axes: g of
    shape (..., 4, 4) gives a scalar of shape (...), a float when there
    are none."""
    ginv = np.linalg.inv(g)
    # gamma_l[a,b,d] = (g_ab,d + g_ad,b - g_bd,a)/2 = g_ac Gamma^c_bd
    gamma_l = 0.5 * (np.einsum("...dab->...abd", dg) + np.einsum("...bad->...abd", dg)
                     - np.einsum("...abd->...abd", dg))
    gamma = np.einsum("...ca,...abd->...cbd", ginv, gamma_l)
    # R_abcd = (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)/2
    #          + gamma_l[p,b,c] Gamma^p_ad - gamma_l[p,b,d] Gamma^p_ac
    term = 0.5 * (np.einsum("...bcad->...abcd", d2g) + np.einsum("...adbc->...abcd", d2g)
                  - np.einsum("...bdac->...abcd", d2g) - np.einsum("...acbd->...abcd", d2g))
    quad = np.einsum("...pbc,...pad->...abcd", gamma_l, gamma)
    riem = term + quad - np.swapaxes(quad, -1, -2)
    ricci = np.einsum("...ac,...abcd->...bd", ginv, riem)
    scal = np.einsum("...bd,...bd->...", ginv, ricci)
    # W = R - (Ric o g)/2 + (scal/12)(g o g), o the Kulkarni-Nomizu product
    ac, ad = g[..., :, None, :, None], g[..., :, None, None, :]
    bc, bd = g[..., None, :, :, None], g[..., None, :, None, :]
    r_bd, r_bc = ricci[..., None, :, None, :], ricci[..., None, :, :, None]
    r_ad, r_ac = ricci[..., :, None, None, :], ricci[..., :, None, :, None]
    weyl = riem - 0.5 * (ac * r_bd - ad * r_bc - bc * r_ad + bd * r_ac)
    weyl = weyl + (scal[..., None, None, None, None] / 6.0) * (ac * bd - ad * bc)
    return riem, ricci, (float(scal) if scal.ndim == 0 else scal), weyl


def orthonormal_coframe(g: np.ndarray) -> np.ndarray:
    """Frame matrix F with F^T g F = I and det F > 0, so the coframe is
    positively oriented relative to the coordinate order."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def _frame_tensor4(T: np.ndarray, F: np.ndarray) -> np.ndarray:
    """T_mnpq F^m_a F^n_b F^p_c F^q_d: each contraction moves its index last."""
    for _ in range(4):
        T = np.tensordot(T, F, axes=(0, 0))
    return T


_PAIR_A, _PAIR_B = np.array(_FRAME_PAIRS).T


def _weyl_operator(weyl_frame: np.ndarray) -> np.ndarray:
    """The 6x6 matrix T[a, b, c, d] over the frame pairs (a, b), (c, d)."""
    return weyl_frame[_PAIR_A[:, None], _PAIR_B[:, None], _PAIR_A, _PAIR_B]


_DUAL6 = _weyl_operator(_EPS4)
_PROJ_SD = 0.5 * (np.eye(6) + _DUAL6)
_PROJ_ASD = 0.5 * (np.eye(6) - _DUAL6)


def _sd_asd_norms(F: np.ndarray, weyl: np.ndarray) -> tuple[float, float]:
    """Frobenius norms of the self-dual and anti-self-dual Weyl blocks in
    the oriented orthonormal coframe F."""
    W = _weyl_operator(_frame_tensor4(weyl, F))
    return (float(np.linalg.norm(_PROJ_SD @ W @ _PROJ_SD)),
            float(np.linalg.norm(_PROJ_ASD @ W @ _PROJ_ASD)))


def curvature_report(metric, x, step: float) -> CurvatureReport:
    """Curvature of a metric sampler at x: the tensors at steps h and
    h/2, from one set of metric samples and one batched Riemann pass,
    are extrapolated component-wise before any norm is formed."""
    jets = derivatives(metric, x, (step, step / 2), second="full")
    riem, ricci, scal, weyl = (richardson(t[0], t[1]) for t in
                               riemann_tensors(*(np.stack(a) for a in zip(*jets))))
    F = orthonormal_coframe(jets[0].value)
    sd, asd = _sd_asd_norms(F, weyl)
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
