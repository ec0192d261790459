"""Finite-difference curvature engine for metric samplers.

A metric sampler maps a coordinate 4-vector to a symmetric 4x4 matrix.
Curvature comes from the first and second metric derivatives of the
stencil engine (`numdiff.derivatives`) at order 6: 4th-order stencils at
steps h and h/2, sampled together so their common stencil points are
evaluated once, and Richardson-extrapolated on the derivatives
themselves.  They are assembled into the curvature tensor directly (one
level of differencing only), as the symmetric 6x6 matrix of its
components on 2-forms:

    R_abcd = (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)/2
             + g_ef (Gamma^e_bc Gamma^f_ad - Gamma^e_bd Gamma^f_ac)

One transform by the 2x2 minors of the frame moves R to an oriented
orthonormal coframe.  Orientation convention, fixed here once: the
coordinate order of the sampler is positively oriented, and the duality
operator on 2-forms uses the Levi-Civita symbol with eps_0123 = +1 in
that frame.  The Riemann norm is read from |Rm|^2 = |W|^2 + 2|Ric|^2 -
s^2/3 in dimension 4 (Besse, Einstein Manifolds, 1987, 1.G), whose last
two terms sum to 2|Ric_0|^2 + s^2/6 >= 0, so nothing cancels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numdiff import derivatives

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


# T[..., _A, _B, _C, _D] is the 6x6 matrix T_abcd over the pairs (a, b) of
# its rows and (c, d) of its columns
_C, _D = np.array(_FRAME_PAIRS).T
_A, _B = _C[:, None], _D[:, None]
_DUAL6 = levi_civita_symbol(4)[_A, _B, _C, _D]
_PROJ_SD, _PROJ_ASD = 0.5 * (np.eye(6) + _DUAL6), 0.5 * (np.eye(6) - _DUAL6)
# orthonormal basis of 2-forms, three self-dual then three anti-self-dual
_SD_ASD = math.sqrt(2.0) * np.hstack([_PROJ_SD[:, :3], _PROJ_ASD[:, :3]])
# R_abcd over the pairs is x[_TERMS] @ _WEIGHTS, x the 8x4x4x4 array
# d2g[i, j, k, l] = g_kl,ij on top of M[b, c, a, d] = gamma_l[p,b,c] Gamma^p_ad,
# flattened (riemann_tensors)
_TERMS = np.stack([np.ravel_multi_index(index, (8, 4, 4, 4)) for index in (
    (_B, _C, _A, _D), (_A, _D, _B, _C), (_B, _D, _A, _C), (_A, _C, _B, _D),
    (_B + 4, _C, _A, _D), (_B + 4, _D, _A, _C))], axis=-1)
_WEIGHTS = np.array([0.5, 0.5, -0.5, -0.5, 1.0, -1.0])
# flat indices of F[a, i], F[b, j], F[b, i] and F[a, j] over the pairs
# (a, b) and (i, j): the 2x2 minors of a 4x4 matrix F
_MINORS = np.stack([4 * _A + _C, 4 * _B + _D, 4 * _B + _C, 4 * _A + _D])


def riemann_tensors(g, dg, d2g):
    """The all-lower Riemann tensor on coordinate 2-forms, the 6x6 matrix
    R[P, Q] = R_abcd over the pairs P = (a, b) and Q = (c, d) of
    `_FRAME_PAIRS`, from the metric g and its derivatives dg[a] = g_,a and
    d2g[a, b] = g_,ab (a `numdiff.Jet` with full second derivatives)."""
    # gamma_l[a,b,d] = (g_ab,d + g_ad,b - g_bd,a)/2 = g_ac Gamma^c_bd
    swapped = dg.swapaxes(0, 1)
    gamma_l = (0.5 * (swapped.swapaxes(1, 2) + swapped - dg)).reshape(4, 16)
    # R_abcd = (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)/2
    #          + gamma_l[p,b,c] Gamma^p_ad - gamma_l[p,b,d] Gamma^p_ac
    quad = gamma_l.T @ np.linalg.solve(g, gamma_l)
    return np.concatenate([d2g.ravel(), quad.ravel()])[_TERMS] @ _WEIGHTS


def orthonormal_coframe(g: np.ndarray) -> np.ndarray:
    """Frame matrix F with F^T g F = I and det F > 0, so the coframe is
    positively oriented relative to the coordinate order."""
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def _frame_norms(g: np.ndarray, riem: np.ndarray) -> tuple[float, ...]:
    """Scalar curvature and the norms of Ricci, the self-dual and
    anti-self-dual Weyl blocks and Riemann, from the metric g and its
    Riemann tensor on coordinate 2-forms (`riemann_tensors`).

    The minors of the oriented orthonormal coframe F move R to the frame,
    in the basis `_SD_ASD`, where it is [[W+ + s/12, B], [B^T, W- + s/12]]
    (Singer & Thorpe 1969): Weyl R - (Ric o I)/2 + (s/12)(I o I) keeps the
    diagonal blocks less s/12, since the traceless Ricci part of Ric o I
    maps self-dual to anti-self-dual forms, and |Ric_0| = 2|B|."""
    f = orthonormal_coframe(g).take(_MINORS)
    frame = (f[0] * f[1] - f[2] * f[3]) @ _SD_ASD
    R = frame.T @ riem @ frame
    scal = 2.0 * float(R.trace())
    R.flat[::7] -= scal / 12.0
    (sd2, b2), (_, asd2) = (R * R).reshape(2, 3, 2, 3).sum(axis=(1, 3)).tolist()
    ric2 = 4.0 * b2 + 0.25 * scal * scal
    return (scal, math.sqrt(ric2), math.sqrt(sd2), math.sqrt(asd2),
            math.sqrt(4.0 * (sd2 + asd2) + 2.0 * ric2 - scal * scal / 3.0))


def curvature_report(metric, x, step: float) -> CurvatureReport:
    """Curvature of a metric sampler at x: the Riemann tensor on 2-forms
    from the metric's order-6 jet (steps h and h/2, extrapolated), read in
    the coframe, the Riemann norm as sqrt(|W|^2 + 2|Ric|^2 - s^2/3)."""
    g, dg, d2g = derivatives(metric, x, step, second="full", order=6)
    return CurvatureReport(*_frame_norms(g, riemann_tensors(g, dg, d2g)), step=step)


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
