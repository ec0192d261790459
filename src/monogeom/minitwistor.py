"""Mini-twistor space of Euclidean 3-space: the total space of O(2).

Oriented lines are points (zeta, eta), zeta the direction chart and eta
the fiber value; the real structure covers the antipodal map, curves in
|O(2k)| encode charge-k monopoles, and the exponential line bundle
patching below is the ambient space in which spectral curves are lifted
by a trivialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projective import polyval

__all__ = [
    "MiniTwistorPoint",
    "CurveO2k",
    "tau_T",
    "charge1_curve",
    "l2_trivialization",
    "closest_point_euc_polarized",
    "l2_patch_transition",
    "l2_patch_transition_inverse",
]


@dataclass(frozen=True)
class MiniTwistorPoint:
    """Point (zeta, eta) of the O(2) total space in the finite chart;
    the other chart is (1/zeta, eta/zeta^2)."""

    zeta: complex
    eta: complex


def tau_T(p: MiniTwistorPoint) -> MiniTwistorPoint:
    """Antiholomorphic involution covering the antipodal map:
    (zeta, eta) -> (-1/conj(zeta), -conj(eta)/conj(zeta)^2)."""
    zb = np.conj(p.zeta)
    if zb == 0:
        raise ZeroDivisionError("antipode of the chart pole; swap charts first")
    return MiniTwistorPoint(-1.0 / zb, -np.conj(p.eta) / zb ** 2)


@dataclass(frozen=True)
class CurveO2k:
    """Curve eta^k + a_1(zeta) eta^{k-1} + ... + a_k(zeta) = 0 in |O(2k)|,
    deg a_i <= 2i, coefficients ascending per a_i."""

    k: int
    coeff_polys: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if len(self.coeff_polys) != self.k:
            raise ValueError("need exactly k coefficient polynomials")
        polys = []
        for i, a in enumerate(self.coeff_polys, start=1):
            a = np.asarray(a, dtype=complex)
            if len(a) > 2 * i + 1:
                raise ValueError(f"a_{i} must have degree at most {2 * i}")
            polys.append(np.concatenate([a, np.zeros(2 * i + 1 - len(a), complex)]))
        object.__setattr__(self, "coeff_polys", tuple(polys))

    def eta_poly_at(self, zeta: complex) -> np.ndarray:
        """Monic degree-k polynomial in eta over the given zeta."""
        out = np.empty(self.k + 1, dtype=complex)
        out[self.k] = 1.0
        for i, a in enumerate(self.coeff_polys, start=1):
            out[self.k - i] = polyval(a, zeta)
        return out

    def sheets_over(self, zeta: complex) -> np.ndarray:
        """The k values of eta over zeta (with multiplicity), as polyroots sorts them."""
        companion = np.eye(self.k, k=-1, dtype=complex)
        companion[:, -1] -= self.eta_poly_at(zeta)[:-1]
        return np.sort(np.linalg.eigvals(companion))

    def reality_defect(self) -> float:
        """Max coefficient defect of the antipodal reality condition
        a_i(zeta) = (-1)^i conj(a_i(-1/conj zeta)) zeta^{2i}."""
        defects = [0.0]    # reduced by np.max, which keeps a NaN
        for i, a in enumerate(self.coeff_polys, start=1):
            j = np.arange(2 * i + 1)
            target = (-1.0) ** i * ((-1.0) ** (2 * i - j)) * np.conj(a[::-1])
            scale = max(float(np.max(np.abs(a))), 1e-300)
            defects.append(float(np.max(np.abs(a - target))) / scale)
        return float(np.max(defects))


def charge1_curve(p) -> CurveO2k:
    """Real curve in |O(2)| whose points are the oriented lines through
    the point p of R^3: eta = (p1 + i p2) - 2 p3 zeta - (p1 - i p2) zeta^2."""
    p = np.asarray(p, dtype=float)
    eta_of = np.array([p[0] + 1j * p[1], -2.0 * p[2], -(p[0] - 1j * p[1])])
    return CurveO2k(1, (np.asarray(-eta_of),))


def curve_eta(curve: CurveO2k, zeta: complex) -> complex:
    """eta(zeta) for a charge-1 curve."""
    if curve.k != 1:
        raise ValueError("single-valued eta only for k = 1")
    return complex(-polyval(curve.coeff_polys[0], zeta))


# ---------------------------------------------------------------------------
# the square of the exponential line bundle
# ---------------------------------------------------------------------------

def l2_trivialization(curve: CurveO2k):
    """Nonvanishing holomorphic chart functions (u0, u1) trivializing the
    square of the exponential bundle over a charge-1 curve.

    For the curve of lines through p = (x1, x2, x3):
    u0(zeta) = exp(-2 x3 - 2 (x1 - i x2) zeta) on the finite chart and
    u1(zt)   = exp( 2 x3 - 2 (x1 + i x2) zt) on the swapped chart, which
    satisfy u1 = exp(-2 eta / zeta) u0 on the overlap.
    """
    if curve.k != 1:
        raise ValueError("closed-form trivialization implemented for k = 1 only")
    a1 = curve.coeff_polys[0]
    # eta(zeta) = (x1 + i x2) - 2 x3 zeta - (x1 - i x2) zeta^2 = -a1(zeta)
    w = complex(-a1[0])
    x1, x2 = w.real, w.imag
    x3 = float(a1[1].real) / 2.0

    def u0(zeta):
        return np.exp(-2.0 * x3 - 2.0 * (x1 - 1j * x2) * np.asarray(zeta, complex))

    def u1(zeta_tilde):
        return np.exp(2.0 * x3 - 2.0 * (x1 + 1j * x2) * np.asarray(zeta_tilde, complex))

    return u0, u1


def l2_patch_transition(zeta: complex, eta: complex, u: complex):
    """Patching of the punctured square bundle used for deformations:
    (zeta, eta, u) -> (1/zeta, eta/zeta^2, exp(eta/zeta) u)."""
    if zeta == 0:
        raise ZeroDivisionError("patch transition at the chart pole")
    if u == 0:
        raise ValueError("u must be nonzero (punctured bundle)")
    return (1.0 / zeta, eta / zeta ** 2, np.exp(eta / zeta) * u)


def l2_patch_transition_inverse(zt: complex, et: complex, ut: complex):
    if zt == 0:
        raise ZeroDivisionError("patch transition at the chart pole")
    if ut == 0:
        raise ValueError("u must be nonzero (punctured bundle)")
    zeta = 1.0 / zt
    eta = et / zt ** 2
    return (zeta, eta, np.exp(-eta / zeta) * ut)


# ---------------------------------------------------------------------------
# closest-point map
# ---------------------------------------------------------------------------

def closest_point_euc_polarized(eta, etab, zeta, zetab) -> np.ndarray:
    """Analytic polarization, in independent complex variables eta, etabar,
    zeta, zetabar, of the map sending the line (eta, zeta) to its point
    closest to the origin, Re{conj(eta) (1 - zeta^2, i (1 + zeta^2), -2 zeta)}
    / (1 + |zeta|^2)^2, of norm |eta| / (1 + |zeta|^2), in the axes of
    `charge1_curve`: the real slice is the nearest point of the line whose
    fiber value over zeta is eta.  Used for complex-step derivatives."""
    v = np.array([1.0 - zeta ** 2, 1j * (1.0 + zeta ** 2), -2.0 * zeta])
    vb = np.array([1.0 - zetab ** 2, -1j * (1.0 + zetab ** 2), -2.0 * zetab])
    return (etab * v + eta * vb) / (2.0 * (1.0 + zeta * zetab) ** 2)
