"""Scattering along geodesics: fundamental solutions, decaying
directions, spectral-line detection and growth experiments.

The first-order system s' = M(t) s has one propagator: a single
adaptive DOP853 pass over the continuous QR factorization H = Q R of
the fundamental matrix, with Q unitary and the logs of R's diagonal
integrated as the two growth rates.  Exponentially dichotomic systems
stay in floating range over any horizon without events or restarts,
and the decaying mode is resolved as well as the growing one.
Decaying directions at either end are extracted by seeding with the
asymptotic eigenvector at the horizon and integrating toward the
midpoint, which damps the seeding error exponentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import expit

from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential

__all__ = [
    "FieldSampler",
    "TrivialU1Field",
    "AbelianField",
    "PSField",
    "FundamentalSolution",
    "DecayingData",
    "GrowthFit",
    "IllPosedError",
    "PoleOnGeodesicError",
    "integrate_fundamental",
    "decaying_solution",
    "spectral_indicator",
    "m_gamma_norm",
    "m_gamma_matrix",
    "abelian_growth_exponent",
    "sinh_model_integral",
]


class IllPosedError(ValueError):
    """No spectral gap at the requested end."""


class PoleOnGeodesicError(ValueError):
    """The geodesic runs into a field singularity."""


class FieldSampler:
    """Evaluates the scattering system along one fixed geodesic.

    Subclasses provide ode_matrix(t), the 2x2 complex right-hand side of
    s' = M(t) s, and higgs_norm(t).
    """

    def ode_matrix(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def higgs_norm(self, t: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class TrivialU1Field(FieldSampler):
    """Constant-mass abelian background in its eigen gauge."""

    mass: float = 1.0

    def ode_matrix(self, t):
        return np.array([[self.mass, 0.0], [0.0, -self.mass]], dtype=complex)

    def higgs_norm(self, t):
        return self.mass


class AbelianField(FieldSampler):
    """Multi-center abelian background along a hyperbolic geodesic, in
    the eigen gauge: M(t) = diag(V(gamma(t)), -V(gamma(t))).

    Along gamma(t) = cosh t x0 + sinh t u, cosh of the distance to a
    center P is c(t) = a cosh t + b sinh t with a = -<x0, P> and
    b = -<u, P>, whose minimum over the whole geodesic is
    sqrt(a^2 - b^2).  A geodesic whose minimum reaches 1 (up to 1e-14)
    runs through a center, and sampling it anywhere raises
    PoleOnGeodesicError, even where the sampled window stays clear of
    the crossing."""

    def __init__(self, V: MultiCenterPotential, x0: np.ndarray, u: np.ndarray):
        self.V = V
        self.x0 = np.asarray(x0, dtype=float)   # hyperboloid point, t = 0
        self.u = np.asarray(u, dtype=float)     # unit tangent there
        self._terms = []                        # (l, a, b, min c) per center
        for P, l in zip(V.centers, V.charges):
            P = hyp.embed(P)
            a, b = -float(hyp.mdot(self.x0, P)), -float(hyp.mdot(self.u, P))
            self._terms.append((l, a, b, math.sqrt(max((a - b) * (a + b), 0.0))))
        self._through_center = any(m < 1.0 + 1e-14 for *_, m in self._terms)

    @staticmethod
    def from_impact(V: MultiCenterPotential, center_index: int,
                    impact: float) -> "AbelianField":
        """Geodesic whose closest point to the chosen center is at
        hyperbolic distance asinh(impact); cosh of the running distance
        to the center is then sqrt(1 + impact^2) cosh t exactly."""
        if impact <= 0:
            raise ValueError("impact parameter must be positive")
        p = V.centers[center_index]
        E = hyp.orthonormal_frame_at(p)
        x0 = math.cosh(math.asinh(impact)) * hyp.embed(p) + impact * E[0]
        return AbelianField(V, x0, E[1])

    def higgs_norm(self, t: float) -> float:
        if self._through_center:
            raise PoleOnGeodesicError("geodesic passes through a center")
        ch, sh = math.cosh(t), math.sinh(t)
        v = self.V.lam
        for l, a, b, c_min in self._terms:   # c >= c_min; rounding must not undercut it
            v += l / math.expm1(2.0 * math.acosh(max(a * ch + b * sh, c_min)))
        return v

    def ode_matrix(self, t: float) -> np.ndarray:
        v = self.higgs_norm(t)
        return np.array([[v, 0.0], [0.0, -v]], dtype=complex)


_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]], dtype=complex),
          np.array([[1, 0], [0, -1]], dtype=complex))


def _ps_h_over_r(r: float) -> float:
    """(2 coth 2r - 1/r)/r, series-protected near the center."""
    if r < 0.01:
        r2 = r * r
        return 4.0 / 3.0 - 16.0 * r2 / 45.0 + 128.0 * r2 * r2 / 945.0
    return (2.0 / math.tanh(2.0 * r) - 1.0 / r) / r


def _ps_k_over_r(r: float) -> float:
    """(1/r - 2/sinh 2r)/r, series-protected near the center."""
    if r < 0.01:
        r2 = r * r
        return 2.0 / 3.0 - 14.0 * r2 / 45.0 + 124.0 * r2 * r2 / 945.0
    return (1.0 / r - 2.0 / math.sinh(2.0 * r)) / r


@dataclass
class PSField(FieldSampler):
    """Unit-mass charge-1 Euclidean monopole (the standard closed-form
    hedgehog solution) sampled along the line x0 + t u; x0 should be the
    point of the line closest to the monopole location.

    The fields are smooth everywhere including the center, so lines
    through the center are admissible.  All assertions about this
    fixture rest on its rotational symmetry.
    """

    x0: np.ndarray
    u: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.u = self.u / np.linalg.norm(self.u)
        self.center = np.asarray(self.center, dtype=float)

    def point(self, t: float) -> np.ndarray:
        return self.x0 + t * self.u

    def higgs_norm(self, t: float) -> float:
        p = self.point(t) - self.center
        r = float(np.linalg.norm(p))
        return 0.5 * _ps_h_over_r(r) * r if r < 0.01 else \
            0.5 * (2.0 / math.tanh(2.0 * r) - 1.0 / r)

    def ode_matrix(self, t: float) -> np.ndarray:
        p = self.point(t) - self.center
        r = float(np.linalg.norm(p))
        phi_vec = _ps_h_over_r(r) * p
        a_vec = _ps_k_over_r(r) * np.cross(self.u, p)
        M = np.zeros((2, 2), dtype=complex)
        for a in range(3):
            M += (-0.5 * phi_vec[a]) * _PAULI[a] + (-0.5j * a_vec[a]) * _PAULI[a]
        return M


# ---------------------------------------------------------------------------
# the propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalSolution:
    """Log-scaled path of the fundamental matrix: H(t_j) equals
    exp(logscale_j) M_j, with each stored M_j of unit Frobenius norm."""

    ts: np.ndarray
    mats: np.ndarray        # (n, 2, 2)
    logscales: np.ndarray   # (n,)
    trace_integrals: np.ndarray  # (n,) complex, int of tr M dt

    @property
    def final(self):
        return self.mats[-1], float(self.logscales[-1])

    def log_norm_final(self) -> float:
        M, ls = self.final
        return ls + math.log(float(np.linalg.norm(M, 2)))

    def det_balance_defect(self) -> float:
        """Max over the path of |log|det H| - Re int tr M dt|; the
        discrete form of determinant regularity (for traceless systems
        |det H| = 1, so stored dets must balance the accumulated scale)."""
        worst = 0.0
        for M, ls, w in zip(self.mats, self.logscales, self.trace_integrals):
            d = abs(np.linalg.det(M))
            if d == 0:
                return float("inf")
            worst = max(worst, abs(math.log(d) + 2.0 * ls - w.real))
        return worst


def _propagate(fields: FieldSampler, Q0: np.ndarray, ts: np.ndarray, tol: float):
    """Solution H of H' = M(t) H with H(ts[0]) = Q0, a unitary 2x2, at
    each of `ts`, as (mats, logscales, trace integrals) with H equal to
    exp(logscale) mat, |mat| = 1 (Frobenius), and w = int tr M dt.

    One adaptive DOP853 pass over the continuous QR factorization
    H = Q R, with Q unitary and R = exp(L) [[p, rho], [0, q]], where
    L = log(exp(l1) + exp(l2)), p = exp(l1 - L) and q = exp(l2 - L):
    Q' = Q S, l_i' = Re B_ii, rho' = q ((Re B_11 - Re B_22) rho + B_12
    + conj B_21) and w' = tr M, with B = Q* M Q and S skew-Hermitian,
    S_21 = B_21, S_ii = i Im B_ii.  Each mode's growth rate is
    integrated on its own, so nothing overflows whichever column grows,
    and the small singular value is resolved as well as the large one."""

    def rhs(t, y):                     # scalar 2x2 algebra: no small arrays
        q00, q01, q10, q11, l1, l2, rho, _ = y.tolist()
        (a00, a01), (a10, a11) = fields.ode_matrix(t).tolist()
        u0, u1 = a00 * q00 + a01 * q10, a10 * q00 + a11 * q10   # M Q, column 0
        v0, v1 = a00 * q01 + a01 * q11, a10 * q01 + a11 * q11   # M Q, column 1
        c0, c1 = q00.conjugate(), q10.conjugate()
        d0, d1 = q01.conjugate(), q11.conjugate()
        b00, b01 = c0 * u0 + c1 * u1, c0 * v0 + c1 * v1
        b10, b11 = d0 * u0 + d1 * u1, d0 * v0 + d1 * v1
        s00, s01, s11 = 1j * b00.imag, -b10.conjugate(), 1j * b11.imag
        q = expit(l2.real - l1.real)
        return np.array([q00 * s00 + q01 * b10, q00 * s01 + q01 * s11,
                         q10 * s00 + q11 * b10, q10 * s01 + q11 * s11,
                         b00.real, b11.real,
                         q * ((b00.real - b11.real) * rho + b01 + b10.conjugate()),
                         a00 + a11])

    y0 = np.concatenate([Q0.ravel(), np.zeros(4)]).astype(complex)
    sol = solve_ivp(rhs, (ts[0], ts[-1]), y0, method="DOP853", t_eval=ts,
                    rtol=tol, atol=tol)
    if not sol.success:
        raise RuntimeError(f"integration failed: {sol.message}")
    y = sol.y.T
    l1, l2 = y[:, 4].real, y[:, 5].real
    R = np.zeros((len(ts), 2, 2), dtype=complex)
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 1] = expit(l1 - l2), y[:, 6], expit(l2 - l1)
    H = y[:, :4].reshape(-1, 2, 2) @ R
    norms = np.linalg.norm(H, axis=(1, 2))
    return H / norms[:, None, None], np.logaddexp(l1, l2) + np.log(norms), y[:, 7]


def integrate_fundamental(fields: FieldSampler, t0: float, t1: float,
                          tol: float = 1e-10, checkpoints: int = 17) -> FundamentalSolution:
    """Fundamental matrix of s' = M(t) s with H(t0) = I at `checkpoints`
    evenly spaced times, integrated with relative tolerance `tol`; the
    cumulative trace integral rides along for determinant accounting."""
    ts = np.linspace(t0, t1, checkpoints)
    mats, logs, traces = _propagate(fields, np.eye(2, dtype=complex), ts, tol)
    return FundamentalSolution(ts, mats, logs, traces)


def _asymptotic_seed(fields: FieldSampler, t: float, want_decaying_forward: bool,
                     gap_tol: float = 1e-3) -> np.ndarray:
    A = fields.ode_matrix(t)
    lam, vecs = np.linalg.eig(A)
    order = np.argsort(lam.real)
    gap = lam.real[order[-1]] - lam.real[order[0]]
    if gap < gap_tol:
        raise IllPosedError("no spectral gap at the horizon: decaying direction ill posed")
    idx = order[0] if want_decaying_forward else order[-1]
    v = vecs[:, idx]
    return v / np.linalg.norm(v)


def decaying_solution(fields: FieldSampler, end: int, t_horizon: float,
                      tol: float = 1e-10) -> np.ndarray:
    """Unit direction at t = 0 of the solution decaying at the chosen end
    (+1 or -1), via backward integration from the horizon seeded with
    the asymptotic eigenvector (the first column of a unitary start)."""
    if end not in (+1, -1):
        raise ValueError("end must be +1 or -1")
    t_far = end * t_horizon
    v = _asymptotic_seed(fields, t_far, want_decaying_forward=(end == +1))
    Q0 = np.array([[v[0], -v[1].conjugate()], [v[1], v[0].conjugate()]])
    s = _propagate(fields, Q0, np.array([t_far, 0.0]), tol)[0][-1][:, 0]
    return s / np.linalg.norm(s)


@dataclass(frozen=True)
class DecayingData:
    """Unit directions at t = 0 of the solutions decaying at the two
    ends, with their symplectic pairing det[s0 s0']."""

    s0: np.ndarray        # decays as t -> +infinity
    s0_prime: np.ndarray  # decays as t -> -infinity
    pairing: complex

    @staticmethod
    def of(fields: FieldSampler, t_horizon: float = 40.0,
           tol: float = 1e-10) -> "DecayingData":
        s0 = decaying_solution(fields, +1, t_horizon, tol)
        s0p = decaying_solution(fields, -1, t_horizon, tol)
        det = s0[0] * s0p[1] - s0[1] * s0p[0]
        return DecayingData(s0, s0p, complex(det))

    def indicator(self) -> float:
        """|pairing| of unit directions: in [0, 1], zero exactly on
        spectral lines (one solution decaying at both ends)."""
        return float(abs(self.pairing))

    def splitting_reflection(self) -> np.ndarray:
        """The reflection through the two decaying subspaces: +1 on the
        forward one, -1 on the backward one."""
        if abs(self.pairing) < 1e-12:
            raise ZeroDivisionError("spectral line: splitting degenerates")
        S = np.column_stack([self.s0, self.s0_prime])
        return S @ np.diag([1.0, -1.0]) @ np.linalg.inv(S)


def spectral_indicator(fields: FieldSampler, t_horizon: float = 40.0,
                       tol: float = 1e-10) -> float:
    """|det [s0 s0']| with unit decaying directions at the two ends,
    evaluated at t = 0."""
    return DecayingData.of(fields, t_horizon, tol).indicator()


def m_gamma_matrix(fields: FieldSampler, t_horizon: float = 40.0,
                   tol: float = 1e-10) -> np.ndarray:
    return DecayingData.of(fields, t_horizon, tol).splitting_reflection()


def m_gamma_norm(fields: FieldSampler, t_horizon: float = 40.0,
                 tol: float = 1e-10) -> float:
    return float(np.linalg.norm(m_gamma_matrix(fields, t_horizon, tol), 2))


# ---------------------------------------------------------------------------
# abelian growth experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFit:
    slope: float
    intercept: float
    r_squared: float
    impacts: tuple[float, ...]
    log_norms: tuple[float, ...]


def abelian_growth_exponent(V: MultiCenterPotential, center_index: int,
                            delta: float, z_samples, tol: float = 1e-10) -> GrowthFit:
    """Least-squares exponent of the fundamental-solution growth against
    the impact parameter: log ||H(z)|| fitted against log(1/|z|) over
    geodesics at impact |z| from the chosen center, each integrated over
    the window [-delta, delta].  The slope estimates the center's
    abelian charge."""
    zs = [float(abs(z)) for z in z_samples]
    if any(z <= 0 or z >= delta for z in zs):
        raise ValueError("impact samples must lie strictly between 0 and delta")
    lognorms = []
    for z in zs:
        f = AbelianField.from_impact(V, center_index, z)
        sol = integrate_fundamental(f, -delta, delta, tol=tol)
        lognorms.append(sol.log_norm_final())
    xs = np.log(1.0 / np.asarray(zs))
    ys = np.asarray(lognorms)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return GrowthFit(float(slope), float(intercept), r2, tuple(zs), tuple(lognorms))


def sinh_model_integral(l: float, delta: float, z: float) -> tuple[float, float]:
    """Quadrature of the model profile l / (2 sqrt(t^2 + z^2)) over
    [-delta, delta] next to its closed form l * asinh(delta / z)."""
    val, _ = quad(lambda t: l / (2.0 * math.hypot(t, z)), -delta, delta,
                  epsabs=1e-13, epsrel=1e-13)
    return val, l * math.asinh(delta / z)
