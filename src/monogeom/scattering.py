"""Scattering along geodesics: fundamental solutions, decaying
directions, spectral-line detection and growth experiments.

The first-order system s' = M(t) s has one propagator, numpy only: the
sixth-order Magnus scheme on three Gauss nodes (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470 (2009) 151-238; Iserles & Norsett, Phil. Trans. R. Soc. A 357
(1999) 983-1019), each step's exponential in closed form.  The mesh is refined
by step doubling over all pending steps of every path propagated together, one
batched sampler call per refinement round.  A step passes when its step-
doubling difference is within 8 tol of its norm, and keeps the pair's
Richardson extrapolation (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  So
`tol` targets the global error of log ||H||, the relative error of ||H||:
against closed-form and 30-digit oracles (tests/test_scattering.py) it read
<= 0.55 tol from tol 1e-6 to 1e-12.  It is no bound: a step about as long as a
grazing center's closest approach can fool the estimate (3.8 tol on a denser
sweep).  The initial mesh is the output times, each interval cut into steps of
at most `_MAX_STEP`.  The steps between output times are multiplied in blocks
of at most 64 by pairwise products, and the blocks are accumulated, one QR
update each, as a discrete QR factorization of the fundamental matrix (Dieci,
Russell & Van Vleck, SIAM J. Numer. Anal. 34 (1997) 402-423) with the log of
R's diagonal kept apart, so exponentially dichotomic systems stay in floating
range over any horizon and the decaying mode is resolved as well as the
growing one.  M is traceless, as an su(2) monopole's scattering equation is (M11
= -M00 in every sampler; |tr M| > 1e-12 |M| raises ValueError), so each Magnus
step and H lie in SL(2, C) (Iserles, Munthe-Kaas, Norsett & Zanna, Acta Numer.
9 (2000) 215-365) and R's diagonal is (e^l1, e^-l1): one log growth rate, l1.
Decaying directions at either end are extracted by seeding with the asymptotic
eigenvector at the horizon, in closed form, and integrating toward the
midpoint, which damps the seeding error exponentially; both ends share one
propagation.  For such a run `tol` is the accuracy of its one output, the unit
direction at t = 0.  Integrating toward 0 makes the wanted mode dominant, so an
error made at t reaches 0 shrunk by about exp(-G(t)), G the gap 2 |Re mu| of M
= [[d, p], [q, -d]] (mu^2 = d^2 + pq) integrated from 0 to t: an exponential
dichotomy (Coppel, Dichotomies in Stability Theory, LNM 629, 1978).  So each
step's step-doubling difference is weighted by exp(-G/2) at its end nearer 0,
and far steps are taken longer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential
from .twistor import _LEGENDRE_16

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
    s' = M(t) s, and higgs_norm(t).  Both take a batch: a float t gives
    one (2, 2) matrix or one float, and an (n,) array of times gives
    (n, 2, 2) matrices or (n,) floats.  M must be traceless (M11 =
    -M00); the propagator refuses a traced M with ValueError.
    """

    def ode_matrix(self, t) -> np.ndarray:
        raise NotImplementedError

    def higgs_norm(self, t):
        raise NotImplementedError


def _diagonal(v) -> np.ndarray:
    """diag(v, -v) for each entry of v, as complex (..., 2, 2)."""
    v = np.asarray(v, dtype=float)
    M = np.zeros(v.shape + (2, 2), dtype=complex)
    M[..., 0, 0], M[..., 1, 1] = v, -v
    return M


@dataclass(frozen=True)
class TrivialU1Field(FieldSampler):
    """Constant-mass abelian background in its eigen gauge."""

    mass: float = 1.0

    def ode_matrix(self, t):
        return _diagonal(self.higgs_norm(t))

    def higgs_norm(self, t):
        return np.full(np.shape(t), float(self.mass))[()]


class AbelianField(FieldSampler):
    """Multi-center abelian background along a hyperbolic geodesic, in
    the eigen gauge: M(t) = diag(V(gamma(t)), -V(gamma(t))).

    Along gamma(t) = cosh t x0 + sinh t u, the distance rho(t) to a
    center P has sinh^2 rho = s^2 + (b cosh t + a sinh t)^2, where
    a = -<x0, P>, b = -<u, P> and s^2 = <n, n> for n = P - a x0 + b u,
    the part of P normal to the geodesic's plane; s is sinh of the
    closest approach.  Carrying s^2 rather than cosh rho keeps V accurate
    at grazing impacts, where cosh rho - 1 would cancel.
    A geodesic whose closest approach has s below about 1.4e-7 runs
    through a center, and sampling it anywhere raises
    PoleOnGeodesicError, even where the sampled window stays clear of
    the crossing."""

    def __init__(self, V: MultiCenterPotential, x0: np.ndarray, u: np.ndarray):
        self.V = V
        self.x0 = np.asarray(x0, dtype=float)   # hyperboloid point, t = 0
        self.u = np.asarray(u, dtype=float)     # unit tangent there
        terms = []                              # (l, a, b, s^2) per center
        for P, l in zip(V.centers, V.charges):
            P = hyp.embed(P)
            a, b = -float(hyp.mdot(self.x0, P)), -float(hyp.mdot(self.u, P))
            n = P - a * self.x0 + b * self.u
            terms.append((l, a, b, float(hyp.mdot(n, n))))
        self._l, self._a, self._b, self._s2 = np.array(terms, dtype=float).reshape(-1, 4).T
        self._through_center = bool(np.any(self._s2 < 2e-14))

    @staticmethod
    def from_impact(V: MultiCenterPotential, center_index: int,
                    impact: float) -> "AbelianField":
        """Geodesic whose closest point to the chosen center is at
        hyperbolic distance asinh(impact); cosh of the running distance
        to the center is then sqrt(1 + impact^2) cosh t exactly.  An
        impact that is not finite and > 0 raises ValueError (NaN too)."""
        if not 0.0 < impact < math.inf:
            raise ValueError(f"impact parameter must be finite and positive, got {impact}")
        p = V.centers[center_index]
        E = hyp.orthonormal_frame_at(p)
        x0 = math.cosh(math.asinh(impact)) * hyp.embed(p) + impact * E[0]
        return AbelianField(V, x0, E[1])

    def higgs_norm(self, t):
        if self._through_center:
            raise PoleOnGeodesicError("geodesic passes through a center")
        t = np.asarray(t, dtype=float)[..., None]
        w = self._b * np.cosh(t) + self._a * np.sinh(t)
        return self.V.lam + np.sum(self._l * hyp.green_from_sinh2(self._s2 + w * w), axis=-1)

    def ode_matrix(self, t) -> np.ndarray:
        return _diagonal(self.higgs_norm(t))


def _xcoth_taylor(count: int) -> list[float]:
    """Taylor coefficients a_n of x coth x = sum_n a_n x^{2n}, from its
    Riccati equation x f' = f - f^2 + x^2:
    (2n + 1) a_n = [n = 1] - sum_{0<i<n} a_i a_{n-i} (no cancellation)."""
    a = [1.0]
    for n in range(1, count):
        a.append(((n == 1) - sum(a[i] * a[n - i] for i in range(1, n))) / (2 * n + 1))
    return a


# (2 coth 2r - 1/r)/r = sum_{n>0} a_n 4^n r^{2n-2} and, as x csch x is
# 2 f(x/2) - f(x), (1/r - 2/sinh 2r)/r = sum_{n>0} a_n (4^n - 2) r^{2n-2};
# stored highest power first for Horner's rule
_XCOTH = list(enumerate(_xcoth_taylor(15)))[:0:-1]
_PS_H_SERIES = tuple(4.0 ** n * a for n, a in _XCOTH)
_PS_K_SERIES = tuple((4.0 ** n - 2.0) * a for n, a in _XCOTH)
# below this radius the closed forms cancel (6e-15 relative at r = 0.2); the
# 14-term series is exact to rounding up to it
_PS_SERIES_R = 0.4


def _ps_radial(r):
    """(2 coth 2r - 1/r)/r and (1/r - 2 csch 2r)/r for a float or an array
    of radii.  The closed forms take coth 2r = 1 + 2 e^2/(1 - e^2) and
    csch 2r = 2 e/(1 - e^2) from one e = exp(-2r), which underflows
    quietly far out, and only ever see r at or above _PS_SERIES_R; the
    Taylor series runs only at the radii below it."""
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    x = np.maximum(flat, _PS_SERIES_R)
    e, inv = np.exp(-2.0 * x), 1.0 / x
    d = 2.0 * e / (1.0 - e * e)
    h, k = (2.0 + 2.0 * e * d - inv) * inv, (inv - 2.0 * d) * inv
    near = np.flatnonzero(flat < _PS_SERIES_R)
    if near.size:
        r2, hs, ks = flat[near] ** 2, 0.0, 0.0
        for ch, ck in zip(_PS_H_SERIES, _PS_K_SERIES):
            hs, ks = hs * r2 + ch, ks * r2 + ck
        h[near], k[near] = hs, ks
    return h.reshape(r.shape), k.reshape(r.shape)


def _read_only(v) -> np.ndarray:
    v = np.array(v, dtype=float)
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class PSField(FieldSampler):
    """Unit-mass charge-1 Euclidean monopole (the standard closed-form
    hedgehog solution) sampled along the line x0 + t u; x0 should be the
    point of the line closest to the monopole location.

    The fields are smooth everywhere including the center, so lines
    through the center are admissible.  All assertions about this
    fixture rest on its rotational symmetry.

    M(t) is built in closed form, by components over a batch of times:
    with p = x0 - center + t u and r = |p|, the Higgs field is
    phi = h(r) p and the connection a = k(r) u x p = k(r) u x (x0 -
    center), and M = w . sigma with w = -(phi + i a)/2, traceless.  The
    line is held in read-only copies and cached as float tuples; a zero or
    non-finite u, or a non-finite x0 or center, raises ValueError.
    """

    x0: np.ndarray
    u: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _p0: tuple = field(init=False, repr=False, compare=False)    # x0 - center
    _dir: tuple = field(init=False, repr=False, compare=False)   # u
    _cross: tuple = field(init=False, repr=False, compare=False)  # u x (x0 - center)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if not (0.0 < np.linalg.norm(u) < math.inf and np.isfinite([self.x0, self.center]).all()):
            raise ValueError("PS line needs a finite nonzero direction u and finite x0 and center")
        x0, u, center = map(_read_only, (self.x0, u / np.linalg.norm(u), self.center))
        (px, py, pz), (ux, uy, uz) = (x0 - center).tolist(), u.tolist()
        cross = (uy * pz - uz * py, uz * px - ux * pz, ux * py - uy * px)
        for name, value in (("x0", x0), ("u", u), ("center", center),
                            ("_p0", (px, py, pz)), ("_dir", (ux, uy, uz)),
                            ("_cross", cross)):
            object.__setattr__(self, name, value)

    def point(self, t: float) -> np.ndarray:
        return self.x0 + t * self.u

    def _offset(self, t):
        """p = x0 - center + t u by components, and r = |p|."""
        (px, py, pz), (ux, uy, uz) = self._p0, self._dir
        t = np.asarray(t, dtype=float)
        x, y, z = px + t * ux, py + t * uy, pz + t * uz
        return x, y, z, np.sqrt(x * x + y * y + z * z)

    def higgs_norm(self, t):
        r = self._offset(t)[3]
        return 0.5 * _ps_radial(r)[0] * r

    def ode_matrix(self, t) -> np.ndarray:
        x, y, z, r = self._offset(t)
        h, k = -0.5 * np.stack(_ps_radial(r))
        cx, cy, cz = self._cross
        M = np.empty(r.shape + (2, 2), dtype=complex)
        re, im = M.real, M.imag   # [[w2, w0 - i w1], [w0 + i w1, -w2]]
        re[..., 0, 0], im[..., 0, 0] = h * z, k * cz
        re[..., 0, 1], im[..., 0, 1] = h * x + k * cy, k * cx - h * y
        re[..., 1, 0], im[..., 1, 0] = h * x - k * cy, k * cx + h * y
        re[..., 1, 1], im[..., 1, 1] = -re[..., 0, 0], -im[..., 0, 0]
        return M


# ---------------------------------------------------------------------------
# the propagator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FundamentalSolution:
    """Log-scaled path of the fundamental matrix: H(t_j) equals
    exp(logscale_j) M_j, with each stored M_j of unit Frobenius norm.
    The path comes from `_propagate`'s sixth-order Magnus steps, its log
    norm within about `tol` (module docstring).  M is traceless, so H is
    in SL(2, C): det M_j = exp(-2 logscale_j)."""

    ts: np.ndarray
    mats: np.ndarray        # (n, 2, 2)
    logscales: np.ndarray   # (n,)

    @property
    def trace_integrals(self) -> np.ndarray:
        """int tr M dt to each checkpoint, (n,) complex zeros: M is traceless."""
        return np.zeros(len(self.ts), dtype=complex)

    @property
    def final(self):
        return self.mats[-1], float(self.logscales[-1])

    def log_norm_final(self) -> float:
        """log ||H||_2 at the end: sigma_max(M)^2 in closed form, nothing cancelled under the root."""
        (a, b), (c, d) = self.mats[-1].tolist()   # M^dagger M = [[A, B], [B*, D]]
        A, D = abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2
        B = a.conjugate() * b + c.conjugate() * d
        return float(self.logscales[-1]) + 0.5 * math.log((A + D + math.hypot(A - D, 2 * abs(B))) / 2)

    def det_balance_defect(self) -> float:
        """Max over the path of |log|det H||: |det H| = 1, so each stored
        |det M_j| must balance exp(-2 logscale_j), which past 15-20 units
        of growth is below rounding."""
        defects = [0.0]    # reduced by np.max, which keeps a NaN
        for M, ls in zip(self.mats, self.logscales):
            d = abs(np.linalg.det(M))
            if d == 0:
                return float("inf")
            defects.append(abs(math.log(d) + 2.0 * ls))
        return float(np.max(defects))


# the Gauss-Legendre nodes of a Magnus step (rows) as fractions of the
# step, for the step and for its two halves (columns): one sampler call
# covers all nine
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_NODES = np.array([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS]).T
_MAX_STEP = 2.0          # longest step of the initial mesh
_MAX_MESH = 100_000      # most steps in a round (node matrices: 58 MB); more raise ValueError
MAX_HORIZON = _MAX_MESH * _MAX_STEP / 4   # longest T whose [-T, T] meshes fit, checkpoints too
# largest squared Frobenius norm of an accepted step, of its half steps' product
# and of the step stored: beyond it the decaying component of exp Omega, cosh mu
# - sinh mu, loses more than e^6 eps to cancellation
_MAX_NORM2 = math.exp(6.0)
_MAX_SPLIT = 64          # most pieces a failing step is cut into in one round
_ACCEPT = 8.0  # step acceptance in units of tol: the largest power of 2 keeping the oracles within tol
_BLOCK = 64   # most steps in a block product: below e^192 unscaled, its modes part by at most e^384
# cosh mu and sinh mu / mu as series in mu^2 below _SERIES_MU2, where
# the four terms kept are exact to rounding (the next is below 3e-21)
_SERIES_MU2 = 1e-4
_COSH = tuple(1.0 / math.factorial(2 * n) for n in range(4))[::-1]
_SINHC = tuple(1.0 / math.factorial(2 * n + 1) for n in range(4))[::-1]


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] for traceless 2x2 matrices given by components (d, p, q)
    along the first axis, X = [[d, p], [q, -d]]."""
    (dx, px, qx), (dy, py, qy) = x, y
    return np.array([px * qy - py * qx, 2.0 * (dx * py - dy * px), 2.0 * (dy * qx - dx * qy)])


def _magnus_steps(A: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus steps (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009), the three-node Gauss scheme) of lengths h (...), from
    traceless M at each step's Gauss nodes, A (3, ..., 2, 2): exp Omega
    by its components (E00, E01, E10, E11) along the first axis.

    Omega is traceless, so each matrix is carried as (d, p, q) with d =
    (X00 - X11)/2, p = X01, q = X10, and exp Omega is in SL(2, C) and in
    closed form: Omega^2 = mu^2 I and exp Omega = cosh mu I + (sinh mu /
    mu) Omega, both factors by series only at the steps with |mu^2| < _SERIES_MU2."""
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    X = np.array([(0.5 * h) * (a00 - a11), h * a01, h * a10])
    a1 = X[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * (X[:, 2] - X[:, 0])
    a3 = (10.0 / 3.0) * (X[:, 2] - 2.0 * X[:, 1] + X[:, 0])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    d, p, q = (a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0).reshape(3, -1)
    mu2 = d * d + p * q   # flat, as one step's would be scalars
    small = np.flatnonzero(np.abs(mu2) < _SERIES_MU2)
    mu = np.sqrt(mu2)
    mu[small] = 1.0
    # cosh and sinh of mu = x + iy from real functions, 4x faster than complex
    x, y = mu.real, mu.imag
    cx, sx, cy, sy = np.cosh(x), np.sinh(x), np.cos(y), np.sin(y)
    ch, shc = cx * cy + 1j * (sx * sy), (sx * cy + 1j * (cx * sy)) / mu
    if small.size:   # the series only where mu^2 is small
        z, cs, ss = mu2[small], 0.0, 0.0
        for c, s in zip(_COSH, _SINHC):
            cs, ss = cs * z + c, ss * z + s
        ch[small], shc[small] = cs, ss
    return np.array([ch + shc * d, shc * p, shc * q, ch - shc * d]).reshape((4,) + X.shape[2:])


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X Y for 2x2 matrices given by components (M00, M01, M10, M11)
    along the first axis."""
    (x00, x01, x10, x11), (y00, y01, y10, y11) = x, y
    return np.array([x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
                     x10 * y00 + x11 * y10, x10 * y01 + x11 * y11])


def _edges(t0: np.ndarray, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intervals [t0_i, t1_i] cut into n_i = max(1, ceil(|t1_i - t0_i| / _MAX_STEP)) equal
    steps by np.linspace's arithmetic, edges j ((t1 - t0) / n) + t0 and t1 last: starts, ends, n."""
    n = np.maximum(1, np.ceil(np.abs(t1 - t0) / _MAX_STEP))
    if not n.sum() <= _MAX_MESH:
        raise ValueError(f"initial mesh of {n.sum():.3g} steps: more than the cap of {_MAX_MESH}")
    n = n.astype(int)
    which, last = np.repeat(np.arange(len(n)), n), np.cumsum(n) - 1
    a = (np.arange(len(which)) - (last + 1 - n)[which]) * ((t1 - t0) / n)[which] + t0[which]
    b = np.append(a[1:], t1[-1:])
    b[last] = t1
    return a, b, n


def _damping(A: np.ndarray, a: np.ndarray, b: np.ndarray, run: np.ndarray,
             signs: np.ndarray) -> list:
    """Per run with steps, (i, sign t, G) at the edges of its whole
    first-round mesh, sign t increasing for np.interp, with G(t) = int
    2 |Re mu| from t to the run's last time.  The frozen gap 2 |Re mu| of
    M = [[d, p], [q, -d]], mu^2 = d^2 + pq, is read at each step's
    middle Gauss node, A (m, 2, 2), and held over the step."""
    d = 0.5 * (A[:, 0, 0] - A[:, 1, 1])
    c = 2.0 * np.sqrt(d * d + A[:, 0, 1] * A[:, 1, 0]).real * np.abs(b - a)
    tables = []
    for i, sign in enumerate(signs):
        mine = np.flatnonzero(run == i)
        if mine.size:
            G = np.append(np.cumsum(c[mine][::-1])[::-1], 0.0)
            tables.append((i, sign * np.append(a[mine[:1]], b[mine]), G))
    return tables


def _mesh(fields: FieldSampler, runs: list, tol: float, damped: bool = False):
    """Accepted steps of each run of output times, from its first time
    to its last: (4, m) step matrices by components, grouped by run in
    the order taken, and per run the index of the first step after each
    of its times.

    A run's initial mesh is its output times, each interval between them
    cut into steps of at most _MAX_STEP.  Each step carries its run's
    index, and each round samples every node of every pending step in
    one ode_matrix call.  With P = E_{h/2} E_{h/2} and err = ||P - E_h|| /
    (_ACCEPT tol ||P||) (Frobenius), a step passes when err <= 1 and both
    ||P||^2 and ||S||^2 <= _MAX_NORM2, and contributes S = P + (P - E_h)/63;
    a failing step is cut into ceil(1.2 err^{1/7}) equal pieces (more if it
    grows too much), and only those are checked in the next round, until one
    passes them all.  A sampled M with |tr M| above 1e-12 |M| raises ValueError.

    `damped` is for runs whose only output is the direction at their last
    time (module docstring): err is weighted by exp(-G/2), G from
    `_damping` at the step's end nearer that time, half the rate because
    the frozen gap overstates the dichotomy where M turns fast."""
    signs = np.array([1.0 if ts[-1] >= ts[0] else -1.0 for ts in runs])  # directions
    t0, t1, run = [], [], []
    for i, (ts, sign) in enumerate(zip(runs, signs)):
        marks = sorted(set(ts.tolist()), key=lambda t: sign * t)
        t0, t1, run = t0 + marks[:-1], t1 + marks[1:], run + [i] * (len(marks) - 1)
    a, b, n = _edges(np.array(t0, dtype=float), np.array(t1, dtype=float))
    run = np.repeat(np.array(run, dtype=int), n)
    # no steps at all in a run whose times are all equal
    starts, taken, mats = [[]], [np.zeros(0, int)], [np.zeros((4, 0))]
    tables = None
    while a.size:
        h = b - a
        nodes = a + h * _NODES[..., None]
        A = np.asarray(fields.ode_matrix(nodes.ravel())).reshape(3, 3, -1, 2, 2)
        trace = A[..., 0, 0] + A[..., 1, 1]
        if np.any(trace) and np.any(np.abs(trace) > 1e-12 * np.linalg.norm(A, axis=(-2, -1))):
            raise ValueError("M(t) must be traceless: the propagator keeps H in SL(2, C)")
        with np.errstate(over="ignore", invalid="ignore"):
            E = _magnus_steps(A, h * np.array([[1.0], [0.5], [0.5]]))
            half = _product(E[:, 2], E[:, 1])
            diff = half - E[:, 0]
            step = half + diff / 63.0
            size = np.sum(np.abs(half) ** 2, axis=0)
            err = np.sqrt(np.sum(np.abs(diff) ** 2, axis=0) / size) / (_ACCEPT * tol)
            if damped:
                if tables is None:   # the first round covers every run whole
                    tables = _damping(A[1, 0], a, b, run, signs)
                for i, edges, G in tables:
                    mine = run == i
                    err[mine] *= np.exp(-0.5 * np.interp(signs[i] * b[mine], edges, G))
            ok = (err <= 1.0) & (np.maximum(size, np.sum(np.abs(step) ** 2, axis=0)) <= _MAX_NORM2)
            starts.append(a[ok])
            taken.append(run[ok])
            mats.append(step[:, ok])
            if ok.all():
                break
            # enough pieces for the error bound, and for each piece's
            # log size to be about half the cap
            pieces = np.ceil(np.maximum(1.2 * err[~ok] ** (1.0 / 7.0),
                                        2.0 * np.log(size[~ok]) / math.log(_MAX_NORM2)))
        k = np.where(np.isfinite(pieces), np.clip(pieces, 2, _MAX_SPLIT), _MAX_SPLIT).astype(int)
        a, h, b, run = a[~ok], h[~ok], b[~ok], run[~ok]
        stuck = np.abs(h) / k <= 1e-13 * np.maximum(1.0, np.abs(a))
        if np.any(stuck):
            raise RuntimeError(f"integration failed: no step at t = {a[stuck][0]:.6g} "
                               f"meets tol {tol:g}")
        if k.sum() > _MAX_MESH:
            raise ValueError(f"a round of {k.sum()} steps: more than the cap of {_MAX_MESH}")
        which = np.repeat(np.arange(len(k)), k)
        j = np.arange(len(which)) - np.repeat(np.cumsum(k) - k, k)
        a, b, run = (a[which] + h[which] * (j / k[which]), np.where(
            j + 1 == k[which], b[which], a[which] + h[which] * ((j + 1) / k[which])), run[which])
    run = np.concatenate(taken)
    starts = signs[run] * np.concatenate(starts)
    order = np.lexsort((starts, run))
    starts, bounds = starts[order], np.searchsorted(run[order], np.arange(len(runs) + 1))
    stops = [lo + np.searchsorted(starts[lo:hi], sign * ts)
             for ts, sign, lo, hi in zip(runs, signs, bounds[:-1], bounds[1:])]
    return np.concatenate(mats, axis=1)[:, order], stops


def _propagate(fields: FieldSampler, runs: list, tol: float, damped: bool = False) -> list:
    """For each run (v, ts), v a unit 2-vector, the solution H of H' =
    M(t) H at each of `ts` from the SU(2) start H(ts[0]) = [[v0, -conj
    v1], [v1, conj v0]], as (mats, logscales) with H equal to
    exp(logscale) mat, |mat| = 1 (Frobenius).

    The steps are `_mesh`'s locally extrapolated sixth-order Magnus steps,
    every run's refined in the same rounds.  The steps between two output times
    are cut into blocks of at most _BLOCK, and every block's ordered product
    P = E_last ... E_first is formed at once by pairwise products, below e^192
    as each stored step is below e^3 (_MAX_NORM2), then rescaled once by a
    power of two whose log the block keeps.  The blocks are accumulated as a
    discrete QR factorization H = Q R, with Q in SU(2) and R = exp(L) [[p,
    rho], [0, q]], where L = log(exp(l1) + exp(-l1)), p = exp(l1 - L) and q =
    exp(-l1 - L): P Q = Q' R' with R' upper triangular with a positive
    diagonal, so l1 += log R'_00, and rho carries R's corner scaled by
    exp(-L).  M is traceless, so det P = 1: R'_11 = 1 / R'_00, and Q's second
    column is (-conj q10, conj q00).  The growth is kept in its log, so nothing
    overflows whichever column grows."""
    mats, stops = _mesh(fields, [ts for _, ts in runs], tol, damped)
    lo, hi = np.concatenate([s[:-1] for s in stops]), np.concatenate([s[1:] for s in stops])
    first = np.concatenate(([0], np.cumsum(-(-(hi - lo) // _BLOCK))))   # per interval
    step = np.arange(mats.shape[1])
    k = np.searchsorted(lo, step, "right") - 1                          # each step's interval
    block, slot = first[k] + (step - lo[k]) // _BLOCK, (step - lo[k]) % _BLOCK
    width = 1 << (min(int((hi - lo).max(initial=1)), _BLOCK) - 1).bit_length()
    P = np.zeros((4, first[-1], width), dtype=complex)   # identities pad short blocks
    P[0] = P[3] = 1.0
    P[:, block, slot] = mats
    while P.shape[2] > 1:
        P = _product(P[:, :, 1::2], P[:, :, 0::2])
    # log2 of each block's scale; blocks of one step (width 1) are below e^3 and keep theirs
    e = np.frexp(np.abs(P[:, :, 0]).max(axis=0))[1] * (width > 1)
    blocks = zip((P[:, :, 0] * np.exp2(-e)).T.tolist(), (math.log(2.0) * e).tolist())
    out = []
    for (v, ts), K in zip(runs, np.cumsum([0] + [len(ts) - 1 for _, ts in runs])):
        q00, q10 = complex(v[0]), complex(v[1])
        l1, L, rho = 0.0, math.log(2.0), 0j
        path, done = [], first[K]
        for stop in first[K:K + len(ts)]:
            for (e00, e01, e10, e11), s in itertools.islice(blocks, stop - done):
                q01, q11 = -q10.conjugate(), q00.conjugate()
                a00, a10 = e00 * q00 + e01 * q10, e10 * q00 + e11 * q10   # P Q
                a01, a11 = e00 * q01 + e01 * q11, e10 * q01 + e11 * q11
                r00 = math.hypot(abs(a00), abs(a10))
                q00, q10 = a00 / r00, a10 / r00
                r01 = q00.conjugate() * a01 + q10.conjugate() * a11
                g1 = s + math.log(r00)
                l1, l1_old, L_old = l1 + g1, l1, L
                L = abs(l1) + math.log1p(math.exp(-2.0 * abs(l1)))
                rho = rho * math.exp(g1 + L_old - L) + r01 * math.exp(s - l1_old - L)
            done = stop
            path.append((q00, q10, rho, l1, L))
        q00, q10, rho, l1, L = np.array(path).T
        l1, L = l1.real, L.real
        R = np.zeros((len(ts), 2, 2), dtype=complex)
        R[:, 0, 0], R[:, 0, 1], R[:, 1, 1] = np.exp(l1 - L), rho, np.exp(-l1 - L)
        H = np.stack([q00, -q10.conj(), q10, q00.conj()], axis=-1).reshape(-1, 2, 2) @ R
        norms = np.linalg.norm(H, axis=(1, 2))
        out.append((H / norms[:, None, None], L + np.log(norms)))
    return out


def integrate_fundamental(fields: FieldSampler, t0: float, t1: float,
                          tol: float = 1e-10, checkpoints: int = 17) -> FundamentalSolution:
    """Fundamental matrix of s' = M(t) s with H(t0) = I at `checkpoints`
    evenly spaced times, log ||H|| within about `tol` (module docstring).
    M must be traceless (ValueError otherwise), so H is in SL(2, C)."""
    ts = np.linspace(t0, t1, checkpoints)
    return FundamentalSolution(ts, *_propagate(fields, [((1.0, 0.0), ts)], tol)[0])


def _asymptotic_eigenvectors(M: np.ndarray, ends) -> np.ndarray:
    """Unit eigenvectors (k, 2) of M (k, 2, 2) for the eigenvalue of least
    real part where the end is +1 and greatest where it is -1, in closed
    form: lambda = m = -+mu, mu = sqrt(d^2 + pq) (Re mu >= 0) for M =
    [[d, p], [q, -d]], and the kernel of [[d - m, p], [q, -d - m]] read
    from whichever of (p, m - d) and (m + d, q) is longer.  Raises
    IllPosedError where 2 |Re mu|, the gap between the two real parts, is
    below 1e-3."""
    d, p, q = 0.5 * (M[:, 0, 0] - M[:, 1, 1]), M[:, 0, 1], M[:, 1, 0]
    mu = np.sqrt(d * d + p * q)
    if not np.all(2.0 * mu.real >= 1e-3):
        raise IllPosedError("no spectral gap at the horizon: decaying direction ill posed")
    m = -np.asarray(ends, dtype=float) * mu
    row, col = np.stack([p, m - d], axis=-1), np.stack([m + d, q], axis=-1)
    v = np.where((np.linalg.norm(row, axis=-1) >= np.linalg.norm(col, axis=-1))[:, None], row, col)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _decaying(fields: FieldSampler, ends, t_horizon: float, tol: float) -> list:
    """Unit directions at t = 0 of the solutions decaying at each of
    `ends` (+1 or -1), all in one propagation back from the horizons, each
    seeded with the asymptotic eigenvector and refined for the direction
    at 0 (`_mesh`'s `damped`).  A horizon that is not finite and > 0
    raises ValueError before any sampling."""
    if any(end not in (+1, -1) for end in ends):
        raise ValueError("end must be +1 or -1")
    if not 0.0 < t_horizon < math.inf:    # a NaN compares False
        raise ValueError(f"horizon must be finite and positive, got {t_horizon}")
    t_far = t_horizon * np.array(ends, dtype=float)
    seeds = _asymptotic_eigenvectors(fields.ode_matrix(t_far), ends)
    return [H[-1][:, 0] / np.linalg.norm(H[-1][:, 0]) for H, _ in _propagate(
        fields, [(v, np.array([t, 0.0])) for t, v in zip(t_far.tolist(), seeds)], tol, damped=True)]


def decaying_solution(fields: FieldSampler, end: int, t_horizon: float,
                      tol: float = 1e-10) -> np.ndarray:
    """Unit direction at t = 0 of the solution decaying at the chosen end
    (+1 or -1), via backward integration from the horizon (finite and
    > 0, else ValueError) seeded with the asymptotic eigenvector.  `tol`
    is the accuracy of that direction: a step at t may err by exp(G(t)/2)
    tol, G the gap of M integrated from 0 to t (module docstring), since
    its error is damped on the way to 0."""
    return _decaying(fields, (end,), t_horizon, tol)[0]


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
        """Both ends from one propagation, with `tol` the accuracy of the
        directions at t = 0: far steps have their errors weighted by
        exp(-G/2), G the gap integrated from 0 (`decaying_solution`)."""
        s0, s0p = _decaying(fields, (+1, -1), t_horizon, tol)
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

    def reflection_norm(self) -> float:
        """||splitting_reflection()||_2 = cot(theta/2) = (1 + cos theta) / sin theta, with sin theta
        the indicator and cos theta = |<s0, s0'>|, where nothing cancels.  ZeroDivisionError below 1e-12."""
        delta = self.indicator()
        if delta < 1e-12:
            raise ZeroDivisionError("spectral line: splitting degenerates")
        return (1.0 + float(abs(np.vdot(self.s0, self.s0_prime)))) / delta


def spectral_indicator(fields: FieldSampler, t_horizon: float = 40.0,
                       tol: float = 1e-10) -> float:
    """|det [s0 s0']| with unit decaying directions at the two ends,
    evaluated at t = 0."""
    return DecayingData.of(fields, t_horizon, tol).indicator()


def m_gamma_norm(fields: FieldSampler, t_horizon: float = 40.0,
                 tol: float = 1e-10) -> float:
    """||M_gamma|| at t = 0, in closed form (`DecayingData.reflection_norm`)."""
    return DecayingData.of(fields, t_horizon, tol).reflection_norm()


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
    abelian charge.  Impacts that are not finite and strictly between 0
    and delta, or fewer than two distinct ones, raise ValueError before
    any integration."""
    zs = [float(abs(z)) for z in z_samples]
    if not all(0.0 < z < delta for z in zs):   # a NaN compares False
        raise ValueError("impact samples must lie strictly between 0 and delta")
    if len(set(zs)) < 2:
        raise ValueError(f"{len(set(zs))} distinct impact samples: a slope needs two")
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
    [-delta, delta] next to its closed form l * asinh(delta / z).

    The quadrature is the independent oracle: composite 16-point
    Gauss-Legendre on [0, delta], doubled by symmetry, over the panels
    [0, z], [z, 2z], [2z, 4z], ... up to delta, which stay at width
    comparable to their distance from the poles t = +-iz."""
    doublings = np.arange(max(math.ceil(math.log2(delta / z)), 0))
    edges = np.concatenate(([0.0], z * 2.0 ** doublings, [delta]))
    half = np.diff(edges)[:, None] / 2
    nodes, weights = _LEGENDRE_16
    t = edges[:-1, None] + half * (nodes + 1.0)
    return float(np.sum(half * weights * l / np.hypot(t, z))), l * math.asinh(delta / z)
