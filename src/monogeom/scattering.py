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
Russell & Van Vleck, SIAM J. Numer. Anal. 34 (1997) 402-423) with the logs of
R's diagonal kept apart, so exponentially dichotomic systems stay in floating
range over any horizon and the decaying mode is resolved as well as the
growing one.  Decaying directions at either end are extracted by seeding with
the asymptotic eigenvector at the horizon and integrating toward the midpoint,
which damps the seeding error exponentially; both ends share one propagation.
"""

from __future__ import annotations

import cmath
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
    (n, 2, 2) matrices or (n,) floats.
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
        to the center is then sqrt(1 + impact^2) cosh t exactly."""
        if impact <= 0:
            raise ValueError("impact parameter must be positive")
        p = V.centers[center_index]
        E = hyp.orthonormal_frame_at(p)
        x0 = math.cosh(math.asinh(impact)) * hyp.embed(p) + impact * E[0]
        return AbelianField(V, x0, E[1])

    def higgs_norm(self, t):
        if self._through_center:
            raise PoleOnGeodesicError("geodesic passes through a center")
        t = np.asarray(t, dtype=float)[..., None]
        w = self._b * np.cosh(t) + self._a * np.sinh(t)
        x2 = self._s2 + w * w     # l / (e^{2 rho} - 1) from sinh^2 rho
        return self.V.lam + np.sum(0.5 * self._l / (x2 + np.sqrt(x2 * (1.0 + x2))), axis=-1)

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
    center), and M = w . sigma with w = -(phi + i a)/2.  The line is
    held in read-only copies and cached as float tuples at construction.
    """

    x0: np.ndarray
    u: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _p0: tuple = field(init=False, repr=False, compare=False)    # x0 - center
    _dir: tuple = field(init=False, repr=False, compare=False)   # u
    _cross: tuple = field(init=False, repr=False, compare=False)  # u x (x0 - center)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
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
    norm within about `tol` (module docstring), and the trace integral
    is the sum of the steps' tr Omega."""

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
        defects = [0.0]    # reduced by np.max, which keeps a NaN
        for M, ls, w in zip(self.mats, self.logscales, self.trace_integrals):
            d = abs(np.linalg.det(M))
            if d == 0:
                return float("inf")
            defects.append(abs(math.log(d) + 2.0 * ls - w.real))
        return float(np.max(defects))


# the Gauss-Legendre nodes of a Magnus step (rows) as fractions of the
# step, for the step and for its two halves (columns): one sampler call
# covers all nine
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_NODES = np.array([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS]).T
_MAX_STEP = 2.0          # longest step of the initial mesh
_MAX_MESH = 100_000      # most steps in a round (node matrices: 58 MB); more raise ValueError
MAX_HORIZON = _MAX_MESH * _MAX_STEP / 4   # longest T whose [-T, T] meshes fit, checkpoints too
# largest squared Frobenius norm of an accepted step: beyond it the
# decaying component of exp Omega, cosh mu - sinh mu, loses more than
# e^6 eps to cancellation
_MAX_NORM2 = math.exp(6.0)
_MAX_SPLIT = 64          # most pieces a failing step is cut into in one round
_ACCEPT = 8.0  # step acceptance in units of tol: the largest power of 2 keeping the oracles within tol
_BLOCK = 64   # most steps in a block product: its modes then part by at most e^384
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


def _magnus_steps(A: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sixth-order Magnus steps (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470 (2009), the three-node Gauss scheme) of lengths h (...), from
    M at each step's Gauss nodes, A (3, ..., 2, 2): exp Omega by its
    components (E00, E01, E10, E11) along the first axis, and tr Omega.

    The commutators see only traceless parts, so each matrix is carried
    as its trace and (d, p, q) with d = (X00 - X11)/2, p = X01, q = X10.
    exp Omega is closed form: with N = Omega - tr/2 I, N^2 = mu^2 I and
    exp Omega = e^{tr/2} (cosh mu I + (sinh mu / mu) N)."""
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    t = h * (a00 + a11)
    X = np.array([(0.5 * h) * (a00 - a11), h * a01, h * a10])
    a1 = X[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * (X[:, 2] - X[:, 0])
    a3 = (10.0 / 3.0) * (X[:, 2] - 2.0 * X[:, 1] + X[:, 0])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    d, p, q = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    tr = t[1] + (10.0 / 36.0) * (t[2] - 2.0 * t[1] + t[0])
    mu2 = d * d + p * q
    small = np.abs(mu2) < _SERIES_MU2
    mu = np.sqrt(np.where(small, 1.0, mu2))
    ch, shc = 0.0, 0.0
    for c, s in zip(_COSH, _SINHC):
        ch, shc = ch * mu2 + c, shc * mu2 + s
    # cosh and sinh of mu = x + iy from real functions, 4x faster than complex
    x, y = mu.real, mu.imag
    cx, sx, cy, sy = np.cosh(x), np.sinh(x), np.cos(y), np.sin(y)
    ch = np.where(small, ch, cx * cy + 1j * (sx * sy))
    shc = np.where(small, shc, (sx * cy + 1j * (cx * sy)) / mu)
    if np.any(tr):
        scale = np.exp(0.5 * tr)
        ch, shc = scale * ch, scale * shc
    return np.array([ch + shc * d, shc * p, shc * q, ch - shc * d]), tr


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


def _mesh(fields: FieldSampler, runs: list, tol: float):
    """Accepted steps of each run of output times, from its first time
    to its last: (4, m) step matrices by components and their tr Omega,
    grouped by run in the order taken, and per run the index of the
    first step after each of its times.

    A run's initial mesh is its output times, each interval between them
    cut into steps of at most _MAX_STEP.  Each step carries its run's
    index, and each round samples every node of every pending step in
    one ode_matrix call.  With P = E_{h/2} E_{h/2} and err = ||P - E_h|| /
    (_ACCEPT tol ||P||) (Frobenius), a step passes when err <= 1 and ||P||^2
    <= _MAX_NORM2, and contributes P + (P - E_h)/63 and the halves' tr
    Omega; a failing step is cut into ceil(1.2 err^{1/7}) equal pieces (more
    if it grows too much), and only those are checked in the next round."""
    signs = np.array([1.0 if ts[-1] >= ts[0] else -1.0 for ts in runs])  # directions
    t0, t1, run = [], [], []
    for i, (ts, sign) in enumerate(zip(runs, signs)):
        marks = sorted(set(ts.tolist()), key=lambda t: sign * t)
        t0, t1, run = t0 + marks[:-1], t1 + marks[1:], run + [i] * (len(marks) - 1)
    a, b, n = _edges(np.array(t0, dtype=float), np.array(t1, dtype=float))
    run = np.repeat(np.array(run, dtype=int), n)
    # no steps at all in a run whose times are all equal
    starts, taken, mats, traces = [[]], [np.zeros(0, int)], [np.zeros((4, 0))], [[]]
    while a.size:
        h = b - a
        nodes = a + h * _NODES[..., None]
        A = np.asarray(fields.ode_matrix(nodes.ravel())).reshape(3, 3, -1, 2, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            E, tr = _magnus_steps(A, h * np.array([[1.0], [0.5], [0.5]]))
            half = _product(E[:, 2], E[:, 1])
            diff = half - E[:, 0]
            size = np.sum(np.abs(half) ** 2, axis=0)
            err = np.sqrt(np.sum(np.abs(diff) ** 2, axis=0) / size) / (_ACCEPT * tol)
            ok = (err <= 1.0) & (size <= _MAX_NORM2)
            # enough pieces for the error bound, and for each piece's
            # log size to be about half the cap
            pieces = np.ceil(np.maximum(1.2 * err[~ok] ** (1.0 / 7.0),
                                        2.0 * np.log(size[~ok]) / math.log(_MAX_NORM2)))
        starts.append(a[ok])
        taken.append(run[ok])
        mats.append(half[:, ok] + diff[:, ok] / 63.0)
        traces.append(tr[1, ok] + tr[2, ok])
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
    return np.concatenate(mats, axis=1)[:, order], np.concatenate(traces)[order], stops


def _propagate(fields: FieldSampler, runs: list, tol: float) -> list:
    """For each run (Q0, ts), the solution H of H' = M(t) H with H(ts[0])
    = Q0, a unitary 2x2, at each of `ts`, as (mats, logscales, trace
    integrals) with H equal to exp(logscale) mat, |mat| = 1 (Frobenius),
    and w = int tr M dt.

    The steps are `_mesh`'s locally extrapolated sixth-order Magnus
    steps, every run's refined in the same rounds.  The steps between
    two output times are cut into blocks of at most _BLOCK, and every
    block's ordered product P = E_last ... E_first is formed at once by
    pairwise products, each level rescaled by a power of two whose log
    the block keeps.  The blocks are accumulated as a discrete QR
    factorization H = Q R, with Q unitary and R = exp(L) [[p, rho], [0,
    q]], where L = log(exp(l1) + exp(l2)), p = exp(l1 - L) and q =
    exp(l2 - L): P Q = Q' R' with R' upper triangular with a positive
    diagonal, so l_i += log R'_ii, and rho carries R's corner scaled by
    exp(-L).  As det P = exp(tr), tr the block's summed tr Omega, R'_11
    = |det P| / R'_00 and Q's second column is the unit normal to its
    first with det Q' = det Q exp(i Im tr).  Each mode's growth is kept
    in its own log, so nothing overflows whichever column grows, and l1
    + l2 = Re int tr M dt."""
    mats, traces, stops = _mesh(fields, [ts for _, ts in runs], tol)
    lo, hi = np.concatenate([s[:-1] for s in stops]), np.concatenate([s[1:] for s in stops])
    first = np.concatenate(([0], np.cumsum(-(-(hi - lo) // _BLOCK))))   # per interval
    step = np.arange(traces.size)
    k = np.searchsorted(lo, step, "right") - 1                          # each step's interval
    block, slot = first[k] + (step - lo[k]) // _BLOCK, (step - lo[k]) % _BLOCK
    width = 1 << (int(np.clip(hi - lo, 1, _BLOCK).max(initial=1)) - 1).bit_length()
    P = np.zeros((4, first[-1], width), dtype=complex)   # identities pad short blocks
    P[0] = P[3] = 1.0
    P[:, block, slot] = mats
    tr = np.zeros((first[-1], width), dtype=complex)
    tr[block, slot] = traces
    scale = np.zeros((first[-1], width))                 # log2 of each product's scale
    while P.shape[2] > 1:
        P = _product(P[:, :, 1::2], P[:, :, 0::2])
        e = np.frexp(np.abs(P).max(axis=0))[1]
        P, scale = P * np.exp2(-e), scale[:, 1::2] + scale[:, 0::2] + e
    blocks = zip(P[:, :, 0].T.tolist(), (math.log(2.0) * scale[:, 0]).tolist(),
                 tr.sum(axis=1).tolist())
    out = []
    for (Q0, ts), K in zip(runs, np.cumsum([0] + [len(ts) - 1 for _, ts in runs])):
        (q00, q01), (q10, q11) = np.asarray(Q0, dtype=complex).tolist()
        detq = q00 * q11 - q01 * q10
        detq /= abs(detq)
        l1 = l2 = 0.0
        L = math.log(2.0)         # log(exp(l1) + exp(l2))
        rho = w = 0j
        path, done = [], first[K]
        for stop in first[K:K + len(ts)]:
            for (e00, e01, e10, e11), s, t in itertools.islice(blocks, stop - done):
                a00, a10 = e00 * q00 + e01 * q10, e10 * q00 + e11 * q10   # P Q
                a01, a11 = e00 * q01 + e01 * q11, e10 * q01 + e11 * q11
                r00 = math.hypot(abs(a00), abs(a10))
                q00, q10 = a00 / r00, a10 / r00
                r01 = q00.conjugate() * a01 + q10.conjugate() * a11
                if t.imag:
                    detq *= cmath.exp(1j * t.imag)
                q01, q11 = -detq * q10.conjugate(), detq * q00.conjugate()
                g1 = s + math.log(r00)
                l1, l2, l2_old, L_old = l1 + g1, l2 + t.real - g1, l2, L
                L = max(l1, l2) + math.log1p(math.exp(-abs(l1 - l2)))
                rho = rho * math.exp(g1 + L_old - L) + r01 * math.exp(s + l2_old - L)
                w += t
            done = stop
            path.append((q00, q01, q10, q11, l1, l2, rho, w))
        q00, q01, q10, q11, l1, l2, rho, w = np.array(path).T
        R = np.zeros((len(ts), 2, 2), dtype=complex)
        L = np.logaddexp(l1.real, l2.real)
        R[:, 0, 0], R[:, 0, 1], R[:, 1, 1] = np.exp(l1.real - L), rho, np.exp(l2.real - L)
        H = np.stack([q00, q01, q10, q11], axis=-1).reshape(-1, 2, 2) @ R
        norms = np.linalg.norm(H, axis=(1, 2))
        out.append((H / norms[:, None, None], L + np.log(norms), w))
    return out


def integrate_fundamental(fields: FieldSampler, t0: float, t1: float,
                          tol: float = 1e-10, checkpoints: int = 17) -> FundamentalSolution:
    """Fundamental matrix of s' = M(t) s with H(t0) = I at `checkpoints`
    evenly spaced times, log ||H|| within about `tol` (module docstring);
    the cumulative trace integral rides along for determinant accounting."""
    ts = np.linspace(t0, t1, checkpoints)
    mats, logs, traces = _propagate(fields, [(np.eye(2, dtype=complex), ts)], tol)[0]
    return FundamentalSolution(ts, mats, logs, traces)


def _decaying(fields: FieldSampler, ends, t_horizon: float, tol: float) -> list:
    """Unit directions at t = 0 of the solutions decaying at each of
    `ends` (+1 or -1), all in one propagation back from the horizons, each
    seeded with the asymptotic eigenvector (a unitary start's first column)."""
    if any(end not in (+1, -1) for end in ends):
        raise ValueError("end must be +1 or -1")
    t_far = t_horizon * np.array(ends, dtype=float)
    lams, vecs = np.linalg.eig(fields.ode_matrix(t_far))
    runs = []
    for end, t, lam, V in zip(ends, t_far.tolist(), lams.real, vecs):
        if lam.max() - lam.min() < 1e-3:
            raise IllPosedError("no spectral gap at the horizon: decaying direction ill posed")
        v = V[:, np.argmin(lam) if end == +1 else np.argmax(lam)]   # unit, from eig
        runs.append((np.array([[v[0], -v[1].conjugate()], [v[1], v[0].conjugate()]]),
                     np.array([t, 0.0])))
    return [H[-1][:, 0] / np.linalg.norm(H[-1][:, 0]) for H, _, _ in _propagate(fields, runs, tol)]


def decaying_solution(fields: FieldSampler, end: int, t_horizon: float,
                      tol: float = 1e-10) -> np.ndarray:
    """Unit direction at t = 0 of the solution decaying at the chosen end
    (+1 or -1), via backward integration from the horizon seeded with
    the asymptotic eigenvector (the first column of a unitary start)."""
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


def spectral_indicator(fields: FieldSampler, t_horizon: float = 40.0,
                       tol: float = 1e-10) -> float:
    """|det [s0 s0']| with unit decaying directions at the two ends,
    evaluated at t = 0."""
    return DecayingData.of(fields, t_horizon, tol).indicator()


def m_gamma_norm(fields: FieldSampler, t_horizon: float = 40.0,
                 tol: float = 1e-10) -> float:
    """Spectral norm of the splitting reflection M_gamma at t = 0."""
    return float(np.linalg.norm(DecayingData.of(fields, t_horizon, tol).splitting_reflection(), 2))


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
