"""Scattering along geodesics: fundamental solutions, decaying directions, spectral-line
detection and the abelian growth fit, in closed form (`AbelianField.log_growth`, the
propagator's oracle in the check `scattering.abelian-closed-form`).

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
of at most 64 by pairwise products, and each path's blocks in order into one
running product, rescaled exactly by a power of two after each block, so
growing solutions stay in floating range over any horizon.  M is traceless, as
an su(2) monopole's scattering equation is: samplers give its (d, p, q), M = [[d,
p], [q, -d]], so each Magnus step and H lie in SL(2, C) (Iserles, Munthe-Kaas,
Norsett & Zanna, Acta Numer. 9 (2000) 215-365): sigma_2 = 1 / sigma_1, one log
growth rate.  Every reader takes H's dominant part, the
part the rescaled product resolves: its norm, and the direction at t = 0 of the
solution decaying as t -> +-infinity, the least right singular vector of
Phi(+-T, 0) (Greene & Kim, Physica D 24 (1987) 213-225), read off a run out from
H(0) = I within about its own horizon error sigma_2 / sigma_1 = exp(-2
logscale(T)); a horizon where that exceeds `tol` raises IllPosedError.
Both ends share one propagation, and `tol` is the accuracy of that one output:
going back to 0 the wanted mode dominates, so an error made at t reaches 0 shrunk
by about exp(-G(t)), G the gap 2 |Re mu| of M = [[d, p], [q, -d]] (mu^2 = d^2 +
pq) integrated from 0 to t, an exponential dichotomy (Coppel, Dichotomies in
Stability Theory, LNM 629, 1978).  So each step's step-doubling difference is
weighted by exp(-G/2) at its end nearer 0, and far steps are taken longer.
`DecayingData.of` keeps its last result in one module-level slot, keyed by the sampler
object (`is`) and an equal horizon and tol: one line's indicator and ||M_gamma|| share one run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

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
    "spectral_indicator",
    "m_gamma_norm",
    "abelian_growth_exponent",
]

_last_decaying: tuple = (None, None, None, None)   # DecayingData.of's (fields, t_horizon, tol, data)


class IllPosedError(ValueError):
    """A horizon too short for the decaying direction: its own error
    exp(-2 logscale(T)), about the end matrix's sigma_2/sigma_1, exceeds `tol`.  That is
    all the rule reads, so it cannot tell polynomial growth from a gap: a
    gapless shear M = [[0, p], [0, 0]] passes once p T is above about
    tol^-1/2, and its bounded direction is returned."""


class PoleOnGeodesicError(ValueError):
    """The geodesic runs into a field singularity."""


class FieldSampler:
    """Evaluates the scattering system along one fixed geodesic.

    Subclasses provide ode_components(t), the right-hand side M(t) = [[d, p], [q, -d]] of s' =
    M(t) s by its components on a batch: complex (3,) for a float t and (3, n) for an (n,)
    array of times, (d, p, q) along the first axis; the propagator refuses any other shape with
    ValueError.  A sampler is an immutable value: the same object always gives the same M(t).
    """

    def ode_components(self, t) -> np.ndarray:
        raise NotImplementedError


def _diagonal(v) -> np.ndarray:
    """Components (v, 0, 0) of diag(v, -v) for each entry of v, as complex (3, ...)."""
    zero = np.zeros(np.shape(v), dtype=complex)
    return np.array([v, zero, zero])


@dataclass(frozen=True)
class TrivialU1Field(FieldSampler):
    """Constant-mass abelian background in its eigen gauge."""

    mass: float = 1.0

    def ode_components(self, t):
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
    the crossing.  A non-finite x0 or u raises ValueError."""

    def __init__(self, V: MultiCenterPotential, x0: np.ndarray, u: np.ndarray):
        self.V = V
        self.x0 = np.asarray(x0, dtype=float)   # hyperboloid point, t = 0
        self.u = np.asarray(u, dtype=float)     # unit tangent there
        if not np.isfinite([self.x0, self.u]).all():
            raise ValueError("abelian line needs finite x0 and u")
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

    def ode_components(self, t) -> np.ndarray:
        return _diagonal(self.higgs_norm(t))

    def log_growth(self, t0: float, t1: float) -> float:
        """I = int V dt from t0 to t1 in closed form, so H = diag(e^I, e^-I) and log ||H|| = |I|.
        Each center adds l (coth rho - 1)/2, and w' = cosh rho > 0 (w'^2 = 1 + s^2 + w^2 = 1 + r^2,
        r = sinh rho; w'(0) = a > 0), so d/dt asinh(w/s) = coth rho and I = lam (t1 - t0) + sum_i
        (l_i/2) [asinh(w_i/s_i) - t] between t0 and t1.  Where w keeps its sign the two asinh are
        one, asinh((w1 - w0)(w1 + w0) / (w1 r0 + w0 r1)), w1 - w0 = 2 sinh((t1 - t0)/2) w'((t0 +
        t1)/2): nothing cancels.  ValueError for a non-finite t0 or t1, PoleOnGeodesicError on a
        line through a center."""
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError(f"need finite t0, t1: {t0}, {t1}")
        if self._through_center:
            raise PoleOnGeodesicError("geodesic passes through a center")
        l, a, b, s2 = self._l, self._a, self._b, self._s2
        w0, w1 = (b * math.cosh(t) + a * math.sinh(t) for t in (t0, t1))
        r0, r1 = np.sqrt(s2 + w0 * w0), np.sqrt(s2 + w1 * w1)
        m, same = 0.5 * (t0 + t1), w0 * w1 > 0
        dw = 2.0 * math.sinh(0.5 * (t1 - t0)) * (b * math.sinh(m) + a * math.cosh(m))
        rise = np.where(same, np.arcsinh(dw * (w1 + w0) / np.where(same, w1 * r0 + w0 * r1, 1.0)),
                        np.arcsinh(w1 / np.sqrt(s2)) - np.arcsinh(w0 / np.sqrt(s2)))
        return float(self.V.lam * (t1 - t0) + np.sum(0.5 * l * (rise - (t1 - t0))))


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


def _read_only(v, dtype=float) -> np.ndarray:
    v = np.array(v, dtype=dtype)
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
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
    non-finite u, or a non-finite x0 or center, raises ValueError.  Two lines
    compare, and hash, by identity, as `DecayingData.of` keys them.
    """

    x0: np.ndarray
    u: np.ndarray
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))
    _p0: tuple = field(init=False, repr=False)    # x0 - center
    _dir: tuple = field(init=False, repr=False)   # u
    _cross: tuple = field(init=False, repr=False)  # u x (x0 - center)

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

    def _offset(self, t):
        """p = x0 - center + t u by components, and r = |p|."""
        (px, py, pz), (ux, uy, uz) = self._p0, self._dir
        t = np.asarray(t, dtype=float)
        x, y, z = px + t * ux, py + t * uy, pz + t * uz
        return x, y, z, np.sqrt(x * x + y * y + z * z)

    def ode_components(self, t) -> np.ndarray:
        x, y, z, r = self._offset(t)
        h, k = (-0.5 * v for v in _ps_radial(r))
        cx, cy, cz = self._cross
        hx, hy, kx, ky = h * x, h * y, k * cx, k * cy
        C = np.empty((3,) + r.shape, dtype=complex)
        re, im = C.real, C.imag   # (w2, w0 - i w1, w0 + i w1)
        re[0], im[0] = h * z, k * cz
        re[1], im[1] = hx + ky, kx - hy
        re[2], im[2] = hx - ky, kx + hy
        return C


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

    def log_norm_final(self) -> float:
        """log ||H||_2 at the end: sigma_max(M)^2 in closed form, nothing cancelled under the root."""
        (a, b), (c, d) = self.mats[-1].tolist()   # M^dagger M = [[A, B], [B*, D]]
        A, D = abs(a) ** 2 + abs(c) ** 2, abs(b) ** 2 + abs(d) ** 2
        B = a.conjugate() * b + c.conjugate() * d
        return float(self.logscales[-1]) + 0.5 * math.log((A + D + math.hypot(A - D, 2 * abs(B))) / 2)

    def det_balance_defect(self) -> float:
        """Max over the path of |log|det H||: |det H| = 1, so each stored
        |det M_j| must balance exp(-2 logscale_j), which past 15-20 units
        of growth is below rounding.  A singular M_j reads inf, and a NaN is kept."""
        with np.errstate(divide="ignore"):   # log 0 = -inf
            logdet = np.log(np.abs(np.linalg.det(self.mats)))
        return float(np.max(np.abs(logdet + 2.0 * self.logscales), initial=0.0))


# the Gauss-Legendre nodes of a Magnus step (rows) as fractions of the
# step, for the step and for its two halves (columns): one sampler call
# covers all nine
_GAUSS = np.array([0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0])
_NODES = np.array([_GAUSS, 0.5 * _GAUSS, 0.5 + 0.5 * _GAUSS]).T
_SUBSTEPS = np.array([[1.0], [0.5], [0.5]])   # their lengths as fractions of the step
_MAX_STEP = 2.0          # longest step of the initial mesh
_MAX_MESH = 100_000      # most steps in a round (node matrices: 58 MB); more raise ValueError
MAX_HORIZON = _MAX_MESH * _MAX_STEP / 4   # longest T whose [-T, T] meshes fit, checkpoints too
# largest squared Frobenius norm of an accepted step, of its half steps' product
# and of the step stored: beyond it the decaying component of exp Omega, cosh mu
# - sinh mu, loses more than e^6 eps to cancellation
_MAX_NORM2 = math.exp(6.0)
_MAX_SPLIT = 64          # most pieces a failing step is cut into in one round
_ACCEPT = 8.0  # step acceptance in units of tol: the largest power of 2 keeping the oracles within tol
_BLOCK = 64   # most steps in a block product: below e^192 unscaled, so the rescaled product stays in range
# cosh mu and sinh mu / mu as series in mu^2 below _SERIES_MU2, where
# the four terms kept are exact to rounding (the next is below 3e-21)
_SERIES_MU2 = 1e-4
_COSH = tuple(1.0 / math.factorial(2 * n) for n in range(4))[::-1]
_SINHC = tuple(1.0 / math.factorial(2 * n + 1) for n in range(4))[::-1]


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] for traceless 2x2 matrices given by components (d, p, q)
    along the first axis, X = [[d, p], [q, -d]]."""
    (dx, px, qx), (dy, py, qy) = x, y
    out = np.empty(np.shape(x), dtype=complex)
    out[0], out[1], out[2] = px * qy - py * qx, 2.0 * (dx * py - dy * px), 2.0 * (dy * qx - dx * qy)
    return out


def _magnus_steps(C: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Sixth-order Magnus steps (Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009), the
    three-node Gauss scheme) of lengths h (...), from M = [[d, p], [q, -d]] at each step's
    Gauss nodes, C (3 components, 3 nodes, ...): exp Omega by its (E00, E01, E10, E11).

    Each traceless matrix is carried as its (d, p, q), from X = h C at the nodes, and exp Omega
    is in SL(2, C) and in closed form: Omega^2 = mu^2 I and exp Omega = cosh mu I + (sinh mu /
    mu) Omega, both factors by series only at |mu^2| < _SERIES_MU2, written in place into one
    array: (sinh mu / mu) (d, p, q), E11 = cosh mu - E00, then E00 += cosh mu.  The steps run
    flattened, so a lone step takes the same array arithmetic as a batch's."""
    shape, h = np.shape(h), np.reshape(h, -1)
    X = h * C.reshape((3, 3, -1))   # (d, p, q) at each node
    a1 = X[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * (X[:, 2] - X[:, 0])
    a3 = (10.0 / 3.0) * (X[:, 2] - 2.0 * X[:, 1] + X[:, 0])
    c1 = _commutator(a1, a2)
    c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
    d, p, q = om = a1 + a3 / 12.0 + _commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    mu2 = d * d + p * q
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
    E = np.empty((4, h.size), dtype=complex)
    np.multiply(shc, om, out=E[:3])
    E[3] = ch - E[0]
    E[0] += ch
    return E.reshape((4,) + shape)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """X Y for 2x2 matrices given by components (M00, M01, M10, M11) along the
    first axis, by broadcasting on (2, 2, ...) views: (X Y)_ij = X_i0 Y_0j + X_i1 Y_1j."""
    xr, yr = x.reshape((2, 2) + x.shape[1:]), y.reshape((2, 2) + y.shape[1:])
    return (xr[:, :1] * yr[0] + xr[:, 1:] * yr[1]).reshape(x.shape)


def _norm2(z: np.ndarray) -> np.ndarray:
    """Squared Frobenius norms of complex components along the first axis, without a hypot."""
    return (z.real ** 2 + z.imag ** 2).sum(axis=0)


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


def _damping(C: np.ndarray, a: np.ndarray, b: np.ndarray, bounds: list,
             signs: np.ndarray) -> list:
    """Per run i with steps, a[bounds[i]:bounds[i + 1]], (i, sign t, G) at
    the edges of its whole first-round mesh, sign t increasing for
    np.interp, with G(t) = int 2 |Re mu| from the run's first time to t.
    The frozen gap 2 |Re mu| of M = [[d, p], [q, -d]], mu^2 = d^2 + pq, is
    read at each step's middle Gauss node, C (3, m), and held over it."""
    d, p, q = C
    c = 2.0 * np.sqrt(d * d + p * q).real * np.abs(b - a)
    tables = []
    for i, (sign, lo, hi) in enumerate(zip(signs, bounds[:-1], bounds[1:])):
        if hi > lo:
            G = np.append(0.0, np.cumsum(c[lo:hi]))
            tables.append((i, sign * np.append(a[lo], b[lo:hi]), G))
    return tables


def _mesh(fields: FieldSampler, runs: list, tol: float, damped: bool = False):
    """Accepted steps of each run of output times, from its first time
    to its last: (4, m) step matrices by components, grouped by run in
    the order taken, and per run the index of the first step after each
    of its times.

    A run's initial mesh is its output times, each interval between them
    cut into steps of at most _MAX_STEP.  Each step carries its run's
    index, and each round samples every node of every pending step in
    one ode_components call, (3 components, 3 nodes, 3 sub-steps, steps).
    With P = E_{h/2} E_{h/2} and err = ||P - E_h|| /
    (_ACCEPT tol ||P||) (Frobenius), a step passes when err <= 1 and both
    ||P||^2 and ||S||^2 <= _MAX_NORM2, and contributes S = P + (P - E_h)/63;
    a failing step is cut into ceil(1.2 err^{1/7}) equal pieces (more if it
    grows too much), and only those are checked in the next round, until one
    passes them all.  A call of another shape raises ValueError before any
    Magnus step, as, before sampling, does a tol that is not finite and > 0.

    `damped` is for runs whose only output is the least amplified
    direction at their first time (module docstring): err is weighted by
    exp(-G/2), G from `_damping` at the step's end nearer that time, half
    the rate because the frozen gap overstates the dichotomy where M turns
    fast."""
    if not 0.0 < tol < math.inf:   # a NaN compares False
        raise ValueError(f"tol must be finite and positive, got {tol}")
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
        C = np.asarray(fields.ode_components(nodes.ravel()), dtype=complex)
        if C.shape != (3, nodes.size):
            raise ValueError(f"ode_components gave shape {C.shape}, not (3, {nodes.size})")
        C = C.reshape(3, 3, 3, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            E = _magnus_steps(C, h * _SUBSTEPS)
            half = _product(E[:, 2], E[:, 1])
            diff = half - E[:, 0]
            step = half + diff / 63.0
            size = _norm2(half)
            err = np.sqrt(_norm2(diff) / size) / (_ACCEPT * tol)
            if damped:   # steps stay grouped by run, so each run's are one slice
                bounds = np.searchsorted(run, np.arange(len(runs) + 1)).tolist()
                if tables is None:   # the first round covers every run whole
                    tables = _damping(C[:, 1, 0], a, b, bounds, signs)
                for i, edges, G in tables:
                    mine = slice(bounds[i], bounds[i + 1])
                    err[mine] *= np.exp(-0.5 * np.interp(signs[i] * a[mine], edges, G))
            ok = (err <= 1.0) & (np.maximum(size, _norm2(step)) <= _MAX_NORM2)
            starts.append(a[ok])
            taken.append(run[ok])
            mats.append(step[:, ok])
            if ok.all():
                break
            # enough pieces for the error bound, and for each piece's
            # log size to be about half the cap
            bad = ~ok
            pieces = np.ceil(np.maximum(1.2 * err[bad] ** (1.0 / 7.0),
                                        2.0 * np.log(size[bad]) / math.log(_MAX_NORM2)))
        k = np.where(np.isfinite(pieces), np.clip(pieces, 2, _MAX_SPLIT), _MAX_SPLIT).astype(int)
        a, h, b, run = a[bad], h[bad], b[bad], run[bad]
        stuck = np.abs(h) / k <= 1e-13 * np.maximum(1.0, np.abs(a))
        if np.any(stuck):
            raise RuntimeError(f"integration failed: no step at t = {a[stuck][0]:.6g} "
                               f"meets tol {tol:g}")
        if k.sum() > _MAX_MESH:
            raise ValueError(f"a round of {k.sum()} steps over t in [{min(a.min(), b.min()):.6g}, "
                             f"{max(a.max(), b.max()):.6g}]: more than the cap of {_MAX_MESH}")
        which = np.repeat(np.arange(len(k)), k)
        j = np.arange(len(which)) - np.repeat(np.cumsum(k) - k, k)
        a, h, b, k = a[which], h[which], b[which], k[which]
        a, b, run = a + h * (j / k), np.where(j + 1 == k, b, a + h * ((j + 1) / k)), run[which]
    run = np.concatenate(taken)
    starts = signs[run] * np.concatenate(starts)
    order = np.lexsort((starts, run))
    starts, bounds = starts[order], np.searchsorted(run[order], np.arange(len(runs) + 1))
    stops = [lo + np.searchsorted(starts[lo:hi], sign * ts)
             for ts, sign, lo, hi in zip(runs, signs, bounds[:-1], bounds[1:])]
    return np.concatenate(mats, axis=1)[:, order], stops


def _propagate(fields: FieldSampler, runs: list, tol: float, damped: bool = False) -> list:
    """For each run of output times ts, the solution H of H' = M(t) H at
    each of them from H(ts[0]) = I, as (mats, logscales) with H equal to
    exp(logscale) mat, |mat| = 1 (Frobenius).

    The steps are `_mesh`'s locally extrapolated sixth-order Magnus steps,
    every run's refined in the same rounds.  The steps between two output times
    are cut into blocks of at most _BLOCK, and every block's ordered product
    P = E_last ... E_first is formed at once by pairwise products, below e^192
    as each stored step is below e^3 (_MAX_NORM2).  Each run multiplies its
    blocks in order into one running product H = 2^n h, and after each block
    rescales h exactly by the power of two that brings its largest entry into
    [1/2, 1), so h P stays below 2 e^192 and nothing overflows however far H
    grows.  Only H's dominant part is resolved: its other singular value,
    1 / sigma_1 as det H = 1, falls below h's rounding once H grows past
    about 1e8, and every reader takes the dominant part alone."""
    mats, stops = _mesh(fields, runs, tol, damped)
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
    blocks = iter(P[:, :, 0].T.tolist())
    out = []
    for ts, K in zip(runs, np.cumsum([0] + [len(ts) - 1 for ts in runs])):
        h00, h01, h10, h11, n = 1 + 0j, 0j, 0j, 1 + 0j, 0
        path, ns, done = [], [], first[K]
        for stop in first[K:K + len(ts)]:
            for e00, e01, e10, e11 in itertools.islice(blocks, stop - done):
                h00, h01, h10, h11 = (e00 * h00 + e01 * h10, e00 * h01 + e01 * h11,
                                      e10 * h00 + e11 * h10, e10 * h01 + e11 * h11)
                e = math.frexp(max(abs(h00), abs(h01), abs(h10), abs(h11)))[1]
                f, n = 2.0 ** -e, n + e
                h00, h01, h10, h11 = h00 * f, h01 * f, h10 * f, h11 * f
            done = stop
            path.append((h00, h01, h10, h11))
            ns.append(n)
        H = np.array(path).reshape(-1, 2, 2)
        norms = np.sqrt(np.add.reduce((H.conj() * H).real, axis=(1, 2)))
        out.append((H / norms[:, None, None], math.log(2.0) * np.array(ns) + np.log(norms)))
    return out


def integrate_fundamental(fields: FieldSampler, t0: float, t1: float,
                          tol: float = 1e-10, checkpoints: int = 17) -> FundamentalSolution:
    """Fundamental matrix of s' = M(t) s with H(t0) = I at `checkpoints`
    evenly spaced times, log ||H|| within about `tol` (module docstring).
    M is traceless by its components, so H is in SL(2, C).  A t0 or t1 not finite,
    checkpoints not an integer >= 2 or tol not finite and > 0 raise ValueError before sampling."""
    if not (math.isfinite(t0) and math.isfinite(t1)
            and isinstance(checkpoints, (int, np.integer)) and checkpoints >= 2):
        raise ValueError(f"need finite t0, t1, integer checkpoints >= 2: {t0}, {t1}, {checkpoints}")
    ts = np.linspace(t0, t1, checkpoints)
    return FundamentalSolution(ts, *_propagate(fields, [ts], tol)[0])


@dataclass(frozen=True, eq=False)
class DecayingData:
    """Unit directions at t = 0 of the solutions decaying at the two
    ends, with their symplectic pairing det[s0 s0'], as read-only copies.
    Compared, like the samplers `of` keys on, by identity."""

    s0: np.ndarray        # decays as t -> +infinity
    s0_prime: np.ndarray  # decays as t -> -infinity
    pairing: complex

    def __post_init__(self):
        for name in ("s0", "s0_prime"):
            object.__setattr__(self, name, _read_only(getattr(self, name), complex))

    @staticmethod
    def of(fields: FieldSampler, t_horizon: float = 40.0,
           tol: float = 1e-10) -> "DecayingData":
        """Both ends from one propagation of two runs out from 0 under `_mesh`'s `damped`
        control, each the least right singular vector of Phi(+-T, 0), (r1, -r0)/|r| for the
        longer row r of its unit end matrix.  `tol` is the accuracy of the directions at t = 0
        (module docstring).  ValueError for a horizon or tol not finite and > 0, before any
        sampling; IllPosedError for a horizon too short for `tol`.  The last result is kept: the
        same sampler object (`is`) with an equal horizon and tol returns it unpropagated, and a
        refusal raises before the slot is written."""
        global _last_decaying
        last_fields, last_horizon, last_tol, data = _last_decaying
        if last_fields is fields and last_horizon == t_horizon and last_tol == tol:
            return data
        if not 0.0 < t_horizon < math.inf:    # a NaN compares False
            raise ValueError(f"horizon must be finite and positive, got {t_horizon}")
        ends = []
        for mats, logscales in _propagate(fields, [np.array([0.0, t_horizon]),
                                                   np.array([0.0, -t_horizon])], tol, damped=True):
            if (error := math.exp(-2.0 * logscales[-1])) > tol:
                raise IllPosedError(f"horizon {t_horizon:g}: exp(-2 logscale) = {error:.2g} "
                                    f"> tol {tol:g}")
            r = max(mats[-1], key=_norm2)   # the longer row by squared moduli, the first on a tie
            ends.append(np.array([r[1], -r[0]]) / np.linalg.norm(r))
        s0, s0p = ends
        data = DecayingData(s0, s0p, complex(s0[0] * s0p[1] - s0[1] * s0p[0]))
        _last_decaying = (fields, t_horizon, tol, data)
        return data

    def indicator(self) -> float:
        """|pairing| of unit directions: in [0, 1], zero exactly on
        spectral lines (one solution decaying at both ends)."""
        return float(abs(self.pairing))

    def reflection_norm(self) -> float:
        """||M_gamma||_2 of the reflection +1 on s0, -1 on s0': cot(theta/2) = (1 + cos theta) /
        sin theta, with sin theta the indicator and cos theta = |<s0, s0'>|, where nothing
        cancels.  ZeroDivisionError below 1e-12."""
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
                            delta: float, z_samples) -> GrowthFit:
    """Least-squares exponent of log ||H(z)|| = |I| (`AbelianField.log_growth`, no propagation)
    against log(1/|z|) over geodesics at impact |z| from the chosen center, each over [-delta,
    delta]: the slope estimates the center's abelian charge.  Impacts not finite and strictly
    between 0 and delta, fewer than two distinct ones, or a delta not finite raise ValueError
    before any integral."""
    zs = [float(abs(z)) for z in z_samples]
    if not all(0.0 < z < delta for z in zs):   # a NaN compares False
        raise ValueError("impact samples must lie strictly between 0 and delta")
    if len(set(zs)) < 2:
        raise ValueError(f"{len(set(zs))} distinct impact samples: a slope needs two")
    lognorms = [abs(AbelianField.from_impact(V, center_index, z).log_growth(-delta, delta))
                for z in zs]
    xs, ys = np.log(1.0 / np.asarray(zs)), np.asarray(lognorms)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return GrowthFit(float(slope), float(intercept), r2, tuple(zs), tuple(lognorms))
