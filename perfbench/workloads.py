"""The four seeded workloads of the monogeom benchmark.

Each workload is a fixed problem set built from the seed alone: a list
of ops, each running the library on prebuilt inputs and returning its
oracle checks as (label, error, tolerance) triples, plus a warm-up op
that runs the same code paths untimed.  The library receives only the
generated inputs.  Every oracle is independent of the code under test:
a closed form, a second evaluation method, or a bound the mathematics
guarantees.

An error may be a callable, which the judge evaluates after the op's
timed call, so an oracle's own numerical work is neither timed nor
traced as the library's.

Known defects.  On curvature_grid and spectral_lift the library misses
some oracles on a measured share of the inputs at the commit that added
the benchmark (listed in `known_defects` with their cause).  Every op
is still judged against every oracle at its stated tolerance, and each
run reports how many ops missed it (`fail_frac`) and on which check.
The run's correctness flag is the regression gate: it fails an op that
raises an exception or misses a check that is not a known defect of its
workload, and every op that misses a known-defect check when that check
misses on more than its recorded share of the run's ops.

Why these four: each stresses different layers, so an optimisation of
one layer shows on one workload and is predicted to leave another
unchanged (the predictions are listed in README.md next to the metrics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from monogeom import hyperbolic as hyp
from monogeom import moduli as md
from monogeom import scattering as sc
from monogeom import spectral as sp
from monogeom import symplectic as sy
from monogeom.hyperbolic import MultiCenterPotential, PointUHS
from monogeom.projective import INFINITY, ExtendedComplex

Check = tuple[str, float, float]


def no_wrap(f):
    return f


@dataclass
class Workload:
    """A fixed, seeded problem set.  `ops[i](wrap)` runs op i; `wrap` is
    applied to every point sampler an op hands to an engine (the tracer
    uses it to count sampler calls), and returns the op's checks."""

    ops: list[Callable[..., list[Check]]]
    warmup: Callable[[], object]
    repeat_block: list       # ops re-run in a fresh process for the exact-count check
    min_passes: int = 3      # passes always run, whatever --seconds says
    shares: dict[str, float] = field(default_factory=dict)  # input properties cost depends on
    known_defects: dict[str, "KnownDefect"] = field(default_factory=dict)


@dataclass(frozen=True)
class KnownDefect:
    """An oracle check the library misses on part of a workload's inputs
    at the commit that added the benchmark.  Above `max_share` of a run's
    ops missing it, every op that missed it fails the gate; the
    measurements it is set from are written beside each."""

    cause: str
    max_share: float


def attempt(op, wrap=no_wrap):
    """Run one op: its checks, or the exception it raised."""
    try:
        return op(wrap)
    except Exception as exc:        # the benchmark keeps running and counts it
        return exc


def judge(outcome) -> tuple[bool, float, str, list[str]]:
    """Judge an op's outcome against its oracles: (passed, worst error /
    tolerance, worst check, names of the failing checks).  An exception,
    raised by the op or by an oracle, is a failure."""
    if isinstance(outcome, Exception):
        name = type(outcome).__name__
        return False, math.inf, f"{name}: {outcome}", [f"exception.{name}"]
    worst, why, failing = 0.0, "", []
    for label, err, tol in outcome:
        try:
            err = err() if callable(err) else err
        except Exception as exc:
            err, label = math.inf, f"{label}[{type(exc).__name__}]"
        ratio = err / tol if np.isfinite(err) else math.inf
        if not ratio <= 1.0:
            failing.append(label.split("[")[0])
        if not ratio <= worst:
            worst, why = ratio, f"{label} = {err:.3e} (tolerance {tol:.1e})"
    return not failing, worst, why, failing


def gate(op, wrap=no_wrap) -> tuple[bool, float, str, list[str]]:
    """Run one op and judge it (see judge)."""
    return judge(attempt(op, wrap))


def gate_failures(missed: list[list[str]], ops: int, known: dict[str, KnownDefect]) -> int:
    """Ops of a run of `ops` ops that fail the regression gate, from the
    failing checks of each op that missed (see the module docstring)."""
    over = {label for label, d in known.items()
            if sum(label in f for f in missed) > d.max_share * ops}
    return sum(any(label not in known or label in over for label in f) for f in missed)


# ---------------------------------------------------------------------------
# curvature_grid
#
# Why: the full LeBrun check (curvature report, dOmega and Nijenhuis
# residuals) spends almost all its time in the point samplers and the
# finite-difference stencils, and none in scattering.  Batched samplers
# and a single stencil engine show their gain here; a propagator change
# is predicted to leave it unchanged.  Cost grows with the number of
# centers, so the three configurations of the acceptance suite (1, 2 and
# 3 centers) get equal shares of the points.
# ---------------------------------------------------------------------------

CURVATURE_CONFIGS = (
    MultiCenterPotential.for_su2_charge1([PointUHS(0.3, -0.2, 1.4)], [1], mass=0.5),
    MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2)),
    MultiCenterPotential(2.0, (PointUHS(0, 0, 1.2), PointUHS(-0.8, 0.3, 0.8),
                               PointUHS(0.5, -0.9, 1.6)), (1, 1, 2)),
)
CURVATURE_GAUGES = (INFINITY, ExtendedComplex(0j), ExtendedComplex(1.0 + 0j),
                    ExtendedComplex(1j), ExtendedComplex(0.7 - 0.4j),
                    ExtendedComplex(-1.3 + 0.8j))
CURVATURE_POINTS_PER_GAUGE = 2      # 3 x 6 x 2 = 36 ops
CURVATURE_TOL = {"scalar": 1e-4, "weyl_sd": 1e-4, "dOmega": 1e-6, "nijenhuis": 1e-6}
# The library's dOmega_residual and nijenhuis_residual are diagnostics
# with fixed steps (1e-4, and 1e-3 x height); at some points their
# truncation error alone exceeds 1e-6 (on one probed point 1.3e-6 and
# 3.0e-6, falling as step^2 and step^4 to 1.8e-8 and 1.1e-8), so they
# cannot judge closedness and integrability at that tolerance.  The
# oracle evaluates dOmega and the Nijenhuis tensor itself on the same
# samplers, from Richardson-extrapolated 4th-order differences (6th
# order overall); the ops still call the library's residuals, whose
# cost is part of the LeBrun check.
ORACLE_STEP = 5e-4                  # times the height
# Known defect: each gauge's connection is taken in one Dirac patch, and
# where the string of that patch passes through the sampled region the
# samplers blow up across a thin tube around it (|A| about 36 there,
# 1-9 elsewhere), so near the string the fixed-step curvature engine
# misses its tolerances.  Over 270 seeds (9720 ops) 2 ops missed, both
# for the 1-center configuration in the gauge 0.7 - 0.4i, at most 1 a
# run: scalar up to 19x, Weyl-SD 4.8x and Nijenhuis 3.4x their
# tolerances, with dOmega passing.
_DIRAC_STRING = "sampler patch's Dirac string crosses the sampled region: accuracy lost near it"
CURVATURE_KNOWN = {label: KnownDefect(_DIRAC_STRING, 0.06)    # 2 of a run's 36 ops
                   for label in ("scalar", "weyl_sd", "nijenhuis")}


def _extrapolated_derivs(sampler, p4: np.ndarray) -> np.ndarray:
    """d[m] = partial_m of the sampler's matrix at p4: 4th-order central
    differences at steps h and h/2, Richardson-combined."""
    def at(h):
        d = []
        for m in range(4):
            e = np.zeros(4)
            e[m] = h
            d.append((8 * (sampler(p4 + e) - sampler(p4 - e))
                      - (sampler(p4 + 2 * e) - sampler(p4 - 2 * e))) / (12 * h))
        return np.array(d)
    h = ORACLE_STEP * float(p4[2])
    return (16 * at(h / 2) - at(h)) / 15


def d_omega(omega, p4: np.ndarray) -> float:
    """Largest component of d(Omega) at p4."""
    d = _extrapolated_derivs(omega, p4)
    return max(abs(d[a, b, c] + d[b, c, a] + d[c, a, b])
               for a in range(4) for b in range(a + 1, 4) for c in range(b + 1, 4))


def nijenhuis(J, p4: np.ndarray) -> float:
    """Norm of the Nijenhuis tensor of J at p4,
    N^k_ij = J^l_i d_l J^k_j - J^l_j d_l J^k_i - J^k_l (d_i J^l_j - d_j J^l_i)."""
    J0, dJ = J(p4), _extrapolated_derivs(J, p4)
    N = (np.einsum("li,lkj->kij", J0, dJ) - np.einsum("lj,lki->kij", J0, dJ)
         - np.einsum("kl,ilj->kij", J0, dJ) + np.einsum("kl,jli->kij", J0, dJ))
    return float(np.linalg.norm(N))


def _sample_point(rng, V: MultiCenterPotential) -> np.ndarray:
    """Total-space point at least 0.5 from every center (adapted chart)."""
    while True:
        p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(0.6, 1.8), rng.uniform(0, 2 * math.pi)])
        if all(hyp.dist(c, p[:3]) > 0.5 for c in V.centers):
            return p


def _lebrun_check(gauge: md.KahlerGauge, p4: np.ndarray, wrap) -> list[Check]:
    rep = md.curvature(wrap(gauge.metric), p4)
    md.dOmega_residual(wrap(gauge.kahler_form), p4)
    md.nijenhuis_residual(wrap(gauge.complex_structure), p4)
    return [("scalar", abs(rep.scalar), CURVATURE_TOL["scalar"]),
            ("weyl_sd", rep.weyl_sd_norm, CURVATURE_TOL["weyl_sd"]),
            ("dOmega", partial(d_omega, gauge.kahler_form, p4), CURVATURE_TOL["dOmega"]),
            ("nijenhuis", partial(nijenhuis, gauge.complex_structure, p4),
             CURVATURE_TOL["nijenhuis"])]


def curvature_grid(seed: int, extra_for=None) -> Workload:
    """Ops ordered point-major, so any leading block of 18 ops covers
    every (configuration, gauge) pair.  `extra_for(V, u)` may return an
    extra 1-form added to the connection (the negative controls)."""
    rng = np.random.default_rng([seed, 1])
    gauges = []
    for V in CURVATURE_CONFIGS:
        for u in CURVATURE_GAUGES:
            extra = extra_for(V, u) if extra_for is not None else None
            gauges.append((len(V.centers),
                           md.kahler_structure(V, md.DiracConnection(V, extra=extra), u)))
    ops, centers = [], []
    for _ in range(CURVATURE_POINTS_PER_GAUGE):
        for n, g in gauges:
            ops.append(partial(_lebrun_check, g, _sample_point(rng, g.V)))
            centers.append(n)
    first = gauges[0][1]
    warm = partial(_lebrun_check, first, _sample_point(rng, first.V), no_wrap)
    return Workload(ops, warm, repeat_block=ops[:len(gauges)],
                    shares={"three_center_points": centers.count(3) / len(centers)},
                    known_defects=CURVATURE_KNOWN)


# ---------------------------------------------------------------------------
# growth_law
#
# Why: the paper's growth-exponent experiment.  Geodesics that graze a
# center make the adaptive integrator and its restart loop stiff, so
# this is where the scattering propagator's cost lives; the curvature
# engine does no work here.  The 1e-5 impacts are the known cliff and
# stay in.  The seed places each fit's center by a rigid rotation about
# the base point at a fixed distance, so every seed poses the same
# geometric problem and only rounding differs (a center exactly at the
# base point is a rounding-friendly special case, three times cheaper).
# The rounding still moves the work of the grazing geodesics by about
# 10% per fit, so one op is the whole experiment (three fits, each with
# its own placement), which keeps its cost steady across seeds.
# ---------------------------------------------------------------------------

GROWTH_LAMBDA, GROWTH_DELTA = 0.4, 0.1
GROWTH_IMPACTS = tuple(float(b) for b in np.geomspace(1e-5, 1e-2, 8))
GROWTH_CENTER_DISTANCE = 0.25
GROWTH_TOL_LOGNORM, GROWTH_TOL_SLOPE = 1e-6, 0.05


def growth_log_norm(l: int, b: float, lam: float = GROWTH_LAMBDA,
                    delta: float = GROWTH_DELTA) -> float:
    """Closed form of int V dt over [-delta, delta] for one center of
    charge l at impact b, which is log ||H|| in the eigen gauge."""
    return 2 * lam * delta + l * (math.asinh(math.sqrt(1 + b * b) * math.sinh(delta) / b)
                                  - delta)


def _growth_fit(V: MultiCenterPotential, wrap) -> list[Check]:
    l = V.charges[0]
    fit = sc.abelian_growth_exponent(V, 0, GROWTH_DELTA, GROWTH_IMPACTS)
    checks = [(f"log_norm[l={l},b={b:.1e}]", abs(ln / growth_log_norm(l, b) - 1.0),
               GROWTH_TOL_LOGNORM) for b, ln in zip(fit.impacts, fit.log_norms)]
    checks.append((f"slope[l={l}]", abs(fit.slope / l - 1.0), GROWTH_TOL_SLOPE))
    return checks


def _growth_experiment(potentials, wrap) -> list[Check]:
    return [c for V in potentials for c in _growth_fit(V, wrap)]


def growth_law(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    frame = hyp.orthonormal_frame_at(hyp.ORIGIN)
    potentials = []
    for l in (1, 2, 3):
        v = rng.normal(size=3)
        center = hyp.point_at(hyp.ORIGIN, (v / np.linalg.norm(v)) @ frame,
                              GROWTH_CENTER_DISTANCE)
        potentials.append(MultiCenterPotential(GROWTH_LAMBDA, (center,), (l,)))
    warm = partial(sc.abelian_growth_exponent, potentials[0], 0, GROWTH_DELTA,
                   np.geomspace(1e-3, 1e-2, 3))
    grazing = sum(b <= 1e-4 for b in GROWTH_IMPACTS) / len(GROWTH_IMPACTS)
    return Workload([partial(_growth_experiment, potentials)], warm,
                    repeat_block=[partial(_growth_fit, potentials[0])], min_passes=1,
                    shares={"grazing_impacts": grazing})


# ---------------------------------------------------------------------------
# ps_scan
#
# Why: the scattering layer used differently from growth_law: long
# smooth horizons, decaying-subspace extraction and many
# renormalizations, with no stiffness.  A propagator that wins on
# grazing geodesics but loses on long horizons shows here.  The seed
# applies a rigid rotation to (x0, u); the PS field is rotation
# invariant, so the expected values hold for every seed.
# ---------------------------------------------------------------------------

PS_IMPACTS = (0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 16.0, 20.0)
PS_HORIZON = 40.0
# log_norm_final over [-40, 40] of the unrotated geodesic at each impact
# b > 0, from integrate_fundamental at tol 1e-12 with DOP853 (RK45 at
# 1e-12 agrees to 1e-12 relative; at the workload's tol 1e-9, under
# seeded rotations, it agreed to 3e-10 relative).  Through the center
# (b = 0) the log norm is ill-conditioned (-0.01 to 39 under rotations),
# so that op is judged by its indicator.
PS_LOG_NORM = {0.5: 74.04271783671354, 1.0: 74.88782378602835, 2.0: 75.85604548714983,
               5.0: 77.05179018760536, 8.0: 77.58415377200689, 12.0: 78.01394258104402,
               16.0: 78.30350031882826, 20.0: 78.51789687893928}
PS_TOL_LOG_NORM = 1e-7              # relative
# Over the horizon the stored, norm-rescaled matrices lose the decaying
# direction: once the determinant |det H| exp(-2 logscale) that a stored
# matrix must carry nears rounding (~1e-16, 15-20 time units in),
# its computed determinant is noise, and the library's
# det_balance_defect, a maximum over the whole path, reads 40-120 or inf
# on every op.  The determinant balance is judged where a stored matrix
# resolves it: at the checkpoints whose required determinant is at least
# PS_DET_RESOLVED.
PS_DET_RESOLVED = 1e-10


def det_balance(sol: sc.FundamentalSolution) -> float:
    """Max of |log|det M_j| + 2 logscale_j - Re int tr M dt| over the
    checkpoints whose required determinant a stored matrix resolves."""
    worst = 0.0
    for M, ls, w in zip(sol.mats, sol.logscales, sol.trace_integrals):
        if w.real - 2.0 * ls >= math.log(PS_DET_RESOLVED):
            d = abs(np.linalg.det(M))
            worst = max(worst, abs(math.log(d) + 2.0 * ls - w.real) if d > 0 else math.inf)
    return worst


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


def _ps_check(f: sc.PSField, b: float, wrap) -> list[Check]:
    ind = sc.spectral_indicator(f, PS_HORIZON)
    mg = sc.m_gamma_norm(f, PS_HORIZON) if ind > 1e-8 else None
    sol = sc.integrate_fundamental(f, -PS_HORIZON, PS_HORIZON, tol=1e-9)
    checks = [("det_balance", partial(det_balance, sol), math.log(1e3))]
    if b in PS_LOG_NORM:
        checks.append(("log_norm", abs(sol.log_norm_final() / PS_LOG_NORM[b] - 1.0),
                       PS_TOL_LOG_NORM))
    if b == 0.0:
        checks.append(("indicator_through_center", ind, 1e-6))
    if b == 1.0:
        checks.append(("inverse_indicator_at_1", 1.0 / ind if ind > 0 else math.inf, 10.0))
    if b >= 5.0:
        checks.append(("m_gamma_norm", mg if mg is not None else math.inf, 4.0))
    return checks


def ps_scan(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    R = _random_rotation(rng)
    fields = [(sc.PSField(x0=R @ [b, 0.0, 0.0], u=R @ [0.0, 0.0, 1.0]), b) for b in PS_IMPACTS]
    ops = [partial(_ps_check, f, b) for f, b in fields]
    warm = partial(_ps_check, *fields[-1], no_wrap)
    return Workload(ops, warm, repeat_block=ops[:2], min_passes=3)


# ---------------------------------------------------------------------------
# spectral_lift
#
# Why: the only workload where the hyperbolic, twistor, spectral and
# symplectic layers and per-call Python overhead dominate.  A batching
# or caching change that adds set-up cost shows here as a loss.  The
# configurations follow the acceptance generator for lifts (1-4
# centers, charges 1-3, mass in [0.1, 1], q at least 0.3 from every
# center and not on a segment between two).
# ---------------------------------------------------------------------------

SPECTRAL_OPS = 400                  # p97.5 has 10 ops beyond it
SPECTRAL_NODES = 2048
SPECTRAL_TOL = {"product": 1e-10, "reality": 1e-10, "doubling": 1e-9, "pairing": 1e-8}
# Known defect (ROADMAP item 4): the primary modulus formula of
# `spectral.factor` has a sign error, so every call takes the fallback,
# which re-solves at one fixed point.  Over 70 seeds (28000 lifts) the
# reality check missed on 3.9% of the lifts (at most 5.8% of a run's ops,
# errors up to 3e11x tolerance), the product check on 0.8% (at most
# 1.5%), and 11 lifts raised ArithmeticError (at most 1 a run).  Each
# recorded share sits at least 7 binomial standard deviations above the
# mean share of a 400-op run.
_FACTOR_FALLBACK = "spectral.factor sign error: every call takes the one-point fallback"
SPECTRAL_KNOWN = {"reality": KnownDefect(_FACTOR_FALLBACK, 0.12),
                  "product": KnownDefect(_FACTOR_FALLBACK, 0.04),
                  "exception.ArithmeticError": KnownDefect(_FACTOR_FALLBACK, 0.01)}


def _spectral_config(rng):
    n = int(rng.integers(1, 5))
    centers: list[PointUHS] = []
    while len(centers) < n:
        c = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
        if all(hyp.dist(c, d) > 0.3 for d in centers):
            centers.append(c)
    charges = [int(rng.integers(1, 4)) for _ in range(n)]
    V = MultiCenterPotential.for_su2_charge1(centers, charges, mass=rng.uniform(0.1, 1.0))
    while True:
        q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
        if all(hyp.dist(q, c) > 0.3 for c in centers) and \
                not hyp.is_geodesically_trapped(q, centers, tol=1e-6):
            return q, V


def _pairing_inputs(rng, k: int):
    etas = tuple(sy.Series(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(k))
    us = tuple(sy.Series(np.concatenate(
        [[2.0 + rng.uniform(0.5, 1.5)], 0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))]))
        for _ in range(k))
    z0 = complex(rng.uniform(1.5, 2.5), rng.normal())
    return (sy.random_marked_tangent(k, z0, rng), sy.random_marked_tangent(k, z0, rng),
            sy.SheetData(etas, us))


def _lift_check(q: PointUHS, V: MultiCenterPotential, X1, X2, sheets, wrap) -> list[Check]:
    data = sp.lift_twistor_line(q, V)
    pairing = abs(sy.omega_D_residue(X1, X2, sheets)
                  - sy.omega_D_contour(X1, X2, sheets, nodes=SPECTRAL_NODES))
    return [("product", data.product_residual(n=64), SPECTRAL_TOL["product"]),
            ("reality", data.pair.reality_defect(), SPECTRAL_TOL["reality"]),
            ("doubling", data.divisor_doubling_defect(), SPECTRAL_TOL["doubling"]),
            ("pairing", pairing, SPECTRAL_TOL["pairing"])]


def spectral_lift(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for i in range(SPECTRAL_OPS):
        q, V = _spectral_config(rng)
        ops.append(partial(_lift_check, q, V, *_pairing_inputs(rng, 1 + i % 3)))
    q, V = _spectral_config(rng)
    warm = partial(_lift_check, q, V, *_pairing_inputs(rng, 2), no_wrap)
    return Workload(ops, warm, repeat_block=ops[:100], known_defects=SPECTRAL_KNOWN)


BY_NAME = {
    "curvature_grid": curvature_grid,
    "growth_law": growth_law,
    "ps_scan": ps_scan,
    "spectral_lift": spectral_lift,
}
