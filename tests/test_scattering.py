"""Scattering integrators, decaying directions, growth experiments."""

import dataclasses
import json
import math
import pathlib
import time
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from monogeom import hyperbolic as hyp
from monogeom import scattering as sc
from monogeom.checks import measure
from monogeom.hyperbolic import MultiCenterPotential, PointUHS


# ---------------------------------------------------------------------------
# fundamental solutions
# ---------------------------------------------------------------------------

def test_trivial_growth_factor():
    m, T = 0.8, 6.0
    f = sc.TrivialU1Field(mass=m)
    sol = sc.integrate_fundamental(f, -T, T)
    assert abs(sol.log_norm_final() - 2 * m * T) / (2 * m * T) < 1e-8


def test_growth_led_by_second_column():
    # H(t0) = I and e1 decays against e2 by 1200 e-folds: the growth
    # must stay in the log scale whichever column carries it
    sol = sc.integrate_fundamental(sc.TrivialU1Field(mass=-1.0), -300.0, 300.0)
    assert abs(sol.log_norm_final() - 600.0) < 1e-8 * 600.0
    assert np.all(np.isfinite(sol.mats))


def test_growth_led_by_first_column():
    # e2 decays against e1 by 1200 e-folds, past where exp of the
    # log-rate gap overflows: R's corner factor must read 0, not raise
    sol = sc.integrate_fundamental(sc.TrivialU1Field(mass=1.0), -300.0, 300.0)
    assert abs(sol.log_norm_final() - 600.0) < 1e-8 * 600.0
    assert np.all(np.isfinite(sol.mats))


@pytest.mark.parametrize("mass", (1.0, -1.0))
def test_long_checkpoint_interval_in_blocks(mass):
    # 300 steps between the two checkpoints, whose modes part by e^1200:
    # far past floating range for one product, so the steps must be
    # multiplied in blocks short enough to keep both modes in range
    sol = sc.integrate_fundamental(sc.TrivialU1Field(mass=mass), -300.0, 300.0, checkpoints=2)
    assert abs(sol.log_norm_final() - 600.0) < 1e-8 * 600.0
    assert np.all(np.isfinite(sol.mats))


def test_diagonal_system_stays_diagonal():
    f = sc.TrivialU1Field(mass=1.1)
    sol = sc.integrate_fundamental(f, -4.0, 4.0)
    for M in sol.mats:
        assert abs(M[0, 1]) == 0.0
        assert abs(M[1, 0]) == 0.0


def test_abelian_lognorm_matches_quadrature_oracle():
    # oracle: adaptive quadrature of the field profile along the geodesic
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (2,))
    field = sc.AbelianField.from_impact(V, 0, impact=0.05)
    delta = 0.4
    want, _ = quad(field.higgs_norm, -delta, delta, epsabs=1e-12, epsrel=1e-12,
                   limit=200)
    sol = sc.integrate_fundamental(field, -delta, delta)
    assert sol.log_norm_final() == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("l", (1, 2, 3))
@pytest.mark.parametrize("impact, bound", ((1e-2, 1e-7), (1e-3, 1e-7), (1e-5, 4e-10)))
def test_abelian_lognorm_exact(l, impact, bound):
    # oracle: in the eigen gauge log ||H|| = int V dt over [-delta, delta],
    # in closed form for one center of charge l at impact b.  V is sampled
    # from sinh^2 of the distance, so b = 1e-5 loses no digits to
    # cosh - 1; the worst error measured there is 3.7e-11
    lam, delta = 0.4, 0.1
    V = MultiCenterPotential(lam, (PointUHS(0, 0, 1),), (l,))
    want = 2 * lam * delta + l * (math.asinh(math.sqrt(1 + impact ** 2)
                                             * math.sinh(delta) / impact) - delta)
    sol = sc.integrate_fundamental(sc.AbelianField.from_impact(V, 0, impact),
                                   -delta, delta)
    assert abs(sol.log_norm_final() - want) < bound


@pytest.mark.parametrize("l", (1, 2, 3))
def test_grazing_closest_approach_between_checkpoints(l):
    # the closest approach, at t = 0, falls between the 17 checkpoints
    # of [-0.131, 0.069]; oracle: int V dt in closed form, from the
    # antiderivative lambda t + l/2 (asinh(sqrt(1 + b^2) sinh t / b) - t)
    lam, b, t0, t1 = 0.4, 1e-5, -0.131, 0.069
    V = MultiCenterPotential(lam, (PointUHS(0, 0, 1),), (l,))
    f = sc.AbelianField.from_impact(V, 0, b)
    assert np.min(np.abs(np.linspace(t0, t1, 17))) > 1e-3
    F = lambda t: lam * t + 0.5 * l * (math.asinh(math.sqrt(1 + b * b) * math.sinh(t) / b) - t)
    sol = sc.integrate_fundamental(f, t0, t1)
    assert abs(sol.log_norm_final() - (F(t1) - F(t0))) < 4e-10


def test_det_balance_band():
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (2,))
    field = sc.AbelianField.from_impact(V, 0, impact=1e-4)
    sol = sc.integrate_fundamental(field, -0.1, 0.1)
    assert sol.det_balance_defect() < math.log(1e3)
    assert sol.log_norm_final() > 15.0  # the growth this balances against


def test_det_balance_keeps_a_nan():
    # the builtin max over the path kept 0.0 ahead of a NaN logscale
    sol = sc.integrate_fundamental(sc.TrivialU1Field(mass=0.5), -1.0, 1.0)
    spoiled = dataclasses.replace(sol, logscales=np.append(sol.logscales[:-1], math.nan))
    assert sol.det_balance_defect() < 1e-12
    assert math.isnan(spoiled.det_balance_defect())
    # M is traceless: its integrals, kept for determinant readers, are zeros
    assert sol.trace_integrals.tolist() == [0j] * len(sol.ts)


def test_integration_tolerance_consistency():
    # the solution is scheme- and tolerance-stable well beyond 10x tol
    f = sc.PSField(x0=[1.5, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    a = sc.integrate_fundamental(f, -8.0, 8.0, tol=1e-10)
    b = sc.integrate_fundamental(f, -8.0, 8.0, tol=1e-12)
    assert abs(a.log_norm_final() - b.log_norm_final()) < 1e-8


def test_fundamental_semigroup_property():
    # the stored path solves the equation: restarting from any
    # checkpoint reproduces the rest of the path within 10x tolerance
    tol = 1e-10
    f = sc.PSField(x0=[0.6, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    sol = sc.integrate_fundamental(f, -3.0, 3.0, tol=tol, checkpoints=5)
    j = 2
    t_mid = float(sol.ts[j])

    class Shifted(sc.FieldSampler):
        def ode_matrix(self, t):
            return f.ode_matrix(t)

        def higgs_norm(self, t):
            return f.higgs_norm(t)

    tail = sc.integrate_fundamental(Shifted(), t_mid, 3.0, tol=tol)
    lhs = tail.mats[-1] @ sol.mats[j]
    lhs_ls = tail.logscales[-1] + sol.logscales[j]
    rhs, rhs_ls = sol.final
    rel = np.linalg.norm(lhs * math.exp(lhs_ls - rhs_ls) - rhs) / np.linalg.norm(rhs)
    assert rel < 10 * tol * 1e3  # composition accumulates both paths' error


def test_pole_on_geodesic():
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    bad = sc.AbelianField(V, x0=__import__("monogeom.hyperbolic",
                                           fromlist=["embed"]).embed(V.centers[0]),
                          u=np.array([0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(sc.PoleOnGeodesicError):
        sc.integrate_fundamental(bad, -1.0, 1.0)


def test_initial_mesh_beyond_the_cap_raises_before_sampling():
    class Unsampled(sc.TrivialU1Field):
        def ode_matrix(self, t):
            raise AssertionError("sampled")

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="initial mesh of 1e\\+09 steps"):
        sc.integrate_fundamental(Unsampled(mass=1.0), -1e9, 1e9)
    assert time.perf_counter() - t0 < 1.0
    # a ps scan at the longest horizon the CLI accepts fits: [-T, T] at 17
    # checkpoints, and the two decaying runs from +-T to 0
    ts = np.linspace(-sc.MAX_HORIZON, sc.MAX_HORIZON, 17)
    assert sc._edges(ts[:-1], ts[1:])[2].sum() <= sc._MAX_MESH
    assert sc._edges(np.array([sc.MAX_HORIZON, -sc.MAX_HORIZON]), np.zeros(2))[2].sum() \
        <= sc._MAX_MESH


def test_refinement_round_beyond_the_cap_raises():
    # every step of growth e^{2e6} fails and is cut into 64 pieces a round:
    # without a cap on each round, 48 -> 3,072 -> 196,608 -> 12,582,912
    # pending steps, and several GB of node matrices in round 4
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="more than the cap of 100000"):
        sc.integrate_fundamental(sc.TrivialU1Field(mass=1e6), -40.0, 40.0)
    assert time.perf_counter() - t0 < 1.0


def test_traced_field_refused():
    # the propagator keeps H in SL(2, C), so a user sampler with a trace
    # is refused rather than integrated; rounding-sized traces pass
    @dataclasses.dataclass(frozen=True)
    class Traced(sc.TrivialU1Field):
        trace: complex = 0.0

        def ode_matrix(self, t):
            return super().ode_matrix(t) + self.trace * np.eye(2)

    for trace in (0.3, 1e-6j):
        with pytest.raises(ValueError, match="traceless"):
            sc.integrate_fundamental(Traced(trace=trace), -1.0, 1.0)
        with pytest.raises(ValueError, match="traceless"):
            sc.decaying_solution(Traced(trace=trace), +1, 10.0)
    sol = sc.integrate_fundamental(Traced(trace=1e-14), -1.0, 1.0)
    assert abs(sol.log_norm_final() - 2.0) < 1e-9


@pytest.mark.parametrize("horizon", (-40.0, 0.0, math.inf, math.nan))
def test_unworkable_horizon_refused_before_sampling(horizon):
    # -40 returned the direction decaying at the other end, 0 the seed
    # itself, and inf and NaN ended in IllPosedError after a RuntimeWarning
    class Unsampled(sc.TrivialU1Field):
        def ode_matrix(self, t):
            raise AssertionError("sampled")

    f = Unsampled(mass=1.0)
    for run in (sc.DecayingData.of, sc.spectral_indicator, sc.m_gamma_norm,
                lambda f, horizon: sc.decaying_solution(f, +1, horizon)):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            run(f, horizon)


@pytest.mark.parametrize("impact", (math.nan, math.inf, 0.0, -1e-3))
def test_impact_not_finite_and_positive_refused(impact):
    # NaN and inf once passed `impact <= 0` and ran to the refinement cap
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    with pytest.raises(ValueError, match="impact parameter must be finite and positive"):
        sc.AbelianField.from_impact(V, 0, impact)


@pytest.mark.parametrize("line", [dict(u=[0.0, 0.0, 0.0]), dict(u=[0.0, math.nan, 1.0]),
                                  dict(u=[math.inf, 0.0, 1.0]), dict(x0=[math.nan, 0.0, 0.0]),
                                  dict(center=[0.0, 0.0, math.inf])],
                         ids=["zero_u", "nan_u", "inf_u", "nan_x0", "inf_center"])
def test_ps_line_not_finite_refused(line):
    # these once sampled NaN and ran to the refinement cap
    with pytest.raises(ValueError, match="PS line needs"):
        sc.PSField(**{"x0": [1.0, 0.0, 0.0], "u": [0.0, 0.0, 1.0], **line})


def test_pole_off_base_point_fails_fast():
    # the geodesic meets the center at t = 0.5, away from every checkpoint
    # and seed: the closed-form closest approach flags it before any step
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    P, E = hyp.embed(V.centers[0]), hyp.orthonormal_frame_at(V.centers[0])
    bad = sc.AbelianField(V, x0=math.cosh(0.5) * P - math.sinh(0.5) * E[0],
                          u=-math.sinh(0.5) * P + math.cosh(0.5) * E[0])
    t0 = time.perf_counter()
    with pytest.raises(sc.PoleOnGeodesicError):
        sc.integrate_fundamental(bad, -1.0, 1.0)
    with pytest.raises(sc.PoleOnGeodesicError):
        sc.decaying_solution(bad, +1, 10.0)
    assert time.perf_counter() - t0 < 1.0
    near = sc.AbelianField.from_impact(V, 0, 1e-6)
    assert math.isfinite(near.higgs_norm(0.0))


# ---------------------------------------------------------------------------
# the Magnus propagator and its batched samplers
# ---------------------------------------------------------------------------

def sampler_fixtures():
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1), PointUHS(0.7, -0.2, 0.5)), (2, 1))
    return {"trivial": sc.TrivialU1Field(mass=0.8),
            "abelian": sc.AbelianField.from_impact(V, 1, 1e-3),
            "ps_through_center": sc.PSField(x0=[0.3, -0.2, 0.1], u=[1.0, 2.0, -2.0],
                                            center=[0.3, -0.2, 0.1]),
            "ps": sc.PSField(x0=[1.5, 0.0, 0.0], u=[0.0, 0.0, 1.0])}


@pytest.mark.parametrize("name", sampler_fixtures())
def test_batched_ode_matrix_matches_scalar_calls(name):
    # one implementation serves both: a batch equals the stacked scalar
    # calls (radii on both sides of the PS series switch at r = 0.4)
    f = sampler_fixtures()[name]
    ts = np.concatenate([np.linspace(-3.0, 3.0, 41), [0.0, 1e-6, -0.2, 0.3999999, 0.4000001]])
    batch, one = f.ode_matrix(ts), np.array([f.ode_matrix(t) for t in ts])
    assert batch.shape == (len(ts), 2, 2) and batch.dtype == complex
    assert one.shape == batch.shape
    assert np.all(np.abs(batch - one) <= 1e-15 * np.abs(one).max(axis=(1, 2), keepdims=True))
    assert np.array_equal(batch[:, 1, 1], -batch[:, 0, 0])   # traceless, exactly
    norms = f.higgs_norm(ts)
    assert norms.shape == ts.shape
    assert np.all(np.abs(norms - [f.higgs_norm(t) for t in ts]) <= 1e-15 * np.abs(norms))


@pytest.mark.parametrize("steps", ([(1.0, 0.7)], [(1e-3, 0.7)],
                                   [(1.0, 0.7), (1e-3, 0.7), (1.0, 0.0)] * 5),
                         ids=["1.0", "0.001", "batch"])
def test_magnus_step_of_constant_matrix_is_expm(steps):
    # for constant M every commutator vanishes and Omega = h M; scale
    # 1e-3 puts mu^2 below the switch to the cosh and sinhc series.  A
    # batch mixing both scales and zero steps takes the series at some
    # entries only, and each of its steps must equal that step alone
    from scipy.linalg import expm
    Ms = []
    for scale, _ in steps:
        rng = np.random.default_rng(5)
        M = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        Ms.append(M - 0.5 * np.trace(M) * np.eye(2))
    hs = np.array([h for _, h in steps])
    batch = sc._magnus_steps(np.broadcast_to(np.array(Ms), (3, len(steps), 2, 2)), hs)
    for i, (M, h) in enumerate(zip(Ms, hs)):
        E = sc._magnus_steps(np.broadcast_to(M, (3, 2, 2)), h)
        assert np.array_equal(batch[:, i], E)
        want = expm(h * M)
        assert np.linalg.norm(E.reshape(2, 2) - want) <= 1e-14 * np.linalg.norm(want)


def test_fundamental_matches_dop853_reference():
    # reference: DOP853 at tolerance 1e-12 on the plain linear system
    f = sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    sol = sc.integrate_fundamental(f, -40.0, 40.0, tol=1e-9)
    ref = solve_ivp(lambda t, y: (f.ode_matrix(t) @ y.reshape(2, 2)).ravel(), (-40.0, 40.0),
                    np.eye(2, dtype=complex).ravel(), method="DOP853", t_eval=sol.ts,
                    rtol=1e-12, atol=1e-12)
    Hs = ref.y.T.reshape(-1, 2, 2)
    for M, ls, H in zip(sol.mats, sol.logscales, Hs):
        assert np.linalg.norm(math.exp(ls) * M - H) <= 1e-9 * np.linalg.norm(H)
    want = math.log(np.linalg.norm(Hs[-1], 2))
    assert abs(sol.log_norm_final() / want - 1) <= 1e-9


@pytest.mark.parametrize("kind", ["random", "near-rank-1", "near-unitary"])
def test_log_norm_final_closed_form_matches_svd(kind):
    # the 2x2 spectral norm in closed form against LAPACK's SVD, |det M| down
    # to 1e-30, and at nearly equal singular values, where the form
    # sqrt((f - 2|det|)(f + 2|det|)) loses half the digits (1.7e-8 relative)
    rng = np.random.default_rng(31)
    for _ in range(300):
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if kind == "near-rank-1":
            u, v = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
            M = np.outer(u, v) + 10.0 ** rng.uniform(-30, -8) * M
        elif kind == "near-unitary":
            M = np.linalg.qr(M)[0] * (1 + 1e-12 * rng.normal(size=(2, 2)))
        M /= np.linalg.norm(M)
        sol = sc.FundamentalSolution(np.zeros(1), M[None], np.full(1, 3.0))
        want = np.linalg.norm(M, 2)
        assert abs(math.exp(sol.log_norm_final() - 3.0) / want - 1) <= 1e-15


PS_ORACLE = json.loads((pathlib.Path(__file__).parent / "ps_oracle.json").read_text())


@pytest.mark.parametrize("tol", (1e-7, 1e-8, 1e-9, 1e-10, 1e-11))
def test_global_error_within_tol(tol):
    # what tol means: the global error of log ||H||, that is the relative
    # error of ||H||, stays within tol against two oracles -- the abelian
    # closed form int V dt (one center of charge l = 1..3 at 8 impacts from
    # 1e-5 to 1e-2, over [-0.1, 0.1]) and PS over [-5, 5] from mpmath's
    # Taylor integrator at 30 digits (tests/ps_oracle.py).  The worst
    # reading is 0.55 tol; accepting steps at 16 tol would read 4.6 tol
    lam, delta = 0.4, 0.1
    cases = []
    for l in (1, 2, 3):
        V = MultiCenterPotential(lam, (PointUHS(0, 0, 1),), (l,))
        for b in np.geomspace(1e-5, 1e-2, 8):
            want = 2 * lam * delta + l * (math.asinh(math.sqrt(1 + b * b) * math.sinh(delta) / b)
                                          - delta)
            cases.append((sc.AbelianField.from_impact(V, 0, b), delta, want))
    for b, want in PS_ORACLE["log_norm"].items():
        cases.append((sc.PSField(x0=[float(b), 0.0, 0.0], u=[0.0, 0.0, 1.0]), 5.0, float(want)))
    for f, T, want in cases:
        assert abs(sc.integrate_fundamental(f, -T, T, tol=tol).log_norm_final() - want) <= tol


# ---------------------------------------------------------------------------
# the PS scattering matrix
# ---------------------------------------------------------------------------

PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
         np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def ps_matrix_reference(f, t):
    # M = -(phi + i a) . sigma / 2 as a Pauli sum, with a = k(r) u x p
    # from np.cross; p and r are rounded as the sampler rounds them, so
    # the series/closed-form radial factors see the same r
    p = (f.x0 - f.center) + t * f.u
    r = math.sqrt(p[0] * p[0] + p[1] * p[1] + p[2] * p[2])
    h_over_r, k_over_r = sc._ps_radial(r)
    phi = h_over_r * p
    a = k_over_r * np.cross(f.u, p)
    return sum((-0.5 * phi[j] - 0.5j * a[j]) * PAULI[j] for j in range(3))


def ps_samples():
    # seeded lines (impacts 0 to 20, random direction, center and
    # parametrization) at random times, plus a line through the center at
    # r = 0 and at radii inside the series branch (r < 0.4)
    rng = np.random.default_rng(7)
    through = sc.PSField(x0=[0.2, -0.1, 0.3], u=[1.0, 2.0, -2.0],
                         center=[0.2, -0.1, 0.3])
    yield from ((through, t) for t in (0.0, 1e-6, -3e-3, 0.0099999, 0.0100001,
                                       -0.0100001, 0.02, 5.0))
    for _ in range(200):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        n = np.cross(u, rng.normal(size=3))
        b = rng.choice([0.0, 1e-3, 0.009, 0.011, 0.5, 5.0, 20.0])
        center = rng.normal(size=3)
        x0 = center + b * n / np.linalg.norm(n) + rng.normal() * u
        f = sc.PSField(x0=x0, u=rng.uniform(0.5, 2.0) * u, center=center)
        yield from ((f, t) for t in rng.normal(scale=[0.01, 1.0, 30.0]))


def test_ps_radial_factors_match_mpmath():
    # a series stopped at r^4 below r = 0.01 and the cancelling closed
    # forms above it read 1.2e-12 relative at r = 0.0100001; far out
    # exp(-2r) underflows to 0 and the factors tend to 2/r and 1/r^2
    def h_over_r(r):
        return (2 * mpmath.coth(2 * r) - 1 / r) / r

    def k_over_r(r):
        return (1 / r - 2 / mpmath.sinh(2 * r)) / r

    rs = np.concatenate([np.geomspace(1e-6, 400.0, 500),
                         [0.0099999, 0.01, 0.0100001, 0.3999999, 0.4, 0.4000001, 40.0, 400.0]])
    batch = sc._ps_radial(rs)
    with mpmath.workdps(40):
        for i, r in enumerate(rs):
            x = mpmath.mpf(float(r))
            h, k = sc._ps_radial(r)
            assert (h, k) == (batch[0][i], batch[1][i])
            assert abs(h / float(h_over_r(x)) - 1) <= 5e-15
            assert abs(k / float(k_over_r(x)) - 1) <= 5e-15


def test_ps_far_out_raises_no_warning():
    # exp(-2r) underflows quietly where sinh 2r would overflow; the
    # values there are the 1/r limits
    f = sc.PSField(x0=[3.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = f.ode_matrix(400.0)
        s = sc.decaying_solution(f, +1, 400.0)
    p, r = np.array([3.0, 0.0, 400.0]), math.hypot(3.0, 400.0)
    w = -0.5 * ((2.0 - 1.0 / r) / r * p + 1j / (r * r) * np.cross(f.u, p))
    want = sum(w[j] * PAULI[j] for j in range(3))
    assert np.linalg.norm(M - want) <= 1e-15 * np.linalg.norm(want)
    assert np.all(np.isfinite(s))


def test_ps_matrix_matches_pauli_sum():
    for f, t in ps_samples():
        M, ref = f.ode_matrix(t), ps_matrix_reference(f, t)
        assert M.shape == (2, 2) and M.dtype == complex
        assert np.linalg.norm(M - ref) <= 1e-14 * np.linalg.norm(ref)


def test_ps_matrix_traceless_with_higgs_hermitian_part():
    # the connection enters M anti-Hermitian, so the Hermitian part is
    # -phi . sigma / 2, with eigenvalues +-|phi|/2
    for f, t in ps_samples():
        M = f.ode_matrix(t)
        assert M[0, 0] + M[1, 1] == 0
        top = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1]
        assert abs(top - f.higgs_norm(t)) <= 1e-14 * max(f.higgs_norm(t), 1e-300)


def test_ps_field_is_immutable():
    f = sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 2.0])
    before = f.ode_matrix(0.7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.x0 = np.array([5.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        f.x0[0] = 5.0
    with pytest.raises(ValueError):
        f.u[2] = 1.0
    assert np.array_equal(f.ode_matrix(0.7), before)
    assert np.array_equal(f.u, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# decaying directions
# ---------------------------------------------------------------------------

def test_trivial_decaying_directions_exact():
    f = sc.TrivialU1Field(mass=0.9)
    s_plus = sc.decaying_solution(f, +1, 20.0)
    s_minus = sc.decaying_solution(f, -1, 20.0)
    assert abs(abs(s_plus[1]) - 1.0) < 1e-10
    assert abs(abs(s_minus[0]) - 1.0) < 1e-10


def test_decaying_direction_scheme_independent():
    f = sc.PSField(x0=[0.8, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    a = sc.decaying_solution(f, +1, 30.0)
    # reference: RK45 on the plain linear system from the same seed
    lam, vecs = np.linalg.eig(f.ode_matrix(30.0))
    seed = vecs[:, np.argmin(lam.real)]
    ref = solve_ivp(lambda t, s: f.ode_matrix(t) @ s, (30.0, 0.0),
                    seed.astype(complex), method="RK45", rtol=1e-11, atol=1e-11)
    b = ref.y[:, -1] / np.linalg.norm(ref.y[:, -1])
    align = abs(np.vdot(a, b))
    assert 1.0 - align < 1e-8


def test_decaying_direction_horizon_stable():
    f = sc.PSField(x0=[1.2, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    a = sc.decaying_solution(f, +1, 25.0)
    b = sc.decaying_solution(f, +1, 50.0)
    assert 1.0 - abs(np.vdot(a, b)) < 1e-8


def test_decaying_direction_far_horizon_in_blocks():
    # 200 steps from the horizon at 400, several blocks, against one at 40;
    # the two seeds' phases differ, so the directions are compared after
    # aligning them
    f = sc.PSField(x0=[1.0, 0.5, 0.0], u=[0.3, -0.6, 0.0])
    for end in (+1, -1):
        a, b = sc.decaying_solution(f, end, 40.0), sc.decaying_solution(f, end, 400.0)
        phase = np.vdot(b, a) / abs(np.vdot(b, a))
        assert np.abs(a - phase * b).max() <= 1e-14


class CountedPS(sc.PSField):
    def ode_matrix(self, t):
        self.calls.append(np.size(t))
        return super().ode_matrix(t)


@pytest.mark.parametrize("b", (0.0, 0.5, 3.0))
def test_decaying_data_matches_one_end_at_a_time(b):
    # both ends share the refinement rounds: the same nodes in fewer
    # sampler calls, and the same directions
    f = CountedPS(x0=[b, 0.0, 0.0], u=[0.0, 0.6, 0.8])
    object.__setattr__(f, "calls", [])
    data = sc.DecayingData.of(f)
    joint, f.calls[:] = list(f.calls), []
    s0, s0p = sc.decaying_solution(f, +1, 40.0), sc.decaying_solution(f, -1, 40.0)
    assert np.abs(data.s0 - s0).max() <= 1e-15
    assert np.abs(data.s0_prime - s0p).max() <= 1e-15
    assert sum(joint) == sum(f.calls)
    assert len(joint) < len(f.calls)


def test_decaying_data_is_one_propagation(monkeypatch):
    runs = []
    propagate = sc._propagate

    def counted(fields, these, *args, **kw):
        runs.append(len(these))
        return propagate(fields, these, *args, **kw)
    monkeypatch.setattr(sc, "_propagate", counted)
    sc.DecayingData.of(sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0]))
    assert runs == [2]


@pytest.mark.parametrize("name", sampler_fixtures())
def test_asymptotic_eigenvectors_match_eig(name):
    # the closed-form seeds against np.linalg.eig's vectors, up to phase, at
    # both ends of several horizons; the trivial and abelian fields give a
    # diagonal M, and diag(-1, 1) flips which entry holds the larger part
    f = sampler_fixtures()[name]
    mats = [(f.ode_matrix(end * T), end) for T in (0.5, 3.0, 15.0, 40.0) for end in (+1, -1)]
    mats += [(np.diag([-1.0, 1.0]).astype(complex), end) for end in (+1, -1)]
    for M, end in mats:
        lam, vecs = np.linalg.eig(M)
        want = vecs[:, np.argmin(lam.real) if end == +1 else np.argmax(lam.real)]
        got = sc._asymptotic_eigenvectors(M[None], (end,))[0]
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-15)
        phase = np.vdot(want, got) / abs(np.vdot(want, got))
        assert np.abs(got - phase * want).max() <= 1e-14


def test_no_gap_is_ill_posed():
    f = sc.TrivialU1Field(mass=0.0)
    with pytest.raises(sc.IllPosedError):
        sc.decaying_solution(f, +1, 10.0)


# ---------------------------------------------------------------------------
# spectral indicator and the splitting norm
# ---------------------------------------------------------------------------

def _rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


PS_SCAN_IMPACTS = (0.0, 0.5, 1.0, 2.0, 5.0, 8.0, 12.0, 16.0, 20.0)


@pytest.mark.parametrize("seed", range(3))
def test_decaying_data_within_1e12_of_a_tight_reference(seed):
    # tol is the accuracy of the direction at t = 0, for which steps far
    # from 0 may err by exp(G/2) more (module docstring); the indicator
    # and ||M_gamma|| at the ps_scan impacts, on seeded rotations of their
    # lines, against tol 1e-13.  Through the center the indicator is 0 and
    # M_gamma undefined, so there the indicator is compared absolutely.
    # The closed-form norm must match the reflection matrix's
    R = _rotation(np.random.default_rng([seed, 3]))
    for b in PS_SCAN_IMPACTS:
        f = sc.PSField(x0=R @ [b, 0.0, 0.0], u=R @ [0.0, 0.0, 1.0])
        got, ref = sc.DecayingData.of(f), sc.DecayingData.of(f, tol=1e-13)
        if b == 0.0:
            assert abs(got.indicator() - ref.indicator()) <= 1e-12
            with pytest.raises(ZeroDivisionError):
                got.reflection_norm()
            continue
        assert abs(got.indicator() / ref.indicator() - 1.0) <= 1e-12
        norms = [np.linalg.norm(d.splitting_reflection(), 2) for d in (got, ref)]
        assert abs(norms[0] / norms[1] - 1.0) <= 1e-12
        assert abs(got.reflection_norm() / norms[0] - 1.0) <= 1e-13


def test_ps_scan_pass_samples_at_most_45000_nodes():
    # one pass of the benchmark's ps_scan: per line the indicator, the
    # splitting norm off the spectral line, each from its own decaying
    # data, and the fundamental matrix over [-40, 40] at tol 1e-9.
    # Uniform step control sampled 80,782 nodes here, 58,138 of them in
    # decaying data
    total = 0
    for b in PS_SCAN_IMPACTS:
        f = CountedPS(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0])
        object.__setattr__(f, "calls", [])
        if sc.spectral_indicator(f, 40.0) > 1e-8:
            sc.m_gamma_norm(f, 40.0)
        sc.integrate_fundamental(f, -40.0, 40.0, tol=1e-9)
        total += sum(f.calls)
    assert total <= 45_000


def test_trivial_indicator_and_norm():
    f = sc.TrivialU1Field(mass=1.0)
    assert sc.spectral_indicator(f, 15.0) == pytest.approx(1.0, abs=1e-10)
    assert sc.m_gamma_norm(f, 15.0) == pytest.approx(1.0, abs=1e-10)


class ConjugatedTrivialField(sc.FieldSampler):
    """TrivialU1Field in the gauge U diag(m, -m) U^dagger: its decaying
    lines are orthogonal and complex."""

    def __init__(self, U):
        self.U = U

    def ode_matrix(self, t):
        return self.U @ sc.TrivialU1Field().ode_matrix(t) @ self.U.conj().T

    def higgs_norm(self, t):
        return sc.TrivialU1Field().higgs_norm(t)


def test_orthogonal_complex_decaying_lines_have_unit_norm():
    # unit directions only to a few ulp: seeds 4, 5 and 7 read the
    # indicator above 1
    indicators = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        U = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        data = sc.DecayingData.of(ConjugatedTrivialField(U), 15.0)
        indicators.append(data.indicator())
        assert data.reflection_norm() == pytest.approx(1.0, abs=1e-10)
        assert data.reflection_norm() == pytest.approx(
            np.linalg.norm(data.splitting_reflection(), 2), rel=1e-13)
    assert max(indicators) > 1.0


def test_reflection_norm_of_exactly_orthogonal_unit_pairs_is_one():
    # 2000 orthogonal unit pairs, columns of a complex QR (true norm 1): cos theta read
    # as sqrt((1 - delta)(1 + delta)) from the indicator read up to 4.7e-8 off, read as
    # |<s0, s0'>| from the directions nothing cancels
    rng = np.random.default_rng(27)
    for _ in range(2000):
        U = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        data = sc.DecayingData(U[:, 0], U[:, 1], complex(U[0, 0] * U[1, 1] - U[1, 0] * U[0, 1]))
        assert abs(data.reflection_norm() - 1.0) <= 1e-14


def test_decaying_data_record():
    f = sc.TrivialU1Field(mass=1.0)
    data = sc.DecayingData.of(f, 15.0)
    assert np.linalg.norm(data.s0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(data.s0_prime) == pytest.approx(1.0, abs=1e-12)
    assert abs(data.pairing) == pytest.approx(data.indicator())
    M = data.splitting_reflection()
    assert np.allclose(M @ data.s0, data.s0, atol=1e-10)
    assert np.allclose(M @ data.s0_prime, -data.s0_prime, atol=1e-10)


def test_ps_through_center_is_spectral():
    f = sc.PSField(x0=[0.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    assert sc.spectral_indicator(f, 40.0) < 1e-6


def test_ps_off_center_is_not_spectral():
    f = sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    assert sc.spectral_indicator(f, 40.0) > 0.1


def test_ps_far_family_norm_bounded():
    for b in (5.0, 8.0, 13.0, 20.0):
        f = sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0])
        assert sc.m_gamma_norm(f, 40.0) < 4.0


def test_m_gamma_diverges_toward_spectral_line():
    norms = [sc.m_gamma_norm(sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0]), 40.0)
             for b in (1.0, 0.5, 0.25)]
    assert norms[0] < norms[1] < norms[2]
    f0 = sc.PSField(x0=[0.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    with pytest.raises(ZeroDivisionError):
        sc.m_gamma_norm(f0, 40.0)


# ---------------------------------------------------------------------------
# growth experiment
# ---------------------------------------------------------------------------

def test_sinh_closed_form_identity():
    assert measure("scattering.sinh-identity", 0) < 1e-10


@pytest.mark.parametrize("delta", [0.1, 1.0])
def test_sinh_quadrature_matches_adaptive_and_mpmath(delta):
    # the check's 12 (l, z) pairs plus z = 1e-6, against scipy's adaptive
    # quadrature and l asinh(delta / z) at 30 digits
    mpmath.mp.dps = 30
    for l in (1.0, 2.0, 3.0):
        for z in (1e-6, 1e-4, 1e-3, 1e-2, 3e-2):
            got, closed = sc.sinh_model_integral(l, delta, z)
            exact = float(l * mpmath.asinh(mpmath.mpf(delta) / mpmath.mpf(z)))
            adaptive, _ = quad(lambda t: l / (2.0 * math.hypot(t, z)), -delta, delta,
                               points=[0.0], epsabs=1e-13, epsrel=1e-13)
            assert abs(got - exact) <= 1e-14 * exact
            assert abs(closed - exact) <= 1e-14 * exact
            assert abs(got - adaptive) <= 1e-14 * exact


def test_growth_exponent_l1():
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    fit = sc.abelian_growth_exponent(V, 0, delta=0.1,
                                     z_samples=np.geomspace(1e-5, 1e-2, 6))
    assert abs(fit.slope - 1.0) < 0.05
    assert fit.r_squared > 0.9999


def test_growth_range_validation():
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    with pytest.raises(ValueError):
        sc.abelian_growth_exponent(V, 0, delta=0.1, z_samples=[0.5])


@pytest.mark.parametrize("z_samples, match", [
    ([1e-3, math.nan], "strictly between"), ([math.inf, 1e-3], "strictly between"),
    ([1e-3, -math.inf], "strictly between"), ([], "0 distinct"),
    ([1e-3], "1 distinct"), ([1e-3, -1e-3, 1e-3], "1 distinct")],
    ids=["nan", "inf", "minus-inf", "empty", "one", "one-distinct"])
def test_growth_impacts_refused_before_integrating(monkeypatch, z_samples, match):
    # a NaN once ran to the refinement cap, an empty list ended in numpy's
    # TypeError and one distinct impact fitted a line with a RankWarning
    def unused(*args, **kw):
        raise AssertionError("integrated")
    monkeypatch.setattr(sc, "integrate_fundamental", unused)
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    with pytest.raises(ValueError, match=match):
        sc.abelian_growth_exponent(V, 0, delta=0.1, z_samples=z_samples)


def test_growth_fit_node_count_unchanged(monkeypatch):
    # fundamental matrices keep uniform step control: the fit of
    # test_growth_exponent_l1 samples the nodes it sampled before decaying
    # data were refined for their direction at t = 0
    nodes = []
    ode_matrix = sc.AbelianField.ode_matrix

    def counted(self, t):
        nodes.append(np.size(t))
        return ode_matrix(self, t)
    monkeypatch.setattr(sc.AbelianField, "ode_matrix", counted)
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    sc.abelian_growth_exponent(V, 0, delta=0.1, z_samples=np.geomspace(1e-5, 1e-2, 6))
    assert (sum(nodes), len(nodes)) == (7416, 21)


def test_initial_mesh_edges_match_linspace_bitwise():
    # the vectorized initial mesh reproduces one np.linspace per interval
    # bit for bit, so no propagation result moves
    rng = np.random.default_rng(3)
    for m in (0, 1, 2, 7, 40):
        t0 = rng.uniform(-50.0, 50.0, size=m) * 10.0 ** rng.uniform(-3, 1, size=m)
        t1 = t0 + rng.choice([-1.0, 1.0], size=m) * rng.uniform(1e-9, 60.0, size=m)
        a, b, n = sc._edges(t0, t1)
        edges = [np.linspace(s, e, max(1, math.ceil(abs(e - s) / sc._MAX_STEP)) + 1)
                 for s, e in zip(t0, t1)]
        assert n.tolist() == [len(e) - 1 for e in edges]
        assert a.tobytes() == np.concatenate([e[:-1] for e in edges] + [np.zeros(0)]).tobytes()
        assert b.tobytes() == np.concatenate([e[1:] for e in edges] + [np.zeros(0)]).tobytes()
