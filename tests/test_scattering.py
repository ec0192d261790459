"""Scattering integrators, decaying directions, growth experiments."""

import dataclasses
import hashlib
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
from oracles import splitting_reflection, traceless_matrix


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
    # log-rate gap overflows: the decaying entry must underflow to 0, not raise
    sol = sc.integrate_fundamental(sc.TrivialU1Field(mass=1.0), -300.0, 300.0)
    assert abs(sol.log_norm_final() - 600.0) < 1e-8 * 600.0
    assert np.all(np.isfinite(sol.mats))


@pytest.mark.parametrize("mass", (1.0, -1.0))
def test_long_checkpoint_interval_in_blocks(mass):
    # 300 steps between the two checkpoints, whose modes part by e^1200:
    # far past floating range for one product, so the steps must be
    # multiplied in blocks short enough for one product to stay in range
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
    # a singular stored matrix has no log determinant to balance
    singular = dataclasses.replace(sol, mats=np.append(sol.mats[:-1], np.ones((1, 2, 2)), axis=0))
    assert singular.det_balance_defect() == math.inf
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
        def ode_components(self, t):
            return f.ode_components(t)

    tail = sc.integrate_fundamental(Shifted(), t_mid, 3.0, tol=tol)
    lhs = tail.mats[-1] @ sol.mats[j]
    lhs_ls = tail.logscales[-1] + sol.logscales[j]
    rhs, rhs_ls = sol.mats[-1], sol.logscales[-1]
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
        def ode_components(self, t):
            raise AssertionError("sampled")

    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="initial mesh of 1e\\+09 steps"):
        sc.integrate_fundamental(Unsampled(mass=1.0), -1e9, 1e9)
    assert time.perf_counter() - t0 < 1.0
    # a ps scan at the longest horizon the CLI accepts fits: [-T, T] at 17
    # checkpoints, and the two decaying runs from 0 to +-T
    ts = np.linspace(-sc.MAX_HORIZON, sc.MAX_HORIZON, 17)
    assert sc._edges(ts[:-1], ts[1:])[2].sum() <= sc._MAX_MESH
    assert sc._edges(np.zeros(2), np.array([sc.MAX_HORIZON, -sc.MAX_HORIZON]))[2].sum() \
        <= sc._MAX_MESH


def test_refinement_round_beyond_the_cap_raises():
    # every step of growth e^{2e6} fails and is cut into 64 pieces a round:
    # without a cap on each round, 48 -> 3,072 -> 196,608 -> 12,582,912
    # pending steps, and several GB of node matrices in round 4
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="more than the cap of 100000"):
        sc.integrate_fundamental(sc.TrivialU1Field(mass=1e6), -40.0, 40.0)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("shape", ("matrices", "transposed", "flat", "scalar"))
def test_sampler_of_another_shape_refused_before_any_magnus_step(monkeypatch, shape):
    # samplers give M's components (d, p, q), (3, n) for n times, so a trace cannot be
    # expressed; (n, 2, 2) matrices, M as samplers gave it before, or any other shape
    # would be read as wrong components, and are refused with the method named
    class Reshaped(sc.TrivialU1Field):
        def ode_components(self, t):
            C = super().ode_components(t)
            return {"matrices": traceless_matrix(C), "transposed": C.T, "flat": C.ravel(),
                    "scalar": C[0]}[shape]

    def unstepped(*args):
        raise AssertionError("stepped")
    monkeypatch.setattr(sc, "_magnus_steps", unstepped)
    for run in (lambda f: sc.integrate_fundamental(f, -1.0, 1.0),
                lambda f: sc.DecayingData.of(f, 10.0)):
        with pytest.raises(ValueError, match=r"ode_components gave shape \(\d+"):
            run(Reshaped(mass=1.0))


@pytest.mark.parametrize("horizon", (-40.0, 0.0, math.inf, math.nan))
def test_unworkable_horizon_refused_before_sampling(horizon):
    # -40 returned the direction decaying at the other end, 0 the seed
    # itself, and inf and NaN ended in IllPosedError after a RuntimeWarning
    class Unsampled(sc.TrivialU1Field):
        def ode_components(self, t):
            raise AssertionError("sampled")

    f = Unsampled(mass=1.0)
    for run in (sc.DecayingData.of, sc.spectral_indicator, sc.m_gamma_norm):
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            run(f, horizon)


def _unsampled(self, t):
    raise AssertionError("sampled")


_GROWTH_V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
_TRIVIAL = sc.TrivialU1Field(mass=1.0)


@pytest.mark.parametrize("call, match", [
    *((lambda tol=tol: sc.integrate_fundamental(_TRIVIAL, -10.0, 10.0, tol=tol), "tol must")
      for tol in (-1e-9, 0.0, math.nan, math.inf)),
    *((lambda t0=t0, t1=t1: sc.integrate_fundamental(_TRIVIAL, t0, t1), "need finite t0")
      for t0, t1 in ((math.nan, 1.0), (-math.inf, 1.0), (-1.0, math.inf))),
    *((lambda n=n: sc.integrate_fundamental(_TRIVIAL, -1.0, 1.0, checkpoints=n), "need finite t0")
      for n in (0, 1, 2.5, True)),
    *((lambda tol=tol: sc.DecayingData.of(_TRIVIAL, 10.0, tol=tol), "tol must")
      for tol in (-1.0, 0.0, math.nan, math.inf)),
    (lambda: sc.abelian_growth_exponent(_GROWTH_V, 0, math.inf, [1e-3, 1e-2]), "need finite t0")],
    ids=[*(f"fundamental-tol-{v}" for v in ("negative", "zero", "nan", "inf")),
         "t0-nan", "t0-minus-inf", "t1-inf", *(f"checkpoints-{v}" for v in (0, 1, 2.5, True)),
         *(f"decaying-data-tol-{v}" for v in ("negative", "zero", "nan", "inf")),
         "growth-delta-inf"])
def test_unworkable_tol_times_or_checkpoints_refused_before_sampling(monkeypatch, call, match):
    # tol -1e-9 was accepted, every step passing at the initial mesh, so a PS
    # line over [-10, 10] read log_norm_final 8.3e-8 relative off tol 1e-9's;
    # tol 0 divided by zero, and a NaN tol ran to the refinement cap; a
    # negative tol in decaying data ended in IllPosedError; checkpoints 0
    # raised IndexError and t1 = inf an initial mesh of nan steps
    monkeypatch.setattr(sc.TrivialU1Field, "ode_components", _unsampled)
    monkeypatch.setattr(sc.AbelianField, "ode_components", _unsampled)
    with pytest.raises(ValueError, match=match) as raised:
        call()
    assert not isinstance(raised.value, sc.IllPosedError)


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
        sc.DecayingData.of(bad, 10.0)
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
    batch, one = f.ode_components(ts), np.array([f.ode_components(t) for t in ts]).T
    assert batch.shape == (3, len(ts)) and batch.dtype == complex
    assert one.shape == batch.shape and f.ode_components(0.5).shape == (3,)
    assert np.all(np.abs(batch - one) <= 1e-15 * np.abs(one).max(axis=0, keepdims=True))
    if not isinstance(f, sc.PSField):     # the abelian samplers read M off |Phi|
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
    Cs = []
    for scale, _ in steps:
        rng = np.random.default_rng(5)
        Cs.append(scale * _random_complex(rng, 3))
    hs = np.array([h for _, h in steps])
    batch = sc._magnus_steps(np.broadcast_to(np.array(Cs).T[:, None], (3, 3, len(steps))), hs)
    for i, (C, h) in enumerate(zip(Cs, hs)):
        E = sc._magnus_steps(np.broadcast_to(C[:, None], (3, 3)), h)
        assert np.array_equal(batch[:, i], E)
        want = expm(h * traceless_matrix(C))
        assert np.linalg.norm(E.reshape(2, 2) - want) <= 1e-14 * np.linalg.norm(want)


def _random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", ((), (7,), (3, 7), (5, 8)),
                         ids=["one", "flat", "round", "block-chain"])
def test_product_by_broadcasting_matches_eight_products_bitwise(shape):
    # the eight products on arrays: a lone matrix's components would be numpy
    # scalars, whose complex multiply is not fused where the array loops' is,
    # so its reference is taken on (4, 1) arrays
    rng = np.random.default_rng(11)
    x, y = _random_complex(rng, 4, *shape), _random_complex(rng, 4, *shape)
    if len(shape) == 2:   # a round's (step, halves) slices, or the block chain's slots
        x, y = (x[:, 2], x[:, 1]) if shape[0] == 3 else (x[:, :, 1::2], x[:, :, 0::2])
    (x00, x01, x10, x11), (y00, y01, y10, y11) = x.reshape(4, -1), y.reshape(4, -1)
    want = np.array([x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
                     x10 * y00 + x11 * y10, x10 * y01 + x11 * y11]).reshape(x.shape)
    got = sc._product(x, y)
    assert got.shape == x.shape and got.tobytes() == want.tobytes()


def _magnus_steps_by_stacks(A, h):
    # the Magnus step from traceless matrices A (3, ..., 2, 2), with Omega's
    # components and exp Omega assembled by np.array stacks, the form the in-place
    # one, reading the components, must reproduce bit for bit
    a00, a01, a10, a11 = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    X = np.array([(0.5 * h) * (a00 - a11), h * a01, h * a10])
    a1 = X[:, 1]
    a2 = (math.sqrt(15.0) / 3.0) * (X[:, 2] - X[:, 0])
    a3 = (10.0 / 3.0) * (X[:, 2] - 2.0 * X[:, 1] + X[:, 0])
    c1 = sc._commutator(a1, a2)
    c2 = sc._commutator(a1, 2.0 * a3 + c1) / -60.0
    d, p, q = (a1 + a3 / 12.0 + sc._commutator(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0).reshape(3, -1)
    mu2 = d * d + p * q
    small = np.abs(mu2) < sc._SERIES_MU2
    mu = np.where(small, 1.0, np.sqrt(mu2))
    x, y = mu.real, mu.imag
    cx, sx, cy, sy = np.cosh(x), np.sinh(x), np.cos(y), np.sin(y)
    ch, shc = cx * cy + 1j * (sx * sy), (sx * cy + 1j * (cx * sy)) / mu
    cs, ss = 0.0, 0.0
    for c, s in zip(sc._COSH, sc._SINHC):
        cs, ss = cs * mu2 + c, ss * mu2 + s
    ch, shc = np.where(small, cs, ch), np.where(small, ss, shc)
    return np.array([ch + shc * d, shc * p, shc * q, ch - shc * d]).reshape((4,) + X.shape[2:])


def test_magnus_steps_in_place_match_stacked_assembly_bitwise():
    # a refinement round's shape, nodes x (step, halves) x steps, with
    # entries on both sides of the series switch, and one 0-d step
    rng = np.random.default_rng(12)
    scale = np.where(np.arange(40) % 3 == 0, 1e-4, 1.0)   # every third by series
    C = scale * _random_complex(rng, 3, 3, 3, 40)
    h = rng.uniform(0.1, 1.5, size=40) * sc._SUBSTEPS
    got, want = sc._magnus_steps(C, h), _magnus_steps_by_stacks(traceless_matrix(C), h)
    mu2 = np.abs(want[0] + want[3]) ** 2 / 4.0 - 1.0   # cosh^2 mu - 1, about mu^2 where small
    assert np.any(np.abs(mu2) < 1e-3) and np.any(np.abs(mu2) > 1e-2)
    assert got.shape == (4, 3, 40) and got.tobytes() == want.tobytes()
    one = C[:, :, 0, 0]
    got, want = sc._magnus_steps(one, 0.7), _magnus_steps_by_stacks(traceless_matrix(one), 0.7)
    assert got.shape == (4,) and got.tobytes() == want.tobytes()


def test_lone_magnus_step_matches_its_round_bitwise():
    # a lone step's commutators must run on arrays as a round's do: on numpy
    # complex scalars, whose products are not fused, they read a few last bits off
    rng = np.random.default_rng(13)
    C = _random_complex(rng, 3, 3, 3, 50)
    h = rng.uniform(0.1, 1.5, size=50) * sc._SUBSTEPS
    batch = sc._magnus_steps(C, h)
    for j, i in np.ndindex(h.shape):
        assert sc._magnus_steps(C[:, :, j, i], h[j, i]).tobytes() == batch[:, j, i].tobytes()


def test_fundamental_matches_dop853_reference():
    # reference: DOP853 at tolerance 1e-12 on the plain linear system
    f = sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    sol = sc.integrate_fundamental(f, -40.0, 40.0, tol=1e-9)
    def rhs(t, y):
        return (traceless_matrix(f.ode_components(t)) @ y.reshape(2, 2)).ravel()
    ref = solve_ivp(rhs, (-40.0, 40.0), np.eye(2, dtype=complex).ravel(), method="DOP853",
                    t_eval=sol.ts, rtol=1e-12, atol=1e-12)
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
        M = traceless_matrix(f.ode_components(400.0))
        s = sc.DecayingData.of(f, 400.0).s0
    p, r = np.array([3.0, 0.0, 400.0]), math.hypot(3.0, 400.0)
    w = -0.5 * ((2.0 - 1.0 / r) / r * p + 1j / (r * r) * np.cross(f.u, p))
    want = sum(w[j] * PAULI[j] for j in range(3))
    assert np.linalg.norm(M - want) <= 1e-15 * np.linalg.norm(want)
    assert np.all(np.isfinite(s))


def test_ps_matrix_matches_pauli_sum():
    for f, t in ps_samples():
        M, ref = traceless_matrix(f.ode_components(t)), ps_matrix_reference(f, t)
        assert M.shape == (2, 2) and M.dtype == complex
        assert np.linalg.norm(M - ref) <= 1e-14 * np.linalg.norm(ref)


def test_ps_matrix_traceless_with_higgs_hermitian_part():
    # the connection enters M anti-Hermitian, so the Hermitian part is
    # -phi . sigma / 2, with eigenvalues +-|phi|/2, |phi| = 2 coth 2r - 1/r
    for f, t in ps_samples():
        M = traceless_matrix(f.ode_components(t))
        top = np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1]
        r = mpmath.mpf(float(np.linalg.norm(f.x0 - f.center + t * f.u)))
        with mpmath.workdps(40):
            want = float(mpmath.coth(2 * r) - 1 / (2 * r)) if r else 0.0
        assert abs(top - want) <= 1e-14 * max(want, 1e-300)


def test_ps_field_is_immutable():
    f = sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 2.0])
    before = f.ode_components(0.7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.x0 = np.array([5.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        f.x0[0] = 5.0
    with pytest.raises(ValueError):
        f.u[2] = 1.0
    assert np.array_equal(f.ode_components(0.7), before)
    assert np.array_equal(f.u, [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# decaying directions
# ---------------------------------------------------------------------------

def test_trivial_decaying_directions_exact():
    f = sc.TrivialU1Field(mass=0.9)
    data = sc.DecayingData.of(f, 20.0)
    s_plus, s_minus = data.s0, data.s0_prime
    assert abs(abs(s_plus[1]) - 1.0) < 1e-10
    assert abs(abs(s_minus[0]) - 1.0) < 1e-10


def test_decaying_direction_scheme_independent():
    f = sc.PSField(x0=[0.8, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    a = sc.DecayingData.of(f, 30.0).s0
    # reference: RK45 on the plain linear system from the same seed
    lam, vecs = np.linalg.eig(traceless_matrix(f.ode_components(30.0)))
    seed = vecs[:, np.argmin(lam.real)]
    ref = solve_ivp(lambda t, s: traceless_matrix(f.ode_components(t)) @ s, (30.0, 0.0),
                    seed.astype(complex), method="RK45", rtol=1e-11, atol=1e-11)
    b = ref.y[:, -1] / np.linalg.norm(ref.y[:, -1])
    align = abs(np.vdot(a, b))
    assert 1.0 - align < 1e-8


def test_decaying_direction_horizon_stable():
    f = sc.PSField(x0=[1.2, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    a = sc.DecayingData.of(f, 25.0).s0
    b = sc.DecayingData.of(f, 50.0).s0
    assert 1.0 - abs(np.vdot(a, b)) < 1e-8


def test_decaying_direction_far_horizon_in_blocks():
    # 200 steps from the horizon at 400, several blocks, against one at 40;
    # the two seeds' phases differ, so the directions are compared after
    # aligning them
    f = sc.PSField(x0=[1.0, 0.5, 0.0], u=[0.3, -0.6, 0.0])
    near, far = sc.DecayingData.of(f, 40.0), sc.DecayingData.of(f, 400.0)
    for a, b in ((near.s0, far.s0), (near.s0_prime, far.s0_prime)):
        phase = np.vdot(b, a) / abs(np.vdot(b, a))
        assert np.abs(a - phase * b).max() <= 1e-14


class CountedPS(sc.PSField):
    def ode_components(self, t):
        self.calls.append(np.size(t))
        return super().ode_components(t)


@pytest.mark.parametrize("b", (0.0, 0.5, 3.0))
def test_decaying_data_matches_one_end_at_a_time(b):
    # both ends share the refinement rounds: the same nodes in fewer
    # sampler calls, and the same directions, each annihilated by the unit
    # end matrix of its end propagated alone
    f = CountedPS(x0=[b, 0.0, 0.0], u=[0.0, 0.6, 0.8])
    object.__setattr__(f, "calls", [])
    data = sc.DecayingData.of(f)
    joint, f.calls[:] = list(f.calls), []
    for end, s in ((+1, data.s0), (-1, data.s0_prime)):
        mats, _ = sc._propagate(f, [np.array([0.0, end * 40.0])], 1e-10, damped=True)[0]
        assert np.abs(mats[-1] @ s).max() <= 1e-15
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


def _counted_ps(b: float = 1.0) -> CountedPS:
    f = CountedPS(x0=[b, 0.0, 0.0], u=[0.0, 0.6, 0.8])
    object.__setattr__(f, "calls", [])
    return f


def test_readings_of_one_line_share_one_propagation():
    # DecayingData.of keeps its last result: a repeat call, with the defaults
    # spelled out or through either reading, samples nothing and returns it
    f = _counted_ps()
    data = sc.DecayingData.of(f)
    n = len(f.calls)
    assert n > 0
    assert sc.DecayingData.of(f) is data
    assert sc.DecayingData.of(f, 40.0, 1e-10) is data
    assert sc.spectral_indicator(f) == data.indicator()
    assert sc.m_gamma_norm(f) == data.reflection_norm()
    assert len(f.calls) == n


@pytest.mark.parametrize("key", ("horizon", "tol", "sampler"))
def test_decaying_data_recomputes_for_another_key(key):
    # an equal line in another object is another key: samplers are found by
    # identity, and recomputing it reproduces every bit
    f = _counted_ps()
    data = sc.DecayingData.of(f)
    g = _counted_ps() if key == "sampler" else f
    args = {"horizon": (30.0, 1e-10), "tol": (40.0, 1e-11), "sampler": (40.0, 1e-10)}[key]
    n = len(g.calls)
    other = sc.DecayingData.of(g, *args)
    assert other is not data and len(g.calls) > n
    if key == "sampler":
        assert other.s0.tobytes() == data.s0.tobytes()
        assert other.s0_prime.tobytes() == data.s0_prime.tobytes()


def test_decaying_data_slot_holds_one_entry():
    a, b = _counted_ps(1.0), _counted_ps(2.0)
    first = sc.DecayingData.of(a)
    n = len(a.calls)
    sc.DecayingData.of(b)
    again = sc.DecayingData.of(a)
    assert again is not first and len(a.calls) == 2 * n


@dataclasses.dataclass
class UnhashableTrivial(sc.FieldSampler):
    """TrivialU1Field as a plain dataclass, whose eq without frozen sets __hash__ to None."""

    mass: float = 1.0
    calls: int = 0

    def ode_components(self, t):
        self.calls += 1
        return sc.TrivialU1Field(self.mass).ode_components(t)


def test_decaying_data_keeps_an_unhashable_sampler():
    f = UnhashableTrivial()
    assert UnhashableTrivial.__hash__ is None
    data = sc.DecayingData.of(f, 15.0)
    n = f.calls
    assert sc.DecayingData.of(f, 15.0) is data and f.calls == n


def test_refused_decaying_data_is_not_kept():
    # refusals raise every time and leave the kept entry in place
    f = _counted_ps()
    data = sc.DecayingData.of(f)
    shear = ShearField(1.0)
    for _ in range(2):
        with pytest.raises(sc.IllPosedError):
            sc.DecayingData.of(shear, 10.0)
        with pytest.raises(ValueError):
            sc.DecayingData.of(f, math.nan)
    n = len(f.calls)
    assert sc.DecayingData.of(f) is data and len(f.calls) == n


def test_kept_decaying_data_is_bit_for_bit_a_fresh_run():
    f = sc.PSField(x0=[2.0, 0.0, 0.0], u=[0.0, 0.6, 0.8])
    sc.DecayingData.of(f)
    data = sc.DecayingData.of(f)
    sc.DecayingData.of(_TRIVIAL, 15.0)   # replaces the kept entry
    fresh = sc.DecayingData.of(f)
    assert fresh is not data
    assert data.s0.tobytes() == fresh.s0.tobytes()
    assert data.s0_prime.tobytes() == fresh.s0_prime.tobytes()
    s0, s0p = data.s0, data.s0_prime
    assert data.pairing == fresh.pairing == complex(s0[0] * s0p[1] - s0[1] * s0p[0])


def test_lines_and_decaying_data_compare_by_identity():
    # the dataclass __eq__ compared the array fields as one tuple, so == between
    # two equal lines or their decaying data raised ValueError (an array's truth
    # value is ambiguous); they compare, and hash, by identity, as the kept entry
    # is found
    f, g = (sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0]) for _ in range(2))
    a, b = sc.DecayingData.of(f), sc.DecayingData.of(g)
    assert a.s0.tobytes() == b.s0.tobytes()
    for x, y in ((f, g), (a, b)):
        assert x == x and x != y
        assert len({x, y, x}) == 2


def test_decaying_data_directions_are_read_only():
    # a kept result is shared by every caller, so none may write into it; a
    # direct construction copies, leaving the caller's arrays writable
    U = np.eye(2, dtype=complex)
    direct = sc.DecayingData(U[:, 0], U[:, 1], 1.0)
    for data in (sc.DecayingData.of(sc.TrivialU1Field(), 15.0), direct):
        for v in (data.s0, data.s0_prime):
            with pytest.raises(ValueError):
                v[0] = 0.0
    U[0, 0] = 2.0
    assert direct.s0[0] == 1.0


def test_no_gap_is_ill_posed():
    f = sc.TrivialU1Field(mass=0.0)
    with pytest.raises(sc.IllPosedError):
        sc.DecayingData.of(f, 10.0)


class ShearField(sc.FieldSampler):
    """M = [[0, p], [0, 0]]: no gap, H(t) = [[1, p t], [0, 1]]."""

    def __init__(self, p):
        self.p = p

    def ode_components(self, t):
        C = np.zeros((3,) + np.shape(t), dtype=complex)
        C[1] = self.p
        return C


def test_gapless_shear_passes_once_its_growth_reaches_tol():
    # the rule reads only sigma_2/sigma_1 = exp(-2 logscale(T)), about (p T)^-2
    # here: it refuses a slow shear, and passes a fast one, whose least
    # amplified directions at both ends are the bounded (1, -+1/(p T))
    with pytest.raises(sc.IllPosedError):
        sc.DecayingData.of(ShearField(1.0), 10.0)
    data = sc.DecayingData.of(ShearField(1e4), 10.0)
    assert np.abs(data.s0 - np.array([1.0, -1e-5])).max() < 1e-9
    assert np.abs(data.s0_prime + np.array([1.0, 1e-5])).max() < 1e-9
    assert data.indicator() == pytest.approx(2e-5, rel=1e-6)


@pytest.mark.parametrize("tol", (1e-6, 1e-8, 1e-10, 1e-12))
def test_short_horizon_refused_or_within_tol(tol):
    # a horizon T leaves the least amplified direction of Phi(+-T, 0) about
    # exp(-2 logscale(T)) from the decaying one: each run either refuses its
    # horizon or is within tol of a far, tight reference, up to phase, and
    # both happen at every tol
    outcomes = []
    for b in (0.0, 1.0, 5.0):
        f = sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.6, 0.8])
        ref = sc.DecayingData.of(f, 40.0, 1e-13)
        for T in range(3, 31, 3):
            try:
                data = sc.DecayingData.of(f, float(T), tol)
            except sc.IllPosedError:
                outcomes.append(None)
                continue
            for got, want in ((data.s0, ref.s0), (data.s0_prime, ref.s0_prime)):
                phase = np.vdot(want, got) / abs(np.vdot(want, got))
                outcomes.append(np.abs(got - phase * want).max())
    assert None in outcomes
    accepted = [e for e in outcomes if e is not None]
    assert accepted and max(accepted) <= tol


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
        norms = [np.linalg.norm(splitting_reflection(d), 2) for d in (got, ref)]
        assert abs(norms[0] / norms[1] - 1.0) <= 1e-12
        assert abs(got.reflection_norm() / norms[0] - 1.0) <= 1e-13


def test_propagator_outputs_unchanged():
    # the 9 ps_scan lines at one seeded rotation, their decaying data and
    # fundamental matrices over [-40, 40], and the fundamental matrices over
    # [-0.1, 0.1] of six abelian lines grazing a center, hashed as the
    # rescaled-product propagator wrote them: a change meant to keep the
    # arithmetic must keep every bit
    R = _rotation(np.random.default_rng([0, 3]))
    digest = hashlib.sha256()
    for b in PS_SCAN_IMPACTS:
        f = sc.PSField(x0=R @ [b, 0.0, 0.0], u=R @ [0.0, 0.0, 1.0])
        data = sc.DecayingData.of(f, 40.0, tol=1e-10)
        sol = sc.integrate_fundamental(f, -40.0, 40.0, tol=1e-9)
        for v in (data.s0, data.s0_prime, data.pairing, sol.ts, sol.mats, sol.logscales):
            digest.update(np.ascontiguousarray(v).tobytes())
    for z in np.geomspace(1e-5, 1e-2, 6):
        sol = sc.integrate_fundamental(sc.AbelianField.from_impact(_GROWTH_V, 0, z), -0.1, 0.1)
        for v in (sol.ts, sol.mats, sol.logscales):
            digest.update(np.ascontiguousarray(v).tobytes())
    assert digest.hexdigest() == (
        "f7227222f7c09c965b5a5b21ae026a7e17b6d9c220b11fe74ab6eeaa9a414316")


def test_ps_scan_pass_samples_at_most_33000_nodes():
    # one pass of the benchmark's ps_scan: per line the indicator, the
    # splitting norm off the spectral line, both from one kept decaying
    # data, and the fundamental matrix over [-40, 40] at tol 1e-9: 32,076
    # nodes in 38 ode_components calls.  Uniform step control sampled 80,782 nodes
    # here, 58,138 of them in decaying data; seeding each decaying run at the
    # horizon took 72 sampler calls a pass, and a decaying data per reading
    # 40,896 nodes in 55 calls
    total, calls = 0, 0
    for b in PS_SCAN_IMPACTS:
        f = CountedPS(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0])
        object.__setattr__(f, "calls", [])
        if sc.spectral_indicator(f, 40.0) > 1e-8:
            sc.m_gamma_norm(f, 40.0)
        sc.integrate_fundamental(f, -40.0, 40.0, tol=1e-9)
        total, calls = total + sum(f.calls), calls + len(f.calls)
    assert total <= 33_000
    assert calls <= 38


def test_trivial_indicator_and_norm():
    f = sc.TrivialU1Field(mass=1.0)
    assert sc.spectral_indicator(f, 15.0) == pytest.approx(1.0, abs=1e-10)
    assert sc.m_gamma_norm(f, 15.0) == pytest.approx(1.0, abs=1e-10)


class ConjugatedTrivialField(sc.FieldSampler):
    """TrivialU1Field in the gauge U diag(m, -m) U^dagger: its decaying
    lines are orthogonal and complex."""

    def __init__(self, U):
        self.U = U

    def ode_components(self, t):
        M = self.U @ traceless_matrix(sc.TrivialU1Field().ode_components(t)) @ self.U.conj().T
        return np.array([0.5 * (M[..., 0, 0] - M[..., 1, 1]), M[..., 0, 1], M[..., 1, 0]])


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
            np.linalg.norm(splitting_reflection(data), 2), rel=1e-13)
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
    M = splitting_reflection(data)
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

_THREE_V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1), PointUHS(0.3, 0.2, 1.4),
                                      PointUHS(-0.5, 0.4, 0.8)), (1, 2, 3))


def _mp_log_growth(f: sc.AbelianField, t0: float, t1: float):
    """int V dt from t0 < t1 at 30 digits along the float line f samples, in
    panels that widen 4x from each center's closest approach."""
    terms = [tuple(map(mpmath.mpf, v)) for v in zip(f._l, f._a, f._b, f._s2)]

    def V(t):
        x2s = (s2 + (b * mpmath.cosh(t) + a * mpmath.sinh(t)) ** 2 for _, a, b, s2 in terms)
        return f.V.lam + sum(l / (2 * (x2 + mpmath.sqrt(x2 * (1 + x2))))
                             for (l, *_), x2 in zip(terms, x2s))
    edges = {mpmath.mpf(t0), mpmath.mpf(t1)}
    for _, a, b, s2 in terms:
        closest = mpmath.atanh(-b / a)   # where w = b cosh t + a sinh t is 0
        edges.update(p for k in range(-1, 30) for p in (closest - mpmath.sqrt(s2) * 4 ** k,
                                                        closest + mpmath.sqrt(s2) * 4 ** k)
                     if t0 < p < t1)
    return mpmath.quad(V, sorted(edges), method="gauss-legendre")


@pytest.mark.parametrize("V", (_GROWTH_V, _THREE_V), ids=("one-center", "three-centers"))
@pytest.mark.parametrize("impact", (1e-5, 1e-2))
def test_log_growth_matches_mpmath(V, impact):
    # windows across the closest approach, where the two asinh add, and on
    # one side of it, where they are subtracted inside one.  On the short
    # window w1 - w0 taken as a difference read 4e-12 relative, and
    # asinh(x1 sqrt(1 + x0^2) - x0 sqrt(1 + x1^2)) 5e-10 on the long ones
    f = sc.AbelianField.from_impact(V, 0, impact)
    with mpmath.workdps(30):
        for t0, t1 in ((-0.1, 0.1), (-1.0, 2.0), (0.05, 2.0), (-2.0, -0.05), (1.0, 1.0001)):
            want = _mp_log_growth(f, t0, t1)
            assert abs(f.log_growth(t0, t1) - want) <= 1e-14 * want
            assert f.log_growth(t1, t0) == -f.log_growth(t0, t1)


def test_log_growth_through_a_center_raises():
    P, E = hyp.embed(_GROWTH_V.centers[0]), hyp.orthonormal_frame_at(_GROWTH_V.centers[0])
    with pytest.raises(sc.PoleOnGeodesicError):
        sc.AbelianField(_GROWTH_V, x0=P, u=E[1]).log_growth(-1.0, 1.0)


def test_growth_fit_makes_no_propagation(monkeypatch, tmp_path):
    # log ||H|| is in closed form, so neither the library fit, its check nor
    # the CLI experiment samples M(t)
    from monogeom.cli import main
    monkeypatch.setattr(sc.AbelianField, "ode_components", _unsampled)
    fit = sc.abelian_growth_exponent(_THREE_V, 0, delta=0.1, z_samples=np.geomspace(1e-5, 1e-2, 6))
    assert abs(fit.slope - 1.0) < 0.05
    assert measure("scattering.growth-slope", 0) < 0.05
    assert main(["scatter", "--experiment", "abelian_growth", "--out",
                 str(tmp_path / "growth.csv")]) == 0


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
    monkeypatch.setattr(sc.AbelianField, "from_impact", unused)
    monkeypatch.setattr(sc.AbelianField, "log_growth", unused)
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (1,))
    with pytest.raises(ValueError, match=match):
        sc.abelian_growth_exponent(V, 0, delta=0.1, z_samples=z_samples)


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
