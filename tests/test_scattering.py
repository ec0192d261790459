"""Scattering integrators, decaying directions, growth experiments."""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from monogeom import hyperbolic as hyp
from monogeom import scattering as sc
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
@pytest.mark.parametrize("impact, bound", ((1e-2, 1e-7), (1e-3, 1e-7), (1e-5, 1e-6)))
def test_abelian_lognorm_exact(l, impact, bound):
    # oracle: in the eigen gauge log ||H|| = int V dt over [-delta, delta],
    # in closed form for one center of charge l at impact b.  At b = 1e-5
    # cosh of the closest distance, 1 + 5e-11, holds c - 1 to ~6 digits
    # only; the worst error measured there is 5.3e-7
    lam, delta = 0.4, 0.1
    V = MultiCenterPotential(lam, (PointUHS(0, 0, 1),), (l,))
    want = 2 * lam * delta + l * (math.asinh(math.sqrt(1 + impact ** 2)
                                             * math.sinh(delta) / impact) - delta)
    sol = sc.integrate_fundamental(sc.AbelianField.from_impact(V, 0, impact),
                                   -delta, delta)
    assert abs(sol.log_norm_final() - want) < bound


def test_det_balance_band():
    V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (2,))
    field = sc.AbelianField.from_impact(V, 0, impact=1e-4)
    sol = sc.integrate_fundamental(field, -0.1, 0.1)
    assert sol.det_balance_defect() < math.log(1e3)
    assert sol.log_norm_final() > 15.0  # the growth this balances against


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


def test_no_gap_is_ill_posed():
    f = sc.TrivialU1Field(mass=0.0)
    with pytest.raises(sc.IllPosedError):
        sc.decaying_solution(f, +1, 10.0)


# ---------------------------------------------------------------------------
# spectral indicator and the splitting norm
# ---------------------------------------------------------------------------

def test_trivial_indicator_and_norm():
    f = sc.TrivialU1Field(mass=1.0)
    assert sc.spectral_indicator(f, 15.0) == pytest.approx(1.0, abs=1e-10)
    assert sc.m_gamma_norm(f, 15.0) == pytest.approx(1.0, abs=1e-10)


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
    for l, z in ((1.0, 1e-3), (2.0, 1e-4), (3.0, 3e-2)):
        got, want = sc.sinh_model_integral(l, 0.1, z)
        assert abs(got - want) < 1e-10


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
