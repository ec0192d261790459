"""Half-space model primitives against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from monogeom.hyperbolic import (ORIGIN, MultiCenterPotential, OrientedGeodesic,
                                 PointUHS, busemann, dist, geodesic_point, green,
                                 green_from_distance, horospherical_height,
                                 is_geodesically_trapped, laplacian, point_at,
                                 rotation_to_infinity, apply_lorentz,
                                 tangent_toward_boundary)
from monogeom.projective import INFINITY, ExtendedComplex


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def shooting_distance_oracle(target_x: float, target_z: float) -> float:
    """Distance from (0,0,1) to (x,0,z) by shooting the geodesic ODE.

    Integrates the unit-speed geodesic equations of the half-plane
    metric and bisects the launch angle until the trajectory passes
    through the target; the hit time is the distance.  Entirely
    independent of any closed-form distance formula.
    """

    def rhs(t, y):
        x, z, vx, vz = y
        return [vx, vz, 2.0 * vx * vz / z, (vz * vz - vx * vx) / z]

    def crossing(angle):
        """(arrival time, z) where the path launched at `angle` from the
        vertical first crosses x = target_x."""
        def hit(t, y):
            return y[0] - target_x
        hit.terminal = True
        hit.direction = 1.0
        y0 = [0.0, 1.0, math.sin(angle), math.cos(angle)]
        sol = solve_ivp(rhs, (0.0, 6.0), y0, rtol=1e-12, atol=1e-12, events=hit)
        if len(sol.t_events[0]) == 0:
            return None, None
        return float(sol.t_events[0][0]), float(sol.y_events[0][0][1])

    def miss(angle):
        _, z = crossing(angle)
        return (z if z is not None else 10.0) - target_z

    angle = brentq(miss, 0.2, 1.5, xtol=1e-13)
    t, z = crossing(angle)
    assert abs(z - target_z) < 1e-9
    return t


def busemann_limit_oracle(u, base, x, horizon=30.0):
    """lim_{t->inf} (t - dist(x, gamma(t))) along the ray from base to u."""
    tdir = tangent_toward_boundary(base, u)
    return horizon - dist(x, point_at(base, tdir, horizon))


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def test_dist_coincident():
    assert dist(ORIGIN, ORIGIN) == 0.0


def test_dist_axis_value():
    assert dist(PointUHS(0, 0, 1), PointUHS(0, 0, math.e)) == pytest.approx(1.0, abs=1e-14)


def test_dist_matches_shooting_oracle():
    want = shooting_distance_oracle(1.0, 1.0)
    got = dist(PointUHS(1, 0, 1), ORIGIN)
    assert got == pytest.approx(want, abs=1e-6)
    assert got == pytest.approx(math.acosh(1.5), abs=1e-12)


def mp_dist(a, b):
    """Distance of two float points, evaluated in 50 digits from the
    arccosh form."""
    with mpmath.workdps(50):
        d2 = sum((mpmath.mpf(x) - mpmath.mpf(y)) ** 2 for x, y in zip(a, b))
        return mpmath.acosh(1 + d2 / (2 * mpmath.mpf(a[2]) * mpmath.mpf(b[2])))


def separated_pairs(seps, seed=21):
    rng = np.random.default_rng(seed)
    p = np.array([0.3, -0.2, 0.7]) + rng.uniform(-0.5, 0.5, (len(seps), 3))
    step = rng.normal(size=(len(seps), 3))
    step *= (np.asarray(seps) / np.linalg.norm(step, axis=1))[:, None]
    return p, p + step


def test_dist_accurate_near_coincidence():
    # arccosh(1 + d^2 / 2zz') read exactly 0 at separation 1e-8
    seps = [1e-2, 1e-4, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12]
    ps, qs = separated_pairs(seps)
    got = dist(ps, qs)
    for p, q, g in zip(ps, qs, got):
        want = mp_dist(p, q)
        assert abs(g / want - 1) < 1e-14
        assert dist(PointUHS.from_array(p), PointUHS.from_array(q)) == g


def test_green_next_to_center():
    p, q = separated_pairs([1e-8])
    c = PointUHS.from_array(p[0])
    with mpmath.workdps(50):
        want = 1 / mpmath.expm1(2 * mp_dist(p[0], q[0]))
    assert abs(green(c, q[0]) / want - 1) < 1e-14


posreal = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
coord = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
points = st.builds(PointUHS, coord, coord, posreal)


@settings(max_examples=80, deadline=None)
@given(points, points, points)
def test_dist_symmetry_and_triangle(p, q, r):
    assert dist(p, q) == pytest.approx(dist(q, p), abs=1e-12)
    assert dist(p, q) >= 0
    assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-12


def test_pythagoras_identity_bulk():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        g = OrientedGeodesic(
            start=ExtendedComplex(complex(rng.normal(), rng.normal())),
            end=ExtendedComplex(complex(rng.normal() + 3.0, rng.normal())))
        t = rng.uniform(-3, 3)
        lhs = math.cosh(dist(ORIGIN, geodesic_point(g, ORIGIN, t)))
        rhs = math.cosh(dist(ORIGIN, geodesic_point(g, ORIGIN, 0.0))) * math.cosh(t)
        worst = max(worst, abs(lhs - rhs) / rhs)
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

def test_geodesic_point_axis():
    g = OrientedGeodesic(start=ExtendedComplex(0j), end=INFINITY)
    for t in (-1.0, 0.0, 0.5, 2.0):
        p = geodesic_point(g, ORIGIN, t)
        assert (p.x, p.y) == (0.0, 0.0)
        assert p.z == pytest.approx(math.exp(t), rel=1e-14)


def test_geodesic_point_is_unit_speed():
    rng = np.random.default_rng(5)
    g = OrientedGeodesic(start=ExtendedComplex(complex(-1.0, 0.3)),
                         end=ExtendedComplex(complex(2.0, -0.4)))
    for _ in range(5):
        t = rng.uniform(-2, 2)
        dt = 1e-3
        a = geodesic_point(g, ORIGIN, t)
        b = geodesic_point(g, ORIGIN, t + dt)
        assert dist(a, b) == pytest.approx(dt, rel=1e-9)


# ---------------------------------------------------------------------------
# Busemann functions
# ---------------------------------------------------------------------------

def test_busemann_infinity_is_log_z():
    assert busemann(INFINITY, ORIGIN, PointUHS(0, 0, math.exp(2))) == pytest.approx(2.0, abs=1e-12)


def test_busemann_base_normalization():
    for u in (INFINITY, ExtendedComplex(0j), ExtendedComplex(1.3 - 0.4j)):
        assert busemann(u, ORIGIN, ORIGIN) == pytest.approx(0.0, abs=1e-14)


def test_busemann_origin_chart_value():
    # oracle first: the numeric limit fixes the expected value
    u = ExtendedComplex(0j)
    x = PointUHS(0, 0, math.e)
    want = busemann_limit_oracle(u, ORIGIN, x, horizon=30.0)
    assert want == pytest.approx(-1.0, abs=1e-6)
    assert busemann(u, ORIGIN, x) == pytest.approx(-1.0, abs=1e-12)


def test_busemann_limit_converged_at_30():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = ExtendedComplex(complex(rng.normal(), rng.normal()))
        x = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.5))
        b30 = busemann_limit_oracle(u, ORIGIN, x, horizon=30.0)
        b60 = busemann_limit_oracle(u, ORIGIN, x, horizon=60.0)
        assert abs(b30 - b60) < 1e-6
        assert busemann(u, ORIGIN, x) == pytest.approx(b30, abs=1e-6)


def test_horospherical_height_is_z_after_rotation():
    rng = np.random.default_rng(13)
    for _ in range(8):
        u = ExtendedComplex(complex(rng.normal(), rng.normal()))
        x = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.5))
        L = rotation_to_infinity(u)
        assert horospherical_height(u, x.as_array()) == pytest.approx(
            apply_lorentz(L, x).z, rel=1e-12)


# ---------------------------------------------------------------------------
# Green's function and potentials
# ---------------------------------------------------------------------------

def test_green_value_at_log2():
    assert green_from_distance(math.log(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_green_is_harmonic():
    p = PointUHS(0.2, -0.4, 1.1)
    for q in (np.array([0.9, 0.3, 0.8]), np.array([-0.6, 0.1, 1.9])):
        resid = laplacian(lambda a: green(p, a), q)
        assert abs(resid) < 1e-6


def test_green_pole_and_decay():
    p = PointUHS(0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        green(p, p)
    rhos = np.array([1.0, 2.0, 4.0])
    vals = green_from_distance(rhos)
    assert np.all(vals > 0)
    assert vals[2] * math.exp(2 * rhos[2]) == pytest.approx(1.0, abs=1e-3)


def test_green_short_distance_limit():
    rhos = np.array([1e-3, 1e-4, 1e-5])
    assert np.allclose(2 * rhos * green_from_distance(rhos), 1.0, atol=2e-3)


def test_potential_values():
    p = PointUHS(0, 0, 1)
    V = MultiCenterPotential(0.5, (p,), (1,))
    x = point_at(p, tangent(p), math.log(2.0))
    assert V.value(x) == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-12)
    V1 = MultiCenterPotential(1.0, (), ())
    assert V1.value(PointUHS(4.0, -2.0, 0.3)) == 1.0
    with pytest.raises(ZeroDivisionError):
        V.value(p)


def tangent(p):
    from monogeom.hyperbolic import orthonormal_frame_at
    return orthonormal_frame_at(p)[0]


def test_potential_abelian_charge_limit():
    p1 = PointUHS(0, 0, 1)
    p2 = PointUHS(1.5, 0.5, 0.8)
    V = MultiCenterPotential(0.7, (p1, p2), (3, 2))
    rhos = np.array([1e-4, 5e-5])
    for rho in rhos:
        x = point_at(p1, tangent(p1), float(rho))
        assert 2 * rho * V.value(x) == pytest.approx(3.0, abs=1e-3)


def test_trapped_examples():
    centers = (PointUHS(0, 0, 0.5), PointUHS(0, 0, 2.0))
    assert is_geodesically_trapped(PointUHS(0, 0, 1.0), centers)
    assert not is_geodesically_trapped(PointUHS(5, 0, 1.0), centers)
    assert not is_geodesically_trapped(PointUHS(0, 0, 1.0), centers[:1])


def test_multicenter_validation():
    with pytest.raises(ValueError):
        MultiCenterPotential(1.0, (ORIGIN, ORIGIN), (1, 1))
    with pytest.raises(ValueError):
        MultiCenterPotential(1.0, (ORIGIN,), (0,))
    with pytest.raises(ValueError):
        MultiCenterPotential(-0.1, (), ())
    with pytest.raises(ValueError):
        PointUHS(0, 0, -1.0)
