"""Half-space model primitives against independent oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from monogeom.checks import measure
from monogeom.hyperbolic import (ORIGIN, MultiCenterPotential, OrientedGeodesic,
                                 PointUHS, busemann, dist, embed,
                                 geodesic_point, green, horospherical_height,
                                 is_geodesically_trapped, mdot, point_at,
                                 rotation_to_infinity, apply_lorentz,
                                 tangent_toward_boundary)
from monogeom.projective import INFINITY, ExtendedComplex
from oracles import dist_to_geodesic


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


def test_dist_point_path_matches_array_path_bitwise():
    # two PointUHS take the scalar path, with numpy's arcsinh (math.asinh
    # differs from it in the last bit for about one argument in six)
    rng = np.random.default_rng(31)
    n = 12000
    p = np.column_stack([rng.normal(0, 2, n), rng.normal(0, 2, n), rng.uniform(0.05, 5.0, n)])
    step = rng.normal(size=(n, 3))
    step *= (10.0 ** rng.uniform(-12, 1, n) / np.linalg.norm(step, axis=1))[:, None]
    q = p + step
    q[:, 2] = np.abs(q[:, 2]) + 1e-3
    ints = rng.integers(-4, 5, size=(2, 2000, 3))
    ints[..., 2] = np.abs(ints[..., 2]) + 1
    p, q = np.concatenate([p, ints[0]]), np.concatenate([q, ints[1]])
    want = dist(p, q)
    points = [(PointUHS(*a), PointUHS(*b)) for a, b in zip(p.tolist(), q.tolist())]
    points += [(PointUHS(*a), PointUHS(*b)) for a, b in zip(ints[0].tolist(), ints[1].tolist())]
    got = np.array([dist(a, b) for a, b in points])
    assert got.tobytes() == np.concatenate([want, want[n:]]).tobytes()


def test_green_next_to_center():
    p, q = separated_pairs([1e-8])
    c = PointUHS.from_array(p[0])
    with mpmath.workdps(50):
        want = 1 / mpmath.expm1(2 * mp_dist(p[0], q[0]))
    assert abs(green(c, q[0]) / want - 1) < 1e-14


def test_dist_to_geodesic_at_known_distance():
    # acosh(sqrt(c2)) read 4.4e-5 relative at distance 1e-6
    rng = np.random.default_rng(23)
    for start, end in ((0.3 + 0.1j, 2.2 - 0.4j), (-1.0 + 0j, 1.0 + 0j),
                       (0.5 - 0.8j, -0.2 + 1.3j)):
        g = OrientedGeodesic(ExtendedComplex(start), ExtendedComplex(end))
        for t in (-1.0, 0.0, 1.0):
            foot = geodesic_point(g, ORIGIN, t)
            # the unit tangent of g at foot points along the ray to its end
            P, T = embed(foot), tangent_toward_boundary(foot, g.end)
            n = rng.normal(size=4)
            n = n + mdot(n, P) * P - mdot(n, T) * T
            n = n / math.sqrt(mdot(n, n))
            for d in (1e-3, 1e-6):
                got = dist_to_geodesic(point_at(foot, n, d), g)
                assert abs(got / d - 1) <= 1e-9
            assert dist_to_geodesic(foot, g) < 1e-12


def test_gradient_accurate_near_center():
    # sinh rho from sqrt(cosh^2 rho - 1) read 1.6e-4 relative at 1e-6
    c = np.array([0.3, -0.2, 1.4])
    V = MultiCenterPotential(0.5, (PointUHS(*c),), (2,))

    def mp_potential(*y):   # 2 G_c(y) from 2 asinh(|y - c| / 2 sqrt(z z_c))
        d = mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(y, c)))
        return 2 / mpmath.expm1(4 * mpmath.asinh(d / (2 * mpmath.sqrt(y[2] * c[2]))))

    for sep in (1e-2, 1e-4, 1e-6, 1e-7, 1e-8):
        x = c + sep * np.array([0.48, -0.6, 0.64])
        with mpmath.workdps(50):
            xs = [mpmath.mpf(v) for v in x]
            want = np.array([float(mpmath.diff(
                lambda v: mp_potential(*xs[:i], v, *xs[i + 1:]), xs[i])) for i in range(3)])
        assert np.max(np.abs(V.gradient(x) - want)) <= 1e-13 * np.linalg.norm(want)
    with pytest.raises(ZeroDivisionError):
        V.gradient(c)


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
    assert measure("hyperbolic.pythagoras", 3, 1000) < 1e-10


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


def test_geodesic_point_far_from_its_base_point():
    # endpoints a and b that nearly meet give a geodesic far from O: cosh rho = 2 / their
    # chordal distance, here from about 4 to 1e6, at 40 digits.  <Ne, Ns> taken as -1 +
    # n_e . n_s cancelled there and read up to 5e-11 cosh rho relative; the bound is 1e-15
    rng = np.random.default_rng(35)
    with mpmath.workdps(40):
        for _ in range(300):
            a = complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-1.0, 1.0)
            chord = 10.0 ** rng.uniform(-5.7, -0.4)
            b = a + 0.5 * chord * (1.0 + abs(a) ** 2) * np.exp(2j * math.pi * rng.uniform())
            g = OrientedGeodesic(start=ExtendedComplex(a), end=ExtendedComplex(b))
            got = math.cosh(dist(ORIGIN, geodesic_point(g, ORIGIN, 0.0)))
            am, bm = mpmath.mpc(a), mpmath.mpc(b)
            want = float(mpmath.sqrt((1 + abs(am) ** 2) * (1 + abs(bm) ** 2)) / abs(am - bm))
            assert abs(got / want - 1.0) <= 1e-15 * want


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

def green_on_axis(rhos):
    """G_O at the points (0, 0, e^rho) of the axis, at distance rho from O."""
    rhos = np.asarray(rhos, dtype=float)
    return green(ORIGIN, np.stack([0 * rhos, 0 * rhos, np.exp(rhos)], axis=-1))


def test_green_value_at_log2():
    assert green_on_axis(math.log(2.0)) == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_green_is_harmonic():
    assert measure("hyperbolic.green-harmonic", 0) < 1e-6


def test_green_pole_and_decay():
    p = PointUHS(0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        green(p, p)
    rhos = np.array([1.0, 2.0, 4.0])
    vals = green_on_axis(rhos)
    assert np.all(vals > 0)
    assert vals[2] * math.exp(2 * rhos[2]) == pytest.approx(1.0, abs=1e-3)


def test_green_short_distance_limit():
    rhos = np.array([1e-3, 1e-4, 1e-5])
    assert np.allclose(2 * rhos * green_on_axis(rhos), 1.0, atol=2e-3)


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


@pytest.mark.parametrize("build", [
    lambda: PointUHS(0, 0, math.inf), lambda: PointUHS(math.nan, 0, 1),
    lambda: PointUHS(0, -math.inf, 1), lambda: PointUHS(0, 0, math.nan),
    lambda: MultiCenterPotential(math.nan, (ORIGIN,), (1,)),
    lambda: MultiCenterPotential(math.inf, (ORIGIN,), (1,)),
    lambda: MultiCenterPotential(1.0, (ORIGIN,), (1,), mass=math.nan),
    lambda: MultiCenterPotential(1.0, (ORIGIN,), (True,)),
    lambda: MultiCenterPotential(1.0, (ORIGIN,), (1.5,)),
    lambda: MultiCenterPotential(1.0, (ORIGIN,), (math.inf,)),
    lambda: MultiCenterPotential.for_su2_charge1([ORIGIN], [True], 0.5),
    lambda: MultiCenterPotential.for_su2_charge1([ORIGIN], [1.5], 0.5),
    lambda: MultiCenterPotential.for_su2_charge1([ORIGIN], [0], 0.5),
    lambda: MultiCenterPotential.for_su2_charge1([ORIGIN], [1], math.nan)],
    ids=["z-inf", "x-nan", "y-inf", "z-nan", "lam-nan", "lam-inf", "mass-nan", "charge-true",
         "charge-1.5", "charge-inf", "su2-true", "su2-1.5", "su2-0", "su2-mass-nan"])
def test_non_finite_or_non_integer_input_raises(build):
    # the doubling in for_su2_charge1 once turned True into the charge 2 and
    # 1.5 into 2 before any check saw them
    with pytest.raises(ValueError):
        build()


def test_integer_valued_charges_are_stored_as_ints():
    V = MultiCenterPotential.for_su2_charge1([ORIGIN], [np.int64(2)], 0.5)
    assert V.charges == (4,) and type(V.charges[0]) is int
    assert MultiCenterPotential(1.0, (ORIGIN,), (3.0,)).charges == (3,)


def trapped_by_pair_loop(x, centers, tol):
    """Reference: the triangle defect of every pair, one `dist` at a time."""
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            if dist(centers[i], x) + dist(x, centers[j]) - dist(centers[i], centers[j]) <= tol:
                return True
    return False


coordinate = st.floats(-2.0, 2.0, allow_nan=False)
height = st.floats(0.2, 3.0, allow_nan=False)
uhs_point = st.builds(PointUHS, coordinate, coordinate, height)


def on_segment(p, q, t):
    """The point a fraction t of the way along the geodesic from p to q."""
    d = float(dist(p, q))
    P, Q = embed(p), embed(q)
    return point_at(p, (Q - math.cosh(d) * P) / math.sinh(d), t * d)


@settings(max_examples=150, deadline=None)
@given(centers=st.lists(uhs_point, min_size=0, max_size=5), x=uhs_point,
       pick=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       t=st.floats(0.0, 1.0), where=st.sampled_from(["free", "on", "off"]),
       tol=st.sampled_from([1e-9, 1e-6, 1e-14, 0.0]))
def test_trapped_matches_pair_loop(centers, x, pick, t, where, tol):
    i, j = (k % max(len(centers), 1) for k in pick)
    if where != "free" and len(centers) >= 2 and i != j and dist(centers[i], centers[j]) > 1e-3:
        x = on_segment(centers[i], centers[j], t)
        if where == "off":
            x = PointUHS(x.x + 1e-7, x.y, x.z)
    assert is_geodesically_trapped(x, centers, tol) == trapped_by_pair_loop(x, centers, tol)


@settings(max_examples=150, deadline=None)
@given(centers=st.lists(uhs_point, min_size=0, max_size=5),
       copy=st.tuples(st.integers(0, 4), st.sampled_from([0.0, 1e-14, 1e-12, 1e-9])))
def test_distinct_centers_check_matches_pair_loop(centers, copy):
    k, shift = copy
    if centers:
        c = centers[k % len(centers)]
        centers = centers + [PointUHS(c.x + shift, c.y, c.z)]
    clash = any(dist(centers[i], centers[j]) < 1e-12
                for i in range(len(centers)) for j in range(i + 1, len(centers)))
    if clash:
        with pytest.raises(ValueError):
            MultiCenterPotential(1.0, tuple(centers), (1,) * len(centers))
    else:
        V = MultiCenterPotential(1.0, tuple(centers), (1,) * len(centers))
        assert V.centers == tuple(centers)
