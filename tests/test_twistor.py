"""Oriented-geodesic space: real structure, sections, closest point."""

import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d
from scipy.optimize import minimize_scalar

from monogeom import twistor as tw
from monogeom.checks import Setting, measure
from monogeom.hyperbolic import (ORIGIN, MultiCenterPotential, OrientedGeodesic,
                                 PointUHS, dist, geodesic_point)
from monogeom.numdiff import derivatives, pointwise
from monogeom.projective import _LEGENDRE_16, INFINITY, ExtendedComplex
from oracles import closest_point_chart, dist_to_geodesic, wirtinger


def dist_to_geodesic_oracle(x: PointUHS, g: OrientedGeodesic) -> float:
    """Distance by direct minimization along the parameterized geodesic;
    independent of the closed-form point-to-line formula.

    Minimizes cosh(dist) - 1 in its cancellation-free chart form, so
    distances far below the acosh rounding floor stay resolvable.
    """
    a = x.as_array()

    def cosh_minus_one(t):
        b = geodesic_point(g, ORIGIN, float(t)).as_array()
        return float(np.sum((a - b) ** 2) / (2.0 * a[2] * b[2]))

    res = minimize_scalar(cosh_minus_one, bounds=(-25.0, 25.0), method="bounded",
                          options={"xatol": 1e-12})
    m = max(float(res.fun), 0.0)
    return math.sqrt(2.0 * m) if m < 1e-8 else math.acosh(1.0 + m)


def random_twistor(rng) -> tw.TwistorPoint:
    return tw.TwistorPoint.of(complex(rng.normal(), rng.normal()),
                              complex(rng.normal(), rng.normal()))


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_involution_and_no_fixed_points():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_twistor(rng)
        q = tw.sigma(tw.sigma(p))
        assert abs(q.z.value - p.z.value) < 1e-14
        assert abs(q.w.value - p.w.value) < 1e-14
        s = tw.sigma(p)
        moved = (not s.z.isclose(p.z, tol=1e-12)) or (not s.w.isclose(p.w, tol=1e-12))
        assert moved


def test_sigma_diagonal_stays_diagonal():
    p = tw.TwistorPoint.of(0.7 - 0.3j, 0.7 - 0.3j)
    s = tw.sigma(p)
    assert abs(s.z.value - s.w.value) < 1e-15


def test_sigma_reverses_orientation_of_axis():
    # the axis from 0 to inf: z = inf and w = tau(0) = inf
    p = tw.TwistorPoint.of(INFINITY, INFINITY)
    assert tw.to_geodesic(p) == OrientedGeodesic(start=ExtendedComplex(0j), end=INFINITY)
    back = tw.to_geodesic(tw.sigma(p))
    assert back.start.at_infinity
    assert back.end.value == 0 and back.end.finite


def test_sigma_preserves_twistor_lines():
    rng = np.random.default_rng(1)
    x = PointUHS(0.4, -0.7, 1.3)
    sec = tw.twistor_line_section(x)
    for _ in range(20):
        w = complex(rng.normal(), rng.normal())
        # solve the (1,1) section for z given w: linear in z
        c = sec.coeffs
        denom = c[1, 1] * w + c[1, 0]
        z = -(c[0, 1] * w + c[0, 0]) / denom
        p = tw.TwistorPoint.of(z, w)
        s = tw.sigma(p)
        val = polyval2d(s.z.value, s.w.value, sec.coeffs)
        assert abs(val) < 1e-10


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def test_theta_vanishes_on_diagonal():
    a, b = tw.theta01(0.3 + 0.2j, 0.3 + 0.2j)
    assert a == 0 and b == 0


def test_theta_blows_up_near_antidiagonal():
    z = 0.5 + 0.5j
    w_star = -1.0 / np.conj(z)
    for eps in (1e-2, 1e-4):
        a, b = tw.theta01(z, w_star + eps)
        assert abs(a) + abs(b) > 1.0 / (10 * eps)


def test_theta_dbar_closed():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.normal(), rng.normal())
        w = complex(rng.normal(), rng.normal())
        if abs(1 + np.conj(z) * w) < 0.3 or abs(1 + z * np.conj(w)) < 0.3:
            continue
        dzb_of_w = wirtinger(lambda zz: tw.theta01(zz, w)[1], z, var="zbar")
        dwb_of_z = wirtinger(lambda ww: tw.theta01(z, ww)[0], w, var="zbar")
        worst = max(worst, abs(dzb_of_w - 0), abs(dwb_of_z - 0))
    assert worst < 1e-7


# ---------------------------------------------------------------------------
# twistor-line sections
# ---------------------------------------------------------------------------

def is_sigma_real(sec, tol: float = 1e-10) -> bool:
    """The sigma-reality defect within tol of the largest coefficient."""
    scale = max(float(np.max(np.abs(sec.coeffs))), 1e-300)
    return sec.sigma_reality_defect() <= tol * scale


def up_to_sign(sec, lead):
    """Coefficients of a sigma-real section, a real ray, with the sign
    that makes the coefficient at `lead` positive."""
    assert is_sigma_real(sec)
    return sec.coeffs * math.copysign(1.0, sec.coeffs[lead].real)


def test_section_at_origin_is_z_minus_w():
    coeffs = up_to_sign(tw.twistor_line_section(ORIGIN), (1, 0))
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0], want[0, 1] = 1.0, -1.0
    assert np.allclose(coeffs, want, atol=1e-15)


def test_section_axis_points():
    # above the base point the zero set is z = e^{2 rho} w, below it is
    # z = e^{-2 rho} w (the adapted-coordinate relation with the line
    # through the base point at (0, 0))
    rho = 0.8
    above = tw.twistor_line_section(PointUHS(0, 0, math.exp(rho)))
    c = above.coeffs
    assert abs(c[1, 1]) < 1e-14 and abs(c[0, 0]) < 1e-14
    assert (-c[1, 0] / c[0, 1]) == pytest.approx(math.exp(-2 * rho), rel=1e-12)
    below = tw.twistor_line_section(PointUHS(0, 0, math.exp(-rho)))
    c = below.coeffs
    assert (-c[1, 0] / c[0, 1]) == pytest.approx(math.exp(2 * rho), rel=1e-12)
    # zero sets: z - e^{+-2 rho} w
    w = 0.37 - 0.11j
    assert abs(polyval2d(math.exp(2 * rho) * w, w, above.coeffs)) < 1e-12
    assert abs(polyval2d(math.exp(-2 * rho) * w, w, below.coeffs)) < 1e-12


def test_section_zero_set_is_incidence():
    rng = np.random.default_rng(3)
    x = PointUHS(0.6, 0.3, 0.9)
    sec = tw.twistor_line_section(x)
    c = sec.coeffs
    for _ in range(12):
        w = complex(rng.normal(), rng.normal())
        z = -(c[0, 1] * w + c[0, 0]) / (c[1, 1] * w + c[1, 0])
        g = tw.to_geodesic(tw.TwistorPoint.of(z, w))
        assert dist_to_geodesic_oracle(x, g) < 1e-8


def test_section_sigma_real():
    rng = np.random.default_rng(4)
    for _ in range(6):
        x = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.3, 2.5))
        assert is_sigma_real(tw.twistor_line_section(x))


def test_section_nonincident_nonzero():
    x = PointUHS(0.6, 0.3, 0.9)
    sec = tw.twistor_line_section(x)
    # the geodesic from 5 to 6: z = 6 and w = tau(5) = -0.2
    p = tw.TwistorPoint.of(6.0, -0.2)
    g = tw.to_geodesic(p)
    assert g == OrientedGeodesic(start=ExtendedComplex(5.0 + 0j), end=ExtendedComplex(6.0 + 0j))
    assert abs(polyval2d(p.z.value, p.w.value, sec.coeffs)) > 1e-3
    assert dist_to_geodesic_oracle(x, g) > 0.5


def test_chart_swaps_are_involutive_and_consistent():
    rng = np.random.default_rng(5)
    sec = tw.twistor_line_section(PointUHS(0.2, 0.5, 1.7))
    # the chart z -> 1/z reverses the z-coefficients, an involution
    sw = tw.BiDegreeSection(sec.coeffs[::-1, :])
    z, w = 1.7 - 0.4j, 0.2 + 0.9j
    a, _ = sec.degrees
    assert polyval2d(1.0 / z, w, sw.coeffs) * z ** a == pytest.approx(
        polyval2d(z, w, sec.coeffs), rel=1e-12)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_ptilde_single_center():
    V = MultiCenterPotential(0.0, (ORIGIN,), (1,))
    coeffs = up_to_sign(tw.ptilde(V), (1, 0))
    want = np.zeros((2, 2), dtype=complex)
    want[1, 0], want[0, 1] = 1.0, -1.0
    assert np.allclose(coeffs, want)


def test_ptilde_squared_center():
    V = MultiCenterPotential(0.0, (ORIGIN,), (2,))
    coeffs = up_to_sign(tw.ptilde(V), (2, 0))
    # (z - w)^2 = z^2 - 2 z w + w^2
    want = np.zeros((3, 3), dtype=complex)
    want[2, 0], want[1, 1], want[0, 2] = 1.0, -2.0, 1.0
    assert np.allclose(coeffs, want, atol=1e-14)


def test_ptilde_two_centers_roots_incident():
    rng = np.random.default_rng(6)
    p1 = PointUHS(0.5, 0.0, 1.0)
    p2 = PointUHS(-0.4, 0.6, 1.5)
    V = MultiCenterPotential(0.0, (p1, p2), (1, 1))
    sec = tw.ptilde(V)
    assert sec.degrees == (2, 2)
    assert is_sigma_real(sec)
    hits = 0
    for _ in range(100):
        w = complex(rng.normal(), rng.normal())
        # roots in z of the degree-2 polynomial sec(., w)
        coefs = sec.coeffs @ np.array([1.0, w, w * w])
        roots = np.polynomial.polynomial.polyroots(coefs)
        for z in roots:
            g = tw.to_geodesic(tw.TwistorPoint.of(complex(z), w))
            d = min(dist_to_geodesic_oracle(p1, g), dist_to_geodesic_oracle(p2, g))
            assert d < 1e-8
            hits += 1
    assert hits == 200


# ---------------------------------------------------------------------------
# closest point
# ---------------------------------------------------------------------------

def test_closest_point_diagonal():
    p = closest_point_chart(0.8 + 0.1j, 0.8 + 0.1j)
    assert (p.x, p.y, p.z) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)


def test_closest_point_example():
    p = closest_point_chart(1.0 + 0j, 0j)
    assert (p.x, p.y) == pytest.approx((1.0, 0.0), abs=1e-14)
    assert p.z == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert tw.cosh_rho_endpoints(1.0, 0.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert math.cosh(dist(p, ORIGIN)) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_closest_point_agrees_with_distance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = random_twistor(rng)
        f = closest_point_chart(p.z.value, p.w.value)
        assert math.cosh(dist(f, ORIGIN)) == pytest.approx(
            tw.cosh_rho_endpoints(p.z.value, p.w.value), rel=1e-10)


def test_closest_point_lies_on_geodesic_and_minimizes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = random_twistor(rng)
        g = tw.to_geodesic(p)
        f = closest_point_chart(p.z.value, p.w.value)
        assert geodesic_point(g, ORIGIN, 0.0).as_array() == pytest.approx(
            f.as_array(), abs=1e-12)
        assert dist_to_geodesic_oracle(f, g) < 1e-7


def test_closest_point_infinite_chart():
    # off the finite chart the closest point is geodesic_point's at t = 0: it
    # lies on the geodesic, at the distance from O that the endpoint closed
    # form gives, for (inf, v), (v, inf) and (inf, inf), 1e-3 <= |v| <= 1e3
    rng = np.random.default_rng(18)
    vs = 10.0 ** rng.uniform(-3, 3, 500) * np.exp(2j * math.pi * rng.uniform(size=500))
    cases = [tw.TwistorPoint.of(INFINITY, INFINITY)] + [
        tw.TwistorPoint.of(*pair) for v in vs for pair in ((INFINITY, v), (v, INFINITY))]
    for p in cases:
        g = tw.to_geodesic(p)
        f = geodesic_point(g, ORIGIN, 0.0)
        assert abs(dist(f, ORIGIN) - math.acosh(tw.cosh_rho_endpoints(p.z, p.w))) <= 1e-9
        assert dist_to_geodesic(f, g) <= 1e-9
    # the axis from 0 to inf passes through O
    axis = tw.to_geodesic(tw.TwistorPoint.of(INFINITY, INFINITY))
    assert geodesic_point(axis, ORIGIN, 0.0).as_array() == pytest.approx(
        ORIGIN.as_array(), abs=1e-12)


def test_cosh_rho_endpoints_values():
    assert tw.cosh_rho_endpoints(0j, 0j) == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        tw.cosh_rho_endpoints(INFINITY, ExtendedComplex(0j))


def test_closest_point_distance_check():
    assert measure("twistor.closest-point-distance", 19, 200) < 6e-15


def test_ptilde_sigma_real_check():
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.5, 0.0, 1.0), PointUHS(-0.4, 0.6, 1.5), PointUHS(0.1, -0.9, 0.7)],
        [1, 2, 3], mass=0.4)
    lines = ((V, ORIGIN), (MultiCenterPotential(0.0, (ORIGIN,), (1,)), ORIGIN))
    assert measure("twistor.ptilde-sigma-real", 20, setting=Setting(lines=lines)) < 3e-11


# ---------------------------------------------------------------------------
# derivative identities
# ---------------------------------------------------------------------------

def test_diagonal_jacobian_matches_printed_matrix():
    assert measure("twistor.closest-point-jacobian", 9, 6) < 1e-8


def test_a2_plus_a4_vanishes():
    assert measure("twistor.a2-plus-a4", 10, 8) < 1e-8


def test_closest_point_wirtinger_off_the_diagonal():
    # the Jacobian in (z, zbar, w, wbar) against order-6 derivatives of the
    # chart formula along the real and imaginary directions of z and w
    rng = np.random.default_rng(21)
    for _ in range(6):
        p = random_twistor(rng)
        z, w = p.z.value, p.w.value
        J = tw.closest_point_wirtinger(z, w)
        d1 = derivatives(pointwise(lambda x: closest_point_chart(
            complex(x[0], x[1]), complex(x[2], x[3])).as_array()),
            (z.real, z.imag, w.real, w.imag), 1e-3, order=6).d1
        want = np.stack([J[:, 0] + J[:, 1], 1j * (J[:, 0] - J[:, 1]),
                         J[:, 2] + J[:, 3], 1j * (J[:, 2] - J[:, 3])])
        assert np.max(np.abs(d1 - want)) < 1e-8


# ---------------------------------------------------------------------------
# the 4 pi integral
# ---------------------------------------------------------------------------

def test_gamma_L_integral_value():
    val = tw.gamma_L_integral()
    assert abs(abs(val) - 4 * math.pi) < 1e-8
    assert val.real == pytest.approx(0.0, abs=1e-10)
    assert val.imag > 0


def test_legendre_table_is_leggauss_bitwise():
    # written out to keep numpy.polynomial off the import
    from numpy.polynomial.legendre import leggauss

    for got, want in zip(_LEGENDRE_16, leggauss(16)):
        assert got.tobytes() == want.tobytes()


def test_gamma_L_truncation_tail():
    # value(R) approaches 4 pi with an O(1/R^2) analytic tail
    for R in (10.0, 20.0, 40.0):
        val = tw.gamma_L_integral(radius=R)
        tail = 4 * math.pi / (1 + R * R)
        assert abs(val.imag - (4 * math.pi - tail)) < 1e-10
    d10 = 4 * math.pi - tw.gamma_L_integral(radius=10.0).imag
    d20 = 4 * math.pi - tw.gamma_L_integral(radius=20.0).imag
    assert d10 / d20 == pytest.approx(4.0, rel=5e-2)
