"""Charge-1 factorization and twistor-line lifting."""

import math

import numpy as np
import pytest

from monogeom import spectral as sp
from monogeom.hyperbolic import (ORIGIN, MultiCenterPotential, PointUHS,
                                 dist_to_geodesic, orthonormal_frame_at, point_at)
from monogeom.projective import tau
from monogeom.twistor import twistor_line_section


def random_config(rng, n, lmax=3, mass=None):
    centers = []
    while len(centers) < n:
        c = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.2))
        if all(math.dist(c.as_array(), d.as_array()) > 0.3 for d in centers):
            centers.append(c)
    charges = [int(rng.integers(1, lmax + 1)) for _ in range(n)]
    if mass is None:
        return MultiCenterPotential(rng.uniform(0.1, 2.0), tuple(centers),
                                    tuple(charges))
    return MultiCenterPotential.for_su2_charge1(centers, charges, mass)


def untrapped_point(rng, V):
    from monogeom.hyperbolic import is_geodesically_trapped
    while True:
        q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.2))
        if all(math.dist(q.as_array(), c.as_array()) > 0.25 for c in V.centers) \
                and not is_geodesically_trapped(q, V.centers, tol=1e-6):
            return q


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restriction_axis_direction_example():
    # center along the first frame direction from q: roots are +-1
    q = ORIGIN
    E = orthonormal_frame_at(q)
    center = point_at(q, E[0], 0.9)
    quad = sp.restrict_to_line(center, q)
    assert quad.b == pytest.approx(0.0, abs=1e-14)
    assert quad.a.imag == pytest.approx(0.0, abs=1e-14)
    assert quad.a.real > 0
    roots = sorted([quad.alpha, quad.beta], key=lambda v: v.real)
    assert roots[0] == pytest.approx(-1.0, abs=1e-12)
    assert roots[1] == pytest.approx(+1.0, abs=1e-12)
    assert tau(roots[1]) == pytest.approx(roots[0], abs=1e-12)


def test_restriction_accepts_sections():
    q = PointUHS(0.3, -0.1, 1.2)
    c = PointUHS(-0.6, 0.8, 0.7)
    via_point = sp.restrict_to_line(c, q)
    via_section = sp.restrict_to_line(twistor_line_section(c), q)
    assert via_section.a == pytest.approx(via_point.a, rel=1e-10)
    assert via_section.b == pytest.approx(via_point.b, rel=1e-10)


def test_restriction_roots_antipodal_and_discriminant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        V = random_config(rng, 2)
        q = untrapped_point(rng, V)
        for c in V.centers:
            quad = sp.restrict_to_line(c, q)
            assert quad.delta ** 2 == pytest.approx(
                quad.b ** 2 + abs(quad.a) ** 2, rel=1e-12)
            assert quad.delta > 0
            assert tau(quad.alpha) == pytest.approx(quad.beta, rel=1e-9, abs=1e-9)
            # delta is sinh of the distance to the center
            from monogeom.hyperbolic import dist
            assert quad.delta == pytest.approx(math.sinh(dist(q, c)), rel=1e-10)


def test_restriction_degenerate_at_center():
    with pytest.raises(sp.DegenerateRestrictionError):
        sp.restrict_to_line(ORIGIN, ORIGIN)


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------

def test_factor_single_quadratic_hand_case():
    # zeta^2 - 1 with unit charge: x = A (zeta - 1), y = B (zeta + 1),
    # A B = 1 and the reality constraint force |A| = 1
    quad = sp.QuadraticRestriction(1.0 + 0j, 0.0)
    pair = sp.factor([quad], [1])
    assert abs(abs(pair.x[-1]) - 1.0) < 1e-12
    assert abs(abs(pair.y[-1]) - 1.0) < 1e-12
    assert pair.reality_defect() < 1e-12
    zs = np.exp(2j * np.pi * np.arange(32) / 32)
    assert np.max(np.abs(pair.product_at(zs) - (zs * zs - 1.0))) < 1e-12


def test_factor_reconstructs_product():
    rng = np.random.default_rng(2)
    for trial in range(12):
        n = int(rng.integers(1, 5))
        V = random_config(rng, n, lmax=3)
        q = untrapped_point(rng, V)
        quads = [sp.restrict_to_line(c, q) for c in V.centers]
        pair = sp.factor(quads, V.charges)
        zs = np.concatenate([np.exp(2j * np.pi * np.arange(500) / 500),
                             0.5 * np.exp(2j * np.pi * np.arange(500) / 500)])
        target = np.ones_like(zs)
        for quad, l in zip(quads, V.charges):
            target *= quad(zs) ** l
        got = pair.product_at(zs)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(got - target)) / scale < 1e-10
        assert pair.reality_defect() < 1e-10


def test_factor_modulus_identity():
    # |A|^2 equals the product of (delta_i + b_i)^{l_i}; the printed
    # b_i - delta_i variant is negative whenever a_i is nonzero, so only
    # absolute values could enter, and the reality check picks this form
    rng = np.random.default_rng(3)
    V = random_config(rng, 3, lmax=2)
    q = untrapped_point(rng, V)
    quads = [sp.restrict_to_line(c, q) for c in V.centers]
    pair = sp.factor(quads, V.charges)
    want = np.prod([(qd.delta + qd.b) ** l for qd, l in zip(quads, V.charges)])
    assert abs(pair.x[-1]) ** 2 == pytest.approx(want, rel=1e-9)
    for qd in quads:
        if abs(qd.a) > 1e-12:
            assert qd.b - qd.delta < 0


def test_factor_phase_moves_gauge_not_divisor():
    rng = np.random.default_rng(4)
    V = random_config(rng, 2, lmax=2)
    q = untrapped_point(rng, V)
    quads = [sp.restrict_to_line(c, q) for c in V.centers]
    p0 = sp.factor(quads, V.charges, phase=0.0)
    p1 = sp.factor(quads, V.charges, phase=2.13)
    assert p0.alphas == p1.alphas
    assert p1.reality_defect() < 1e-10
    zs = 0.3 + 0.7j
    assert abs(p1.x_at(zs) / p0.x_at(zs)) == pytest.approx(1.0, rel=1e-12)


def test_factor_reality_over_random_lifts():
    # the closed-form modulus makes x = y* hold to rounding on every lift
    # (1-4 centers, charges 1-3), with no re-solve at a sample point
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(200):
        V = random_config(rng, int(rng.integers(1, 5)), lmax=3,
                          mass=rng.uniform(0.1, 1.0))
        q = untrapped_point(rng, V)
        worst = max(worst, sp.lift_twistor_line(q, V).pair.reality_defect())
    assert worst <= 1e-12


def test_factor_reality_near_chart_pole():
    # |a| << |b|: a root close to the chart pole; for b < 0 the modulus
    # factor b + delta cancels unless it is formed as |a|^2 / (delta - b)
    for b in (-1.0, 1.0):
        quads = [sp.QuadraticRestriction(1e-5 * (0.6 + 0.8j), b),
                 sp.QuadraticRestriction(0.5 + 0.2j, 0.3)]
        assert sp.factor(quads, [1, 2]).reality_defect() < 1e-11


def test_factor_chart_rotation_error():
    # root at the chart pole: a = 0
    quad = sp.QuadraticRestriction(0j, 1.0)
    with pytest.raises(sp.ChartRotationRequired):
        _ = quad.alpha


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_xy_equals_section_on_grid():
    rng = np.random.default_rng(5)
    for _ in range(6):
        V = random_config(rng, int(rng.integers(1, 4)), lmax=2, mass=rng.uniform(0.1, 1.5))
        q = untrapped_point(rng, V)
        data = sp.lift_twistor_line(q, V)
        assert data.product_residual(n=64) < 1e-10
        assert data.pair.reality_defect() < 1e-10
        assert data.divisor_supports_disjoint()
        assert data.divisor_doubling_defect() < 1e-9


def test_lift_divisor_geodesics_join_q_and_center():
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], [1, 2], mass=0.7)
    q = PointUHS(0.6, 0.9, 1.1)
    data = sp.lift_twistor_line(q, V)
    assert [d.multiplicity for d in data.divisor] == [2, 4]
    for d, center in zip(data.divisor, V.centers):
        assert dist_to_geodesic(q, d.geodesic) < 1e-7
        assert dist_to_geodesic(center, d.geodesic) < 1e-7


def test_lift_massless_empty_is_trivial():
    V = MultiCenterPotential.for_su2_charge1([], [], mass=0.0)
    data = sp.lift_twistor_line(PointUHS(0.4, 0.1, 1.0), V)
    assert np.allclose(data.pair.x, [1.0])
    assert np.allclose(data.pair.y, [1.0])
    assert data.divisor == ()


def test_lift_rotates_chart_when_needed():
    # center directly along the polar axis from q: the restriction has
    # a = 0 in the unrotated chart
    q = ORIGIN
    E = orthonormal_frame_at(q)
    center = point_at(q, E[2], 0.8)
    quad = sp.restrict_to_line(center, q)
    assert abs(quad.a) < 1e-14
    V = MultiCenterPotential.for_su2_charge1([center], [1], mass=0.3)
    data = sp.lift_twistor_line(q, V)
    assert data.product_residual() < 1e-10
    d = data.divisor[0]
    assert dist_to_geodesic(q, d.geodesic) < 1e-7
    assert dist_to_geodesic(center, d.geodesic) < 1e-7


def test_lift_rejects_center_point():
    V = MultiCenterPotential.for_su2_charge1([ORIGIN], [1], mass=0.3)
    with pytest.raises(sp.DegenerateRestrictionError):
        sp.lift_twistor_line(ORIGIN, V)


def test_antipodal_conjugate_squares_to_degree_sign():
    rng = np.random.default_rng(6)
    for deg in (2, 3):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        twice = sp.antipodal_conjugate(sp.antipodal_conjugate(c))
        assert np.allclose(twice, (-1.0) ** deg * c)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,genus", [(1, 0), (2, 1), (5, 16)])
def test_genus_values(k, genus):
    assert sp.genus_of_spectral_curve(k) == genus


def test_genus_rejects_nonpositive():
    with pytest.raises(ValueError):
        sp.genus_of_spectral_curve(0)
