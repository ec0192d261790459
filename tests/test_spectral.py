"""Charge-1 factorization and twistor-line lifting."""

import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogeom import spectral as sp
from monogeom.hyperbolic import (ORIGIN, MultiCenterPotential, PointUHS, embed,
                                 null_vector, orthonormal_frame_at, point_at)
from monogeom.projective import (INFINITY, ExtendedComplex, chordal_distance, node_powers,
                                 roots_of_unity)
from monogeom.spectral import CHART_ROTATIONS
from oracles import antipodal_conjugate, dist_to_geodesic, point_matrix


def tau(v: complex) -> complex:
    """The antipodal map -1/conj(v) on a finite nonzero chart value."""
    return ExtendedComplex(v).antipode().value


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
    roots = sorted(quad.roots, key=lambda v: v.real)
    assert roots[0] == pytest.approx(-1.0, abs=1e-12)
    assert roots[1] == pytest.approx(+1.0, abs=1e-12)
    assert tau(roots[1]) == pytest.approx(roots[0], abs=1e-12)


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
            alpha, beta = quad.roots
            assert tau(alpha) == pytest.approx(beta, rel=1e-9, abs=1e-9)
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
        _ = quad.roots


def test_roots_match_per_root_reference():
    # both roots from one delta, bit for bit against each root formed on its own
    # delta, on both signs of b, at b = 0 and next to the chart pole
    def alpha(qd):
        b, d = qd.b, math.hypot(qd.b, abs(qd.a))
        return (d - b) / qd.a if b < 0 else qd.a.conjugate() / (b + d)

    def beta(qd):
        b, d = qd.b, math.hypot(qd.b, abs(qd.a))
        return -(b + d) / qd.a if b >= 0 else -qd.a.conjugate() / (d - b)

    rng = np.random.default_rng(27)
    a = rng.normal(size=200) + 1j * rng.normal(size=200)
    b = rng.normal(size=200) * 10.0 ** rng.integers(-3, 4, size=200)
    quads = [sp.QuadraticRestriction(complex(x), float(y)) for x, y in zip(a, b)]
    quads += [sp.QuadraticRestriction(0.6 - 0.8j, 0.0), sp.QuadraticRestriction(0.6 - 0.8j, -0.0),
              sp.QuadraticRestriction(2e-14j, 1.0), sp.QuadraticRestriction(2e-14j, -1.0)]
    for qd in quads:
        assert qd.roots == (alpha(qd), beta(qd))


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


def test_product_at_total_degree_20():
    # doubled charges 4, 6, 6, 4: expanding x and y into coefficients left
    # x y 5.5e-10 from the section; in root form it is exact to rounding
    V = MultiCenterPotential(
        2.63699440521728,
        (PointUHS(1.247507485311766, -0.8982594420993043, 1.3529099725912248),
         PointUHS(-1.4759975806303174, -0.06365912683459264, 1.7889844189501232),
         PointUHS(1.2309476989948753, -0.46650602472338054, 1.456174415579616),
         PointUHS(0.4371726303538179, -0.7798183728071499, 1.3826073539742398)),
        (4, 6, 6, 4), 0.8184972026086399)
    q = PointUHS(-0.5008218183228977, 0.7908675989918377, 1.6491293820023745)
    data = sp.lift_twistor_line(q, V)
    assert len(data.pair.x) - 1 == 20
    assert data.product_residual(n=64) < 1e-10


def test_product_residual_sees_a_moved_root_lead_or_multiplicity():
    # negative controls: one beta moved by 1e-6, lead_y scaled by 1 + 1e-6,
    # one multiplicity off by one; each reads at least 1e-7, and what the
    # root form and the quadratics read node by node
    def reference(data, zs=roots_of_unity(64)):
        target = np.prod([qd(zs) ** m for qd, m in zip(data.quadratics, data.pair.multiplicities)], 0)
        return np.max(np.abs(data.pair.product_at(zs) - target)) / np.max(np.abs(target))

    data = _two_center_lift((2, 3))
    p = data.pair
    assert data.product_residual() < 1e-14
    for broken in (dataclasses.replace(p, betas=(p.betas[0] + 1e-6, *p.betas[1:])),
                   dataclasses.replace(p, lead_y=p.lead_y * (1 + 1e-6)),
                   dataclasses.replace(p, multiplicities=(p.multiplicities[0] + 1,
                                                          *p.multiplicities[1:]))):
        broken = dataclasses.replace(data, pair=broken)
        assert broken.product_residual() >= 1e-7
        assert broken.product_residual() == pytest.approx(reference(broken), rel=1e-6)


def test_doubling_defect_pairs_across_rounding_boundary():
    # two divisor roots with real parts 2.5e-10 apart; the first one's real
    # part and its factor root's straddle the 9th-digit rounding boundary,
    # and sorting by rounded coordinates paired each root with the other's
    # partner (chart difference 1.5); pairing by center pairs them to 2e-12,
    # a chordal distance of 4e-12 / (1 + |z1|^2)
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], [1, 1], mass=0.7)
    data = sp.lift_twistor_line(PointUHS(0.6, 0.9, 1.1), V)
    z1, z2 = complex(0.1234567895 + 1e-12, 0.5), complex(0.12345678925, 2.0)
    pair = dataclasses.replace(data.pair, alphas=(z1 - 2e-12, z2),
                               betas=(tau(z1), tau(z2)), multiplicities=(1, 1))
    divisor = tuple(dataclasses.replace(d, zeta=z, multiplicity=1)
                    for d, z in zip(data.divisor, (z1, z2)))
    moved = dataclasses.replace(data, pair=pair, divisor=divisor)
    assert moved.divisor_doubling_defect() == pytest.approx(4e-12 / (1 + abs(z1) ** 2), rel=1e-3)
    # a replaced point keeps the chart and selects the geodesic of its new root
    for d, z in zip(divisor, (z1, z2)):
        assert d.geodesic == data.chart.geodesics((z,))[0]


def test_doubling_defect_sees_swapped_betas():
    # D + sigma(D) pairs tau(zeta_i) with beta_i of the same center; with
    # equal multiplicities the swapped betas form the same multiset, and
    # only a pairing by center sees them
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], [1, 1], mass=0.7)
    data = sp.lift_twistor_line(PointUHS(0.6, 0.9, 1.1), V)
    assert data.divisor_doubling_defect() < 1e-12
    swapped = dataclasses.replace(data.pair, betas=data.pair.betas[::-1])
    assert dataclasses.replace(data, pair=swapped).divisor_doubling_defect() > 0.1


def test_doubling_defect_inf_on_multiplicity_mismatch():
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], [1, 2], mass=0.7)
    data = sp.lift_twistor_line(PointUHS(0.6, 0.9, 1.1), V)
    d0, d1 = data.divisor
    for divisor in ((dataclasses.replace(d0, multiplicity=d0.multiplicity + 1), d1), (d0,)):
        moved = dataclasses.replace(data, divisor=divisor)
        assert moved.divisor_doubling_defect() == math.inf
        assert divisor[0].geodesic == data.chart.geodesics((d0.zeta,))[0]


def test_lift_divisor_geodesics_join_q_and_center():
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], [1, 2], mass=0.7)
    q = PointUHS(0.6, 0.9, 1.1)
    data = sp.lift_twistor_line(q, V)
    assert [d.multiplicity for d in data.divisor] == [2, 4]
    for d, center in zip(data.divisor, V.centers):
        assert dist_to_geodesic(q, d.geodesic) < 1e-12
        assert dist_to_geodesic(center, d.geodesic) < 1e-12


def test_divisor_geodesics_built_on_first_read_match_the_eager_ones():
    # 800 seeded lifts: each point's geodesic, built from the chart on first read, is
    # the one chart.geodesics(pair.alphas) builds for all roots at once
    for seed in (11, 12):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            V = random_config(rng, int(rng.integers(1, 5)), lmax=3, mass=rng.uniform(0.1, 1.0))
            data = sp.lift_twistor_line(untrapped_point(rng, V), V)
            eager = data.chart.geodesics(data.pair.alphas)
            assert [d.geodesic for d in data.divisor] == list(eager)
            assert all(d.chart is data.chart for d in data.divisor)


def test_divisor_point_equality_and_hash_ignore_the_chart():
    # the same root and multiplicity in two charts: equal, one hash, the chart
    # left out of the repr; the geodesics differ, each read in its own chart
    charts = [sp.LineChart(PointUHS(0.6, 0.9, 1.1)), sp.LineChart(PointUHS(-0.2, 0.4, 0.7))]
    d0, d1 = (sp.DivisorPoint(0.3 + 0.4j, 2, chart) for chart in charts)
    assert d0 == d1 and hash(d0) == hash(d1) and len({d0, d1}) == 1
    assert repr(d0) == repr(d1) == "DivisorPoint(zeta=(0.3+0.4j), multiplicity=2)"
    assert d0.geodesic != d1.geodesic
    assert d0 != dataclasses.replace(d0, multiplicity=3)


def test_lift_counts_geodesics_and_hypots(monkeypatch):
    # machine-independent counts of the lift path: no OrientedGeodesic is built
    # until a divisor point's geodesic is read, then exactly one per point, once;
    # factor takes one math.hypot per center
    counts = Counter()

    class Counted(sp.OrientedGeodesic):
        def __init__(self, *args, **kwargs):
            counts["geodesic"] += 1
            super().__init__(*args, **kwargs)

    def hypot(*args, _f=math.hypot):
        counts["hypot"] += 1
        return _f(*args)

    monkeypatch.setattr(sp, "OrientedGeodesic", Counted)
    monkeypatch.setattr(math, "hypot", hypot)
    data = _two_center_lift((2, 3))
    assert counts["geodesic"] == 0
    counts.clear()
    sp.factor(data.quadratics, data.pair.multiplicities)
    assert counts == Counter({"hypot": 2})
    for _ in range(2):
        assert all(isinstance(d.geodesic, Counted) for d in data.divisor)
        assert counts["geodesic"] == 2


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
    assert dist_to_geodesic(q, d.geodesic) < 1e-12
    assert dist_to_geodesic(center, d.geodesic) < 1e-12
    assert d.chart is data.chart and d.chart.su2 is not CHART_ROTATIONS[0]
    assert d.geodesic == data.chart.geodesics(data.pair.alphas)[0]


def test_lift_rejects_center_point():
    V = MultiCenterPotential.for_su2_charge1([ORIGIN], [1], mass=0.3)
    with pytest.raises(sp.DegenerateRestrictionError):
        sp.lift_twistor_line(ORIGIN, V)


def test_antipodal_conjugate_squares_to_degree_sign():
    rng = np.random.default_rng(6)
    for deg in (2, 3):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        twice = antipodal_conjugate(antipodal_conjugate(c))
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


# ---------------------------------------------------------------------------
# the batched line chart against a per-point reference
# ---------------------------------------------------------------------------

def _reference_transport(q, su2):
    from scipy.linalg import sqrtm

    return su2 @ np.linalg.inv(sqrtm(point_matrix(embed(q))))


def _reference_endpoint(Ainv, u):
    N = Ainv @ point_matrix(null_vector(u)) @ Ainv.conj().T
    if abs(N[1, 1]) < 1e-13 * abs(np.trace(N)):
        return INFINITY
    return ExtendedComplex(complex(np.conj(N[0, 1] / N[1, 1])))


def test_chart_rotations_match_the_point_matrix_formula():
    # the axis matrix is written out: bit for bit the point matrix of (0, n)
    axis = point_matrix(np.array([0.0, 0.36, 0.48, 0.8]))
    formula = (np.eye(2, dtype=complex),) + tuple(
        math.cos(a / 2) * np.eye(2, dtype=complex) - 1j * math.sin(a / 2) * axis
        for a in (0.7345, 1.4261, 2.0393))
    assert len(CHART_ROTATIONS) == len(formula)
    for got, want in zip(CHART_ROTATIONS, formula):
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rotation", range(len(CHART_ROTATIONS)))
def test_line_chart_quadratics_match_per_center_reference(rotation):
    rng = np.random.default_rng(40 + rotation)
    su2 = CHART_ROTATIONS[rotation]
    for n in (1, 2, 3, 4):
        q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
        centers = np.column_stack([rng.normal(size=n), rng.normal(size=n),
                                   rng.uniform(0.4, 2.0, size=n)])
        A = _reference_transport(q, su2)
        quads = sp.LineChart(q, su2).quadratics(centers)
        assert len(quads) == n
        for quad, c in zip(quads, centers):
            # the transported point's matrix [[X0 + X3, X1 - i X2], [X1 + i X2, X0 - X3]]
            M = A @ point_matrix(embed(c)) @ A.conj().T
            scale = max(1.0, float(np.max(np.abs(M))))
            assert abs(quad.a - M[0, 1]) < 1e-14 * scale
            assert abs(quad.b + (M[0, 0] - M[1, 1]).real / 2) < 1e-14 * scale


@pytest.mark.parametrize("rotation", range(len(CHART_ROTATIONS)))
def test_line_chart_geodesics_match_per_root_reference(rotation):
    rng = np.random.default_rng(50 + rotation)
    su2 = CHART_ROTATIONS[rotation]
    for n in (1, 2, 3, 4):
        q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
        A = _reference_transport(q, su2)
        # the chart value whose geodesic ends at the ambient chart pole: the
        # transported null ray N of the pole has chart (N1 + i N2) / (N0 - N3)
        N = A @ point_matrix(np.array([1.0, 0.0, 0.0, 1.0])) @ A.conj().T
        pole = complex(N[1, 0] / N[1, 1].real)
        zetas = [0j, pole] + list(rng.normal(size=n) + 1j * rng.normal(size=n))
        Ainv = np.linalg.inv(A)
        got = sp.LineChart(q, su2).geodesics(zetas)
        assert got[1].end == INFINITY
        for g, z in zip(got, zetas):
            ze = ExtendedComplex(z)
            for end, want in ((g.end, _reference_endpoint(Ainv, ze)),
                              (g.start, _reference_endpoint(Ainv, ze.antipode()))):
                assert end.at_infinity == want.at_infinity
                assert chordal_distance(end, want) < 1e-14


@pytest.mark.parametrize("rotation", range(len(CHART_ROTATIONS)))
def test_line_chart_transport_sends_q_to_base_point(rotation):
    rng = np.random.default_rng(60 + rotation)
    su2 = CHART_ROTATIONS[rotation]
    for _ in range(50):
        q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
        A = np.array(sp.LineChart(q, su2).transport).reshape(2, 2)
        assert all(type(entry) is complex for entry in A.ravel().tolist())
        R = _reference_transport(q, su2)
        assert np.max(np.abs(A - R)) < 5e-14 * np.max(np.abs(R))
        Q = point_matrix(embed(q))
        assert np.max(np.abs(A @ Q @ A.conj().T - np.eye(2))) < 1e-14 * np.max(np.abs(Q))
        assert abs(np.linalg.det(A) - 1.0) < 1e-14


# ---------------------------------------------------------------------------
# roots next to a chart pole, high multiplicities, chordal distance
# ---------------------------------------------------------------------------

def _center_off_polar_axis(q, offset, sign):
    # a center 0.8 from q along the frame's polar axis, turned by `offset`
    E = orthonormal_frame_at(q)
    u = sign * E[2] + offset * E[0]
    return point_at(q, u / np.linalg.norm(u), 0.8)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_lift_rotates_chart_for_root_next_to_pole(sign):
    # the center sits 1e-15 off q's polar axis, so |a| < 1e-14 in the
    # identity chart and the first CHART_ROTATIONS fallback takes over
    q = ORIGIN
    center = _center_off_polar_axis(q, 1e-15, sign)
    assert 0 < abs(sp.restrict_to_line(center, q).a) < 1e-14
    V = MultiCenterPotential.for_su2_charge1([center, PointUHS(0.5, 0.3, 1.5)], [1, 2], mass=0.3)
    data = sp.lift_twistor_line(q, V)
    assert data.chart.su2 is CHART_ROTATIONS[1]
    assert data.product_residual() < 1e-13
    assert data.pair.reality_defect() < 1e-13
    assert data.divisor_doubling_defect() < 1e-13
    for d, c in zip(data.divisor, V.centers):
        assert dist_to_geodesic(q, d.geodesic) < 1e-12
        assert dist_to_geodesic(c, d.geodesic) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9, 1e-7, 1e-5])
def test_lift_accurate_with_root_near_chart_pole(sign, offset):
    # 1e-14 <= |a| << |b|: no rotation, and the root near the pole or near
    # zero comes from alpha beta = -conj(a) / a, not from b - delta, which
    # cancels (that left x y 1e-8 off the section and the doubling inf)
    q = ORIGIN
    V = MultiCenterPotential.for_su2_charge1(
        [_center_off_polar_axis(q, offset, sign), PointUHS(0.5, 0.3, 1.5)], [1, 2], mass=0.3)
    data = sp.lift_twistor_line(q, V)
    assert data.chart.su2 is CHART_ROTATIONS[0]
    assert data.product_residual() < 1e-13
    assert data.pair.reality_defect() < 1e-13
    # the defect is a chart difference; the pole-side root has modulus ~ 1/|a|
    assert data.divisor_doubling_defect() < 1e-14 * max(1.0, *map(abs, data.pair.betas))


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9, 1e-7, 1e-5])
def test_lift_divisor_geodesics_exact_with_root_near_chart_pole(sign, offset):
    # an end within a chordal 6e-7 of infinity was snapped to it, and the
    # geodesic missed q and the center by about the offset
    q = ORIGIN
    V = MultiCenterPotential.for_su2_charge1(
        [_center_off_polar_axis(q, offset, sign), PointUHS(0.5, 0.3, 1.5)], [1, 2], mass=0.3)
    data = sp.lift_twistor_line(q, V)
    for d, c in zip(data.divisor, V.centers):
        assert dist_to_geodesic(q, d.geodesic) < 1e-12
        assert dist_to_geodesic(c, d.geodesic) < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("offset", [1e-13, 1e-11, 1e-9, 1e-7, 1e-5])
def test_doubling_defect_chart_free_with_root_near_chart_pole(sign, offset):
    # chart differences read 2.4e-7 at a root of modulus 1.1e9 (offset 1e-9)
    q = ORIGIN
    V = MultiCenterPotential.for_su2_charge1(
        [_center_off_polar_axis(q, offset, sign), PointUHS(0.5, 0.3, 1.5)], [1, 2], mass=0.3)
    assert sp.lift_twistor_line(q, V).divisor_doubling_defect() <= 1e-12


def test_doubling_defect_at_zero_root():
    # tau(0) is infinity: beta there is the pole root, compared chordally
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], [1, 1], mass=0.7)
    data = sp.lift_twistor_line(PointUHS(0.6, 0.9, 1.1), V)
    d0, d1 = data.divisor
    pair = dataclasses.replace(data.pair, alphas=(0j, data.pair.alphas[1]),
                               betas=(1e300 + 0j, data.pair.betas[1]))
    moved = dataclasses.replace(data, pair=pair, divisor=(dataclasses.replace(d0, zeta=0j), d1))
    assert moved.divisor_doubling_defect() < 1e-12
    far = dataclasses.replace(moved, pair=dataclasses.replace(pair, betas=(1.0 + 0j, pair.betas[1])))
    assert far.divisor_doubling_defect() == pytest.approx(math.sqrt(2), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.complex_numbers(min_magnitude=1e-3, max_magnitude=3.0),
                          st.floats(-3.0, 3.0), st.integers(1, 4)), min_size=1, max_size=4),
       st.floats(0.0, 2 * math.pi))
def test_factor_with_multiplicities_up_to_4(roots, phase):
    quads = [sp.QuadraticRestriction(a, b) for a, b, _ in roots]
    charges = [m for _, _, m in roots]
    pair = sp.factor(quads, charges, phase=phase)
    assert len(pair.x) - 1 == len(pair.y) - 1 == sum(charges)
    assert pair.multiplicities == tuple(charges)
    zs = np.exp(2j * np.pi * np.arange(32) / 32)
    target = math.prod((qd(zs) ** m for qd, m in zip(quads, charges)), start=np.ones(32))
    assert np.max(np.abs(pair.product_at(zs) - target)) < 1e-12 * np.max(np.abs(target))
    assert pair.reality_defect() < 1e-12
    for qd, a, b in zip(quads, pair.alphas, pair.betas):
        assert abs(qd(a)) < 1e-12 * max(1.0, abs(qd.a) * abs(a) ** 2)
        assert abs(tau(a) - b) < 1e-12 * max(1.0, abs(b))


def test_reality_tables_leave_the_contour_table_cached():
    # reality defects of degrees 2-24 at 128 nodes share one table per node
    # count, so the pairing's 2048-node table stays cached beside them
    contour = node_powers(2048, 8)
    for m in range(1, 13):
        quads = [sp.QuadraticRestriction(0.5 + 0.2j, 0.3), sp.QuadraticRestriction(0.1j, -0.4)]
        assert sp.factor(quads, [m, m]).reality_defect() < 1e-12
    again = node_powers(2048, 8)
    assert again.base is contour.base
    table = node_powers(128, 24)
    assert table.shape == (25, 128) and not table.flags.writeable
    assert np.array_equal(table, roots_of_unity(128)[np.outer(np.arange(25), np.arange(128)) % 128])


def test_node_powers_grow_within_the_new_table_plus_64_kib():
    # growing 2000 nodes from degree 8 to 14 copies the old rows and fills the new
    # ones row by row: tracemalloc's peak stays within the new 469 KiB table plus
    # 64 KiB (index arrays as large as the table peaked 720 KiB above), and the
    # entries are the gathered roots of unity, bit for bit
    from monogeom import projective

    projective._POWERS.pop(2000, None)
    old = node_powers(2000, 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = node_powers(2000, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= table.nbytes + 64 * 1024
    assert np.array_equal(table[:9], old) and not table.flags.writeable
    reference = roots_of_unity(2000)[np.outer(np.arange(15), np.arange(2000)) % 2000]
    assert np.array_equal(table, reference)


def _coefficient_reality_defect(pair, n=128):
    # the coefficient form: the rows x and x - antipodal_conjugate(y) at the nodes
    C = np.stack([pair.x, pair.x - antipodal_conjugate(pair.y)])
    vals = np.abs(C @ node_powers(n, C.shape[1] - 1))
    return float(vals[1].max()) / max(float(vals[0].max()), 1e-300)


def _two_center_lift(charges=(1, 2)):
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.3, -0.2, 1.4), PointUHS(-0.8, 0.5, 0.9)], list(charges), mass=0.7)
    return sp.lift_twistor_line(PointUHS(0.6, 0.9, 1.1), V)


def test_reality_defect_root_form_matches_coefficient_form():
    # 800 seeded lifts (1-4 centers, doubled charges 2-6) and one of total
    # degree 24: the root form at the nodes reads what the coefficients read
    rng = np.random.default_rng(15)
    lifts = []
    for _ in range(800):
        V = random_config(rng, int(rng.integers(1, 5)), lmax=3, mass=rng.uniform(0.1, 1.0))
        lifts.append(sp.lift_twistor_line(untrapped_point(rng, V), V))
    V = MultiCenterPotential.for_su2_charge1(
        [PointUHS(0.9, 0.2, 1.3), PointUHS(-0.7, 0.4, 0.8), PointUHS(0.1, -1.1, 1.6),
         PointUHS(-0.2, 0.9, 0.6)], [3, 3, 3, 3], mass=0.4)
    lifts.append(sp.lift_twistor_line(PointUHS(0.2, 0.1, 1.1), V))
    assert sum(lifts[-1].pair.multiplicities) == 24
    for data in lifts:
        root_form = data.pair.reality_defect()
        assert root_form < 1e-13
        assert abs(root_form - _coefficient_reality_defect(data.pair)) <= 1e-13


@pytest.mark.parametrize("broken", ["beta", "lead_y", "minus_x"])
def test_reality_defect_negative_controls(broken):
    # a root off its antipodal partner, a wrong modulus and a wrong sign
    # each read well above rounding in both forms
    p = _two_center_lift().pair
    assert p.reality_defect() < 1e-13
    bad = {"beta": lambda: dataclasses.replace(p, betas=(p.betas[0] + 1e-6, p.betas[1])),
           "lead_y": lambda: dataclasses.replace(p, lead_y=p.lead_y * (1 + 1e-6)),
           "minus_x": lambda: dataclasses.replace(p, lead_x=-p.lead_x)}[broken]()
    assert bad.reality_defect() >= 1e-7
    assert _coefficient_reality_defect(bad) >= 1e-7


def test_reality_defect_of_degree_zero_pair():
    # no centers: x = A and y = 1/A are constants
    assert sp.factor([], []).reality_defect() == 0.0
    assert sp.factor([], [], phase=0.7).reality_defect() < 1e-15


def test_integer_power_by_squaring_matches_numpy_power():
    # the root-form factors' powers are repeated products, within rounding
    # of numpy's complex power, on arrays, on a (2, 1) column against a row
    # and on Python complexes, for every multiplicity up to three times 6
    rng = np.random.default_rng(4)
    z = rng.normal(size=(2, 128)) + 1j * rng.normal(size=(2, 128))
    col = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    for m in range(1, 19):
        for base in (z, roots_of_unity(64) - col):
            want = base ** m
            assert np.abs(sp._ipow(base, m) - want).max() <= 1e-14 * np.abs(want).max()
        assert abs(sp._ipow(0.3 - 1.1j, m) - (0.3 - 1.1j) ** m) <= 1e-15 * abs(1.1 ** m + 1)


def test_coefficients_built_on_first_read_bit_for_bit():
    # x and y are the leads A and prod a_i^{l_i} / A times the expanded root
    # products, the arrays factor returned when it expanded them itself
    rng = np.random.default_rng(21)
    for _ in range(50):
        V = random_config(rng, int(rng.integers(1, 5)), lmax=3, mass=rng.uniform(0.1, 1.0))
        data = sp.lift_twistor_line(untrapped_point(rng, V), V)
        p, quads = data.pair, data.quadratics
        A = math.sqrt(math.prod(abs(qd.a * b) ** l for qd, b, l in
                                zip(quads, p.betas, p.multiplicities)))
        prod_a = math.prod(qd.a ** l for qd, l in zip(quads, p.multiplicities))
        assert (p.lead_x, p.lead_y) == (A, prod_a / A)
        x = A * sp._poly_from_roots(p.alphas, p.multiplicities)
        y = (prod_a / A) * sp._poly_from_roots(p.betas, p.multiplicities)
        assert np.array_equal(p.x, x) and np.array_equal(p.y, y)
        assert p.x is p.x and p.y is p.y


def test_lift_and_its_checks_expand_no_coefficients(monkeypatch):
    # the lift, product, reality and doubling checks stay in root form; the
    # coefficients are expanded once, on first read
    calls = Counter()

    def counted(*args, _f=sp._poly_from_roots):
        calls["_poly_from_roots"] += 1
        return _f(*args)
    monkeypatch.setattr(sp, "_poly_from_roots", counted)
    data = _two_center_lift((2, 3))
    data.product_residual(n=64)
    data.pair.reality_defect()
    data.divisor_doubling_defect()
    assert calls == Counter()
    _ = data.pair.x, data.pair.y, data.pair.x
    assert calls == Counter({"_poly_from_roots": 2})


def test_divisor_disjointness_is_chart_free():
    data = _two_center_lift((1, 1))
    d0, d1 = data.divisor
    assert data.divisor_supports_disjoint()

    def moved(z0, z1):
        return dataclasses.replace(data, divisor=(dataclasses.replace(d0, zeta=z0),
                                                  dataclasses.replace(d1, zeta=z1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # tau(0) is infinity: no division, and a far point is chordally next to it
        assert moved(0j, d1.zeta).divisor_supports_disjoint()
        assert not moved(0j, 1e150 + 0j).divisor_supports_disjoint()
    # tau(1e-9) = -1e9 lies 0.12 from -1e9 + 0.12 in the chart but 2.4e-19
    # chordally, a collision whichever point is mapped; the same chart gap at
    # the unit circle is a chordal 0.12
    assert not moved(1e-9 + 0j, -1e9 + 0.12 + 0j).divisor_supports_disjoint()
    assert moved(1.0 + 0j, -0.88 + 0j).divisor_supports_disjoint()


_SPHERE_POINTS = ([INFINITY] + [ExtendedComplex(v) for v in (
    0j, 1.0, -1.0, 1j, 0.3 - 0.7j, 1e-9 + 1e-9j, 1e8 - 3e8j, 1e15j, -2.5e-300)])


@pytest.mark.parametrize("p", _SPHERE_POINTS)
def test_chordal_distance_matches_unit_sphere(p):
    rng = np.random.default_rng(7)
    others = _SPHERE_POINTS + [ExtendedComplex(complex(*rng.normal(size=2)) * 10.0 ** e)
                               for e in rng.uniform(-6, 6, size=40)]
    for q in others:
        want = float(np.linalg.norm(p.unit_sphere() - q.unit_sphere()))
        assert type(chordal_distance(p, q)) is float
        assert abs(chordal_distance(p, q) - want) < 1e-15
    assert chordal_distance(p, p) == 0.0


def test_tau_and_antipode_on_python_scalars():
    for v in (0.3 - 0.7j, -2.0, 3):
        assert ExtendedComplex(v).antipode().value == -1.0 / complex(v).conjugate()
        assert type(ExtendedComplex(v).antipode().value) is complex
    assert ExtendedComplex(0j).antipode() is INFINITY
    assert INFINITY.antipode() == ExtendedComplex(0j)
