"""Moduli-space metrics: connection, curvature engine, Kahler gauges."""

import math

import numpy as np
import pytest

from monogeom import moduli as md
from monogeom.hyperbolic import ORIGIN, MultiCenterPotential, PointUHS
from monogeom.projective import INFINITY, ExtendedComplex

RNG = np.random.default_rng(42)

ONE_CENTER = MultiCenterPotential.for_su2_charge1(
    [PointUHS(0.3, -0.2, 1.4)], [1], mass=0.5)
TWO_CENTER = MultiCenterPotential(1.3, (PointUHS(0.0, 0.0, 1.0),
                                        PointUHS(0.9, 0.4, 0.7)), (1, 2))
FLAT = MultiCenterPotential(1.0, (), ())


def sample_point(V, rng, theta=True):
    while True:
        p = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                      rng.uniform(0.5, 2.0),
                      rng.uniform(0, 2 * math.pi) if theta else 0.0])
        if all(md.hyp.dist(c, p[:3]) > 0.5 for c in V.centers):
            return p


# ---------------------------------------------------------------------------
# Dirac connection
# ---------------------------------------------------------------------------

def test_dirac_curvature_identity():
    for V in (ONE_CENTER, TWO_CENTER):
        conn = md.DiracConnection(V)
        for _ in range(6):
            p = sample_point(V, RNG)[:3]
            c = conn.with_patches_for(p)
            assert md.dirac_curvature_residual(c, p) < 1e-8


def test_dirac_patch_difference_is_pure_gauge():
    # the curvature identity holds in either patch where both apply, and
    # the patch difference is a closed form (zero numerical curl)
    V = ONE_CENTER
    north = md.DiracConnection(V, patches=[-1])
    south = md.DiracConnection(V, patches=[+1])
    p = np.array([1.2, 0.3, 1.4])
    # equatorial-ish point: both strings are safely away
    assert abs(north.cos_polar(p, 0)) < 0.9
    dn = md.dirac_curvature_residual(north, p)
    ds = md.dirac_curvature_residual(south, p)
    assert dn < 1e-8 and ds < 1e-8

    from monogeom.numdiff import derivatives
    diff = lambda q: north(q) - south(q)
    h = 1e-4 * p[2]
    dA = derivatives(diff, p, (h,))[0].d1
    curl = np.array([dA[1, 2] - dA[2, 1], dA[2, 0] - dA[0, 2], dA[0, 1] - dA[1, 0]])
    assert np.max(np.abs(curl)) < 1e-8


def test_dirac_string_detection():
    V = ONE_CENTER
    conn = md.DiracConnection(V, patches=[-1])
    # walk along the south polar ray of the center: the north-patch string
    from monogeom.hyperbolic import orthonormal_frame_at, point_at
    E = orthonormal_frame_at(V.centers[0])
    bad = point_at(V.centers[0], -E[2], 0.7)
    with pytest.raises(ZeroDivisionError):
        conn(bad.as_array())
    ok = conn.with_patches_for(bad.as_array())
    ok(bad.as_array())


def test_gauge_independence_of_curvature():
    V = ONE_CENTER
    p4 = np.array([1.2, 0.3, 1.4, 0.5])
    reps = []
    for patch in (-1, +1):
        conn = md.DiracConnection(V, patches=[patch])
        reps.append(md.curvature(md.gibbons_hawking_metric(V, conn), p4))
    assert abs(reps[0].scalar - reps[1].scalar) < 1e-8
    assert abs(reps[0].weyl_sd_norm - reps[1].weyl_sd_norm) < 1e-8
    assert abs(reps[0].weyl_asd_norm - reps[1].weyl_asd_norm) < 1e-8


# ---------------------------------------------------------------------------
# metric samplers
# ---------------------------------------------------------------------------

def test_metric_asd_flat_components():
    p = md.MFramePoint(0.5, -0.3, 1.1, 0.2)
    g = md.metric_asd(FLAT, md.DiracConnection(FLAT), p)
    want = np.zeros((4, 4))
    want[:3, :3] = np.eye(3) / p.z ** 2
    want[3, 3] = 1.0
    assert np.allclose(g, want, atol=1e-14)


def test_metric_asd_symmetric_positive():
    V = TWO_CENTER
    conn = md.DiracConnection(V)
    for _ in range(6):
        p4 = sample_point(V, RNG)
        g = md.metric_asd(V, conn, md.MFramePoint(*p4))
        assert np.allclose(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_metric_asd_weyl_antiselfdual():
    V = ONE_CENTER
    conn = md.DiracConnection(V)
    for _ in range(4):
        p4 = sample_point(V, RNG)
        c = conn.with_patches_for(p4[:3])
        rep = md.curvature(md.gibbons_hawking_metric(V, c), p4)
        assert rep.weyl_sd_norm < 1e-4
        assert rep.weyl_asd_norm > 1e-3  # genuinely curved on the other side


# ---------------------------------------------------------------------------
# curvature engine fixtures
# ---------------------------------------------------------------------------

def test_flat_fixture_riemann():
    conn = md.DiracConnection(FLAT)
    g = md.kahler_structure(FLAT, conn, INFINITY).metric
    for _ in range(3):
        p4 = sample_point(FLAT, RNG)
        rep = md.curvature(g, p4)
        assert rep.riemann_norm < 1e-5
        assert abs(rep.scalar) < 1e-5


def test_round_sphere_product_oracle():
    a = 1.3
    def metric(x):
        return np.diag([a * a, a * a * math.sin(x[0]) ** 2, 1.0, 1.0])
    rep = md.curvature(metric, np.array([1.2, 0.4, 0.0, 0.0]), step=1e-3)
    assert rep.scalar == pytest.approx(2.0 / a ** 2, abs=1e-6)
    assert rep.ricci_norm == pytest.approx(math.sqrt(2.0) / a ** 2, abs=1e-6)


def test_hyperbolic_times_circle_oracle():
    # V = 1 unrescaled: the base times a flat circle, scalar -6
    conn = md.DiracConnection(FLAT)
    g = md.gibbons_hawking_metric(FLAT, conn)
    rep = md.curvature(g, np.array([0.2, 0.4, 1.3, 0.1]))
    assert rep.scalar == pytest.approx(-6.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Kahler gauges
# ---------------------------------------------------------------------------

def test_kahler_form_components():
    V = ONE_CENTER
    gauge = md.kahler_structure(V, md.DiracConnection(V), INFINITY)
    p4 = sample_point(V, RNG)
    v = float(gauge.V.value(p4[:3]))
    A = gauge.conn(p4[:3])
    E = np.array([A[0], A[1], A[2], 1.0])
    ex = np.eye(4)
    want = -(v * (np.outer(ex[0], ex[1]) - np.outer(ex[1], ex[0]))
             + p4[2] * (np.outer(ex[2], E) - np.outer(E, ex[2])))
    Om = gauge.kahler_form(p4)
    assert np.allclose(Om, want, atol=1e-12)
    assert Om[0, 1] == pytest.approx(-v)
    assert Om[2, 3] == pytest.approx(-p4[2])


def test_complex_structure_algebra():
    V = TWO_CENTER
    gauge = md.kahler_structure(V, md.DiracConnection(V), INFINITY)
    for _ in range(5):
        p4 = sample_point(gauge.V, RNG)
        J = gauge.complex_structure(p4)
        assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12
        g = gauge.metric(p4)
        assert np.max(np.abs(J.T @ g @ J - g)) < 1e-12


def test_scalar_flat_twenty_sample_points():
    V = ONE_CENTER
    gauge = md.kahler_structure(V, md.DiracConnection(V), INFINITY)
    rng = np.random.default_rng(7)
    for _ in range(20):
        p4 = sample_point(gauge.V, rng)
        assert abs(md.curvature(gauge.metric, p4).scalar) < 1e-4


def test_scalar_flat_and_closed_over_gauges():
    V = ONE_CENTER
    conn = md.DiracConnection(V)
    for u in (INFINITY, ExtendedComplex(0j), ExtendedComplex(0.7 - 0.4j)):
        gauge = md.kahler_structure(V, conn, u)
        for _ in range(2):
            p4 = sample_point(gauge.V, RNG)
            rep = md.curvature(gauge.metric, p4)
            assert abs(rep.scalar) < 1e-4
            assert md.dOmega_residual(gauge.kahler_form, p4) < 1e-6
            assert md.nijenhuis_residual(gauge.complex_structure, p4) < 1e-6


def test_flat_gauge_closed_and_integrable_tight():
    gauge = md.kahler_structure(FLAT, md.DiracConnection(FLAT), INFINITY)
    p4 = np.array([0.2, -0.5, 1.3, 0.8])
    assert md.dOmega_residual(gauge.kahler_form, p4) < 1e-10
    assert md.nijenhuis_residual(gauge.complex_structure, p4) < 1e-10


def test_dOmega_residual_second_order_in_step():
    V = ONE_CENTER
    gauge = md.kahler_structure(V, md.DiracConnection(V), INFINITY)
    p4 = np.array([0.9, 0.6, 1.2, 0.0])
    # put a deliberately non-closed perturbation on top to expose the
    # truncation order of the operator itself
    def not_closed(q):
        Om = gauge.kahler_form(q)
        Om = Om.copy()
        Om[0, 2] += math.sin(q[1]) * 0.1
        Om[2, 0] -= math.sin(q[1]) * 0.1
        return Om
    r1 = md.dOmega_residual(not_closed, p4, step=2e-2)
    r2 = md.dOmega_residual(not_closed, p4, step=1e-2)
    base = abs(0.1 * math.cos(p4[1]))
    assert abs(r1 - base) / abs(r2 - base) == pytest.approx(4.0, rel=0.2)


# ---------------------------------------------------------------------------
# abelian charge and duality identities
# ---------------------------------------------------------------------------

def test_abelian_charge_recovery():
    V = MultiCenterPotential(0.9, (PointUHS(0, 0, 1), PointUHS(1.2, 0.1, 0.8)), (3, 1))
    assert md.abelian_charge(V, 0) == pytest.approx(3.0, abs=1e-3)
    assert md.abelian_charge(V, 1) == pytest.approx(1.0, abs=1e-3)
    # the constant part does not move the limit
    V2 = MultiCenterPotential(7.3, V.centers, V.charges)
    assert md.abelian_charge(V2, 0) == pytest.approx(3.0, abs=1e-3)


def test_hodge_identities():
    V = TWO_CENTER
    conn = md.DiracConnection(V)
    for _ in range(4):
        p4 = sample_point(V, RNG)
        c = conn.with_patches_for(p4[:3])
        assert md.hodge_identity_residuals(V, c, p4) < 1e-10
    flat_conn = md.DiracConnection(FLAT)
    assert md.hodge_identity_residuals(FLAT, flat_conn,
                                       np.array([0.1, 0.2, 1.1, 0.0])) < 1e-12


def test_hodge_identities_negative_control():
    # perturbing the connection 1-form used in the pairing (but not the
    # one inside the metric) by a non-closed form must break the identities
    V = TWO_CENTER
    p4 = sample_point(V, RNG)
    conn = md.DiracConnection(V).with_patches_for(p4[:3])
    broken = md.DiracConnection(V, patches=conn.patches,
                                extra=lambda p: np.array([0.0, 0.3 * p[0], 0.0]))
    assert md.hodge_identity_residuals(V, conn, p4, pairing_conn=broken) > 1e-2


def test_conformal_gauge_factor():
    V = ONE_CENTER
    conn = md.DiracConnection(V)
    p4 = sample_point(V, RNG)
    u1 = ExtendedComplex(0.3 + 0.5j)
    u2 = ExtendedComplex(-1.2 + 0.1j)
    same, resid = md.conformal_gauge_factor(u1, u1, V, conn, p4)
    assert same == pytest.approx(1.0, abs=1e-14)
    assert resid < 1e-12
    factor, resid = md.conformal_gauge_factor(u1, u2, V, conn, p4)
    b1 = md.hyp.busemann(u1, ORIGIN, PointUHS.from_array(p4[:3]))
    b2 = md.hyp.busemann(u2, ORIGIN, PointUHS.from_array(p4[:3]))
    assert factor == pytest.approx(math.exp(2 * (b1 - b2)), rel=1e-12)
    assert resid < 1e-10