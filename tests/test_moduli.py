"""Moduli-space metrics: connection, curvature engine, Kahler gauges."""

import math

import mpmath
import numpy as np
import pytest

from monogeom import diffgeo
from monogeom import moduli as md
from monogeom.hyperbolic import MultiCenterPotential, PointUHS
from monogeom.numdiff import pointwise
from monogeom.projective import INFINITY, ExtendedComplex

RNG = np.random.default_rng(42)

ONE_CENTER = MultiCenterPotential.for_su2_charge1(
    [PointUHS(0.3, -0.2, 1.4)], [1], mass=0.5)
TWO_CENTER = MultiCenterPotential(1.3, (PointUHS(0.0, 0.0, 1.0),
                                        PointUHS(0.9, 0.4, 0.7)), (1, 2))
THREE_CENTER = MultiCenterPotential(2.0, (PointUHS(0, 0, 1.2), PointUHS(-0.8, 0.3, 0.8),
                                          PointUHS(0.5, -0.9, 1.6)), (1, 1, 2))
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
    dA = derivatives(diff, p, h).d1
    curl = np.array([dA[1, 2] - dA[2, 1], dA[2, 0] - dA[0, 2], dA[0, 1] - dA[1, 0]])
    assert np.max(np.abs(curl)) < 1e-8


def test_cos_polar_next_to_center():
    # sh from sqrt(ch^2 - 1) read 1.2e-4 off at 1e-6 and 9e141 at 1e-8
    from monogeom.hyperbolic import orthonormal_frame_at, point_at
    c = ONE_CENTER.centers[0]
    conn = md.DiracConnection(ONE_CENTER)
    E = orthonormal_frame_at(c)
    angle = 1.1
    direction = math.cos(angle) * E[2] + math.sin(angle) * E[0]
    near = point_at(c, direction, 1e-6).as_array()
    assert abs(conn.cos_polar(near, 0) - math.cos(angle)) <= 1e-8
    nearer = point_at(c, direction, 1e-8).as_array()
    assert abs(conn.cos_polar(nearer, 0)) <= 1.0


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


def test_connection_applies_per_point_extra_row_by_row():
    # the extra 1-form indexes p[0]: it must only ever see single points
    seen = []

    def extra(p):
        seen.append(p.shape)
        return np.array([0.0, 0.3 * p[0], -0.1 * p[1] * p[2]])
    conn = md.DiracConnection(TWO_CENTER, extra=extra).with_patches_for(
        np.array([0.4, -0.3, 1.2]))
    rng = np.random.default_rng(3)
    P = np.array([sample_point(TWO_CENTER, rng)[:3] for _ in range(5)])
    batch = conn(P)
    rows = np.array([conn(q) for q in P])
    assert seen == [(3,)] * 10
    assert batch.shape == (5, 3)
    assert np.max(np.abs(batch - rows)) <= 1e-15 * np.max(np.abs(rows))
    assert np.allclose(batch - md.DiracConnection(TWO_CENTER, conn.patches)(P),
                       [extra(q) for q in P], rtol=0, atol=1e-15)


def embed_jacobian(p):
    """d(embed)/d(x, y, z) at one point: a (4, 3) matrix."""
    x, y, z = p
    s, zz = x * x + y * y + z * z, z * z
    return np.array([[x / z, y / z, (2 * zz - (s + 1)) / (2 * zz)],
                     [1 / z, 0.0, -x / zz],
                     [0.0, 1 / z, -y / zz],
                     [x / z, y / z, (2 * zz - (s - 1)) / (2 * zz)]])


def connection_by_center_loop(conn, p):
    """Reference: the connection at one point as a loop over the centers,
    the (l/2) s (e1 de2 - e2 de1) / (sh (sh - s e3)) form term by term,
    with e_j and de_j from the hyperboloid embedding and its Jacobian."""
    X = md.hyp.embed(p)
    dX = embed_jacobian(p).T                # row k: d(embed)/dx_k
    A = np.zeros(3)
    for c, l, s in zip(conn.V.centers, conn.V.charges, conn.patches):
        E = md.hyp.orthonormal_frame_at(c)
        e1, e2, e3 = (md.hyp.mdot(X, e) for e in E)
        de1, de2 = (md.hyp.mdot(dX, e) for e in E[:2])
        sh = math.sqrt(e1 * e1 + e2 * e2 + e3 * e3)
        A += 0.5 * l * s * (e1 * de2 - e2 * de1) / (sh * (sh - s * e3))
    return A


@pytest.mark.parametrize("V", [ONE_CENTER, THREE_CENTER, FLAT], ids=["1", "3", "flat"])
def test_batched_samplers_match_single_points(V):
    gauge = md.kahler_structure(V, md.DiracConnection(V), ExtendedComplex(0.7 - 0.4j))
    rng = np.random.default_rng(5)
    P = np.array([sample_point(gauge.V, rng) for _ in range(6)])
    assert gauge.V.value(P[:, :3]).shape == (6,)
    for f, pts, shape in ((md.gibbons_hawking_metric(gauge.V, gauge.conn), P, (4, 4)),
                          (gauge.metric, P, (4, 4)),
                          (gauge.complex_structure, P, (4, 4)),
                          (gauge.kahler_form, P, (4, 4)),
                          (gauge.conn, P[:, :3], (3,))):
        rows = np.array([f(q) for q in pts])
        batch = f(pts)
        assert batch.shape == rows.shape == (6,) + shape
        assert np.max(np.abs(batch - rows)) <= 1e-15 * np.max(np.abs(rows))
        assert f(pts.reshape((2, 3, -1))).shape == (2, 3) + shape
    # the batched connection against the loop over centers, to rounding
    loop = np.array([connection_by_center_loop(gauge.conn, q[:3]) for q in P])
    assert np.max(np.abs(gauge.conn(P[:, :3]) - loop)) <= 1e-14 * max(np.max(np.abs(loop)), 1)


def points_off_center(conn, i, rho, off):
    """Points at distance rho from center i whose polar angle is `off`
    from the string of the connection's patch, in two azimuths."""
    c = conn.V.centers[i]
    E = md.hyp.orthonormal_frame_at(c)
    polar = math.pi - off if conn.patches[i] == -1 else off
    return [md.hyp.point_at(c, math.cos(polar) * E[2] + math.sin(polar)
                            * (math.cos(phi) * E[0] + math.sin(phi) * E[1]), rho).as_array()
            for phi in (0.0, 1.0)]


@pytest.fixture(scope="module")
def three_center_gauge():
    return md.kahler_structure(THREE_CENTER, md.DiracConnection(THREE_CENTER),
                               ExtendedComplex(0.7 - 0.4j))


def frame_condition(conn, q):
    """|X| / min over centers of (sh - s e3): the loop reference forms the
    frame components e_j as sums of terms of size |X| (the hyperboloid
    vector), and the connection divides by sh (sh - s e3), so a relative
    error of about eps times this reaches the reference's A."""
    X = md.hyp.embed(q)
    gaps = []
    for c, s in zip(conn.V.centers, conn.patches):
        e1, e2, e3 = (md.hyp.mdot(X, e) for e in md.hyp.orthonormal_frame_at(c))
        gaps.append(math.sqrt(e1 * e1 + e2 * e2 + e3 * e3) - s * e3)
    return np.max(np.abs(X)) / min(gaps)


def test_connection_next_to_strings_and_centers(three_center_gauge):
    # 0.1 off each string, where |A| reaches 30-120 (1-9 away from it),
    # and 1e-6 from each center, where it reaches 1e5-1e7
    conn = three_center_gauge.conn
    tube = [q for i in range(3) for rho in (0.3, 0.6) for q in points_off_center(conn, i, rho, 0.1)]
    near = [q for i in range(3) for off in (0.5, 2.0) for q in points_off_center(conn, i, 1e-6, off)]
    for P, big in ((np.array(tube), 30), (np.array(near), 1e5)):
        batch = conn(P)
        rows = np.array([conn(q) for q in P])
        assert np.max(np.abs(rows)) > big
        assert np.max(np.abs(batch - rows)) <= 1e-15 * np.max(np.abs(rows))
        for q, a in zip(P, batch):
            loop = connection_by_center_loop(conn, q)
            bound = 1e-14 * max(frame_condition(conn, q), 1.0) * np.max(np.abs(loop))
            assert np.max(np.abs(a - loop)) <= bound


def green_sum(V, P):
    return np.array([V.lam + sum(l * md.hyp.green(c, q) for c, l in zip(V.centers, V.charges))
                     for q in P])


def test_potential_matches_green_sum(three_center_gauge):
    rng = np.random.default_rng(8)
    for V in (ONE_CENTER, TWO_CENTER, THREE_CENTER, FLAT):
        P = np.array([sample_point(V, rng)[:3] for _ in range(7)])
        assert np.max(np.abs(V.value(P) - green_sum(V, P)) / green_sum(V, P)) <= 1e-15
        assert V.value(md.hyp.PointUHS(*P[0])) == pytest.approx(green_sum(V, P[:1])[0], rel=1e-15)
    # 1e-6 from each center, and the pole itself
    conn, V = three_center_gauge.conn, three_center_gauge.V
    P = np.array([q for i in range(3) for off in (0.5, 2.0)
                  for q in points_off_center(conn, i, 1e-6, off)])
    assert np.max(np.abs(V.value(P) - green_sum(V, P)) / green_sum(V, P)) <= 1e-15
    assert np.array_equal(V.value(P), [V.value(q) for q in P])
    for c in V.centers:
        with pytest.raises(ZeroDivisionError):
            V.value(c)
        with pytest.raises(ZeroDivisionError):
            V.value(np.array([[0.1, 0.2, 1.0], c.as_array()]))


def mp_potential(V, q):
    """lambda + sum l / (e^{2 rho} - 1) at 40 digits, rho from the float
    coordinates of q through the cancellation-free 2 asinh(|q - c| / (2 sqrt(z_q z_c)))."""
    with mpmath.workdps(40):
        total = mpmath.mpf(V.lam)
        for c, l in zip(V.centers, V.charges):
            d2 = sum((mpmath.mpf(float(a)) - b) ** 2 for a, b in zip(q, c.as_array()))
            rho = 2 * mpmath.asinh(mpmath.sqrt(d2 / (4 * mpmath.mpf(float(q[2])) * c.z)))
            total += l / mpmath.expm1(2 * rho)
        return float(total)


@pytest.mark.parametrize("lam", [0.0, 1.3])
def test_potential_from_the_frame_matches_mpmath(lam):
    # the sampler's V, read from sinh rho = |e| of the Dirac frame, from 1e-8
    # off a center out to rho = 30, in six directions off the strings: against
    # 40 digits and against MultiCenterPotential.value, both from G of sinh^2 rho
    V = MultiCenterPotential(lam, (PointUHS(0.2, -0.1, 0.9), PointUHS(0.9, 0.4, 0.7)), (1, 2))
    conn = md.DiracConnection(V)
    c = V.centers[0]
    E = md.hyp.orthonormal_frame_at(c)
    P = np.array([md.hyp.point_at(c, math.cos(polar) * E[2] + math.sin(polar) * (
        math.cos(phi) * E[0] + math.sin(phi) * E[1]), rho).as_array()
        for rho in np.geomspace(1e-8, 30.0, 25) for polar in (0.6, 1.6) for phi in (0, 2, 4)])
    v = conn._local_data(P)[0]
    want = np.array([mp_potential(V, q) for q in P])
    assert np.max(np.abs(v - want) / want) <= 1e-15           # read 5.4e-16 twice
    assert np.max(np.abs(V.value(P) - want) / want) <= 1e-15  # read 4.3e-16 and 4.4e-16
    assert np.max(np.abs(v - V.value(P)) / want) <= 1e-15     # read 6.0e-16 and 5.4e-16
    assert np.max(want) > 1e7 and (lam > 0 or np.min(want) < 1e-20)


@pytest.mark.parametrize("extra", [None, lambda p: np.array([0.0, 0.05 * p[0], 0.0])],
                         ids=["exact", "nonclosed"])
def test_kahler_form_closed_form_is_transpose_j_times_g(extra):
    # Omega = v (dy dx - dx dy) + z (omega dz - dz omega) is J^T g written out,
    # for any connection, so also with a negative control's extra 1-form
    gauge = md.kahler_structure(THREE_CENTER, md.DiracConnection(THREE_CENTER, extra=extra),
                                ExtendedComplex(0.7 - 0.4j))
    rng = np.random.default_rng(11)
    P = np.array([sample_point(gauge.V, rng) for _ in range(12)])
    want = np.einsum("...ji,...jk->...ik", gauge.complex_structure(P), gauge.metric(P))
    got = gauge.kahler_form(P)
    scale = np.max(np.abs(want), axis=(-2, -1))[:, None, None]
    assert np.max(np.abs(got - want) / scale) <= 1e-14


def test_one_frame_pass_per_sampler_call(three_center_gauge, monkeypatch):
    # V and A come from one `_frame` pass; neither `dist` nor V.value runs
    gauge = three_center_gauge
    samplers = (gauge.metric, gauge.complex_structure, gauge.kahler_form,
                md.gibbons_hawking_metric(gauge.V, gauge.conn))
    passes = []
    frame = md.DiracConnection._frame

    def counted(self, p):
        passes.append(p.shape)
        return frame(self, p)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second distance pass")

    rng = np.random.default_rng(3)
    P = np.array([sample_point(gauge.V, rng) for _ in range(5)])
    monkeypatch.setattr(md.DiracConnection, "_frame", counted)
    monkeypatch.setattr(md.hyp, "dist", forbidden)
    monkeypatch.setattr(MultiCenterPotential, "value", forbidden)
    for f in samplers:
        f(P)
        f(P[0])
    assert passes == [(5, 3), (3,)] * len(samplers)


def test_samplers_refuse_a_connection_on_another_potential():
    # the samplers read V from the connection; an equal copy of V is accepted
    conn = md.DiracConnection(TWO_CENTER)
    p4 = np.array([0.4, -0.6, 1.5, 0.3])
    with pytest.raises(ValueError, match="different potential"):
        md.gibbons_hawking_metric(ONE_CENTER, conn)
    with pytest.raises(ValueError, match="different potential"):
        md.kahler_structure(ONE_CENTER, conn, INFINITY)
    with pytest.raises(ValueError, match="different potential"):
        md.hodge_identity_residuals(ONE_CENTER, conn, p4)
    copy = MultiCenterPotential(TWO_CENTER.lam, TWO_CENTER.centers, TWO_CENTER.charges)
    assert np.array_equal(md.gibbons_hawking_metric(copy, conn)(p4),
                          md.gibbons_hawking_metric(TWO_CENTER, conn)(p4))
    assert md.kahler_structure(copy, conn, INFINITY).V == md.kahler_structure(
        TWO_CENTER, conn, INFINITY).V


def test_connection_raises_at_centers(three_center_gauge):
    # at a center the frame components are rounding residues of about
    # 1e-16, so dividing by them would give components of 1e14-1e16; V
    # raises there too
    conn, V = three_center_gauge.conn, three_center_gauge.V
    for i, c in enumerate(V.centers):
        with pytest.raises(ZeroDivisionError, match="center"):
            conn(c.as_array())
        with pytest.raises(ZeroDivisionError, match="center"):
            conn(np.array([[0.1, 0.2, 1.0], c.as_array()]))
        near = np.array(points_off_center(conn, i, 1e-6, 0.5))
        assert np.all(np.isfinite(conn(near)))


# a center next to the boundary, far from O: its hyperboloid vector reaches 163
SHALLOW = MultiCenterPotential(2.0, (PointUHS(0, 0, 1.2), PointUHS(-0.8, 0.3, 0.8),
                                     PointUHS(3.3, -2.1, 0.05)), (1, 1, 2))


def test_connection_raises_at_every_center():
    # the frame components, formed from p - p_c, are exactly 0 at a center; the
    # affine form in p left rounding residues, and returned 1e9-1e11 at (3.3, -2.1, 0.05)
    for V in (ONE_CENTER, TWO_CENTER, THREE_CENTER, SHALLOW):
        for patch in (-1, +1):
            conn = md.DiracConnection(V, [patch] * len(V.centers))
            for c in V.centers:
                with pytest.raises(ZeroDivisionError, match="center"):
                    conn(c.as_array())


def connection_mpmath(conn, p):
    """Reference at 40 digits: the connection at one point, the centers' frames
    by Gram-Schmidt as `orthonormal_frame_at` builds them, and e_j, de_j as
    Minkowski pairings with the embedding and its Jacobian."""
    import mpmath

    with mpmath.workdps(40):
        def embed(x, y, z):
            s = x * x + y * y + z * z
            return [(s + 1) / (2 * z), x / z, y / z, (s - 1) / (2 * z)]

        def mdot(a, b):
            return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]

        x, y, z = map(mpmath.mpf, p)
        s, X = x * x + y * y + z * z, embed(x, y, z)
        dX = [[x / z, 1 / z, 0, x / z], [y / z, 0, 1 / z, y / z],
              [1 - (s + 1) / (2 * z * z), -x / (z * z), -y / (z * z), 1 - (s - 1) / (2 * z * z)]]
        A = [mpmath.mpf(0)] * 3
        for c, l, sign in zip(conn.V.centers, conn.V.charges, conn.patches):
            P, E = embed(*map(mpmath.mpf, c.as_array())), []
            for k in (1, 2, 3):
                v = [mpmath.mpf(k == m) for m in range(4)]
                for u in [P] + E:
                    t = mdot(v, u) * (1 if u is P else -1)
                    v = [a + t * b for a, b in zip(v, u)]
                E.append([a / mpmath.sqrt(mdot(v, v)) for a in v])
            e1, e2, e3 = (mdot(X, e) for e in E)
            sh = mpmath.sqrt(e1 * e1 + e2 * e2 + e3 * e3)
            for k in range(3):
                de1, de2 = mdot(dX[k], E[0]), mdot(dX[k], E[1])
                A[k] += l * sign * (e1 * de2 - e2 * de1) / (2 * sh * (sh - sign * e3))
        return np.array([float(a) for a in A])


def test_connection_next_to_centers_matches_mpmath():
    # 1e-1 to 1e-8 z_c from each center of SHALLOW; the affine form in p
    # read up to 2.2e-2 relative there, the form in p - p_c reads 1.1e-10
    conn, rng, worst = md.DiracConnection(SHALLOW), np.random.default_rng(4), 0.0
    for c in SHALLOW.centers:
        for r in 10.0 ** -np.arange(1, 9):
            for u in rng.normal(size=(2, 3)):
                p = c.as_array() + r * c.z * u / np.linalg.norm(u)
                local = conn.with_patches_for(p)
                want = connection_mpmath(local, p)
                worst = max(worst, np.max(np.abs(local(p) - want)) / np.max(np.abs(want)))
    assert worst <= 1e-9


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
    p4 = np.array([0.5, -0.3, 1.1, 0.2])
    conn = md.DiracConnection(FLAT).with_patches_for(p4[:3])
    g = md.gibbons_hawking_metric(FLAT, conn)(p4)
    want = np.zeros((4, 4))
    want[:3, :3] = np.eye(3) / p4[2] ** 2
    want[3, 3] = 1.0
    assert np.allclose(g, want, atol=1e-14)


def test_metric_asd_symmetric_positive():
    V = TWO_CENTER
    conn = md.DiracConnection(V)
    for _ in range(6):
        p4 = sample_point(V, RNG)
        g = md.gibbons_hawking_metric(V, conn.with_patches_for(p4[:3]))(p4)
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


def kulkarni_nomizu(h, k):
    return (np.einsum("ac,bd->abcd", h, k) + np.einsum("ac,bd->abcd", k, h)
            - np.einsum("ad,bc->abcd", h, k) - np.einsum("ad,bc->abcd", k, h))


def test_frame_norms_match_four_index_contraction():
    # algebraic curvature tensors as sums of Kulkarni-Nomizu products of
    # random symmetric matrices, read through every index in the coframe
    rng = np.random.default_rng(1919)
    eye = np.eye(4)
    identity = 0.5 * kulkarni_nomizu(eye, eye)       # the identity on 2-forms
    eps = diffgeo.levi_civita_symbol(4)
    def compose(s, t):                               # operators on 2-forms
        return 0.5 * np.einsum("abef,efcd->abcd", s, t)
    proj = [0.5 * (identity + eps), 0.5 * (identity - eps)]
    rows, cols = np.array(diffgeo._FRAME_PAIRS).T
    for _ in range(40):
        m = rng.normal(size=(4, 4))
        g = m @ m.T + 0.3 * eye
        R = sum(kulkarni_nomizu(h + h.T, k + k.T) for h, k in rng.normal(size=(3, 2, 4, 4)))
        F = diffgeo.orthonormal_coframe(g)
        Rf = np.einsum("mnpq,ma,nb,pc,qd->abcd", R, F, F, F, F)
        ricci = np.einsum("abad->bd", Rf)
        scal = np.trace(ricci)
        W = Rf - 0.5 * kulkarni_nomizu(ricci, eye) + scal / 12.0 * kulkarni_nomizu(eye, eye)
        sd, asd = (0.5 * np.linalg.norm(compose(compose(p, W), p)) for p in proj)
        want = (np.linalg.norm(ricci), sd, asd, np.linalg.norm(Rf))
        got = diffgeo._frame_norms(g, R[rows[:, None], cols[:, None], rows, cols])
        assert got[0] == pytest.approx(scal, rel=1e-13, abs=1e-13 * want[-1])
        assert got[1:] == pytest.approx(want, rel=1e-13)


def closed_form_report(metric, p4, scalar, ricci, weyl_sd, weyl_asd, riemann):
    # the engine itself: md.curvature takes points of the total space (z > 0)
    rep = diffgeo.curvature_report(pointwise(metric), np.array(p4), 1e-3)
    got = (rep.scalar, rep.ricci_norm, rep.weyl_sd_norm, rep.weyl_asd_norm, rep.riemann_norm)
    assert got == pytest.approx((scalar, ricci, weyl_sd, weyl_asd, riemann), abs=1e-6)


def test_round_sphere_product_oracle():
    # S^2(a) x R^2: one sectional curvature 1/a^2, Ricci diag(1, 1, 0, 0)/a^2
    # in a frame, and W+ = W- = diag(2, -1, -1)/(6 a^2) on Lambda^+ and Lambda^-
    a = 1.3
    closed_form_report(lambda x: np.diag([a * a, a * a * math.sin(x[0]) ** 2, 1.0, 1.0]),
                       [1.2, 0.4, 0.0, 0.0], 2.0 / a ** 2, math.sqrt(2.0) / a ** 2,
                       1.0 / (math.sqrt(6.0) * a ** 2), 1.0 / (math.sqrt(6.0) * a ** 2),
                       2.0 / a ** 2)


def test_hyperbolic_four_space_oracle():
    # H^4 as delta/w^2 (w the third coordinate): sectional curvature -1,
    # Ric = -3 g, conformally flat
    closed_form_report(lambda x: np.eye(4) / x[2] ** 2, [0.3, -0.2, 1.1, 0.5],
                       -12.0, 6.0, 0.0, 0.0, math.sqrt(24.0))


def test_sphere_times_hyperbolic_plane_oracle():
    # S^2 x H^2 with curvatures +1 and -1: scalar-flat and conformally flat,
    # Ricci diag(1, 1, -1, -1) in a frame
    closed_form_report(lambda x: np.diag([1.0, math.sin(x[0]) ** 2, x[2] ** -2, x[2] ** -2]),
                       [1.2, 0.4, 0.9, 0.3], 0.0, 2.0, 0.0, 0.0, math.sqrt(8.0))


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
    @pointwise
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


def test_levi_civita_symbol_built_once_read_only():
    from monogeom.diffgeo import levi_civita_symbol
    eps = levi_civita_symbol(4)
    assert levi_civita_symbol(4) is eps and not eps.flags.writeable
    assert eps[0, 1, 2, 3] == 1.0 and eps[1, 0, 2, 3] == -1.0 and eps[3, 0, 1, 2] == -1.0
    assert np.sum(np.abs(eps)) == 24 and np.sum(np.abs(levi_civita_symbol(3))) == 6


def test_hodge_identities_negative_control():
    # perturbing the connection 1-form used in the pairing (but not the
    # one inside the metric) by a non-closed form must break the identities
    V = TWO_CENTER
    p4 = sample_point(V, RNG)
    conn = md.DiracConnection(V).with_patches_for(p4[:3])
    broken = md.DiracConnection(V, patches=conn.patches,
                                extra=lambda p: np.array([0.0, 0.3 * p[0], 0.0]))
    assert md.hodge_identity_residuals(V, conn, p4, pairing_conn=broken) > 1e-2


def test_residuals_keep_a_nan():
    # both once reduced with the builtin max, which keeps a number over a
    # NaN that comes after it: these read 0.0 and a finite residual
    conn = md.DiracConnection(ONE_CENTER).with_patches_for(np.array([0.9, 0.6, 1.2]))
    p4 = np.array([0.9, 0.6, 1.2, 0.3])
    assert math.isnan(md.hodge_identity_residuals(
        ONE_CENTER, conn, p4, pairing_conn=lambda p: np.array([np.nan, 0.0, 0.0])))
    gauge = md.kahler_structure(ONE_CENTER, conn, INFINITY)

    @pointwise
    def nan_in_dtheta(q):
        # NaN in the (x, theta) entries only: the first cyclic sum, over
        # (x, y, z), stays finite and the second is NaN
        Om = gauge.kahler_form(q).copy()
        Om[0, 3] = Om[3, 0] = math.nan
        return Om
    assert math.isnan(md.dOmega_residual(nan_in_dtheta, p4))

