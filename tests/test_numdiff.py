"""The stencil engine: exactness on polynomials and one sample per point."""

import itertools

import numpy as np
import pytest

from monogeom import diffgeo
from monogeom import hyperbolic as hyp
from monogeom import moduli as md
from monogeom import numdiff
from monogeom.hyperbolic import MultiCenterPotential, PointUHS
from monogeom.numdiff import WEIGHTS, Jet, derivatives, holo_partial, pointwise
from oracles import wirtinger
from monogeom.projective import INFINITY


class Counting:
    """Sampler wrapper recording the rows of every call and every point
    (row) it is asked for."""

    def __init__(self, f):
        self.f = f
        self.calls = []
        self.points = []

    def __call__(self, x):
        rows = np.asarray(x, dtype=float).reshape(-1, np.shape(x)[-1])
        self.calls.append(len(rows))
        self.points.extend(r.tobytes() for r in rows)
        return self.f(x)


def random_polynomial(rng, n, degree):
    """A polynomial of total degree `degree` in n variables with its exact
    gradient and Hessian."""
    exps = [e for e in np.ndindex(*(degree + 1,) * n) if sum(e) <= degree]
    coef = rng.normal(size=len(exps))
    exps = np.array(exps)

    def p(x):
        return float(coef @ np.prod(x ** exps, axis=1))

    def grad(x):
        out = np.zeros(n)
        for i in range(n):
            e = exps.copy()
            c = coef * e[:, i]
            e[:, i] = np.maximum(e[:, i] - 1, 0)
            out[i] = c @ np.prod(x ** e, axis=1)
        return out

    def hess(x):
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                e = exps.copy()
                c = coef * e[:, i]
                e[:, i] = np.maximum(e[:, i] - 1, 0)
                c = c * e[:, j]
                e[:, j] = np.maximum(e[:, j] - 1, 0)
                out[i, j] = c @ np.prod(x ** e, axis=1)
        return out

    return pointwise(p), grad, hess


@pytest.mark.parametrize("second", ["diag", "full"])
def test_fourth_order_stencils_exact_on_quartics(second):
    rng = np.random.default_rng(11)
    for _ in range(3):
        p, grad, hess = random_polynomial(rng, 3, 4)
        x = rng.uniform(-1.0, 1.0, size=3)
        H = hess(x)
        for h in (0.1, 0.05):
            jet = derivatives(p, x, h, second=second)
            assert jet.value == p(x)
            assert np.max(np.abs(jet.d1 - grad(x))) < 1e-11
            want = np.diag(H) if second == "diag" else H
            assert np.max(np.abs(jet.d2 - want)) < 1e-9


def test_second_order_stencil_exact_on_quadratics():
    rng = np.random.default_rng(12)
    p, grad, _ = random_polynomial(rng, 4, 2)
    x = rng.uniform(-1.0, 1.0, size=4)
    jet = derivatives(p, x, 0.1, order=2)
    assert jet.value == p(x) and jet.d2 is None
    assert np.max(np.abs(jet.d1 - grad(x))) < 1e-12


def test_stencils_not_exact_on_higher_degrees():
    # the exactness tests above have teeth: a sextic (a cubic for the
    # 2nd-order stencil) shows the truncation error of each stencil
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, size=2)
    p5, grad5, hess5 = random_polynomial(rng, 2, 6)
    jet = derivatives(p5, x, 0.1, second="full")
    assert np.max(np.abs(jet.d1 - grad5(x))) > 1e-6
    assert np.max(np.abs(jet.d2 - hess5(x))) > 1e-6
    p3, grad3, _ = random_polynomial(rng, 2, 3)
    jet = derivatives(p3, x, 0.1, order=2)
    assert np.max(np.abs(jet.d1 - grad3(x))) > 1e-6


def test_sixth_order_exact_to_degree_six_and_seven():
    # the pairing of h and h/2 cancels the h^4 terms of the 4th-order
    # stencils: first derivatives are exact to degree 6, second ones to
    # degree 7, and neither one degree up
    rng = np.random.default_rng(14)
    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=2)
        jets = {}
        for degree in (6, 7, 8):
            p, grad, hess = random_polynomial(rng, 2, degree)
            jet = derivatives(p, x, 0.2, second="full", order=6)
            assert jet.value == p(x)
            jets[degree] = (np.max(np.abs(jet.d1 - grad(x))), np.max(np.abs(jet.d2 - hess(x))))
        assert jets[6][0] < 1e-11 and jets[7][1] < 1e-9 and jets[6][1] < 1e-9
        assert jets[7][0] > 1e-6 and jets[8][1] > 1e-6


def test_array_valued_sampler_keeps_shape():
    @pointwise
    def f(x):
        return np.array([[x[0] * x[1], x[1] ** 2], [x[0], 1.0]])
    x = np.array([0.3, -0.7])
    jet = derivatives(f, x, 1e-2, second="full")
    assert jet.d1.shape == (2, 2, 2) and jet.d2.shape == (2, 2, 2, 2)
    assert np.allclose(jet.d1[0], [[x[1], 0.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(jet.d2[0, 1], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    assert np.array_equal(jet.d2[0, 1], jet.d2[1, 0])


def test_rejects_unknown_second():
    with pytest.raises(ValueError):
        derivatives(lambda x: 0.0, np.zeros(2), 0.1, second="mixed")


def hyperbolic_four_space(x):
    return np.eye(4) / np.asarray(x)[..., 2, None, None] ** 2


@pytest.mark.parametrize("step", [np.inf, -np.inf, np.nan, 0.0])
def test_curvature_rejects_degenerate_step(step):
    # unchecked, inf reads an all-zero ("flat") report and nan all NaN
    with pytest.raises(ValueError, match="finite and non-zero"):
        md.curvature(hyperbolic_four_space, np.array([0.3, -0.2, 1.1, 0.5]), step=step)


def test_rejects_degenerate_step_among_several():
    # order 6 pairs h with h/2, which underflows to 0 for the least subnormal h
    with pytest.raises(ValueError, match="finite and non-zero"):
        derivatives(lambda x: x[..., 0], np.zeros(2), 5e-324, order=6)


def test_rejects_unknown_order():
    with pytest.raises(ValueError, match="order must be 2, 4 or 6"):
        derivatives(lambda x: x[..., 0], np.zeros(2), 0.1, order=3)


def reference_derivatives(f, x, h, second=None, order=4):
    """The stencil engine with its plan built on every call: each point
    keyed by its offsets k h, the weight matrices filled term by term and
    stacked for one product (BLAS rounds a block of rows differently from
    the rows alone); order 6 builds the 4th-order stencils at h and h/2
    and combines them after each one's division by its own scale."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    steps = (h, h / 2) if order == 6 else (h,)
    order = min(order, 4)
    den1, first = WEIGHTS[1, order]
    den2, table2 = WEIGHTS[2, 4]
    den4, table4 = WEIGHTS[1, 4]

    def axis_terms(i, table, h):
        return [(((i, k * h),) if k else (), w) for k, w in table]

    plans = []
    for h in steps:
        plan = {i: (axis_terms(i, first, h), den1 * h) for i in range(n)}
        if second is not None:
            plan.update({(i, i): (axis_terms(i, table2, h), den2 * h * h) for i in range(n)})
        if second == "full":
            plan.update({(i, j): ([(((i, ki * h), (j, kj * h)), wi * wj)
                                   for ki, wi in table4 for kj, wj in table4],
                                  den4 * den4 * h * h)
                         for i in range(n) for j in range(i + 1, n)})
        plans.append(plan)
    column = {key: c for c, key in enumerate(dict.fromkeys(itertools.chain(
        (key for plan in plans for terms, _ in plan.values() for key, _ in terms), [()])))}
    points = np.tile(x, (len(column), 1))
    for row, key in enumerate(column):
        for i, off in key:
            points[row, i] = x[i] + off
    values = np.asarray(f(points))
    W = np.zeros((len(plans), len(plans[0]), len(column)))
    for w, plan in zip(W, plans):
        for r, (terms, _) in enumerate(plan.values()):
            for key, weight in terms:
                w[r, column[key]] = weight
    products = (W.reshape(-1, len(column)) @ values.reshape(len(column), -1)).reshape(
        len(plans), len(plans[0]), -1)
    parts = [p / np.array([scale for _, scale in plan.values()])[:, None]
             for p, plan in zip(products, plans)]
    combined = parts[0] if len(parts) == 1 else (16.0 * parts[1] - parts[0]) / 15.0
    d = dict(zip(plans[0], combined.reshape((len(plans[0]),) + values.shape[1:])))
    d1 = np.array([d[i] for i in range(n)])
    if second is None:
        d2 = None
    elif second == "diag":
        d2 = np.array([d[i, i] for i in range(n)])
    else:
        d2 = np.array([[d[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
    return Jet(values[column[()]], d1, d2)


def jet_bytes(jet):
    return tuple(None if a is None else (np.shape(a), np.asarray(a).tobytes()) for a in jet)


@pytest.mark.parametrize("halved", [False, True], ids=["h", "h,h/2"])
@pytest.mark.parametrize("second", [None, "diag", "full"])
@pytest.mark.parametrize("order", [2, 4, 6])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_cached_plan_jets_byte_identical_to_per_call_plan(d, order, second, halved):
    # halved: the plan is also checked at step h/2
    rng = np.random.default_rng([d, order, halved])
    A = rng.normal(size=(d, 2, 3))

    @pointwise
    def f(x):
        return np.sin(x @ A[:, 0]) * np.exp(np.tanh(x @ A[:, 1]))[::-1]

    for _ in range(3):
        x = rng.uniform(-1.0, 1.0, size=d)
        h = rng.uniform(1e-4, 1e-2)
        for step in (h, h / 2) if halved else (h,):
            calls = Counting(f)
            got = derivatives(calls, x, step, second=second, order=order)
            want = reference_derivatives(f, x, step, second=second, order=order)
            assert jet_bytes(got) == jet_bytes(want)
            assert len(calls.calls) == 1 and len(set(calls.points)) == calls.calls[0]


def test_stencil_points_keep_x_bit_for_bit_off_their_axis():
    # x + 0 h would turn a -0.0 coordinate into +0.0
    x = np.array([-0.0, 0.3, 0.0])
    calls = Counting(lambda p: np.sum(p, axis=-1))
    derivatives(calls, x, 1e-2, second="full", order=6)
    points = np.frombuffer(b"".join(calls.points)).reshape(-1, 3)
    plan = numdiff._plan(3, 6, "full")
    assert np.signbit(points[~plan.moved[:, 0], 0]).all()
    assert points[plan.center].tobytes() == x.tobytes()


def test_plans_are_cached_read_only():
    x = np.array([0.3, -0.2, 1.1, 0.4])
    f = lambda p: np.sum(p ** 3, axis=-1)
    derivatives(f, x, 1e-3, second="full", order=6)
    misses = numdiff._plan.cache_info().misses
    rng = np.random.default_rng(9)
    for _ in range(5):
        derivatives(f, x + rng.normal(size=4), rng.uniform(1e-4, 1e-2), second="full", order=6)
    assert numdiff._plan.cache_info().misses == misses
    plan = numdiff._plan(4, 6, "full")
    assert plan.W.shape == (2 * len(plan.den), len(plan.K))   # both steps' rows, stacked
    arrays = [plan.K, plan.moved, plan.den, plan.d2, plan.W]
    assert all(not a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        plan.W[0, 0] = 1.0


def test_curvature_report_samples_each_point_once():
    # the base (x, y, z) only: steps h and h/2 share 19 of their 122 stencil points
    V = MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2))
    conn = md.DiracConnection(V).with_patches_for(np.array([0.4, -0.3, 1.2]))
    metric = Counting(md.gibbons_hawking_metric(V, conn))
    md.curvature(metric, np.array([0.4, -0.3, 1.2, 0.5]))
    assert metric.calls == [103]
    assert len(set(metric.points)) == 103


def test_curvature_report_one_sampler_call_one_riemann_pass(monkeypatch):
    passes = []
    riemann_tensors = diffgeo.riemann_tensors

    def counted(*args):
        passes.append(args[1].shape)
        return riemann_tensors(*args)

    monkeypatch.setattr(diffgeo, "riemann_tensors", counted)
    metric = Counting(hyperbolic_four_space)
    md.curvature(metric, np.array([0.3, -0.2, 1.1, 0.5]))
    assert len(metric.calls) == 1
    assert passes == [(4, 4, 4)]      # one jet, both steps extrapolated in the engine


def test_residual_stencils_sample_in_one_call():
    # the point itself, then dOmega: 2nd-order first derivatives, 2
    # points per base axis; Nijenhuis: its 4th-order stencil, 4 points per base axis
    V = MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2))
    gauge = md.kahler_structure(V, md.DiracConnection(V), INFINITY)
    p4 = np.array([0.4, -0.3, 1.2, 0.5])
    omega = Counting(gauge.kahler_form)
    md.dOmega_residual(omega, p4)
    assert omega.calls == [7] and len(set(omega.points)) == 7
    J = Counting(gauge.complex_structure)
    md.nijenhuis_residual(J, p4)
    assert J.calls == [13] and len(set(J.points)) == 13


_TWO_CENTERS = MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2))
_GAUGE = md.kahler_structure(_TWO_CENTERS, md.DiracConnection(_TWO_CENTERS), INFINITY)
_OUT_OF_HALF_SPACE = {
    "curvature": (_GAUGE.metric, lambda f: md.curvature(f, [0.1, 0.2, 0.4, 0.0], step=0.5)),
    "nijenhuis": (_GAUGE.complex_structure,
                  lambda f: md.nijenhuis_residual(f, [0.1, 0.2, 0.4, 0.0], step=1.0)),
    "dOmega": (_GAUGE.kahler_form, lambda f: md.dOmega_residual(f, [0.1, 0.2, 5e-5, 0.0])),
    "laplacian": (lambda a: hyp.green(PointUHS(0.2, -0.4, 1.1), a),
                  lambda f: hyp.laplacian(f, [0.9, 0.3, 0.5], h=1.0)),
    "dirac": (_GAUGE.conn, lambda f: md.dirac_curvature_residual(f, [0.1, 0.2, 0.4], h=1.0)),
}


@pytest.mark.parametrize("name", sorted(_OUT_OF_HALF_SPACE))
def test_stencil_leaving_the_half_space_raises(name):
    # these once read NaN, and the connection's residual a finite 7.75,
    # with at most a numpy RuntimeWarning
    sampler, call = _OUT_OF_HALF_SPACE[name]
    counted = Counting(sampler)
    counted.V = getattr(sampler, "V", None)     # dirac_curvature_residual reads conn.V
    with pytest.raises(ValueError, match="upper half-space"):
        call(counted)
    assert counted.calls == []


def test_laplacian_samples_each_point_once():
    green = Counting(lambda a: hyp.green(PointUHS(0.2, -0.4, 1.1), a))
    hyp.laplacian(green, np.array([0.9, 0.3, 0.8]))
    assert len(green.points) == 19
    assert len(set(green.points)) == 19


def test_complex_helpers_exact_on_polynomials():
    z = 0.3 - 0.8j
    f = lambda w: w ** 3 + 2.0 * w * np.conj(w) ** 2
    assert abs(wirtinger(f, z, h=1e-2) - (3 * z ** 2 + 2 * np.conj(z) ** 2)) < 1e-10
    assert abs(wirtinger(f, z, h=1e-2, var="zbar") - 4 * z * np.conj(z)) < 1e-10
    g = lambda a, b: a ** 2 * b
    assert abs(holo_partial(g, (z, 1.5 + 0.2j), 1, h=1e-2) - z ** 2) < 1e-12
