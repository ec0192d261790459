"""The stencil engine: exactness on polynomials and one sample per point."""

import numpy as np
import pytest

from monogeom import hyperbolic as hyp
from monogeom import moduli as md
from monogeom.hyperbolic import MultiCenterPotential, PointUHS
from monogeom.numdiff import derivatives, holo_partial, pointwise, wirtinger
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
        for jet in derivatives(p, x, (0.1, 0.05), second=second):
            assert jet.value == p(x)
            assert np.max(np.abs(jet.d1 - grad(x))) < 1e-11
            want = np.diag(H) if second == "diag" else H
            assert np.max(np.abs(jet.d2 - want)) < 1e-9


def test_second_order_stencil_exact_on_quadratics():
    rng = np.random.default_rng(12)
    p, grad, _ = random_polynomial(rng, 4, 2)
    x = rng.uniform(-1.0, 1.0, size=4)
    (jet,) = derivatives(p, x, (0.1,), order=2)
    assert jet.value == p(x) and jet.d2 is None
    assert np.max(np.abs(jet.d1 - grad(x))) < 1e-12


def test_stencils_not_exact_on_higher_degrees():
    # the exactness tests above have teeth: a sextic (a cubic for the
    # 2nd-order stencil) shows the truncation error of each stencil
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, size=2)
    p5, grad5, hess5 = random_polynomial(rng, 2, 6)
    (jet,) = derivatives(p5, x, (0.1,), second="full")
    assert np.max(np.abs(jet.d1 - grad5(x))) > 1e-6
    assert np.max(np.abs(jet.d2 - hess5(x))) > 1e-6
    p3, grad3, _ = random_polynomial(rng, 2, 3)
    (jet,) = derivatives(p3, x, (0.1,), order=2)
    assert np.max(np.abs(jet.d1 - grad3(x))) > 1e-6


def test_array_valued_sampler_keeps_shape():
    @pointwise
    def f(x):
        return np.array([[x[0] * x[1], x[1] ** 2], [x[0], 1.0]])
    x = np.array([0.3, -0.7])
    (jet,) = derivatives(f, x, (1e-2,), second="full")
    assert jet.d1.shape == (2, 2, 2) and jet.d2.shape == (2, 2, 2, 2)
    assert np.allclose(jet.d1[0], [[x[1], 0.0], [1.0, 0.0]], atol=1e-12)
    assert np.allclose(jet.d2[0, 1], [[1.0, 0.0], [0.0, 0.0]], atol=1e-10)
    assert np.array_equal(jet.d2[0, 1], jet.d2[1, 0])


def test_rejects_unknown_second():
    with pytest.raises(ValueError):
        derivatives(lambda x: 0.0, np.zeros(2), (0.1,), second="mixed")


def test_curvature_report_samples_each_point_once():
    # steps h and h/2 share 65 of their 258 stencil points
    V = MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2))
    conn = md.DiracConnection(V).with_patches_for(np.array([0.4, -0.3, 1.2]))
    metric = Counting(md.gibbons_hawking_metric(V, conn))
    md.curvature(metric, np.array([0.4, -0.3, 1.2, 0.5]))
    assert metric.calls == [193]
    assert len(set(metric.points)) == 193


def test_residual_stencils_sample_in_one_call():
    # the point itself, then dOmega: 2nd-order first derivatives, 2
    # points per axis; Nijenhuis: its 4th-order stencil, 4 points per axis
    V = MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2))
    gauge = md.kahler_structure(V, md.DiracConnection(V), INFINITY)
    p4 = np.array([0.4, -0.3, 1.2, 0.5])
    omega = Counting(gauge.kahler_form)
    md.dOmega_residual(omega, p4)
    assert omega.calls == [9] and len(set(omega.points)) == 9
    J = Counting(gauge.complex_structure)
    md.nijenhuis_residual(J, p4)
    assert J.calls == [17] and len(set(J.points)) == 17


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
