"""Self-tests of the benchmark: the oracle gate is live, and tracing
leaves the library as it found it.

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

Negative controls on the curvature_grid gate (its repeat block: one point
per configuration and gauge, 18 ops each):
  - nonclosed: the connection perturbed by the non-closed form 0.05 x dy
    (the CLI's break_dirac perturbation), so dA is no longer *dV;
  - flipped:   the connection replaced by its negative, which flips the
    sign of its closed curvature form dA;
both must register failures, as oracle misses and as failures of the
regression gate that sets the result line's `correct`.  The positive
control adds the exact form 0.05 d(xy), a gauge change that leaves the
geometry unchanged, and must fail no more ops than the unperturbed set,
which passes the regression gate.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402
from monogeom import hyperbolic as hyp  # noqa: E402
from monogeom import moduli as md  # noqa: E402
from monogeom.hyperbolic import MultiCenterPotential  # noqa: E402
from worker import tail_percentile  # noqa: E402


def _failures(extra_for) -> tuple[int, int]:
    """(ops that miss an oracle, ops that fail the regression gate) of
    the repeat block."""
    wl = W.curvature_grid(seed=7, extra_for=extra_for)
    missed = [f for f in (W.gate(op)[3] for op in wl.repeat_block) if f]
    return len(missed), W.gate_failures(missed, len(wl.repeat_block), wl.known_defects)


def _nonclosed(V, u):
    return lambda p: np.array([0.0, 0.05 * p[0], 0.0])


def _exact(V, u):
    return lambda p: 0.05 * np.array([p[1], p[0], 0.0])


def _flipped(V, u):
    """Extra form -2 A_u, with A_u the connection kahler_structure builds
    in the adapted chart of u (same transport, same patch choice)."""
    L = hyp.rotation_to_infinity(u)
    Vt = MultiCenterPotential(V.lam, tuple(hyp.apply_lorentz(L, c) for c in V.centers),
                              V.charges, V.mass)
    At = md.DiracConnection(Vt).with_patches_for(hyp.ORIGIN.as_array())
    return lambda p: -2.0 * At(p)


def test_negative_controls_register_failures():
    n = len(W.CURVATURE_CONFIGS) * len(W.CURVATURE_GAUGES)
    base = _failures(None)
    broken = _failures(_nonclosed)
    flipped = _failures(_flipped)
    gauge = _failures(_exact)
    print(f"curvature gate, {n} ops, (missed, failed the gate): unperturbed {base}, "
          f"nonclosed {broken}, flipped {flipped}, exact-form gauge change {gauge}")
    assert base[1] == 0
    for perturbed in (broken, flipped):
        assert perturbed[0] > base[0] and perturbed[1] > 0
    assert gauge[0] <= base[0] and gauge[1] == 0


def test_regression_gate_allows_only_recorded_defects():
    known = {"reality": W.KnownDefect("fallback", 0.2)}
    assert W.gate_failures([], 10, known) == 0
    assert W.gate_failures([["reality"]] * 2, 10, known) == 0
    assert W.gate_failures([["reality"]] * 3, 10, known) == 3    # over its share
    assert W.gate_failures([["pairing"]], 10, known) == 1
    assert W.gate_failures([["reality", "pairing"]], 10, known) == 1
    assert W.gate_failures([["exception.ValueError"]], 10, known) == 1


def test_gate_counts_exceptions_and_nan():
    def raises(wrap):
        raise ArithmeticError("no solution")
    assert W.gate(raises)[:2] == (False, math.inf)
    assert W.gate(lambda wrap: [("x", float("nan"), 1.0)])[0] is False
    assert W.gate(lambda wrap: [("x", 2.0, 1.0)])[0] is False
    assert W.gate(lambda wrap: [("x", 1.0, 1.0)])[0] is True
    assert W.gate(lambda wrap: [("x", lambda: 2.0, 1.0)])[0] is False
    assert W.gate(lambda wrap: [("x", lambda: 0.5, 1.0)])[:2] == (True, 0.5)
    assert W.gate(lambda wrap: [("x", lambda: 1 / 0, 1.0)])[3] == ["x"]


def test_curvature_oracle_sees_past_stencil_truncation():
    """At a point where the library's fixed-step residuals read above
    1e-6 from truncation alone, the oracle finds Omega closed and J
    integrable; on a form that is not closed it recovers dOmega."""
    wl = W.curvature_grid(seed=232244334)
    gauge, p4 = wl.ops[22].args[:2]
    assert md.nijenhuis_residual(gauge.complex_structure, p4) > 1e-6
    assert md.dOmega_residual(gauge.kahler_form, p4) > 1e-6
    assert W.nijenhuis(gauge.complex_structure, p4) < 1e-7
    assert W.d_omega(gauge.kahler_form, p4) < 1e-7
    assert W.gate(wl.ops[22])[0]

    def not_closed(q):
        Om = gauge.kahler_form(q).copy()
        Om[0, 2] += 0.1 * math.sin(q[1])
        Om[2, 0] -= 0.1 * math.sin(q[1])
        return Om
    assert abs(W.d_omega(not_closed, p4) - 0.1 * abs(math.cos(p4[1]))) < 1e-9


def test_ps_determinant_balance_where_resolved():
    """Over the whole horizon the stored matrices cannot carry the
    determinant (the library's path maximum reads tens or inf); on the
    checkpoints that resolve it the balance holds to rounding."""
    from monogeom import scattering as sc
    f = sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0])
    sol = sc.integrate_fundamental(f, -W.PS_HORIZON, W.PS_HORIZON, tol=1e-9)
    assert sol.det_balance_defect() > math.log(1e3)
    assert W.det_balance(sol) < 1e-6
    assert abs(sol.log_norm_final() / W.PS_LOG_NORM[1.0] - 1) < W.PS_TOL_LOG_NORM


def test_host_meter_samples_inside_a_long_op():
    from worker import HostMeter
    with HostMeter() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = time.perf_counter()
    inside = [t for t, _ in meter.samples if t0 <= t <= t1]
    assert len(inside) >= 3 and meter.paused > 0
    assert 0.1 < meter.host(t0, t1) < 10


def test_tail_percentile_leaves_ten_ops_beyond():
    assert tail_percentile(W.SPECTRAL_OPS) == 97.5
    assert tail_percentile(18 * W.CURVATURE_POINTS_PER_GAUGE) == 100.0
    assert tail_percentile(len(W.PS_IMPACTS)) == 100.0


def test_tracer_restores_every_wrapped_attribute():
    import monogeom
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "monogeom" or name.startswith("monogeom.")]
    before = [(m, dict(vars(m))) for m in mods]
    classes = [md.DiracConnection, hyp.MultiCenterPotential]
    cls_before = [dict(vars(c)) for c in classes]
    dist = monogeom.hyperbolic.dist
    tr = spans.Tracer()
    spans.install(tr)
    assert monogeom.hyperbolic.dist is not dist
    tr.restore()
    for m, d in before:
        assert all(vars(m).get(k) is v for k, v in d.items()), m.__name__
    for c, d in zip(classes, cls_before):
        assert dict(vars(c)) == d, c.__name__


def test_tracer_counts_a_curvature_report():
    wl = W.curvature_grid(seed=7)
    tr = spans.Tracer()
    spans.install(tr)
    try:
        W.gate(wl.ops[0], tr.sampler)
    finally:
        tr.restore()
    m = spans.layer_metrics(tr)
    assert m["moduli.sampler.calls_per_report"] > 0
    assert 0 < m["moduli.sampler.distinct_frac"] <= 1
    assert m["diffgeo.riemann_tensors.calls"] > 0


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
