"""Span tracing of monogeom layer boundaries, installed from outside.

A `Tracer` replaces a library function by a timing wrapper wherever a
caller looks it up: every module attribute of the package that holds the
function object, or the class attribute for methods.  Each wrapper
records a span (name, duration, the enclosing span's share) into
per-name aggregates held in memory; `self_s` is a span's duration minus
the time its child spans cover.  `restore` puts every original back.

Aggregates, not span lists, are kept: the growth-law workload makes
hundreds of thousands of RHS calls, and storing each span would move the
memory figures the benchmark also reports.
"""

from __future__ import annotations

import functools
import sys
import time
import types

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[list] = []        # frames: [name, child seconds]
        self._saved: list[tuple] = []       # (owner, attr, had_own, original)
        self.sampler_points = 0
        self.report_points = 0              # sampler points inside curvature reports
        self.report_distinct = 0
        self._report_seen: set | None = None
        self.watch: dict[str, list] = {}    # parent span -> per-call child counts
        self.restarts = 0                   # solver calls stopped by the rescale event
        self.paused = False                 # while set, wrappers call through unrecorded

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None, watch: str | None = None):
        """Timing wrapper around fn recorded under `name`.  `on_return`
        sees each result; `watch` names a span whose calls made inside
        each call of this one are appended to `self.watch[name]`."""
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        if watch is not None:
            self.watch.setdefault(name, [])
            calls.setdefault(watch, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            before = calls[watch] if watch is not None else 0
            frame = [name, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if watch is not None:
                    self.watch[name].append(calls[watch] - before)
            if on_return is not None:
                on_return(out)
            return out
        return wrapper

    def sampler(self, fn):
        """Wrapper for a point sampler handed to an engine: counts the
        points it is asked for and, inside a curvature report, how many
        of them are distinct."""
        timed = self.wrap("moduli.sampler", fn)

        def wrapped(x):
            arr = np.asarray(x, dtype=float)
            rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim else arr.reshape(1, 1)
            self.sampler_points += len(rows)
            if self._report_seen is not None:
                self.report_points += len(rows)
                for r in rows:
                    self._report_seen.add(r.tobytes())
            return timed(x)
        return wrapped

    def report_scope(self, fn):
        """Wrapper marking one curvature report for the distinct-point
        count of the samplers called inside it."""
        def wrapped(*args, **kwargs):
            outer = self._report_seen
            self._report_seen = set()
            try:
                return fn(*args, **kwargs)
            finally:
                self.report_distinct += len(self._report_seen)
                self._report_seen = outer
        return wrapped

    # -- installing --------------------------------------------------------

    def patch_function(self, package: str, name: str, fn, scope=None, **kw):
        """Wrap a module-level function in every module of `package`
        that holds it, so each caller's own lookup finds the wrapper;
        `scope` decorates the wrapper once more."""
        wrapper = self.wrap(name, fn, **kw)
        if scope is not None:
            wrapper = scope(wrapper)
        for modname, mod in list(sys.modules.items()):
            if not (modname == package or modname.startswith(package + ".")):
                continue
            if not isinstance(mod, types.ModuleType):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, **kw):
        if attr in vars(cls):
            self._set(cls, attr, self.wrap(name, vars(cls)[attr], **kw))

    def _set(self, owner, attr, value):
        d = vars(owner)
        self._saved.append((owner, attr, attr in d, d.get(attr)))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, had, orig = self._saved.pop()
            if had:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)

    def counts(self) -> dict[str, int]:
        """Snapshot of the call counts (for per-op differences)."""
        out = dict(self.calls)
        out["moduli.sampler.points"] = self.sampler_points
        return out


# ---------------------------------------------------------------------------
# the monogeom layer boundaries
# ---------------------------------------------------------------------------

def install(tr: Tracer) -> None:
    """Wrap the public functions of each layer the per-layer metrics
    name.  Targets missing from the library are skipped, so a later
    refactor that removes one reports zero calls for it."""
    from monogeom import diffgeo, hyperbolic, moduli, numdiff, scattering
    from monogeom import spectral, symplectic, twistor

    def fn(mod, attr, name, **kw):
        if callable(getattr(mod, attr, None)):
            tr.patch_function("monogeom", name, getattr(mod, attr), **kw)

    # curvature engine and samplers
    fn(moduli, "curvature", "moduli.curvature", watch="moduli.sampler",
       scope=tr.report_scope)
    fn(diffgeo, "curvature_report", "diffgeo.curvature_report")
    fn(diffgeo, "riemann_tensors", "diffgeo.riemann_tensors")
    for attr in ("deriv1", "deriv2_diag", "deriv2_mixed"):
        fn(numdiff, attr, "numdiff.stencil")
    fn(moduli, "dOmega_residual", "moduli.dOmega_residual")
    fn(moduli, "nijenhuis_residual", "moduli.nijenhuis_residual")
    tr.patch_method(moduli.DiracConnection, "__call__", "moduli.DiracConnection")
    tr.patch_method(hyperbolic.MultiCenterPotential, "value",
                    "hyperbolic.MultiCenterPotential.value")
    fn(hyperbolic, "dist", "hyperbolic.dist")
    # scattering propagator
    fn(scattering, "integrate_fundamental", "scattering.integrate_fundamental")
    fn(scattering, "decaying_solution", "scattering.decaying_solution")

    def solver_return(sol):
        if getattr(sol, "status", None) == 1:     # stopped by the rescale event
            tr.restarts += 1
    fn(scattering, "solve_ivp", "scattering.solve_ivp", on_return=solver_return)
    for cls in vars(scattering).values():
        if isinstance(cls, type) and issubclass(cls, scattering.FieldSampler) \
                and cls is not scattering.FieldSampler:
            tr.patch_method(cls, "ode_matrix", "scattering.rhs")
    # spectral lifts, twistor primitives, symplectic pairing
    tr.patch_method(spectral.LineChart, "__init__", "spectral.LineChart")
    fn(spectral, "lift_twistor_line", "spectral.lift_twistor_line",
       watch="spectral.LineChart")
    fn(spectral, "antipodal_conjugate", "spectral.antipodal_conjugate")
    fn(spectral, "factor", "spectral.factor", watch="spectral.antipodal_conjugate")
    for attr in twistor.__all__:
        obj = getattr(twistor, attr, None)
        if isinstance(obj, types.FunctionType):
            fn(twistor, attr, "twistor")
    fn(symplectic, "omega_D_contour", "symplectic.omega_D_contour")
    fn(symplectic, "omega_D_residue", "symplectic.omega_D_residue")


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (ratios with no base are 0)."""
    c, s = tr.calls, tr.self_s
    m: dict[str, float] = {}
    for name in ("moduli.sampler", "moduli.DiracConnection",
                 "hyperbolic.MultiCenterPotential.value", "diffgeo.riemann_tensors",
                 "numdiff.stencil", "scattering.integrate_fundamental",
                 "scattering.decaying_solution", "scattering.rhs",
                 "spectral.lift_twistor_line", "spectral.factor", "hyperbolic.dist"):
        m[name + ".calls"] = c.get(name, 0)
        m[name + ".self_s"] = s.get(name, 0.0)
    for name in ("diffgeo.curvature_report", "moduli.dOmega_residual",
                 "moduli.nijenhuis_residual", "twistor", "symplectic.omega_D_contour",
                 "symplectic.omega_D_residue"):
        m[name + ".self_s"] = s.get(name, 0.0)
    per_report = tr.watch.get("moduli.curvature", [])
    m["moduli.sampler.points"] = tr.sampler_points
    m["moduli.sampler.distinct_frac"] = _ratio(tr.report_distinct, tr.report_points)
    m["moduli.sampler.calls_per_report"] = _ratio(sum(per_report), len(per_report))
    propagations = c.get("scattering.integrate_fundamental", 0) \
        + c.get("scattering.decaying_solution", 0)
    m["scattering.rhs_per_propagation"] = _ratio(c.get("scattering.rhs", 0), propagations)
    m["scattering.solver_calls"] = c.get("scattering.solve_ivp", 0)
    m["scattering.restart_frac"] = _ratio(tr.restarts, c.get("scattering.solve_ivp", 0))
    per_factor = tr.watch.get("spectral.factor", [])
    m["spectral.factor.fallback_frac"] = _ratio(sum(1 for k in per_factor if k > 1),
                                                len(per_factor))
    per_lift = tr.watch.get("spectral.lift_twistor_line", [])
    m["spectral.chart_attempts_per_lift"] = _ratio(sum(per_lift), len(per_lift))
    m["spectral.chart_rotation_frac"] = _ratio(sum(1 for k in per_lift if k > 1),
                                               len(per_lift))
    return m
