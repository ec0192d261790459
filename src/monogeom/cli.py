"""Command-line entry point: verification suites and data emission.

Subcommands: verify, metric, scatter, spectral, symplectic.  A JSON
config file supplies the monopole configuration and experiment options;
flags override file values.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage or config error.  All randomness is seeded and the seed
is recorded in every report.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import moduli as md
from . import scattering as sc
from . import spectral as sp
from . import symplectic as sy
from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential, PointUHS
from .projective import INFINITY, ExtendedComplex


EXPERIMENTS = ("abelian_growth", "ps_scan")
_LEAST = {"seed": 0, "scatter_center": 0, "metric_grid": 1, "symplectic_sheets": 1,
          "symplectic_nodes": 64}   # each count's least value


def _of_kind(value, hint) -> bool:
    """Whether a JSON value has the kind of a type hint: float a finite number, not a boolean,
    int an exact int, list[T] a list of T and tuple[T, ...] a list of as many."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return type(value) is list and all(_of_kind(v, args[0]) for v in value)
    if origin is tuple:
        return type(value) is list and len(value) == len(args) and all(map(_of_kind, value, args))
    if args:     # T | None
        return any(_of_kind(value, a) for a in args)
    if hint is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is hint


@dataclass
class RunConfig:
    """Run configuration: file values overridden by flags, of the kinds
    the fields' types name.  `load` adds the run's objects built from them:
    `potential`, its Dirac `connection` and the spectral `point`."""

    centers: list[tuple[float, float, float]] = field(default_factory=lambda: [[0.3, -0.2, 1.4]])
    charges: list[int] = field(default_factory=lambda: [1])
    mass: float = 0.5
    lam: float | None = None          # defaults to 1 + 2 mass
    seed: int = 0
    metric_grid: int = 3
    metric_theta: float = 0.0
    scatter_experiment: str = "abelian_growth"
    scatter_delta: float = 0.1
    scatter_impacts: list[float] = field(default_factory=lambda: list(np.geomspace(1e-4, 1e-2, 6)))
    scatter_center: int = 0
    ps_impacts: list[float] = field(default_factory=lambda: [0.0, 0.5, 1.0, 2.0, 5.0])
    ps_horizon: float = 40.0
    symplectic_sheets: int = 2
    symplectic_nodes: int = 2048
    spectral_point: tuple[float, float, float] = field(default_factory=lambda: [-0.5, 0.8, 0.7])
    break_dirac: bool = False
    only: str | None = None
    out: str | None = None

    @staticmethod
    def load(path: str | None, overrides: dict) -> "RunConfig":
        """The file's values under the flags': their kinds, the counts' bounds and the rules that
        span keys checked, then the run's objects built, whose types check their own ranges."""
        data = {}
        if path is not None:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
        cfg, hints = RunConfig(), typing.get_type_hints(RunConfig)
        for key, val in {**data, **overrides}.items():
            if val is None:
                continue
            if key not in hints:
                raise ValueError(f"unknown config key: {key}")
            if not _of_kind(val, hints[key]):
                raise ValueError(f"{key}: want {RunConfig.__annotations__[key]} (finite numbers, "
                                 f"exact ints, no booleans), got {val!r}")
            setattr(cfg, key, val)
        for holds, rule in (
                (all(getattr(cfg, k) >= n for k, n in _LEAST.items()), f"counts at least {_LEAST}"),
                (cfg.scatter_experiment in EXPERIMENTS, f"scatter_experiment in {EXPERIMENTS}"),
                (cfg.scatter_impacts and all(0 < abs(z) < cfg.scatter_delta
                                             for z in cfg.scatter_impacts),
                 "scatter_impacts non-empty and strictly between 0 and scatter_delta"),
                (cfg.ps_impacts, "ps_impacts non-empty"),
                (0 < cfg.ps_horizon <= sc.MAX_HORIZON, f"0 < ps_horizon <= {sc.MAX_HORIZON:g}"),
                (cfg.scatter_center < len(cfg.centers), "scatter_center an index of centers")):
            if not holds:
                raise ValueError(f"need {rule}")
        centers = tuple(PointUHS(*c) for c in cfg.centers)
        cfg.potential = (MultiCenterPotential.for_su2_charge1(centers, cfg.charges, cfg.mass)
                         if cfg.lam is None else
                         MultiCenterPotential(cfg.lam, centers, tuple(cfg.charges), cfg.mass))
        cfg.point = PointUHS(*cfg.spectral_point)
        # break_dirac adds the 1-form 0.05 x dy, which breaks dA = *dV (the negative control)
        cfg.connection = md.DiracConnection(cfg.potential, extra=(
            lambda p: np.array([0.0, 0.05 * p[0], 0.0])) if cfg.break_dirac else None)
        return cfg


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(cfg: RunConfig) -> int:
    from . import checks   # here and in cmd_symplectic: the other subcommands never use it
    table = [c for c in checks.TABLE if c.id.startswith(cfg.only or "")]
    if not table:
        print(f"error: --only matched no check: {cfg.only}", file=sys.stderr)
        return 2
    setting = checks.Setting(
        connections=(cfg.connection,),
        lines=((cfg.potential, cfg.point),),
        sheets=(cfg.symplectic_sheets,), nodes=cfg.symplectic_nodes,
        delta=cfg.scatter_delta)
    records = []
    for check in table:
        t0 = time.perf_counter()
        measured = checks.measure(check, cfg.seed, setting=setting)
        records.append({
            "id": check.id,
            "anchor": check.anchor,
            "measured": measured,
            "expected": 0.0,
            "tolerance": float(check.tol),
            "passed": bool(measured <= check.tol),
            "runtime_ms": round(1000 * (time.perf_counter() - t0), 3),
        })
    ok = all(r["passed"] for r in records)
    report = {"seed": cfg.seed, "all_passed": ok, "checks": records}
    _emit_json(report, cfg.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# metric sampling
# ---------------------------------------------------------------------------

def cmd_metric(cfg: RunConfig) -> int:
    import logging   # here: at the top it costs every CLI start about 3 ms and 0.5 MB
    log = logging.getLogger(__name__)
    V = cfg.potential
    conn = cfg.connection
    n = cfg.metric_grid
    xs = np.linspace(-0.8, 0.8, n)
    zs = np.linspace(0.6, 1.8, n)
    rows = []
    for x in xs:
        for y in xs:
            for z in zs:
                if any(hyp.dist(c, np.array([x, y, z])) < 0.35 for c in V.centers):
                    log.warning("skipping grid point (%.3f,%.3f,%.3f) near a center", x, y, z)
                    continue
                # the gauge's Dirac strings turned away from the grid point
                gauge = md.kahler_structure(V, conn, INFINITY, base_for_patches=PointUHS(x, y, z))
                p4 = np.array([x, y, z, cfg.metric_theta])
                rep = md.curvature(gauge.metric, p4)
                rows.append([x, y, z, cfg.metric_theta, rep.scalar, rep.ricci_norm,
                             rep.weyl_sd_norm, rep.weyl_asd_norm, rep.step])
    header = ["x", "y", "z", "theta", "scalar", "ricci", "weyl_sd", "weyl_asd", "step"]
    _emit_csv(header, rows, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# scattering experiments
# ---------------------------------------------------------------------------

def cmd_scatter(cfg: RunConfig) -> int:
    rows = []
    header = ["experiment", "parameter", "log_norm", "indicator", "m_gamma"]
    fit_payload = {"seed": cfg.seed}
    if cfg.scatter_experiment == "abelian_growth":
        fit = sc.abelian_growth_exponent(cfg.potential, cfg.scatter_center, cfg.scatter_delta,
                                         cfg.scatter_impacts)
        for z, ln in zip(fit.impacts, fit.log_norms):
            rows.append(["abelian_growth", z, ln, "", ""])
        fit_payload.update({"slope": fit.slope, "intercept": fit.intercept,
                            "r_squared": fit.r_squared,
                            "expected_slope": float(cfg.potential.charges[cfg.scatter_center])})
    else:
        for b in cfg.ps_impacts:
            f = sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0])
            data = sc.DecayingData.of(f, cfg.ps_horizon)
            ind = data.indicator()
            mg = float(np.linalg.norm(data.splitting_reflection(), 2)) if ind > 1e-8 else ""
            sol = sc.integrate_fundamental(f, -cfg.ps_horizon, cfg.ps_horizon, tol=1e-9)
            rows.append(["ps_scan", b, sol.log_norm_final(), ind, mg])
        fit_payload.update({"experiment": "ps_scan"})
    _emit_csv(header, rows, cfg.out)
    _emit_json(fit_payload, cfg.out + ".fit.json" if cfg.out else None)
    return 0


# ---------------------------------------------------------------------------
# spectral emission
# ---------------------------------------------------------------------------

def _boundary_repr(b: ExtendedComplex):
    return "inf" if b.at_infinity else [b.value.real, b.value.imag]


def cmd_spectral(cfg: RunConfig) -> int:
    if cfg.lam is not None:
        print("config error: spectral needs lambda = 1 + 2 mass: leave lam unset", file=sys.stderr)
        return 2
    try:
        data = sp.lift_twistor_line(cfg.point, cfg.potential)
    except sp.DegenerateRestrictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "seed": cfg.seed,
        "monopole_point": cfg.spectral_point,
        "mass": cfg.mass,
        "centers": cfg.centers,
        "charges": cfg.charges,
        "doubled_charges": list(cfg.potential.charges),
        "phase": [data.pair.phase.real, data.pair.phase.imag],
        "phase_modulus": abs(data.pair.phase),
        "x_coeffs": _complex_list(data.pair.x),
        "y_coeffs": _complex_list(data.pair.y),
        "divisor": [{
            "zeta": [d.zeta.real, d.zeta.imag],
            "multiplicity": d.multiplicity,
            "geodesic_start": _boundary_repr(d.geodesic.start),
            "geodesic_end": _boundary_repr(d.geodesic.end),
        } for d in data.divisor],
        "product_residual": data.product_residual(),
        "reality_defect": data.pair.reality_defect(),
        "supports_disjoint": data.divisor_supports_disjoint(),
        "doubling_defect": data.divisor_doubling_defect(),
    }
    _emit_json(payload, cfg.out)
    return 0


def _complex_list(arr):
    return [[v.real, v.imag] for v in np.asarray(arr, dtype=complex)]


# ---------------------------------------------------------------------------
# symplectic emission
# ---------------------------------------------------------------------------

def cmd_symplectic(cfg: RunConfig) -> int:
    from . import checks
    rng = np.random.default_rng(cfg.seed)
    k = cfg.symplectic_sheets
    sheets = checks.random_sheets(k, rng, u0=2.5)
    z0 = 1.9 + 0.3j
    X1, X2 = (sy.random_marked_tangent(k, z0, rng) for _ in range(2))
    r = sy.omega_D_residue(X1, X2, sheets)
    c = sy.omega_D_contour(X1, X2, sheets, nodes=cfg.symplectic_nodes)
    blob = b"".join(m.tobytes() for m in (sheets.coeffs, X1.coeffs, X2.coeffs))
    payload = {
        "seed": cfg.seed,
        "sheets": k,
        "nodes": cfg.symplectic_nodes,
        "inputs_sha256": hashlib.sha256(blob).hexdigest(),
        "residue": [r.real, r.imag],
        "contour": [c.real, c.imag],
        "discrepancy": abs(r - c),
    }
    _emit_json(payload, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _emit_json(payload, out: str | None):
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _emit_csv(header, rows, out: str | None):
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="monogeom",
                                 description="verification suites and data emission "
                                             "for charge-1 monopole geometry")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--seed", type=int, help="RNG seed override")
    pv = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    pv.add_argument("--only", help="restrict to the checks whose id starts with this "
                                   "(a group such as metric, or one id)")
    pv.set_defaults(run=cmd_verify)
    sub.add_parser("metric", parents=[common],
                   help="curvature samples as CSV").set_defaults(run=cmd_metric)
    psc = sub.add_parser("scatter", parents=[common], help="scattering experiments")
    psc.add_argument("--experiment", dest="scatter_experiment", choices=EXPERIMENTS)
    psc.set_defaults(run=cmd_scatter)
    sub.add_parser("spectral", parents=[common],
                   help="charge-1 spectral data as JSON").set_defaults(run=cmd_spectral)
    sub.add_parser("symplectic", parents=[common],
                   help="pairing cross-check as JSON").set_defaults(run=cmd_symplectic)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config", "run") and v is not None}
    try:
        cfg = RunConfig.load(args.config, overrides)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return args.run(cfg)


if __name__ == "__main__":
    sys.exit(main())
