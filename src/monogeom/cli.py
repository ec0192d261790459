"""Command-line entry point: verification suites and data emission.

Subcommands: verify, metric, scatter, spectral, symplectic.  A JSON
config file supplies the monopole configuration and experiment options;
flags override file values.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage or config error.  All randomness is seeded and the seed
is recorded in every report.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import moduli as md
from . import scattering as sc
from . import spectral as sp
from . import symplectic as sy
from . import hyperbolic as hyp
from .hyperbolic import MultiCenterPotential, PointUHS
from .projective import INFINITY, ExtendedComplex


@dataclass
class RunConfig:
    """Validated run configuration (file values overridden by flags)."""

    centers: list = field(default_factory=lambda: [[0.3, -0.2, 1.4]])
    charges: list = field(default_factory=lambda: [1])
    mass: float = 0.5
    lam: float | None = None          # defaults to 1 + 2 mass
    seed: int = 0
    metric_grid: int = 3
    metric_theta: float = 0.0
    scatter_experiment: str = "abelian_growth"
    scatter_delta: float = 0.1
    scatter_impacts: list = field(default_factory=lambda: list(np.geomspace(1e-4, 1e-2, 6)))
    scatter_center: int = 0
    ps_impacts: list = field(default_factory=lambda: [0.0, 0.5, 1.0, 2.0, 5.0])
    ps_horizon: float = 40.0
    symplectic_sheets: int = 2
    symplectic_nodes: int = 2048
    spectral_point: list = field(default_factory=lambda: [-0.5, 0.8, 0.7])
    break_dirac: bool = False
    only: str | None = None
    out: str | None = None

    @staticmethod
    def load(path: str | None, overrides: dict) -> "RunConfig":
        data = {}
        if path is not None:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
        cfg = RunConfig()
        for key, val in {**data, **overrides}.items():
            if val is None:
                continue
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key: {key}")
            setattr(cfg, key, val)
        if len(cfg.centers) != len(cfg.charges):
            raise ValueError("centers and charges must have equal length")
        if any(int(l) <= 0 for l in cfg.charges):
            raise ValueError("charges must be positive integers")
        for c in cfg.centers:
            if len(c) != 3 or c[2] <= 0:
                raise ValueError("centers must be (x, y, z) with z > 0")
        if cfg.mass < 0:
            raise ValueError("mass must be nonnegative")
        for key, least in (("symplectic_sheets", 1), ("symplectic_nodes", 64)):
            if type(getattr(cfg, key)) is not int or getattr(cfg, key) < least:
                raise ValueError(f"{key} must be an integer >= {least}")
        return cfg

    def potential(self) -> MultiCenterPotential:
        centers = [PointUHS(*c) for c in self.centers]
        if self.lam is not None:
            return MultiCenterPotential(self.lam, tuple(centers),
                                        tuple(int(l) for l in self.charges), self.mass)
        return MultiCenterPotential.for_su2_charge1(centers, self.charges, self.mass)

    def connection(self) -> md.DiracConnection:
        extra = None
        if self.break_dirac:
            def extra(p):
                return np.array([0.0, 0.05 * p[0], 0.0])
        return md.DiracConnection(self.potential(), extra=extra)


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
        connections=(cfg.connection(),),
        lines=((cfg.potential(), PointUHS(*cfg.spectral_point)),),
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
    V = cfg.potential()
    conn = cfg.connection()
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
        if not cfg.scatter_impacts:
            print("error: empty geodesic family", file=sys.stderr)
            return 2
        V = cfg.potential()
        fit = sc.abelian_growth_exponent(V, cfg.scatter_center, cfg.scatter_delta,
                                         cfg.scatter_impacts)
        for z, ln in zip(fit.impacts, fit.log_norms):
            rows.append(["abelian_growth", z, ln, "", ""])
        fit_payload.update({"slope": fit.slope, "intercept": fit.intercept,
                            "r_squared": fit.r_squared,
                            "expected_slope": float(V.charges[cfg.scatter_center])})
    elif cfg.scatter_experiment == "ps_scan":
        if not cfg.ps_impacts:
            print("error: empty geodesic family", file=sys.stderr)
            return 2
        for b in cfg.ps_impacts:
            f = sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0])
            data = sc.DecayingData.of(f, cfg.ps_horizon)
            ind = data.indicator()
            mg = ""
            if ind > 1e-8:
                mg = float(np.linalg.norm(data.splitting_reflection(), 2))
            sol = sc.integrate_fundamental(f, -cfg.ps_horizon, cfg.ps_horizon, tol=1e-9)
            rows.append(["ps_scan", b, sol.log_norm_final(), ind, mg])
        fit_payload.update({"experiment": "ps_scan"})
    else:
        print(f"error: unknown scatter experiment {cfg.scatter_experiment!r}",
              file=sys.stderr)
        return 2
    _emit_csv(header, rows, cfg.out)
    _emit_json(fit_payload, cfg.out + ".fit.json" if cfg.out else None)
    return 0


# ---------------------------------------------------------------------------
# spectral emission
# ---------------------------------------------------------------------------

def _boundary_repr(b: ExtendedComplex):
    return "inf" if b.at_infinity else [b.value.real, b.value.imag]


def cmd_spectral(cfg: RunConfig) -> int:
    V = cfg.potential()
    q = PointUHS(*cfg.spectral_point)
    try:
        data = sp.lift_twistor_line(q, V)
    except sp.DegenerateRestrictionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "seed": cfg.seed,
        "monopole_point": cfg.spectral_point,
        "mass": cfg.mass,
        "centers": cfg.centers,
        "charges": [int(l) for l in cfg.charges],
        "doubled_charges": [int(l) for l in V.charges],
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
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(header, rows, out: str | None):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            fh.close()


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
    sub.add_parser("metric", parents=[common], help="curvature samples as CSV")
    psc = sub.add_parser("scatter", parents=[common], help="scattering experiments")
    psc.add_argument("--experiment", dest="scatter_experiment",
                     choices=["abelian_growth", "ps_scan"])
    sub.add_parser("spectral", parents=[common], help="charge-1 spectral data as JSON")
    sub.add_parser("symplectic", parents=[common], help="pairing cross-check as JSON")
    return ap


_DISPATCH = {
    "verify": cmd_verify,
    "metric": cmd_metric,
    "scatter": cmd_scatter,
    "spectral": cmd_spectral,
    "symplectic": cmd_symplectic,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    try:
        cfg = RunConfig.load(args.config, overrides)
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _DISPATCH[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
