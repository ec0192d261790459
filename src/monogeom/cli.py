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
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import moduli as md
from . import scattering as sc
from . import spectral as sp
from . import symplectic as sy
from . import twistor as tw
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
    tol_scale: float = 1.0
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

def _sample_point(V: MultiCenterPotential, rng) -> np.ndarray:
    """Sample point of the total space at moderate distance from all centers."""
    for _ in range(256):
        p = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                      rng.uniform(0.5, 2.2), rng.uniform(0, 2 * math.pi)])
        if all(hyp.dist(c, p[:3]) > 0.45 for c in V.centers):
            return p
    raise RuntimeError("could not find a point away from the centers")


def _checks_hyperbolic(cfg, rng):
    O = hyp.ORIGIN
    yield ("hyperbolic.dist-axis", "axis-distance closed form",
           float(hyp.dist(O, PointUHS(0, 0, math.e))), 1.0, 1e-12)
    g = hyp.OrientedGeodesic(start=ExtendedComplex(complex(rng.normal(), rng.normal())),
                             end=ExtendedComplex(complex(rng.normal() + 2.5, rng.normal())))
    t = rng.uniform(-2, 2)
    lhs = math.cosh(hyp.dist(O, hyp.geodesic_point(g, O, t)))
    rhs = math.cosh(hyp.dist(O, hyp.geodesic_point(g, O, 0.0))) * math.cosh(t)
    yield ("hyperbolic.pythagoras", "right-triangle cosh identity",
           abs(lhs - rhs), 0.0, 1e-10)
    u = ExtendedComplex(complex(rng.normal(), rng.normal()))
    x = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.5, 2.0))
    tdir = hyp.tangent_toward_boundary(O, u)
    t_hor = 30.0
    gpt = hyp.point_at(O, tdir, t_hor)
    numeric = t_hor - hyp.dist(x, gpt)
    yield ("hyperbolic.busemann-limit", "horocycle limit vs closed form",
           abs(numeric - hyp.busemann(u, O, x)), 0.0, 1e-6)
    p = PointUHS(0.2, -0.4, 1.1)
    xq = PointUHS(0.9, 0.3, 0.8)
    lap = hyp.laplacian(lambda a: hyp.green(p, a), xq.as_array())
    yield ("hyperbolic.green-harmonic", "Laplace-Beltrami residual of the Green kernel",
           abs(lap), 0.0, 1e-6)


def _checks_twistor(cfg, rng):
    th = tw.theta01(0.37 + 0.11j, 0.37 + 0.11j)
    yield ("twistor.theta-diagonal", "tautological form vanishes on the diagonal",
           abs(th[0]) + abs(th[1]), 0.0, 1e-14)
    val = tw.gamma_L_integral()
    yield ("twistor.atiyah-integral", "area pairing of the duality projection",
           abs(abs(val) - 4 * math.pi), 0.0, 1e-8)
    z = complex(rng.normal(), rng.normal())
    Jm = tw.closest_point_wirtinger(z, z)
    printed = _printed_diagonal_jacobian(z)
    yield ("twistor.closest-point-jacobian", "diagonal derivative matrix",
           float(np.max(np.abs(Jm[:, [0, 1, 3]] - printed))), 0.0, 1e-8)
    a2a4 = _a2_plus_a4(z, rng)
    yield ("twistor.a2-plus-a4", "pullback coefficient cancellation",
           abs(a2a4), 0.0, 1e-8)


def _printed_diagonal_jacobian(z: complex) -> np.ndarray:
    pre = 1.0 / (2.0 * (1 + abs(z) ** 2) ** 2)
    zb = np.conj(z)
    return pre * np.array([
        [1 - zb ** 2, 1 - z ** 2, -1 + z ** 2],
        [-1j * (1 + zb ** 2), 1j * (1 + z ** 2), -1j * (1 + z ** 2)],
        [2 * zb, 2 * z, -2 * z],
    ])


def _a2_plus_a4(z: complex, rng) -> float:
    J = tw.closest_point_wirtinger(z, z)
    om = np.zeros((3, 3))
    om[0, 1], om[1, 0] = (w01 := rng.normal()), -w01
    om[0, 2], om[2, 0] = (w02 := rng.normal()), -w02
    om[1, 2], om[2, 1] = (w12 := rng.normal()), -w12
    dz, dzb, dw, dwb = J[:, 0], J[:, 1], J[:, 2], J[:, 3]
    a2 = complex(dz @ om @ dwb)
    a4 = complex(dz @ om @ dzb)
    return abs(a2 + a4)


def _checks_spectral(cfg, rng):
    V = cfg.potential()
    q = PointUHS(*cfg.spectral_point)
    data = sp.lift_twistor_line(q, V)
    yield ("spectral.product", "xy reconstructs the restricted section",
           data.product_residual(), 0.0, 1e-10)
    yield ("spectral.reality", "antipodal-conjugate pairing of the factors",
           data.pair.reality_defect(), 0.0, 1e-10)
    yield ("spectral.divisor-disjoint", "divisor avoids its antipodal image",
           0.0 if data.divisor_supports_disjoint() else 1.0, 0.0, 0.5)
    yield ("spectral.divisor-doubling", "doubled-divisor multiset identity",
           data.divisor_doubling_defect(), 0.0, 1e-9)
    other = sp.lift_twistor_line(q, V, phase=1.1)
    drift = max(abs(a - b) for a, b in zip(
        sorted(data.pair.alphas, key=lambda v: (v.real, v.imag)),
        sorted(other.pair.alphas, key=lambda v: (v.real, v.imag))))
    yield ("spectral.phase-invariance", "divisor independent of the gauge phase",
           drift, 0.0, 1e-12)


def _checks_metric(cfg, rng):
    V = cfg.potential()
    conn = cfg.connection()
    p4 = _sample_point(V, rng)
    connp = conn.with_patches_for(p4[:3])
    yield ("metric.dirac-curvature", "gauge potential curvature duality",
           md.dirac_curvature_residual(connp, p4[:3]), 0.0, 1e-8)
    yield ("metric.hodge-identities", "circle-bundle duality identities",
           md.hodge_identity_residuals(V, connp, p4), 0.0, 1e-10)
    rep = md.curvature(md.gibbons_hawking_metric(V, connp), p4)
    yield ("metric.weyl-asd", "anti-self-duality in the bundle orientation",
           rep.weyl_sd_norm, 0.0, 1e-4)
    gauge = md.kahler_structure(V, conn, INFINITY)
    rep2 = md.curvature(gauge.metric, p4)
    yield ("metric.scalar-flat", "vanishing scalar curvature of the Kahler gauge",
           abs(rep2.scalar), 0.0, 1e-4)
    yield ("metric.kahler-closed", "closedness of the Kahler form",
           md.dOmega_residual(gauge.kahler_form, p4), 0.0, 1e-6)
    yield ("metric.integrable", "Nijenhuis tensor of the complex structure",
           md.nijenhuis_residual(gauge.complex_structure, p4), 0.0, 1e-6)
    V1 = MultiCenterPotential(1.0, (), ())
    flat = md.curvature(md._lebrun_metric(V1, md.DiracConnection(V1)),
                        np.array([0.3, -0.2, 1.1, 0.4]))
    yield ("metric.flat-fixture", "flat sanity metric",
           flat.riemann_norm, 0.0, 1e-5)


def _checks_symplectic(cfg, rng):
    k = cfg.symplectic_sheets
    sheets = _random_sheets(k, rng)
    z0 = 1.9 + 0.3j
    X1 = sy.random_marked_tangent(k, z0, rng)
    X2 = sy.random_marked_tangent(k, z0, rng)
    r = sy.omega_D_residue(X1, X2, sheets)
    c = sy.omega_D_contour(X1, X2, sheets, nodes=cfg.symplectic_nodes)
    yield ("symplectic.residue-vs-contour", "dual evaluations of the pairing",
           abs(r - c), 0.0, 1e-8)
    yield ("symplectic.antisymmetry", "pairing antisymmetry",
           abs(sy.omega_D_residue(X1, X1, sheets)), 0.0, 1e-12)


def _random_sheets(k: int, rng) -> sy.SheetData:
    etas = tuple(sy.Series(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in range(k))
    us = tuple(sy.Series(np.concatenate([
        [2.5 + 0j], 0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))]))
        for _ in range(k))
    return sy.SheetData(etas, us)


def _checks_scattering(cfg, rng):
    f = sc.TrivialU1Field(mass=cfg.mass if cfg.mass > 0 else 1.0)
    sol = sc.integrate_fundamental(f, -5.0, 5.0)
    yield ("scattering.trivial-growth", "constant-mass growth factor",
           abs(sol.log_norm_final() - 10.0 * f.mass), 0.0, 1e-8)
    q, cf = sc.sinh_model_integral(2.0, cfg.scatter_delta, 1e-3)
    yield ("scattering.sinh-identity", "model-profile quadrature identity",
           abs(q - cf), 0.0, 1e-10)
    yield ("scattering.det-balance", "determinant-trace balance",
           sol.det_balance_defect(), 0.0, math.log(1e3))


_CHECK_GROUPS = {
    "hyperbolic": _checks_hyperbolic,
    "twistor": _checks_twistor,
    "spectral": _checks_spectral,
    "metric": _checks_metric,
    "symplectic": _checks_symplectic,
    "scattering": _checks_scattering,
}


def cmd_verify(cfg: RunConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    records = []
    groups = _CHECK_GROUPS
    if cfg.only:
        groups = {k: v for k, v in groups.items() if k.startswith(cfg.only)}
        if not groups:
            print(f"error: --only matched no check group: {cfg.only}", file=sys.stderr)
            return 2
    for name, gen in groups.items():
        it = gen(cfg, rng)
        while True:
            t0 = time.perf_counter()
            try:
                check_id, anchor, measured, expected, tol = next(it)
            except StopIteration:
                break
            passed = abs(measured - expected) <= tol * cfg.tol_scale
            records.append({
                "id": check_id,
                "anchor": anchor,
                "measured": float(measured),
                "expected": float(expected),
                "tolerance": float(tol * cfg.tol_scale),
                "passed": bool(passed),
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
    V = cfg.potential()
    conn = cfg.connection()
    gauge = md.kahler_structure(V, conn, INFINITY)
    n = cfg.metric_grid
    xs = np.linspace(-0.8, 0.8, n)
    zs = np.linspace(0.6, 1.8, n)
    rows = []
    skipped = 0
    for x in xs:
        for y in xs:
            for z in zs:
                if any(hyp.dist(c, np.array([x, y, z])) < 0.35 for c in gauge.V.centers):
                    skipped += 1
                    print(f"warning: skipping grid point ({x:.3f},{y:.3f},{z:.3f})"
                          " near a center", file=sys.stderr)
                    continue
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
            ind = sc.spectral_indicator(f, cfg.ps_horizon)
            mg = ""
            if ind > 1e-8:
                mg = sc.m_gamma_norm(f, cfg.ps_horizon)
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
    rng = np.random.default_rng(cfg.seed)
    k = cfg.symplectic_sheets
    sheets = _random_sheets(k, rng)
    z0 = 1.9 + 0.3j
    X1 = sy.random_marked_tangent(k, z0, rng)
    X2 = sy.random_marked_tangent(k, z0, rng)
    r = sy.omega_D_residue(X1, X2, sheets)
    c = sy.omega_D_contour(X1, X2, sheets, nodes=cfg.symplectic_nodes)
    blob = b"".join(np.ascontiguousarray(s.coeffs).tobytes()
                    for s in sheets.etas + sheets.us
                    + X1.eta_primes + X1.u_primes + X2.eta_primes + X2.u_primes)
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
    pv.add_argument("--only", help="restrict to one check group (prefix match)")
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
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return _DISPATCH[args.command](cfg)


if __name__ == "__main__":
    sys.exit(main())
