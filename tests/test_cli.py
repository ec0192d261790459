"""Command-line interface: reports, data files, exit codes."""

import csv
import hashlib
import json
import logging
import math
import os
import subprocess
import sys
import time
from collections import Counter

import pytest

import monogeom
from monogeom import checks
from monogeom import scattering as sc
from monogeom.cli import RunConfig, main


def run(args):
    return main(args)


def test_verify_default_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["seed"] == 0
    ids = [c["id"] for c in report["checks"]]
    assert len(ids) == len(set(ids))
    for c in report["checks"]:
        assert set(c) == {"id", "anchor", "measured", "expected", "tolerance",
                          "passed", "runtime_ms"}


def test_verify_negative_control(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"break_dirac": True}))
    out = tmp_path / "report.json"
    assert run(["verify", "--config", str(cfg), "--only", "metric",
                "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    failed = {c["id"] for c in report["checks"] if not c["passed"]}
    assert "metric.dirac-curvature" in failed


def test_verify_only_filter(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--only", "symplectic", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(c["id"].startswith("symplectic") for c in report["checks"])
    assert run(["verify", "--only", "nonexistent", "--out", str(out)]) == 2


def test_verify_reports_every_check_once(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--out", str(out)]) == 0
    ids = Counter(c["id"] for c in json.loads(out.read_text())["checks"])
    assert ids == Counter(c.id for c in checks.TABLE)
    assert set(ids.values()) == {1}


def test_measure_keeps_a_nan_draw():
    # the builtin max over draws [0.0, nan] read 0.0, which verify passed
    draws = iter([0.0, float("nan")])
    entry = checks.Check("test.nan", "a NaN on the second draw", 1.0, lambda s, rng: next(draws))
    measured = checks.measure(entry, 0, samples=2)
    assert math.isnan(measured) and not measured <= entry.tol


def test_verify_only_matches_full_run(tmp_path):
    # each check draws from its own generator, seeded by (seed, id), so a
    # group reads the same alone as in the full run
    full = tmp_path / "full.json"
    assert run(["verify", "--seed", "3", "--out", str(full)]) == 0
    measured = {c["id"]: c["measured"] for c in json.loads(full.read_text())["checks"]}
    for group in sorted({i.split(".")[0] for i in measured}):
        out = tmp_path / f"{group}.json"
        run(["verify", "--seed", "3", "--only", group, "--out", str(out)])
        alone = {c["id"]: c["measured"] for c in json.loads(out.read_text())["checks"]}
        assert alone == {i: m for i, m in measured.items() if i.startswith(group)}


def test_verify_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--only", "hyperbolic", "--out", str(a)]) == 0
    assert run(["verify", "--only", "hyperbolic", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    for ca, cb in zip(ra["checks"], rb["checks"]):
        assert ca["measured"] == cb["measured"]


def test_metric_csv(tmp_path):
    out = tmp_path / "grid.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric_grid": 2}))
    assert run(["metric", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z", "theta", "scalar", "ricci",
                       "weyl_sd", "weyl_asd", "step"]
    assert len(rows) - 1 <= 8
    for row in rows[1:]:
        assert abs(float(row[4])) < 1e-4   # scalar-flat gauge samples


def test_metric_turns_strings_away_from_each_point(tmp_path):
    # (0, 0, 1.8) lies on the Dirac string of the patch anchored at O
    out = tmp_path / "grid.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"centers": [[0, 0, 1.25]], "charges": [1]}))
    assert run(["metric", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    on_string = [r for r in rows if [float(r[k]) for k in "xyz"] == [0.0, 0.0, 1.8]]
    assert len(on_string) == 1
    assert abs(float(on_string[0]["scalar"])) <= 1e-4


def test_scatter_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scatter_impacts": []}))
    assert run(["scatter", "--config", str(cfg)]) == 2


def test_scatter_abelian(tmp_path):
    out = tmp_path / "sc.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scatter_impacts": [1e-4, 1e-3, 1e-2],
        "charges": [2],
    }))
    assert run(["scatter", "--config", str(cfg), "--out", str(out)]) == 0
    fit = json.loads((tmp_path / "sc.csv.fit.json").read_text())
    assert fit["expected_slope"] == 4.0  # doubled charge
    assert abs(fit["slope"] - 4.0) < 0.2
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4


def test_metric_logs_skipped_grid_point(tmp_path, caplog):
    # of the 8 points of a grid of 2, only (0.8, 0.8, 0.6) lies within
    # 0.35 of the center: one warning, through logging
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"metric_grid": 2, "centers": [[0.8, 0.8, 0.65]],
                               "charges": [1]}))
    with caplog.at_level(logging.WARNING, logger="monogeom.cli"):
        assert run(["metric", "--config", str(cfg), "--out", str(tmp_path / "grid.csv")]) == 0
    assert [(r.name, r.levelname) for r in caplog.records] == [("monogeom.cli", "WARNING")]
    assert caplog.records[0].getMessage() == "skipping grid point (0.800,0.800,0.600) near a center"


def test_ps_scan_one_decaying_computation_per_geodesic(tmp_path, monkeypatch):
    # per geodesic: one propagation for both decaying directions, then
    # the fundamental solution; 5 default impacts
    calls = []
    propagate = sc._propagate

    def counted(*args, **kw):
        calls.append(1)
        return propagate(*args, **kw)
    monkeypatch.setattr(sc, "_propagate", counted)
    assert run(["scatter", "--experiment", "ps_scan", "--out", str(tmp_path / "ps.csv")]) == 0
    assert len(calls) == 2 * len(RunConfig().ps_impacts) == 10


def test_spectral_json(tmp_path):
    out = tmp_path / "sp.json"
    assert run(["spectral", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["doubled_charges"] == [2]
    assert len(data["divisor"]) == 1
    assert data["divisor"][0]["multiplicity"] == 2
    assert data["product_residual"] < 1e-10
    assert data["phase_modulus"] == pytest.approx(1.0, abs=1e-12)
    assert data["supports_disjoint"] is True


def test_spectral_json_unchanged_at_default_config(tmp_path):
    # the factors stay in root form and x_coeffs, y_coeffs are expanded on
    # first read with the same arithmetic: every key but the reality defect,
    # now read in root form, is what the coefficient-form lift wrote
    out = tmp_path / "sp.json"
    assert run(["spectral", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data.pop("reality_defect") < 1e-13
    assert hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest() == (
        "6f2f51e9782296830f8cdbbb5c89565fbc43af5c2ba128f6dbeab50a3cfb81cd")


def test_spectral_rejects_center_point(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spectral_point": [0.3, -0.2, 1.4]}))
    assert run(["spectral", "--config", str(cfg)]) == 2


def test_symplectic_json(tmp_path):
    out = tmp_path / "sy.json"
    assert run(["symplectic", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["discrepancy"] < 1e-10
    assert len(data["inputs_sha256"]) == 64
    # deterministic under the recorded seed
    out2 = tmp_path / "sy2.json"
    assert run(["symplectic", "--out", str(out2)]) == 0
    assert json.loads(out2.read_text()) == data


def test_symplectic_inputs_unchanged_at_default_config(tmp_path):
    # the synthetic sheets and tangents are drawn from the seed in a fixed
    # order; any change to the draws or the coefficient arithmetic moves this
    out = tmp_path / "sy.json"
    assert run(["symplectic", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["inputs_sha256"] == (
        "f9061d72751fa4d40fdad0674d2526aba68545ebe89491685b9e253b75895881")


def test_config_errors(tmp_path):
    missing = tmp_path / "missing.json"
    assert run(["verify", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"charges\": [0]}")
    assert run(["verify", "--config", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text("{\"no_such_key\": 1}")
    assert run(["verify", "--config", str(unknown)]) == 2
    for command in ("verify", "symplectic"):
        assert run([command, "--seed", "-1", "--out", str(tmp_path / "out.json")]) == 2
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("config", [{"symplectic_nodes": 10}, {"symplectic_nodes": 100.5},
                                    {"symplectic_sheets": 0}, {"symplectic_sheets": True},
                                    {"mass": "a"}, {"seed": 1.5}, {"seed": -1}])
def test_symplectic_config_errors_exit_2(tmp_path, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["symplectic", "--config", str(cfg), "--out", str(tmp_path / "sy.json")]) == 2
    assert not (tmp_path / "sy.json").exists()


@pytest.mark.parametrize("config", [{"scatter_delta": 0.001}, {"scatter_delta": 0.0},
                                    {"scatter_impacts": [0.0, 1e-3]}, {"scatter_center": 3},
                                    {"scatter_center": -1}, {"ps_horizon": -5},
                                    {"metric_grid": 0}, {"lam": -1}, {"metric_theta": "a"}])
def test_scatter_and_metric_config_errors_exit_2(tmp_path, config):
    # checked at load, whatever the subcommand: these once ended in a traceback
    # (exit 1) or ran silently (exit 0)
    cfg, out = tmp_path / "cfg.json", tmp_path / "sc.csv"
    cfg.write_text(json.dumps(config))
    for command in ("scatter", "metric"):
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("config", [{"spectral_point": [0.1, 0.2, -1.0]},
                                    {"spectral_point": [0.1, 0.2]}, {"lam": -1},
                                    {"seed": 1.5}, {"seed": -1}])
def test_spectral_and_verify_config_errors_exit_2(tmp_path, config):
    # these once ended in a traceback (exit 1)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(config))
    for command in ("spectral", "verify"):
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("command, config", [
    (["scatter", "--experiment", "ps_scan"], {"ps_impacts": ["a"]}),
    (["metric"], {"centers": [[0.3, -0.2, 1.4], [0.3, -0.2, 1.4]], "charges": [1, 1]}),
    (["spectral"], {"charges": [1.5]}),
    (["verify"], {"break_dirac": "no"})], ids=["ps_impacts", "duplicate", "charge", "break"])
def test_config_values_of_the_wrong_kind_exit_2(tmp_path, capsys, command, config):
    # these once ended in a traceback (exit 1), ran a charge 1.5 as 1 (exit 0), or
    # took "no" as true and ran the negative control (exit 1)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    assert run(command + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


# per RunConfig field, one value of the wrong kind and one out of range
# (non-finite, for a number that may be any finite value; a second wrong
# kind for break_dirac, only and out, which have no range), then the rules
# that span keys; JSON's NaN and Infinity and booleans once got through
_BAD_CONFIGS = {
    "centers": ([[0.3, -0.2, math.inf]], [[0.3, -0.2, -1.4]]),
    "centers-length": ([[0.3, -0.2]], [[0.3, -0.2, 0.0]]),
    "charges": ([True], [0]),
    "charges-float": ([1.5], [2.0]),
    "mass": (True, -0.5),
    "mass-nan": ("0.5", math.nan),
    "lam": ("1", math.inf),
    "seed": (1.5, -1),
    "metric_grid": (2.0, 0),
    "metric_theta": ("a", math.nan),
    "scatter_experiment": (1, "foo"),
    "scatter_delta": (True, 1e-3),
    "scatter_impacts": (["a"], []),
    "scatter_center": (True, 1),
    "ps_impacts": ([math.nan], []),
    "ps_horizon": ("40", 1e9),
    "symplectic_sheets": (True, 0),
    "symplectic_nodes": (100.5, 10),
    "spectral_point": ([math.nan, 0.8, 0.7], [0.1, 0.2, -1.0]),
    "break_dirac": ("no", 0),
    "only": (5, ["metric"]),
    "out": (5, False),
}
_BAD = [({key.split("-")[0]: v}, f"{key}-{i}") for key, vals in _BAD_CONFIGS.items()
        for i, v in enumerate(vals)] + [
    ({"centers": [[0.3, -0.2, 1.4], [0.3, -0.2, 1.4]], "charges": [1, 1]}, "distinct"),
    ({"centers": [[0.3, -0.2, 1.4]], "charges": [1, 1]}, "one-charge-each"),
    ({"scatter_impacts": [0.0, 1e-3]}, "impact-0"), ({"no_such_key": 1}, "unknown")]


@pytest.mark.parametrize("config", [c for c, _ in _BAD], ids=[i for _, i in _BAD])
@pytest.mark.parametrize("command", ["verify", "metric", "scatter", "spectral", "symplectic"])
def test_every_bad_config_value_exits_2_in_every_subcommand(tmp_path, capsys, command, config):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    # a file's "out" yields to the flag, so that case runs without one
    flags = [] if "out" in config else ["--out", str(out)]
    assert run([command, "--config", str(cfg)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_spectral_refuses_lam(tmp_path, capsys):
    # with lam set the lift ran on undoubled charges and wrote "doubled_charges": [1]
    cfg, out = tmp_path / "cfg.json", tmp_path / "sp.json"
    cfg.write_text(json.dumps({"lam": 3.0}))
    assert run(["spectral", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "lam" in err and err.count("\n") == 1
    assert not out.exists()


def test_experiment_flag_takes_the_names_load_takes():
    from monogeom import cli
    parser = cli._build_parser()
    for name in cli.EXPERIMENTS:
        assert parser.parse_args(["scatter", "--experiment", name]).scatter_experiment == name
    with pytest.raises(SystemExit):
        parser.parse_args(["scatter", "--experiment", "foo"])


def test_ps_horizon_beyond_the_mesh_cap_exits_2_at_once(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ps_horizon": 1e9}))
    t0 = time.perf_counter()
    assert run(["scatter", "--experiment", "ps_scan", "--config", str(cfg)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "ps_horizon" in capsys.readouterr().err
    assert RunConfig.load(None, {"ps_horizon": sc.MAX_HORIZON}).ps_horizon == sc.MAX_HORIZON


def test_symplectic_at_the_least_node_count(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "sy.json"
    cfg.write_text(json.dumps({"symplectic_nodes": 64, "symplectic_sheets": 1}))
    assert run(["symplectic", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["discrepancy"] < 1e-10


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig.load(None, {"centers": [[0, 0, -1]]})
    with pytest.raises(ValueError):
        RunConfig.load(None, {"centers": [[0, 0, 1]], "charges": [1, 2]})


def _no_scipy_run(code, timeout=60):
    # run code in a fresh interpreter on this checkout and return its stdout lines
    src = os.path.dirname(os.path.dirname(monogeom.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True, timeout=timeout)
    return out.stdout.strip().splitlines()


_LOADED = ("print(sorted(m for m in sys.modules "
           "if m.split('.')[0] in ('scipy', 'fractions', 'decimal', '_decimal')))")


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: importing the CLI loads no scipy,
    # nor exact rational or decimal arithmetic
    assert _no_scipy_run("import sys, monogeom.cli; " + _LOADED)[-1] == "[]"


def test_cli_import_loads_neither_checks_nor_numpy_polynomial():
    # only verify and symplectic use the check table, and the library's
    # polynomial evaluation, roots and quadrature table need no numpy.polynomial;
    # minitwistor loads on first access to monogeom.minitwistor
    code = ("import sys, monogeom.cli; print(sorted(m for m in sys.modules if m in "
            "('monogeom.checks', 'monogeom.minitwistor') "
            "or m.split('.')[:2] == ['numpy', 'polynomial']))")
    assert _no_scipy_run(code)[-1] == "[]"


def test_minitwistor_loads_on_first_access():
    code = ("import sys, monogeom; loaded = 'monogeom.minitwistor' in sys.modules; "
            "mt = monogeom.minitwistor; from monogeom import minitwistor; "
            "print(loaded, mt is minitwistor is sys.modules['monogeom.minitwistor'], "
            "hasattr(mt, 'CurveO2k'), hasattr(monogeom, 'no_such_module'))")
    assert _no_scipy_run(code)[-1] == "False True True False"


def test_spectral_loads_no_scipy(tmp_path):
    # the doubling defect pairs divisor points and roots by center, with no
    # assignment solver
    out = tmp_path / "sp.json"
    code = ("import sys; from monogeom.cli import main; "
            f"assert main(['spectral', '--out', {str(out)!r}]) == 0; " + _LOADED)
    assert _no_scipy_run(code)[-1] == "[]"
    assert json.loads(out.read_text())["doubling_defect"] < 1e-9


def test_subcommands_load_no_scipy(tmp_path):
    # the other subcommands load no scipy, fractions or decimal either
    runs = [["verify"], ["metric"], ["scatter", "--experiment", "abelian_growth"],
            ["scatter", "--experiment", "ps_scan"], ["symplectic"]]
    runs = [args + ["--out", str(tmp_path / f"out{k}")] for k, args in enumerate(runs)]
    code = ("import sys; from monogeom.cli import main; "
            f"print([main(args) for args in {runs!r}]); " + _LOADED)
    codes, modules = _no_scipy_run(code, timeout=120)[-2:]
    assert codes == "[0, 0, 0, 0, 0]"
    assert modules == "[]"
    assert json.loads((tmp_path / "out0").read_text())["all_passed"] is True
