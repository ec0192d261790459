"""monogeom benchmark: time to solution at stated accuracy, per workload.

    python3 perfbench/run.py --workload curvature_grid --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table each

Run from the root of a checkout; the library is imported from its src/.
Each op is judged against an independent oracle (workloads.py); an op
that misses a tolerance or raises counts in fail_frac (provenance line).
`failed` counts the ops that fail the regression gate: an unlisted
exception, a miss on a check that is not a known defect of the workload,
or a known defect that misses on more than its recorded share of the
ops; `correct` is true when none does.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with tracing off.  Every time
is wall time at the reference speed: wall time over the host factor, the
time of a fixed piece of reference work measured around and during it
over that work's time on an unloaded core (worker.reference_s), so that
the shared host's changes of speed cancel out:
  setup_s      median of 11 set-up probes, started on each core in turn:
               from starting a fresh interpreter to the end of
               `import monogeom.cli` plus building the workload's inputs
               (before the first timed op);
  solve_s      time to solve the fixed problem set once, after one warm-up
               op: the sum over its ops of each op's median time over the
               passes the run makes, which alternate cores;
  op_p50_ms    median over the ops of that per-op time;
  op_tail_ms   the same at the highest percentile with at least 10 ops
               beyond it (the slowest op when there are too few);
  peak_rss_mb  peak resident memory of the workload process.
The provenance line also carries the raw wall times.
fail_frac, in the provenance line, is the share of attempted ops that
missed an oracle tolerance or raised.

--trace 1 runs the same workload with every layer boundary wrapped
(spans.py) and prints the per-layer metrics, the tracing overhead, and
the exact-repeat check of the machine-independent counts, which re-runs
the workload's repeat block in a second fresh process and flags any
count that differs.

Closed loop, one caller, one process, one thread: ops run back to back
in the workload process, BLAS threads pinned to 1, the process on one
core at a time.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("curvature_grid", "growth_law", "ps_scan", "spectral_lift")
SETUP_PROBES = 11                    # set-up samples per run (the workload process is one)
CHILD_TIMEOUT_S = 170.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CPUS = sorted(os.sched_getaffinity(0))

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
             "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_propagation"):
        return "calls/prop"
    if name.endswith("_per_lift"):
        return "charts/lift"
    if name.endswith("_per_report"):
        return "calls/report"
    return "count"


class ChildError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for k in THREAD_ENV:
        env[k] = "1"
    env.pop("PYTHONPATH", None)          # the worker imports the checkout's src/ itself
    return env


def spawn(workload: str, seed: int, seconds: int, mode: str,
          cpu: int) -> tuple[float, dict, dict]:
    """Start a worker on core `cpu`, time it from launch to its READY line,
    and wait for its result.  Returns (setup seconds, READY payload, result
    payload)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--cpus", ",".join(map(str, CPUS))]
    os.sched_setaffinity(0, {cpu})       # inherited by the child
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                                text=True)
    finally:
        os.sched_setaffinity(0, CPUS)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise ChildError(f"{mode} worker for {workload} failed before set-up finished")
        ready = json.loads(line[len("READY "):])
        rest = proc.stdout.read().strip().splitlines()
        if proc.wait() != 0:
            raise ChildError(f"{mode} worker for {workload} exited with {proc.returncode}")
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup_s, ready, (json.loads(rest[-1]) if rest else {})


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha256() -> str:
    import hashlib
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    # Set-up probes run before and after the workload process and start on
    # each core in turn, and the workload process changes core between
    # passes (worker.py), so the samples see both cores at several times.
    # Each probe samples the host's speed during its set-up (READY's
    # `host`), and its set-up time is taken at the reference speed.
    cores = itertools.cycle(CPUS)
    setups = [spawn(workload, seed, seconds, "setup", next(cores))
              for _ in range(SETUP_PROBES // 2)]
    setups.append(spawn(workload, seed, seconds, "trace" if trace else "run", next(cores)))
    res = setups[-1][2]
    setups += [spawn(workload, seed, seconds, "setup", next(cores))
               for _ in range(SETUP_PROBES - len(setups))]

    def at_reference(key):
        """Median over the set-up probes of a set-up time at the
        reference speed (over the probe's host factor)."""
        return statistics.median((s - ready["paused_s"] if key is None else ready[key])
                                 / ready["host"] for s, ready, _ in setups)

    if trace:
        _, _, rep = spawn(workload, seed, seconds, "repeat", next(cores))
        mismatches = [i for i, (a, b) in enumerate(zip(res["block_counts"], rep["block_counts"]))
                      if a != b]
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = at_reference("import_s")
        metrics["setup.build_s"] = at_reference("build_s")
        metrics["trace.overhead_frac"] = res["traced_block_s"] / res["untraced_block_s"] - 1.0
        metrics["trace.repeat_mismatches"] = len(mismatches)
        metrics["oracle.max_err_ratio"] = res["max_err_ratio"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())}
        extra = {"repeat_check": {"ops_compared": len(rep["block_counts"]),
                                  "mismatched_ops": mismatches}}
        if mismatches:
            print(f"warning: {workload}: counts differ between two runs of seed {seed} "
                  f"at ops {mismatches}", file=sys.stderr)
    else:
        metrics = {"setup_s": at_reference(None)}
        metrics.update({k: res[k] for k in ("solve_s", "op_p50_ms", "op_tail_ms",
                                            "peak_rss_mb")})
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}
        extra = {"passes": res["passes"], "pass_s": res["pass_s"], "pass_host": res["pass_host"],
                 "raw_solve_s": res["raw_solve_s"],
                 "raw_setup_s": statistics.median(s - r["paused_s"] for s, r, _ in setups),
                 "oracle_max_err_ratio": res["max_err_ratio"]}
    for why in res["misses"]:
        print(f"op in {workload} missed its oracle: {why}", file=sys.stderr)
    return {
        "workload": workload, "attempted": res["attempted"], "failed": res["failed"],
        "metrics": metrics,
        "versions": res["versions"],
        "info": {"ops_per_pass": res["ops_per_pass"], "tail_percentile": res["tail_percentile"],
                 "fail_frac": res["missed"] / res["attempted"],
                 "failed_by_check": res["failed_by_check"],
                 "known_defects": res["known_defects"], "input_shares": res["shares"],
                 **extra},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "monogeom" / "__init__.py").is_file():
        print(f"error: no monogeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            r = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results.append(r)
            print(f"{name}  (seed {args.seed}, {r['attempted']} ops, "
                  f"fail_frac {r['info']['fail_frac']:.4g}, {r['failed']} failed the gate)")
            for k, m in r["metrics"].items():
                print(f"  {k:<44} {m['value']:>14.6g} {m['unit']}")
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance = {
        "git_sha": _git_sha(), "src_sha256": _src_sha256(), **results[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workloads": {r["workload"]: r["info"] for r in results},
        "units": {r["workload"]: {k: m["unit"] for k, m in r["metrics"].items()}
                  for r in results},
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
