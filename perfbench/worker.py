"""One workload process of the benchmark (started by run.py).

Imports monogeom from the checkout's src/, builds the workload from the
seed, prints a READY line, and then, by mode:

  setup   exits (a set-up probe);
  run     one warm-up op, then whole passes over the problem set, untraced,
          until another pass would overrun --seconds, and at least the
          workload's min_passes, the passes taking the --cpus cores in
          turn, with a HostMeter sampling the host's speed; each op's time
          is its median over the passes at the reference speed;
  trace   one warm-up op, the workload's repeat block untraced and then
          traced (the tracing overhead and the first run of the exact-count
          check), then one traced pass over the whole set;
  repeat  one warm-up op, then the repeat block traced (the second run of
          the exact-count check).

After the READY line every mode measures the host factor (for the
set-up time); the last stdout line is the JSON result.  One caller, one thread: ops run
back to back (closed loop) and BLAS threads are pinned to 1 by run.py.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

_TAIL_LADDER = (99.9, 99.5, 99.0, 97.5, 95.0, 90.0)
REFERENCE_LOOPS = 400
REFERENCE_S = 2.2e-3           # see reference_s
REFERENCE_EVERY_S = 0.05


def tail_percentile(ops: int) -> float:
    """Highest ladder percentile with at least 10 of `ops` latencies
    beyond it; 100 (the slowest op) when there are too few."""
    for p in _TAIL_LADDER:
        if ops * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


def _versions() -> dict:
    """Interpreter and library versions, and the BLAS thread count as the
    loaded OpenBLAS reports it (None when it cannot be asked)."""
    import ctypes

    import numpy
    import scipy
    blas = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        try:
            so = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(so, fn):
                blas = int(getattr(so, fn)())
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas}


def _import_library():
    src = ROOT / "src"
    if not (src / "monogeom" / "__init__.py").is_file():
        sys.exit(f"error: no monogeom sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import monogeom.cli  # noqa: F401  (the import every CLI subcommand pays)
    import monogeom
    if Path(monogeom.__file__).resolve().parent != (src / "monogeom").resolve():
        sys.exit(f"error: monogeom imported from {monogeom.__file__}, not {src}")


def reference_s() -> float:
    """Wall time of a fixed piece of work of the kind the library's ops
    do (small-array numpy calls and pure-Python loops).  It tracks the
    host's current speed; REFERENCE_S is its time on an unloaded core of
    the host the benchmark was tuned on."""
    import numpy as np
    a = np.arange(16.0).reshape(4, 4)
    t0 = time.perf_counter()
    s = 0.0
    for i in range(REFERENCE_LOOPS):
        b = a * 1.0001 + i
        s += float(np.linalg.norm(b @ b.T)) + sum(range(20))
    return time.perf_counter() - t0


class HostMeter:
    """Samples the host's speed (reference_s) every REFERENCE_EVERY_S of
    wall time while it is entered, from a SIGALRM handler in the one
    thread, so that a long op is sampled inside as well as around.  The
    handler's own time is kept in `paused`."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []    # (start, reference seconds)
        self.paused = 0.0

    def _tick(self, signum=None, frame=None):
        t = time.perf_counter()
        self.samples.append((t, reference_s()))
        self.paused += time.perf_counter() - t

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._tick()

    def host(self, t0: float, t1: float) -> float:
        """Mean of the samples taken during [t0, t1] and the nearest one
        on each side, over REFERENCE_S (above 1 on a slowed host)."""
        starts = [t for t, _ in self.samples]
        refs = [r for _, r in self.samples[max(bisect.bisect_right(starts, t0) - 1, 0):
                                           bisect.bisect_left(starts, t1) + 1]]
        return sum(refs) / len(refs) / REFERENCE_S


def _run_ops(ops, wrap, tracer=None, meter=None):
    """Time and judge every op; one record per op, with its call counts
    when a tracer is given, and `at`, its (start, end) for
    HostMeter.host.  Only the op's own call is timed and traced: the
    time of the `meter` handler, entered around the call, is left out,
    and the oracles' work is judged after it, with the tracer paused."""
    from workloads import attempt, judge
    out = []
    for op in ops:
        before = tracer.counts() if tracer is not None else None
        paused = meter.paused if meter is not None else 0.0
        t0 = time.perf_counter()
        outcome = attempt(op, wrap)
        t1 = time.perf_counter()
        if meter is not None:
            paused = meter.paused - paused
        rec = {"s": t1 - t0 - paused, "at": (t0, t1)}
        if tracer is not None:
            after = tracer.counts()
            rec["counts"] = {k: v - before.get(k, 0) for k, v in after.items()
                             if v != before.get(k, 0)}
            tracer.paused = True
        try:
            rec["ok"], rec["ratio"], rec["why"], rec["failing"] = judge(outcome)
        finally:
            if tracer is not None:
                tracer.paused = False
        out.append(rec)
    return out


def _metered(ops, wrap, tracer=None):
    """_run_ops inside a HostMeter; each record's `at_ref` is its time at
    the reference speed (its time over its host factor)."""
    with HostMeter() as meter:
        recs = _run_ops(ops, wrap, tracer, meter)
    for r in recs:
        r["host"] = meter.host(*r["at"])
        r["at_ref"] = r["s"] / r["host"]
    return recs


def _summary(missed, attempted, worst, known):
    """Oracle and gate figures of `attempted` ops, from (failing checks,
    worst check) of the ops that missed and the worst error ratio."""
    from workloads import gate_failures
    by_check: dict[str, int] = {}
    for failing, _ in missed:
        for label in failing:
            by_check[label] = by_check.get(label, 0) + 1
    return {
        "attempted": attempted,
        "failed": gate_failures([f for f, _ in missed], attempted, known),
        "missed": len(missed),
        "failed_by_check": by_check,
        "max_err_ratio": worst,
        "misses": list(dict.fromkeys(why for _, why in missed))[:3],
    }


def _missed(recs):
    return [(r["failing"], r["why"]) for r in recs if not r["ok"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "repeat"), required=True)
    ap.add_argument("--cpus", required=True, help="cores the passes of a run take in turn")
    args = ap.parse_args(argv)

    # The host meter samples the host's speed during set-up; numpy comes
    # first because its reference work needs it.  `paused_s` is the
    # meter's own time, which run.py leaves out of the set-up time.
    t0 = time.perf_counter()
    import numpy as np
    with HostMeter() as meter:
        _import_library()
        import_s = time.perf_counter() - t0 - meter.paused
        import workloads
        t1, paused = time.perf_counter(), meter.paused
        wl = workloads.BY_NAME[args.workload](args.seed)
        build_s = time.perf_counter() - t1 - (meter.paused - paused)
    host = meter.host(-math.inf, math.inf)
    print("READY " + json.dumps({"import_s": import_s, "build_s": build_s,
                                 "paused_s": meter.paused, "host": host}), flush=True)
    if args.mode == "setup":
        return 0

    wl.warmup()
    # the percentile depends only on the number of ops, not on speed
    res = {"ops_per_pass": len(wl.ops), "shares": wl.shares,
           "tail_percentile": tail_percentile(len(wl.ops)),
           "known_defects": {k: vars(d) for k, d in wl.known_defects.items()}}
    if args.mode == "run":
        cpus = [{int(c)} for c in args.cpus.split(",")]
        passes, pass_s, missed, worst = [], [], [], 0.0
        start = time.perf_counter()
        while True:
            os.sched_setaffinity(0, cpus[len(passes) % len(cpus)])
            t = time.perf_counter()
            recs = _metered(wl.ops, workloads.no_wrap)
            pass_s.append(time.perf_counter() - t)
            # a few numbers an op, so that what the benchmark keeps does
            # not move peak_rss_mb with the number of passes
            passes.append(np.array([(r["s"], r["host"]) for r in recs]))
            missed += _missed(recs)
            worst = max([worst] + [r["ratio"] for r in recs])
            if len(pass_s) >= wl.min_passes and \
                    time.perf_counter() - start + pass_s[-1] > args.seconds:
                break
        # Other load on a shared host slows the ops and the reference work
        # alike, here by up to 2x and from one op to the next.  The median
        # over the passes of an op's time at the reference speed is its
        # latency, and solve_s sums those over the problem set.
        raw, hosts = np.stack(passes, axis=1).transpose(2, 0, 1)    # [op, pass]
        lat_ms = np.median(raw / hosts, axis=1) * 1e3
        res.update(_summary(missed, raw.size, worst, wl.known_defects))
        res.update({
            "passes": len(pass_s),
            "pass_s": pass_s,
            "pass_host": [float(np.median(h)) for h in hosts.T],
            "raw_solve_s": float(np.median(raw, axis=1).sum()),
            "solve_s": float(lat_ms.sum()) / 1e3,
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_tail_ms": float(np.percentile(lat_ms, res["tail_percentile"])),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        import spans

        def traced(ops, run):
            tr = spans.Tracer()
            spans.install(tr)
            try:
                return tr, run(ops, tr.sampler, tracer=tr)
            finally:
                tr.restore()

        # the tracing overhead compares the block at the reference speed;
        # the layer pass runs without the meter, whose handler time would
        # land in the spans
        if args.mode == "trace":
            untraced = _metered(wl.repeat_block, workloads.no_wrap)
            res["untraced_block_s"] = sum(r["at_ref"] for r in untraced)
        _, block = traced(wl.repeat_block, _metered)
        res["traced_block_s"] = sum(r["at_ref"] for r in block)
        res["block_counts"] = [r["counts"] for r in block]
        if args.mode == "trace":
            tr, recs = traced(wl.ops, _run_ops)
            res["layers"] = spans.layer_metrics(tr)
        else:
            recs = block
        res.update(_summary(_missed(recs), len(recs),
                            max((r["ratio"] for r in recs), default=0.0), wl.known_defects))
    if math.isinf(res["max_err_ratio"]):
        res["max_err_ratio"] = 1e300
    res["versions"] = _versions()
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
