"""Every function defined in `src` serves a subcommand, a check or the benchmark.

A fresh interpreter runs each subcommand on its defaults (`verify` runs the
whole check table) and one warm-up plus the first ops of every benchmark
workload, judged by their oracles, with a trace function that records each
code object it enters.  Every `def` under `src/monogeom` must be entered, or
be listed in ALLOWED with the reason it stays."""

import ast
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "monogeom"
RUNS = (["verify"], ["metric"], ["scatter"], ["scatter", "--experiment", "ps_scan"],
        ["spectral"], ["symplectic"])
OPS = 10    # ops of each workload after its warm-up

ALLOWED = {
    "scattering.py:FieldSampler.ode_components": "abstract: every sampler overrides it",
    "symplectic.py:SheetData.u_zero_modulus": "reserved for the contour's node count "
                                              "(ROADMAP item 3)",
}


def defined_functions() -> dict[str, tuple[int, int]]:
    """'file:Qual.name' -> (first line of its code object, line of its def), for
    every def under src/monogeom, nested ones included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[f"{path.name}:{name}"] = (first, child.lineno)
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


def _production_run() -> None:
    """Run the production paths under a trace and print the (file, first line)
    of every src code object entered, as JSON."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    entered = set()

    def tracer(frame, event, arg):
        entered.add(frame.f_code)

    sys.settrace(tracer)
    from monogeom import cli
    import workloads    # read-only: the benchmark's own problem sets and oracles

    for argv in RUNS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"monogeom {' '.join(argv)} exited {code}")
    for name, build in workloads.BY_NAME.items():
        workload = build(0)
        workload.warmup()
        for op in workload.ops[:OPS]:
            workloads.gate(op)
    sys.settrace(None)
    print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered
                             if Path(c.co_filename).parent == SRC})))


def test_every_src_function_is_entered_or_allowed():
    out = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    entered = {(Path(f).name, line) for f, line in json.loads(out.stdout.splitlines()[-1])}
    functions = defined_functions()
    missing = [f"src/monogeom/{key.split(':')[0]}:{def_line} {key.split(':')[1]}"
               for key, (first, def_line) in functions.items()
               if (key.split(":")[0], first) not in entered and key not in ALLOWED]
    assert not missing, "entered by no subcommand, check or workload:\n" + "\n".join(missing)
    stale = [key for key in ALLOWED if key not in functions
             or (key.split(":")[0], functions[key][0]) in entered]
    assert not stale, f"allowed but entered, or gone: {stale}"


if __name__ == "__main__":
    _production_run()
