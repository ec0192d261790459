"""High-precision oracle for the PS propagator test: log ||H(5)|| (spectral
norm) for the fundamental matrix H' = M(t) H, H(-5) = I, along the
unrotated PS geodesic x0 = (b, 0, 0), u = (0, 0, 1), at impacts b = 0.5,
1, 2 and 5.

M(t) is written from the field formulas, independently of the library:
with p = x0 + t u and r = |p|, phi = h(r) p and a = k(r) u x p, where
h = (2 coth 2r - 1/r)/r and k = (1/r - 2 csch 2r)/r, and M = w . sigma
with w = -(phi + i a)/2 and the Pauli matrices sigma.  The system is
integrated by mpmath's Taylor-series `odefun` at 30 significant digits.

    python tests/ps_oracle.py            # recompute every impact, rewrite ps_oracle.json
    python tests/ps_oracle.py --check    # recompute b = 1 and compare with the stored value

The file is not named test_*.py, so pytest does not collect it;
`tests/test_scattering.py` reads the stored values.
"""

import argparse
import json
import pathlib
import time

import mpmath

STORE = pathlib.Path(__file__).with_name("ps_oracle.json")
IMPACTS = (0.5, 1.0, 2.0, 5.0)
T0, T1 = -5, 5
DPS = 30
SIGMA = (((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1)))


def ps_matrix(b, t):
    p = (mpmath.mpf(b), mpmath.mpf(0), mpmath.mpf(t))
    r = mpmath.sqrt(sum(c * c for c in p))
    h = (2 * mpmath.coth(2 * r) - 1 / r) / r
    k = (1 / r - 2 * mpmath.csch(2 * r)) / r
    u = (0, 0, 1)
    cross = (u[1] * p[2] - u[2] * p[1], u[2] * p[0] - u[0] * p[2], u[0] * p[1] - u[1] * p[0])
    w = [-(h * pc + 1j * k * ac) / 2 for pc, ac in zip(p, cross)]
    return [[sum(wi * s[i][j] for wi, s in zip(w, SIGMA)) for j in range(2)] for i in range(2)]


def log_norm(b):
    """log of the spectral norm of H(T1), with H(T0) = I."""
    def rhs(t, y):
        M, H = ps_matrix(b, t), (y[0:2], y[2:4])
        return [M[i][0] * H[0][j] + M[i][1] * H[1][j] for i in range(2) for j in range(2)]
    H = mpmath.odefun(rhs, T0, [1, 0, 0, 1])(T1)
    frob2 = sum(abs(x) ** 2 for x in H)
    det2 = abs(H[0] * H[3] - H[1] * H[2]) ** 2
    return mpmath.log((frob2 + mpmath.sqrt(frob2 ** 2 - 4 * det2)) / 2) / 2


def compute(b):
    with mpmath.workdps(DPS):
        start = time.perf_counter()
        value = log_norm(b)
        return mpmath.nstr(value, 25), time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="recompute b = 1 only and compare with the stored value")
    args = ap.parse_args()
    if args.check:
        stored = json.loads(STORE.read_text())["log_norm"]["1.0"]
        value, seconds = compute(1.0)
        gap = abs(mpmath.mpf(value) - mpmath.mpf(stored))
        print(f"b = 1: {value} in {seconds:.1f} s; stored {stored}; gap {mpmath.nstr(gap, 3)}")
        raise SystemExit(0 if gap < mpmath.mpf("1e-20") else 1)
    values, runtimes = {}, {}
    for b in IMPACTS:
        values[str(b)], runtimes[str(b)] = compute(b)
        print(f"b = {b}: {values[str(b)]} in {runtimes[str(b)]:.1f} s")
    STORE.write_text(json.dumps({
        "what": "log ||H(5)||_2 with H' = M(t) H, H(-5) = I, along the PS geodesic "
                "x0 = (b, 0, 0), u = (0, 0, 1); written by tests/ps_oracle.py",
        "provenance": {"mpmath": mpmath.__version__, "dps": DPS, "method": "odefun (Taylor series)",
                       "interval": [T0, T1], "runtime_s": {k: round(v, 2) for k, v in runtimes.items()}},
        "log_norm": values}, indent=2) + "\n")


if __name__ == "__main__":
    main()
