"""Acceptance suite: every criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them).

Each criterion is an entry of `monogeom.checks.TABLE`, the table
`monogeom verify` runs; here it runs at its own seed, sample count,
configurations, tolerance and timing gate."""

import time

import numpy as np

from monogeom import checks
from monogeom import hyperbolic as hyp
from monogeom import moduli as md
from monogeom.hyperbolic import MultiCenterPotential, PointUHS


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def measure(check_id, seed, samples=1, **setting):
    return checks.measure(check_id, seed, samples, checks.Setting(**setting))


def random_lines(seed, count, max_centers, max_charge, moduli):
    """`count` seeded (potential, point) pairs: 1 to max_centers centers
    at least 0.3 apart with charges 1 to max_charge, and a point 0.3 away
    from every center and off every segment between two.  With `moduli`
    the potential carries the charge-1 bookkeeping at a random mass,
    otherwise lambda = 0.5 and the charges as drawn."""
    rng = np.random.default_rng(seed)

    def point():
        return PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
    lines = []
    for _ in range(count):
        n = int(rng.integers(1, max_centers + 1))
        centers = []
        while len(centers) < n:
            c = point()
            if all(hyp.dist(c, d) > 0.3 for d in centers):
                centers.append(c)
        charges = [int(rng.integers(1, max_charge + 1)) for _ in range(n)]
        if moduli:
            V = MultiCenterPotential.for_su2_charge1(centers, charges,
                                                     mass=rng.uniform(0.1, 1.0))
        else:
            V = MultiCenterPotential(0.5, tuple(centers), tuple(charges))
        while True:
            q = point()
            if all(hyp.dist(q, c) > 0.3 for c in centers) and \
                    not hyp.is_geodesically_trapped(q, centers, tol=1e-6):
                break
        lines.append((V, q))
    return tuple(lines)


# ---------------------------------------------------------------------------

def test_accept_01_distance_pythagoras():
    t0 = time.perf_counter()
    axis = measure("hyperbolic.dist-axis", 101)
    worst = measure("hyperbolic.pythagoras", 101, 1000)
    elapsed = time.perf_counter() - t0
    ok = axis < 1e-14 and worst < 1e-10 and elapsed < 1.0
    report(1, "distance-pythagoras", ok,
           f"axis defect {axis:.1e}, identity {worst:.1e}, {elapsed:.2f}s")


def test_accept_02_busemann():
    worst = measure("hyperbolic.busemann-limit", 102, 10)
    norm = measure("hyperbolic.horosphere-normalization", 102)
    ok = worst < 1e-6 and norm == 0.0
    report(2, "busemann", ok, f"limit defect {worst:.1e}, normalization {norm:.1e}")


def test_accept_03_green():
    worst = measure("hyperbolic.green-harmonic", 103)
    limit = measure("hyperbolic.green-limit", 103)
    ok = worst < 1e-6 and limit < 1e-3
    report(3, "green-function", ok,
           f"laplacian {worst:.1e}, short-distance limit defect {limit:.1e}")


def test_accept_04_factorization():
    lines = random_lines(104, 8, max_centers=4, max_charge=3, moduli=False)
    worst_prod = measure("spectral.product", 104, lines=lines)
    worst_real = measure("spectral.reality", 104, lines=lines)
    worst_phase = measure("spectral.phase-invariance", 104, lines=lines)
    ok = worst_prod < 1e-10 and worst_real < 1e-10 and worst_phase < 1e-12
    report(4, "factorization", ok,
           f"product {worst_prod:.1e}, reality {worst_real:.1e}, phase drift {worst_phase:.1e}")


def test_accept_05_twistor_line_lift():
    lines = random_lines(105, 6, max_centers=3, max_charge=2, moduli=True)
    worst_prod = measure("spectral.product", 105, lines=lines)
    worst_double = measure("spectral.divisor-doubling", 105, lines=lines)
    disjoint = measure("spectral.divisor-disjoint", 105, lines=lines) == 0.0
    ok = worst_prod < 1e-10 and worst_double < 1e-9 and disjoint
    report(5, "twistor-line-lift", ok,
           f"xy residual {worst_prod:.1e}, doubling {worst_double:.1e}, disjoint {disjoint}")


def test_accept_06_lebrun_geometry():
    t0 = time.perf_counter()
    configs = [
        MultiCenterPotential.for_su2_charge1([PointUHS(0.3, -0.2, 1.4)], [1], mass=0.5),
        MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2)),
        MultiCenterPotential(2.0, (PointUHS(0, 0, 1.2), PointUHS(-0.8, 0.3, 0.8),
                                   PointUHS(0.5, -0.9, 1.6)), (1, 1, 2)),
    ]
    conns = tuple(md.DiracConnection(V) for V in configs)
    w_dirac = measure("metric.dirac-curvature", 106, connections=conns)
    w_hodge = measure("metric.hodge-identities", 106, connections=conns)
    w_weyl = measure("metric.weyl-asd", 106, connections=conns)
    # two points in each of the six gauges of each configuration
    w_scal = measure("metric.scalar-flat", 106, 2, connections=conns)
    w_dom = measure("metric.kahler-closed", 106, 2, connections=conns)
    w_nij = measure("metric.integrable", 106, 2, connections=conns)
    flat = measure("metric.flat-fixture", 106)
    elapsed = time.perf_counter() - t0
    ok = (w_scal < 1e-4 and w_dom < 1e-6 and w_nij < 1e-6 and w_weyl < 1e-4
          and w_dirac < 1e-8 and w_hodge < 1e-10 and flat < 1e-5
          and elapsed < 300.0)
    report(6, "lebrun-geometry", ok,
           f"scalar {w_scal:.1e}, dOmega {w_dom:.1e}, nijenhuis {w_nij:.1e}, "
           f"weyl+ {w_weyl:.1e}, connection {w_dirac:.1e}, hodge {w_hodge:.1e}, "
           f"flat {flat:.1e}, {elapsed:.1f}s")


def test_accept_07_atiyah_integral():
    defect = measure("twistor.atiyah-integral", 107)
    report(7, "atiyah-integral", defect < 1e-8, f"modulus defect {defect:.1e}")


def test_accept_08_closest_point_derivatives():
    w_euc = measure("minitwistor.euclidean-closest-point", 108, 6)
    w_hyp = measure("twistor.a2-plus-a4", 108, 6)
    w_dist = measure("twistor.closest-point-distance", 108, 100)
    ok = w_euc < 1e-8 and w_hyp < 1e-8 and w_dist < 6e-15
    report(8, "closest-point-derivatives", ok,
           f"euclidean {w_euc:.1e}, hyperbolic {w_hyp:.1e}, cosh-distance {w_dist:.1e}")


def test_accept_09_symplectic_form():
    hand = measure("symplectic.hand-value", 109)
    worst = measure("symplectic.residue-vs-contour", 109, 100, sheets=(1, 2, 3))
    rank_deficit = measure("symplectic.nondegenerate", 109, sheets=(1, 2, 3))
    drift = measure("symplectic.contour-radius", 109, sheets=(1, 2, 3))
    ok = hand < 1e-12 and worst < 1e-8 and rank_deficit == 0 and drift < 1e-8
    report(9, "symplectic-form", ok,
           f"hand {hand:.1e}, residue-contour {worst:.1e}, rank deficit {rank_deficit:.0f}, "
           f"drift {drift:.1e}")


def test_accept_10_l2_triviality():
    worst = measure("minitwistor.l2-overlap", 110, 10)
    round_def = measure("minitwistor.l2-roundtrip", 110)
    ok = worst < 1e-10 and round_def < 1e-14
    report(10, "l2-triviality", ok,
           f"overlap {worst:.1e}, roundtrip {round_def:.1e}")


def test_accept_11_growth_law():
    t0 = time.perf_counter()
    slope = measure("scattering.growth-slope", 111)
    closed = measure("scattering.abelian-closed-form", 111)
    elapsed = time.perf_counter() - t0
    ok = slope < 0.05 and closed <= 0.5 and elapsed < 120.0
    report(11, "growth-law", ok,
           f"relative slope defect {slope:.1e}, propagator {closed:.2f} tol off the closed form, "
           f"{elapsed:.1f}s")


def test_accept_12_splitting_norm():
    through = measure("scattering.indicator-through-center", 112)
    at_one = 1.0 - measure("scattering.indicator-off-center", 112)
    sup = measure("scattering.splitting-norm-sup", 112)
    ok = through < 1e-6 and at_one > 0.1 and sup < 4.0
    report(12, "splitting-norm", ok,
           f"through-center {through:.1e}, impact-1 {at_one:.2f}, family sup {sup:.2f}")


def test_accept_13_genus():
    defect = measure("spectral.genus", 113)
    report(13, "genus", defect == 0.0, f"defect from (k - 1)^2 at k = 1, 2, 5: {defect:.0f}")


def test_accept_14_rho_chart_covariance():
    worst = measure("symplectic.rho-chart-covariance", 114, 20)
    report(14, "rho-chart-covariance", worst < 1e-10, f"defect {worst:.1e}")


def test_accept_15_real_structures():
    lines = random_lines(115, 8, max_centers=4, max_charge=3, moduli=True)
    w_section = measure("twistor.ptilde-sigma-real", 115, lines=lines)
    w_curve = measure("minitwistor.curve-reality", 115, 100)
    ok = w_section < 3e-11 and w_curve < 2e-13
    report(15, "real-structures", ok,
           f"multi-center section {w_section:.1e}, curve of real lines {w_curve:.1e}")
