"""Acceptance suite: every criterion at its stated tolerance, one
printed pass/fail line per criterion (run with -s to see them)."""

import math
import time

import numpy as np

from monogeom import minitwistor as mt
from monogeom import moduli as md
from monogeom import scattering as sc
from monogeom import spectral as sp
from monogeom import symplectic as sy
from monogeom import twistor as tw
from monogeom import hyperbolic as hyp
from monogeom.hyperbolic import (ORIGIN, MultiCenterPotential, OrientedGeodesic,
                                 PointUHS)
from monogeom.numdiff import holo_partial
from monogeom.projective import INFINITY, ExtendedComplex


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------

def test_accept_01_distance_pythagoras():
    t0 = time.perf_counter()
    exact = hyp.dist(PointUHS(0, 0, 1), PointUHS(0, 0, math.e))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        g = OrientedGeodesic(
            start=ExtendedComplex(complex(rng.normal(), rng.normal())),
            end=ExtendedComplex(complex(rng.normal() + 3.0, rng.normal())))
        t = rng.uniform(-3, 3)
        lhs = math.cosh(hyp.dist(ORIGIN, hyp.geodesic_point(g, ORIGIN, t)))
        rhs = math.cosh(hyp.dist(ORIGIN, hyp.geodesic_point(g, ORIGIN, 0.0))) * math.cosh(t)
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.perf_counter() - t0
    ok = abs(exact - 1.0) < 1e-14 and worst < 1e-10 and elapsed < 1.0
    report(1, "distance-pythagoras", ok,
           f"axis defect {abs(exact - 1.0):.1e}, identity {worst:.1e}, {elapsed:.2f}s")


def test_accept_02_busemann():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10):
        u = ExtendedComplex(complex(rng.normal(), rng.normal()))
        x = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.5))
        tdir = hyp.tangent_toward_boundary(ORIGIN, u)
        numeric = 30.0 - hyp.dist(x, hyp.point_at(ORIGIN, tdir, 30.0))
        L = hyp.rotation_to_infinity(u)
        logz = math.log(hyp.apply_lorentz(L, x).z)
        worst = max(worst, abs(numeric - logz))
    norm = max(abs(float(hyp.horospherical_height(u, ORIGIN.as_array())) - 1.0)
               for u in (INFINITY, ExtendedComplex(0j), ExtendedComplex(1.2 - 0.7j)))
    ok = worst < 1e-6 and norm == 0.0
    report(2, "busemann", ok, f"limit defect {worst:.1e}, normalization {norm:.1e}")


def test_accept_03_green():
    p = PointUHS(0.2, -0.4, 1.1)
    worst = max(abs(hyp.laplacian(lambda a: hyp.green(p, a), q))
                for q in (np.array([0.9, 0.3, 0.8]), np.array([-0.6, 0.1, 1.9]),
                          np.array([0.1, 0.9, 1.4])))
    lone = MultiCenterPotential(0.0, (p,), (1,))
    limit = md.abelian_charge(lone, 0)
    ok = worst < 1e-6 and abs(limit - 1.0) < 1e-3
    report(3, "green-function", ok,
           f"laplacian {worst:.1e}, short-distance limit defect {abs(limit-1):.1e}")


def test_accept_04_factorization():
    rng = np.random.default_rng(104)
    worst_prod, worst_real, worst_phase = 0.0, 0.0, 0.0
    for _ in range(8):
        n = int(rng.integers(1, 5))
        centers = []
        while len(centers) < n:
            c = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
            if all(hyp.dist(c, d) > 0.3 for d in centers):
                centers.append(c)
        charges = [int(rng.integers(1, 4)) for _ in range(n)]
        V = MultiCenterPotential(0.5, tuple(centers), tuple(charges))
        while True:
            q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
            if all(hyp.dist(q, c) > 0.3 for c in centers) and \
                    not hyp.is_geodesically_trapped(q, centers, tol=1e-6):
                break
        quads = [sp.restrict_to_line(c, q) for c in centers]
        pair = sp.factor(quads, charges)
        zs = np.exp(2j * np.pi * np.arange(1000) / 1000)
        target = np.ones_like(zs)
        for quad, l in zip(quads, charges):
            target *= quad(zs) ** l
        scale = float(np.max(np.abs(target)))
        worst_prod = max(worst_prod, float(np.max(np.abs(pair.product_at(zs) - target))) / scale)
        worst_real = max(worst_real, pair.reality_defect())
        other = sp.factor(quads, charges, phase=rng.uniform(0, 6.28))
        worst_phase = max(worst_phase, max(abs(a - b) for a, b in
                                           zip(pair.alphas, other.alphas)))
    ok = worst_prod < 1e-10 and worst_real < 1e-10 and worst_phase < 1e-12
    report(4, "factorization", ok,
           f"product {worst_prod:.1e}, reality {worst_real:.1e}, phase drift {worst_phase:.1e}")


def test_accept_05_twistor_line_lift():
    rng = np.random.default_rng(105)
    worst_prod, worst_double = 0.0, 0.0
    disjoint = True
    for _ in range(6):
        n = int(rng.integers(1, 4))
        centers = []
        while len(centers) < n:
            c = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
            if all(hyp.dist(c, d) > 0.3 for d in centers):
                centers.append(c)
        charges = [int(rng.integers(1, 3)) for _ in range(n)]
        V = MultiCenterPotential.for_su2_charge1(centers, charges, mass=rng.uniform(0.1, 1.0))
        while True:
            q = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.0))
            if all(hyp.dist(q, c) > 0.3 for c in centers) and \
                    not hyp.is_geodesically_trapped(q, centers, tol=1e-6):
                break
        data = sp.lift_twistor_line(q, V)
        worst_prod = max(worst_prod, data.product_residual(n=64))
        worst_double = max(worst_double, data.divisor_doubling_defect())
        disjoint = disjoint and data.divisor_supports_disjoint()
    ok = worst_prod < 1e-10 and worst_double < 1e-9 and disjoint
    report(5, "twistor-line-lift", ok,
           f"xy residual {worst_prod:.1e}, doubling {worst_double:.1e}, disjoint {disjoint}")


def test_accept_06_lebrun_geometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    configs = [
        MultiCenterPotential.for_su2_charge1([PointUHS(0.3, -0.2, 1.4)], [1], mass=0.5),
        MultiCenterPotential(1.3, (PointUHS(0, 0, 1), PointUHS(0.9, 0.4, 0.7)), (1, 2)),
        MultiCenterPotential(2.0, (PointUHS(0, 0, 1.2), PointUHS(-0.8, 0.3, 0.8),
                                   PointUHS(0.5, -0.9, 1.6)), (1, 1, 2)),
    ]
    gauges = [INFINITY, ExtendedComplex(0j), ExtendedComplex(1.0 + 0j),
              ExtendedComplex(1j), ExtendedComplex(0.7 - 0.4j),
              ExtendedComplex(-1.3 + 0.8j)]

    def sample(V):
        while True:
            p = np.array([rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                          rng.uniform(0.6, 1.8), rng.uniform(0, 2 * math.pi)])
            if all(hyp.dist(c, p[:3]) > 0.5 for c in V.centers):
                return p

    w_scal = w_dom = w_nij = w_weyl = w_dirac = w_hodge = 0.0
    for V in configs:
        conn = md.DiracConnection(V)
        p4 = sample(V)
        cpatched = conn.with_patches_for(p4[:3])
        w_dirac = max(w_dirac, md.dirac_curvature_residual(cpatched, p4[:3]))
        w_hodge = max(w_hodge, md.hodge_identity_residuals(V, cpatched, p4))
        rep = md.curvature(md.gibbons_hawking_metric(V, cpatched), p4)
        w_weyl = max(w_weyl, rep.weyl_sd_norm)
        for u in gauges:
            gauge = md.kahler_structure(V, conn, u)
            for _ in range(2):
                p4 = sample(gauge.V)
                rep = md.curvature(gauge.metric, p4)
                w_scal = max(w_scal, abs(rep.scalar))
                w_dom = max(w_dom, md.dOmega_residual(gauge.kahler_form, p4))
                w_nij = max(w_nij, md.nijenhuis_residual(gauge.complex_structure, p4))
    flatV = MultiCenterPotential(1.0, (), ())
    flat = md.curvature(md.kahler_structure(flatV, md.DiracConnection(flatV),
                                            INFINITY).metric,
                        np.array([0.3, -0.4, 1.2, 0.7]))
    elapsed = time.perf_counter() - t0
    ok = (w_scal < 1e-4 and w_dom < 1e-6 and w_nij < 1e-6 and w_weyl < 1e-4
          and w_dirac < 1e-8 and w_hodge < 1e-10 and flat.riemann_norm < 1e-5
          and elapsed < 300.0)
    report(6, "lebrun-geometry", ok,
           f"scalar {w_scal:.1e}, dOmega {w_dom:.1e}, nijenhuis {w_nij:.1e}, "
           f"weyl+ {w_weyl:.1e}, connection {w_dirac:.1e}, hodge {w_hodge:.1e}, "
           f"flat {flat.riemann_norm:.1e}, {elapsed:.1f}s")


def test_accept_07_atiyah_integral():
    val = tw.gamma_L_integral()
    defect = abs(abs(val) - 4 * math.pi)
    report(7, "atiyah-integral", defect < 1e-8, f"modulus defect {defect:.1e}")


def test_accept_08_closest_point_derivatives():
    rng = np.random.default_rng(108)
    w_euc = 0.0
    for _ in range(6):
        zeta = complex(rng.normal(), rng.normal())
        d = holo_partial(mt.closest_point_euc_polarized,
                         (0j, 0j, zeta, np.conj(zeta)), 3)
        w_euc = max(w_euc, float(np.max(np.abs(d))))
    w_hyp = 0.0
    for _ in range(6):
        z = complex(rng.normal(), rng.normal())
        J = tw.closest_point_wirtinger(z, z)
        om = np.zeros((3, 3))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            om[i, j] = rng.normal()
            om[j, i] = -om[i, j]
        a2 = complex(J[:, 0] @ om @ J[:, 3])
        a4 = complex(J[:, 0] @ om @ J[:, 1])
        w_hyp = max(w_hyp, abs(a2 + a4))
    ok = w_euc < 1e-8 and w_hyp < 1e-8
    report(8, "closest-point-derivatives", ok,
           f"euclidean {w_euc:.1e}, hyperbolic {w_hyp:.1e}")


def test_accept_09_symplectic_form():
    rng = np.random.default_rng(109)
    sheets1 = sy.SheetData((sy.Series([0.0]),), (sy.Series([1.0]),))
    fac = sy.MarkedDivisor(2.0 + 0j).vanishing_factor()
    X1 = sy.TangentVector((fac,), (sy.Series([0.0]),), marked_at=2.0 + 0j)
    X2 = sy.TangentVector((sy.Series([0.0]),), (fac,), marked_at=2.0 + 0j)
    hand = abs(sy.omega_D_residue(X1, X2, sheets1) - 1.0)

    def sheets_of(k):
        etas = tuple(sy.Series(rng.normal(size=4) + 1j * rng.normal(size=4))
                     for _ in range(k))
        us = tuple(sy.Series(np.concatenate(
            [[2.0 + rng.uniform(0.5, 1.5)],
             0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))]))
            for _ in range(k))
        return sy.SheetData(etas, us)

    worst = 0.0
    for trial in range(100):
        k = 1 + trial % 3
        sheets = sheets_of(k)
        z0 = complex(rng.uniform(1.5, 2.5), rng.normal())
        A = sy.random_marked_tangent(k, z0, rng)
        B = sy.random_marked_tangent(k, z0, rng)
        worst = max(worst, abs(sy.omega_D_residue(A, B, sheets)
                               - sy.omega_D_contour(A, B, sheets, nodes=2048)))
    ranks_ok = True
    for k in (1, 2, 3):
        sheets = sheets_of(k)
        basis = [sy.random_marked_tangent(k, 1.8 + 0.5j, rng) for _ in range(2 * k)]
        G = np.array([[sy.omega_D_residue(a, b, sheets) for b in basis] for a in basis])
        s = np.linalg.svd(G, compute_uv=False)
        ranks_ok = ranks_ok and (np.linalg.matrix_rank(G, tol=1e-10 * s[0]) == 2 * k)
    sheets = sheets_of(3)
    A = sy.random_marked_tangent(3, 2.2 - 0.4j, rng)
    B = sy.random_marked_tangent(3, 2.2 - 0.4j, rng)
    vals = [sy.omega_D_contour(A, B, sheets, nodes=2048, radius=r)
            for r in (0.8, 1.0, 1.2)]
    drift = max(abs(v - vals[0]) for v in vals)
    ok = hand < 1e-12 and worst < 1e-8 and ranks_ok and drift < 1e-8
    report(9, "symplectic-form", ok,
           f"hand {hand:.1e}, residue-contour {worst:.1e}, ranks {ranks_ok}, drift {drift:.1e}")


def test_accept_10_l2_triviality():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        p = rng.normal(size=3)
        curve = mt.charge1_curve(p)
        u0, u1 = mt.l2_trivialization(curve)
        for k in range(32):
            z = np.exp(2j * math.pi * k / 32)
            eta = mt.curve_eta(curve, z)
            lhs = u1(1.0 / z)
            rhs = np.exp(-2.0 * eta / z) * u0(z)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
    z, e, u = 0.7 + 0.2j, -0.3 + 1.1j, 2.0 - 0.5j
    z2, e2, u2 = mt.l2_patch_transition_inverse(*mt.l2_patch_transition(z, e, u))
    round_def = max(abs(z2 - z), abs(e2 - e), abs(u2 - u))
    ok = worst < 1e-10 and round_def < 1e-14
    report(10, "l2-triviality", ok,
           f"overlap {worst:.1e}, roundtrip {round_def:.1e}")


def test_accept_11_growth_law():
    t0 = time.perf_counter()
    slopes = {}
    for l in (1, 2, 3):
        V = MultiCenterPotential(0.4, (PointUHS(0, 0, 1),), (l,))
        fit = sc.abelian_growth_exponent(V, 0, delta=0.1,
                                         z_samples=np.geomspace(1e-5, 1e-2, 8))
        slopes[l] = fit.slope
    ident = max(abs(np.subtract(*sc.sinh_model_integral(l, 0.1, z)))
                for l in (1.0, 2.0, 3.0) for z in (1e-4, 1e-2))
    elapsed = time.perf_counter() - t0
    ok = all(abs(slopes[l] - l) / l < 0.05 for l in slopes) \
        and ident < 1e-10 and elapsed < 120.0
    report(11, "growth-law", ok,
           f"slopes {', '.join(f'{l}:{s:.4f}' for l, s in slopes.items())}, "
           f"identity {ident:.1e}, {elapsed:.1f}s")


def test_accept_12_splitting_norm():
    through = sc.spectral_indicator(
        sc.PSField(x0=[0.0, 0.0, 0.0], u=[0.0, 0.0, 1.0]), 40.0)
    at_one = sc.spectral_indicator(
        sc.PSField(x0=[1.0, 0.0, 0.0], u=[0.0, 0.0, 1.0]), 40.0)
    sup = max(sc.m_gamma_norm(sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0]), 40.0)
              for b in (5.0, 8.0, 12.0, 16.0, 20.0))
    ok = through < 1e-6 and at_one > 0.1 and sup < 4.0
    report(12, "splitting-norm", ok,
           f"through-center {through:.1e}, impact-1 {at_one:.2f}, family sup {sup:.2f}")


def test_accept_13_genus():
    vals = {k: sp.genus_of_spectral_curve(k) for k in (1, 2, 5)}
    ok = vals == {1: 0, 2: 1, 5: 16}
    report(13, "genus", ok, f"{vals}")


def test_accept_14_rho_chart_covariance():
    rng = np.random.default_rng(114)
    worst = 0.0
    for _ in range(20):
        z = complex(rng.uniform(0.5, 1.5), rng.normal())
        e = complex(rng.normal(), rng.normal())
        u = complex(rng.normal() + 2.5, rng.normal())
        vs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
        F = sy.rho_form(z, e, u, *vs)
        Jp = sy.patch_jacobian(z, e, u)
        zt, et, ut = mt.l2_patch_transition(z, e, u)
        Ft = sy.rho_form(zt, et, ut, *(Jp @ v for v in vs))
        worst = max(worst, abs(Ft * z ** 4 + F) / max(abs(F), 1e-12))
    report(14, "rho-chart-covariance", worst < 1e-10, f"defect {worst:.1e}")
