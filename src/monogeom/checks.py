"""The one table of checks, shared by `monogeom verify` and the
acceptance suite.

Each entry is one criterion reproduced from the thesis: an id
`group.name`, the anchor it checks, the tolerance `verify` holds it to
and a measure.  A measure takes a `Setting` (the configurations to
measure on) and a seeded generator and returns the defect of one draw;
`measure` reads the worst of n draws, which passes when it is at most
the tolerance.  Every entry draws from its own generator, seeded by
(seed, id), so it reads the same whichever entries ran before it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import hyperbolic as hyp
from . import minitwistor as mt
from . import moduli as md
from . import scattering as sc
from . import spectral as sp
from . import symplectic as sy
from . import twistor as tw
from .hyperbolic import ORIGIN, MultiCenterPotential, PointUHS
from .numdiff import holo_partial
from .projective import INFINITY, ExtendedComplex, roots_of_unity

__all__ = ["Setting", "Check", "TABLE", "GAUGES", "measure", "random_sheets",
           "sample_point", "hand_example"]


@dataclass(frozen=True)
class Setting:
    """What the configuration-dependent checks measure on."""

    connections: tuple = ()    # DiracConnections: the metric configurations
    lines: tuple = ()          # (potential, point) pairs whose twistor lines are lifted
    sheets: tuple = (2,)       # sheet counts of the symplectic checks
    nodes: int = 2048          # contour quadrature nodes
    delta: float = 0.1         # half-width of the model sinh profile


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    tol: float
    measure: Callable[[Setting, np.random.Generator], float]


_ENTRIES: list[Check] = []    # in report order; frozen into TABLE at the end
# the six boundary gauges of the scalar-flat Kahler checks
GAUGES = (INFINITY, ExtendedComplex(0j), ExtendedComplex(1.0 + 0j), ExtendedComplex(1j),
          ExtendedComplex(0.7 - 0.4j), ExtendedComplex(-1.3 + 0.8j))


def check(check_id: str, anchor: str, tol: float, fn=None):
    """Enter `fn`, or the decorated function, in the table as the measure
    of `check_id`."""
    def enter(fn):
        _ENTRIES.append(Check(check_id, anchor, tol, fn))
        return fn
    return enter if fn is None else enter(fn)


def measure(entry: Check | str, seed: int, samples: int = 1,
            setting: Setting = Setting()) -> float:
    """Worst defect of an entry (or the entry of an id) over `samples`
    draws from a generator seeded by (seed, id)."""
    if isinstance(entry, str):
        entry = _BY_ID[entry]
    rng = np.random.default_rng([seed, zlib.crc32(entry.id.encode())])
    return _worst(entry.measure(setting, rng) for _ in range(samples))


def _worst(defects) -> float:
    """The largest defect, NaN if any is (the builtin max drops a NaN that is not first)."""
    return float(np.max(np.fromiter(defects, dtype=float)))


# sampling

def _complex(rng) -> complex:
    return complex(rng.normal(), rng.normal())


def sample_point(V: MultiCenterPotential, rng) -> np.ndarray:
    """Point (x, y, z, theta) of the total space, in |x|, |y| <= 1.2 and
    0.5 <= z <= 2.2, at distance more than 0.45 from every center of V."""
    for _ in range(256):
        p = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                      rng.uniform(0.5, 2.2), rng.uniform(0, 2 * math.pi)])
        if all(hyp.dist(c, p[:3]) > 0.45 for c in V.centers):
            return p
    raise RuntimeError("could not find a point away from the centers")


def random_sheets(k: int, rng, u0: float | None = None) -> sy.SheetData:
    """k sheets with cubic eta_i and u_i a constant plus a small cubic;
    the constant is u0, or 2 + U(0.5, 1.5) per sheet when u0 is None."""
    etas = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(k)]
    us = [np.concatenate([[(2.0 + rng.uniform(0.5, 1.5) if u0 is None else u0) + 0j],
                          0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))]) for _ in range(k)]
    return sy.SheetData(etas, us)


def _marked_pair(k: int, rng):
    """k random sheets and two tangents marked at one random divisor point."""
    sheets = random_sheets(k, rng)
    z0 = complex(rng.uniform(1.5, 2.5), rng.normal())
    return sheets, sy.random_marked_tangent(k, z0, rng), sy.random_marked_tangent(k, z0, rng)


def _connection_points(s: Setting, rng):
    """(connection, point): a point for each configuration, the Dirac
    strings turned away from it."""
    for c in s.connections:
        p = sample_point(c.V, rng)
        yield c.with_patches_for(p[:3]), p


def _gauge_points(s: Setting, rng):
    """(gauge, point): a point in each of the six gauges of each
    configuration, the gauge's Dirac strings turned away from it (patches
    fixed at O can leave the point inside a string's tube)."""
    for c in s.connections:
        for u in GAUGES:
            p = sample_point(md.kahler_structure(c.V, c, u).V, rng)
            yield md.kahler_structure(c.V, c, u, base_for_patches=PointUHS(*p[:3])), p


def _lifts(s: Setting):
    return ((V, q, sp.lift_twistor_line(q, V)) for V, q in s.lines)


def _ps_line(b: float) -> sc.PSField:
    return sc.PSField(x0=[b, 0.0, 0.0], u=[0.0, 0.0, 1.0])


# hyperbolic primitives

check("hyperbolic.dist-axis", "axis-distance closed form", 1e-12,
      lambda s, rng: abs(hyp.dist(ORIGIN, PointUHS(0, 0, math.e)) - 1.0))


@check("hyperbolic.pythagoras", "right-triangle cosh identity", 1e-10)
def _pythagoras(s, rng):
    g = hyp.OrientedGeodesic(start=ExtendedComplex(_complex(rng)),
                             end=ExtendedComplex(_complex(rng) + 3.0))
    t = rng.uniform(-3, 3)
    lhs = math.cosh(hyp.dist(ORIGIN, hyp.geodesic_point(g, ORIGIN, t)))
    return abs(lhs - math.cosh(hyp.dist(ORIGIN, hyp.geodesic_point(g, ORIGIN, 0.0)))
               * math.cosh(t))


@check("hyperbolic.busemann-limit", "horocycle limit vs closed form and rotated chart", 1e-6)
def _busemann_limit(s, rng):
    u = ExtendedComplex(_complex(rng))
    x = PointUHS(rng.normal(), rng.normal(), rng.uniform(0.4, 2.5))
    far = hyp.point_at(ORIGIN, hyp.tangent_toward_boundary(ORIGIN, u), 30.0)
    limit = 30.0 - hyp.dist(x, far)
    log_z = math.log(hyp.apply_lorentz(hyp.rotation_to_infinity(u), x).z)
    return _worst((abs(limit - hyp.busemann(u, ORIGIN, x)), abs(limit - log_z)))


check("hyperbolic.horosphere-normalization", "horospherical height 1 at the base point", 0.0,
      lambda s, rng: _worst(abs(float(hyp.horospherical_height(u, ORIGIN.as_array())) - 1.0)
                            for u in (INFINITY, ExtendedComplex(0j), ExtendedComplex(1.2 - 0.7j))))

_GREEN_POLE = PointUHS(0.2, -0.4, 1.1)
check("hyperbolic.green-harmonic", "Laplace-Beltrami residual of the Green kernel", 1e-6,
      lambda s, rng: _worst(abs(hyp.laplacian(lambda a: hyp.green(_GREEN_POLE, a), x))
                            for x in ([0.9, 0.3, 0.8], [-0.6, 0.1, 1.9], [0.1, 0.9, 1.4])))
check("hyperbolic.green-limit", "short-distance limit 2 rho G -> 1", 1e-3,
      lambda s, rng: abs(md.abelian_charge(
          MultiCenterPotential(0.0, (_GREEN_POLE,), (1,)), 0) - 1.0))


# twistor and minitwistor identities

@check("twistor.theta-diagonal", "tautological form vanishes on the diagonal", 1e-14)
def _theta_diagonal(s, rng):
    z = _complex(rng)
    return sum(abs(v) for v in tw.theta01(z, z))


check("twistor.atiyah-integral", "area pairing of the duality projection", 1e-8,
      lambda s, rng: abs(abs(tw.gamma_L_integral()) - 4 * math.pi))


@check("twistor.closest-point-jacobian", "diagonal derivative matrix", 1e-8)
def _printed_jacobian(s, rng):
    z = _complex(rng)
    zb = np.conj(z)
    printed = np.array([
        [1 - zb ** 2, 1 - z ** 2, -1 + z ** 2],
        [-1j * (1 + zb ** 2), 1j * (1 + z ** 2), -1j * (1 + z ** 2)],
        [2 * zb, 2 * z, -2 * z],
    ]) / (2.0 * (1 + abs(z) ** 2) ** 2)
    return float(np.max(np.abs(tw.closest_point_wirtinger(z, z)[:, [0, 1, 3]] - printed)))


@check("twistor.a2-plus-a4", "pullback coefficient cancellation", 1e-8)
def _a2_plus_a4(s, rng):
    z = _complex(rng)
    J = tw.closest_point_wirtinger(z, z)
    om = np.zeros((3, 3))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        om[i, j] = rng.normal()
        om[j, i] = -om[i, j]
    return abs(complex(J[:, 0] @ om @ J[:, 3]) + complex(J[:, 0] @ om @ J[:, 1]))


@check("minitwistor.euclidean-closest-point",
       "Euclidean closest-point map holomorphic on the zero section", 1e-8)
def _euclidean_closest_point(s, rng):
    zeta = _complex(rng)
    d = holo_partial(mt.closest_point_euc_polarized, (0j, 0j, zeta, np.conj(zeta)), 3)
    return float(np.max(np.abs(d)))


@check("minitwistor.l2-overlap", "L^2 trivializations agree on the overlap", 1e-10)
def _l2_overlap(s, rng):
    curve = mt.charge1_curve(rng.normal(size=3))
    u0, u1 = mt.l2_trivialization(curve)
    zs = roots_of_unity(32)
    lhs = np.array([u1(1.0 / z) for z in zs])
    rhs = np.array([np.exp(-2.0 * mt.curve_eta(curve, z) / z) * u0(z) for z in zs])
    return float(np.max(np.abs(lhs - rhs) / np.abs(lhs)))


_ZEU = (0.7 + 0.2j, -0.3 + 1.1j, 2.0 - 0.5j)
check("minitwistor.l2-roundtrip", "patch transition inverts", 1e-14,
      lambda s, rng: _worst(map(abs, np.subtract(
          mt.l2_patch_transition_inverse(*mt.l2_patch_transition(*_ZEU)), _ZEU))))


# spectral data

@check("spectral.product", "xy reconstructs the restricted section", 1e-10)
def _product(s, rng):
    # x y against the restricted quadratics themselves on 1000 points
    def defect(V, q, data):
        zs = roots_of_unity(1000)
        target = np.ones_like(zs)
        for c, l in zip(V.centers, V.charges):
            target *= sp.restrict_to_line(c, q, data.chart.su2)(zs) ** l
        return float(np.max(np.abs(data.pair.product_at(zs) - target)) / np.max(np.abs(target)))
    return _worst(defect(*lift) for lift in _lifts(s))


check("spectral.reality", "antipodal-conjugate pairing of the factors", 1e-10,
      lambda s, rng: _worst(data.pair.reality_defect() for *_, data in _lifts(s)))
check("spectral.divisor-disjoint", "divisor avoids its antipodal image", 0.5,
      lambda s, rng: float(not all(data.divisor_supports_disjoint() for *_, data in _lifts(s))))
check("spectral.divisor-doubling", "doubled-divisor multiset identity", 1e-9,
      lambda s, rng: _worst(data.divisor_doubling_defect() for *_, data in _lifts(s)))


@check("spectral.phase-invariance", "divisor independent of the gauge phase", 1e-12)
def _phase_invariance(s, rng):
    # each center's root against itself under a random gauge phase
    def drift(V, q, data):
        other = sp.lift_twistor_line(q, V, phase=rng.uniform(0, 2 * math.pi))
        return _worst([0.0] + [abs(a - b) for a, b in zip(data.pair.alphas, other.pair.alphas)])
    return _worst(drift(*lift) for lift in _lifts(s))


check("spectral.genus", "genus (k - 1)^2 of a charge-k spectral curve", 0.0,
      lambda s, rng: _worst(abs(sp.genus_of_spectral_curve(k) - g)
                            for k, g in ((1, 0), (2, 1), (5, 16))))


# moduli-space geometry

check("metric.dirac-curvature", "gauge potential curvature duality", 1e-8,
      lambda s, rng: _worst(md.dirac_curvature_residual(c, p[:3])
                            for c, p in _connection_points(s, rng)))
check("metric.hodge-identities", "circle-bundle duality identities", 1e-10,
      lambda s, rng: _worst(md.hodge_identity_residuals(c.V, c, p)
                            for c, p in _connection_points(s, rng)))
check("metric.weyl-asd", "anti-self-duality in the bundle orientation", 1e-4,
      lambda s, rng: _worst(md.curvature(md.gibbons_hawking_metric(c.V, c), p).weyl_sd_norm
                            for c, p in _connection_points(s, rng)))
check("metric.scalar-flat", "vanishing scalar curvature of the Kahler gauges", 1e-4,
      lambda s, rng: _worst(abs(md.curvature(g.metric, p).scalar)
                            for g, p in _gauge_points(s, rng)))
check("metric.kahler-closed", "closedness of the Kahler forms", 1e-6,
      lambda s, rng: _worst(md.dOmega_residual(g.kahler_form, p)
                            for g, p in _gauge_points(s, rng)))
check("metric.integrable", "Nijenhuis tensor of the complex structures", 1e-6,
      lambda s, rng: _worst(md.nijenhuis_residual(g.complex_structure, p)
                            for g, p in _gauge_points(s, rng)))


@check("metric.flat-fixture", "flat sanity metric", 1e-5)
def _flat_fixture(s, rng):
    flat = MultiCenterPotential(1.0, (), ())
    metric = md.kahler_structure(flat, md.DiracConnection(flat), INFINITY).metric
    return _worst(md.curvature(metric, np.array(p)).riemann_norm
                  for p in ([0.3, -0.2, 1.1, 0.4], [0.3, -0.4, 1.2, 0.7]))


# the symplectic pairing

@check("symplectic.residue-vs-contour", "dual evaluations of the pairing", 1e-8)
def _residue_vs_contour(s, rng):
    sheets, A, B = _marked_pair(int(rng.choice(s.sheets)), rng)
    return abs(sy.omega_D_residue(A, B, sheets)
               - sy.omega_D_contour(A, B, sheets, nodes=s.nodes))


@check("symplectic.antisymmetry", "pairing antisymmetry", 1e-12)
def _antisymmetry(s, rng):
    sheets, A, B = _marked_pair(int(rng.choice(s.sheets)), rng)
    return _worst((abs(sy.omega_D_residue(A, A, sheets)),
                   abs(sy.omega_D_residue(A, B, sheets) + sy.omega_D_residue(B, A, sheets))))


def hand_example():
    """(sheets, X1, X2) of the worked case: one sheet eta = 0, u = 1 and
    the tangents (f, 0), (0, f), f the vanishing factor at 2; the pairing
    is 1."""
    f = sy.MarkedDivisor(2.0 + 0j).vanishing_factor()
    return (sy.SheetData([[0.0]], [[1.0]]), sy.TangentVector([f], [[0.0]], marked_at=2.0 + 0j),
            sy.TangentVector([[0.0]], [f], marked_at=2.0 + 0j))


@check("symplectic.hand-value", "hand-computed one-sheet pairing", 1e-12)
def _hand_value(s, rng):
    sheets, X1, X2 = hand_example()
    return abs(sy.omega_D_residue(X1, X2, sheets) - 1.0)


@check("symplectic.nondegenerate", "rank 2k of the pairing on k sheets", 0.0)
def _nondegenerate(s, rng):
    def deficit(k):
        sheets = random_sheets(k, rng)
        basis = [sy.random_marked_tangent(k, 1.8 + 0.5j, rng) for _ in range(2 * k)]
        G = np.array([[sy.omega_D_residue(a, b, sheets) for b in basis] for a in basis])
        top = np.linalg.svd(G, compute_uv=False)[0]
        return abs(2 * k - np.linalg.matrix_rank(G, tol=1e-10 * top))
    return _worst(deficit(k) for k in s.sheets)


@check("symplectic.contour-radius", "contour value independent of the radius", 1e-8)
def _contour_radius(s, rng):
    def drift(sheets, A, B):
        vals = [sy.omega_D_contour(A, B, sheets, nodes=s.nodes, radius=r)
                for r in (0.8, 0.9, 1.0, 1.1, 1.2)]
        return _worst(abs(v - vals[0]) for v in vals)
    return _worst(drift(*_marked_pair(k, rng)) for k in s.sheets)


@check("symplectic.rho-chart-covariance", "volume form changes sign across the patches",
       1e-10)
def _rho_chart_covariance(s, rng):
    z = complex(rng.uniform(0.5, 1.5), rng.normal())
    e = _complex(rng)
    u = _complex(rng) + 2.5
    vs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
    F = sy.rho_form(z, e, u, *vs)
    Jp = sy.patch_jacobian(z, e, u)
    Ft = sy.rho_form(*mt.l2_patch_transition(z, e, u), *(Jp @ v for v in vs))
    return abs(Ft * z ** 4 + F) / max(abs(F), 1e-12)


# scattering

def _constant_mass_run(rng):
    f = sc.TrivialU1Field(mass=rng.uniform(0.1, 1.0))
    return f, sc.integrate_fundamental(f, -5.0, 5.0)


@check("scattering.trivial-growth", "constant-mass growth factor", 1e-8)
def _trivial_growth(s, rng):
    f, sol = _constant_mass_run(rng)
    return abs(sol.log_norm_final() - 10.0 * f.mass)


check("scattering.sinh-identity", "model-profile quadrature identity", 1e-10,
      lambda s, rng: _worst(abs(np.subtract(*sc.sinh_model_integral(l, s.delta, z)))
                            for l in (1.0, 2.0, 3.0) for z in (1e-4, 1e-3, 1e-2, 3e-2)))
check("scattering.det-balance", "determinant-trace balance", math.log(1e3),
      lambda s, rng: _constant_mass_run(rng)[1].det_balance_defect())


@check("scattering.growth-slope", "growth exponent recovers the abelian charge", 0.05)
def _growth_slope(s, rng):
    def defect(l):
        fit = sc.abelian_growth_exponent(MultiCenterPotential(0.4, (ORIGIN,), (l,)), 0,
                                         delta=0.1, z_samples=np.geomspace(1e-5, 1e-2, 8))
        return abs(fit.slope - l) / l
    return _worst(defect(l) for l in (1, 2, 3))


check("scattering.indicator-through-center", "line through the center is spectral", 1e-6,
      lambda s, rng: sc.spectral_indicator(_ps_line(0.0), 40.0))
check("scattering.indicator-off-center", "line at impact 1 is not spectral", 0.9,
      lambda s, rng: 1.0 - sc.spectral_indicator(_ps_line(1.0), 40.0))
check("scattering.splitting-norm-sup", "splitting reflection bounded far out", 4.0,
      lambda s, rng: _worst(sc.m_gamma_norm(_ps_line(b), 40.0)
                            for b in (5.0, 8.0, 12.0, 16.0, 20.0)))

TABLE = tuple(_ENTRIES)
_BY_ID = {c.id: c for c in TABLE}
