"""Euclidean O(2) picture: real structure, curves, bundle patching."""

import math

import numpy as np
import pytest

from monogeom import minitwistor as mt
from monogeom.numdiff import holo_partial, wirtinger


# ---------------------------------------------------------------------------
# real structure
# ---------------------------------------------------------------------------

def test_tau_T_involution():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = mt.MiniTwistorPoint(complex(rng.normal(), rng.normal()),
                                complex(rng.normal(), rng.normal()))
        if abs(p.zeta) < 0.05:
            continue
        q = mt.tau_T(mt.tau_T(p))
        assert abs(q.zeta - p.zeta) < 1e-13
        assert abs(q.eta - p.eta) < 1e-13


def test_tau_T_preserves_zero_section():
    p = mt.MiniTwistorPoint(0.7 - 0.2j, 0j)
    assert mt.tau_T(p).eta == 0


def test_chart_swap_roundtrip():
    p = mt.MiniTwistorPoint(1.3 + 0.4j, -0.7 + 2.2j)
    q = p.chart_swap().chart_swap()
    assert abs(q.zeta - p.zeta) < 1e-15
    assert abs(q.eta - p.eta) < 1e-15


# ---------------------------------------------------------------------------
# the 1-form
# ---------------------------------------------------------------------------

def test_theta_T_values():
    assert mt.theta01_T(0.3 + 0.2j, 0j) == 0
    assert mt.theta01_T(0j, 1.0 + 0j) == 2.0


def test_theta_T_dbar_closed():
    # the only potential obstruction is an etabar dependence of the
    # dzetabar coefficient, measured by a Wirtinger derivative
    rng = np.random.default_rng(1)
    for _ in range(6):
        zeta = complex(rng.normal(), rng.normal())
        eta = complex(rng.normal(), rng.normal())
        d = wirtinger(lambda e: mt.theta01_T(zeta, e), eta, var="zbar")
        assert abs(d) < 1e-8


# ---------------------------------------------------------------------------
# charge-1 curves
# ---------------------------------------------------------------------------

def test_charge1_curve_origin_is_zero_section():
    c = mt.charge1_curve([0.0, 0.0, 0.0])
    assert np.allclose(c.coeff_polys[0], 0.0)
    assert mt.curve_eta(c, 0.37 - 0.11j) == 0


def test_charge1_curve_reality():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = mt.charge1_curve(rng.normal(size=3))
        assert c.is_real(tol=1e-12)


def test_charge1_curve_not_real_for_complexified_point():
    c = mt.CurveO2k(1, (np.array([1.0 + 2j, 0.5, 0.3]),))
    assert not c.is_real(tol=1e-6)


def test_charge1_curve_lines_pass_through_point():
    rng = np.random.default_rng(3)
    for _ in range(8):
        p = rng.normal(size=3)
        c = mt.charge1_curve(p)
        zeta = complex(rng.normal(), rng.normal())
        eta = mt.curve_eta(c, zeta)
        base, u = mt.line_from_minitwistor(mt.MiniTwistorPoint(zeta, eta))
        assert np.linalg.norm(np.cross(p - base, u)) < 1e-10


def test_minitwistor_of_line_roundtrip():
    rng = np.random.default_rng(4)
    for _ in range(8):
        point = rng.normal(size=3)
        direction = rng.normal(size=3)
        tp = mt.minitwistor_of_line(point, direction)
        base, u = mt.line_from_minitwistor(tp)
        direction = direction / np.linalg.norm(direction)
        assert np.allclose(u, direction, atol=1e-12)
        assert np.linalg.norm(np.cross(point - base, u)) < 1e-10


# ---------------------------------------------------------------------------
# trivializations and patching
# ---------------------------------------------------------------------------

def test_l2_trivialization_origin():
    u0, u1 = mt.l2_trivialization(mt.charge1_curve([0.0, 0.0, 0.0]))
    assert u0(0.37 + 0.4j) == 1.0
    assert u1(-2.1 + 0.3j) == 1.0


def test_l2_trivialization_axis_constants():
    x3 = 0.8
    u0, u1 = mt.l2_trivialization(mt.charge1_curve([0.0, 0.0, x3]))
    for z in (0.2 + 0.1j, 3.0 - 1.0j):
        assert u0(z) == pytest.approx(math.exp(-2 * x3), rel=1e-14)
        assert u1(z) == pytest.approx(math.exp(+2 * x3), rel=1e-14)


def test_l2_trivialization_overlap_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        p = rng.normal(size=3)
        curve = mt.charge1_curve(p)
        u0, u1 = mt.l2_trivialization(curve)
        worst = 0.0
        for k in range(24):
            z = np.exp(2j * math.pi * k / 24)
            eta = mt.curve_eta(curve, z)
            lhs = u1(1.0 / z)
            rhs = np.exp(-2.0 * eta / z) * u0(z)
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        assert worst < 1e-10


def test_patch_transition_roundtrip_exact():
    z, e, u = 0.7 + 0.2j, -0.3 + 1.1j, 2.0 - 0.5j
    z2, e2, u2 = mt.l2_patch_transition_inverse(*mt.l2_patch_transition(z, e, u))
    assert abs(z2 - z) < 1e-14 and abs(e2 - e) < 1e-14 and abs(u2 - u) < 1e-14


def test_patch_transition_identity_on_zero_section():
    z, u = 0.9 - 0.4j, 1.7 + 0.2j
    zt, et, ut = mt.l2_patch_transition(z, 0j, u)
    assert et == 0
    assert abs(ut - u) < 1e-15


def test_patch_transition_chart_errors():
    with pytest.raises(ZeroDivisionError):
        mt.l2_patch_transition(0j, 1.0 + 0j, 1.0 + 0j)
    with pytest.raises(ValueError):
        mt.l2_patch_transition(1.0 + 0j, 1.0 + 0j, 0j)


def test_bundle_cocycle():
    b = mt.LPatchBundle(2.0)
    assert b.transition(1.0 + 0j, 0j) == 1.0


def test_trivialization_antipodal_modulus_one():
    # the reality pairing of the trivialization has unit modulus: the
    # finite-chart function at zeta against the swapped-chart function at
    # the antipode multiply to modulus one (the sign is a convention)
    rng = np.random.default_rng(11)
    for _ in range(8):
        p = rng.normal(size=3)
        u0, u1 = mt.l2_trivialization(mt.charge1_curve(p))
        z = complex(rng.normal(), rng.normal())
        prod = abs(u0(z)) * abs(u1(-np.conj(z)))
        assert prod == pytest.approx(1.0, rel=1e-12)


def test_curve_chart_swap():
    rng = np.random.default_rng(12)
    c = mt.charge1_curve(rng.normal(size=3))
    (a1t,) = c.coeff_polys_swapped()
    z = 0.8 - 0.3j
    import numpy.polynomial.polynomial as npoly
    lhs = npoly.polyval(1.0 / z, a1t)
    rhs = npoly.polyval(z, c.coeff_polys[0]) / z ** 2
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# closest point
# ---------------------------------------------------------------------------

def test_closest_point_euc_values():
    assert np.allclose(mt.closest_point_euc(0j, 0.8 - 0.3j), 0.0)
    assert np.allclose(mt.closest_point_euc(1.0 + 0j, 0j), [1.0, 0.0, 0.0])


def test_closest_point_euc_norm_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        eta = complex(rng.normal(), rng.normal())
        zeta = complex(rng.normal(), rng.normal())
        f = mt.closest_point_euc(eta, zeta)
        assert np.linalg.norm(f) == pytest.approx(
            abs(eta) / (1 + abs(zeta) ** 2), rel=1e-12)


def test_closest_point_euc_polarization_consistent():
    eta, zeta = 1.3 - 0.2j, 0.5 + 0.9j
    pol = mt.closest_point_euc_polarized(eta, np.conj(eta), zeta, np.conj(zeta))
    assert np.allclose(pol.imag, 0.0, atol=1e-14)
    assert np.allclose(pol.real, mt.closest_point_euc(eta, zeta))


def test_dfdzetabar_vanishes_on_zero_section():
    # complex-step derivative of the polarized map in the zetabar slot
    rng = np.random.default_rng(7)
    for _ in range(8):
        zeta = complex(rng.normal(), rng.normal())
        args = (0j, 0j, zeta, np.conj(zeta))
        d = holo_partial(mt.closest_point_euc_polarized, args, 3)
        assert np.max(np.abs(d)) < 1e-10
