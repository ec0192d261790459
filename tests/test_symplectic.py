"""Deformation pairing: residue vs contour, coordinates, volume form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogeom import minitwistor as mt
from monogeom import symplectic as sy


def hand_example():
    """k = 1, u = 1, the two unit deformations of the worked case."""
    sheets = sy.SheetData((sy.Series([0.0]),), (sy.Series([1.0]),))
    z0 = 2.0 + 0j
    fac = sy.MarkedDivisor(z0).vanishing_factor()
    X1 = sy.TangentVector((fac,), (sy.Series([0.0]),), marked_at=z0)
    X2 = sy.TangentVector((sy.Series([0.0]),), (fac,), marked_at=z0)
    return sheets, X1, X2


def random_sheets(k, rng):
    etas = tuple(sy.Series(rng.normal(size=4) + 1j * rng.normal(size=4))
                 for _ in range(k))
    us = tuple(sy.Series(np.concatenate([
        [2.0 + rng.uniform(0.5, 1.5)], 0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3))]))
        for _ in range(k))
    return sy.SheetData(etas, us)


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------

def test_hand_example_residue_is_one():
    sheets, X1, X2 = hand_example()
    assert abs(sy.omega_D_residue(X1, X2, sheets) - 1.0) < 1e-12


def test_hand_example_contour_matches():
    sheets, X1, X2 = hand_example()
    r = sy.omega_D_residue(X1, X2, sheets)
    c = sy.omega_D_contour(X1, X2, sheets)
    assert abs(r - c) < 1e-12


def test_antisymmetry_on_random_data():
    rng = np.random.default_rng(0)
    sheets = random_sheets(2, rng)
    X = sy.random_marked_tangent(2, 1.8 - 0.2j, rng)
    assert abs(sy.omega_D_residue(X, X, sheets)) < 1e-14


@settings(max_examples=30, deadline=None)
@given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
def test_bilinearity(c1, c2):
    rng = np.random.default_rng(1)
    sheets = random_sheets(2, rng)
    z0 = 1.8 - 0.2j
    Xa = sy.random_marked_tangent(2, z0, rng)
    Xb = sy.random_marked_tangent(2, z0, rng)
    Xc = sy.random_marked_tangent(2, z0, rng)
    combo = sy.TangentVector(
        tuple(c1 * ea + c2 * eb for ea, eb in zip(Xa.eta_primes, Xb.eta_primes)),
        tuple(c1 * ua + c2 * ub for ua, ub in zip(Xa.u_primes, Xb.u_primes)),
        marked_at=z0)
    lhs = sy.omega_D_residue(combo, Xc, sheets)
    rhs = c1 * sy.omega_D_residue(Xa, Xc, sheets) + c2 * sy.omega_D_residue(Xb, Xc, sheets)
    scale = 1.0 + abs(lhs) + abs(rhs)
    assert abs(lhs - rhs) / scale < 1e-12


def test_contour_matches_residue_random():
    rng = np.random.default_rng(2)
    for k in (1, 2, 3):
        for _ in range(5):
            sheets = random_sheets(k, rng)
            z0 = complex(rng.uniform(1.5, 2.5), rng.normal())
            X1 = sy.random_marked_tangent(k, z0, rng)
            X2 = sy.random_marked_tangent(k, z0, rng)
            r = sy.omega_D_residue(X1, X2, sheets)
            c = sy.omega_D_contour(X1, X2, sheets, nodes=2048)
            assert abs(r - c) < 1e-8


def test_contour_radius_independent():
    rng = np.random.default_rng(3)
    sheets = random_sheets(3, rng)
    z0 = 2.2 + 0.5j
    X1 = sy.random_marked_tangent(3, z0, rng)
    X2 = sy.random_marked_tangent(3, z0, rng)
    vals = [sy.omega_D_contour(X1, X2, sheets, nodes=2048, radius=r)
            for r in (0.8, 0.9, 1.0, 1.1, 1.2)]
    drift = max(abs(v - vals[0]) for v in vals)
    assert drift < 1e-8


def test_contour_ill_conditioned_marking():
    rng = np.random.default_rng(4)
    sheets = random_sheets(1, rng)
    z0 = 1.0 + 1e-9j
    X1 = sy.random_marked_tangent(1, z0, rng)
    X2 = sy.random_marked_tangent(1, z0, rng)
    with pytest.raises(ValueError):
        sy.omega_D_contour(X1, X2, sheets)


def test_marking_validation():
    fac = sy.MarkedDivisor(2.0 + 0j).vanishing_factor()
    with pytest.raises(ValueError):
        sy.TangentVector((sy.Series([1.0]),), (sy.Series([0.0]),), marked_at=2.0 + 0j)
    X1 = sy.TangentVector((fac,), (sy.Series([0.0]),), marked_at=2.0 + 0j)
    fac15 = sy.MarkedDivisor(1.5 + 0j).vanishing_factor()
    X2 = sy.TangentVector((fac15,), (sy.Series([0.0]),), marked_at=1.5 + 0j)
    sheets = sy.SheetData((sy.Series([0.0]),), (sy.Series([1.0]),))
    with pytest.raises(ValueError):
        sy.omega_D_residue(X1, X2, sheets)
    unmarked = sy.TangentVector((fac,), (sy.Series([0.0]),))
    with pytest.raises(ValueError):
        sy.omega_D_residue(X1, unmarked, sheets)


def test_gram_rank_full():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        sheets = random_sheets(k, rng)
        z0 = 1.9 + 0.4j
        basis = [sy.random_marked_tangent(k, z0, rng) for _ in range(2 * k)]
        G = np.array([[sy.omega_D_residue(a, b, sheets) for b in basis] for a in basis])
        s = np.linalg.svd(G, compute_uv=False)
        assert s[-1] > 1e-8 * s[0]
        assert np.linalg.matrix_rank(G, tol=1e-10 * s[0]) == 2 * k


def test_matches_product_symplectic_form():
    rng = np.random.default_rng(6)
    sheets = random_sheets(3, rng)
    z0 = 2.1 - 0.7j
    X1 = sy.random_marked_tangent(3, z0, rng)
    X2 = sy.random_marked_tangent(3, z0, rng)
    lhs = sy.omega_D_contour(X1, X2, sheets, nodes=4096)
    rhs = sy.product_symplectic_value(X1, X2, sheets)
    assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# the volume form
# ---------------------------------------------------------------------------

def test_rho_chart_frame_normalization():
    u = 1.7 - 0.4j
    val = sy.rho_form(0.3 + 0.1j, -0.2j, u,
                      [1, 0, 0], [0, 1, 0], [0, 0, u])
    assert abs(val - 1.0) < 1e-14


def test_rho_antisymmetry():
    rng = np.random.default_rng(7)
    z, e, u = 0.4 + 0.2j, 1.1 - 0.3j, 2.0 + 0.5j
    v = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
    a = sy.rho_form(z, e, u, v[0], v[1], v[2])
    b = sy.rho_form(z, e, u, v[1], v[0], v[2])
    assert abs(a + b) < 1e-12


def test_rho_pole_at_zero():
    with pytest.raises(ZeroDivisionError):
        sy.rho_form(0.3, 0.1, 0.0, [1, 0, 0], [0, 1, 0], [0, 0, 1])


def test_rho_chart_covariance_single_sign():
    # pullback through the patching reproduces the other-chart value up
    # to the one global sign (-1), fixed by the frame convention
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(10):
        z = complex(rng.uniform(0.5, 1.5), rng.normal())
        e = complex(rng.normal(), rng.normal())
        u = complex(rng.normal() + 2.5, rng.normal())
        vs = [rng.normal(size=3) + 1j * rng.normal(size=3) for _ in range(3)]
        F = sy.rho_form(z, e, u, *vs)
        Jp = sy.patch_jacobian(z, e, u)
        zt, et, ut = mt.l2_patch_transition(z, e, u)
        Ft = sy.rho_form(zt, et, ut, *(Jp @ v for v in vs))
        worst = max(worst, abs(Ft * z ** 4 + F) / max(abs(F), 1e-12))
    assert worst < 1e-10


def test_patch_jacobian_consistency():
    # finite-difference check of the closed-form Jacobian
    z, e, u = 0.8 + 0.3j, -0.6 + 0.9j, 1.5 - 0.7j
    J = sy.patch_jacobian(z, e, u)
    h = 1e-6
    for k, dv in enumerate([(h, 0, 0), (0, h, 0), (0, 0, h)]):
        a = np.array(mt.l2_patch_transition(z + dv[0], e + dv[1], u + dv[2]))
        b = np.array(mt.l2_patch_transition(z - dv[0], e - dv[1], u - dv[2]))
        fd = (a - b) / (2 * h)
        assert np.max(np.abs(fd - J[:, k])) < 1e-6


# ---------------------------------------------------------------------------
# fiber coordinates
# ---------------------------------------------------------------------------

def test_fiber_coordinates_origin_curve():
    curve = mt.charge1_curve([0.0, 0.0, 0.0])
    for zs in (0.3 + 0.1j, -1.2j):
        pts = sy.fiber_coordinates(curve, None, zs)
        assert pts == [(0j, 1 + 0j)]


def test_fiber_coordinates_axis_point():
    x3 = 0.6
    curve = mt.charge1_curve([0.0, 0.0, x3])
    zs = 0.4 - 0.2j
    (eta, u), = sy.fiber_coordinates(curve, None, zs)
    assert eta == pytest.approx(-2 * x3 * zs, rel=1e-12)
    u0, _ = mt.l2_trivialization(curve)
    assert u == pytest.approx(complex(u0(zs)), rel=1e-12)


def test_fiber_coordinates_k2_synthetic_roots():
    rng = np.random.default_rng(9)
    r1 = np.array([0.3 + 0.4j, -0.2, 0.1j])        # degree 2 coefficients
    r2 = np.array([-1.1, 0.5j, 0.2, 0.0, -0.05])   # degree 4 coefficients
    curve = mt.CurveO2k(2, (r1, r2))
    zs = 0.7 - 0.3j
    poly = curve.eta_poly_at(zs)
    want = sorted(np.polynomial.polynomial.polyroots(poly), key=lambda v: (v.real, v.imag))
    pts = sy.fiber_coordinates(curve, lambda z, e: 1.0 + 0j, zs)
    got = sorted((e for e, _ in pts), key=lambda v: (v.real, v.imag))
    assert np.allclose(got, want, atol=1e-10)


def test_fiber_coordinates_branch_error():
    # eta^2 = 0 over every fiber: all fibers are branch fibers
    curve = mt.CurveO2k(2, (np.zeros(3), np.zeros(5)))
    with pytest.raises(ValueError):
        sy.fiber_coordinates(curve, lambda z, e: 1.0, 0.3 + 0j)
