"""Euclidean O(2) picture: real structure, curves, bundle patching."""

import math

import numpy as np
import pytest

from monogeom import minitwistor as mt
from monogeom.checks import measure
from monogeom.projective import ExtendedComplex
from oracles import minitwistor_of_line


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


def chart_swap(p):
    """The point in the other chart of O(2): (1/zeta, eta/zeta^2)."""
    return mt.MiniTwistorPoint(1.0 / p.zeta, p.eta / p.zeta ** 2)


def test_chart_swap_roundtrip():
    p = mt.MiniTwistorPoint(1.3 + 0.4j, -0.7 + 2.2j)
    q = chart_swap(chart_swap(p))
    assert abs(q.zeta - p.zeta) < 1e-15
    assert abs(q.eta - p.eta) < 1e-15
    # the real structure reads the same in both charts
    a, b = chart_swap(mt.tau_T(p)), mt.tau_T(chart_swap(p))
    assert abs(a.zeta - b.zeta) < 1e-15 and abs(a.eta - b.eta) < 1e-15


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
        assert c.reality_defect() <= 1e-12


def test_charge1_curve_not_real_for_complexified_point():
    c = mt.CurveO2k(1, (np.array([1.0 + 2j, 0.5, 0.3]),))
    assert c.reality_defect() > 1e-6


def test_reality_defect_keeps_a_nan():
    # the builtin max read 0.0 here, as if the curve were real
    c = mt.CurveO2k(2, (np.zeros(3), np.array([math.nan, 0, 0, 0, 0])))
    assert math.isnan(c.reality_defect())


def direction_of(zeta: complex) -> np.ndarray:
    """Unit direction of the lines with chart value zeta: the unit-sphere
    image of zeta reflected in the equator (zeta = 0 points up)."""
    n = ExtendedComplex(zeta).unit_sphere()
    return np.array([n[0], n[1], -n[2]])


def test_charge1_curve_lines_pass_through_point():
    # the line through p with the direction of zeta has the fiber value eta
    # of p's curve over zeta
    rng = np.random.default_rng(3)
    for _ in range(8):
        p = rng.normal(size=3)
        c = mt.charge1_curve(p)
        zeta = complex(rng.normal(), rng.normal())
        line = minitwistor_of_line(p, direction_of(zeta))
        assert abs(line.zeta - zeta) < 1e-12 * max(1.0, abs(zeta))
        assert abs(line.eta - mt.curve_eta(c, zeta)) < 1e-10 * max(1.0, abs(zeta) ** 2)


def test_minitwistor_of_line_roundtrip():
    # the direction comes back from zeta, and sliding the point along the
    # line or scaling the direction leaves (zeta, eta) as it is
    rng = np.random.default_rng(4)
    for _ in range(8):
        point = rng.normal(size=3)
        direction = rng.normal(size=3)
        tp = minitwistor_of_line(point, direction)
        u = direction / np.linalg.norm(direction)
        assert np.allclose(direction_of(tp.zeta), u, atol=1e-12)
        moved = minitwistor_of_line(point + rng.normal() * u, 2.5 * direction)
        assert abs(moved.zeta - tp.zeta) < 1e-12 * max(1.0, abs(tp.zeta))
        assert abs(moved.eta - tp.eta) < 1e-10 * max(1.0, abs(tp.zeta) ** 2)


def test_minitwistor_of_line_refuses_the_chart_pole():
    with pytest.raises(ZeroDivisionError, match="chart pole"):
        minitwistor_of_line([0.1, 0.2, 0.3], [0.0, 0.0, -1.0])


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
    assert measure("minitwistor.l2-overlap", 5, 10) < 1e-10


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
    # in the other chart a_1 reads a_1(1/zt) zt^2: reversed coefficients,
    # so the curve carries the swapped points of its own points
    z = 0.8 - 0.3j
    swapped = chart_swap(mt.MiniTwistorPoint(z, mt.curve_eta(c, z)))
    a1t = c.coeff_polys[0][::-1]
    import numpy.polynomial.polynomial as npoly
    assert abs(swapped.eta + npoly.polyval(swapped.zeta, a1t)) < 1e-12


def test_sheets_and_coefficients_match_numpy_polynomial_bitwise():
    # roots from polyroots' companion matrix, in its order, and each a_i(zeta)
    # by its Horner steps, for Python and numpy scalars
    import numpy.polynomial.polynomial as npoly

    rng = np.random.default_rng(13)
    for k in (1, 2, 3, 4):
        for _ in range(50):
            c = mt.CurveO2k(k, tuple(rng.normal(size=2 * i + 1) + 1j * rng.normal(size=2 * i + 1)
                                     for i in range(1, k + 1)))
            for z in (complex(*rng.normal(size=2)), np.complex128(complex(*rng.normal(size=2)))):
                poly = c.eta_poly_at(z)
                want = [npoly.polyval(z, a) for a in c.coeff_polys[::-1]] + [1.0]
                assert poly.tobytes() == np.array(want, dtype=complex).tobytes()
                assert c.sheets_over(z).tobytes() == npoly.polyroots(poly).tobytes()


# ---------------------------------------------------------------------------
# closest point
# ---------------------------------------------------------------------------

def real_slice(eta, zeta):
    """The Euclidean closest-point map: the polarized map on its real slice."""
    f = mt.closest_point_euc_polarized(eta, np.conj(eta), zeta, np.conj(zeta))
    assert np.max(np.abs(f.imag)) <= 1e-15 * max(1.0, np.max(np.abs(f)))
    return f.real


def test_closest_point_euc_values():
    assert np.allclose(real_slice(0j, 0.8 - 0.3j), 0.0)
    assert np.allclose(real_slice(1.0 + 0j, 0j), [1.0, 0.0, 0.0])


def test_closest_point_euc_norm_identity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        eta = complex(rng.normal(), rng.normal())
        zeta = complex(rng.normal(), rng.normal())
        f = real_slice(eta, zeta)
        assert np.linalg.norm(f) == pytest.approx(
            abs(eta) / (1 + abs(zeta) ** 2), rel=1e-12)


def test_closest_point_euc_polarization_consistent():
    # against the point of the line nearest the origin, found in R^3, in the
    # axes of charge1_curve
    rng = np.random.default_rng(8)
    for _ in range(20):
        point, u = rng.normal(size=3), rng.normal(size=3)
        u /= np.linalg.norm(u)
        line = minitwistor_of_line(point, u)
        nearest = point - np.dot(point, u) * u
        assert np.allclose(real_slice(line.eta, line.zeta), nearest, atol=1e-12)


def test_dfdzetabar_vanishes_on_zero_section():
    # complex-step derivative of the polarized map in the zetabar slot
    assert measure("minitwistor.euclidean-closest-point", 7, 8) < 1e-10


def test_curve_reality_check():
    assert measure("minitwistor.curve-reality", 9, 200) < 2e-13
