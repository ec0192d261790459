"""Deformation pairing: residue vs contour, coordinates, volume form."""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogeom import minitwistor as mt
from monogeom import symplectic as sy
from monogeom.checks import Setting, hand_example, measure, random_sheets
from monogeom.projective import polyval, roots_of_unity

SHEETS_1_2_3 = Setting(sheets=(1, 2, 3))


# ---------------------------------------------------------------------------
# the pairing
# ---------------------------------------------------------------------------

def test_hand_example_residue_is_one():
    assert measure("symplectic.hand-value", 0) < 1e-12


def test_hand_example_contour_matches():
    sheets, X1, X2 = hand_example()
    r = sy.omega_D_residue(X1, X2, sheets)
    c = sy.omega_D_contour(X1, X2, sheets)
    assert abs(r - c) < 1e-12


def test_antisymmetry_on_random_data():
    assert measure("symplectic.antisymmetry", 0, 10) < 1e-14


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
    assert measure("symplectic.residue-vs-contour", 2, 15, setting=SHEETS_1_2_3) < 1e-8


def test_contour_radius_independent():
    assert measure("symplectic.contour-radius", 3, setting=SHEETS_1_2_3) < 1e-8


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
    rhs = sy.omega_D_residue(X1, X2, sheets)
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
    assert measure("symplectic.rho-chart-covariance", 8, 10) < 1e-10


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
# the contour evaluation
# ---------------------------------------------------------------------------

def _contour_reference(X1, X2, sheets, nodes, radius=1.0):
    # the defining sum, sheet by sheet on evaluated values
    zs = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    total = np.zeros(nodes, dtype=complex)
    for e1, u1, e2, u2, u in zip(X1.eta_primes, X1.u_primes,
                                 X2.eta_primes, X2.u_primes, sheets.us):
        total += ((polyval(e1, zs) * polyval(u2, zs) - polyval(e2, zs) * polyval(u1, zs))
                  / ((zs / X1.marked_at - 1.0) ** 2 * polyval(u, zs)))
    return complex(np.mean(total))


@pytest.mark.parametrize("nodes", [64, 1000, 4096])
def test_contour_on_sheets_of_different_lengths(nodes):
    # the hand example's constant sheet, with its degree-1 and constant
    # tangent components, between two cubic sheets with quartic ones
    rng = np.random.default_rng(11)
    hand, H1, H2 = hand_example()
    cubic = random_sheets(2, rng)
    sheets = sy.SheetData((cubic.etas[0], *hand.etas, cubic.etas[1]),
                          (cubic.us[0], *hand.us, cubic.us[1]))
    R1, R2 = (sy.random_marked_tangent(2, 2.0 + 0j, rng) for _ in range(2))

    def mixed(R, H):
        return sy.TangentVector((R.eta_primes[0], *H.eta_primes, R.eta_primes[1]),
                                (R.u_primes[0], *H.u_primes, R.u_primes[1]),
                                marked_at=2.0 + 0j)

    X1, X2 = mixed(R1, H1), mixed(R2, H2)
    got = sy.omega_D_contour(X1, X2, sheets, nodes=nodes)
    want = _contour_reference(X1, X2, sheets, nodes)
    assert abs(got - want) < 1e-13 * max(1.0, abs(want))
    assert abs(got - sy.omega_D_residue(X1, X2, sheets)) < 1e-10


@pytest.mark.parametrize("nodes", [64, 1000, 2048])
@pytest.mark.parametrize("radius", [0.8, 1.0, 1.25])
def test_contour_matches_per_sheet_reference(nodes, radius):
    # up to k = 8: the cleared numerator F has degree 8 + 3 (k - 1) = 29
    rng = np.random.default_rng(15)
    for k in (1, 2, 3, 4, 5, 8):
        sheets = random_sheets(k, rng)
        X1, X2 = (sy.random_marked_tangent(k, 1.9 + 0.3j, rng) for _ in range(2))
        got = sy.omega_D_contour(X1, X2, sheets, nodes=nodes, radius=radius)
        want = _contour_reference(X1, X2, sheets, nodes, radius)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("radius", [0.8, 1.25])
def test_contour_with_numerators_shorter_than_the_sheets(radius):
    # linear tangent components: numerators of degree 2 under cubic u_i,
    # so the denominator G is longer than the numerator F
    rng = np.random.default_rng(18)
    for k in (1, 2, 3):
        sheets = random_sheets(k, rng)
        X1, X2 = (sy.random_marked_tangent(k, 1.9 + 0.3j, rng, degree=0) for _ in range(2))
        got = sy.omega_D_contour(X1, X2, sheets, nodes=64, radius=radius)
        want = _contour_reference(X1, X2, sheets, 64, radius)
        assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("kwargs", [dict(radius=0.0), dict(radius=-1.0), dict(radius=np.nan),
                                    dict(radius=np.inf), dict(nodes=100.5), dict(nodes=63)])
def test_contour_rejects_bad_radius_and_node_count(kwargs):
    # radius 0 would sum the integrand's value at 0 over every node, the
    # residue sum itself; nan would return nan; 100.5 nodes index no table
    sheets, X1, X2 = hand_example()
    with pytest.raises(ValueError, match="radius|nodes"):
        sy.omega_D_contour(X1, X2, sheets, **kwargs)


def test_marking_check_on_a_built_matrix():
    # the tangent's own matrix passes; one coefficient moved so that its
    # row reads 1e-6 at the marking fails
    z0 = 1.9 + 0.3j
    m = sy.random_marked_tangent(2, z0, np.random.default_rng(16)).coeffs
    sy.TangentVector(m[:2], m[2:], marked_at=z0)
    for row, col in ((0, 0), (3, 4)):
        moved = m.copy()
        moved[row, col] += 1e-6 / z0 ** col
        assert abs(polyval(moved[row], z0)) == pytest.approx(1e-6, rel=1e-6)
        with pytest.raises(ValueError, match="vanish"):
            sy.TangentVector(moved[:2], moved[2:], marked_at=z0)


def test_containers_stack_series_arrays_and_matrices_alike():
    # the hand example's constant sheet and its degree-1 and constant
    # tangent components beside a cubic sheet: rows zero-padded to one width
    rng = np.random.default_rng(17)
    cubic = rng.normal(size=4) + 1j * rng.normal(size=4)
    u = np.array([2.5, 0.1, -0.2j, 0.05])
    want = np.array([[0, 0, 0, 0], cubic, [1, 0, 0, 0], u], dtype=complex)
    rows = ([0.0], cubic), ([1.0], u)
    for sheets in (sy.SheetData(*(tuple(map(sy.Series, r)) for r in rows)),
                   sy.SheetData(*(tuple(np.asarray(c, complex) for c in r) for r in rows)),
                   sy.SheetData(want[:2], want[2:])):
        assert sheets.coeffs.dtype == complex and sheets.k == 2
        assert np.array_equal(sheets.coeffs, want)
        assert np.array_equal(sheets.etas, want[:2]) and np.array_equal(sheets.us, want[2:])
    f = sy.MarkedDivisor(2.0 + 0j).vanishing_factor()
    _, X, _ = hand_example()
    for got in (X, sy.TangentVector((f.coeffs,), ([0.0],), marked_at=2.0 + 0j),
                sy.TangentVector(X.coeffs[:1], X.coeffs[1:], marked_at=2.0 + 0j)):
        assert np.array_equal(got.coeffs, [f.coeffs, [0.0, 0.0]])
        assert np.array_equal(got.eta_primes, [f.coeffs]) and np.array_equal(got.u_primes, [[0, 0]])


def test_contour_refuses_zero_of_u_inside():
    # u = zeta - 0.5 passes the sheet checks (nonzero at 0 and on the unit
    # circle), but the residue sum at 0 is the pairing only on circles
    # inside |zeta| = 0.5: at radius 1 the trapezoid rule sums the wrong
    # residues, and at 0.5 it divides by zero
    sheets = sy.SheetData((sy.Series([0.0]),), (sy.Series([-0.5, 1.0]),))
    assert sheets.u_zero_modulus == pytest.approx(0.5, rel=1e-14)
    f = sy.MarkedDivisor(2.0 + 0j).vanishing_factor()
    X1 = sy.TangentVector((f,), (sy.Series([0.0]),), marked_at=2.0 + 0j)
    X2 = sy.TangentVector((sy.Series([0.0]),), (f,), marked_at=2.0 + 0j)
    residue = sy.omega_D_residue(X1, X2, sheets)
    assert residue == pytest.approx(-2.0, abs=1e-15)
    for radius in (1.0, 0.5):
        with pytest.raises(ValueError, match="vanishes"):
            sy.omega_D_contour(X1, X2, sheets, radius=radius)
    assert abs(sy.omega_D_contour(X1, X2, sheets, radius=0.3) - residue) < 1e-12


def _zero_test_refuses(us, radius, rng):
    # the contour's outcome on sheets us whose zero is reported at modulus 0: it
    # refuses exactly where its zero test cannot rule a zero out
    sheets = sy.SheetData(tuple(np.zeros((len(us), 1))), tuple(us))
    sheets.__dict__["u_zero_modulus"] = 0.0
    X1, X2 = (sy.random_marked_tangent(len(us), 3.0 + 0j, rng) for _ in range(2))
    try:
        sy.omega_D_contour(X1, X2, sheets, nodes=64, radius=radius)
    except ValueError as e:
        assert "vanishes" in str(e)
        return True
    return False


def _per_row_zero_test(us, radius):
    # the reference: |u_0| <= sum_m |u_m| R^m, row by row in Python
    return any(abs(u[0]) <= sum(abs(c) * (radius + 1e-6) ** m for m, c in enumerate(u) if m)
               for u in np.asarray(us).tolist())


def test_contour_zero_test_decides_as_the_per_row_sum_beyond_rounding():
    # random rows with |u_0| within 10% of the bound, rows placed at the bound (dyadic
    # moduli and R = radius + 1e-6, so both sides are exact) and one ulp either side,
    # rows at a rounded bound, and u with a single coefficient, which no zero test refuses
    rng = np.random.default_rng(27)
    for _ in range(300):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        radius = float(rng.choice([0.5, 0.8, 1.0, 1.25]))
        us = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        bound = np.abs(us[:, 1:]) @ (radius + 1e-6) ** np.arange(1, n)
        us[:, 0] *= rng.uniform(0.9, 1.1, size=k) * bound / np.abs(us[:, 0])
        assert _zero_test_refuses(us, radius, rng) == _per_row_zero_test(us, radius)
    for R in (0.5, 1.0, 2.0):
        radius = R - 1e-6
        assert radius + 1e-6 == R
        tail = np.array([1.0, -0.5j, 2.0])
        at = float(np.sum(np.abs(tail) * R ** np.arange(1, 4)))
        for u0 in (at, -1j * at, np.nextafter(at, 0.0), np.nextafter(at, np.inf)):
            for us in ([[u0, *tail]], [[4 * at, *tail], [u0, *tail]]):
                refused = _zero_test_refuses(np.array(us), radius, rng)
                assert refused == _per_row_zero_test(us, radius) == (abs(u0) <= at)
    # |u_0| = S (1 + j eps), S the per-row sum rounded: numpy's modulus and product may
    # each round otherwise, so the two may differ within n eps of S and agree beyond it,
    # and a tie is sound either way, since u has no zero within the radius
    eps, split = 2.0 ** -52, Counter()
    for _ in range(300):
        n, radius = int(rng.integers(2, 9)), float(rng.choice([0.5, 0.8, 1.0, 1.25]))
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        S = sum(abs(c) * (radius + 1e-6) ** m for m, c in enumerate(u.tolist()) if m)
        for j in range(-8, 9):
            u[0] = S * (1 + j * eps) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            refused, ref = _zero_test_refuses(u[None], radius, rng), _per_row_zero_test(u[None], radius)
            split[refused, ref] += 1
            if abs(abs(complex(u[0])) - S) > n * eps * S:
                assert refused == ref
            else:
                assert np.abs(np.roots(u[::-1])).min() > radius
    assert split[True, True] and split[False, False]   # the rows straddle the bound
    for us in ([[1.0]], [[2.0], [-0.5j]]):
        assert not _zero_test_refuses(np.array(us, dtype=complex), 1.0, rng)
        assert not _per_row_zero_test(us, 1.0)


def test_contour_zero_test_makes_no_python_pass_over_the_rows():
    # builtin abs runs three times a call, on the marking points, at k = 1, 2 and 3: the
    # zero test takes the moduli of all k rows of n coefficients in one array call, where
    # the per-row sum made k n more calls
    calls = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and arg is abs:
            calls["abs"] += 1

    rng = np.random.default_rng(29)
    for k in (1, 2, 3):
        sheets = random_sheets(k, rng)
        X1, X2 = (sy.random_marked_tangent(k, 1.9 + 0.3j, rng) for _ in range(2))
        calls.clear()
        sys.setprofile(profile)
        try:
            sy.omega_D_contour(X1, X2, sheets, nodes=64)
        finally:
            sys.setprofile(None)
        assert calls == Counter({"abs": 3})


def test_sheet_data_rejects_u_vanishing_between_circle_nodes():
    # e^{i pi/64} lies halfway between two of the 64 nodes a node check
    # would sample; zeros off the circle (0.5, 1.5) are allowed
    root = np.exp(1j * np.pi / 64)
    for u in ([-root, 1.0], [0.0, -root, 1.0], np.polynomial.polynomial.polyfromroots(
            [root, 0.5, 1.5 + 0.2j]), [0.0], [1e-13]):
        with pytest.raises(ValueError, match="bounded away"):
            sy.SheetData((sy.Series([0.0]),), (sy.Series(u),))
    for u in ([-0.5, 1.0], [-1.5, 1.0], [2.0, 0.3, -0.4j, 1.2], [1.0]):
        assert sy.SheetData((sy.Series([0.0]),), (sy.Series(u),)).k == 1


def test_series_call_matches_polyval_bitwise():
    # projective.polyval, which evaluates the library's coefficient arrays,
    # against numpy.polynomial; np.polyval on a 0-d array rounds differently
    import numpy.polynomial.polynomial as npoly

    rng = np.random.default_rng(14)
    for n in range(1, 9):
        for _ in range(40):
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            for z in (complex(*rng.normal(size=2)), float(rng.normal()),
                      rng.normal(size=5) + 1j * rng.normal(size=5)):
                got, want = polyval(c, z), npoly.polyval(z, c)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_roots_of_unity_cached_and_read_only():
    zs = roots_of_unity(64)
    assert roots_of_unity(64) is zs
    assert not zs.flags.writeable
    assert np.array_equal(zs, np.exp(2j * np.pi * np.arange(64) / 64))


def test_random_marked_tangent_matches_one_draw_per_polynomial():
    # one draw for all coefficients gives, bit for bit, the tangent built
    # one polynomial at a time: real then imaginary parts, eta' then u'
    for k, degree in ((1, 3), (2, 3), (3, 5)):
        z0 = 1.9 + 0.3j
        rng = np.random.default_rng(k)
        fac = sy.MarkedDivisor(z0).vanishing_factor().coeffs
        want = [np.convolve(fac, rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
                for _ in range(2 * k)]
        got = sy.random_marked_tangent(k, z0, np.random.default_rng(k), degree=degree)
        assert got.marked_at == z0
        for g, w in zip(got.coeffs, want):
            assert g.tobytes() == w.tobytes()


def test_marking_check_scales_with_coefficients():
    # the vanishing check at the marking is relative to the largest coefficient
    fac = sy.MarkedDivisor(2.0 + 0j).vanishing_factor()
    big = np.convolve(fac.coeffs, [1e6, -3e5j])
    sy.TangentVector((big + [1e-4, 0, 0],), (fac,), marked_at=2.0 + 0j)
    with pytest.raises(ValueError, match="vanish"):
        sy.TangentVector((big + [1e-2, 0, 0],), (fac,), marked_at=2.0 + 0j)
    with pytest.raises(ValueError, match="vanish"):
        sy.TangentVector((fac,), (sy.Series([2e-9]),), marked_at=2.0 + 0j)
