"""Near-singular and malformed input: each refusal raises its typed error at once."""

import numpy as np
import pytest

from monogeom import minitwistor as mt
from monogeom import moduli as md
from monogeom import scattering as sc
from monogeom import spectral as sp
from monogeom import symplectic as sy
from monogeom import twistor as tw
from monogeom.hyperbolic import MultiCenterPotential, OrientedGeodesic, PointUHS
from monogeom.projective import ExtendedComplex

_V = MultiCenterPotential(1.0, (PointUHS(0.0, 0.0, 1.0),), (1,))
_CURVE2 = mt.CurveO2k(2, ([1.0], [1.0]))
_QUAD = sp.QuadraticRestriction(0.5 + 0.2j, 0.3)
_ONE, _ZERO = (sy.Series([1.0]),), (sy.Series([0.0]),)


class _Pole(sc.FieldSampler):
    """diag(v, -v), v = 1 / |t - 0.3|: log ||H|| diverges at t = 0.3, so no step there passes."""

    def ode_components(self, t):
        return sc._diagonal(1.0 / np.abs(np.asarray(t) - 0.3))


class _SquaredPole(sc.FieldSampler):
    """diag(v, -v), v = 1 / |t - 0.3|^2: the steps next to t = 0.3 are split past the round cap."""

    def ode_components(self, t):
        return sc._diagonal(1.0 / np.abs(np.asarray(t) - 0.3) ** 2)


_REFUSALS = {
    "mesh-stuck-at-a-pole": (lambda: sc.integrate_fundamental(_Pole(), -1.0, 1.0, tol=1e-9),
                             RuntimeError, "no step at t = 0.3 meets tol"),
    "mesh-round-cap-names-t": (
        lambda: sc.integrate_fundamental(_SquaredPole(), -1.0, 1.0, tol=1e-9), ValueError,
        r"a round of \d+ steps over t in \[0\.29995, 0\.30005\]: more than the cap of 100000"),
    "abelian-line-not-finite": (lambda: sc.AbelianField(_V, [np.nan, 0.0, 0.0, 1.0],
                                                        [0.0, 1.0, 0.0, 0.0]),
                                ValueError, "finite x0 and u"),
    "splitting-on-spectral-line": (
        lambda: sc.DecayingData.of(sc.PSField(x0=[0.0, 0.0, 0.0], u=[0.0, 0.0, 1.0]))
        .reflection_norm(), ZeroDivisionError, "spectral line"),
    "dirac-patch-count": (lambda: md.DiracConnection(_V, patches=(1, 1)),
                          ValueError, "one patch sign per center"),
    "dirac-patch-sign": (lambda: md.DiracConnection(_V, patches=(0,)), ValueError, "patch signs"),
    "twistor-anti-diagonal": (lambda: tw.TwistorPoint.of(1.0, -1.0), ValueError, "anti-diagonal"),
    "theta01-anti-diagonal": (lambda: tw.theta01(1.0, -1.0), ZeroDivisionError, "anti-diagonal"),
    "negative-power": (lambda: tw.BiDegreeSection(np.ones((1, 1))) ** -1,
                       ValueError, "nonnegative"),
    "coincident-endpoints": (lambda: OrientedGeodesic(ExtendedComplex(0.5j), ExtendedComplex(0.5j)),
                             ValueError, "must differ"),
    "factor-charge-missing": (lambda: sp.factor([_QUAD, _QUAD], [1]), ValueError, "one charge"),
    "marking-at-zero": (lambda: sy.MarkedDivisor(0), ValueError, "nonzero"),
    "sheet-count-mismatch": (
        lambda: sy._check_pair(sy.TangentVector(_ZERO, _ZERO, marked_at=2.0),
                               sy.TangentVector(_ZERO, _ZERO, marked_at=2.0),
                               sy.SheetData(_ONE * 2, _ONE * 2)), ValueError, "sheet count"),
    "patch-jacobian-at-pole": (lambda: sy.patch_jacobian(0, 1.0, 1.0),
                               ZeroDivisionError, "chart pole"),
    "rows-unequal-halves": (lambda: sy.SheetData(_ONE, _ONE * 2), ValueError, "one u per sheet"),
    "infinity-with-value": (lambda: ExtendedComplex(1, at_infinity=True), ValueError, "value 0"),
    "tau-at-pole": (lambda: mt.tau_T(mt.MiniTwistorPoint(0j, 1.0)),
                    ZeroDivisionError, "chart pole"),
    "curve-k-0": (lambda: mt.CurveO2k(0, ()), ValueError, "positive integer"),
    "curve-poly-count": (lambda: mt.CurveO2k(2, ([1.0],)), ValueError, "exactly k"),
    "curve-degree": (lambda: mt.CurveO2k(1, ([1.0, 0.0, 0.0, 1.0],)), ValueError, "degree"),
    "curve-eta-k-2": (lambda: mt.curve_eta(_CURVE2, 0.5), ValueError, "k = 1"),
    "trivialization-k-2": (lambda: mt.l2_trivialization(_CURVE2), ValueError, "k = 1"),
    "inverse-transition-at-pole": (lambda: mt.l2_patch_transition_inverse(0, 1.0, 1.0),
                                   ZeroDivisionError, "chart pole"),
    "inverse-transition-u-0": (lambda: mt.l2_patch_transition_inverse(0.5, 1.0, 0),
                               ValueError, "nonzero"),
}


@pytest.mark.parametrize("case", list(_REFUSALS))
def test_refusal_raises_its_typed_error(case):
    call, error, match = _REFUSALS[case]
    with pytest.raises(error, match=match):
        call()
