"""monogeom: numerics for the geometry of charge-1 singular hyperbolic
monopoles and their Euclidean counterparts.

Subpackages by theme: `hyperbolic` (half-space model primitives),
`twistor` (oriented-geodesic space and bidegree sections), `spectral`
(charge-1 factorization and lifts), `moduli` (Gibbons-Hawking and
scalar-flat Kahler metrics with a finite-difference curvature engine),
`minitwistor` (the Euclidean O(2) picture), `symplectic` (deformation
coordinates and the residue/contour pairing), `scattering` (fundamental
solutions, spectral-line detection, growth fits) and `cli`.  `minitwistor`
and `twistor` load on first access: only the check table uses them.
"""

from . import diffgeo, hyperbolic, moduli, projective, scattering, spectral, symplectic

__all__ = ["diffgeo", "hyperbolic", "minitwistor", "moduli", "projective", "scattering",
           "spectral", "symplectic", "twistor"]

__version__ = "0.1.0"


def __getattr__(name):
    # minitwistor and twistor load on first access (PEP 562): no other import needs them
    if name in ("minitwistor", "twistor"):
        from importlib import import_module
        return import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
