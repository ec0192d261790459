"""The finite-difference stencil engine.

Every numerical derivative in the package comes from `derivatives`, and
every stencil from one table of integer central weights (Fornberg, Math.
Comp. 51, 1988): 4th-order first and second derivatives, a 2nd-order
first derivative, and the tensor product of the 4th-order first
derivative for mixed second derivatives.  The engine gathers the
distinct stencil points of all requested steps into one array (so steps
h and h/2 share the points they have in common), samples them with one
sampler call, and combines the samples with the weights.  `richardson`
pairs two step sizes for O(h^6) accuracy on smooth inputs.

The sampler contract: a sampler maps a (..., d) array of points to a
(..., *shape) array of values, one value per row, and a single (d,)
point to one plain value.  `pointwise` turns a sampler written for one
point at a time into one that keeps the contract, by a loop over rows;
the scalar helpers (`wirtinger`, `holo_partial`, `hyperbolic.laplacian`)
apply it to the functions they are given.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

__all__ = [
    "WEIGHTS",
    "Jet",
    "derivatives",
    "pointwise",
    "richardson",
    "wirtinger",
    "holo_partial",
]

# (derivative, order) -> (denominator, ((offset, weight), ...)): the
# derivative is sum(weight * f(x + offset h)) / (denominator h^derivative).
WEIGHTS = {
    (1, 4): (12, ((2, -1), (1, 8), (-1, -8), (-2, 1))),
    (2, 4): (12, ((2, -1), (1, 16), (0, -30), (-1, 16), (-2, -1))),
    (1, 2): (2, ((1, 1), (-1, -1))),
}


class Jet(NamedTuple):
    """Derivatives of a sampler at one point for one step.

    `value` is f(x), `d1[i]` is the first derivative along coordinate
    i, and `d2` is None, the diagonal `d2[i]` = d^2 f / dx_i^2, or the
    full `d2[i, j]`."""

    value: object
    d1: np.ndarray
    d2: np.ndarray | None


def _axis_terms(i, table, h):
    return [(((i, k * h),) if k else (), w) for k, w in table]


def _mixed_terms(i, j, table, h):
    return [(((i, ki * h), (j, kj * h)), wi * wj)
            for ki, wi in table for kj, wj in table]


def pointwise(f):
    """Sampler keeping the batch contract from f, which takes one (d,)
    point at a time: f is called on each row of a (..., d) batch."""
    def batched(x):
        x = np.asarray(x, dtype=float)
        out = np.array([f(row) for row in x.reshape(-1, x.shape[-1])])
        return out.reshape(x.shape[:-1] + out.shape[1:])
    return batched


def derivatives(f, x, steps, second: str | None = None, order: int = 4) -> list[Jet]:
    """Central-difference derivatives of the batched sampler f at x, one
    Jet per step in `steps`.

    `order` (4 or 2) selects the first-derivative stencil; `second` is
    None, "diag" or "full" (4th order).  Each stencil point is keyed by
    its exact offsets from x, and f is called once, on the (N, d) array
    of the N distinct keys' points; x itself is always among them, so
    every Jet carries f(x).
    """
    if second not in (None, "diag", "full"):
        raise ValueError("second must be None, 'diag' or 'full'")
    x = np.asarray(x, dtype=float)
    n = len(x)
    den1, first = WEIGHTS[1, order]
    den2, table2 = WEIGHTS[2, 4]
    den4, table4 = WEIGHTS[1, 4]
    plans = []          # per step: derivative index -> (terms, scale)
    for h in steps:
        plan = {i: (_axis_terms(i, first, h), den1 * h) for i in range(n)}
        if second is not None:
            plan.update({(i, i): (_axis_terms(i, table2, h), den2 * h * h)
                         for i in range(n)})
        if second == "full":
            plan.update({(i, j): (_mixed_terms(i, j, table4, h), den4 * den4 * h * h)
                         for i in range(n) for j in range(i + 1, n)})
        plans.append(plan)

    # every distinct stencil point of every step in order of first use,
    # then x if no stencil used it, sampled by the only call of f
    column = {key: c for c, key in enumerate(dict.fromkeys(itertools.chain(
        (key for plan in plans for terms, _ in plan.values() for key, _ in terms), [()])))}
    points = np.tile(x, (len(column), 1))
    for row, key in enumerate(column):
        for i, off in key:
            points[row, i] = x[i] + off
    values = np.asarray(f(points))

    jets = []
    for plan in plans:     # one weight matrix (derivatives x points) per step
        W = np.zeros((len(plan), len(column)))
        for r, (terms, _) in enumerate(plan.values()):
            for key, w in terms:
                W[r, column[key]] = w
        scales = np.array([scale for _, scale in plan.values()])
        combined = (W @ values.reshape(len(column), -1)) / scales[:, None]
        d = dict(zip(plan, combined.reshape((len(plan),) + values.shape[1:])))
        d1 = np.array([d[i] for i in range(n)])
        if second is None:
            d2 = None
        elif second == "diag":
            d2 = np.array([d[i, i] for i in range(n)])
        else:
            d2 = np.array([[d[min(i, j), max(i, j)] for j in range(n)] for i in range(n)])
        jets.append(Jet(values[column[()]], d1, d2))
    return jets


def richardson(values_h, values_h2, order: int = 4):
    """Extrapolate two same-shaped results at steps h and h/2."""
    w = 2.0 ** order
    return (w * np.asarray(values_h2) - np.asarray(values_h)) / (w - 1.0)


def wirtinger(f, z, h=1e-4, var="z"):
    """Wirtinger derivative of a smooth (not necessarily holomorphic) map.

    f maps a complex number to a scalar or array; returns df/dz or
    df/dzbar at z from 4th-order stencils in the two real directions,
    Richardson-extrapolated.
    """
    z = complex(z)

    def at(jet):
        fx, fy = jet.d1
        if var == "z":
            return (fx - 1j * fy) / 2.0
        return (fx + 1j * fy) / 2.0

    jets = derivatives(pointwise(lambda p: f(complex(*p))), (z.real, z.imag), (h, h / 2))
    return richardson(at(jets[0]), at(jets[1]))


def holo_partial(f, args, k, h=1e-3):
    """Partial derivative of a holomorphic function of several complex
    variables with respect to argument k, at the given argument tuple.

    2nd-order central differences along the real direction of the
    complexified variable, Richardson paired; accuracy O(h^6) for
    analytic f.
    """
    args = list(args)

    def along(t):
        moved = list(args)
        moved[k] = args[k] + t[0]
        return np.asarray(f(*moved))

    d_h, d_h2 = (jet.d1[0] for jet in
                 derivatives(pointwise(along), (0.0,), (h, h / 2), order=2))
    return richardson(d_h, d_h2, order=2)
