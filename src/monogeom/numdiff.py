"""The finite-difference stencil engine.

Every numerical derivative in the package comes from `derivatives`, and
every stencil from one table of integer central weights (Fornberg, Math.
Comp. 51, 1988): 4th-order first and second derivatives, a 2nd-order
first derivative, and the tensor product of the 4th-order first
derivative for mixed second derivatives.  A call takes one step h and an
accuracy order: 2 and 4 are the stencils of that order at h, and 6 pairs
the 4th-order stencils at h and h/2, (16 D(h/2) - D(h)) / 15 (Richardson
extrapolation, O(h^6) on smooth inputs).  The engine gathers the
distinct stencil points into one array (so steps h and h/2 share the
points they have in common), samples them with one sampler call, and
combines the samples with the weights; order 6 divides each step's
differences by its own scale before the pairing.

The layout of those points and the weights depend only on the dimension,
the order and `second`, so each such plan is built once and cached as
read-only arrays, the steps' weight blocks stacked into one matrix; a
call only places the points (x_i + k h on each moved axis, k a multiple
of 1/2 for the step h/2), calls the sampler and does one matrix product.
A call differences every coordinate of x: the S^1-invariant samplers of
`moduli` are given their base points only (`diffgeo.killing_jet`), 103
points for an order-6 curvature jet, 7 for dOmega and 13 for Nijenhuis.

The sampler contract: a sampler maps a (..., d) array of points to a
(..., *shape) array of values, one value per row, and a single (d,)
point to one plain value.  `pointwise` turns a sampler written for one
point at a time into one that keeps the contract, by a loop over rows;
the scalar helpers (`holo_partial`, `hyperbolic.laplacian`) apply it to
the functions they are given.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

__all__ = [
    "WEIGHTS",
    "Jet",
    "derivatives",
    "pointwise",
    "holo_partial",
]

# (derivative, order) -> (denominator, ((offset, weight), ...)): the
# derivative is sum(weight * f(x + offset h)) / (denominator h^derivative).
WEIGHTS = {
    (1, 4): (12, ((2, -1), (1, 8), (-1, -8), (-2, 1))),
    (2, 4): (12, ((2, -1), (1, 16), (0, -30), (-1, 16), (-2, -1))),
    (1, 2): (2, ((1, 1), (-1, -1))),
}
# accuracy order -> (order of the first-derivative stencil, the steps as
# fractions of h)
_STEPS = {2: (2, (1.0,)), 4: (4, (1.0,)), 6: (4, (1.0, 0.5))}


class Jet(NamedTuple):
    """Derivatives of a sampler at one point.

    `value` is f(x), `d1[i]` is the first derivative along coordinate
    i, and `d2` is None, the diagonal `d2[i]` = d^2 f / dx_i^2, or the
    full `d2[i, j]`."""

    value: object
    d1: np.ndarray
    d2: np.ndarray | None


class _Plan(NamedTuple):
    """Stencil layout for one dimension, order and `second`.

    Point r is x moved by K[r, i] h along each axis i where `moved[r,
    i]`.  W stacks one block of rows per step s (a fraction of h,
    `_STEPS`): the derivatives at step s are its block of W @ f(points)
    divided by den * s h, and once more by s h from row d on (the second
    derivatives).  `center` is the row of x itself and `d2` the rows of
    the second derivatives, (d,) or (d, d)."""

    K: np.ndarray
    moved: np.ndarray
    W: np.ndarray
    den: np.ndarray
    center: int
    d2: np.ndarray | None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def _plan(n: int, order: int, second: str | None) -> _Plan:
    stencil, fractions = _STEPS[order]
    den1, first = WEIGHTS[1, stencil]
    den2, table2 = WEIGHTS[2, 4]
    den4, table4 = WEIGHTS[1, 4]
    # derivative rows: the first derivatives, the diagonal second ones,
    # then the mixed pairs i < j; each row a list of (moves, weight)
    rows = [[(((i, k),) if k else (), w) for k, w in first] for i in range(n)]
    den = [den1] * n
    if second is not None:
        rows += [[(((i, k),) if k else (), w) for k, w in table2] for i in range(n)]
        den += [den2] * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)] if second == "full" else []
    rows += [[(((i, ki), (j, kj)), wi * wj) for ki, wi in table4 for kj, wj in table4]
             for i, j in pairs]
    den += [den4 * den4] * len(pairs)

    # every distinct point, keyed by its moves in units of h, in order of
    # first use over the steps, then x if no stencil used it
    column: dict[tuple, int] = {}
    entries = [[(r, column.setdefault(tuple((i, k * s) for i, k in moves), len(column)), w)
                for r, terms in enumerate(rows) for moves, w in terms] for s in fractions]
    center = column.setdefault((), len(column))
    K = np.zeros((len(column), n))
    for key, c in column.items():
        for i, k in key:
            K[c, i] = k
    W = np.zeros((len(fractions), len(rows), len(column)))
    for w, step_entries in zip(W, entries):
        r, c, v = zip(*step_entries)
        w[r, c] = v
    if second is None:
        d2 = None
    elif second == "diag":
        d2 = np.arange(n, 2 * n)
    else:
        d2 = np.diag(np.arange(n, 2 * n))
        for p, (i, j) in enumerate(pairs):
            d2[i, j] = d2[j, i] = 2 * n + p
    return _Plan(_frozen(K), _frozen(K != 0), _frozen(W.reshape(-1, len(column))),
                 _frozen(np.array(den, dtype=float)),
                 center, None if d2 is None else _frozen(d2))


def pointwise(f):
    """Sampler keeping the batch contract from f, which takes one (d,)
    point at a time: f is called on each row of a (..., d) batch."""
    def batched(x):
        x = np.asarray(x, dtype=float)
        out = np.array([f(row) for row in x.reshape(-1, x.shape[-1])])
        return out.reshape(x.shape[:-1] + out.shape[1:])
    return batched


def derivatives(f, x, h: float, second: str | None = None, order: int = 4) -> Jet:
    """Central-difference derivatives of the batched sampler f at x with
    step h, to accuracy order `order` (2, 4 or 6; see the module
    docstring).

    `second` is None, "diag" or "full" (4th-order stencils, paired at
    order 6).  Any other order or `second`, or a step (h, or h/2 at
    order 6) that is zero or not finite, raises ValueError.  f is called
    once, on the (N, d) array of the N distinct stencil points; x itself
    is always among them, so the Jet carries f(x).
    """
    if second not in (None, "diag", "full"):
        raise ValueError("second must be None, 'diag' or 'full'")
    if order not in _STEPS:
        raise ValueError("order must be 2, 4 or 6")
    steps = [h * s for s in _STEPS[order][1]]
    if not all(0.0 < abs(s) < np.inf for s in steps):
        raise ValueError(f"steps must be finite and non-zero, got {steps}")
    x = np.asarray(x, dtype=float)
    n = len(x)
    plan = _plan(n, order, second)
    points = np.where(plan.moved, x + plan.K * h, x)
    values = np.asarray(f(points))
    s = np.array(steps)[:, None]
    scale = plan.den * s              # one row per step
    scale[:, n:] *= s
    parts = (plan.W @ values.reshape(len(points), -1)).reshape(scale.shape + (-1,))
    parts /= scale[..., None]
    d = parts[0] if len(parts) == 1 else (16.0 * parts[1] - parts[0]) / 15.0
    d = d.reshape((len(plan.den),) + values.shape[1:])
    return Jet(values[plan.center], d[:n], None if plan.d2 is None else d[plan.d2])


def holo_partial(f, args, k, h=1e-3):
    """Partial derivative of a holomorphic function of several complex
    variables with respect to argument k, at the given argument tuple.

    Order-6 central differences along the real direction of the
    complexified variable; accuracy O(h^6) for analytic f.
    """
    args = list(args)

    def along(t):
        moved = list(args)
        moved[k] = args[k] + t[0]
        return np.asarray(f(*moved))

    return derivatives(pointwise(along), (0.0,), h, order=6).d1[0]
