"""The finite-difference stencil engine.

Every numerical derivative in the package comes from `derivatives`, and
every stencil from one table of integer central weights (Fornberg, Math.
Comp. 51, 1988): 4th-order first and second derivatives, a 2nd-order
first derivative, and the tensor product of the 4th-order first
derivative for mixed second derivatives.  The engine gathers the
distinct stencil points of all requested steps into one array (so steps
h and h/2 share the points they have in common), samples them with one
sampler call, and combines the samples with the weights.  `richardson`
pairs two step sizes of the 4th-order stencils for O(h^6) accuracy on
smooth inputs.

The layout of those points and the weight matrices depend only on the
dimension, the order, `second` and the ratios of the steps, so each
such plan is built once and cached as read-only arrays; a call only
places the points (x_i + k h on each moved axis), calls the sampler
and does one matrix product per step.  Points of different steps are
identified by k times the step's ratio to the first step, which is
exact for the power-of-two ratios (h, h/2) in use.

The sampler contract: a sampler maps a (..., d) array of points to a
(..., *shape) array of values, one value per row, and a single (d,)
point to one plain value.  `pointwise` turns a sampler written for one
point at a time into one that keeps the contract, by a loop over rows;
the scalar helpers (`wirtinger`, `holo_partial`, `hyperbolic.laplacian`)
apply it to the functions they are given.
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


class _Plan(NamedTuple):
    """Stencil layout for one dimension, order, `second` and step ratios.

    Point r is x moved by K[r, i] steps h[S[r]] along each axis i where
    `moved[r, i]`; step s's derivatives are W[s] @ f(points) divided by
    den * h_s, and once more by h_s from row d on (the second
    derivatives).  `center` is the row of x itself and `d2` the rows of
    the second derivatives, (d,) or (d, d)."""

    K: np.ndarray
    S: np.ndarray
    moved: np.ndarray
    W: tuple[np.ndarray, ...]
    den: np.ndarray
    center: int
    d2: np.ndarray | None


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=64)
def _plan(n: int, order: int, second: str | None, ratios: tuple[float, ...]) -> _Plan:
    den1, first = WEIGHTS[1, order]
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

    # every distinct point of every step in order of first use, then x
    # if no stencil used it
    column: dict[tuple, tuple[int, int, tuple]] = {}

    def col(s, ratio, moves):
        key = tuple((i, k * ratio) for i, k in moves)
        if key not in column:
            column[key] = (len(column), s, moves)
        return column[key][0]

    entries = [[(r, col(s, ratio, moves), w) for r, terms in enumerate(rows)
                for moves, w in terms] for s, ratio in enumerate(ratios)]
    center = col(0, 1.0, ())
    K = np.zeros((len(column), n))
    S = np.zeros(len(column), dtype=np.intp)
    for c, s, moves in column.values():
        S[c] = s
        for i, k in moves:
            K[c, i] = k
    W = []
    for step_entries in entries:
        w = np.zeros((len(rows), len(column)))
        r, c, v = zip(*step_entries)
        w[r, c] = v
        W.append(w)
    if second is None:
        d2 = None
    elif second == "diag":
        d2 = np.arange(n, 2 * n)
    else:
        d2 = np.diag(np.arange(n, 2 * n))
        for p, (i, j) in enumerate(pairs):
            d2[i, j] = d2[j, i] = 2 * n + p
    return _Plan(_frozen(K), _frozen(S), _frozen(K != 0), tuple(map(_frozen, W)),
                 _frozen(np.array(den, dtype=float)), center,
                 None if d2 is None else _frozen(d2))


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
    None, "diag" or "full" (4th order).  Any other order or `second`, or a
    zero or non-finite step, raises ValueError.  f is called once, on the
    (N, d) array of the N distinct stencil points of all steps; x itself
    is always among them, so every Jet carries f(x).
    """
    if second not in (None, "diag", "full"):
        raise ValueError("second must be None, 'diag' or 'full'")
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    steps = tuple(steps)
    if not all(0.0 < abs(h) < np.inf for h in steps):
        raise ValueError(f"steps must be finite and non-zero, got {steps}")
    x = np.asarray(x, dtype=float)
    plan = _plan(len(x), order, second, tuple(h / steps[0] for h in steps))
    hs = np.asarray(steps, dtype=float)
    points = np.where(plan.moved, x + plan.K * hs[plan.S, None], x)
    values = np.asarray(f(points))
    flat = values.reshape(len(points), -1)
    n = len(x)
    jets = []
    for W, h in zip(plan.W, steps):
        scale = plan.den * h
        scale[n:] *= h
        combined = ((W @ flat) / scale[:, None]).reshape((len(W),) + values.shape[1:])
        d2 = None if plan.d2 is None else combined[plan.d2]
        jets.append(Jet(values[plan.center], combined[:n], d2))
    return jets


def richardson(values_h, values_h2):
    """Extrapolate two same-shaped 4th-order results at steps h and h/2."""
    return (16.0 * np.asarray(values_h2) - np.asarray(values_h)) / 15.0


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

    4th-order central differences along the real direction of the
    complexified variable, Richardson paired; accuracy O(h^6) for
    analytic f.
    """
    args = list(args)

    def along(t):
        moved = list(args)
        moved[k] = args[k] + t[0]
        return np.asarray(f(*moved))

    d_h, d_h2 = (jet.d1[0] for jet in
                 derivatives(pointwise(along), (0.0,), (h, h / 2)))
    return richardson(d_h, d_h2)
