"""Multi-view aggregation and the three view-weighting schemes.

A collection of graphs sharing a vertex set is clustered through one
aggregate graph, a ``ViewGraph`` whose affinity matrix is the convex
combination of the per-view matrices under a weight vector on the simplex.
The aggregate is embedded exactly as a single view is, by
``generalized_eig`` of the graph.  Weights come from one of:

* ``mvsc_weights``  - uniform 1/m,
* ``mvscw_weights`` - inverse of each view's relaxed partition cost (the sum
  of its smallest k-1 nontrivial generalized eigenvalues), normalized,
* ``aasc_weights``  - alternating optimization of the weights against the
  embedding via coordinate-wise golden-section search on the simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigen import Embedding, generalized_eig, generalized_eigvals, smallest_nontrivial
from .errors import (
    DegenerateViewSpectrum,
    DimensionError,
    InvalidView,
    InvalidWeightVector,
    IsolatedVertex,
    LengthMismatch,
    _is_int,
)
from .graphs import ViewGraph

# Views never drop below this weight during the alternating optimization, so
# a connected aggregate stays connected.
WEIGHT_FLOOR = 1e-6

# The alternating optimization stops after MAX_ROUNDS rounds, or once a round
# changes the objective by at most ROUND_RTOL relative to its value.  Each
# golden-section search narrows its weight bracket to LINE_SEARCH_TOL.
MAX_ROUNDS = 50
ROUND_RTOL = 1e-6
LINE_SEARCH_TOL = 1e-4

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class MultiViewSet:
    """Ordered collection of views over one shared vertex set.

    ``stack``, the read-only (m, n, n) affinity matrices, and ``degrees``,
    their read-only (m, n) row sums, are built with the set.
    ``synth_views`` and ``load_views`` hold a family once: each view's
    weights are a slice of one read-only (m, n, n) array.  A set over
    consecutive views of such an array (``views[a:b]``,
    ``subset(range(a, b))``) takes its ``stack`` as a slice of that array,
    with no copy.  Views in any other order, repeated views, independent
    views or slices of a writable array are copied into a new stack.  Any
    view keeps its whole family's array alive.
    """

    def __init__(self, views):
        views = tuple(views)
        if not views:
            raise DimensionError("need at least one view")
        for i, v in enumerate(views):
            if not isinstance(v, ViewGraph):
                raise InvalidView(f"view {i} is not a ViewGraph")
            if v.n != views[0].n:
                raise DimensionError(f"view {i} has {v.n} vertices, expected {views[0].n}")
        self.views = views
        self.n = views[0].n
        self.m = len(views)
        stack = _shared_stack(views)
        if stack is None:
            stack = np.stack([v.weights for v in views])
            stack.setflags(write=False)
        self.stack = stack
        self.degrees = stack.sum(axis=2)
        self.degrees.setflags(write=False)

    def subset(self, indices) -> "MultiViewSet":
        return MultiViewSet([self.views[i] for i in indices])


def _shared_stack(views):
    """The slice of one family array that ``views`` are, in order, or None.

    The family is the array the first view's weights are a slice of.  It
    must be a read-only, C-contiguous (M, n, n) array, and the views'
    weights must be its consecutive slices.  A set over the whole family
    gets the family array itself.
    """
    first = views[0].weights
    family = first.base
    if not (isinstance(family, np.ndarray) and family.ndim == 3
            and family.shape[1:] == first.shape and first.size
            and family.flags.c_contiguous and not family.flags.writeable):
        return None
    start, offset = divmod(first.ctypes.data - family.ctypes.data, first.nbytes)
    if offset or not 0 <= start <= len(family) - len(views):
        return None
    stack = family[start:start + len(views)]
    for view, part in zip(views, stack):
        if (view.weights.base is not family
                or view.weights.__array_interface__ != part.__array_interface__):
            return None
    return family if len(stack) == len(family) else stack


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Finite nonnegative per-view weights summing to one."""

    alpha: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        if a.ndim != 1:
            raise DimensionError("weights must be a 1-d vector")
        if not np.isfinite(a).all():
            raise InvalidWeightVector("weights must be finite")
        if float(a.min(initial=0.0)) < 0.0:
            raise InvalidWeightVector("weights must be nonnegative")
        if abs(float(a.sum()) - 1.0) > 1e-12:
            raise InvalidWeightVector(f"weights must sum to 1, got {a.sum()!r}")
        a.setflags(write=False)
        object.__setattr__(self, "alpha", a)

    def __len__(self) -> int:
        return self.alpha.shape[0]


def aggregate(set_: MultiViewSet, w: WeightVector) -> ViewGraph:
    """Convex combination of the view affinity matrices, as a read-only view.

    Raises:
        LengthMismatch: weight vector length differs from the view count.
    """
    if len(w) != set_.m:
        raise LengthMismatch(f"{len(w)} weights for {set_.m} views")
    weights = np.tensordot(w.alpha, set_.stack, axes=1)
    weights = 0.5 * (weights + weights.T)
    weights.setflags(write=False)
    # A convex combination of validated views is itself symmetric, finite,
    # nonnegative and zero on the diagonal, so from_weights would only
    # repeat its checks.
    return ViewGraph(weights=weights)


def _check_k(k) -> None:
    if not (_is_int(k) and k >= 2):
        raise DimensionError(f"need an integer k >= 2, got {k!r}")


def mvsc_weights(m: int) -> WeightVector:
    """Uniform weights 1/m.

    Raises:
        DimensionError: ``m`` is not an integer of at least 1.
    """
    if not (_is_int(m) and m >= 1):
        raise DimensionError(f"need an integer number of views >= 1, got {m!r}")
    return WeightVector(np.full(m, 1.0 / m))


def mvscw_weights(set_: MultiViewSet, k: int) -> WeightVector:
    """Quality weights: each view weighted by the inverse of its relaxed cost.

    The relaxed cost of view j is the sum of its smallest k-1 nontrivial
    generalized eigenvalues; weights are the normalized inverses, so views
    that partition well dominate the aggregate.

    Raises:
        DimensionError: ``k`` is not an integer, is below 2 or exceeds the
            vertex count.
        IsolatedVertex: some view has a zero-degree vertex.
        DegenerateViewSpectrum: some view's sum is below 1e-12 (disconnected).
    """
    _check_k(k)
    sums = np.empty(set_.m)
    for i, g in enumerate(set_.views):
        try:
            values = generalized_eigvals(g, k)
        except IsolatedVertex as exc:
            raise IsolatedVertex(exc.index, detail=f" in view {i}") from exc
        sums[i] = values[1:k].sum()
        if sums[i] < 1e-12:
            raise DegenerateViewSpectrum(i)
    inv = 1.0 / sums
    return WeightVector(inv / inv.sum())


def embed(set_: MultiViewSet, w: WeightVector, k: int) -> Embedding:
    """Aggregate under ``w`` and embed into the smallest k-1 nontrivial
    generalized eigenvectors.

    Raises:
        LengthMismatch: weight vector length differs from the view count.
        DimensionError: ``k`` is not an integer, is below 2 or exceeds the
            vertex count.
        DisconnectedGraph, IsolatedVertex: aggregate not usable.
    """
    g = aggregate(set_, w)
    _check_k(k)
    return smallest_nontrivial(generalized_eig(g, k), k - 1)


def _projected_forms(set_: MultiViewSet, coords: np.ndarray):
    """Per-view k-1 x k-1 projections of W and D onto the embedding.

    Because the aggregate is linear in the weights, the objective
    tr(Y^T L~ Y (Y^T D~ Y)^-1) can be evaluated from these small forms for
    any candidate weight vector without reforming n x n matrices.
    """
    wy = np.matmul(set_.stack, coords)            # (m, n, k-1)
    w_forms = np.matmul(coords.T[None, :, :], wy)  # (m, k-1, k-1)
    dy = set_.degrees[:, :, None] * coords[None, :, :]
    d_forms = np.matmul(coords.T[None, :, :], dy)
    return w_forms, d_forms


def _trace_objective(alpha: np.ndarray, w_forms: np.ndarray, d_forms: np.ndarray) -> float:
    dk = np.tensordot(alpha, d_forms, axes=1)
    wk = np.tensordot(alpha, w_forms, axes=1)
    return float(np.trace(np.linalg.solve(dk, dk - wk)))


def _golden_min(fun, lo: float, hi: float, xtol: float):
    """Deterministic golden-section minimizer; endpoints are also evaluated."""
    best_x, best_f = lo, fun(lo)
    f_hi = fun(hi)
    if f_hi < best_f:
        best_x, best_f = hi, f_hi
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > xtol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    for x, f in ((c, fc), (d, fd)):
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def aasc_weights(set_: MultiViewSet, k: int):
    """Alternating optimization of view weights and embedding.

    Starting from uniform weights, each round (a) recomputes the embedding of
    the current aggregate and (b) sweeps the weight coordinates, each varied
    by golden-section search against uniform redistribution of the remainder,
    accepting only strict improvements of the aggregate trace objective.
    A round that accepts no candidate ends the search: the next round would
    start from the same weights and repeat it bit for bit, so its embedding
    is returned as the final one.  Otherwise the search stops when a round
    changes the objective by at most ``ROUND_RTOL`` (relative) or after
    ``MAX_ROUNDS`` rounds, and embeds the final weights once more.  The
    trace holds each round's start value, each accepted candidate's value
    and the final embedding's eigenvalue sum, and is nonincreasing up to
    rounding.  Each embedding is ``embed`` of the current weights, so the
    returned one equals ``embed(set_, weights, k)``.

    Returns:
        (weights, embedding, objective trace as a list of floats)
    """
    if set_.m < 2:
        raise DimensionError("alternating weight optimization needs at least 2 views")
    _check_k(k)
    m = set_.m
    alpha = np.full(m, 1.0 / m)
    lo = WEIGHT_FLOOR
    hi = 1.0 - (m - 1) * WEIGHT_FLOOR
    trace: list[float] = []
    prev_outer = None
    final = None
    for _ in range(MAX_ROUNDS):
        emb = embed(set_, WeightVector(alpha), k)
        w_forms, d_forms = _projected_forms(set_, emb.coords)
        current = _trace_objective(alpha, w_forms, d_forms)
        trace.append(current)
        accepted = False

        for j in range(m):
            def candidate(t: float, j=j) -> np.ndarray:
                cand = np.full(m, (1.0 - t) / (m - 1))
                cand[j] = t
                return cand

            t_best, f_best = _golden_min(
                lambda t: _trace_objective(candidate(t), w_forms, d_forms),
                lo, hi, LINE_SEARCH_TOL,
            )
            if f_best < current - 1e-14 * max(1.0, abs(current)):
                alpha = candidate(t_best)
                current = f_best
                trace.append(current)
                accepted = True

        if not accepted:
            # The next round would start from these weights and repeat this one bit for bit.
            final = emb
            break
        if (prev_outer is not None
                and abs(prev_outer - current) <= ROUND_RTOL * max(current, 1e-300)):
            break
        prev_outer = current

    weights = WeightVector(alpha)
    if final is None:
        final = embed(set_, weights, k)
    trace.append(float(final.eigenvalues.sum()))
    return weights, final, trace
