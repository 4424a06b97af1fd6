"""Weighted-graph representation and normalized-cut cost arithmetic.

A view is one undirected weighted graph over the shared vertex set, stored as
a dense symmetric nonnegative matrix with a zero diagonal.  Graphs are built
either from raw affinity matrices or from region time series via Fisher
z-transformed Pearson correlations with negative weights zeroed.

``laplacian`` gives L = D - W, with D the diagonal of degrees.
``normalized_laplacian``, D^(-1/2) L D^(-1/2), reduces the pencil (L, D) of
the eigensolves and is the form I - D^(-1/2) W D^(-1/2) that jdl jointly
diagonalizes: the same matrix in exact arithmetic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidCluster,
    InvalidTimeSeries,
    InvalidWeights,
    IsolatedVertex,
    ZeroVarianceColumn,
    ZeroVolumeCluster,
    _is_int,
)

# Correlations are clamped to +-(1 - FISHER_CLAMP) before atanh so that
# perfectly correlated columns stay finite.
FISHER_CLAMP = 1e-7

# Asymmetry beyond this (relative to the largest entry) triggers a warning
# before the matrix is symmetrized.
ASYMMETRY_WARN = 1e-8


@dataclass(frozen=True, eq=False)
class ViewGraph:
    """One view: a dense symmetric nonnegative affinity matrix.

    Instances are immutable; the weight matrix is marked read-only so sets
    and their subsets can share a view's weights without copying them.
    """

    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def from_weights(cls, weights) -> "ViewGraph":
        """Validate, symmetrize and freeze a raw affinity matrix.

        The matrix must be square with finite nonnegative entries and finite
        degrees.  Asymmetry above ``ASYMMETRY_WARN`` (relative) is tolerated
        with a warning and averaged away; the diagonal is forced to zero.

        Raises:
            DimensionError: not square, or fewer than 2 vertices.
            InvalidWeights: non-finite or negative entries, or a degree that
                overflows float64.
        """
        w = np.array(weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"affinity matrix must be square, got {w.shape}")
        if w.shape[0] < 2:
            raise DimensionError("graph needs at least 2 vertices")
        if not np.all(np.isfinite(w)):
            raise InvalidWeights("affinity matrix contains non-finite entries")
        # Sums past float64 become inf and are reported by the checks below,
        # so numpy's overflow warnings would only repeat them.
        with np.errstate(over="ignore"):
            scale = float(np.abs(w).max())
            asym = float(np.abs(w - w.T).max())
            if scale > 0 and asym > ASYMMETRY_WARN * scale:
                warnings.warn(
                    f"asymmetry {asym:.3e} exceeds {ASYMMETRY_WARN:.0e} of scale; "
                    "symmetrizing",
                    stacklevel=2,
                )
            w = 0.5 * (w + w.T)
            if float(w.min()) < 0.0:
                raise InvalidWeights("affinity matrix has negative entries")
            np.fill_diagonal(w, 0.0)
            if not np.all(np.isfinite(w.sum(axis=1))):
                raise InvalidWeights("affinity matrix degrees overflow float64")
        w.setflags(write=False)
        return cls(weights=w)


@dataclass(frozen=True, eq=False)
class Partition:
    """Hard assignment of every vertex to one of k clusters (ids 1..k)."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        if a.ndim != 1:
            raise DimensionError("assignment must be a 1-d vector")
        present = set(np.unique(a).tolist())
        expected = set(range(1, self.k + 1))
        if present != expected:
            raise InvalidCluster(
                f"assignment uses ids {sorted(present)}, expected exactly 1..{self.k}"
            )

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    def indicator(self) -> np.ndarray:
        """n x k binary matrix with one 1 per row."""
        x = np.zeros((self.n, self.k))
        x[np.arange(self.n), self.assignment - 1] = 1.0
        return x


def graph_from_timeseries(series) -> ViewGraph:
    """Build an affinity graph from region time series.

    Pairwise Pearson correlations between columns are clamped to
    ``+-(1 - FISHER_CLAMP)``, Fisher z-transformed (atanh), and negative
    values are zeroed.  The diagonal is zero.

    Args:
        series: T x n array, one column of T samples per region.

    Raises:
        DimensionError: fewer than 3 samples or fewer than 2 regions.
        ZeroVarianceColumn: some column is constant.
        InvalidTimeSeries: some value is not finite.
    """
    ts = np.asarray(series, dtype=np.float64)
    if ts.ndim != 2:
        raise DimensionError(f"time series must be 2-d, got shape {ts.shape}")
    t, n = ts.shape
    if t < 3:
        raise DimensionError(f"need at least 3 time points, got {t}")
    if n < 2:
        raise DimensionError(f"need at least 2 regions, got {n}")
    if not np.all(np.isfinite(ts)):
        raise InvalidTimeSeries("time series contains non-finite values")
    # Pearson r is unchanged by positive column scaling.  Scaling each column
    # by a power of two is exact and brings it into (-1, 1), so the moments
    # below cannot overflow.
    _, exponents = np.frexp(np.abs(ts).max(axis=0))
    ts = np.ldexp(ts, -exponents)
    stds = ts.std(axis=0)
    flat = np.flatnonzero(stds <= 0.0)
    if flat.size:
        raise ZeroVarianceColumn(int(flat[0]))
    corr = np.corrcoef(ts, rowvar=False)
    corr = np.clip(corr, -1.0 + FISHER_CLAMP, 1.0 - FISHER_CLAMP)
    weights = np.arctanh(corr)
    np.maximum(weights, 0.0, out=weights)
    np.fill_diagonal(weights, 0.0)
    return ViewGraph.from_weights(weights)


def degree(g: ViewGraph) -> np.ndarray:
    """Vertex degrees: row sums of the affinity matrix."""
    return g.weights.sum(axis=1)


def normalized_laplacian(weights, degrees) -> np.ndarray:
    """D^(-1/2) (D - W) D^(-1/2) with D = diag(degrees), symmetrized against round-off.

    ``weights`` is one (n, n) matrix with (n,) degrees, or an (m, n, n)
    stack with (m, n) degrees, one row per view; each view of a stack gets
    the same bits as its own call.

    Raises:
        IsolatedVertex: some degree is not strictly positive; for a stack
            the message names the view.
    """
    d = np.asarray(degrees, dtype=np.float64)
    bad = np.argwhere(d <= 0.0)
    if bad.size:
        raise IsolatedVertex(int(bad[0, -1]),
                             detail=f" in view {bad[0, 0]}" if d.ndim == 2 else "")
    # 0.0 - w keeps +0.0 for a zero weight, as diag(d) - W does, and adding
    # the degrees to the diagonal rounds as d - w does.
    mat = np.subtract(0.0, weights, dtype=np.float64)
    diag = np.arange(d.shape[-1])
    mat[..., diag, diag] += d
    inv_sqrt = 1.0 / np.sqrt(d)
    mat *= inv_sqrt[..., :, None]
    mat *= inv_sqrt[..., None, :]
    sym = mat + np.swapaxes(mat, -1, -2)
    sym *= 0.5
    return sym


def laplacian(g: ViewGraph) -> np.ndarray:
    """The combinatorial (unnormalized) laplacian D - W, read-only.

    No code in the package calls it: the eigensolves and jdl work on
    ``normalized_laplacian``.  It stays as the plain L = D - W that the tests
    check those against, independently of the normalized form.
    """
    mat = np.diag(degree(g)) - g.weights
    mat.setflags(write=False)
    return mat


def cut_cost(g: ViewGraph, p: Partition, cluster: int) -> float:
    """Total weight of edges leaving one cluster.

    Raises:
        InvalidCluster: cluster id not an integer in 1..k.
        DimensionError: the partition and the graph differ in size.
    """
    if not (_is_int(cluster) and 1 <= cluster <= p.k):
        raise InvalidCluster(f"cluster {cluster!r} is not an integer in 1..{p.k}")
    if p.n != g.n:
        raise DimensionError(f"partition over {p.n} vertices, graph has {g.n}")
    inside = (p.assignment == cluster).astype(np.float64)
    return float(inside @ g.weights @ (1.0 - inside))


def volume(g: ViewGraph, p: Partition, cluster: int) -> float:
    """Sum of vertex degrees inside one cluster.

    Raises:
        InvalidCluster: cluster id not an integer in 1..k.
        DimensionError: the partition and the graph differ in size.
    """
    if not (_is_int(cluster) and 1 <= cluster <= p.k):
        raise InvalidCluster(f"cluster {cluster!r} is not an integer in 1..{p.k}")
    if p.n != g.n:
        raise DimensionError(f"partition over {p.n} vertices, graph has {g.n}")
    d = degree(g)
    return float(d[p.assignment == cluster].sum())


def ncut_cost(g: ViewGraph, p: Partition) -> float:
    """Normalized cut: sum over clusters of cut weight over cluster volume.

    Raises:
        DimensionError: the partition and the graph differ in size.
        ZeroVolumeCluster: some cluster has zero total degree.
    """
    if p.n != g.n:
        raise DimensionError(f"partition over {p.n} vertices, graph has {g.n}")
    d = degree(g)
    total = 0.0
    for cluster in range(1, p.k + 1):
        inside = (p.assignment == cluster).astype(np.float64)
        vol = float(d @ inside)
        if vol <= 0.0:
            raise ZeroVolumeCluster(cluster)
        cut = float(inside @ g.weights @ (1.0 - inside))
        total += cut / vol
    return total
