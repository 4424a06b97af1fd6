"""Generalized eigendecomposition of a graph's pencil (L, D).

The generalized problem L x = lambda D x with diagonal positive D is reduced
to an ordinary symmetric problem on D^(-1/2) L D^(-1/2), the graph's
``normalized_laplacian``, and back-substituted, so the returned eigenvectors
are D-orthonormal.  Both solves of that pencil take the graph, so L = D - W
and D always come from the same W, and share one validation and reduction.
``generalized_eig`` asks LAPACK for the smallest ``count`` eigenpairs only,
which is all an embedding of k clusters uses; ``generalized_eigvals`` asks
for their values alone, which is all a view's relaxed cost uses, and returns
the same bits as ``generalized_eig(g, count).values``.  Column signs follow
a fixed convention (largest-magnitude entry positive, ties broken by lowest
index) to make outputs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DisconnectedGraph, InvalidView, NoConvergence, _is_int
from .graphs import ViewGraph, degree, normalized_laplacian

# Every eigenvalue of a graph's pencil (L, D) lies in [0, 2]; eigenvalues
# below ZERO_TOL_FACTOR times that bound count as "trivial" zeros.
ZERO_TOL_FACTOR = 1e-8


@dataclass(frozen=True, eq=False)
class EigenPairs:
    """Eigenvalues ascending, eigenvectors as columns (D-orthonormal for (L, D))."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class Embedding:
    """Per-vertex coordinates from selected eigenvectors.

    ``coords`` is n x (k-1); ``eigenvalues`` holds the matching spectral
    values (mean diagonal scores for the joint-diagonalization method).
    """

    coords: np.ndarray
    eigenvalues: np.ndarray


def fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive.

    np.argmax returns the first maximal index, which breaks magnitude ties
    deterministically in favour of the lowest index.
    """
    v = np.array(vectors)
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs[None, :]


def _solve(g: ViewGraph, count: int | None, vectors: bool):
    """Validate, reduce the pencil (L, D) of ``g`` and solve its smallest
    ``count`` eigenvalues, with the reduced eigenvectors when ``vectors``.

    Returns ``(values, reduced vectors or None, degrees)``.
    """
    if not isinstance(g, ViewGraph):
        raise InvalidView(f"expected a ViewGraph, got {type(g).__name__}")
    d = degree(g)
    if count is not None and not (_is_int(count) and 1 <= count <= g.n):
        raise DimensionError(f"count must be an integer in 1..{g.n}, got {count!r}")
    subset = None if count is None else [0, count - 1]
    # Without vectors LAPACK finds a full spectrum by another algorithm
    # (dsterf, not dstemr) that rounds differently, so a full spectrum is
    # always solved with them.
    values_only = not vectors and count is not None and count < g.n
    try:
        result = scipy.linalg.eigh(normalized_laplacian(g.weights, d),
                                   eigvals_only=values_only, subset_by_index=subset)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    if values_only:
        return result, None, d
    return (*result, d)


def generalized_eig(g: ViewGraph, count: int | None = None) -> EigenPairs:
    """Smallest ``count`` eigenpairs of the pencil (L, D) of ``g`` (all n when None).

    L = D - W is ``laplacian(g)`` and D = diag(``degree(g)``).  Only the
    requested eigenpairs are computed.

    Raises:
        InvalidView: ``g`` is not a ``ViewGraph``.
        DimensionError: ``count`` is not an integer in 1..n.
        IsolatedVertex: some degree is not strictly positive.
    """
    values, reduced, d = _solve(g, count, vectors=True)
    vectors = fix_column_signs(reduced / np.sqrt(d)[:, None])
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPairs(values=values, vectors=vectors)


def generalized_eigvals(g: ViewGraph, count: int) -> np.ndarray:
    """Smallest ``count`` eigenvalues of the pencil (L, D) of ``g``, ascending.

    The same bits as ``generalized_eig(g, count).values``, without computing
    or back-substituting any eigenvector.

    Raises:
        InvalidView: ``g`` is not a ``ViewGraph``.
        DimensionError: ``count`` is not an integer in 1..n.
        IsolatedVertex: some degree is not strictly positive.
    """
    values, _, _ = _solve(g, count, vectors=False)
    values.setflags(write=False)
    return values


def zero_multiplicity(values: np.ndarray) -> int:
    """Count eigenvalues of a graph's pencil (L, D) below ZERO_TOL_FACTOR * 2.

    The tolerance scales with the bound 2 of the whole spectrum, not with the
    largest value given, so a partial spectrum is judged like a full one.
    """
    return int(np.count_nonzero(values < ZERO_TOL_FACTOR * 2.0))


def smallest_nontrivial(sol: EigenPairs, count: int) -> Embedding:
    """Select the eigenvectors for the smallest ``count`` nontrivial eigenvalues.

    ``sol`` holds the smallest eigenpairs of (L, D), at least ``count + 1``
    of them.  The single zero eigenvalue (constant direction) is skipped.  A
    zero multiplicity other than one means the graph is disconnected and is
    surfaced as an error rather than silently handled; when every solved
    eigenvalue is zero, the message says there may be more.

    Raises:
        DisconnectedGraph: the zero eigenvalue is not simple.
        DimensionError: count not an integer in 1..s-1 for s solved pairs (s <= n).
    """
    n, solved = sol.vectors.shape
    if not (_is_int(count) and 1 <= count <= solved - 1):
        raise DimensionError(f"count must be an integer in 1..{solved - 1}, got {count!r}")
    zeros = zero_multiplicity(sol.values)
    if zeros != 1:
        partial = zeros == solved < n
        raise DisconnectedGraph(
            zeros, detail=f" or more (all {solved} solved are zero)" if partial else "")
    coords = np.array(sol.vectors[:, 1:1 + count])
    values = np.array(sol.values[1:1 + count])
    coords.setflags(write=False)
    values.setflags(write=False)
    return Embedding(coords=coords, eigenvalues=values)
