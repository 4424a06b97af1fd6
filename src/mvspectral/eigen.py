"""Dense symmetric and generalized eigendecomposition.

The generalized problem L x = lambda D x with diagonal positive D is reduced
to an ordinary symmetric problem on D^(-1/2) L D^(-1/2) and back-substituted,
so the returned eigenvectors are D-orthonormal.  ``generalized_eig`` is the
one solve of that pencil: given ``count`` it asks LAPACK for the smallest
``count`` eigenpairs only, which is all an embedding of k clusters uses.
Column signs follow a fixed convention (largest-magnitude entry positive,
ties broken by lowest index) to make outputs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, DisconnectedGraph, InvalidKind, NoConvergence, NotSymmetric
from .graphs import COMBINATORIAL, Laplacian, degree_scaled

SYMMETRY_RTOL = 1e-8

# Every eigenvalue of a Laplacian pencil (L, D) lies in [0, 2]; eigenvalues
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
    method: str | None = None


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


def sym_eig(a) -> EigenPairs:
    """Full eigendecomposition of a dense symmetric matrix.

    Deterministic for bit-identical input.  Eigenvalues ascend; eigenvectors
    are orthonormal with the fixed sign convention applied.

    Raises:
        NotSymmetric: asymmetry beyond 1e-8 relative to the largest entry.
        NoConvergence: the underlying solver failed.
    """
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"matrix must be square, got {mat.shape}")
    scale = float(np.abs(mat).max())
    if scale > 0 and float(np.abs(mat - mat.T).max()) > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"asymmetry exceeds {SYMMETRY_RTOL:.0e} of scale")
    sym = 0.5 * (mat + mat.T)
    try:
        values, vectors = scipy.linalg.eigh(sym)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    vectors = fix_column_signs(vectors)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPairs(values=values, vectors=vectors)


def generalized_eig(lap: Laplacian, degrees, count: int | None = None) -> EigenPairs:
    """Smallest ``count`` eigenpairs of L x = lambda D x (all n when None).

    ``lap`` is ``laplacian(g)`` of a graph and ``degrees`` is ``degree(g)``.
    Only the requested eigenpairs are computed.

    Raises:
        InvalidKind: ``lap`` is not a combinatorial ``Laplacian``.
        DimensionError: sizes disagree, or ``count`` is outside 1..n.
        IsolatedVertex: some degree is not strictly positive.
    """
    if not isinstance(lap, Laplacian) or lap.kind != COMBINATORIAL:
        raise InvalidKind("generalized_eig expects the combinatorial Laplacian")
    mat = lap.matrix
    d = np.asarray(degrees, dtype=np.float64)
    n = d.shape[0]
    if mat.shape[0] != n:
        raise DimensionError(f"Laplacian is {mat.shape}, degrees have length {n}")
    if count is not None and not 1 <= count <= n:
        raise DimensionError(f"count must be in 1..{n}, got {count}")
    subset = None if count is None else [0, count - 1]
    try:
        values, reduced = scipy.linalg.eigh(degree_scaled(mat, d), subset_by_index=subset)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NoConvergence(str(exc)) from exc
    vectors = fix_column_signs(reduced / np.sqrt(d)[:, None])
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenPairs(values=values, vectors=vectors)


def zero_multiplicity(values: np.ndarray) -> int:
    """Count eigenvalues of a Laplacian pencil below ZERO_TOL_FACTOR * 2.

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
        DimensionError: count outside 1..s-1 for s solved pairs (s <= n).
    """
    n, solved = sol.vectors.shape
    if not 1 <= count <= solved - 1:
        raise DimensionError(f"count must be in 1..{solved - 1}, got {count}")
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
