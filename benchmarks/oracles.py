"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the definitions, with numpy and scipy only;
none of it calls mvspectral.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.linalg

FISHER_CLAMP = 1e-7  # documented clamp of correlations before atanh


def read_csv(path, header: bool = False) -> np.ndarray:
    """Parse a numeric CSV with numpy alone, skipping one header row if asked."""
    return np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)


def adjacency_graph(matrix: np.ndarray) -> np.ndarray:
    """Negatives zeroed, symmetrized, zero diagonal: how a view is loaded."""
    w = np.maximum(matrix, 0.0)
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return w


def timeseries_graph(series: np.ndarray) -> np.ndarray:
    """max(0, atanh(clip(Pearson r))) between columns, zero diagonal."""
    centred = series - series.mean(axis=0)
    norms = np.sqrt((centred * centred).sum(axis=0))
    corr = (centred.T @ centred) / np.outer(norms, norms)
    corr = np.clip(corr, -1.0 + FISHER_CLAMP, 1.0 - FISHER_CLAMP)
    w = np.maximum(np.arctanh(corr), 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def generalized_spectrum(w: np.ndarray, subset=None) -> np.ndarray:
    """Eigenvalues of (D - W) x = lambda D x, ascending."""
    d = w.sum(axis=1)
    return scipy.linalg.eigh(np.diag(d) - w, np.diag(d), eigvals_only=True,
                             subset_by_index=subset)


def mvscw_weights(graphs, k: int) -> np.ndarray:
    """Normalized inverses of each view's smallest k-1 nontrivial eigenvalue sums."""
    sums = np.array([generalized_spectrum(w)[1:k].sum() for w in graphs])
    inverse = 1.0 / sums
    return inverse / inverse.sum()


def aggregate(graphs, alpha) -> np.ndarray:
    return sum(a * w for a, w in zip(alpha, graphs))


def eigen_residuals(w: np.ndarray, coords: np.ndarray, values: np.ndarray):
    """(||L X - D X diag(values)|| / ||L||, max |X^T D X - I|) for the pencil of w."""
    d = w.sum(axis=1)
    lap = np.diag(d) - w
    residual = lap @ coords - (d[:, None] * coords) * values[None, :]
    gram = coords.T @ (d[:, None] * coords)
    return (float(np.linalg.norm(residual) / np.linalg.norm(lap)),
            float(np.abs(gram - np.eye(coords.shape[1])).max()))


def normalized_laplacian(w: np.ndarray) -> np.ndarray:
    """I - D^-1/2 W D^-1/2."""
    inv_sqrt = 1.0 / np.sqrt(w.sum(axis=1))
    return np.eye(w.shape[0]) - w * inv_sqrt[:, None] * inv_sqrt[None, :]


def off_cost(matrices, basis: np.ndarray) -> float:
    """Sum over matrices of the squared off-diagonal entries of Q^T A Q."""
    total = 0.0
    for a in matrices:
        rotated = basis.T @ a @ basis
        total += float((rotated ** 2).sum() - (np.diag(rotated) ** 2).sum())
    return total


def dice(a, b, k: int) -> float:
    """Dice between two full labellings (ids 1..k), best of all k! matchings."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (a - 1, b - 1), 1)
    perms = np.array(list(itertools.permutations(range(k))))
    agreement = int(counts[np.arange(k)[None, :], perms].sum(axis=1).max())
    return 2.0 * agreement / float(2 * a.shape[0])
