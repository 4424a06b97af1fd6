"""Joint diagonalization of normalized laplacians.

One orthogonal basis is rotated to approximately diagonalize every view's
symmetric-normalized laplacian I - D^(-1/2) W D^(-1/2) at once, by cyclic
Jacobi sweeps over index pairs in the round-robin parallel ordering (Brent &
Luk, 1985), where each step rotates a set of disjoint pairs at once.  Each
rotation angle minimizes the pooled squared off-diagonal contribution of its
2x2 subproblem across all views (Cardoso & Souloumiac, 1996): a step's angles
come from one pooled Gram ``np.einsum`` and one ``np.arctan2``.  Rotations
within a step act on disjoint index pairs, so they commute and the total
off-diagonal energy still never increases.  Vertex embeddings are read off
the basis columns ranked by mean diagonal value.

The matrices are held in a pair-interleaved layout: rows and columns are
ordered so that each of the current step's pairs occupies two adjacent
positions.  A step's rotations are then one batched 2x2 ``np.matmul`` over
all pairs, applied to the rows, then, after one ``np.take`` that gathers the
rows into the next step's order and transposes in the same pass, to the
former columns, with one more gather; the transposed basis follows with the
same rotation and gather.  After a sweep the layout is back in the first
step's order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import Embedding, fix_column_signs
from .errors import (
    DimensionError,
    DimensionMismatch,
    InvalidSpec,
    InvalidWeights,
    IsolatedVertex,
    NotOrthogonal,
    NotSymmetric,
)
from .graphs import degree, degree_scaled
from .multiview import MultiViewSet

# Pairs whose pooled squared off-diagonal mass is below this fraction of the
# current off-cost are skipped within a sweep.  Tying the threshold to the
# remaining off-cost (not the fixed Frobenius mass) lets tight tolerances
# converge to the machine floor instead of stalling at a fixed residual.
SKIP_FACTOR = 1e-14

# Accumulated basis drift beyond this triggers re-orthonormalization.
ORTHO_DRIFT_TOL = 1e-9

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 100


@dataclass(frozen=True, eq=False)
class JointDiagonalizer:
    """Result of a joint diagonalization run.

    ``basis`` holds the accumulated orthogonal rotations (columns);
    ``off_history`` records the pooled off-diagonal energy after each sweep;
    ``mean_diagonal`` is the per-column mean of the rotated matrices'
    diagonals, used to rank columns for embedding extraction.
    """

    basis: np.ndarray
    sweeps_run: int
    off_history: np.ndarray
    mean_diagonal: np.ndarray
    reorthonormalizations: int
    converged: bool


def _square_family(matrices) -> np.ndarray:
    """Stack a family of matrices as an (m, n, n) float64 array.

    Raises:
        DimensionMismatch: no matrix, or not all nonempty square of one size.
        InvalidWeights: some entry is not finite.
    """
    mats = [np.asarray(a, dtype=np.float64) for a in matrices]
    if not mats:
        raise DimensionMismatch("need at least one matrix")
    shape = mats[0].shape
    for i, a in enumerate(mats):
        if a.ndim != 2 or a.shape != shape or not 0 < a.shape[0] == a.shape[1]:
            raise DimensionMismatch(
                f"matrix {i} has shape {a.shape}; expected nonempty square matrices of one size")
    stack = np.stack(mats)
    if not np.all(np.isfinite(stack)):
        raise InvalidWeights("matrix family contains non-finite entries")
    return stack


def off_cost(matrices, basis) -> float:
    """Pooled squared off-diagonal energy of the rotated matrices.

    Raises:
        DimensionMismatch: no matrix, matrices not all nonempty square of
            one size, or a basis that does not match.
        InvalidWeights: some entry of a matrix is not finite.
        NotOrthogonal: basis deviates from orthogonality beyond 1e-8.
    """
    mats = _square_family(matrices)
    n = mats.shape[1]
    q = np.asarray(basis, dtype=np.float64)
    if q.shape != (n, n):
        raise DimensionMismatch(f"basis has shape {q.shape}, expected ({n}, {n})")
    if float(np.abs(q.T @ q - np.eye(n)).max()) > 1e-8:
        raise NotOrthogonal("basis is not orthogonal within 1e-8")
    return _off_total((q.T @ mats @ q).transpose(1, 2, 0))


def _off_total(stack: np.ndarray) -> float:
    """Pooled off-diagonal energy of an (n, n, m) stack."""
    diag = stack[np.arange(stack.shape[0]), np.arange(stack.shape[1])]
    # Total less diagonal mass can round below zero; a sum of squares cannot.
    return max(0.0, float((stack * stack).sum() - (diag * diag).sum()))


def _round_robin_schedule(n: int) -> list:
    """Circle-method (Brent-Luk) ordering of all index pairs of ``0..n-1``.

    Returns ``n - 1`` steps (``n`` for odd n) as ``(p, q)`` index arrays with
    ``p < q``.  Within a step no index repeats, and every unordered pair
    appears in exactly one step.  Odd n gets a dummy partner whose pairs are
    dropped.
    """
    size = n + n % 2
    half = size // 2
    ring = list(range(size))
    steps = []
    for _ in range(size - 1):
        pairs = sorted((min(a, b), max(a, b))
                       for a, b in zip(ring[:half], reversed(ring[half:]))
                       if max(a, b) < n)
        if pairs:
            p, q = np.array(pairs, dtype=np.intp).T
            steps.append((p, q))
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return steps


def _rotations(forms: np.ndarray, skip_threshold: float) -> np.ndarray:
    """One step's pooled Jacobi rotations as an (h, 2, 2) batch [[c, s], [-s, c]].

    ``forms`` is (2, m, h), h1 = A_pp - A_qq and h2 = 2 A_pq per view and pair.
    The angle is the symmetric-Schur angle atan2(2 g12, g11 - g22) / 4 of
    their pooled Gram form g.  A pair whose pooled off-diagonal mass g22 / 2
    is below ``skip_threshold``, or whose sine is below 1e-16, is idle.
    """
    g = np.einsum("ami,bmi->abi", forms, forms)
    theta = 0.25 * np.arctan2(2.0 * g[0, 1], g[0, 0] - g[1, 1])
    s = np.sin(theta)
    idle = (0.5 * g[1, 1] < skip_threshold) | (np.abs(s) < 1e-16)
    theta[idle] = 0.0
    s[idle] = 0.0
    c = np.cos(theta)
    return np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)


def _step_orders(n: int) -> list:
    """Pair-interleaved index order of every round-robin step.

    Positions 2i and 2i+1 of step t's order hold its i-th pair (p, q) of
    ``_round_robin_schedule(n)``.  Odd n is padded with the index n, which
    is paired with the one index the step leaves out.
    """
    size = n + n % 2
    orders = []
    for p, q in _round_robin_schedule(n):
        order = np.stack([p, q], axis=1).ravel()
        if size > n:
            order = np.concatenate([order, np.setdiff1d(np.arange(n), order), [n]])
        orders.append(order)
    return orders or [np.arange(size)]


def joint_diagonalize_matrices(matrices, tol: float = DEFAULT_TOL,
                               max_sweeps: int = DEFAULT_MAX_SWEEPS) -> JointDiagonalizer:
    """Jointly diagonalize a family of symmetric matrices.

    Each sweep visits every pair (p, q) once in the round-robin parallel
    ordering: a step holds disjoint pairs, whose closed-form pooled Jacobi
    rotations commute and are applied together.  Sweeping stops when the
    per-sweep off-cost reduction is at most ``tol`` times the current
    off-cost, or at ``max_sweeps`` (never an error; the best basis found is
    returned, with ``converged`` False).

    The (n, n, m) stack is held in each step's pair-interleaved order (see
    the module docstring).  After a step it holds the transpose of the
    rotated stack, which equals it up to rounding.  Odd n is padded with a
    zero index whose pairs are always the identity and which is dropped at
    the end.

    Raises:
        InvalidSpec: ``max_sweeps`` is not an integer of at least 1, or
            ``tol`` is negative or not finite.
        DimensionMismatch: no matrix, or not all nonempty square of one size.
        InvalidWeights: some entry is not finite.
        NotSymmetric: some matrix is asymmetric beyond 1e-8 of the largest
            entry.
    """
    if not (isinstance(max_sweeps, (int, np.integer)) and max_sweeps >= 1 and 0 <= tol < np.inf):
        raise InvalidSpec(f"need an integer max_sweeps >= 1 and a finite tol >= 0, "
                          f"got {max_sweeps!r} and {tol!r}")
    stack = _square_family(matrices)
    n = stack.shape[1]
    scale = float(np.abs(stack).max())
    asym = float(np.abs(stack - np.transpose(stack, (0, 2, 1))).max())
    if scale > 0 and asym > 1e-8 * scale:
        raise NotSymmetric("input matrices are not symmetric within 1e-8")
    # Views innermost, (n, n, m): a row is then one contiguous run of n * m values.
    original = np.ascontiguousarray((0.5 * (stack + np.transpose(stack, (0, 2, 1))))
                                    .transpose(1, 2, 0))
    m = original.shape[2]
    size = n + n % 2
    h = size // 2
    orders = _step_orders(n)
    order = orders[0]
    # Positions of the real indices in step-0 order; a padded index is not one.
    real = np.flatnonzero(order < n)
    # gathers[t] moves rows from step t's order to step t+1's (step 0's after the last).
    gathers = [np.argsort(a)[b] for a, b in zip(orders, orders[1:] + orders[:1])]

    stack = np.zeros((size, size, m))
    stack[np.ix_(real, real)] = original[np.ix_(order[real], order[real])]
    spare = np.empty_like(stack)
    # Basis vectors as rows, in step-0 order; a padded index has a zero row.
    basis = np.zeros((size, n))
    basis[real, order[real]] = 1.0
    basis_spare = np.empty_like(basis)
    forms = np.empty((2, m, h))
    positions = np.arange(size)[:, None]
    eye = np.eye(n)

    off = _off_total(stack)
    history = []
    reortho = 0
    sweeps = 0
    converged = False

    for sweep in range(1, max_sweeps + 1):
        skip_threshold = SKIP_FACTOR * off
        for gather in gathers:
            # (2, 2, m, h): the step's 2x2 diagonal blocks, pairs last.
            blocks = stack.reshape(h, 2, h, 2, m).diagonal(axis1=0, axis2=2)
            np.subtract(blocks[0, 0], blocks[1, 1], out=forms[0])
            np.multiply(blocks[0, 1], 2.0, out=forms[1])
            rot = _rotations(forms, skip_threshold)
            np.matmul(rot, stack.reshape(h, 2, size * m), out=spare.reshape(h, 2, size * m))
            # stack[i, a] = spare[gather[a], i]: the row gather and the transpose in one pass.
            np.take(spare.reshape(size * size, m), gather * size + positions, axis=0,
                    out=stack, mode="clip")
            np.matmul(rot, stack.reshape(h, 2, size * m), out=spare.reshape(h, 2, size * m))
            np.take(spare, gather, axis=0, out=stack, mode="clip")
            np.matmul(rot, basis.reshape(h, 2, n), out=basis_spare.reshape(h, 2, n))
            np.take(basis_spare, gather, axis=0, out=basis, mode="clip")
        sweeps = sweep
        new_off = _off_total(stack)
        history.append(new_off)
        vectors = basis[real]
        if float(np.abs(vectors @ vectors.T - eye).max()) > ORTHO_DRIFT_TOL:
            q, _ = np.linalg.qr(vectors.T)
            basis[real] = q.T
            stack[np.ix_(real, real)] = np.einsum("ji,jkm,kl->ilm", q, original, q,
                                                  optimize=True)
            reortho += 1
            new_off = _off_total(stack)
            history[-1] = new_off
        reduction = off - new_off
        off = new_off
        if reduction <= tol * new_off:
            converged = True
            break

    diag = np.empty(n)
    diag[order[real]] = stack[real, real].mean(axis=1)
    columns = np.empty((n, n))
    columns[:, order[real]] = basis[real].T
    columns = fix_column_signs(columns)
    columns.setflags(write=False)
    return JointDiagonalizer(
        basis=columns,
        sweeps_run=sweeps,
        off_history=np.array(history),
        mean_diagonal=diag,
        reorthonormalizations=reortho,
        converged=converged,
    )


def joint_diagonalize(set_: MultiViewSet, tol: float = DEFAULT_TOL,
                      max_sweeps: int = DEFAULT_MAX_SWEEPS) -> JointDiagonalizer:
    """Jointly diagonalize the symmetric-normalized laplacians of all views.

    View ``g`` contributes ``I - degree_scaled(g.weights, degree(g))``.

    Raises:
        IsolatedVertex: some view has a zero-degree vertex.
        InvalidSpec: as ``joint_diagonalize_matrices``.
    """
    matrices = []
    for i, g in enumerate(set_.views):
        try:
            matrices.append(np.eye(g.n) - degree_scaled(g.weights, degree(g)))
        except IsolatedVertex as exc:
            raise IsolatedVertex(exc.index, detail=f" in view {i}") from exc
    return joint_diagonalize_matrices(matrices, tol=tol, max_sweeps=max_sweeps)


def jdl_embed(jd: JointDiagonalizer, set_: MultiViewSet, k: int) -> Embedding:
    """Extract an n x (k-1) embedding from a converged diagonalizer.

    Basis columns are ranked by ascending mean diagonal value; the single
    smallest (the trivial, near-constant direction under degree weighting)
    is dropped and the next k-1 columns form the embedding.
    """
    n = jd.basis.shape[0]
    if set_.n != n:
        raise DimensionMismatch(f"diagonalizer built for n={n}, set has n={set_.n}")
    if not 2 <= k <= n:
        raise DimensionError(f"need 2 <= k <= {n}, got {k}")
    order = np.argsort(jd.mean_diagonal, kind="stable")
    chosen = order[1:k]
    coords = fix_column_signs(jd.basis[:, chosen])
    coords.setflags(write=False)
    values = np.array(jd.mean_diagonal[chosen])
    values.setflags(write=False)
    return Embedding(coords=coords, eigenvalues=values)
