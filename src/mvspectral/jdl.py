"""Joint diagonalization of normalized laplacians.

One orthogonal basis is rotated to approximately diagonalize every view's
normalized laplacian D^(-1/2) (D - W) D^(-1/2) (``graphs.normalized_laplacian``,
the matrix whose eigenproblem the MVSC methods solve) at once, by cyclic
Jacobi sweeps over index pairs in the round-robin parallel ordering (Brent &
Luk, 1985), where each step rotates a set of disjoint pairs at once.  Each
rotation angle minimizes the pooled squared off-diagonal contribution of its
2x2 subproblem across all views (Cardoso & Souloumiac, 1996): a step's angles
come from one pooled Gram ``np.einsum`` and one ``np.arctan2``.  Rotations
within a step act on disjoint index pairs, so they commute and the total
off-diagonal energy still never increases.  Sweeping stops once a sweep cuts
that energy by at most ``tol`` (by default 0.1%) of what remains: on noisy
families it levels off far above zero, and the leading subspace has settled
long before.  Vertex embeddings are read off the basis columns ranked by
mean diagonal value.

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
    NotOrthogonal,
    NotSymmetric,
    _is_int,
)
from .graphs import normalized_laplacian
from .multiview import MultiViewSet

# Pairs whose pooled squared off-diagonal mass is below this fraction of the
# current off-cost are skipped within a sweep.  Tying the threshold to the
# remaining off-cost (not the fixed Frobenius mass) lets tight tolerances
# converge to the machine floor instead of stalling at a fixed residual.
SKIP_FACTOR = 1e-14

# Accumulated basis drift beyond this triggers re-orthonormalization.
ORTHO_DRIFT_TOL = 1e-9

# Noisy families level off far above zero off-cost, where a bound near
# machine precision is never met (see the module docstring).
DEFAULT_TOL = 1e-3
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
    """A family of matrices as one (m, n, n) float64 array, not copied if it is one.

    Raises:
        DimensionMismatch: no matrix, or not all nonempty square numeric matrices of one size.
        InvalidWeights: some entry is not finite.
    """
    try:
        stack = np.asarray(matrices, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(f"not numeric matrices of one shape: {exc}") from exc
    if not (stack.ndim == 3 and stack.shape[0] and 0 < stack.shape[1] == stack.shape[2]):
        raise DimensionMismatch(
            f"family has shape {stack.shape}; expected nonempty square matrices of one size")
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
    rotated = (q.T @ mats @ q).transpose(1, 2, 0)
    return _off_total(rotated, rotated)


def _off_total(stack: np.ndarray, scratch: np.ndarray) -> float:
    """Pooled off-diagonal energy of an (n, n, m) stack.

    The squares go into ``scratch``, an array laid out as ``stack`` (or
    ``stack`` itself), which is overwritten.
    """
    diag = stack[np.arange(stack.shape[0]), np.arange(stack.shape[1])]
    squares = np.multiply(stack, stack, out=scratch)
    # Total less diagonal mass can round below zero; a sum of squares cannot.
    return max(0.0, float(squares.sum() - (diag * diag).sum()))


def _largest_magnitude(a: np.ndarray) -> float:
    """``np.abs(a).max()`` without an array of absolute values."""
    return max(float(a.max()), -float(a.min()))


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


def _rotations(forms: np.ndarray, skip_threshold: float, out: np.ndarray) -> np.ndarray:
    """Write one step's pooled Jacobi rotations into ``out``, (h, 2, 2) [[c, s], [-s, c]].

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
    out[:, 0, 0] = c
    out[:, 0, 1] = s
    np.negative(s, out=out[:, 1, 0])
    out[:, 1, 1] = c
    return out


def joint_diagonalize_matrices(matrices, tol: float = DEFAULT_TOL,
                               max_sweeps: int = DEFAULT_MAX_SWEEPS) -> JointDiagonalizer:
    """Jointly diagonalize a family of symmetric matrices.

    Each sweep visits every pair (p, q) once in the round-robin parallel
    ordering: a step holds disjoint pairs, whose closed-form pooled Jacobi
    rotations commute and are applied together.  Sweeping stops when the
    per-sweep off-cost reduction is at most ``tol`` times the current
    off-cost (``converged`` True), or at ``max_sweeps`` (never an error; the
    best basis found is returned, with ``converged`` False).  With
    ``tol=0.0`` only a sweep that reduces nothing stops early.  Matrices
    within the symmetry bound below are symmetrized as (A + A^T) / 2;
    exactly symmetric input is used as it is.

    The (n, n, m) stack is held in each step's pair-interleaved order (see
    the module docstring).  After a step it holds the transpose of the
    rotated stack, which equals it up to rounding.  Odd n adds an index n
    with a zero row and column, whose pairs are always the identity, and
    drops it at the end.

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
    family = _square_family(matrices)
    m, n = family.shape[:2]
    scale = _largest_magnitude(family)
    asym = _largest_magnitude(family - np.transpose(family, (0, 2, 1)))
    if scale > 0 and asym > 1e-8 * scale:
        raise NotSymmetric("input matrices are not symmetric within 1e-8")
    # For exactly symmetric input 0.5 (A + A^T) is A, so only asymmetry costs a copy.
    if asym:
        family = 0.5 * (family + np.transpose(family, (0, 2, 1)))
    size = n + n % 2
    h = size // 2
    # orders[t] is step t's pair-interleaved index order: its i-th pair at 2i, 2i+1.
    orders = [np.stack(pairs, axis=1).ravel() for pairs in _round_robin_schedule(size)]
    order = orders[0]
    # gathers[t] moves rows from step t's order to step t+1's (step 0's after the last).
    gathers = [np.argsort(a)[b] for a, b in zip(orders, orders[1:] + orders[:1])]
    # Step-0 positions of the indices 0..n-1, which leave out the pad.
    where = np.argsort(order)[:n]

    # Views innermost, (size, size, m): a row is then one contiguous run of
    # size * m values.  The family is scattered straight into step 0's order.
    stack = np.zeros((size, size, m))
    stack[np.ix_(where, where)] = family.transpose(1, 2, 0)
    spare = np.empty_like(stack)
    # Basis vectors as rows, in step-0 order.
    basis = np.eye(size)[order]
    basis_spare = np.empty_like(basis)
    forms = np.empty((2, m, h))
    rot = np.empty((h, 2, 2))
    positions = np.arange(size)[:, None]
    eye = np.eye(size)
    # Views that every step reuses; stack, spare and basis change only in place.
    # (2, 2, m, h): the step's 2x2 diagonal blocks, pairs last.
    blocks = stack.reshape(h, 2, h, 2, m).diagonal(axis1=0, axis2=2)
    rows = stack.reshape(h, 2, size * m)
    spare_rows = spare.reshape(h, 2, size * m)
    spare_cells = spare.reshape(size * size, m)
    basis_rows = basis.reshape(h, 2, size)
    basis_spare_rows = basis_spare.reshape(h, 2, size)

    off = _off_total(stack, spare)
    history = []
    reortho = 0
    sweeps = 0
    converged = False

    for sweep in range(1, max_sweeps + 1):
        skip_threshold = SKIP_FACTOR * off
        for gather in gathers:
            np.subtract(blocks[0, 0], blocks[1, 1], out=forms[0])
            np.multiply(blocks[0, 1], 2.0, out=forms[1])
            _rotations(forms, skip_threshold, rot)
            np.matmul(rot, rows, out=spare_rows)
            # stack[i, a] = spare[gather[a], i]: the row gather and the transpose in one pass.
            np.take(spare_cells, gather * size + positions, axis=0, out=stack, mode="clip")
            np.matmul(rot, rows, out=spare_rows)
            np.take(spare, gather, axis=0, out=stack, mode="clip")
            np.matmul(rot, basis_rows, out=basis_spare_rows)
            np.take(basis_spare, gather, axis=0, out=basis, mode="clip")
        sweeps = sweep
        new_off = _off_total(stack, spare)
        history.append(new_off)
        if float(np.abs(basis @ basis.T - eye).max()) > ORTHO_DRIFT_TOL:
            q, _ = np.linalg.qr(basis.T)
            # For odd n, blocked QR (n above 128 or so) rounds a little into
            # the pad's coordinate n, whose only vector is e_n: restore it.
            q[n:] = basis.T[n:]
            basis[:] = q.T
            # The pad's row and column of the family are zero.
            stack[:] = np.einsum("ji,mjk,kl->ilm", q[:n], family, q[:n], optimize=True)
            reortho += 1
            new_off = _off_total(stack, spare)
            history[-1] = new_off
        reduction = off - new_off
        off = new_off
        if reduction <= tol * new_off:
            converged = True
            break

    diag = stack[where, where].mean(axis=1)
    columns = fix_column_signs(np.ascontiguousarray(basis[where, :n].T))
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
    """Jointly diagonalize the normalized laplacians of all views.

    The family is ``normalized_laplacian(set_.stack, set_.degrees)``, the
    matrices whose eigenproblems the MVSC methods solve one aggregate at a
    time.

    Raises:
        IsolatedVertex: some view has a zero-degree vertex (named with its view).
        InvalidSpec: as ``joint_diagonalize_matrices``.
    """
    return joint_diagonalize_matrices(normalized_laplacian(set_.stack, set_.degrees),
                                      tol=tol, max_sweeps=max_sweeps)


def jdl_embed(jd: JointDiagonalizer, set_: MultiViewSet, k: int) -> Embedding:
    """Extract an n x (k-1) embedding from a converged diagonalizer.

    Basis columns are ranked by ascending mean diagonal value; the single
    smallest (the trivial, near-constant direction under degree weighting)
    is dropped and the next k-1 columns form the embedding.
    """
    n = jd.basis.shape[0]
    if set_.n != n:
        raise DimensionMismatch(f"diagonalizer built for n={n}, set has n={set_.n}")
    if not (_is_int(k) and 2 <= k <= n):
        raise DimensionError(f"need an integer 2 <= k <= {n}, got {k!r}")
    order = np.argsort(jd.mean_diagonal, kind="stable")
    chosen = order[1:k]
    # The basis columns already follow fix_column_signs' convention.
    coords = jd.basis[:, chosen]
    coords.setflags(write=False)
    values = np.array(jd.mean_diagonal[chosen])
    values.setflags(write=False)
    return Embedding(coords=coords, eigenvalues=values)
