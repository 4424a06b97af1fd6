"""Discretization of embeddings and label-space comparisons.

Embedding rows are clustered with seeded k-means++ / Lloyd iterations.  A
consensus labelling runs k-means many times, aligns every run to the first by
the overlap-maximizing cluster permutation, and takes the per-vertex mode.
Dice between two labellings is their maximum agreement over all cluster
matchings, so it is invariant to label renumbering.

There is one Lloyd kernel, and it runs any number of k-means runs in
lockstep.  The runs of one seed draw their k-means++ centroids in one
vectorized pass from one array, ``default_rng(seed).random((runs, k))``, run
r from row r; rows fill in order, so run r does not depend on the number of
runs, and ``kmeans`` with a seed is run 0 of a consensus with that base
seed.  All runs share each vectorized Lloyd iteration, and each stops on its
own, at an assignment fixpoint or when an update leaves its centroids
unchanged or returns those of two iterations back.  Every run's labels and
objective equal those of an independent single-run loop over its row of
draws.  Each point's nearest centroid is a running minimum over the k
centroids, taken one at a time with ties kept by the lower id, so no
(runs, n, k) distance table is built; k-means++ keeps that minimum while it
draws, and hands Lloyd the first assignment and objective.

A consensus aligns all its runs to the first in one pass over their
contingency tables, and takes for each the lexicographically smallest
agreement-maximizing permutation, which is what ``best_label_permutation``
returns.  While k is at most ``PERMUTATION_SCAN_MAX_K`` (6), every table is
scored against all k! permutations at once, in lexicographic order, so the
first maximum of each row of scores is that permutation.  Above it, every
table whose optimal matching is plain from its row maxima is matched at once,
and only the rest go through ``best_label_permutation``, which makes one
exact assignment solve and picks the lexicographically smallest optimum among
the tight edges of its duals.

The assignment solver is the package's own Hungarian method over Python
ints, so matching labels loads nothing beyond numpy: importing SciPy's
compiled solver would add about 20 MB of resident memory and 0.2 s to every
process that matches labels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .eigen import Embedding
from .errors import InvalidSpec, NonFiniteDistances, ShapeMismatch, TooFewPoints, _is_int

KMEANS_MAX_ITER = 300

# A consensus scores all k! label permutations of its tables up to this k, and
# matches by row maxima and assignment solves above it.  On the 99 tables of a
# 100-seed consensus (2-core VM) the scan takes about 0.08/0.7/8.5 ms at
# k = 5/6/7, whatever the tables; the solves took 3.1/3.4/4.0 ms on noisy
# tables that all need one, and less the more tables are plain from their row
# maxima (0.3/0.6/2.6 ms with 9/19/77 solves).
PERMUTATION_SCAN_MAX_K = 6


@dataclass(frozen=True, eq=False)
class Labelling:
    """Per-vertex cluster assignment (ids 1..k) with consensus metadata.

    ``mode_support`` is the fraction of aligned runs that voted for each
    vertex's winning label; ``empty_clusters`` lists ids that won no vertex
    (reported, never repaired).
    """

    assignment: np.ndarray
    k: int
    seeds_used: int = 1
    mode_support: np.ndarray | None = None
    empty_clusters: tuple = ()

    def __post_init__(self):
        a = _labels_of(self.assignment)
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)
        if a.max(initial=self.k) > self.k:
            raise ShapeMismatch(f"labels must lie in 1..{self.k}")


def _labels_of(x) -> np.ndarray:
    """int64 labels; ``ShapeMismatch`` unless 1-d whole numbers of at least 1."""
    raw = np.asarray(getattr(x, "assignment", x))
    if raw.ndim != 1:
        raise ShapeMismatch(f"labels must be 1-d, got shape {raw.shape}")
    labels = _whole(raw, "labels")
    if labels.min(initial=1) < 1:
        raise ShapeMismatch(f"labels must be at least 1, got {labels.min()}")
    return labels


def _whole(raw: np.ndarray, what: str) -> np.ndarray:
    """``raw`` as int64; ``ShapeMismatch`` unless every entry is a finite whole number."""
    if raw.dtype.kind not in "biuf":
        raise ShapeMismatch(f"{what} must be whole numbers, got dtype {raw.dtype}")
    with np.errstate(invalid="ignore"):
        values = raw.astype(np.int64, copy=False)
    if not np.array_equal(values, raw):
        raise ShapeMismatch(f"{what} must be whole numbers")
    return values


def _k_of(x, labels: np.ndarray) -> int:
    if hasattr(x, "k"):
        return int(x.k)
    return int(labels.max(initial=1))


def _points(points, k: int) -> np.ndarray:
    """``points`` as a Fortran-ordered float64 array.

    The distance sums reduce over coordinates, and numpy adds those of one
    point left to right only when coordinates are not contiguous; contiguous
    ones, from eight on, it adds in its unrolled pairwise order.  So every
    input takes the one layout, and the same points give the same bits.

    Raises:
        TooFewPoints: points that are not a 2-d numeric array, or ``k`` that
            is not an integer in 1..n.
    """
    try:
        pts = np.asarray(points, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise TooFewPoints(f"points must be a 2-d numeric array: {exc}") from exc
    if pts.ndim != 2:
        raise TooFewPoints(f"points must be 2-d, got shape {pts.shape}")
    n = pts.shape[0]
    if not (_is_int(k) and 1 <= k <= n):
        raise TooFewPoints(f"need an integer 1 <= k <= {n}, got {k!r}")
    return np.asfortranarray(pts)


def _check_seed(seed) -> None:
    if not (_is_int(seed) and seed >= 0):
        raise InvalidSpec(f"need an integer seed >= 0, got {seed!r}")


def _nearest(points: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid ids and squared distances for stacked (S, k, d) centroids.

    A running minimum over the centroids, one at a time, so temporaries stay
    at (S, n, d).  Each distance is the all-pairs expression
    sum((p - c) ** 2) term for term, and only a strictly smaller one moves a
    point, so ties keep the lower id as ``np.argmin`` does.

    Returns:
        (ids of shape (S, n), their squared distances of shape (S, n))
    """
    best = ((points - centroids[:, 0, None, :]) ** 2).sum(axis=-1)
    assign = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, centroids.shape[1]):
        _closer(points, centroids[:, j], j, best, assign)
    return assign, best


def _closer(points: np.ndarray, centroid: np.ndarray, j: int, best: np.ndarray,
            assign: np.ndarray) -> None:
    """Move to id ``j`` every point strictly closer to ``centroid`` (S, d) than ``best``."""
    dist = ((points - centroid[:, None, :]) ** 2).sum(axis=-1)
    closer = dist < best
    # Distances are at least 0 and never NaN here, so the minimum is the
    # distance where it is strictly smaller and ``best`` elsewhere.
    np.minimum(best, dist, out=best)
    np.putmask(assign, closer, j)


def _kmeanspp(points: np.ndarray, k: int, seed, runs: int):
    """k-means++ centroids of shape (runs, k, d), all runs drawn together.

    One generator, ``default_rng(seed)``, draws a (runs, k) array ``u`` of
    doubles in [0, 1), and run r takes row r.  Its first centroid is point
    ``floor(u[r, 0] * n)``.  Centroid j is drawn with probability
    proportional to each point's squared distance to its nearest centroid:
    the point ``searchsorted(cdf, u[r, j], side="right")`` of the normalized
    cumulative sum, which for a nondecreasing ``cdf`` is
    ``(cdf <= u[r, j]).sum()``; when those distances sum to 0, it is point
    ``floor(u[r, j] * n)``.  A double below 1 times n rounds below n, so
    every pick is a point.

    Each point's squared distance to its nearest drawn centroid is kept as a
    running minimum, as ``_nearest`` keeps it, so once all k are drawn it
    holds the first assignment and objective.

    Returns:
        (centroids, nearest-centroid ids of shape (runs, n), objectives of shape (runs,))
    """
    n = points.shape[0]
    draws = np.random.default_rng(seed).random((runs, k))
    picks = (draws * n).astype(np.intp)
    centroids = np.empty((runs, k, points.shape[1]))
    centroids[:, 0] = points[picks[:, 0]]
    # An overflow here is reported as NonFiniteDistances, not as a warning.
    with np.errstate(over="ignore"):
        closest = ((points - centroids[:, 0, None, :]) ** 2).sum(axis=-1)
        total = closest.sum(axis=1)
    nearest = np.zeros(closest.shape, dtype=np.intp)
    # Checked once, for every k: closest only shrinks, so later totals stay finite.
    if not np.isfinite(total).all():
        raise NonFiniteDistances("squared distances between points are not finite")
    for j in range(1, k):
        live = total > 0.0
        cdf = np.cumsum(closest[live] / total[live, None], axis=1)
        cdf /= cdf[:, -1:]
        picks[live, j] = (cdf <= draws[live, j, None]).sum(axis=1)
        centroids[:, j] = points[picks[:, j]]
        _closer(points, centroids[:, j], j, closest, nearest)
        total = closest.sum(axis=1)
    return centroids, nearest, total


def _update_with_repair(points: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> None:
    """One seed's centroid update, in place, moving a point into each empty cluster.

    Clusters are visited in order, and a repair changes the memberships seen
    by the clusters after it.
    """
    for j in range(centroids.shape[0]):
        members = assign == j
        if members.any():
            centroids[j] = points[members].mean(axis=0)
        else:
            own = ((points - centroids[assign]) ** 2).sum(axis=1)
            far = int(np.argmax(own))
            centroids[j] = points[far]
            assign[far] = j


def _cluster_sums(points: np.ndarray, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Coordinate sums per (seed, cluster) bin, added as ``points[members].mean`` adds them.

    NumPy adds the rows of a multi-column selection in point order, which
    ``bincount`` repeats; a single column it adds pairwise, which only the sum
    of a contiguous slice repeats.  Either way the centroids are the floats a
    per-seed mean gives.
    """
    flat = rows.ravel()
    values = np.broadcast_to(points[None, :, :], rows.shape + points.shape[1:])
    if points.shape[1] == 1:
        ordered = values[:, :, 0].ravel()[np.argsort(flat, kind="stable")]
        ends = np.cumsum(sizes)
        return np.array([ordered[a:b].sum() for a, b in zip(ends - sizes, ends)])[:, None]
    sums = np.empty((sizes.size, points.shape[1]))
    for c in range(points.shape[1]):
        sums[:, c] = np.bincount(flat, weights=values[:, :, c].ravel(), minlength=sizes.size)
    return sums


def _lloyd(points: np.ndarray, k: int, seed, runs: int, max_iter: int,
           track: list | None = None):
    """k-means++ and Lloyd iterations for ``runs`` runs of one seed in lockstep.

    Run r draws its initial centroids from row r of ``default_rng(seed)``'s
    draws, all runs in one pass of ``_kmeanspp``, and leaves the active set
    at its own assignment fixpoint, when an update leaves its centroids
    unchanged or returns those of two iterations back, or after
    ``max_iter`` iterations, so every row of the result equals an
    independent single-run loop.  The centroids alone
    determine the next ones, so unchanged centroids repeat forever, and
    centroids equal to those of two iterations back alternate between the
    last two states up to ``max_iter``: such a run keeps the state the cap
    would end on, and stopping changes neither labels nor objective.  These
    stops end the runs with k above the number of distinct points, whose
    empty-cluster repair each next assignment undoes.  With one run,
    ``track`` receives its objective after initialization and after each
    iteration run.

    Returns:
        (0-based assignments of shape (runs, n), objectives of shape (runs,))
    """
    d = points.shape[1]
    centroids, assign, objective = _kmeanspp(points, k, seed, runs)
    # Centroids of two iterations back; NaN matches nothing.
    older = np.full_like(centroids, np.nan)
    if track is not None:
        track.append(float(objective[0]))
    active = np.arange(runs)
    for remaining in range(max_iter - 1, -1, -1):
        if active.size == 0:
            break
        current = assign[active]
        rows = np.arange(active.size)[:, None] * k + current
        sizes = np.bincount(rows.ravel(), minlength=active.size * k).reshape(active.size, k)
        sums = _cluster_sums(points, rows, sizes.ravel()).reshape(active.size, k, d)
        moved = sums / np.maximum(sizes, 1)[:, :, None]
        for r in np.flatnonzero((sizes == 0).any(axis=1)):
            moved[r] = centroids[active[r]]
            _update_with_repair(points, current[r], moved[r])
        repeated = (moved == centroids[active]).all(axis=(1, 2))
        cycled = (moved == older[active]).all(axis=(1, 2))
        older[active] = centroids[active]
        centroids[active] = moved
        new_assign, best = _nearest(points, moved)
        new_objective = best.sum(axis=1)
        if track is not None:
            track.append(float(new_objective[0]))
        done = (new_assign == current).all(axis=1) | repeated
        # An odd number of iterations left would end on the previous state.
        keep = ~(cycled & ~done & (remaining % 2 == 1))
        assign[active[keep]] = new_assign[keep]
        objective[active[keep]] = new_objective[keep]
        active = active[~(done | cycled)]
    return assign, objective


def kmeans(points, k: int, seed: int, max_iter: int = KMEANS_MAX_ITER,
           track: list | None = None):
    """Seeded k-means++ initialization followed by Lloyd iterations.

    Stops at an assignment fixpoint, when an update leaves the centroids
    unchanged or returns those of two iterations back (labels and objective
    are then those of running on to ``max_iter``), or after ``max_iter``
    iterations; empty clusters are repaired by moving the point farthest
    from its current centroid.  Pass a list as ``track`` to collect the
    per-iteration objective (sum of squared distances), which is
    nonincreasing.  This is run 0 of ``consensus_labelling`` with base seed
    ``seed``: the lockstep kernel with one run.

    Returns:
        (assignment with ids 1..k, final objective)

    Raises:
        TooFewPoints: points that are not a 2-d numeric array, or ``k`` that
            is not an integer in 1..n for n points.
        InvalidSpec: ``seed`` is not an integer of at least 0.
        NonFiniteDistances: squared distances overflow, or a point is NaN.
    """
    _check_seed(seed)
    assign, objective = _lloyd(_points(points, k), k, seed, 1, max_iter, track)
    return assign[0] + 1, float(objective[0])


def contingency_table(a, b) -> np.ndarray:
    """Cross-tabulate two labellings over the same vertices.

    Returns the int64 k x k array whose entry [i, j] counts the vertices
    labelled i+1 in ``a`` and j+1 in ``b``.

    Raises:
        ShapeMismatch: labels that are not 1-d, not whole numbers or below 1,
            or labellings of different lengths or k.
    """
    la, lb = _labels_of(a), _labels_of(b)
    if la.shape != lb.shape:
        raise ShapeMismatch(f"labellings have lengths {la.shape[0]} and {lb.shape[0]}")
    ka, kb = _k_of(a, la), _k_of(b, lb)
    if ka != kb:
        raise ShapeMismatch(f"labellings have k={ka} and k={kb}")
    cells = (la - 1) * ka + (lb - 1)
    return np.bincount(cells, minlength=ka * ka).reshape(ka, ka)


def _assignment(cost: np.ndarray):
    """Minimum-cost assignment of a square integer cost matrix, with its duals.

    The Hungarian method (Kuhn 1955, Munkres 1957) in the shortest
    augmenting path form of Jonker and Volgenant, over ``cost.tolist()``, so
    the optimum and the duals are exact Python ints.  Row minima start the
    row duals, and each row takes the first free column at its minimum; each
    row left over grows a Dijkstra tree over the reduced costs
    ``cost[i][j] - u[i] - v[j]`` to a free column, shifts the duals by its
    distances and flips the path.  Its O(k^3) interpreted steps fall behind
    a compiled solver as k grows: on uniform random tables one solve takes
    about 9/19/110/760 us at k = 5/8/20/50 on a 2-core VM, against
    2/3/11/55 us for SciPy's ``linear_sum_assignment``.

    Returns:
        (cols, u, v): row i is matched to column ``cols[i]``; every reduced
        cost is at least 0, and 0 on each matched edge.
    """
    a = cost.tolist()
    k = len(a)
    u = [min(row) for row in a]
    v = [0] * k
    cols = [-1] * k
    row_of = [-1] * k
    for i, row in enumerate(a):
        for j in range(k):
            if row_of[j] == -1 and row[j] == u[i]:
                cols[i], row_of[j] = j, i
                break
    for i in range(k):
        if cols[i] != -1:
            continue
        dist = [math.inf] * k
        pred = [0] * k
        remaining = list(range(k))
        scanned = []
        r, reach = i, 0
        while True:
            row, base = a[r], reach - u[r]
            best = math.inf
            for j in remaining:
                d = base + row[j] - v[j]
                if d < dist[j]:
                    dist[j], pred[j] = d, r
                if dist[j] < best:
                    best, c = dist[j], j
            reach = best
            remaining.remove(c)
            scanned.append(c)
            if row_of[c] == -1:
                break
            r = row_of[c]
        u[i] += reach
        for j in scanned:
            step = reach - dist[j]
            v[j] -= step
            if row_of[j] != -1:
                u[row_of[j]] += step
        while True:
            r = pred[c]
            row_of[c] = r
            cols[r], c = c, cols[r]
            if r == i:
                break
    return cols, u, v


def _max_agreement(counts: np.ndarray) -> int:
    cols, _, _ = _assignment(-counts)
    return int(counts[np.arange(len(cols)), cols].sum())


def _scan_permutations(tables: np.ndarray) -> np.ndarray:
    """Lexicographically smallest agreement-maximizing permutation of each (T, k, k) table.

    Every permutation of ``range(k)`` is scored, in ``itertools.permutations``
    order, one row at a time, so the temporaries stay (T, k!); ``argmax``
    keeps the first maximum, the smallest maximizer in that order.

    Returns:
        0-based matched columns of shape (T, k)
    """
    k = tables.shape[1]
    perms = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(k))),
                        dtype=np.intp, count=math.factorial(k) * k).reshape(-1, k)
    scores = tables[:, 0, perms[:, 0]]
    for i in range(1, k):
        scores += tables[:, i, perms[:, i]]
    return perms[scores.argmax(axis=1)]


def _unique_row_maxima(tables: np.ndarray):
    """Row argmaxes of stacked (T, k, k) tables, and which tables they match uniquely.

    A table whose every row has a strict maximum, no two rows in the same
    column, has that row-to-column matching as its only agreement maximizer.

    Returns:
        (argmax columns of shape (T, k), boolean mask of shape (T,))
    """
    top = tables.argmax(axis=2)
    peak = np.take_along_axis(tables, top[:, :, None], axis=2)
    strict = (np.count_nonzero(tables == peak, axis=2) == 1).all(axis=1)
    ordered = np.sort(top, axis=1)
    return top, strict & (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)


def best_label_permutation(counts):
    """Agreement-maximizing label permutation for a contingency table.

    Returns the lexicographically smallest permutation ``perm`` (1-based:
    ``perm[i-1]`` is the column matched to row i) among all maximizers,
    together with the total agreement.  One assignment solve on
    ``-counts`` gives an optimum and exact integer duals ``u, v``; the
    maximizers are then exactly the perfect matchings on the tight edges,
    where ``-counts[r][c] == u[r] + v[c]``.  Rows are fixed in order, each
    to the smallest free tight column for which an alternating path of tight
    edges moves the rows not yet fixed onto the other free columns.  A 1 x 1
    table needs no solve.

    Raises:
        ShapeMismatch: a table that is not square, or an entry that is not a
            whole number of at least 0.
    """
    raw = np.asarray(counts)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise ShapeMismatch(f"contingency table must be square, got {raw.shape}")
    k = raw.shape[0]
    table = _whole(raw, "counts")
    if table.min(initial=0) < 0:
        raise ShapeMismatch(f"counts must be at least 0, got {table.min()}")
    if k < 2:
        return np.ones(k, dtype=np.int64), int(table.sum())
    cols, u, v = _assignment(-table)
    values = table.tolist()
    tight = [[c for c in range(k) if -row[c] == u[r] + v[c]] for r, row in enumerate(values)]
    row_of = [0] * k
    for r, c in enumerate(cols):
        row_of[c] = r
    fixed = [False] * k

    def reroute(r: int, seen: list, free: int) -> bool:
        """Move row ``r`` along tight edges, and the rows it displaces, onto ``free``."""
        for c in tight[r]:
            if not seen[c]:
                seen[c] = True
                if c == free or reroute(row_of[c], seen, free):
                    cols[r], row_of[c] = c, r
                    return True
        return False

    for i in range(k):
        for c in tight[i]:
            if c == cols[i]:
                break
            if fixed[c]:
                continue
            seen = fixed.copy()
            seen[c] = True
            if reroute(row_of[c], seen, cols[i]):
                cols[i], row_of[c] = c, i
                break
        fixed[cols[i]] = True
    return np.array(cols, dtype=np.int64) + 1, sum(row[c] for row, c in zip(values, cols))


def dice(a, b) -> float:
    """Matched-label Dice agreement between two labellings in [0, 1].

    After the overlap-maximizing permutation, Dice is
    2 * sum_i |A_i & B_pi(i)| / sum_i (|A_i| + |B_pi(i)|).  Both labellings
    partition the same n vertices, so the denominator is 2n and Dice is the
    maximum agreement over n: one assignment solve, no permutation.

    Raises:
        ShapeMismatch: as ``contingency_table``, or labellings with no vertex.
    """
    counts = contingency_table(a, b)
    n = int(counts.sum())
    if n == 0:
        raise ShapeMismatch("labellings have no vertex")
    return _max_agreement(counts) / n


def consensus_labelling(emb, k: int, num_seeds: int = 100, base_seed: int = 0,
                        row_normalize: bool = False) -> Labelling:
    """Mode labelling over many aligned k-means runs.

    ``num_seeds`` k-means runs draw their k-means++ picks from one
    generator, run r from row r of ``default_rng(base_seed).random((num_seeds,
    k))``, so run r does not depend on ``num_seeds`` and run 0 is ``kmeans``
    with seed ``base_seed``.  They run in lockstep (one k-means++ pass, then
    shared Lloyd iterations), each stopping at its own assignment fixpoint,
    when an update leaves its centroids unchanged or returns those of two
    iterations back, or after ``KMEANS_MAX_ITER`` iterations.  Each run is
    aligned to the first before the per-vertex vote by the lexicographically
    smallest permutation that maximizes its agreement, as
    ``best_label_permutation`` gives it, in one pass over all their
    contingency tables.  Up to ``PERMUTATION_SCAN_MAX_K`` clusters each table
    is scored against all k! permutations at once; above it, a table
    whose every row has a strict maximum in its own column is matched by
    those maxima, its only optimum, and only the other tables call
    ``best_label_permutation``.  Ties in the vote go to the lowest cluster
    id.  Cluster ids that win no vertex are reported in the metadata, not
    repaired.

    Raises:
        TooFewPoints: points that are not a 2-d numeric array, ``k`` that
            is not an integer in 1..n for n points, or ``num_seeds`` that is
            not an integer of at least 1.
        InvalidSpec: ``base_seed`` is not an integer of at least 0.
    """
    if not (_is_int(num_seeds) and num_seeds >= 1):
        raise TooFewPoints(f"need an integer number of seeds >= 1, got {num_seeds!r}")
    _check_seed(base_seed)
    points = _points(emb.coords if isinstance(emb, Embedding) else emb, k)
    if row_normalize:
        norms = np.linalg.norm(points, axis=1, keepdims=True)
        # A row of norm 0 is divided by 1; the quotient keeps the Fortran order.
        points = points / np.where(norms > 0, norms, 1.0)
    runs, _ = _lloyd(points, k, base_seed, num_seeds, KMEANS_MAX_ITER)
    n = runs.shape[1]
    # tables[r - 1][i][j] counts vertices in cluster i of run r and j of run 0.
    cells = (np.arange(num_seeds - 1)[:, None] * k + runs[1:]) * k + runs[0]
    tables = np.bincount(cells.ravel(), minlength=(num_seeds - 1) * k * k)
    tables = tables.reshape(num_seeds - 1, k, k)
    if k <= PERMUTATION_SCAN_MAX_K:
        perms = _scan_permutations(tables)
    else:
        perms, unique = _unique_row_maxima(tables)
        for r in np.flatnonzero(~unique):
            perms[r] = best_label_permutation(tables[r])[0] - 1
    aligned = np.vstack([runs[:1], np.take_along_axis(perms, runs[1:], axis=1)])
    votes = np.bincount((np.arange(n) * k + aligned).ravel(), minlength=n * k).reshape(n, k)
    assignment = np.argmax(votes, axis=1) + 1
    support = votes[np.arange(n), assignment - 1] / num_seeds
    empty = tuple(sorted(set(range(1, k + 1)) - set(assignment.tolist())))
    return Labelling(
        assignment=assignment,
        k=k,
        seeds_used=num_seeds,
        mode_support=support,
        empty_clusters=empty,
    )


