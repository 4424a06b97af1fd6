import itertools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mvspectral.clustering as clustering
from mvspectral import (
    Embedding,
    Labelling,
    NonFiniteDistances,
    ShapeMismatch,
    TooFewPoints,
    best_label_permutation,
    consensus_labelling,
    contingency_table,
    dice,
    kmeans,
)


def exhaustive_best_permutation(counts):
    """Brute-force oracle over all k! permutations, lexicographic on ties."""
    k = counts.shape[0]
    best_perm, best_total = None, -1
    for cols in itertools.permutations(range(k)):
        total = int(counts[np.arange(k), list(cols)].sum())
        if total > best_total:
            best_total = total
            best_perm = cols
    return np.asarray(best_perm) + 1, best_total


def reference_kmeans(points, k, seed, max_iter=clustering.KMEANS_MAX_ITER, track=None,
                     stop_on_repeat=True):
    """Single-seed k-means++ and Lloyd loop, one cluster at a time (the scalar oracle).

    It stops at an assignment fixpoint or, with ``stop_on_repeat``, when an
    update leaves the centroids unchanged or returns those of two iterations
    back, keeping of the two alternating states the one the cap ends on;
    without it, such a run goes on to ``max_iter`` (the capped run).
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, pts.shape[1]))
    centroids[0] = pts[int(rng.integers(n))]
    closest = ((pts - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=closest / total))
        centroids[j] = pts[idx]
        np.minimum(closest, ((pts - centroids[j]) ** 2).sum(axis=1), out=closest)

    def nearest():
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1), d2

    assign, d2 = nearest()
    objective = float(d2[np.arange(n), assign].sum())
    if track is not None:
        track.append(objective)
    older = None
    for it in range(1, max_iter + 1):
        previous = centroids.copy()
        previous_state = assign.copy(), objective
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = pts[members].mean(axis=0)
            else:
                own = ((pts - centroids[assign]) ** 2).sum(axis=1)
                far = int(np.argmax(own))
                centroids[j] = pts[far]
                assign[far] = j
        new_assign, d2 = nearest()
        objective = float(d2[np.arange(n), new_assign].sum())
        if track is not None:
            track.append(objective)
        fixpoint = np.array_equal(new_assign, assign)
        assign = new_assign
        if fixpoint or (stop_on_repeat and np.array_equal(centroids, previous)):
            break
        if stop_on_repeat and older is not None and np.array_equal(centroids, older):
            if (max_iter - it) % 2 == 1:
                assign, objective = previous_state
            break
        older = previous
    return assign + 1, objective


def reference_consensus(points, k, num_seeds, base_seed):
    """Per-seed reference runs aligned to the first by exhaustive matching, then voted."""
    runs = [reference_kmeans(points, k, base_seed + r)[0] for r in range(num_seeds)]
    votes = np.zeros((len(points), k), dtype=np.int64)
    for labels in runs:
        counts = np.zeros((k, k), dtype=np.int64)
        np.add.at(counts, (labels - 1, runs[0] - 1), 1)
        perm, _ = exhaustive_best_permutation(counts)
        votes[np.arange(len(points)), perm[labels - 1] - 1] += 1
    assignment = np.argmax(votes, axis=1) + 1
    return assignment, votes[np.arange(len(points)), assignment - 1] / num_seeds


def lockstep_families():
    """(points, k, max_iter): planted blobs in 2-d and 1-d, 16 copies of 7
    distinct points with k=8 (an empty cluster to repair on every iteration),
    a max_iter=2 cap that stops seeds before their fixpoint, all points
    identical (every k-means++ total is 0), k=1, k=n, noise in one
    dimension, coordinates scaled so that squared distances are subnormal
    (1e-160) or near the top of the range (1e150), and few noisy points for
    many clusters (k=5, and k=7 above the permutation scan), whose runs
    disagree so much that contingency tables between them have tied rows
    and shared argmax columns."""
    rng = np.random.default_rng(20)
    blobs, _ = blob_points(rng, [(0, 0), (6, 0), (0, 6), (6, 6)], 12, sigma=1.5)
    line, _ = blob_points(rng, [(0,), (3,), (7,)], 15, sigma=1.2)
    distinct = rng.normal(size=(7, 3))
    duplicates = distinct[rng.integers(0, 7, size=16)]
    noisy = rng.normal(size=(60, 4))
    few = rng.normal(size=(9, 3))
    cap = clustering.KMEANS_MAX_ITER
    return {
        "blobs": (blobs, 4, cap),
        "blobs-1d": (line, 3, cap),
        "duplicates": (duplicates, 8, cap),
        "max-iter-2": (noisy, 6, 2),
        "identical": (np.full((12, 3), 0.7), 4, cap),
        "k-1": (noisy, 1, cap),
        "k-n": (few, 9, cap),
        "noise-1d": (rng.normal(size=(40, 1)), 5, cap),
        "scaled-1e-160": (blobs * 1e-160, 4, cap),
        "scaled-1e150": (blobs * 1e150, 4, cap),
        "tie-heavy": (rng.normal(size=(14, 2)), 5, cap),
        "tie-heavy-k7": (rng.normal(size=(16, 2)), 7, cap),
    }


def blob_points(rng, centers, per_blob, sigma):
    points, labels = [], []
    for i, c in enumerate(centers, start=1):
        points.append(rng.normal(size=(per_blob, len(c))) * sigma + np.asarray(c))
        labels += [i] * per_blob
    return np.vstack(points), np.asarray(labels)


LOCKSTEP_FAMILIES = list(lockstep_families())


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the cost matrices passed to the assignment solver, call by call."""
    calls = []
    real = clustering._assignment

    def counting(cost):
        calls.append(cost.shape)
        return real(cost)

    monkeypatch.setattr(clustering, "_assignment", counting)
    return calls


def consensus_tables(points, k, num_seeds, base_seed):
    """The contingency tables a consensus aligns: each later run against the first."""
    runs = clustering._lloyd(clustering._points(points, k), k,
                             range(base_seed, base_seed + num_seeds), clustering.KMEANS_MAX_ITER)[0]
    first = Labelling(assignment=runs[0] + 1, k=k)
    return [contingency_table(Labelling(assignment=r + 1, k=k), first) for r in runs[1:]]


def hard_tables(tables, k):
    """Tables with a tied row maximum, and tables whose rows share an argmax column."""
    tied = [t for t in tables
            if (np.count_nonzero(t == t.max(axis=1, keepdims=True), axis=1) > 1).any()]
    shared = [t for t in tables if np.unique(t.argmax(axis=1)).size < k]
    return tied, shared


def run_fresh(script: str):
    """Run ``script`` in a new interpreter on these sources; its stdout parsed as JSON."""
    src = str(Path(clustering.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    return json.loads(out.stdout)


class TestKmeans:
    def test_single_cluster_objective_is_scatter(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(20, 3))
        labels, objective = kmeans(pts, k=1, seed=0)
        np.testing.assert_array_equal(labels, 1)
        scatter = float(((pts - pts.mean(axis=0)) ** 2).sum())
        assert objective == pytest.approx(scatter, rel=1e-12)

    def test_separated_blobs_exact_for_every_seed(self):
        rng = np.random.default_rng(1)
        pts, truth = blob_points(rng, [(0.0, 0.0), (100.0, 100.0)], 15, sigma=1.0)
        for seed in range(10):
            labels, _ = kmeans(pts, k=2, seed=seed)
            agreement = max(np.mean(labels == truth), np.mean(labels == (3 - truth)))
            assert agreement == 1.0

    def test_k_equals_n_zero_objective(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 2))
        _, objective = kmeans(pts, k=6, seed=3)
        assert objective == pytest.approx(0.0, abs=1e-20)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            kmeans(np.zeros((2, 2)), k=3, seed=0)

    def test_objective_nonincreasing(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 4))
        history = []
        kmeans(pts, k=5, seed=11, track=history)
        h = np.asarray(history)
        assert np.all(np.diff(h) <= 1e-12 * h[0])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(25, 3))
        a1, o1 = kmeans(pts, k=4, seed=9)
        a2, o2 = kmeans(pts, k=4, seed=9)
        np.testing.assert_array_equal(a1, a2)
        assert o1 == o2

    def test_labels_one_based_and_complete_for_blobs(self):
        rng = np.random.default_rng(5)
        pts, _ = blob_points(rng, [(0, 0), (50, 0), (0, 50)], 10, sigma=0.5)
        labels, _ = kmeans(pts, k=3, seed=2)
        assert set(labels.tolist()) == {1, 2, 3}


class TestLockstepKernel:
    SEEDS = range(50)

    @pytest.mark.parametrize("family", LOCKSTEP_FAMILIES)
    def test_kmeans_equals_scalar_reference(self, family):
        pts, k, max_iter = lockstep_families()[family]
        for seed in self.SEEDS:
            track, expected_track = [], []
            labels, objective = kmeans(pts, k, seed, max_iter=max_iter, track=track)
            expected, expected_objective = reference_kmeans(pts, k, seed, max_iter,
                                                            expected_track)
            np.testing.assert_array_equal(labels, expected)
            assert objective == expected_objective
            assert track == expected_track

    @pytest.mark.parametrize("family", LOCKSTEP_FAMILIES)
    def test_lockstep_rows_equal_independent_runs(self, family, monkeypatch):
        repairs = []
        repair = clustering._update_with_repair
        monkeypatch.setattr(clustering, "_update_with_repair",
                            lambda *args: repairs.append(1) or repair(*args))
        pts, k, max_iter = lockstep_families()[family]
        runs, objectives = clustering._lloyd(pts, k, self.SEEDS, max_iter)
        stops = set()
        for seed in self.SEEDS:
            track = []
            expected, expected_objective = reference_kmeans(pts, k, seed, max_iter, track)
            stops.add(len(track))
            np.testing.assert_array_equal(runs[seed] + 1, expected)
            assert objectives[seed] == expected_objective
        if family in ("duplicates", "identical"):
            assert repairs, "no seed met an empty cluster"
        elif family in ("blobs", "blobs-1d"):
            assert len(stops) > 1, "every seed stopped at the same iteration"

    def test_repeated_centroids_stop_without_changing_the_result(self):
        # Each repair is undone by the next assignment, so these seeds never
        # reach an assignment fixpoint.  The capped run repeats its last
        # iteration (duplicates) or alternates between its last two, as the
        # mean of the copies rounds off the point (identical, under an even
        # and an odd cap), up to max_iter; stopping early must not change
        # its result.
        families = lockstep_families()
        cap = clustering.KMEANS_MAX_ITER
        cases = [("duplicates", cap, 3), ("identical", cap, 4), ("identical", cap + 1, 4)]
        for (family, max_iter, longest), seed in itertools.product(cases, self.SEEDS):
            pts, k, _ = families[family]
            track, capped_track = [], []
            labels, objective = kmeans(pts, k, seed, max_iter=max_iter, track=track)
            capped, capped_objective = reference_kmeans(pts, k, seed, max_iter, capped_track,
                                                        stop_on_repeat=False)
            np.testing.assert_array_equal(labels, capped)
            assert objective == capped_objective
            assert len(capped_track) == max_iter + 1
            assert len(track) <= longest
            assert track == capped_track[:len(track)]
            assert track[len(track) - 1 - (max_iter + 1 - len(track)) % 2] == capped_track[-1]

    def test_nearest_equals_argmin_and_min_of_all_pairs(self):
        rng = np.random.default_rng(22)
        pts = rng.normal(size=(40, 3))
        # Squared distances from these points to ordinary centroids overflow to inf.
        pts[:4] *= 1e200
        centroids = rng.normal(size=(5, 6, 3))
        centroids[:, 4] = centroids[:, 1]  # exact ties between ids 1 and 4
        centroids[2, 3] = centroids[2, 0]  # and between 0 and 3 in one seed
        centroids[3, 5] = pts[0]           # the one finite distance of point 0
        with np.errstate(over="ignore"):
            pairs = ((pts[None, :, None, :] - centroids[:, None, :, :]) ** 2).sum(axis=-1)
            ids, dist = clustering._nearest(pts, centroids)
        assert np.isinf(pairs).any() and (pairs == pairs.min(axis=2, keepdims=True)).sum() > 5 * 40
        np.testing.assert_array_equal(ids, np.argmin(pairs, axis=2))
        np.testing.assert_array_equal(dist, np.min(pairs, axis=2))
        assert ids[3, 0] == 5 and (ids[:, 1:4] == 0).all()

    def test_points_near_1e200_raise_the_typed_error_without_warnings(self):
        rng = np.random.default_rng(21)
        pts = 1e200 * (1.0 + rng.normal(size=(20, 3)))
        for k in (3, 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteDistances, match="^squared distances between "
                                                             "points are not finite$"):
                    kmeans(pts, k, seed=0)
                with pytest.raises(NonFiniteDistances, match="not finite"):
                    consensus_labelling(pts, k, num_seeds=10)

    @pytest.mark.parametrize("family, num_seeds", [
        pytest.param("blobs", 50, id="blobs"),
        pytest.param("blobs-1d", 50, id="blobs-1d"),
        pytest.param("duplicates", 50, id="duplicates"),
        pytest.param("tie-heavy", 100, id="tie-heavy"),
        pytest.param("tie-heavy-k7", 40, id="tie-heavy-k7"),
        pytest.param("blobs", 1, id="one-seed"),
        pytest.param("blobs", 2, id="two-seeds"),
        pytest.param("k-1", 20, id="k-1"),
    ])
    def test_consensus_equals_reference_consensus(self, family, num_seeds, solves, monkeypatch):
        solved = []
        real = clustering.best_label_permutation
        monkeypatch.setattr(clustering, "best_label_permutation",
                            lambda table: solved.append(table) or real(table))
        pts, k, _ = lockstep_families()[family]
        lab = consensus_labelling(pts, k, num_seeds=num_seeds, base_seed=3)
        assignment, support = reference_consensus(pts, k, num_seeds, 3)
        np.testing.assert_array_equal(lab.assignment, assignment)
        np.testing.assert_array_equal(lab.mode_support, support)
        assert len(solved) <= num_seeds - 1
        if k <= clustering.PERMUTATION_SCAN_MAX_K:
            # Every table, hard ones included, is matched by the permutation scan.
            assert solved == [] and solves == []
        if family == "tie-heavy":
            tied, shared = hard_tables(consensus_tables(pts, k, num_seeds, 3), k)
            assert tied and shared
        if family == "tie-heavy-k7":
            tied, shared = hard_tables(solved, k)
            assert tied and shared and len(solves) == len(solved)

    @pytest.mark.parametrize("d", [1, 4, 8, 10])
    def test_same_bits_in_c_and_fortran_order(self, d):
        # From eight contiguous coordinates on, numpy sums a point's squared
        # differences pairwise, not left to right.
        pts = np.random.default_rng(30 + d).normal(size=(40, d))
        c, f = np.ascontiguousarray(pts), np.asfortranarray(pts)
        for seed in range(5):
            labels, objective = kmeans(c, 4, seed)
            f_labels, f_objective = kmeans(f, 4, seed)
            np.testing.assert_array_equal(labels, f_labels)
            assert objective == f_objective
        lab = consensus_labelling(c, 4, num_seeds=20)
        f_lab = consensus_labelling(f, 4, num_seeds=20)
        np.testing.assert_array_equal(lab.assignment, f_lab.assignment)
        np.testing.assert_array_equal(lab.mode_support, f_lab.mode_support)


def assignment_tables():
    """Seeded square integer cost tables with k <= 8: spread, tie-heavy, all-zero, negative."""
    rng = np.random.default_rng(25)
    tables = []
    for k in range(1, 9):
        for _ in range(6 if k < 8 else 3):
            tables.append(rng.integers(0, 40, size=(k, k)))
            tables.append(rng.integers(0, 2, size=(k, k)))
            tables.append(rng.integers(-25, 10, size=(k, k)))
        tables.append(np.zeros((k, k), dtype=np.int64))
        tables.append(-rng.integers(0, 3, size=(k, k)))
    return tables


class TestAssignmentSolver:
    @pytest.fixture(scope="class")
    def solved(self):
        return [(cost, *clustering._assignment(cost)) for cost in assignment_tables()]

    def test_optimum_equals_brute_force(self, solved):
        for cost, cols, _, _ in solved:
            k = cost.shape[0]
            perms = np.array(list(itertools.permutations(range(k))))
            assert sorted(cols) == list(range(k))
            assert cost[np.arange(k), cols].sum() == cost[np.arange(k), perms].sum(axis=1).min()

    def test_duals_feasible_and_tight_on_the_matching(self, solved):
        for cost, cols, u, v in solved:
            k = cost.shape[0]
            assert all(isinstance(x, int) for x in u + v)
            reduced = cost - np.array(u, dtype=np.int64)[:, None] - np.array(v, dtype=np.int64)
            assert (reduced >= 0).all()
            assert (reduced[np.arange(k), cols] == 0).all()
            # So the optimum is the dual objective, exactly.
            assert cost[np.arange(k), cols].sum() == sum(u) + sum(v)


class TestMatchPermutation:
    def test_cyclic_shift_recovered(self):
        a = np.array([1, 1, 2, 2, 3, 3])
        b = ((a % 3) + 1)  # 1->2, 2->3, 3->1
        counts = contingency_table(a, b)
        perm, total = best_label_permutation(counts)
        np.testing.assert_array_equal(perm, [2, 3, 1])
        assert counts[np.arange(3), perm - 1].sum() == 6
        assert total == 6

    def test_hand_table(self):
        counts = np.array([[5, 0, 0], [0, 0, 4], [0, 6, 0]])
        perm, agreement = best_label_permutation(counts)
        np.testing.assert_array_equal(perm, [1, 3, 2])
        assert agreement == 15
        oracle_perm, oracle_total = exhaustive_best_permutation(counts)
        np.testing.assert_array_equal(perm, oracle_perm)
        assert agreement == oracle_total

    def test_matches_exhaustive_on_random_tables(self, solves):
        rng = np.random.default_rng(6)
        spread = [(int(rng.integers(2, 7)), 12) for _ in range(200)]
        # Entries in 0..2 tie many rows and many optimal matchings.
        tie_heavy = [(int(rng.integers(2, 8)), 3) for _ in range(200)]
        for k, high in spread + tie_heavy:
            counts = rng.integers(0, high, size=(k, k))
            solves.clear()
            perm, total = best_label_permutation(counts)
            assert len(solves) == 1
            oracle_perm, oracle_total = exhaustive_best_permutation(counts)
            assert total == oracle_total
            np.testing.assert_array_equal(perm, oracle_perm)

    @pytest.mark.parametrize("high", [2, 4, 30], ids=["tie-heavy", "ties", "spread"])
    def test_matches_exhaustive_at_k8(self, solves, high):
        counts = np.random.default_rng(high).integers(0, high, size=(8, 8))
        perm, total = best_label_permutation(counts)
        assert len(solves) == 1
        oracle_perm, oracle_total = exhaustive_best_permutation(counts)
        assert total == oracle_total
        np.testing.assert_array_equal(perm, oracle_perm)

    @pytest.mark.parametrize("k", range(1, clustering.PERMUTATION_SCAN_MAX_K + 1))
    def test_permutation_scan_equals_exhaustive(self, k):
        rng = np.random.default_rng(40 + k)
        # Entries in 0..2 tie many rows and many optimal matchings.
        tables = np.concatenate([rng.integers(0, 3, size=(40, k, k)),
                                 rng.integers(0, 20, size=(40, k, k)),
                                 np.zeros((1, k, k), dtype=np.int64)])
        perms = clustering._scan_permutations(tables)
        for table, perm in zip(tables, perms):
            np.testing.assert_array_equal(perm + 1, exhaustive_best_permutation(table)[0])
        assert clustering._scan_permutations(tables[:0]).shape == (0, k)

    def test_tie_break_lexicographic(self):
        counts = np.ones((3, 3), dtype=int)
        perm, total = best_label_permutation(counts)
        np.testing.assert_array_equal(perm, [1, 2, 3])
        assert total == 3

    def test_fast_path_on_permuted_diagonal_dominant_tables(self, solves):
        # Blobs 10 apart with spread 0.3 give every run the same clusters, so
        # each table with the first is a permuted diagonal; above the
        # permutation scan's k, consensus matches them by their row maxima
        # and never calls the matcher.
        centers = [(10 * (i % 4), 10 * (i // 4)) for i in range(8)]
        pts, _ = blob_points(np.random.default_rng(11), centers, 8, sigma=0.3)
        consensus_labelling(pts, k=8, num_seeds=40, base_seed=1)
        assert solves == []

    @pytest.mark.parametrize("counts", [
        [[2, 2, 0], [0, 5, 1], [1, 0, 4]],   # row 1's maximum is tied
        [[6, 1, 0], [5, 2, 3], [0, 1, 4]],   # rows 1 and 2 share their argmax
        [[3, 3], [3, 3]],
        [[0, 0], [0, 0]],
    ])
    def test_ties_and_shared_argmax_fall_back(self, solves, counts):
        counts = np.asarray(counts)
        perm, total = best_label_permutation(counts)
        oracle_perm, oracle_total = exhaustive_best_permutation(counts)
        np.testing.assert_array_equal(perm, oracle_perm)
        assert total == oracle_total
        assert solves

    def test_single_cluster(self, solves):
        perm, total = best_label_permutation(np.array([[7]]))
        np.testing.assert_array_equal(perm, [1])
        assert total == 7
        assert solves == []

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            contingency_table(np.array([1, 2]), np.array([1, 2, 1]))
        with pytest.raises(ShapeMismatch):
            contingency_table(
                Labelling(assignment=np.array([1, 2]), k=2),
                Labelling(assignment=np.array([1, 2]), k=3),
            )
        with pytest.raises(ShapeMismatch):
            best_label_permutation(np.ones((2, 3), dtype=int))


class TestDice:
    def test_identical(self):
        a = np.array([1, 2, 2, 3, 1])
        assert dice(a, a) == 1.0

    def test_label_swap_absorbed(self):
        assert dice(np.array([1, 1, 2, 2]), np.array([2, 2, 1, 1])) == 1.0

    def test_half_agreement(self):
        assert dice(np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2])) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n, k = 12, 3
            a = rng.integers(1, k + 1, size=n)
            b = rng.integers(1, k + 1, size=n)
            assert dice(a, b) == dice(b, a)

    def test_relabel_invariance(self):
        rng = np.random.default_rng(8)
        a = rng.integers(1, 4, size=15)
        b = rng.integers(1, 4, size=15)
        relabel = np.array([3, 1, 2])
        assert dice(relabel[a - 1], b) == dice(a, b)
        assert dice(a, relabel[b - 1]) == dice(a, b)

    def test_equals_matched_agreement_fraction(self):
        rng = np.random.default_rng(9)
        a = rng.integers(1, 4, size=30)
        b = rng.integers(1, 4, size=30)
        counts = contingency_table(a, b)
        _, agreement = best_label_permutation(counts)
        assert dice(a, b) == agreement / 30.0

    def test_one_assignment_solve(self, solves):
        rng = np.random.default_rng(16)
        for k in range(1, 7):
            a, b = rng.integers(1, k + 1, size=(2, 20))
            a[0] = b[0] = k
            solves.clear()
            dice(a, b)
            assert solves == [(k, k)]

    @pytest.mark.parametrize("a, b", [
        ([0, 1, 1], [1, 1, 1]),
        ([-1, 2, 2], [1, 2, 2]),
        ([[1, 2], [2, 1]], [[1, 2], [1, 2]]),
        ([], []),
        ([1.5, 2.9, 2.2], [1, 2, 2]),
        ([1.0, np.nan, 2.0], [1, 2, 2]),
        (["1", "2", "2"], [1, 2, 2]),
    ], ids=["zero-id", "negative-id", "2-d", "no-vertex", "fractional-id", "nan-id", "text-id"])
    def test_bad_labels_rejected(self, a, b):
        with pytest.raises(ShapeMismatch) as info:
            dice(np.asarray(a), np.asarray(b))
        assert info.value.exit_code == 2

    def test_whole_float_labels_accepted(self):
        assert dice([1.0, 2.0, 2.0], [2, 1, 1]) == 1.0

    def test_dice_never_loads_scipy_optimize(self):
        a, b = [1, 1, 2, 2, 3, 3], [2, 2, 1, 3, 3, 3]
        script = (
            "import json, sys\n"
            "import mvspectral, mvspectral.cli\n"
            "before = sorted(m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules)\n"
            f"value = mvspectral.dice({a}, {b})\n"
            "print(json.dumps([before, 'scipy.optimize' in sys.modules, value]))\n"
        )
        before, loaded_after, value = run_fresh(script)
        assert before == ["scipy.linalg"]
        assert not loaded_after
        assert value == dice(a, b) == 5 / 6

    @pytest.mark.parametrize("assignment", [[[1, 2], [2, 1]], [1.5, 2.0], [0, 1], [1, 3]],
                             ids=["2-d", "fractional-id", "zero-id", "above-k"])
    def test_labelling_rejects_bad_assignment(self, assignment):
        with pytest.raises(ShapeMismatch) as info:
            Labelling(assignment=assignment, k=2)
        assert info.value.exit_code == 2


class TestConsensusLabelling:
    def test_consensus_and_cluster_never_load_scipy_optimize(self, tmp_path):
        # Noisy points give tables with ties: at k=5 the permutation scan
        # matches them, at k=7 the consensus makes solves.  Then a whole
        # `mvspectral cluster` runs in the same process.
        script = (
            "import contextlib, io, json, sys\n"
            "import numpy as np\n"
            "import mvspectral.clustering as clustering\n"
            "from mvspectral.cli import main\n"
            "solves = []\n"
            "real = clustering._assignment\n"
            "clustering._assignment = lambda cost: solves.append(cost.shape) or real(cost)\n"
            "points = np.random.default_rng(4).normal(size=(30, 2))\n"
            "clustering.consensus_labelling(points, 5, num_seeds=20)\n"
            "scanned = len(solves)\n"
            "clustering.consensus_labelling(points, 7, num_seeds=20)\n"
            "after_consensus = 'scipy.optimize' in sys.modules\n"
            f"out = {str(tmp_path)!r}\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['synth', '--n', '40', '--k-true', '4', '--m', '6', '--seed', '1',\n"
            "                   '--outdir', out + '/f']),\n"
            "             main(['cluster', '--manifest', out + '/f/manifest.json', '--k', '4',\n"
            "                   '--output', out + '/r.json'])]\n"
            "print(json.dumps([scanned, len(solves) > 0, after_consensus, codes,\n"
            "                  'scipy.optimize' in sys.modules]))\n"
        )
        assert run_fresh(script) == [0, True, False, [0, 0], False]

    def test_single_seed_equals_kmeans(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(18, 2))
        emb = Embedding(coords=pts, eigenvalues=np.array([0.1, 0.2]))
        lab = consensus_labelling(emb, k=3, num_seeds=1, base_seed=5)
        direct, _ = kmeans(pts, k=3, seed=5)
        np.testing.assert_array_equal(lab.assignment, direct)
        assert lab.seeds_used == 1
        np.testing.assert_array_equal(lab.mode_support, 1.0)

    def test_two_triangle_embedding_unanimous(self):
        coords = np.array([[1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0]])
        emb = Embedding(coords=coords, eigenvalues=np.array([0.0]))
        lab = consensus_labelling(emb, k=2, num_seeds=25, base_seed=0)
        assert len(set(lab.assignment[:3].tolist())) == 1
        assert len(set(lab.assignment[3:].tolist())) == 1
        assert lab.assignment[0] != lab.assignment[3]
        np.testing.assert_array_equal(lab.mode_support, 1.0)
        assert lab.empty_clusters == ()

    def test_planted_blobs_match_truth(self):
        rng = np.random.default_rng(11)
        pts, truth = blob_points(rng, [(0, 0), (10, 0), (0, 10), (10, 10), (5, 20)],
                                 8, sigma=0.3)
        lab = consensus_labelling(pts, k=5, num_seeds=40, base_seed=1)
        assert dice(lab, Labelling(assignment=truth, k=5)) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        pts = rng.normal(size=(30, 3))
        l1 = consensus_labelling(pts, k=4, num_seeds=15, base_seed=3)
        l2 = consensus_labelling(pts, k=4, num_seeds=15, base_seed=3)
        np.testing.assert_array_equal(l1.assignment, l2.assignment)
        np.testing.assert_array_equal(l1.mode_support, l2.mode_support)

    def test_mode_support_floor(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(20, 2))
        lab = consensus_labelling(pts, k=4, num_seeds=10, base_seed=0)
        assert np.all(lab.mode_support >= 1.0 / 10 - 1e-15)

    def test_empty_cluster_reported_not_repaired(self):
        # k exceeds the number of distinct points, so consensus leaves a
        # cluster without any unanimous support somewhere.
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
        lab = consensus_labelling(pts, k=3, num_seeds=30, base_seed=2)
        present = set(lab.assignment.tolist())
        assert set(lab.empty_clusters) == set(range(1, 4)) - present

    def test_runs_whose_highest_label_differs(self):
        # Two distinct points and k=4: some runs end with labels 1..2, others
        # 1..3, and each is still aligned on the full k x k table.
        a, b = [-1.6, -2.9], [-0.4, 1.2]
        pts = np.array([a, a, b, a, b, b, a, b, b, b])
        lab = consensus_labelling(pts, k=4, num_seeds=10, base_seed=0)
        assignment, support = reference_consensus(pts, 4, 10, 0)
        np.testing.assert_array_equal(lab.assignment, assignment)
        np.testing.assert_array_equal(lab.mode_support, support)

    def test_row_normalize_path(self):
        coords = np.array([[2.0, 0.0], [4.0, 0.0], [0.0, 3.0], [0.0, 9.0]])
        emb = Embedding(coords=coords, eigenvalues=np.array([0.1, 0.2]))
        lab = consensus_labelling(emb, k=2, num_seeds=10, base_seed=0, row_normalize=True)
        assert lab.assignment[0] == lab.assignment[1]
        assert lab.assignment[2] == lab.assignment[3]
        assert lab.assignment[0] != lab.assignment[2]
