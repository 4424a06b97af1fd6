import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ortho_group

from mvspectral import (
    DimensionMismatch,
    IsolatedVertex,
    Labelling,
    MultiViewSet,
    NotSymmetric,
    SyntheticSpec,
    ViewGraph,
    consensus_labelling,
    dice,
    jdl_embed,
    joint_diagonalize,
    joint_diagonalize_matrices,
    off_cost,
    synth_views,
)
import mvspectral.jdl as jdl
from mvspectral.eigen import fix_column_signs
from mvspectral.graphs import degree, normalized_laplacian
from mvspectral.jdl import _round_robin_schedule, _rotations


def graph_of(weights):
    return ViewGraph.from_weights(np.asarray(weights, dtype=float))


def random_view(rng, n, lift=0.05):
    w = np.abs(rng.normal(size=(n, n))) + lift
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return graph_of(w)


def sym_normalized(g):
    """I - D^(-1/2) W D^(-1/2), written out."""
    inv_sqrt = 1.0 / np.sqrt(g.weights.sum(axis=1))
    return np.eye(g.n) - inv_sqrt[:, None] * g.weights * inv_sqrt[None, :]


def random_symmetric_family(rng, m, n):
    mats = []
    for _ in range(m):
        a = rng.normal(size=(n, n))
        mats.append(a + a.T)
    return mats


def off_oracle(matrices, basis):
    """Direct double-loop sum of squared off-diagonal entries."""
    total = 0.0
    for a in matrices:
        b = basis.T @ np.asarray(a) @ basis
        n = b.shape[0]
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += b[i, j] ** 2
    return total


class TestOffCost:
    def test_diagonal_family_is_zero(self):
        mats = [np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, 0.5, 4.0])]
        assert off_cost(mats, np.eye(3)) == 0.0

    def test_single_matrix_direct_arithmetic(self):
        assert off_cost([np.array([[1.0, 2.0], [2.0, 1.0]])], np.eye(2)) == 8.0

    def test_random_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        mats = random_symmetric_family(rng, 3, 6)
        basis = ortho_group.rvs(6, random_state=1)
        assert off_cost(mats, basis) == pytest.approx(off_oracle(mats, basis), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            off_cost([np.eye(3), np.eye(4)], np.eye(3))

    def test_non_orthogonal_basis_rejected(self):
        with pytest.raises(ValueError):
            off_cost([np.eye(3)], np.full((3, 3), 0.6))


class TestJointDiagonalizeMatrices:
    def test_already_diagonal_one_sweep_identity(self):
        mats = [np.diag([3.0, 1.0, 2.0]), np.diag([0.5, -1.0, 4.0])]
        jd = joint_diagonalize_matrices(mats)
        np.testing.assert_array_equal(jd.basis, np.eye(3))
        assert jd.sweeps_run == 1
        assert jd.off_history[-1] == 0.0

    def test_commuting_family_fully_diagonalized(self):
        rng = np.random.default_rng(2)
        n, m = 10, 4
        shared = ortho_group.rvs(n, random_state=3)
        mats = [shared @ np.diag(rng.normal(size=n)) @ shared.T for _ in range(m)]
        initial = off_cost(mats, np.eye(n))
        jd = joint_diagonalize_matrices(mats)
        assert off_cost(mats, jd.basis) <= 1e-8 * initial

    def test_single_matrix_matches_sym_eig_spaces(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 9))
        a = a + a.T
        jd = joint_diagonalize_matrices([a], tol=1e-14)
        assert off_cost([a], jd.basis) <= 1e-10 * float((a * a).sum())
        np.testing.assert_allclose(np.sort(jd.mean_diagonal), scipy.linalg.eigvalsh(a), atol=1e-7)

    def test_off_history_monotone(self):
        rng = np.random.default_rng(5)
        mats = random_symmetric_family(rng, 4, 8)
        jd = joint_diagonalize_matrices(mats, max_sweeps=30)
        h = jd.off_history
        assert np.all(np.diff(h) <= 1e-10 * (1.0 + h[0]))

    def test_basis_orthogonal(self):
        rng = np.random.default_rng(6)
        mats = random_symmetric_family(rng, 3, 12)
        jd = joint_diagonalize_matrices(mats, max_sweeps=20)
        drift = np.abs(jd.basis.T @ jd.basis - np.eye(12)).max()
        assert drift <= 1e-9

    def test_trace_sum_conserved(self):
        rng = np.random.default_rng(7)
        mats = random_symmetric_family(rng, 3, 7)
        jd = joint_diagonalize_matrices(mats, max_sweeps=20)
        before = sum(float(np.trace(a)) for a in mats)
        after = sum(float(np.trace(jd.basis.T @ a @ jd.basis)) for a in mats)
        assert after == pytest.approx(before, rel=1e-9, abs=1e-9)

    def test_trailing_block_rotation_changes_cost(self):
        # A converged basis split as [Q1 Q2]: rotating Q2 alone moves the
        # off-cost, so the objective is not a function of the embedding only.
        rng = np.random.default_rng(8)
        mats = random_symmetric_family(rng, 3, 8)
        jd = joint_diagonalize_matrices(mats, max_sweeps=50)
        base = off_cost(mats, jd.basis)
        k = 3
        hits = 0
        for trial in range(20):
            u = ortho_group.rvs(8 - k, random_state=100 + trial)
            rotated = jd.basis.copy()
            rotated[:, k:] = rotated[:, k:] @ u
            if off_cost(mats, rotated) - base > 1e-10:
                hits += 1
        assert hits >= 1

    def test_not_symmetric_rejected(self):
        with pytest.raises(NotSymmetric) as info:
            joint_diagonalize_matrices([np.array([[0.0, 1.0], [0.5, 0.0]])])
        assert info.value.exit_code == 2

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        rng = np.random.default_rng(12)
        mats = np.array(random_symmetric_family(rng, 3, 6))
        scale = np.abs(mats).max()
        mats[1, 0, 2] += 1e-9 * scale
        asym = np.abs(mats - mats.transpose(0, 2, 1)).max()
        assert 0 < asym <= 1e-8 * np.abs(mats).max()
        jd = joint_diagonalize_matrices(mats, max_sweeps=5)
        sym = joint_diagonalize_matrices(0.5 * (mats + mats.transpose(0, 2, 1)), max_sweeps=5)
        assert jd.basis.tobytes() == sym.basis.tobytes()
        assert jd.off_history.tobytes() == sym.off_history.tobytes()

    def test_max_sweeps_cap_returns_best(self):
        rng = np.random.default_rng(9)
        mats = random_symmetric_family(rng, 5, 10)
        jd = joint_diagonalize_matrices(mats, max_sweeps=3)
        assert jd.sweeps_run == 3
        assert len(jd.off_history) == 3

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        mats = random_symmetric_family(rng, 3, 6)
        j1 = joint_diagonalize_matrices(mats, max_sweeps=10)
        j2 = joint_diagonalize_matrices(mats, max_sweeps=10)
        assert j1.basis.tobytes() == j2.basis.tobytes()


class TestJointDiagonalizeGraphs:
    def test_uses_normalized_laplacians(self):
        rng = np.random.default_rng(11)
        views = [random_view(rng, 6) for _ in range(3)]
        set_ = MultiViewSet(views)
        jd = joint_diagonalize(set_, max_sweeps=40)
        mats = [sym_normalized(v) for v in views]
        assert off_cost(mats, jd.basis) == pytest.approx(jd.off_history[-1], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("n", [12, 13])
    def test_equals_matrix_path_on_per_view_laplacians(self, n):
        rng = np.random.default_rng(19 + n)
        views = [random_view(rng, n) for _ in range(3)]
        jd = joint_diagonalize(MultiViewSet(views), max_sweeps=8)
        ref = joint_diagonalize_matrices(
            [normalized_laplacian(v.weights, degree(v)) for v in views], max_sweeps=8)
        assert jd.basis.tobytes() == ref.basis.tobytes()
        assert jd.mean_diagonal.tobytes() == ref.mean_diagonal.tobytes()
        assert jd.off_history.tobytes() == ref.off_history.tobytes()
        assert (jd.sweeps_run, jd.converged) == (ref.sweeps_run, ref.converged)

    def test_isolated_vertex_named_with_view(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        set_ = MultiViewSet([graph_of(w)])
        with pytest.raises(IsolatedVertex, match="view 0"):
            joint_diagonalize(set_)


class TestJdlEmbed:
    def test_single_view_subspace_matches_eigenvectors(self):
        rng = np.random.default_rng(12)
        g = random_view(rng, 10)
        set_ = MultiViewSet([g])
        jd = joint_diagonalize(set_, tol=1e-14)
        k = 4
        emb = jdl_embed(jd, set_, k)
        values, vectors = scipy.linalg.eigh(sym_normalized(g))
        gaps = np.diff(values)
        assert gaps.min() >= 1e-6  # generic random weights keep the spectrum simple
        overlap = np.linalg.svd(emb.coords.T @ vectors[:, 1:k], compute_uv=False)
        angle = float(np.arccos(np.clip(overlap.min(), -1.0, 1.0)))
        assert angle <= 1e-6

    def test_two_disconnected_triangles_sign_split(self):
        w = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[a, b] = w[b, a] = 1.0
        set_ = MultiViewSet([graph_of(w)])
        jd = joint_diagonalize(set_)
        emb = jdl_embed(jd, set_, k=2)
        signs = np.sign(emb.coords[:, 0])
        assert len(set(signs[:3])) == 1
        assert len(set(signs[3:])) == 1
        assert signs[0] != signs[3]

    def test_planted_blocks_recovered_downstream(self):
        rng = np.random.default_rng(13)
        n, blocks = 20, 5
        labels = np.repeat(np.arange(1, blocks + 1), n // blocks)
        views = []
        for _ in range(4):
            w = np.where(labels[:, None] == labels[None, :], 1.0, 0.1)
            w = w + rng.uniform(0, 0.05, size=(n, n))
            w = 0.5 * (w + w.T)
            np.fill_diagonal(w, 0.0)
            views.append(graph_of(w))
        set_ = MultiViewSet(views)
        jd = joint_diagonalize(set_)
        emb = jdl_embed(jd, set_, k=blocks)
        lab = consensus_labelling(emb, blocks, num_seeds=20, base_seed=0)
        assert dice(lab, Labelling(assignment=labels, k=blocks)) >= 0.95

    def test_shape_and_ascending_values(self):
        rng = np.random.default_rng(14)
        set_ = MultiViewSet([random_view(rng, 7) for _ in range(2)])
        jd = joint_diagonalize(set_, max_sweeps=20)
        emb = jdl_embed(jd, set_, k=3)
        assert emb.coords.shape == (7, 2)
        assert np.all(np.diff(emb.eigenvalues) >= 0)


def scalar_rotation(g11, g12, g22):
    """Scalar closed form of the pooled 2x2 Jacobi angle, one pair at a time."""
    half_diff = 0.5 * (g11 - g22)
    r = math.hypot(half_diff, g12)
    if r <= 0.0:
        return 1.0, 0.0
    lam = 0.5 * (g11 + g22) + r
    vx, vy = lam - g22, g12
    wx, wy = g12, lam - g11
    if math.hypot(wx, wy) > math.hypot(vx, vy):
        vx, vy = wx, wy
    norm = math.hypot(vx, vy)
    if norm <= 0.0:
        return 1.0, 0.0
    x, y = vx / norm, vy / norm
    if x < 0.0:
        x, y = -x, -y
    c = math.sqrt(0.5 * (1.0 + x))
    return c, y / (2.0 * c)


class TestRoundRobinOrdering:
    @pytest.mark.parametrize("n", [2, 3, 7, 48])
    def test_schedule_covers_each_pair_once_with_disjoint_steps(self, n):
        schedule = _round_robin_schedule(n)
        assert len(schedule) == (n - 1 if n % 2 == 0 else n)
        seen = []
        for p, q in schedule:
            indices = np.concatenate([p, q])
            assert len(set(indices.tolist())) == indices.size
            assert np.all(p < q)
            seen.extend(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(a, b) for a in range(n) for b in range(a + 1, n)]

    def test_vectorized_angle_matches_scalar_closed_form(self):
        rng = np.random.default_rng(15)
        h1 = rng.normal(size=(5, 400)) * rng.uniform(0.0, 3.0, size=400)
        h2 = rng.normal(size=(5, 400))
        h1[:, :3] = 0.0  # r = 0: identity branch
        h2[:, :3] = 0.0
        h1[:, 3] = h2[:, 3] = 0.0
        h1[0, 3] = 1.0  # h1 . h2 = 0 with g11 != g22
        h1[:, 4] = 0.0  # h1 = 0 and h2 < 0 in every view: theta = +pi/4
        h2[:, 4] = -np.abs(h2[:, 4]) - 0.1
        h1[:, 5] = [1.0, 1.0, 0.0, 0.0, 0.0]  # r = 0 with a nonzero form:
        h2[:, 5] = [1.0, -1.0, 0.0, 0.0, 0.0]  # g11 = g22 = 2, g12 = 0
        rot = _rotations(np.stack([h1, h2]), 0.0, np.empty((400, 2, 2)))
        c, s = rot[:, 0, 0], rot[:, 0, 1]
        np.testing.assert_array_equal(rot[:, 1, 1], c)
        np.testing.assert_array_equal(rot[:, 1, 0], -s)
        g11, g12, g22 = (h1 * h1).sum(0), (h1 * h2).sum(0), (h2 * h2).sum(0)
        ref = np.array([scalar_rotation(*g) for g in zip(g11, g12, g22)])
        assert np.abs(c - ref[:, 0]).max() <= 1e-15
        assert np.abs(s - ref[:, 1]).max() <= 1e-15
        assert np.all(c[[0, 1, 2, 5]] == 1.0) and np.all(s[[0, 1, 2, 5]] == 0.0)
        assert c[4] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert s[4] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_pair_below_skip_threshold_is_identity(self):
        forms = np.array([[[3.0, 3.0]], [[1e-3, 4.0]]])  # (2, m=1, h=2)
        rot = _rotations(forms, 1.0, np.empty((2, 2, 2)))  # pair 0's mass 0.5 * 1e-6 is below
        np.testing.assert_array_equal(rot[0], np.eye(2))
        assert rot[1, 0, 1] != 0.0

    def test_odd_n_commuting_family_fully_diagonalized(self):
        rng = np.random.default_rng(16)
        n, m = 47, 3
        shared = ortho_group.rvs(n, random_state=17)
        mats = [shared @ np.diag(rng.normal(size=n)) @ shared.T for _ in range(m)]
        initial = off_cost(mats, np.eye(n))
        jd = joint_diagonalize_matrices(mats)
        assert jd.converged
        assert off_cost(mats, jd.basis) <= 1e-8 * initial


class TestConvergedFlag:
    def test_single_matrix_families_stop_at_rounding_floor(self):
        # Diagonalized to rounding, many of these families' total less
        # diagonal mass comes out a few ulps below zero (seed 38, n = 3 ends
        # at -3.6e-15); a negative off-cost could not meet the stopping rule.
        for seed in range(400):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            rng.integers(1, 3)  # a view count drawn and unused: m stays 1
            jd = joint_diagonalize_matrices(random_symmetric_family(rng, 1, n), max_sweeps=30)
            assert jd.converged is True and jd.sweeps_run < 30, seed
            assert np.all(jd.off_history >= 0.0), seed

    def test_already_diagonal_converges_in_one_sweep(self):
        jd = joint_diagonalize_matrices([np.diag([3.0, 1.0, 2.0]), np.diag([0.5, -1.0, 4.0])])
        assert jd.converged is True
        assert jd.sweeps_run == 1

    def test_sweep_cap_reports_not_converged(self):
        rng = np.random.default_rng(9)
        jd = joint_diagonalize_matrices(random_symmetric_family(rng, 5, 10), max_sweeps=3)
        assert jd.converged is False
        assert jd.sweeps_run == 3

    @pytest.mark.parametrize("spec", [
        SyntheticSpec(n=48, k_true=4, m=16, intra_sd=0.4, inter_sd=0.4, rng_seed=3),
        SyntheticSpec(n=116, k_true=5, m=128, rng_seed=44),
    ], ids=["n48-sd0.4", "n116-first16"])
    def test_default_rule_stops_once_the_true_k_subspace_settles(self, spec):
        # Noisy families level off far above zero off-cost, so only a
        # relative rule fires; the embedding must match a 100-sweep run's.
        family, truth = synth_views(spec)
        set_, k = family.subset(range(16)), truth.k
        jd = joint_diagonalize(set_)
        assert jd.converged is True and jd.sweeps_run < 30
        full = joint_diagonalize(set_, tol=0.0, max_sweeps=100)
        emb, ref = jdl_embed(jd, set_, k), jdl_embed(full, set_, k)
        assert np.linalg.svd(emb.coords.T @ ref.coords, compute_uv=False).min() >= 0.9999
        lab = consensus_labelling(emb, k, num_seeds=100, base_seed=3)
        assert dice(lab, Labelling(assignment=truth.assignment, k=k)) == 1.0


def reference_sweeps(matrices, sweeps):
    """The jdl sweeps one pair at a time, in natural index order (the slow oracle).

    Each round-robin step takes the scalar closed-form angle of every pair
    from the matrices as they stand at the start of the step, skips the
    pairs below the threshold, and applies the others' Givens rotations
    to rows, columns and basis columns one pair after another.

    Returns:
        {sweep: (signed basis, off_history, mean_diagonal)} after each sweep run.
    """
    stack = np.array([0.5 * (a + a.T) for a in np.asarray(matrices, dtype=float)])
    n = stack.shape[1]
    basis = np.eye(n)
    off = off_oracle(stack, basis)
    history, states = [], {}
    for sweep in range(1, sweeps + 1):
        threshold = jdl.SKIP_FACTOR * off
        for p, q in _round_robin_schedule(n):
            rotations = []
            for a, b in zip(p.tolist(), q.tolist()):
                h1 = stack[:, a, a] - stack[:, b, b]
                h2 = 2.0 * stack[:, a, b]
                c, s = scalar_rotation(float(h1 @ h1), float(h1 @ h2), float(h2 @ h2))
                if 0.5 * float(h2 @ h2) >= threshold and abs(s) >= 1e-16:
                    rotations.append((a, b, c, s))
            for a, b, c, s in rotations:
                ra, rb = stack[:, a, :].copy(), stack[:, b, :].copy()
                stack[:, a, :], stack[:, b, :] = c * ra + s * rb, c * rb - s * ra
                ca, cb = stack[:, :, a].copy(), stack[:, :, b].copy()
                stack[:, :, a], stack[:, :, b] = c * ca + s * cb, c * cb - s * ca
                ba, bb = basis[:, a].copy(), basis[:, b].copy()
                basis[:, a], basis[:, b] = c * ba + s * bb, c * bb - s * ba
        new_off = sum(float((v * v).sum() - (np.diag(v) ** 2).sum()) for v in stack)
        history.append(new_off)
        states[sweep] = (fix_column_signs(basis.copy()), np.array(history),
                         np.diagonal(stack, axis1=1, axis2=2).mean(axis=0))
        reduction, off = off - new_off, new_off
        if reduction <= jdl.DEFAULT_TOL * new_off:
            break
    return states


class TestPairInterleavedKernel:
    @pytest.mark.parametrize("m", [1, 3, 16])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 45, 48])
    def test_matches_pairwise_reference(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        mats = random_symmetric_family(rng, m, n)
        states = reference_sweeps(mats, 10)
        # The off-cost is the total squared mass less the diagonal's, so it
        # is exact only to rounding of the total: a diagonalized family ends there.
        floor = 1e-13 * sum(float((a * a).sum()) for a in mats)
        for sweeps in (1, 3, 10):
            jd = joint_diagonalize_matrices(mats, max_sweeps=sweeps)
            basis, history, diag = states[min(sweeps, max(states))]
            assert jd.reorthonormalizations == 0
            assert jd.sweeps_run == history.size
            assert jd.basis.shape == (n, n) and jd.mean_diagonal.shape == (n,)
            np.testing.assert_allclose(jd.off_history, history, rtol=1e-10, atol=floor)
            np.testing.assert_allclose(jd.basis, basis, rtol=0, atol=1e-9)
            np.testing.assert_allclose(jd.mean_diagonal, diag, rtol=0, atol=1e-9)
            assert np.abs(jd.basis.T @ jd.basis - np.eye(n)).max() <= 1e-12

    def test_every_sweep_reorthonormalized(self, monkeypatch):
        monkeypatch.setattr(jdl, "ORTHO_DRIFT_TOL", -1.0)
        rng = np.random.default_rng(18)
        for n in (7, 8):
            mats = random_symmetric_family(rng, 3, n)
            jd = joint_diagonalize_matrices(mats, tol=0.0, max_sweeps=6)
            assert jd.reorthonormalizations == jd.sweeps_run == 6
            assert np.abs(jd.basis.T @ jd.basis - np.eye(n)).max() <= 1e-12
            assert off_cost(mats, jd.basis) == pytest.approx(jd.off_history[-1], rel=1e-9)
            assert np.all(np.diff(jd.off_history) <= 1e-10 * jd.off_history[0])
