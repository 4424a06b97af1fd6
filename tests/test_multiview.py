import numpy as np
import pytest
import scipy.linalg

from mvspectral import (
    DegenerateViewSpectrum,
    DimensionError,
    DisconnectedGraph,
    IsolatedVertex,
    LengthMismatch,
    MultiViewSet,
    Partition,
    ViewGraph,
    WeightVector,
    aasc_weights,
    aggregate,
    cut_cost,
    degree,
    embed,
    generalized_eig,
    laplacian,
    mvsc_weights,
    mvscw_weights,
    ncut_cost,
    smallest_nontrivial,
    volume,
)


def graph_of(weights):
    return ViewGraph.from_weights(np.asarray(weights, dtype=float))


def random_view(rng, n, lift=0.05):
    w = np.abs(rng.normal(size=(n, n))) + lift
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return graph_of(w)


def planted_view(rng, n, blocks, intra=1.0, inter=0.1, noise=0.02):
    labels = np.repeat(np.arange(blocks), n // blocks)
    w = np.where(labels[:, None] == labels[None, :], intra, inter)
    w = w + rng.uniform(0, noise, size=(n, n))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return graph_of(w)


def oracle_eigsum(view, k):
    """Independent route: scipy's generalized symmetric driver on (L, D)."""
    d = degree(view)
    lap = np.diag(d) - view.weights
    values = scipy.linalg.eigh(lap, np.diag(d), eigvals_only=True)
    return float(np.sort(values)[1:k].sum())


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([1.5, -0.5]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector(np.array([0.6, 0.6]))

    def test_mvsc_uniform(self):
        np.testing.assert_array_equal(mvsc_weights(1).alpha, [1.0])
        np.testing.assert_array_equal(mvsc_weights(4).alpha, [0.25] * 4)

    def test_mvsc_many_views_sums_to_one(self):
        w = mvsc_weights(291)
        assert np.all(w.alpha == w.alpha[0])
        assert abs(w.alpha.sum() - 1.0) <= 1e-12


class TestAggregate:
    def test_zero_plus_w_halves(self):
        rng = np.random.default_rng(0)
        g = random_view(rng, 5)
        zero = graph_of(np.zeros((5, 5)))
        agg = aggregate(MultiViewSet([zero, g]), WeightVector(np.array([0.5, 0.5])))
        np.testing.assert_allclose(agg.weights, g.weights / 2.0, rtol=1e-15)

    def test_identical_views_convexity(self):
        rng = np.random.default_rng(1)
        g = random_view(rng, 6)
        set_ = MultiViewSet([g, g, g])
        agg = aggregate(set_, WeightVector(np.array([0.2, 0.5, 0.3])))
        np.testing.assert_allclose(agg.weights, g.weights, rtol=1e-14)

    def test_three_views_elementwise_oracle(self):
        rng = np.random.default_rng(2)
        views = [random_view(rng, 4) for _ in range(3)]
        alpha = np.array([0.2, 0.3, 0.5])
        agg = aggregate(MultiViewSet(views), WeightVector(alpha))
        expected = sum(a * v.weights for a, v in zip(alpha, views))
        np.testing.assert_allclose(agg.weights, expected, rtol=1e-14)
        np.testing.assert_allclose(degree(agg), expected.sum(axis=1), rtol=1e-14)
        np.testing.assert_allclose(laplacian(agg).matrix,
                                   np.diag(expected.sum(axis=1)) - expected, rtol=1e-14)

    def test_length_mismatch(self):
        rng = np.random.default_rng(3)
        set_ = MultiViewSet([random_view(rng, 4)])
        with pytest.raises(LengthMismatch):
            aggregate(set_, WeightVector(np.array([0.5, 0.5])))

    def test_returns_read_only_view_graph(self):
        rng = np.random.default_rng(23)
        views = [random_view(rng, 5) for _ in range(2)]
        agg = aggregate(MultiViewSet(views), WeightVector(np.array([0.4, 0.6])))
        assert isinstance(agg, ViewGraph)
        assert agg.n == 5
        assert not agg.weights.flags.writeable
        with pytest.raises(ValueError):
            agg.weights[0, 1] = 1.0

    def test_degree_linearity(self):
        rng = np.random.default_rng(4)
        views = [random_view(rng, 5) for _ in range(3)]
        alpha = np.array([0.1, 0.6, 0.3])
        agg = aggregate(MultiViewSet(views), WeightVector(alpha))
        expected = sum(a * degree(v) for a, v in zip(alpha, views))
        np.testing.assert_allclose(degree(agg), expected, rtol=1e-10)


class TestCutVolumeLinearity:
    def test_cut_and_volume_linear_across_views(self):
        rng = np.random.default_rng(5)
        views = [random_view(rng, 6) for _ in range(4)]
        alpha = np.array([0.4, 0.3, 0.2, 0.1])
        agg = aggregate(MultiViewSet(views), WeightVector(alpha))
        combined = ViewGraph.from_weights(agg.weights)
        p = Partition(assignment=np.array([1, 2, 1, 2, 1, 2]), k=2)
        for cluster in (1, 2):
            cut_combined = cut_cost(combined, p, cluster)
            cut_sum = sum(a * cut_cost(v, p, cluster) for a, v in zip(alpha, views))
            assert cut_combined == pytest.approx(cut_sum, rel=1e-10)
            vol_combined = volume(combined, p, cluster)
            vol_sum = sum(a * volume(v, p, cluster) for a, v in zip(alpha, views))
            assert vol_combined == pytest.approx(vol_sum, rel=1e-10)

    def test_single_view_reduction_is_exact(self):
        rng = np.random.default_rng(6)
        g = random_view(rng, 7)
        agg = aggregate(MultiViewSet([g]), mvsc_weights(1))
        combined = ViewGraph.from_weights(agg.weights)
        for _ in range(10):
            labels = rng.integers(1, 3, size=7)
            labels[0], labels[1] = 1, 2
            p = Partition(assignment=labels, k=2)
            assert ncut_cost(combined, p) == ncut_cost(g, p)


class TestMvscwWeights:
    def test_identical_views_uniform(self):
        rng = np.random.default_rng(7)
        g = random_view(rng, 8)
        w = mvscw_weights(MultiViewSet([g, g, g, g]), k=3)
        np.testing.assert_allclose(w.alpha, 0.25, atol=1e-9)

    def test_matches_independent_eigsum_oracle(self):
        rng = np.random.default_rng(8)
        a = planted_view(rng, 12, blocks=3)
        b = random_view(rng, 12)
        k = 3
        s = np.array([oracle_eigsum(a, k), oracle_eigsum(b, k)])
        expected = (1.0 / s) / (1.0 / s).sum()
        w = mvscw_weights(MultiViewSet([a, b]), k=k)
        np.testing.assert_allclose(w.alpha, expected, atol=1e-8)
        assert w.alpha[0] > w.alpha[1]  # structured view partitions better

    def test_simplex_invariants(self):
        rng = np.random.default_rng(9)
        views = [random_view(rng, 6) for _ in range(5)]
        w = mvscw_weights(MultiViewSet(views), k=4)
        assert abs(w.alpha.sum() - 1.0) <= 1e-12
        assert np.all(w.alpha >= 0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(10)
        views = [random_view(rng, 6) for _ in range(4)]
        w = mvscw_weights(MultiViewSet(views), k=3)
        perm = [2, 0, 3, 1]
        w_perm = mvscw_weights(MultiViewSet([views[i] for i in perm]), k=3)
        np.testing.assert_allclose(w_perm.alpha, w.alpha[perm], rtol=1e-10)

    def test_scale_invariance_per_view(self):
        rng = np.random.default_rng(11)
        views = [random_view(rng, 6) for _ in range(3)]
        w = mvscw_weights(MultiViewSet(views), k=3)
        scaled = [views[0], ViewGraph.from_weights(7.3 * views[1].weights), views[2]]
        w_scaled = mvscw_weights(MultiViewSet(scaled), k=3)
        np.testing.assert_allclose(w_scaled.alpha, w.alpha, atol=1e-9)

    def test_disconnected_view_degenerate(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(DegenerateViewSpectrum):
            mvscw_weights(MultiViewSet([graph_of(w)]), k=2)

    def test_k_above_n(self):
        rng = np.random.default_rng(16)
        set_ = MultiViewSet([random_view(rng, 6) for _ in range(2)])
        with pytest.raises(DimensionError):
            mvscw_weights(set_, k=7)

    def test_isolated_vertex_names_its_view(self):
        rng = np.random.default_rng(24)
        w = random_view(rng, 5).weights.copy()
        w[3, :] = w[:, 3] = 0.0
        set_ = MultiViewSet([random_view(rng, 5), graph_of(w)])
        with pytest.raises(IsolatedVertex, match="in view 1") as info:
            mvscw_weights(set_, k=2)
        assert info.value.exit_code == 3
        assert str(info.value) == "vertex 3 has zero degree in view 1"


class TestEmbed:
    def test_single_view_equals_direct_pipeline(self):
        rng = np.random.default_rng(12)
        g = random_view(rng, 9)
        emb = embed(MultiViewSet([g]), mvsc_weights(1), k=4, method="mvsc")
        sol = generalized_eig(laplacian(g), degree(g))
        direct = smallest_nontrivial(sol, 3)
        np.testing.assert_allclose(emb.coords, direct.coords, atol=1e-12)
        np.testing.assert_allclose(emb.eigenvalues, direct.eigenvalues, atol=1e-12)
        assert emb.method == "mvsc"

    def test_identical_views_equal_single_view(self):
        rng = np.random.default_rng(13)
        g = random_view(rng, 8)
        multi = embed(MultiViewSet([g] * 5), mvsc_weights(5), k=3)
        single = embed(MultiViewSet([g]), mvsc_weights(1), k=3)
        np.testing.assert_allclose(multi.coords, single.coords, atol=1e-10)

    def test_eigenvalue_sum_equals_relaxed_cost(self):
        rng = np.random.default_rng(14)
        views = [random_view(rng, 10) for _ in range(3)]
        set_ = MultiViewSet(views)
        w = WeightVector(np.array([0.5, 0.25, 0.25]))
        emb = embed(set_, w, k=4)
        agg = aggregate(set_, w)
        y = emb.coords
        trace = np.trace(
            y.T @ laplacian(agg).matrix @ y @ np.linalg.inv(y.T @ (degree(agg)[:, None] * y))
        )
        assert trace == pytest.approx(float(emb.eigenvalues.sum()), rel=1e-8)

    def test_k_too_small(self):
        rng = np.random.default_rng(15)
        set_ = MultiViewSet([random_view(rng, 5)])
        with pytest.raises(DimensionError):
            embed(set_, mvsc_weights(1), k=1)

    def test_k_above_n(self):
        rng = np.random.default_rng(17)
        set_ = MultiViewSet([random_view(rng, 5)])
        with pytest.raises(DimensionError):
            embed(set_, mvsc_weights(1), k=6)

    def test_partial_solve_does_not_understate_components(self):
        w = np.zeros((9, 9))
        for base in (0, 3, 6):
            for a, b in ((0, 1), (1, 2), (0, 2)):
                w[base + a, base + b] = w[base + b, base + a] = 1.0
        with pytest.raises(DisconnectedGraph) as info:
            embed(MultiViewSet([graph_of(w)]), mvsc_weights(1), k=2)
        assert info.value.exit_code == 3
        assert str(info.value) == ("graph is disconnected: 2 zero eigenvalues or more "
                                   "(all 2 solved are zero)")


class TestAascWeights:
    def test_identical_views_keep_uniform_and_match_mvsc(self):
        rng = np.random.default_rng(16)
        g = random_view(rng, 8)
        set_ = MultiViewSet([g, g])
        w, emb, trace = aasc_weights(set_, k=3)
        np.testing.assert_allclose(w.alpha, 0.5, atol=1e-6)
        mvsc_emb = embed(set_, mvsc_weights(2), k=3)
        assert trace[-1] == pytest.approx(float(mvsc_emb.eigenvalues.sum()), rel=1e-8)

    def test_planted_view_outweighs_noise(self):
        rng = np.random.default_rng(17)
        structured = planted_view(rng, 12, blocks=3, intra=1.0, inter=0.02)
        noise = random_view(rng, 12)
        w, _, _ = aasc_weights(MultiViewSet([structured, noise]), k=3)
        assert w.alpha[0] > w.alpha[1]

    def test_trace_nonincreasing(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            views = [random_view(rng, 7) for _ in range(3)]
            _, _, trace = aasc_weights(MultiViewSet(views), k=3)
            diffs = np.diff(trace)
            assert np.all(diffs <= 1e-10 * max(trace[0], 1.0))

    def test_weights_stay_on_simplex_with_floor(self):
        rng = np.random.default_rng(19)
        views = [random_view(rng, 6) for _ in range(4)]
        w, _, _ = aasc_weights(MultiViewSet(views), k=3)
        assert np.all(w.alpha >= 1e-6 - 1e-15)
        assert abs(w.alpha.sum() - 1.0) <= 1e-12

    def test_embedding_equals_embed_of_its_weights(self):
        rng = np.random.default_rng(25)
        views = [planted_view(rng, 12, blocks=3)] + [random_view(rng, 12) for _ in range(2)]
        set_ = MultiViewSet(views)
        w, emb, _ = aasc_weights(set_, k=3)
        again = embed(set_, w, k=3, method="aasc")
        np.testing.assert_array_equal(emb.coords, again.coords)
        np.testing.assert_array_equal(emb.eigenvalues, again.eigenvalues)
        assert emb.method == again.method == "aasc"

    def test_needs_two_views(self):
        rng = np.random.default_rng(20)
        with pytest.raises(DimensionError):
            aasc_weights(MultiViewSet([random_view(rng, 5)]), k=2)


class TestMultiViewSet:
    def test_requires_consistent_vertex_count(self):
        rng = np.random.default_rng(21)
        with pytest.raises(DimensionError):
            MultiViewSet([random_view(rng, 4), random_view(rng, 5)])

    def test_subset_preserves_order(self):
        rng = np.random.default_rng(22)
        views = [random_view(rng, 4) for _ in range(5)]
        set_ = MultiViewSet(views)
        sub = set_.subset([3, 1])
        assert sub.views[0] is views[3]
        assert sub.views[1] is views[1]
