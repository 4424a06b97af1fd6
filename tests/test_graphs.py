import math
import warnings

import numpy as np
import pytest

from mvspectral import (
    DimensionError,
    InvalidCluster,
    InvalidWeights,
    IsolatedVertex,
    Partition,
    ViewGraph,
    ZeroVarianceColumn,
    ZeroVolumeCluster,
    cut_cost,
    degree,
    graph_from_timeseries,
    laplacian,
    ncut_cost,
    volume,
)
from mvspectral.graphs import FISHER_CLAMP, normalized_laplacian


def random_graph(rng, n, density=1.0):
    w = np.abs(rng.normal(size=(n, n)))
    if density < 1.0:
        w *= rng.random(size=(n, n)) < density
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return ViewGraph.from_weights(w)


def two_triangles():
    w = np.zeros((6, 6))
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        w[a, b] = w[b, a] = 1.0
    return ViewGraph.from_weights(w)


def unit_cycle(n=4):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return ViewGraph.from_weights(w)


def ncut_trace_oracle(g, p):
    """Independent route: tr(X^T L X (X^T D X)^-1) from the indicator matrix."""
    x = p.indicator()
    lap = np.diag(degree(g)) - g.weights
    dmat = np.diag(degree(g))
    return float(np.trace(x.T @ lap @ x @ np.linalg.inv(x.T @ dmat @ x)))


class TestViewGraph:
    def test_symmetrizes_with_warning(self):
        w = np.array([[0.0, 1.0], [1.5, 0.0]])
        with pytest.warns(UserWarning, match="symmetrizing"):
            g = ViewGraph.from_weights(w)
        assert g.weights[0, 1] == g.weights[1, 0] == 1.25

    def test_small_asymmetry_silent(self):
        w = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        g = ViewGraph.from_weights(w)
        assert g.weights[0, 1] == pytest.approx(1.0, abs=1e-11)

    def test_diagonal_zeroed(self):
        g = ViewGraph.from_weights(np.array([[3.0, 1.0], [1.0, 2.0]]))
        assert g.weights[0, 0] == 0.0 and g.weights[1, 1] == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ViewGraph.from_weights(np.array([[0.0, -0.1], [-0.1, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_invalid_entries_are_typed_input_errors(self, bad):
        w = np.array([[0.0, bad], [bad, 0.0]])
        with pytest.raises(InvalidWeights) as info:
            ViewGraph.from_weights(w)
        assert info.value.exit_code == 2

    def test_not_square(self):
        with pytest.raises(DimensionError):
            ViewGraph.from_weights(np.zeros((2, 3)))

    def test_immutable(self):
        g = ViewGraph.from_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            g.weights[0, 1] = 5.0


class TestGraphFromTimeseries:
    def test_anticorrelated_zeroed(self):
        t = np.arange(5.0)
        series = np.column_stack([t, -t])
        g = graph_from_timeseries(series)
        assert g.weights[0, 1] == 0.0

    def test_half_correlation_matches_analytic_atanh(self):
        # Exact r = 0.5 via orthonormal centered columns.
        u = np.array([1.0, -1.0, 0.0, 0.0])
        v = np.array([1.0, 1.0, -1.0, -1.0])
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        series = np.column_stack([u, 0.5 * u + math.sqrt(0.75) * v])
        g = graph_from_timeseries(series)
        assert g.weights[0, 1] == pytest.approx(0.5 * math.log(3.0), abs=1e-10)

    def test_duplicate_column_hits_clamp(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=8)
        series = np.column_stack([col, rng.normal(size=8), col])
        g = graph_from_timeseries(series)
        r = 1.0 - FISHER_CLAMP
        expected = 0.5 * math.log((1.0 + r) / (1.0 - r))
        assert g.weights[0, 2] == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_column_named(self):
        series = np.column_stack([np.arange(4.0), np.full(4, 2.5)])
        with pytest.raises(ZeroVarianceColumn) as info:
            graph_from_timeseries(series)
        assert info.value.index == 1

    def test_too_few_timepoints(self):
        with pytest.raises(DimensionError):
            graph_from_timeseries(np.ones((2, 3)))

    def test_affine_rescaling_invariance(self):
        rng = np.random.default_rng(7)
        series = rng.normal(size=(30, 6))
        g1 = graph_from_timeseries(series)
        g2 = graph_from_timeseries(3.7 * series + 1.2)
        np.testing.assert_allclose(g1.weights, g2.weights, atol=1e-10)

    def test_power_of_two_rescaling_is_exact(self):
        rng = np.random.default_rng(8)
        series = rng.normal(size=(30, 6))
        g1 = graph_from_timeseries(series)
        for scale in (2.0 ** 600, 2.0 ** -600):
            assert np.array_equal(graph_from_timeseries(scale * series).weights, g1.weights)

    def test_huge_column_does_not_overflow(self):
        # The moments of the first column overflowed np.corrcoef, its
        # correlations came out 0, and vertex 0 looked isolated.
        series = np.array([[1e200, 1.0, 0.3],
                           [-1e200, -1.0, 0.1],
                           [3e200, 3.0, -0.2],
                           [2.0, 0.5, 0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = graph_from_timeseries(series)
        reference = graph_from_timeseries(series * np.array([1e-200, 1.0, 1.0]))
        np.testing.assert_allclose(g.weights, reference.weights, rtol=1e-12)
        assert g.weights[0, 1] > 1.0


class TestDegree:
    def test_single_edge(self):
        g = ViewGraph.from_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_array_equal(degree(g), [1.0, 1.0])

    def test_unit_cycle(self):
        np.testing.assert_array_equal(degree(unit_cycle(4)), [2.0, 2.0, 2.0, 2.0])

    def test_random_matches_row_sum_oracle(self):
        g = random_graph(np.random.default_rng(1), 5)
        expected = [sum(g.weights[i, j] for j in range(5)) for i in range(5)]
        np.testing.assert_allclose(degree(g), expected, rtol=1e-12)


class TestLaplacian:
    def test_single_edge_combinatorial(self):
        g = ViewGraph.from_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lap = laplacian(g)
        np.testing.assert_array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
        assert not lap.flags.writeable

    def test_single_edge_normalized_equals_combinatorial(self):
        g = ViewGraph.from_weights(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(
            normalized_laplacian(g.weights, degree(g)),
            [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15,
        )

    def test_triangle_normalized_hand_expansion(self):
        w = np.ones((3, 3)) - np.eye(3)
        g = ViewGraph.from_weights(w)
        expected = np.eye(3) - 0.5 * (np.ones((3, 3)) - np.eye(3))
        np.testing.assert_allclose(
            normalized_laplacian(g.weights, degree(g)), expected, atol=1e-15
        )

    def test_combinatorial_row_sums_zero(self):
        g = random_graph(np.random.default_rng(3), 9)
        sums = laplacian(g).sum(axis=1)
        np.testing.assert_allclose(sums, 0.0, atol=1e-10)

    def test_annihilates_constants(self):
        g = random_graph(np.random.default_rng(4), 8)
        np.testing.assert_allclose(laplacian(g) @ np.ones(8), 0.0, atol=1e-10)

    def test_isolated_vertex_blocks_normalization(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = ViewGraph.from_weights(w)
        with pytest.raises(IsolatedVertex) as info:
            normalized_laplacian(g.weights, degree(g))
        assert info.value.index == 2

    def test_bytes_equal_plain_expressions(self):
        # The kernels build with fewer temporaries; every bit, signed zeros
        # included, must match diag(d) - W and the symmetrized 0.5 * (S + S.T).
        rng = np.random.default_rng(25)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            g = random_graph(rng, n, density=float(rng.uniform(0.2, 1.0)))
            d = degree(g)
            plain = np.diag(d) - g.weights
            assert laplacian(g).tobytes() == plain.tobytes()
            if np.any(d <= 0.0):
                continue
            inv_sqrt = 1.0 / np.sqrt(d)
            scaled = plain * inv_sqrt[:, None] * inv_sqrt[None, :]
            expected = 0.5 * (scaled + scaled.T)
            assert normalized_laplacian(g.weights, d).tobytes() == expected.tobytes()

    def test_stack_equals_per_view_calls(self):
        rng = np.random.default_rng(26)
        views = [random_graph(rng, 9, density=1.0) for _ in range(4)]
        stack = np.stack([g.weights for g in views])
        degrees = stack.sum(axis=2)
        together = normalized_laplacian(stack, degrees)
        assert together.shape == (4, 9, 9)
        for i, g in enumerate(views):
            alone = normalized_laplacian(g.weights, degree(g))
            assert together[i].tobytes() == alone.tobytes()
        stack[2, 5, :] = stack[2, :, 5] = 0.0
        stack[3, 1, :] = stack[3, :, 1] = 0.0
        with pytest.raises(IsolatedVertex, match=r"^vertex 5 has zero degree in view 2$") as info:
            normalized_laplacian(stack, stack.sum(axis=2))
        assert info.value.index == 5

    def test_zero_weights_stay_positive_zero(self):
        g = two_triangles()
        lap = laplacian(g)
        zeros = g.weights == 0.0
        np.fill_diagonal(zeros, False)
        assert not np.any(np.signbit(lap[zeros]))
        assert not np.any(np.signbit(normalized_laplacian(g.weights, degree(g))[zeros]))

    def test_psd_over_many_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 10))
            g = random_graph(rng, n, density=float(rng.uniform(0.3, 1.0)))
            values = np.linalg.eigvalsh(laplacian(g))
            assert values[0] >= -1e-8 * max(values[-1], 1.0)


class TestPartition:
    def test_requires_every_cluster(self):
        with pytest.raises(InvalidCluster):
            Partition(assignment=np.array([1, 1, 1]), k=2)

    def test_indicator_one_per_row(self):
        p = Partition(assignment=np.array([1, 2, 2, 1]), k=2)
        x = p.indicator()
        np.testing.assert_array_equal(x.sum(axis=1), 1.0)
        assert x.sum() == 4


class TestCutCost:
    def test_disconnected_triangles_zero(self):
        g = two_triangles()
        p = Partition(assignment=np.array([1, 1, 1, 2, 2, 2]), k=2)
        assert cut_cost(g, p, 1) == 0.0
        assert cut_cost(g, p, 2) == 0.0

    def test_cycle_split(self):
        p = Partition(assignment=np.array([1, 1, 2, 2]), k=2)
        assert cut_cost(unit_cycle(4), p, 1) == 2.0

    def test_random_matches_edge_enumeration(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 6)
        p = Partition(assignment=np.array([1, 2, 3, 1, 2, 3]), k=3)
        for cluster in (1, 2, 3):
            expected = sum(
                g.weights[i, j]
                for i in range(6) for j in range(6)
                if p.assignment[i] == cluster and p.assignment[j] != cluster
            )
            assert cut_cost(g, p, cluster) == pytest.approx(expected, rel=1e-12)

    def test_equals_laplacian_quadratic_form(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = random_graph(rng, n)
            labels = rng.integers(1, 3, size=n)
            labels[0], labels[1] = 1, 2
            p = Partition(assignment=labels, k=2)
            x = (p.assignment == 1).astype(float)
            lap = laplacian(g)
            assert cut_cost(g, p, 1) == pytest.approx(float(x @ lap @ x), rel=1e-10)

    def test_linearity_in_weights(self):
        rng = np.random.default_rng(9)
        w1 = random_graph(rng, 5).weights
        w2 = random_graph(rng, 5).weights
        a, b = 0.3, 1.7
        combined = ViewGraph.from_weights(a * w1 + b * w2)
        p = Partition(assignment=np.array([1, 2, 1, 2, 1]), k=2)
        lhs = cut_cost(combined, p, 1)
        rhs = a * cut_cost(ViewGraph.from_weights(w1), p, 1) \
            + b * cut_cost(ViewGraph.from_weights(w2), p, 1)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_cluster(self):
        p = Partition(assignment=np.array([1, 1, 2, 2]), k=2)
        with pytest.raises(InvalidCluster):
            cut_cost(unit_cycle(4), p, 3)


class TestNcutCost:
    def test_disconnected_triangles(self):
        p = Partition(assignment=np.array([1, 1, 1, 2, 2, 2]), k=2)
        assert ncut_cost(two_triangles(), p) == 0.0

    def test_cycle_hand_value(self):
        p = Partition(assignment=np.array([1, 1, 2, 2]), k=2)
        assert ncut_cost(unit_cycle(4), p) == pytest.approx(1.0, rel=1e-12)

    def test_ratio_equals_trace_form(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(2, min(n, 4) + 1))
            g = random_graph(rng, n)
            labels = rng.integers(1, k + 1, size=n)
            labels[:k] = np.arange(1, k + 1)
            p = Partition(assignment=labels, k=k)
            assert ncut_cost(g, p) == pytest.approx(ncut_trace_oracle(g, p), rel=1e-10)

    def test_exhaustive_bipartition_minimum(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 7)
        best = math.inf
        for mask in range(1, 2 ** 6):  # fix vertex 0 in cluster 1; skip empty sides
            labels = np.ones(7, dtype=int)
            for v in range(1, 7):
                if mask & (1 << (v - 1)):
                    labels[v] = 2
            p = Partition(assignment=labels, k=2)
            best = min(best, ncut_cost(g, p))
        # the same enumeration through the trace oracle agrees
        assert best == pytest.approx(
            min(
                ncut_trace_oracle(g, Partition(assignment=lab, k=2))
                for lab in _all_bipartitions(7)
            ),
            rel=1e-10,
        )

    def test_zero_volume_cluster(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = ViewGraph.from_weights(w)
        p = Partition(assignment=np.array([1, 1, 2]), k=2)
        with pytest.raises(ZeroVolumeCluster):
            ncut_cost(g, p)

    def test_volume_helper(self):
        g = unit_cycle(4)
        p = Partition(assignment=np.array([1, 1, 2, 2]), k=2)
        assert volume(g, p, 1) == 4.0


def _all_bipartitions(n):
    for mask in range(1, 2 ** (n - 1)):
        labels = np.ones(n, dtype=int)
        for v in range(1, n):
            if mask & (1 << (v - 1)):
                labels[v] = 2
        yield labels
