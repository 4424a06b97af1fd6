import math

import numpy as np
import pytest
import scipy.linalg

from mvspectral import (
    DimensionError,
    DisconnectedGraph,
    IsolatedVertex,
    Partition,
    ViewGraph,
    degree,
    InvalidView,
    generalized_eig,
    generalized_eigvals,
    laplacian,
    ncut_cost,
    smallest_nontrivial,
)
from mvspectral.eigen import fix_column_signs


def graph_of(weights):
    return ViewGraph.from_weights(np.asarray(weights, dtype=float))


def unit_cycle(n):
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return graph_of(w)


def random_connected(rng, n):
    w = np.abs(rng.normal(size=(n, n))) + 0.05
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return graph_of(w)


class TestGeneralizedEig:
    def test_single_edge(self):
        g = graph_of([[0, 1], [1, 0]])
        sol = generalized_eig(g)
        np.testing.assert_allclose(sol.values, [0.0, 2.0], atol=1e-14)
        first = sol.vectors[:, 0]
        assert first[0] == pytest.approx(first[1], rel=1e-12)

    def test_two_components_give_double_zero(self):
        w = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[a, b] = w[b, a] = 1.0
        g = graph_of(w)
        sol = generalized_eig(g)
        assert np.sum(sol.values < 1e-8 * sol.values[-1]) == 2

    def test_cycle_spectrum_oracle(self):
        g = unit_cycle(4)
        sol = generalized_eig(g)
        expected = sorted(1.0 - math.cos(2.0 * math.pi * j / 4) for j in range(4))
        np.testing.assert_allclose(sol.values, expected, atol=1e-12)

    def test_d_orthonormal(self):
        rng = np.random.default_rng(5)
        g = random_connected(rng, 11)
        d = degree(g)
        sol = generalized_eig(g)
        gram = sol.vectors.T @ (d[:, None] * sol.vectors)
        assert np.abs(gram - np.eye(11)).max() <= 1e-8

    def test_residual(self):
        rng = np.random.default_rng(6)
        g = random_connected(rng, 9)
        d = degree(g)
        lap = laplacian(g)
        sol = generalized_eig(g)
        resid = lap @ sol.vectors - (d[:, None] * sol.vectors) * sol.values[None, :]
        assert np.abs(resid).max() <= 1e-8 * max(sol.values[-1], 1.0)

    def test_back_substitution_consistency(self):
        rng = np.random.default_rng(7)
        g = random_connected(rng, 8)
        d = degree(g)
        lap = laplacian(g)
        sol = generalized_eig(g)
        inv_sqrt = 1.0 / np.sqrt(d)
        reduced = lap * inv_sqrt[:, None] * inv_sqrt[None, :]
        y = np.sqrt(d)[:, None] * sol.vectors
        resid = reduced @ y - y * sol.values[None, :]
        assert np.abs(resid).max() <= 1e-9 * max(sol.values[-1], 1.0)

    def test_spectral_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            g = random_connected(rng, int(rng.integers(3, 12)))
            values = generalized_eig(g).values
            assert values[0] >= -1e-9
            assert values[-1] <= 2.0 + 1e-9

    def test_partial_equals_leading_columns_of_full(self):
        rng = np.random.default_rng(14)
        for n in range(3, 13):
            g = random_connected(rng, n)
            full = generalized_eig(g)
            for count in range(1, n + 1):
                part = generalized_eig(g, count)
                assert part.values.shape == (count,)
                assert part.vectors.shape == (n, count)
                np.testing.assert_allclose(part.values, full.values[:count], rtol=0, atol=1e-12)
                np.testing.assert_allclose(part.vectors, full.vectors[:, :count],
                                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("count", [0, 6])
    def test_count_outside_one_to_n(self, count):
        g = random_connected(np.random.default_rng(15), 5)
        with pytest.raises(DimensionError):
            generalized_eig(g, count)

    def test_isolated_vertex(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        g = graph_of(w)
        with pytest.raises(IsolatedVertex):
            generalized_eig(g)

    def test_sign_convention(self):
        rng = np.random.default_rng(3)
        g = random_connected(rng, 8)
        for sol in (generalized_eig(g), generalized_eig(g, 3)):
            for col in sol.vectors.T:
                assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        g = random_connected(rng, 10)
        s1 = generalized_eig(g)
        s2 = generalized_eig(g)
        assert s1.vectors.tobytes() == s2.vectors.tobytes()


def sparse_connected(rng, n):
    """A random graph with many zero weights, kept connected by a path."""
    w = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < 0.3)
    w[np.arange(n - 1), np.arange(1, n)] += 0.5
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    return graph_of(w)


class TestGeneralizedEigvals:
    def test_same_bits_as_eigenpair_values(self):
        rng = np.random.default_rng(26)
        for n in (2, 3, 5, 8, 13, 30, 61):
            for g in (random_connected(rng, n), sparse_connected(rng, n)):
                for count in sorted({1, 2, min(3, n), n // 2 or 1, n - 1 or 1, n}):
                    values = generalized_eigvals(g, count)
                    assert values.shape == (count,)
                    assert values.tobytes() == generalized_eig(g, count).values.tobytes()

    def test_read_only(self):
        values = generalized_eigvals(random_connected(np.random.default_rng(27), 6), 3)
        assert not values.flags.writeable

    @pytest.mark.parametrize("make, count, error", [
        (lambda: np.eye(3), 2, InvalidView),
        (lambda: random_connected(np.random.default_rng(28), 5), 0, DimensionError),
        (lambda: random_connected(np.random.default_rng(28), 5), 6, DimensionError),
        (lambda: graph_of([[0, 1, 0], [1, 0, 0], [0, 0, 0]]), 2, IsolatedVertex),
    ], ids=["not-a-graph", "count-zero", "count-above-n", "isolated-vertex"])
    def test_same_errors_as_generalized_eig(self, make, count, error):
        with pytest.raises(error) as values_error:
            generalized_eigvals(make(), count)
        with pytest.raises(error) as pairs_error:
            generalized_eig(make(), count)
        assert str(values_error.value) == str(pairs_error.value)


def weighted_path():
    """The path 0-1-2-3 with weights 1, 2, 3.

    Its reduced pencil is already tridiagonal, so LAPACK's reduction leaves
    it as it is.  The spectrum is 0, 1 - 1/sqrt(5), 1 + 1/sqrt(5) and 2.
    """
    w = np.zeros((4, 4))
    w[[0, 1, 2], [1, 2, 3]] = [1.0, 2.0, 3.0]
    return graph_of(w + w.T)


class TestPinnedSolve:
    def test_path_values_and_vectors(self):
        g = weighted_path()
        full = generalized_eig(g)
        assert full.values.tolist() == [
            2.220446049250313e-15, 0.5527864045000423, 1.4472135954999592, 2.0000000000000004]
        assert full.vectors.tolist() == [
            [0.28867513459481325, 0.645497224367903, 0.6454972243679027, -0.28867513459481264],
            [0.2886751345948127, 0.28867513459481287, -0.2886751345948133, 0.2886751345948127],
            [0.28867513459481275, -0.1290994448735806, -0.12909944487358066, -0.288675134594813],
            [0.28867513459481314, -0.2886751345948128, 0.2886751345948126, 0.28867513459481303],
        ]
        partial = [3.931821209266025e-17, 0.5527864045000419, 1.447213595499958]
        assert generalized_eig(g, 3).values.tolist() == partial
        assert generalized_eigvals(g, 3).tolist() == partial
        assert generalized_eigvals(g, 2).tolist() == [-1.840917822584216e-16, 0.5527864045000419]

    def test_pencil_is_laplacian_over_degree(self):
        rng = np.random.default_rng(29)
        for g in (weighted_path(), random_connected(rng, 9), sparse_connected(rng, 14)):
            d = degree(g)
            inv_sqrt = 1.0 / np.sqrt(d)
            scaled = (np.diag(d) - g.weights) * inv_sqrt[:, None] * inv_sqrt[None, :]
            reduced = 0.5 * (scaled + scaled.T)
            values, vectors = scipy.linalg.eigh(reduced, subset_by_index=[0, 2])
            expected = fix_column_signs(vectors / np.sqrt(d)[:, None])
            assert generalized_eig(g, 3).values.tobytes() == values.tobytes()
            assert generalized_eig(g, 3).vectors.tobytes() == expected.tobytes()
            assert generalized_eigvals(g, 2).tobytes() == scipy.linalg.eigh(
                reduced, eigvals_only=True, subset_by_index=[0, 1]).tobytes()


class TestSmallestNontrivial:
    def test_cycle_single_column(self):
        g = unit_cycle(4)
        sol = generalized_eig(g)
        emb = smallest_nontrivial(sol, 1)
        np.testing.assert_allclose(emb.eigenvalues, [1.0], atol=1e-12)
        assert emb.coords.shape == (4, 1)

    def test_full_boundary(self):
        rng = np.random.default_rng(10)
        g = random_connected(rng, 7)
        sol = generalized_eig(g)
        emb = smallest_nontrivial(sol, 6)
        assert emb.coords.shape == (7, 6)
        np.testing.assert_array_equal(emb.eigenvalues, sol.values[1:])

    def test_count_out_of_range(self):
        rng = np.random.default_rng(11)
        g = random_connected(rng, 5)
        sol = generalized_eig(g)
        with pytest.raises(DimensionError):
            smallest_nontrivial(sol, 5)

    def test_disconnected_surfaces_error(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        g = graph_of(w)
        sol = generalized_eig(g)
        with pytest.raises(DisconnectedGraph) as info:
            smallest_nontrivial(sol, 1)
        assert info.value.zero_multiplicity == 2

    def test_planted_two_blocks_sign_split_matches_exhaustive_min(self):
        rng = np.random.default_rng(12)
        n = 8
        w = np.full((n, n), 0.05)
        w[:4, :4] = 1.0
        w[4:, 4:] = 1.0
        w += rng.uniform(0, 0.01, size=(n, n))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = graph_of(w)
        sol = generalized_eig(g)
        emb = smallest_nontrivial(sol, 1)
        labels = np.where(emb.coords[:, 0] > 0, 1, 2)

        best_labels, best_cost = None, math.inf
        for mask in range(1, 2 ** (n - 1)):
            cand = np.ones(n, dtype=int)
            for v in range(1, n):
                if mask & (1 << (v - 1)):
                    cand[v] = 2
            cost = ncut_cost(g, Partition(assignment=cand, k=2))
            if cost < best_cost:
                best_cost, best_labels = cost, cand
        agreement = max(
            np.mean(labels == best_labels),
            np.mean(labels == (3 - best_labels)),
        )
        assert agreement == 1.0

    def test_relaxed_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(4, 12))
            g = random_connected(rng, n)
            d = degree(g)
            lap = laplacian(g)
            sol = generalized_eig(g)
            count = int(rng.integers(1, n - 1))
            emb = smallest_nontrivial(sol, count)
            y = emb.coords
            trace = np.trace(
                y.T @ lap @ y @ np.linalg.inv(y.T @ (d[:, None] * y))
            )
            total = emb.eigenvalues.sum()
            assert trace == pytest.approx(total, rel=1e-8, abs=1e-10)
