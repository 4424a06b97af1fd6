import numpy as np
import pytest

from mvspectral import (
    DisconnectedGraph,
    ExperimentConfig,
    InsufficientViews,
    InvalidSpec,
    Labelling,
    METHODS,
    MultiViewSet,
    SyntheticSpec,
    ViewGraph,
    compute_embedding,
    consistency_experiment,
    dice,
    eigengap_report,
    embed,
    generalized_eig,
    joint_diagonalize,
    run_pipeline,
    synth_views,
    timing_experiment,
)
from mvspectral import experiments, multiview


@pytest.fixture(scope="module")
def planted_small():
    spec = SyntheticSpec(n=40, k_true=4, m=12, intra_mean=1.0, intra_sd=0.15,
                         inter_mean=0.15, inter_sd=0.1, rng_seed=21)
    return synth_views(spec)


class TestEigengapReport:
    def test_planted_gap_at_true_k(self, planted_small):
        views, truth = planted_small
        report = eigengap_report(views, "mvsc", k_max=8)
        assert report.suggested_k == truth.k
        assert len(report.values) == 8
        assert len(report.gap_ratios) == 7

    def test_single_view_matches_eigen_module(self):
        rng = np.random.default_rng(0)
        w = np.abs(rng.normal(size=(9, 9))) + 0.05
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = ViewGraph.from_weights(w)
        report = eigengap_report(MultiViewSet([g]), "mvsc", k_max=5)
        sol = generalized_eig(g)
        np.testing.assert_allclose(report.values, sol.values[1:6], rtol=1e-12)

    def test_noise_free_blocks_surface_disconnection(self):
        spec = SyntheticSpec(n=12, k_true=3, m=2, intra_mean=1.0, intra_sd=0.0,
                             inter_mean=0.0, inter_sd=0.0)
        views, _ = synth_views(spec)
        with pytest.raises(DisconnectedGraph):
            eigengap_report(views, "mvsc", k_max=4)

    def test_jdl_variant_runs(self, planted_small):
        views, truth = planted_small
        report = eigengap_report(views, "jdl", k_max=6)
        scores = np.sort(joint_diagonalize(views).mean_diagonal)
        assert report.values == scores[1:7].tolist()
        assert report.suggested_k == truth.k

    def test_weighted_variants_run(self, planted_small):
        views, truth = planted_small
        for method in ("mvscw", "aasc"):
            report = eigengap_report(views, method, k_max=6)
            assert report.suggested_k == truth.k

    def test_aasc_reuses_its_final_embedding(self, monkeypatch):
        views, _ = synth_views(SyntheticSpec(n=40, k_true=3, m=6, rng_seed=5))
        calls = []
        solve = multiview.generalized_eig
        monkeypatch.setattr(multiview, "generalized_eig",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        w, _, _ = multiview.aasc_weights(views, 4)
        weight_solves = len(calls)
        calls.clear()
        report = eigengap_report(views, "aasc", k_max=3)
        assert len(calls) == weight_solves
        assert np.array_equal(report.values, embed(views, w, 4).eigenvalues)


class TestConsistencyExperiment:
    def test_forced_identical_subsets_give_dice_one(self, planted_small, monkeypatch):
        views, _ = planted_small
        cfg = ExperimentConfig(method="mvsc", k=4, group_sizes=(2,), trials=1,
                               num_seeds=5, rng_seed=0)
        monkeypatch.setattr(experiments, "_disjoint_pair", lambda rng, m, gamma: ([0, 1], [0, 1]))
        result = consistency_experiment(views, cfg)
        assert result.dice_values[2] == [1.0]

    def test_shapes_and_summary(self, planted_small):
        views, _ = planted_small
        cfg = ExperimentConfig(method="mvsc", k=4, group_sizes=(2, 4), trials=3,
                               num_seeds=5, rng_seed=1)
        result = consistency_experiment(views, cfg)
        assert sorted(result.dice_values) == [2, 4]
        assert all(len(v) == 3 for v in result.dice_values.values())
        for stats in result.summary.values():
            assert set(stats) == {"min", "q1", "median", "q3", "max"}
            assert stats["min"] <= stats["median"] <= stats["max"]

    def test_sampled_subsets_disjoint_with_expected_size(self, monkeypatch):
        seen = []
        sample = experiments._disjoint_pair

        def spy(rng, m, gamma):
            pair = sample(rng, m, gamma)
            seen.append(pair)
            return pair

        monkeypatch.setattr(experiments, "_disjoint_pair", spy)

        spec = SyntheticSpec(n=12, k_true=2, m=10, rng_seed=3)
        views, _ = synth_views(spec)
        cfg = ExperimentConfig(method="mvsc", k=2, group_sizes=(3,), trials=4,
                               num_seeds=3, rng_seed=2)
        consistency_experiment(views, cfg)
        assert len(seen) == 4
        for a, b in seen:
            assert len(a) == len(b) == 3
            assert not set(a) & set(b)

    def test_reproducible_and_schedule_independent(self, planted_small):
        views, _ = planted_small
        cfg = ExperimentConfig(method="mvsc", k=4, group_sizes=(2, 3), trials=3,
                               num_seeds=4, rng_seed=7)
        serial = consistency_experiment(views, cfg)
        again = consistency_experiment(views, cfg)
        assert serial.dice_values == again.dice_values

    def test_insufficient_views(self, planted_small):
        views, _ = planted_small
        cfg = ExperimentConfig(method="mvsc", k=4, group_sizes=(8,), trials=1)
        with pytest.raises(InsufficientViews):
            consistency_experiment(views, cfg)

    def test_bad_method(self, planted_small):
        views, _ = planted_small
        cfg = ExperimentConfig(method="pca", k=4, group_sizes=(2,), trials=1)
        with pytest.raises(InvalidSpec):
            consistency_experiment(views, cfg)


class TestTimingExperiment:
    def test_basic_cell_statistics(self, planted_small):
        views, _ = planted_small
        result = timing_experiment(views, ["mvsc", "mvscw"], k=3,
                                   group_sizes=[2, 4], trials=2)
        for method in ("mvsc", "mvscw"):
            for m in (2, 4):
                cell = result.seconds[method][m]
                assert cell["mean"] > 0.0
                assert cell["std"] >= 0.0
                assert len(cell["samples"]) == 2

    def test_group_size_capped(self, planted_small):
        views, _ = planted_small
        with pytest.raises(InsufficientViews):
            timing_experiment(views, ["mvsc"], k=3, group_sizes=[views.m + 1], trials=1)

    @staticmethod
    def _openblas_counts():
        return [get() for get, _ in experiments._openblas_thread_controls()]

    def test_pinned_where_openblas_loaded(self, planted_small):
        if not self._openblas_counts():
            pytest.skip("no OpenBLAS build is loaded")
        views, _ = planted_small
        result = timing_experiment(views, ["mvsc"], k=3, group_sizes=[2], trials=1)
        assert result.blas_threads_pinned is True

    def test_openblas_one_thread_inside_cells_and_restored(self, planted_small,
                                                            monkeypatch):
        before = self._openblas_counts()
        if not before:
            pytest.skip("no OpenBLAS build is loaded")
        seen = []
        real = experiments.compute_embedding

        def spy(*args, **kwargs):
            seen.append(self._openblas_counts())
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "compute_embedding", spy)
        views, _ = planted_small
        result = timing_experiment(views, ["mvsc"], k=3, group_sizes=[2, 4], trials=1)
        assert result.blas_threads_pinned is True
        assert seen and all(counts == [1] * len(before) for counts in seen)
        assert self._openblas_counts() == before

    def test_openblas_counts_restored_after_error(self, planted_small, monkeypatch):
        before = self._openblas_counts()
        if not before:
            pytest.skip("no OpenBLAS build is loaded")

        def boom(*args, **kwargs):
            raise RuntimeError("embedding failed")

        monkeypatch.setattr(experiments, "compute_embedding", boom)
        views, _ = planted_small
        with pytest.raises(RuntimeError, match="embedding failed"):
            timing_experiment(views, ["mvsc"], k=3, group_sizes=[2], trials=1)
        assert self._openblas_counts() == before

    def test_warns_and_records_unpinned_when_no_route(self, planted_small, monkeypatch):
        monkeypatch.setattr(experiments, "_openblas_libraries", lambda: [])
        views, _ = planted_small
        with pytest.warns(RuntimeWarning, match="unpinned BLAS threads"):
            result = timing_experiment(views, ["mvsc"], k=3, group_sizes=[2], trials=1)
        assert result.blas_threads_pinned is False
        assert result.seconds["mvsc"][2]["mean"] > 0.0


class TestRunPipeline:
    def test_mvscw_identical_views_uniform_weights(self):
        rng = np.random.default_rng(5)
        w = np.abs(rng.normal(size=(10, 10))) + 0.05
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        g = ViewGraph.from_weights(w)
        views = MultiViewSet([g] * 3)
        cfg = ExperimentConfig(method="mvscw", k=3, num_seeds=10, rng_seed=0)
        report = run_pipeline(views, cfg)
        np.testing.assert_allclose(report.weights, 1.0 / 3.0, atol=1e-9)
        assert report.method == "mvscw"
        assert report.seeds_used == 10
        assert report.embedding_seconds > 0

    def test_disconnected_single_view_error_path(self):
        w = np.zeros((6, 6))
        for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
            w[a, b] = w[b, a] = 1.0
        views = MultiViewSet([ViewGraph.from_weights(w)])
        cfg = ExperimentConfig(method="mvsc", k=2, num_seeds=5)
        with pytest.raises(DisconnectedGraph):
            run_pipeline(views, cfg)

    def test_jdl_and_mvsc_agree_on_identical_views(self, planted_small):
        views, truth = planted_small
        base = views.views[0]
        commuting = MultiViewSet([base] * 4)
        cfg_a = ExperimentConfig(method="mvsc", k=truth.k, num_seeds=20, rng_seed=1)
        cfg_b = ExperimentConfig(method="jdl", k=truth.k, num_seeds=20, rng_seed=1)
        run_a = run_pipeline(commuting, cfg_a)
        run_b = run_pipeline(commuting, cfg_b)
        a = Labelling(assignment=np.array(run_a.assignment), k=truth.k)
        b = Labelling(assignment=np.array(run_b.assignment), k=truth.k)
        assert dice(a, b) == 1.0

    @pytest.mark.parametrize("method", experiments.METHODS)
    @pytest.mark.parametrize("k, message", [(41, "k=41 exceeds the n=40 vertices"),
                                            (1, "k=1 is below 2")])
    def test_compute_embedding_k_out_of_range(self, planted_small, monkeypatch,
                                              method, k, message):
        views, _ = planted_small

        def no_solve(*args, **kwargs):
            raise AssertionError("solver reached before the k check")

        for name in ("embed", "mvscw_weights", "aasc_weights", "joint_diagonalize"):
            monkeypatch.setattr(experiments, name, no_solve)
        with pytest.raises(InvalidSpec, match=message) as info:
            compute_embedding(views, method, k)
        assert info.value.exit_code == 4

    def test_compute_embedding_weight_reporting(self, planted_small):
        views, truth = planted_small
        emb, weights = compute_embedding(views, "jdl", truth.k)
        assert weights is None
        emb, weights = compute_embedding(views, "aasc", truth.k)
        assert abs(weights.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("k_max, message", [
    (0, "k_max=0 is outside 1..39"),
    (40, "k_max=40 is outside 1..39"),
], ids=["k-max-zero", "k-max-n"])
@pytest.mark.parametrize("method", METHODS)
def test_eigengap_sizes_are_config_errors_before_any_solve(planted_small, monkeypatch, method,
                                                          k_max, message):
    views, _ = planted_small

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached before the size checks")

    for name in ("embed", "mvsc_weights", "mvscw_weights", "aasc_weights",
                 "joint_diagonalize"):
        monkeypatch.setattr(experiments, name, no_solve)
    with pytest.raises(InvalidSpec, match=message) as info:
        eigengap_report(views, method, k_max)
    assert info.value.exit_code == 4


@pytest.mark.parametrize("entry", [
    lambda views: compute_embedding(views, "pca", 4),
    lambda views: eigengap_report(views, "pca", k_max=4),
    lambda views: ExperimentConfig(method="pca").validate(views.m),
    lambda views: timing_experiment(views, ["mvsc", "pca"], k=4, group_sizes=[2], trials=1),
    lambda views: run_pipeline(views, ExperimentConfig(method="pca", k=4, num_seeds=2)),
], ids=["compute_embedding", "eigengap_report", "validate", "timing_experiment",
        "run_pipeline"])
def test_unknown_method_is_config_error(planted_small, monkeypatch, entry):
    views, _ = planted_small

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached before the method check")

    for name in ("embed", "mvsc_weights", "mvscw_weights", "aasc_weights",
                 "joint_diagonalize"):
        monkeypatch.setattr(experiments, name, no_solve)
    with pytest.raises(InvalidSpec, match="unknown method 'pca'") as info:
        entry(views)
    assert info.value.exit_code == 4
