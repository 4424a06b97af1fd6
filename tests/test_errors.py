import ast
from pathlib import Path

import numpy as np
import pytest

import mvspectral
from mvspectral import (
    DimensionError,
    DimensionMismatch,
    ExperimentConfig,
    InvalidCluster,
    InvalidSpec,
    InvalidTimeSeries,
    InvalidView,
    InvalidWeights,
    InvalidWeightVector,
    MultiViewSet,
    MVSpectralError,
    NotOrthogonal,
    Partition,
    ShapeMismatch,
    SyntheticSpec,
    TooFewPoints,
    ViewGraph,
    WeightVector,
    aasc_weights,
    best_label_permutation,
    compute_embedding,
    consensus_labelling,
    consistency_experiment,
    cut_cost,
    eigengap_report,
    embed,
    generalized_eig,
    generalized_eigvals,
    graph_from_timeseries,
    jdl_embed,
    joint_diagonalize,
    joint_diagonalize_matrices,
    kmeans,
    mvsc_weights,
    mvscw_weights,
    ncut_cost,
    off_cost,
    run_pipeline,
    smallest_nontrivial,
    synth_views,
    timing_experiment,
    volume,
)
from mvspectral import experiments
from mvspectral.cli import main
from mvspectral.errors import EXIT_CONFIG

SOURCES = sorted(Path(mvspectral.__file__).parent.glob("*.py"))


def triangle():
    return ViewGraph.from_weights(np.ones((3, 3)))


def consistency_on_triangles(k=2, group_sizes=(1,), trials=1, num_seeds=2, rng_seed=0):
    cfg = ExperimentConfig(k=k, group_sizes=group_sizes, trials=trials, num_seeds=num_seeds,
                           rng_seed=rng_seed)
    return consistency_experiment(MultiViewSet([triangle()] * 4), cfg)


def pipeline_on_triangles(**settings):
    return run_pipeline(MultiViewSet([triangle()] * 2), ExperimentConfig(k=2, **settings))


def triangles(m=2):
    return MultiViewSet([triangle()] * m)


def points():
    return np.arange(12.0).reshape(6, 2)


def series_with_nan():
    ts = np.random.default_rng(0).normal(size=(6, 3))
    ts[2, 1] = np.nan
    return ts


@pytest.mark.parametrize("call, error, builtin, exit_code", [
    (lambda: graph_from_timeseries(series_with_nan()), InvalidTimeSeries, ValueError, 2),
    (lambda: MultiViewSet([triangle(), np.ones((3, 3))]), InvalidView, TypeError, 2),
    (lambda: generalized_eig(np.eye(3)), InvalidView, TypeError, 2),
    (lambda: generalized_eigvals(np.eye(3), 2), InvalidView, TypeError, 2),
    (lambda: WeightVector(np.array([1.5, -0.5])), InvalidWeightVector, ValueError, 4),
    (lambda: WeightVector(np.array([0.3, 0.3])), InvalidWeightVector, ValueError, 4),
    (lambda: WeightVector(np.array([np.nan, 0.5, 0.5])), InvalidWeightVector, ValueError, 4),
    (lambda: off_cost([np.eye(3)], 2.0 * np.eye(3)), NotOrthogonal, ValueError, 2),
    (lambda: joint_diagonalize_matrices([]), DimensionMismatch, Exception, 2),
    (lambda: joint_diagonalize_matrices([np.eye(2), np.eye(3)]), DimensionMismatch, Exception, 2),
    (lambda: joint_diagonalize_matrices([np.eye(3), np.full((3, 3), np.nan)]),
     InvalidWeights, ValueError, 2),
    (lambda: joint_diagonalize_matrices([np.eye(3)], max_sweeps=0), InvalidSpec, Exception, 4),
    (lambda: joint_diagonalize_matrices([np.eye(3)], max_sweeps=-3), InvalidSpec, Exception, 4),
    (lambda: joint_diagonalize_matrices([np.eye(3)], tol=-1e-10), InvalidSpec, Exception, 4),
    (lambda: joint_diagonalize_matrices([np.eye(3)], tol=np.nan), InvalidSpec, Exception, 4),
    (lambda: joint_diagonalize_matrices([np.eye(3)], tol=np.inf), InvalidSpec, Exception, 4),
    (lambda: joint_diagonalize(MultiViewSet([triangle()]), max_sweeps=0),
     InvalidSpec, Exception, 4),
    (lambda: joint_diagonalize(MultiViewSet([triangle()]), tol=np.nan),
     InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=6, k_true=2, m=1, intra_sd=np.inf)),
     InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=6, k_true=2, m=1, intra_mean=np.inf)),
     InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=6, k_true=2, m=1, inter_sd=np.nan)),
     InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8, k_true=2, m=1, intra_sd=1e308)),
     InvalidSpec, Exception, 4),
    (lambda: ExperimentConfig(group_sizes=(1, 1)).validate(2), InvalidSpec, Exception, 4),
    (lambda: timing_experiment(MultiViewSet([triangle()]), ["mvsc"], k=2, group_sizes=[1, 1]),
     InvalidSpec, Exception, 4),
    (lambda: timing_experiment(MultiViewSet([triangle()]), [], k=2, group_sizes=[1]),
     InvalidSpec, Exception, 4),
    (lambda: timing_experiment(MultiViewSet([triangle()]), ["mvsc", "mvsc"], k=2,
                               group_sizes=[1]),
     InvalidSpec, Exception, 4),
    (lambda: consistency_on_triangles(trials=2.5), InvalidSpec, Exception, 4),
    (lambda: consistency_on_triangles(group_sizes=(2.0,)), InvalidSpec, Exception, 4),
    (lambda: consistency_on_triangles(num_seeds=2.5), InvalidSpec, Exception, 4),
    (lambda: consistency_on_triangles(k=2.5), InvalidSpec, Exception, 4),
    (lambda: timing_experiment(MultiViewSet([triangle()]), ["mvsc"], k=2, group_sizes=[1],
                               trials=1.5),
     InvalidSpec, Exception, 4),
    (lambda: timing_experiment(MultiViewSet([triangle()]), ["mvsc"], k=2, group_sizes=[1.0]),
     InvalidSpec, Exception, 4),
    (lambda: compute_embedding(MultiViewSet([triangle()]), "mvsc", 2.5),
     InvalidSpec, Exception, 4),
    (lambda: pipeline_on_triangles(num_seeds=2.5), InvalidSpec, Exception, 4),
    (lambda: pipeline_on_triangles(rng_seed=1.5), InvalidSpec, Exception, 4),
    (lambda: pipeline_on_triangles(rng_seed=-1), InvalidSpec, Exception, 4),
    (lambda: consistency_on_triangles(rng_seed=1.5), InvalidSpec, Exception, 4),
    (lambda: consistency_on_triangles(rng_seed=-1), InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8, k_true=2, m=2.5)), InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8, k_true=2.0, m=2)), InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8.0, k_true=2, m=2)), InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8, k_true=2, m=2, rng_seed=1.5)),
     InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8, k_true=2, m=2, rng_seed=-1)),
     InvalidSpec, Exception, 4),
    (lambda: synth_views(SyntheticSpec(n=8, k_true=3, m=1, block_sizes=(3.5, 3.0, 2.0))),
     InvalidSpec, Exception, 4),
    (lambda: cut_cost(triangle(), Partition(assignment=np.array([1, 2, 3]), k=3), 1.5),
     InvalidCluster, Exception, 4),
    (lambda: volume(triangle(), Partition(assignment=np.array([1, 2, 3]), k=3), 2.5),
     InvalidCluster, Exception, 4),
    (lambda: MultiViewSet([np.eye(3)]), InvalidView, TypeError, 2),
    (lambda: volume(triangle(), Partition(assignment=np.array([1, 2, 1, 2]), k=2), 1),
     DimensionError, Exception, 2),
    (lambda: mvsc_weights(2.5), DimensionError, Exception, 2),
    (lambda: mvscw_weights(triangles(), 2.5), DimensionError, Exception, 2),
    (lambda: embed(triangles(), mvsc_weights(2), 2.5), DimensionError, Exception, 2),
    (lambda: aasc_weights(triangles(), 2.5), DimensionError, Exception, 2),
    (lambda: jdl_embed(joint_diagonalize(triangles()), triangles(), 2.5),
     DimensionError, Exception, 2),
    (lambda: consensus_labelling(points(), 2.5, num_seeds=2), TooFewPoints, Exception, 4),
    (lambda: consensus_labelling(points(), 2, num_seeds=2.5), TooFewPoints, Exception, 4),
    (lambda: consensus_labelling(points(), 2, num_seeds=2, base_seed=-5),
     InvalidSpec, Exception, 4),
    (lambda: consensus_labelling(points(), 2, num_seeds=2, base_seed=0.5),
     InvalidSpec, Exception, 4),
    (lambda: kmeans(points(), 2, seed=-1), InvalidSpec, Exception, 4),
    (lambda: generalized_eig(triangle(), 2.5), DimensionError, Exception, 2),
    (lambda: generalized_eig(triangle(), np.float64(2.7)), DimensionError, Exception, 2),
    (lambda: generalized_eigvals(triangle(), 2.5), DimensionError, Exception, 2),
    (lambda: smallest_nontrivial(generalized_eig(triangle()), 1.5),
     DimensionError, Exception, 2),
    (lambda: eigengap_report(triangles(), "mvsc", "a"), InvalidSpec, Exception, 4),
    (lambda: kmeans(np.arange(6.0), 2, seed=0), TooFewPoints, Exception, 4),
    (lambda: Partition(assignment=np.array([[1, 2]]), k=2), DimensionError, Exception, 2),
    (lambda: graph_from_timeseries(np.arange(6.0)), DimensionError, Exception, 2),
    (lambda: graph_from_timeseries(np.arange(6.0).reshape(6, 1)), DimensionError, Exception, 2),
    (lambda: cut_cost(triangle(), Partition(assignment=np.array([1, 2, 1, 2]), k=2), 1),
     DimensionError, Exception, 2),
    (lambda: ncut_cost(triangle(), Partition(assignment=np.array([1, 2, 1, 2]), k=2)),
     DimensionError, Exception, 2),
    (lambda: MultiViewSet([]), DimensionError, Exception, 2),
    (lambda: WeightVector(np.array([[0.5, 0.5]])), DimensionError, Exception, 2),
    (lambda: off_cost([np.eye(3)], np.eye(2)), DimensionMismatch, Exception, 2),
    (lambda: off_cost([np.eye(2), np.eye(3)], np.eye(2)), DimensionMismatch, Exception, 2),
    (lambda: joint_diagonalize_matrices([np.eye(2), "x"]), DimensionMismatch, Exception, 2),
    (lambda: jdl_embed(joint_diagonalize(triangles()),
                       MultiViewSet([ViewGraph.from_weights(np.ones((4, 4)))]), 2),
     DimensionMismatch, Exception, 2),
    (lambda: best_label_permutation([[1.5, 0.0], [0.0, 2.7]]), ShapeMismatch, Exception, 2),
    (lambda: best_label_permutation([[1.0, np.nan], [0.0, 2.0]]), ShapeMismatch, Exception, 2),
    (lambda: best_label_permutation([[1.0, np.inf], [0.0, 2.0]]), ShapeMismatch, Exception, 2),
    (lambda: best_label_permutation([[1, -1], [0, 2]]), ShapeMismatch, Exception, 2),
    (lambda: best_label_permutation([["1", "0"], ["0", "2"]]), ShapeMismatch, Exception, 2),
], ids=["timeseries-nonfinite", "view-type", "eig-graph-type", "eigvals-graph-type",
        "weights-negative", "weights-sum",
        "weights-nan",
        "basis-not-orthogonal", "jdl-empty-family", "jdl-mixed-shapes", "jdl-nonfinite",
        "jdl-zero-sweeps", "jdl-negative-sweeps", "jdl-negative-tol", "jdl-nan-tol", "jdl-inf-tol",
        "jdl-graphs-zero-sweeps", "jdl-graphs-nan-tol", "synth-inf-sd", "synth-inf-mean",
        "synth-nan-sd", "synth-overflow-degrees", "consistency-repeated-size",
        "timing-repeated-size", "timing-no-methods", "timing-repeated-method",
        "consistency-fractional-trials", "consistency-float-size",
        "consistency-fractional-seeds", "consistency-fractional-k", "timing-fractional-trials",
        "timing-float-size", "embedding-fractional-k", "pipeline-fractional-seeds",
        "pipeline-fractional-rng-seed", "pipeline-negative-rng-seed",
        "consistency-fractional-rng-seed", "consistency-negative-rng-seed",
        "synth-fractional-m", "synth-float-k", "synth-float-n", "synth-fractional-rng-seed",
        "synth-negative-rng-seed", "synth-fractional-block-size", "cut-fractional-cluster",
        "volume-fractional-cluster", "set-first-view-type", "volume-partition-size",
        "mvsc-fractional-m", "mvscw-fractional-k", "embed-fractional-k", "aasc-fractional-k",
        "jdl-embed-fractional-k", "consensus-fractional-k", "consensus-fractional-seeds",
        "consensus-negative-base-seed", "consensus-fractional-base-seed",
        "kmeans-negative-seed", "eig-fractional-count", "eig-float64-count",
        "eigvals-fractional-count", "nontrivial-fractional-count", "eigengap-text-k-max",
        "kmeans-1d-points", "partition-2d",
        "timeseries-1d", "timeseries-one-region", "cut-partition-size", "ncut-partition-size",
        "set-no-views", "weights-2d", "off-cost-basis-shape", "off-cost-mixed-shapes",
        "jdl-non-numeric", "jdl-embed-other-n", "permutation-fractional-count",
        "permutation-nan-count", "permutation-inf-count", "permutation-negative-count",
        "permutation-text-count"])
def test_typed_error_and_exit_code(call, error, builtin, exit_code):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, MVSpectralError)
    assert isinstance(info.value, builtin)
    assert info.value.exit_code == exit_code


@pytest.mark.parametrize("call", [
    lambda: embed(triangles(), mvsc_weights(2), 2.5),
    lambda: aasc_weights(triangles(), 2.5),
    lambda: mvscw_weights(triangles(), 2.5),
], ids=["embed", "aasc", "mvscw"])
def test_fractional_k_is_named_as_such(call):
    # Not "count must be in 1..1, got 1.5" from the eigensolve.
    with pytest.raises(DimensionError, match=r"^need an integer k >= 2, got 2\.5$"):
        call()


@pytest.mark.parametrize("run, settings", [
    (pipeline_on_triangles, {"num_seeds": 2.5}),
    (pipeline_on_triangles, {"rng_seed": 1.5}),
    (consistency_on_triangles, {"rng_seed": 1.5}),
], ids=["pipeline-num-seeds", "pipeline-rng-seed", "consistency-rng-seed"])
def test_bad_seeds_are_rejected_before_any_embedding(run, settings, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("embedded before checking the seeds")

    monkeypatch.setattr(experiments, "compute_embedding", refuse)
    with pytest.raises(InvalidSpec):
        run(**settings)


@pytest.mark.parametrize("moments", ["1,inf", "inf,0.2"])
def test_synth_nonfinite_moments_are_config_errors(moments, tmp_path, capsys):
    code = main(["synth", "--n", "8", "--k-true", "2", "--m", "1", "--intra", moments,
                 "--outdir", str(tmp_path / "family"), "--output", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == InvalidSpec.exit_code == 4
    assert err.count("\n") == 1 and "must be finite" in err
    assert not (tmp_path / "family").exists()


@pytest.mark.parametrize("argv", [
    ["consistency", "--manifest", "m.json", "--group-sizes", "2,x"],
    ["synth", "--outdir", "family", "--intra", "1"],
    ["synth", "--outdir", "family", "--intra", "a,b"],
], ids=["int-list", "float-pair-one-value", "float-pair-text"])
def test_malformed_flag_value_is_config_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_CONFIG == 4
    assert "error: argument --" in capsys.readouterr().err


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_untyped_raise(source):
    untyped = []
    for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
            untyped.append(f"{source.name}:{node.lineno} raises {exc.id}")
    assert not untyped, "raise a typed MVSpectralError instead: " + "; ".join(untyped)
