import ast
from pathlib import Path

import numpy as np
import pytest

import mvspectral
from mvspectral import (
    SYMMETRIC_NORMALIZED,
    InvalidKind,
    InvalidTimeSeries,
    InvalidView,
    InvalidWeightVector,
    MultiViewSet,
    MVSpectralError,
    NotOrthogonal,
    ViewGraph,
    WeightVector,
    degree,
    generalized_eig,
    graph_from_timeseries,
    laplacian,
    off_cost,
)

SOURCES = sorted(Path(mvspectral.__file__).parent.glob("*.py"))


def triangle():
    return ViewGraph.from_weights(np.ones((3, 3)))


def series_with_nan():
    ts = np.random.default_rng(0).normal(size=(6, 3))
    ts[2, 1] = np.nan
    return ts


@pytest.mark.parametrize("call, error, builtin, exit_code", [
    (lambda: graph_from_timeseries(series_with_nan()), InvalidTimeSeries, ValueError, 2),
    (lambda: laplacian(triangle(), kind="random-walk"), InvalidKind, ValueError, 4),
    (lambda: generalized_eig(laplacian(triangle(), kind=SYMMETRIC_NORMALIZED),
                             degree(triangle())), InvalidKind, ValueError, 4),
    (lambda: generalized_eig(laplacian(triangle()).matrix, degree(triangle())),
     InvalidKind, ValueError, 4),
    (lambda: MultiViewSet([triangle(), np.ones((3, 3))]), InvalidView, TypeError, 2),
    (lambda: WeightVector(np.array([1.5, -0.5])), InvalidWeightVector, ValueError, 4),
    (lambda: WeightVector(np.array([0.3, 0.3])), InvalidWeightVector, ValueError, 4),
    (lambda: off_cost([np.eye(3)], 2.0 * np.eye(3)), NotOrthogonal, ValueError, 2),
], ids=["timeseries-nonfinite", "laplacian-kind", "generalized-eig-kind",
        "generalized-eig-array", "view-type", "weights-negative", "weights-sum", "basis-not-orthogonal"])
def test_typed_error_and_exit_code(call, error, builtin, exit_code):
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, MVSpectralError)
    assert isinstance(info.value, builtin)
    assert info.value.exit_code == exit_code


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
