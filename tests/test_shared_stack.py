"""One read-only (m, n, n) array per view family, shared by views and sets.

``synth_views`` and ``load_views`` write each checked view into one frozen
array and hand out its slices; a set over consecutive slices takes its stack
as a slice of that array, and any other set copies.  The memory guards trace
numpy's buffers with ``tracemalloc``: a family must be held once.
"""

import json
import tracemalloc

import numpy as np
import pytest

from mvspectral import (
    ExperimentConfig,
    MultiViewSet,
    SyntheticSpec,
    ViewGraph,
    compute_embedding,
    consistency_experiment,
    dump_json,
    eigengap_report,
    load_views,
    synth_views,
)
from mvspectral.io import write_matrix_csv

# Bytes a family's array may be exceeded by: its degrees (m x n floats) and
# the set, view and partition objects.
SLACK = 64 * 1024


def family(n=23, k=3, m=9, seed=4):
    views, _ = synth_views(SyntheticSpec(n=n, k_true=k, m=m, intra_sd=0.5,
                                         inter_sd=0.5, rng_seed=seed))
    return views


def write_family(directory, views):
    """Write each view as an adjacency CSV and return the manifest path."""
    entries = []
    for i, view in enumerate(views.views):
        name = f"v{i}.csv"
        write_matrix_csv(view.weights, directory / name)
        entries.append({"path": name, "type": "adjacency"})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


def independent(views):
    """The same views, each with its own copy of its weights."""
    return MultiViewSet([ViewGraph(weights=np.array(v.weights)) for v in views.views])


def assert_is_family(views):
    stack = views.stack
    assert stack.shape == (views.m, views.n, views.n)
    assert not stack.flags.writeable and stack.flags.c_contiguous
    for i, view in enumerate(views.views):
        assert view.weights.base is stack
        assert np.shares_memory(view.weights, stack[i])
        assert not view.weights.flags.writeable


def traced(build):
    """(bytes ``build()`` left traced, its result), numpy buffers included."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        kept = build()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, kept


class TestSharing:
    def test_synth_views_are_slices_of_the_set_stack(self):
        assert_is_family(family())

    def test_load_views_are_slices_of_the_set_stack(self, tmp_path):
        views = family()
        loaded, _ = load_views(write_family(tmp_path, views))
        assert_is_family(loaded)
        np.testing.assert_array_equal(loaded.stack, views.stack)

    @pytest.mark.parametrize("start, stop", [(0, 9), (0, 4), (3, 8), (8, 9)])
    def test_consecutive_sets_share_the_stack(self, start, stop):
        views = family()
        for part in (MultiViewSet(views.views[start:stop]), views.subset(range(start, stop))):
            assert np.shares_memory(part.stack, views.stack)
            assert not part.stack.flags.writeable
            assert part.stack.tobytes() == views.stack[start:stop].tobytes()

    def test_stack_and_degrees_are_built_with_the_set(self):
        views = MultiViewSet(family().views[2:6])
        assert {"stack", "degrees"} <= vars(views).keys()
        assert not views.degrees.flags.writeable
        assert views.degrees.tobytes() == views.stack.sum(axis=2).tobytes()

    def test_set_stack_writes_are_refused(self):
        views = family()
        with pytest.raises(ValueError):
            views.stack[0, 0, 1] = 5.0
        with pytest.raises(ValueError):
            views.degrees[0, 0] = 5.0
        with pytest.raises(ValueError):
            views.views[0].weights[0, 1] = 5.0


class TestFallbackCopy:
    @pytest.mark.parametrize("make", [
        lambda v: v.subset([2, 1, 5]),
        lambda v: v.subset([4, 4]),
        lambda v: v.subset([0, 2, 4]),
        lambda v: MultiViewSet(v.views[3:5] + v.views[6:7]),
        independent,
        lambda v: MultiViewSet([ViewGraph(weights=w) for w in np.stack(
            [x.weights for x in v.views])]),
    ], ids=["reordered", "repeated", "strided", "gap", "independent", "writable-base"])
    def test_copy_equals_np_stack(self, make):
        views = family()
        part = make(views)
        expected = np.stack([v.weights for v in part.views])
        assert not np.shares_memory(part.stack, views.stack)
        assert not part.stack.flags.writeable
        assert part.stack.tobytes() == expected.tobytes()


class TestSameBits:
    @pytest.mark.parametrize("start, stop", [(0, 7), (1, 6)])
    def test_embeddings_and_eigengap(self, start, stop):
        shared = MultiViewSet(family(m=7).views[start:stop])
        copied = independent(shared)
        for method in ("mvsc", "mvscw", "aasc", "jdl"):
            a, wa = compute_embedding(shared, method, 3)
            b, wb = compute_embedding(copied, method, 3)
            assert a.coords.tobytes() == b.coords.tobytes()
            assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            assert (wa is None and wb is None) or wa.tobytes() == wb.tobytes()
            assert dump_json(eigengap_report(shared, method, 4)) == dump_json(
                eigengap_report(copied, method, 4))

    def test_consistency_experiment(self):
        shared = family(m=12)
        cfg = ExperimentConfig(method="mvscw", k=3, group_sizes=(2, 3), trials=3,
                               num_seeds=5, rng_seed=2)
        assert dump_json(consistency_experiment(shared, cfg)) == dump_json(
            consistency_experiment(independent(shared), cfg))


class TestMemory:
    N, M = 200, 16
    FAMILY_BYTES = M * N * N * 8

    def test_synth_family_held_once(self):
        spec = SyntheticSpec(n=self.N, k_true=4, m=self.M, rng_seed=1)
        used, views = traced(lambda: synth_views(spec)[0])
        assert used < 1.1 * self.FAMILY_BYTES + SLACK

    def test_loaded_family_held_once(self, tmp_path):
        manifest = write_family(tmp_path, family(n=self.N, k=4, m=self.M))
        used, views = traced(lambda: load_views(manifest)[0])
        assert used < 1.1 * self.FAMILY_BYTES + SLACK

    def test_prefix_stack_is_not_copied(self):
        views = family(n=self.N, k=4, m=self.M)
        used, prefix = traced(lambda: MultiViewSet(views.views[:self.M // 2]).stack)
        assert used < 1024
        assert np.shares_memory(prefix, views.stack)
