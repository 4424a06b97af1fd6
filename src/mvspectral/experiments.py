"""Experiment drivers: eigengap inspection, consistency, timing, pipelines.

Randomness is controlled by one master seed.  Every consistency trial derives
its own generator from ``SeedSequence([master, group_size, trial])``, so any
single trial can be reproduced in isolation and results do not depend on
the order in which trials run.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .clustering import consensus_labelling, dice
from .errors import InsufficientViews, InvalidSpec, _is_int
from .io import RunReport
from .jdl import jdl_embed, joint_diagonalize
from .multiview import MultiViewSet, aasc_weights, embed, mvsc_weights, mvscw_weights

METHODS = ("mvsc", "mvscw", "aasc", "jdl")

DEFAULT_GROUP_SIZES = (4, 8, 16, 32, 64, 128)

# (get, set) thread-count symbols by OpenBLAS build: numpy's wheel, scipy's
# wheel, then plain 64-bit and 32-bit-integer builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass
class ExperimentConfig:
    """Settings shared by the experiment drivers."""

    method: str = "mvsc"
    k: int = 5
    group_sizes: tuple = DEFAULT_GROUP_SIZES
    trials: int = 100
    num_seeds: int = 100
    rng_seed: int = 0
    row_normalize: bool = False

    def validate(self, available_views: int) -> None:
        self._validate_run()
        _check_grid(self.group_sizes, self.trials)
        biggest = 2 * max(self.group_sizes)
        if biggest > available_views:
            raise InsufficientViews(
                f"group size {max(self.group_sizes)} needs {biggest} disjoint views, "
                f"only {available_views} available"
            )

    def _validate_run(self) -> None:
        """Check the settings of one embedding and consensus labelling."""
        check_method(self.method)
        if not (_is_int(self.k) and self.k >= 2):
            raise InvalidSpec(f"need an integer k >= 2, got {self.k!r}")
        if not (_is_int(self.num_seeds) and self.num_seeds >= 1):
            raise InvalidSpec(f"need an integer num_seeds >= 1, got {self.num_seeds!r}")
        if not (_is_int(self.rng_seed) and self.rng_seed >= 0):
            raise InvalidSpec(f"need an integer rng_seed >= 0, got {self.rng_seed!r}")


def check_method(method: str) -> None:
    """Reject a method name that is not in ``METHODS``.

    Raises:
        InvalidSpec: an unknown method.
    """
    if method not in METHODS:
        raise InvalidSpec(f"unknown method {method!r}; expected one of {METHODS}")


def _check_grid(group_sizes, trials: int) -> None:
    """Raise InvalidSpec unless trials and group sizes are integers of at least
    1, with at least one size and none repeated."""
    if not (_is_int(trials) and trials >= 1):
        raise InvalidSpec(f"need an integer number of trials >= 1, got {trials!r}")
    if not group_sizes:
        raise InvalidSpec("need at least one group size")
    if not all(_is_int(size) and size >= 1 for size in group_sizes):
        raise InvalidSpec(f"group sizes must be integers of at least 1, got {list(group_sizes)}")
    if len(set(group_sizes)) != len(group_sizes):
        raise InvalidSpec(f"group sizes must not repeat, got {list(group_sizes)}")


def compute_embedding(set_: MultiViewSet, method: str, k: int):
    """Group-wise embedding into ``k - 1`` dimensions for one method.

    The view weights of mvscw and aasc target ``k`` clusters; aasc's weight
    search ends on the embedding of its weights, which is returned as is.

    Returns:
        (Embedding, weight array or None for the joint-diagonalization method)

    Raises:
        InvalidSpec: an unknown method, or ``k`` not an integer in ``2..n``;
            both are checked before any eigensolve.
    """
    check_method(method)
    if not _is_int(k):
        raise InvalidSpec(f"k must be an integer, got {k!r}")
    if k < 2:
        raise InvalidSpec(f"k={k} is below 2")
    if k > set_.n:
        raise InvalidSpec(f"k={k} exceeds the n={set_.n} vertices")
    if method == "jdl":
        return jdl_embed(joint_diagonalize(set_), set_, k), None
    if method == "aasc":
        w, emb, _ = aasc_weights(set_, k)
        return emb, w.alpha
    w = mvsc_weights(set_.m) if method == "mvsc" else mvscw_weights(set_, k)
    return embed(set_, w, k), w.alpha


@dataclass
class EigengapReport:
    """Smallest nontrivial spectral values with consecutive gap ratios."""

    method: str
    values: list
    gap_ratios: list
    suggested_k: int


def eigengap_report(set_: MultiViewSet, method: str, k_max: int) -> EigengapReport:
    """Report the smallest ``k_max`` nontrivial values and their gap ratios.

    These are the eigenvalues of ``compute_embedding(set_, method, k_max + 1)``:
    for the aggregation methods, generalized eigenvalues of the weighted
    aggregate, with the mvscw and aasc weights targeting ``k_max + 1``
    clusters; for the joint diagonalization method, sorted mean-diagonal
    column scores.  ``suggested_k`` marks the largest consecutive ratio.

    Raises:
        InvalidSpec: an unknown method, or ``k_max`` not an integer in
            ``1..n-1``; both are checked before any eigensolve.
    """
    if not (_is_int(k_max) and 1 <= k_max <= set_.n - 1):
        raise InvalidSpec(f"k_max={k_max!r} is outside 1..{set_.n - 1} for n={set_.n} vertices")
    values = compute_embedding(set_, method, k_max + 1)[0].eigenvalues
    ratios = [float(values[i + 1] / values[i]) for i in range(len(values) - 1)]
    suggested = (int(np.argmax(ratios)) + 2) if ratios else 2
    return EigengapReport(
        method=method,
        values=[float(v) for v in values],
        gap_ratios=ratios,
        suggested_k=suggested,
    )


def _disjoint_pair(rng: np.random.Generator, m: int, gamma: int):
    order = rng.permutation(m)
    return order[:gamma].tolist(), order[gamma:2 * gamma].tolist()


def _trial_dice(set_: MultiViewSet, cfg: ExperimentConfig, gamma: int, trial: int) -> float:
    seq = np.random.SeedSequence([cfg.rng_seed, gamma, trial])
    sample_seed, seed_a, seed_b = seq.spawn(3)
    rng = np.random.default_rng(sample_seed)
    idx_a, idx_b = _disjoint_pair(rng, set_.m, gamma)
    labellings = []
    for indices, child in ((idx_a, seed_a), (idx_b, seed_b)):
        emb, _ = compute_embedding(set_.subset(indices), cfg.method, cfg.k)
        base = int(child.generate_state(1)[0] % (2 ** 31))
        labellings.append(
            consensus_labelling(emb, cfg.k, num_seeds=cfg.num_seeds, base_seed=base,
                                row_normalize=cfg.row_normalize)
        )
    return dice(labellings[0], labellings[1])


@dataclass
class ConsistencyResult:
    """Per-group-size Dice samples between disjoint view subsets."""

    method: str
    k: int
    trials: int
    group_sizes: list
    dice_values: dict
    summary: dict
    rng_seed: int


def consistency_experiment(set_: MultiViewSet, cfg: ExperimentConfig) -> ConsistencyResult:
    """Dice agreement between labellings from disjoint same-size subsets.

    For every group size and trial, two non-overlapping subsets are drawn,
    each is embedded and consensus-labelled, and the matched Dice coefficient
    is recorded.  Sub-seeding is keyed by (group size, trial index), so any
    trial can be reproduced alone.
    """
    cfg.validate(set_.m)
    values = {gamma: [float(_trial_dice(set_, cfg, gamma, t)) for t in range(cfg.trials)]
              for gamma in cfg.group_sizes}
    summary = {}
    for gamma, samples in values.items():
        lo, q1, med, q3, hi = np.percentile(samples, [0, 25, 50, 75, 100])
        summary[gamma] = {"min": float(lo), "q1": float(q1), "median": float(med),
                          "q3": float(q3), "max": float(hi)}
    return ConsistencyResult(
        method=cfg.method,
        k=cfg.k,
        trials=cfg.trials,
        group_sizes=list(cfg.group_sizes),
        dice_values=values,
        summary=summary,
        rng_seed=cfg.rng_seed,
    )


@dataclass
class TimingResult:
    """Mean and standard deviation of embedding wall-clock seconds.

    ``blas_threads_pinned`` records whether the BLAS pools ran on one thread.
    """

    k: int
    trials: int
    group_sizes: list
    methods: list
    seconds: dict
    blas_threads_pinned: bool


def _openblas_libraries() -> list:
    """Paths of the OpenBLAS shared libraries mapped into this process."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = {f[5].strip() for f in fields if len(f) == 6}
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


def _openblas_thread_controls() -> list:
    """``(get, set)`` thread-count functions of every loaded OpenBLAS build."""
    controls = []
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Pin BLAS pools to one thread for the block; yields whether it worked.

    Every loaded OpenBLAS build is set to one thread through ctypes and given
    back its previous count on exit.  If none is found (an MKL or BLIS
    build), a RuntimeWarning says so and the block runs unpinned.
    """
    controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        pinned = bool(controls) and all(get() == 1 for get, _ in controls)
        if not pinned:
            warnings.warn(
                "timing runs with unpinned BLAS threads: no loaded OpenBLAS build "
                "could be set to one thread",
                RuntimeWarning, stacklevel=4,
            )
        yield pinned
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def timing_experiment(set_: MultiViewSet, methods, k: int, group_sizes,
                      trials: int = 3) -> TimingResult:
    """Wall-clock embedding time per method and group size.

    The clock covers only the embedding computation (including any weight
    optimization the method requires); each run first builds a fresh set,
    its stack and degrees included.  Each cell runs one untimed warm-up
    followed by ``trials`` timed repetitions on the first ``m`` views.  Cells run
    strictly sequentially, with BLAS pools pinned to one thread for the
    duration so dispatch thresholds do not distort the size scaling.

    Every loaded OpenBLAS build is set to one thread through ctypes, and
    restored to its previous count afterwards.  On a build without OpenBLAS
    (MKL, BLIS) the cells run unpinned, a ``RuntimeWarning`` is emitted, and
    the result records ``blas_threads_pinned=False``.

    Raises:
        InvalidSpec: fewer than one trial, no group size, a size below 1, a
            repeated size, no method, a repeated method or an unknown one.
        InsufficientViews: a group size exceeds the number of views.
    """
    group_sizes = list(group_sizes)
    _check_grid(group_sizes, trials)
    if max(group_sizes) > set_.m:
        raise InsufficientViews(
            f"group size {max(group_sizes)} exceeds available views ({set_.m})"
        )
    methods = list(methods)
    if not methods:
        raise InvalidSpec("need at least one method")
    if len(set(methods)) != len(methods):
        raise InvalidSpec(f"methods must not repeat, got {methods}")
    for method in methods:
        check_method(method)
    seconds: dict = {method: {} for method in methods}
    with _one_blas_thread() as pinned:
        for method in methods:
            for m in group_sizes:
                chosen = set_.views[:m]
                samples = []
                for run in range(trials + 1):
                    fresh = MultiViewSet(chosen)
                    start = time.perf_counter()
                    compute_embedding(fresh, method, k)
                    elapsed = time.perf_counter() - start
                    if run > 0:
                        samples.append(elapsed)
                seconds[method][m] = {
                    "mean": float(np.mean(samples)),
                    "std": float(np.std(samples)),
                    "samples": [float(s) for s in samples],
                }
    return TimingResult(k=k, trials=trials, group_sizes=group_sizes,
                        methods=methods, seconds=seconds,
                        blas_threads_pinned=pinned)


def run_pipeline(set_: MultiViewSet, cfg: ExperimentConfig) -> RunReport:
    """Embed, consensus-label and package one end-to-end run.

    Raises:
        InvalidSpec: a bad method, k, ``num_seeds`` or ``rng_seed``, checked
            before any work.
    """
    cfg._validate_run()
    start = time.perf_counter()
    emb, weights = compute_embedding(set_, cfg.method, cfg.k)
    embedding_seconds = time.perf_counter() - start
    labelling = consensus_labelling(
        emb, cfg.k, num_seeds=cfg.num_seeds, base_seed=cfg.rng_seed,
        row_normalize=cfg.row_normalize,
    )
    return RunReport(
        method=cfg.method,
        k=cfg.k,
        assignment=labelling.assignment.tolist(),
        mode_support=[float(s) for s in labelling.mode_support],
        seeds_used=labelling.seeds_used,
        empty_clusters=list(labelling.empty_clusters),
        weights=None if weights is None else [float(w) for w in weights],
        eigenvalues=[float(v) for v in emb.eigenvalues],
        embedding_seconds=float(embedding_seconds),
        version=__version__,
        config={
            "method": cfg.method,
            "k": cfg.k,
            "num_seeds": cfg.num_seeds,
            "rng_seed": cfg.rng_seed,
            "row_normalize": cfg.row_normalize,
        },
    )
