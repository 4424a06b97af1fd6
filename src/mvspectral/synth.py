"""Synthetic planted-partition view generators.

Each view draws edge weights from block-dependent normal distributions
(within-block vs between-block), clips at zero and symmetrizes, giving a
family of noisy graphs over one known ground-truth community structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, InvalidWeights, _is_int
from .graphs import Partition, ViewGraph
from .multiview import MultiViewSet


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a planted-partition view family."""

    n: int
    k_true: int
    m: int
    intra_mean: float = 1.0
    intra_sd: float = 0.2
    inter_mean: float = 0.2
    inter_sd: float = 0.2
    block_sizes: tuple = ()
    rng_seed: int = 0

    def resolved_blocks(self) -> tuple:
        """Block sizes; defaults to a near-balanced split of n."""
        if self.block_sizes:
            return tuple(int(b) for b in self.block_sizes)
        base, extra = divmod(self.n, self.k_true)
        return tuple(base + (1 if i < extra else 0) for i in range(self.k_true))

    def validate(self) -> None:
        sizes = (self.n, self.k_true, self.m)
        if not all(map(_is_int, sizes)) or self.n < 2 or self.k_true < 1 or self.m < 1:
            raise InvalidSpec(f"bad sizes n={self.n!r} k={self.k_true!r} m={self.m!r}")
        if not (_is_int(self.rng_seed) and self.rng_seed >= 0):
            raise InvalidSpec(f"need an integer rng_seed >= 0, got {self.rng_seed!r}")
        moments = (self.intra_mean, self.intra_sd, self.inter_mean, self.inter_sd)
        if not np.isfinite(moments).all():
            raise InvalidSpec(f"means and standard deviations must be finite, got {moments}")
        if not self.intra_mean > self.inter_mean >= 0.0:
            raise InvalidSpec(
                f"need intra mean > inter mean >= 0, got {self.intra_mean} vs {self.inter_mean}"
            )
        if self.intra_sd < 0.0 or self.inter_sd < 0.0:
            raise InvalidSpec("standard deviations must be nonnegative")
        if not all(map(_is_int, self.block_sizes)):
            raise InvalidSpec(f"block sizes must be integers, got {self.block_sizes!r}")
        blocks = self.resolved_blocks()
        if len(blocks) != self.k_true or sum(blocks) != self.n or min(blocks) < 1:
            raise InvalidSpec(f"block sizes {blocks} do not partition {self.n} vertices")


def synth_views(spec: SyntheticSpec):
    """Generate a planted multi-view set and its ground-truth partition.

    Upper-triangle weights are drawn once per undirected pair from the
    within- or between-block distribution, clipped at zero, then mirrored.
    Each view, once checked, is written into one (m, n, n) array, which is
    then frozen: the family is held once, and the views are its slices.
    The set's ``stack`` is that array, and sets over consecutive views share
    it; subsets in any other order copy their views.  Any view keeps its
    whole family's array alive.

    Returns:
        (MultiViewSet, Partition)

    Raises:
        InvalidSpec: a bad spec, including moments whose draws overflow a
            view's weights or degrees.
    """
    spec.validate()
    blocks = spec.resolved_blocks()
    labels = np.repeat(np.arange(1, spec.k_true + 1), blocks)
    same_block = labels[:, None] == labels[None, :]
    means = np.where(same_block, spec.intra_mean, spec.inter_mean)
    sds = np.where(same_block, spec.intra_sd, spec.inter_sd)
    upper = np.triu_indices(spec.n, k=1)
    rng = np.random.default_rng(spec.rng_seed)
    stack = np.empty((spec.m, spec.n, spec.n))
    for i in range(spec.m):
        w = np.zeros((spec.n, spec.n))
        w[upper] = np.maximum(0.0, rng.normal(means[upper], sds[upper]))
        w = w + w.T
        # Holding each checked view until the next one is built keeps the
        # heap from shrinking between views, so their temporaries reuse
        # pages instead of faulting in fresh ones.
        try:
            view = ViewGraph.from_weights(w)
        except InvalidWeights as exc:
            raise InvalidSpec(f"synthetic view {i}: {exc}") from exc
        stack[i] = view.weights
    stack.setflags(write=False)
    views = MultiViewSet(ViewGraph(weights=weights) for weights in stack)
    return views, Partition(assignment=labels, k=spec.k_true)
