"""Exception hierarchy shared across the library.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit statuses: 2 for input/parse problems, 3 for numerical
failures, 4 for configuration mistakes.
"""

from __future__ import annotations

import numpy as np

EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_CONFIG = 4


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer."""
    return isinstance(value, (int, np.integer))


class MVSpectralError(Exception):
    """Base class for all library errors."""

    exit_code = EXIT_NUMERICAL


class DimensionError(MVSpectralError):
    """Input array has an unusable shape (too few rows, not square, ...)."""

    exit_code = EXIT_INPUT


class DimensionMismatch(MVSpectralError):
    """Two inputs that must share a dimension do not."""

    exit_code = EXIT_INPUT


class ShapeMismatch(MVSpectralError):
    """Labels are not 1-d whole numbers in 1..k, or labellings differ in length or k.

    Also raised by ``dice`` for labellings with no vertex, and by
    ``best_label_permutation`` for a contingency table that is not square or
    holds an entry other than a whole number of at least 0.
    """

    exit_code = EXIT_INPUT


class LengthMismatch(MVSpectralError):
    """A weight vector does not match the number of views."""

    exit_code = EXIT_CONFIG


class ZeroVarianceColumn(MVSpectralError):
    """A time-series column is constant, so correlations are undefined.

    ``index`` counts from 0; the message counts from 1, as the CSV reader's do.
    """

    exit_code = EXIT_INPUT

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        super().__init__(f"column {index + 1} has zero variance{detail}")


class IsolatedVertex(MVSpectralError):
    """A zero-degree vertex blocks degree normalization."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        super().__init__(f"vertex {index} has zero degree{detail}")


class InvalidCluster(MVSpectralError):
    """A cluster id outside the partition's range was requested."""

    exit_code = EXIT_CONFIG


class ZeroVolumeCluster(MVSpectralError):
    """A cluster has zero total degree, so its cut ratio is undefined."""

    def __init__(self, cluster: int):
        self.cluster = cluster
        super().__init__(f"cluster {cluster} has zero volume")


class InvalidWeights(MVSpectralError, ValueError):
    """An affinity matrix has non-finite or negative entries, or a matrix
    family given to joint diagonalization has non-finite ones.

    Also a ``ValueError``, so callers that catch that keep working.
    """

    exit_code = EXIT_INPUT


class InvalidTimeSeries(MVSpectralError, ValueError):
    """A time series holds non-finite values.

    Also a ``ValueError``, so callers that catch that keep working.
    """

    exit_code = EXIT_INPUT


class InvalidView(MVSpectralError, TypeError):
    """An object that is not a ``ViewGraph`` is given as a view or a graph to solve.

    Also a ``TypeError``, so callers that catch that keep working.
    """

    exit_code = EXIT_INPUT


class NotOrthogonal(MVSpectralError, ValueError):
    """A basis required to be orthogonal is not, beyond tolerance.

    Also a ``ValueError``, so callers that catch that keep working.
    """

    exit_code = EXIT_INPUT


class InvalidWeightVector(MVSpectralError, ValueError):
    """View weights are not finite, are negative or do not sum to one.

    Also a ``ValueError``, so callers that catch that keep working.
    """

    exit_code = EXIT_CONFIG


class NotSymmetric(MVSpectralError):
    """A matrix required to be symmetric is not, beyond tolerance."""

    exit_code = EXIT_INPUT


class NoConvergence(MVSpectralError):
    """The eigensolver failed to converge."""


class DisconnectedGraph(MVSpectralError):
    """The graph has more than one connected component."""

    def __init__(self, zero_multiplicity: int, detail: str = ""):
        self.zero_multiplicity = zero_multiplicity
        super().__init__(
            f"graph is disconnected: {zero_multiplicity} zero eigenvalues{detail}"
        )


class NonFiniteDistances(MVSpectralError):
    """Squared distances between points to cluster overflow or are NaN."""


class DegenerateViewSpectrum(MVSpectralError):
    """A view's nontrivial eigenvalue sum is numerically zero."""

    def __init__(self, view: int):
        self.view = view
        super().__init__(
            f"view {view} has a degenerate spectrum (eigenvalue sum ~ 0); "
            "its quality weight would be unbounded"
        )


class TooFewPoints(MVSpectralError):
    """Fewer points than clusters requested."""

    exit_code = EXIT_CONFIG


class ParseError(MVSpectralError):
    """A data file could not be parsed."""

    exit_code = EXIT_INPUT

    def __init__(self, path, line: int | None = None, detail: str = ""):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {detail}" if detail else where)


class InsufficientViews(MVSpectralError):
    """Requested group sizes need more views than are available."""

    exit_code = EXIT_CONFIG


class InvalidSpec(MVSpectralError):
    """A setting is out of range: synthetic data, an experiment, or jdl's sweeps or tol."""

    exit_code = EXIT_CONFIG
