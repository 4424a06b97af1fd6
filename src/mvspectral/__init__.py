"""Multi-view spectral clustering for collections of graphs on a shared
vertex set, with a joint-Laplacian-diagonalization baseline and the
evaluation harness (eigengap, consensus consistency, timing) around them."""

__version__ = "0.1.0"

from .errors import (
    DegenerateViewSpectrum,
    DimensionError,
    DimensionMismatch,
    DisconnectedGraph,
    InsufficientViews,
    InvalidCluster,
    InvalidKind,
    InvalidSpec,
    InvalidTimeSeries,
    InvalidView,
    InvalidWeightVector,
    InvalidWeights,
    IsolatedVertex,
    LengthMismatch,
    MVSpectralError,
    NoConvergence,
    NonFiniteDistances,
    NotOrthogonal,
    NotSymmetric,
    ParseError,
    ShapeMismatch,
    TooFewPoints,
    ZeroVarianceColumn,
    ZeroVolumeCluster,
)
from .graphs import (
    COMBINATORIAL,
    SYMMETRIC_NORMALIZED,
    Laplacian,
    Partition,
    ViewGraph,
    cut_cost,
    degree,
    graph_from_timeseries,
    laplacian,
    ncut_cost,
    volume,
)
from .eigen import (
    EigenPairs,
    Embedding,
    generalized_eig,
    smallest_nontrivial,
    sym_eig,
)
from .multiview import (
    MultiViewSet,
    WeightVector,
    aasc_weights,
    aggregate,
    embed,
    mvsc_weights,
    mvscw_weights,
)
from .jdl import (
    JointDiagonalizer,
    jdl_embed,
    joint_diagonalize,
    joint_diagonalize_matrices,
    off_cost,
)
from .clustering import (
    Labelling,
    best_label_permutation,
    consensus_labelling,
    contingency_table,
    dice,
    kmeans,
    match_permutation,
)
from .synth import SyntheticSpec, synth_views
from .io import LoadReport, RunReport, dump_json, load_views
from .experiments import (
    METHODS,
    ConsistencyResult,
    EigengapReport,
    ExperimentConfig,
    TimingResult,
    compute_embedding,
    consistency_experiment,
    eigengap_report,
    run_pipeline,
    timing_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
