"""Frequency-structure analysis of link streams.

A link stream is represented as a T x M matrix (times by directed
relations). The package provides a Haar-style orthonormal graph basis built
on a recursive partition of the relation space, the unitary DFT along time,
the joint decomposition C = conj(Psi).T L Phi.T, combined frequency and
structural filters, backbone extraction, embeddings and regularity metrics,
plus synthetic generators and Monte-Carlo oracles for the supporting
identities.
"""

__version__ = "0.1.0"

from .graphbasis import (
    GraphBasis,
    GraphCoefficients,
    analyze,
    detail_filter,
    edit_distance_spectrum,
    graph_regularity,
    motif_counts,
    structural_filter_graph,
    synthesize,
)
from .partition import (
    PartitionTree,
    VertexSplit,
    morton_index,
    partition_bfs,
    partition_svd,
)
from .spectra import (
    CoefficientMatrix,
    JointFilter,
    KeepRule,
    apply_joint_filter,
    backbone,
    backbone_from,
    decompose,
    default_basis,
    freq_relational,
    reconstruct,
    regularity,
    relaxed_time_regularity,
    time_structure,
)
from .stream import (
    GraphSlice,
    LinkStreamMatrix,
    RelationSpace,
    active_space,
    full_space,
    graph_dist,
    graph_edit,
    restrict_stream,
    slice_from_edges,
    stream_from_slices,
)
from .timebasis import (
    FourierBasis,
    FrequencyFilter,
    aggregate,
    aggregation_operator,
    apply_frequency_filter,
    time_diff_operator,
)

__all__ = [
    # graphbasis
    "GraphBasis", "GraphCoefficients", "analyze", "detail_filter", "edit_distance_spectrum",
    "graph_regularity", "motif_counts", "structural_filter_graph", "synthesize",
    # partition
    "PartitionTree", "VertexSplit", "morton_index", "partition_bfs", "partition_svd",
    # spectra
    "CoefficientMatrix", "JointFilter", "KeepRule", "apply_joint_filter", "backbone",
    "backbone_from", "decompose", "default_basis", "freq_relational", "reconstruct", "regularity",
    "relaxed_time_regularity", "time_structure",
    # stream
    "GraphSlice", "LinkStreamMatrix", "RelationSpace", "active_space", "full_space",
    "graph_dist", "graph_edit", "restrict_stream", "slice_from_edges",
    "stream_from_slices",
    # timebasis
    "FourierBasis", "FrequencyFilter", "aggregate", "aggregation_operator",
    "apply_frequency_filter", "time_diff_operator",
]
