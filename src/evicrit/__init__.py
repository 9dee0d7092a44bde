"""Entropy-weighted, fuzzy-evidential multi-criteria evaluation.

Pipeline: expert pairwise matrices are aggregated by geometric mean and
gated on a consistency ratio; Shannon entropy turns the aggregated matrix
into criterion weights; expert scores are fuzzified into belief masses
over a five-grade frame; masses are discounted, fused within sliding
windows by the averaging rule, and ranked via the pignistic transform.
"""

from ._version import __version__
from .ahp import (
    DEFAULT_RI,
    ConsistencyReport,
    PairwiseMatrix,
    aggregate_geometric,
    consistency,
    principal_eigenvalue,
)
from .core import (
    EMPTY_SET,
    FRAME,
    FULL_SET,
    Bpa,
    Label,
    Subset,
    bpa_from_dict,
    bpa_to_dict,
    parse_label,
    subsets_of,
    unit_normalized,
    vacuous,
    validate_bpa,
)
from .entropy import (
    DecisionMatrix,
    EntropyTable,
    adjust_weights,
    build_table,
    column_normalize,
    divergence,
    entropy_values,
    entropy_weights,
)
from .evidence import (
    CombinationResult,
    RankingReport,
    average_bpas,
    conflict,
    dempster_combine,
    murphy_combine,
    pignistic,
    rank,
)
from .fuzzy import (
    GRADE_PEAKS,
    OVERLAP_ADJACENT,
    OVERLAP_MODES,
    OVERLAP_THETA,
    MembershipVector,
    membership,
    rating_label,
    to_bpa,
)
from .pipeline import (
    PipelineConfig,
    RunManifest,
    ingest_matrices,
    ingest_priors,
    ingest_scores,
    run_pipeline,
    windows,
)
from . import datasets, errors

__all__ = [
    "__version__",
    # core
    "Label", "FRAME", "Subset", "EMPTY_SET", "FULL_SET", "Bpa", "parse_label",
    "subsets_of", "vacuous", "unit_normalized", "validate_bpa", "bpa_to_dict",
    "bpa_from_dict",
    # ahp
    "PairwiseMatrix", "ConsistencyReport", "DEFAULT_RI", "aggregate_geometric",
    "principal_eigenvalue", "consistency",
    # entropy
    "DecisionMatrix", "EntropyTable", "column_normalize", "entropy_values",
    "divergence", "entropy_weights", "adjust_weights", "build_table",
    # fuzzy
    "MembershipVector", "GRADE_PEAKS", "OVERLAP_ADJACENT", "OVERLAP_THETA",
    "OVERLAP_MODES", "membership", "rating_label", "to_bpa",
    # evidence
    "CombinationResult", "RankingReport", "conflict", "dempster_combine",
    "average_bpas", "murphy_combine", "pignistic", "rank",
    # pipeline
    "PipelineConfig", "RunManifest", "run_pipeline", "windows",
    "ingest_scores", "ingest_matrices", "ingest_priors",
    # modules
    "datasets", "errors",
]
