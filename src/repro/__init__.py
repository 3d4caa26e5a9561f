"""repro — Similarity Search on Spatio-Textual Point Sets (EDBT 2016).

A full reimplementation of the STPSJoin query and its algorithm family
(S-PPJ-C / S-PPJ-B / S-PPJ-F / S-PPJ-D, TOPK-S-PPJ-F / -S / -P, threshold
auto-tuning) together with every substrate the paper builds on: the
PPJOIN/PPJOIN+ set-similarity joins, grid / R-tree / quadtree spatial
indexing, the Brinkhoff R-tree spatial join, the PPJ / PPJ-C / PPJ-R
spatio-textual point joins, and synthetic data generators calibrated to
the paper's Flickr / Twitter / GeoText corpora.

Quickstart::

    from repro import STDataset, stps_join, topk_stps_join

    dataset = STDataset.from_records([
        ("alice", 0.10, 0.20, {"coffee", "soho"}),
        ("bob",   0.1001, 0.2001, {"coffee", "espresso", "soho"}),
        ...
    ])
    pairs = stps_join(dataset, eps_loc=0.001, eps_doc=0.4, eps_user=0.4)
"""

from .core import (
    JOIN_ALGORITHMS,
    TOPK_ALGORITHMS,
    PairEvalStats,
    STDataset,
    STObject,
    STPSJoinQuery,
    TemporalDataset,
    TemporalQuery,
    TopKQuery,
    TuningResult,
    UserPair,
    naive_stps_join,
    naive_topk_stps_join,
    set_similarity,
    similar_users,
    stps_join,
    temporal_stps_join,
    topk_stps_join,
    tune_thresholds,
)
from .errors import DatasetValidationError, ReproError
from .obs import MetricsRegistry, Telemetry, Tracer
from .exec import (
    BackendUnavailableError,
    ChunkFailure,
    DeadlineExceeded,
    ExecutionError,
    ExecutionFailed,
    ExecutionPolicy,
    ExecutionReport,
    JoinExecutor,
)
from .datasets import (
    FLICKR_LIKE,
    GEOTEXT_LIKE,
    PRESETS,
    TWITTER_LIKE,
    DatasetSpec,
    dataset_stats,
    generate_dataset,
    load_tsv,
    preset,
    save_tsv,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "STObject",
    "STDataset",
    "STPSJoinQuery",
    "TopKQuery",
    "UserPair",
    "PairEvalStats",
    "stps_join",
    "topk_stps_join",
    "naive_stps_join",
    "naive_topk_stps_join",
    "set_similarity",
    "tune_thresholds",
    "TuningResult",
    "similar_users",
    "TemporalQuery",
    "TemporalDataset",
    "temporal_stps_join",
    "JoinExecutor",
    "ExecutionPolicy",
    "ExecutionReport",
    "ChunkFailure",
    "Telemetry",
    "MetricsRegistry",
    "Tracer",
    "ReproError",
    "DatasetValidationError",
    "ExecutionError",
    "BackendUnavailableError",
    "DeadlineExceeded",
    "ExecutionFailed",
    "JOIN_ALGORITHMS",
    "TOPK_ALGORITHMS",
    "DatasetSpec",
    "PRESETS",
    "FLICKR_LIKE",
    "TWITTER_LIKE",
    "GEOTEXT_LIKE",
    "preset",
    "generate_dataset",
    "dataset_stats",
    "save_tsv",
    "load_tsv",
]
