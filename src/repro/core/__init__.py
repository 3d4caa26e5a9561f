"""Core contribution: the STPSJoin query, its algorithms and measures."""

from .api import JOIN_ALGORITHMS, TOPK_ALGORITHMS, stps_join, topk_stps_join
from .export import load_pairs, save_pairs
from .hausdorff import directed_hausdorff, hausdorff_distance, topk_hausdorff_pairs
from .knn import naive_similar_users, similar_users
from .temporal import (
    TemporalDataset,
    TemporalQuery,
    naive_temporal_stps_join,
    temporal_stps_join,
)
from .model import RawRecord, STDataset, STObject, UserId
from .naive import all_pair_scores, naive_stps_join, naive_topk_stps_join
from .pair_eval import PairEvalStats, join_object_lists, ppj_b_pair, ppj_c_pair
from .ppj_d import ppj_d_pair
from .query import STPSJoinQuery, TopKQuery, UserPair, pair_sort_key, pairs_to_dict
from .similarity import (
    matched_object_count,
    matched_objects,
    objects_match,
    set_similarity,
    spatial_distance_sq,
    text_similarity,
)
from .tuning import (
    TuningResult,
    auto_initial_thresholds,
    evaluate_pair,
    tune_thresholds,
)
from .validate import AlgorithmRun, ComparisonReport, compare_algorithms

__all__ = [
    "STObject",
    "STDataset",
    "UserId",
    "RawRecord",
    "STPSJoinQuery",
    "TopKQuery",
    "UserPair",
    "pairs_to_dict",
    "pair_sort_key",
    "text_similarity",
    "spatial_distance_sq",
    "objects_match",
    "matched_objects",
    "matched_object_count",
    "set_similarity",
    "naive_stps_join",
    "naive_topk_stps_join",
    "all_pair_scores",
    "PairEvalStats",
    "join_object_lists",
    "ppj_c_pair",
    "ppj_b_pair",
    "ppj_d_pair",
    "stps_join",
    "topk_stps_join",
    "JOIN_ALGORITHMS",
    "TOPK_ALGORITHMS",
    "tune_thresholds",
    "TuningResult",
    "evaluate_pair",
    "directed_hausdorff",
    "hausdorff_distance",
    "topk_hausdorff_pairs",
    "similar_users",
    "naive_similar_users",
    "TemporalQuery",
    "TemporalDataset",
    "temporal_stps_join",
    "naive_temporal_stps_join",
    "save_pairs",
    "load_pairs",
    "auto_initial_thresholds",
    "compare_algorithms",
    "ComparisonReport",
    "AlgorithmRun",
]
