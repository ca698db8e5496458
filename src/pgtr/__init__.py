"""Position-aware graph transformer recommender."""

from .data import (
    BipartiteGraph,
    DataError,
    InteractionDataset,
    NoiseSpec,
    SplitSpec,
    build_graph,
    inject_noise,
    load_interactions,
    save_interactions,
    split_by_ratio,
)
from .model import (
    ModelState,
    PGTRConfig,
    count_added_parameters,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .train import (
    RankingMetrics,
    TrainConfig,
    evaluate,
    ranking_metrics,
    train,
)

__all__ = [
    "BipartiteGraph",
    "DataError",
    "InteractionDataset",
    "NoiseSpec",
    "SplitSpec",
    "build_graph",
    "inject_noise",
    "load_interactions",
    "save_interactions",
    "split_by_ratio",
    "ModelState",
    "PGTRConfig",
    "count_added_parameters",
    "forward",
    "init_model",
    "load_checkpoint",
    "save_checkpoint",
    "RankingMetrics",
    "TrainConfig",
    "evaluate",
    "ranking_metrics",
    "train",
]

__version__ = "0.1.0"
