"""Desk-scale federated multi-view clustering simulator and library."""

from .config import ExperimentConfig
from .data import ClientShard, MultiViewDataset, assign_views, dirichlet_partition, generate_blobs
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    FedmvcError,
    NonFiniteError,
    TrainingError,
)
from .evaluation import MetricsReport, accuracy, adjusted_rand_index, evaluate_global, kmeans, normalized_mutual_info
from .federation import RoundReport, run_federation
from .model import Architecture, ModelParams, init_params

__all__ = [
    "Architecture",
    "ClientShard",
    "ConfigError",
    "DataFormatError",
    "DimensionError",
    "ExperimentConfig",
    "FedmvcError",
    "MetricsReport",
    "ModelParams",
    "MultiViewDataset",
    "NonFiniteError",
    "RoundReport",
    "TrainingError",
    "accuracy",
    "adjusted_rand_index",
    "assign_views",
    "dirichlet_partition",
    "evaluate_global",
    "generate_blobs",
    "init_params",
    "kmeans",
    "normalized_mutual_info",
    "run_federation",
]

__version__ = "0.1.0"
