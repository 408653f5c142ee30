"""HCMS: a Conv1D + additive self-attention classifier for code-mixed tweets."""

from .layers import HCMSModel, ModelConfig
from .corpus import (CleaningConfig, TweetRecord, Vocabulary, clean, parse_conll,
                     serialize_conll)
from .metrics import MetricsReport, score
from .train import (AdamState, OptimizerConfig, TrainConfig, adam_step,
                    cross_entropy, load_checkpoint, save_checkpoint)

__all__ = [
    "HCMSModel", "ModelConfig", "CleaningConfig", "TweetRecord", "Vocabulary",
    "clean", "parse_conll", "serialize_conll",
    "MetricsReport", "score", "OptimizerConfig", "TrainConfig", "AdamState",
    "adam_step", "cross_entropy", "load_checkpoint", "save_checkpoint",
]

__version__ = "0.1.0"
