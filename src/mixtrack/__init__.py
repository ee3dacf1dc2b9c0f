"""A trainable single-object tracker on a numpy autodiff core.

Template and search-region tokens share one attention backbone, a corner
head regresses the box, a score head judges template quality, and the
tracking loop refreshes online templates from high-confidence frames.
"""

from .autodiff import Tape, Tensor
from .checkpoint import load_checkpoint, load_state, save_checkpoint, state_dict
from .config import RunConfig, load_run_config, parse_run_config
from .data import (
    Sequence,
    SyntheticConfig,
    generate_synthetic,
    load_sequence,
    precision,
    save_sequence,
    success_auc,
)
from .model import TrackModel, build_model, load_model
from .tracker import CropParams, Tracker, TrackerState
from .train import (
    AdamW,
    TrainConfig,
    make_training_pair,
    spm_accuracy,
    train_stage1,
    train_stage2_spm,
)

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "CropParams",
    "RunConfig",
    "Sequence",
    "SyntheticConfig",
    "Tape",
    "Tensor",
    "TrackModel",
    "Tracker",
    "TrackerState",
    "TrainConfig",
    "build_model",
    "generate_synthetic",
    "load_checkpoint",
    "load_model",
    "load_run_config",
    "load_sequence",
    "load_state",
    "make_training_pair",
    "parse_run_config",
    "precision",
    "save_checkpoint",
    "save_sequence",
    "spm_accuracy",
    "state_dict",
    "success_auc",
    "train_stage1",
    "train_stage2_spm",
    "__version__",
]
