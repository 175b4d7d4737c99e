"""castnet: cross-attentive spatio-temporal fusion video classifier.

Self-contained: dense tensors with reverse-mode autodiff, the neural ops
built on them, a synthetic artifact-video benchmark, training/evaluation,
and a CLI. numpy is the only runtime dependency.
"""

from .errors import CastError
from .metrics import EvalReport, accuracy, evaluate, roc_auc
from .model import (
    CastConfig,
    CastParams,
    ModelOutput,
    forward,
    init_cast_params,
    load_checkpoint,
    save_checkpoint,
)
from .preprocess import FrameClip, read_clip, write_clip
from .synth import ArtifactSpec, ShiftSpec, SynthConfig, generate_clip, generate_dataset
from .tensor import (
    GradientMap,
    Tensor,
    backward,
    grad_check,
    no_grad,
)
from .train import AdamState, TrainConfig, adam_step, bce_with_logits, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ArtifactSpec",
    "CastConfig",
    "CastError",
    "CastParams",
    "EvalReport",
    "FrameClip",
    "GradientMap",
    "ModelOutput",
    "ShiftSpec",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "accuracy",
    "adam_step",
    "backward",
    "bce_with_logits",
    "evaluate",
    "forward",
    "generate_clip",
    "generate_dataset",
    "grad_check",
    "init_cast_params",
    "load_checkpoint",
    "no_grad",
    "read_clip",
    "roc_auc",
    "save_checkpoint",
    "train",
    "write_clip",
    "__version__",
]
