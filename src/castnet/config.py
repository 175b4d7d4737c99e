"""Sectioned key=value experiment configuration.

Plain text, zero dependencies, and strict: unknown sections or keys are
rejected with the offending line number so CLI scripting failures are
actionable. Each section is one field of ExperimentConfig and its keys are
that dataclass's fields (see kvtext); omitted keys keep their defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from . import kvtext
from .errors import ConfigError
from .model import CastConfig
from .synth import ShiftSpec, SynthConfig
from .train import TrainConfig


@dataclass
class EvalSettings:
    manifest: Optional[str] = None


@dataclass
class AblationSettings:
    # the default shift moves artifact strength and placement; a background
    # swap is available but is a much harsher domain change at desk scale
    seeds: tuple[int, ...] = (0, 1, 2)
    shift: ShiftSpec = field(
        default_factory=lambda: ShiftSpec(amplitude_scale=0.6, region_jitter=0.05))


@dataclass
class OutputSettings:
    dir: str = "runs"


@dataclass
class ExperimentConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    model: CastConfig = field(default_factory=CastConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalSettings = field(default_factory=EvalSettings)
    ablation: AblationSettings = field(default_factory=AblationSettings)
    output: OutputSettings = field(default_factory=OutputSettings)


def parse_experiment_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    cfg = kvtext.decode_sections(ExperimentConfig, text, origin)
    validate_experiment(cfg, origin)
    return cfg


def validate_experiment(cfg: ExperimentConfig, origin: str) -> None:
    try:
        cfg.synth.validate()
        cfg.model.validate()
        cfg.training.validate()
    except ConfigError as e:
        raise ConfigError(f"{origin}: {e}") from None
    if cfg.synth.frames != cfg.model.clip_len:
        raise ConfigError(f"{origin}: synth frames ({cfg.synth.frames}) must "
                          f"equal model clip_len ({cfg.model.clip_len})")


def load_experiment_config(path) -> ExperimentConfig:
    path = os.fspath(path)
    with open(path, "rb") as f:
        text = kvtext.decode_utf8(f.read(), f"config {path}", ConfigError)
    return parse_experiment_text(text, origin=path)
