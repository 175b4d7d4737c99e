"""Sectioned key=value experiment configuration.

Plain text, zero dependencies, and strict: unknown sections or keys are
rejected with the offending line number so CLI scripting failures are
actionable. Omitted keys fall back to the dataclass defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .model import CastConfig
from .synth import ArtifactSpec, ShiftSpec, SynthConfig
from .train import TrainConfig


@dataclass
class EvalSettings:
    manifest: Optional[str] = None
    mode: Optional[str] = None  # overrides the checkpoint's eval_logit_mode


@dataclass
class AblationSettings:
    # the default shift moves artifact strength and placement; a background
    # swap is available but is a much harsher domain change at desk scale
    seeds: tuple[int, ...] = (0, 1, 2)
    shift_amplitude_scale: float = 0.6
    shift_background: Optional[str] = None
    shift_region_jitter: float = 0.05

    def shift_spec(self) -> ShiftSpec:
        return ShiftSpec(amplitude_scale=self.shift_amplitude_scale,
                         background_style=self.shift_background,
                         region_jitter=self.shift_region_jitter)


@dataclass
class ExperimentConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    model: CastConfig = field(default_factory=CastConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    evaluation: EvalSettings = field(default_factory=EvalSettings)
    ablation: AblationSettings = field(default_factory=AblationSettings)
    out_dir: str = "runs"


def _parse_int(v): return int(v)
def _parse_float(v): return float(v)
def _parse_str(v): return v
def _parse_int_tuple(v): return tuple(int(x) for x in v.split(","))
def _parse_float_tuple(v): return tuple(float(x) for x in v.split(","))


def _parse_opt_str(v):
    return None if v.lower() in ("", "none") else v


_SYNTH_KEYS = {
    "n_train": _parse_int, "n_val": _parse_int, "n_test": _parse_int,
    "frames": _parse_int, "h": _parse_int, "w": _parse_int,
    "fake_fraction": _parse_float, "base_seed": _parse_int,
    "background_style": _parse_str,
    "artifact_kind": _parse_str, "artifact_amplitude": _parse_float,
    "artifact_region": _parse_float_tuple, "artifact_period": _parse_int,
}
_MODEL_KEYS = {
    "backbone_channels": _parse_int_tuple, "kernel": _parse_int,
    "stride": _parse_int, "d": _parse_int, "encoder_layers": _parse_int,
    "heads": _parse_int, "ffn_dim": _parse_int, "fusion_heads": _parse_int,
    "dropout": _parse_float, "clip_len": _parse_int, "variant": _parse_str,
    "eval_logit_mode": _parse_str,
}
_TRAINING_KEYS = {
    "lr": _parse_float, "weight_decay": _parse_float,
    "batch_size": _parse_int, "max_epochs": _parse_int,
    "dropout": _parse_float, "loss_scale": _parse_float, "seed": _parse_int,
}
_EVALUATION_KEYS = {"manifest": _parse_opt_str, "mode": _parse_opt_str}
_ABLATION_KEYS = {
    "seeds": _parse_int_tuple, "shift_amplitude_scale": _parse_float,
    "shift_background": _parse_opt_str, "shift_region_jitter": _parse_float,
}
_OUTPUT_KEYS = {"dir": _parse_str}

_SECTIONS = {
    "synth": _SYNTH_KEYS,
    "model": _MODEL_KEYS,
    "training": _TRAINING_KEYS,
    "evaluation": _EVALUATION_KEYS,
    "ablation": _ABLATION_KEYS,
    "output": _OUTPUT_KEYS,
}

_ARTIFACT_FIELD = {"artifact_kind": "kind", "artifact_amplitude": "amplitude",
                   "artifact_region": "region", "artifact_period": "temporal_period"}


def parse_experiment_text(text: str, origin: str = "<config>") -> ExperimentConfig:
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected key=value, got {raw!r}")
        if section is None:
            raise ConfigError(f"{origin}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        keys = _SECTIONS[section]
        if key not in keys:
            raise ConfigError(f"{origin}:{lineno}: unknown key '{key}' in "
                              f"section [{section}]")
        try:
            values[section][key] = keys[key](value)
        except (ValueError, TypeError):
            raise ConfigError(f"{origin}:{lineno}: bad value for key '{key}': "
                              f"{value!r}") from None

    synth_kv = values["synth"]
    artifact_kv = {dst: synth_kv.pop(src) for src, dst in _ARTIFACT_FIELD.items()
                   if src in synth_kv}
    artifact = replace(ArtifactSpec(), **artifact_kv)
    synth_cfg = replace(SynthConfig(artifact=artifact), **synth_kv)
    model_cfg = replace(CastConfig(), **values["model"])
    train_cfg = replace(TrainConfig(), **values["training"])
    eval_cfg = replace(EvalSettings(), **values["evaluation"])
    abl_cfg = replace(AblationSettings(), **values["ablation"])
    out_dir = values["output"].get("dir", "runs")

    cfg = ExperimentConfig(synth=synth_cfg, model=model_cfg, training=train_cfg,
                           evaluation=eval_cfg, ablation=abl_cfg, out_dir=out_dir)
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
    if cfg.evaluation.mode is not None and cfg.evaluation.mode not in ("clip", "frame_mean"):
        raise ConfigError(f"{origin}: evaluation mode must be clip or frame_mean")


def load_experiment_config(path) -> ExperimentConfig:
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as f:
        return parse_experiment_text(f.read(), origin=path)

