"""Shared fixtures: a tiny synthetic dataset and matching model config."""

import numpy as np
import pytest

from castnet import model as M
from castnet import synth
from castnet import tensor as T


def tiny_model_cfg(**kw):
    defaults = dict(backbone_channels=(4, 8), d=8, encoder_layers=1, heads=2,
                    ffn_dim=16, fusion_heads=2, dropout=0.3, clip_len=4)
    defaults.update(kw)
    return M.CastConfig(**defaults)


def tiny_synth_cfg(**kw):
    defaults = dict(n_train=12, n_val=6, n_test=6, frames=4, h=8, w=8,
                    fake_fraction=0.5, base_seed=11,
                    artifact=synth.ArtifactSpec(amplitude=0.3))
    defaults.update(kw)
    return synth.SynthConfig(**defaults)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """One small flicker dataset shared across fast train/eval/CLI tests."""
    root = tmp_path_factory.mktemp("tiny_data")
    manifest = synth.generate_dataset(tiny_synth_cfg(), root)
    return {"dir": root, "manifest": manifest.manifest_path,
            "synth_cfg": tiny_synth_cfg(), "model_cfg": tiny_model_cfg()}


@pytest.fixture()
def nan_gradients(monkeypatch):
    """Every backward pass returns all-NaN gradients; losses stay finite."""
    real = T.backward

    def poisoned(loss):
        grads = real(loss)
        for g in grads.values():
            g.data[...] = np.nan
        return grads
    monkeypatch.setattr(T, "backward", poisoned)
