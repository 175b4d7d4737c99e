"""The key=value codec: keys from the dataclass fields, types from defaults."""

import pytest

from castnet import kvtext
from castnet.config import AblationSettings, EvalSettings, parse_experiment_text
from castnet.errors import ConfigError, FormatError
from castnet.model import CastConfig
from castnet.synth import ArtifactSpec, ShiftSpec, SynthConfig
from castnet.train import TrainConfig


@pytest.mark.parametrize("obj", [
    SynthConfig(n_train=3, fake_fraction=0.1 + 0.2, background_style="blotchy",
                artifact=ArtifactSpec(kind="warp", region=(0.0, 0.1, 0.5, 1.0), period=5)),
    TrainConfig(lr=3e-4, loss_scale=1024.0, seed=-4),
    AblationSettings(seeds=(7,), shift=ShiftSpec(background="blotchy")),
    AblationSettings(shift=ShiftSpec(background=None)),
    EvalSettings(manifest="a b/c.tsv"),
], ids=["synth", "training", "ablation_str", "ablation_none", "evaluation"])
def test_round_trip(obj):
    assert kvtext.decode(type(obj), kvtext.encode(obj), "<t>") == obj


def test_nested_fields_flatten_to_prefixed_keys():
    text = kvtext.encode(AblationSettings())
    assert text == ("seeds=0,1,2\nshift_amplitude_scale=0.6\nshift_background=none\n"
                    "shift_region_jitter=0.05\n")


@pytest.mark.parametrize("value", ["", "none", "None"])
def test_optional_string_reads_none(value):
    assert kvtext.decode(EvalSettings, f"manifest={value}\n", "<t>").manifest is None


@pytest.mark.parametrize("text,message", [
    ("artifact=1\n", r"<t>:1: unknown key 'artifact'"),
    ("n_train=4\nartifact_region=0,0,1\nfake_fraction=x\n", r"<t>:3: bad value for key 'fake_fraction'"),
    ("[synth]\n", r"<t>:1: expected key=value"),
])
def test_errors_name_line_and_key(text, message):
    with pytest.raises(ConfigError, match=message):
        kvtext.decode(SynthConfig, text, "<t>")


@pytest.mark.parametrize("line", ["fake_fraction=nan", "fake_fraction=inf",
                                  "fake_fraction=-inf", "fake_fraction=1e999",
                                  "artifact_amplitude=NaN", "artifact_region=0,0.1,inf,1",
                                  "artifact_region=nan,0,1,1"])
def test_non_finite_float_names_key(line):
    key = line.split("=")[0]
    with pytest.raises(ConfigError, match=f"<t>:1: bad value for key '{key}'"):
        kvtext.decode(SynthConfig, line + "\n", "<t>")


@pytest.mark.parametrize("section,line", [
    ("training", "lr=nan"), ("training", "loss_scale=inf"), ("training", "weight_decay=1e999"),
    ("ablation", "shift_region_jitter=nan"), ("model", "dropout=nan")])
def test_non_finite_float_rejected_in_every_section(section, line):
    key = line.split("=")[0]
    with pytest.raises(ConfigError, match=f"bad value for key '{key}'"):
        parse_experiment_text(f"[{section}]\n{line}\n")


def test_non_finite_float_in_checkpoint_block():
    with pytest.raises(ConfigError, match="bad value for key 'dropout'"):
        kvtext.decode(CastConfig, "dropout=nan\n", "<ckpt>")


def test_decode_utf8_raises_the_given_error():
    with pytest.raises(FormatError, match="blob is not valid UTF-8"):
        kvtext.decode_utf8(b"\xff", "blob")
    with pytest.raises(ConfigError):
        kvtext.decode_utf8(b"a\xc3(", "blob", ConfigError)
