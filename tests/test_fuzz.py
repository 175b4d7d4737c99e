"""Seeded mutation fuzz over the tensor, clip, checkpoint, manifest,
experiment-config and PGM parsers: whatever the bytes, only a CastError
escapes. The same mutations of a config, a manifest, a checkpoint and a
clip, fed to `castnet eval` and `castnet train`, end in a documented exit
code with no traceback.

Each parser gets well-formed input with one to three byte-level mutations
(overwrite, insert, delete a short run, splice in a token, truncate). The
seeds are fixed, so a failure reproduces exactly. A number grows by a few
digits at most. For checkpoints a grown dimension costs no allocation
either way: load_checkpoint compares the weights its config asks for with
the weights in the file before it builds the skeleton.
"""

from dataclasses import fields

import numpy as np
import pytest

from castnet import cli
from castnet import heatmap as H
from castnet import kvtext
from castnet import model as M
from castnet import preprocess as pp
from castnet import synth
from castnet import tensor as T
from castnet.config import ExperimentConfig, load_experiment_config
from castnet.errors import CastError
from conftest import tiny_model_cfg, tiny_synth_cfg

TOKENS = (b"=", b",", b"\n", b"\r", b"[", b"]", b"#", b"\t", b"\xff", b"\xc3",
          b"\x00", b"-", b"0", b"9", b"nan", b"inf", b"none", b"1e999", b"[model]")


def mutate(buf: bytes, rng) -> bytes:
    out = bytearray(buf)
    for _ in range(int(rng.integers(1, 4))):
        op = int(rng.integers(5))
        i = int(rng.integers(len(out) + 1))
        if op == 0 and i < len(out):
            out[i] = int(rng.integers(256))
        elif op == 1:
            out[i:i] = bytes([int(rng.integers(256))])
        elif op == 2:
            del out[i:i + int(rng.integers(1, 9))]
        elif op == 3:
            out[i:i] = TOKENS[int(rng.integers(len(TOKENS)))]
        else:
            del out[i:]
    return bytes(out)


def _clip_bytes():
    frames = T.uniform((2, 3, 4, 4), -1, 1, seed=1)
    return pp.clip_to_bytes(pp.FrameClip(frames=frames, label=1, source_id="vid-7"))


def _checkpoint_bytes(tmp_path):
    cfg = tiny_model_cfg(clip_len=2)
    path = tmp_path / "seed.ckpt"
    M.save_checkpoint(path, cfg, M.init_cast_params(cfg, seed=3))
    return path.read_bytes()


def _config_bytes():
    default = ExperimentConfig()
    return "".join(f"[{f.name}]\n" + kvtext.encode(getattr(default, f.name))
                   for f in fields(default)).encode()


def _from_file(tmp_path, load):
    path = tmp_path / "fuzzed"

    def parse(buf):
        path.write_bytes(buf)
        return load(path)
    return parse


@pytest.mark.parametrize("parser,count", [("tensor", 400), ("clip", 400),
                                          ("checkpoint", 300), ("manifest", 400),
                                          ("config", 1500), ("pgm", 400)])
def test_only_cast_errors_escape(tmp_path, parser, count):
    seed_input, parse = {
        "tensor": lambda: (T.tensor_to_bytes(T.uniform((2, 3), -1, 1, seed=2)),
                           lambda buf: T.tensor_from_bytes(buf, 0)),
        "clip": lambda: (_clip_bytes(), pp.clip_from_bytes),
        "checkpoint": lambda: (_checkpoint_bytes(tmp_path),
                               _from_file(tmp_path, M.load_checkpoint)),
        "manifest": lambda: (b"train/a.castclip\t1\ttrain\nval/b.castclip\t0\tval\n",
                             _from_file(tmp_path, pp.read_manifest)),
        "config": lambda: (_config_bytes(), _from_file(tmp_path, load_experiment_config)),
        "pgm": lambda: (b"P5\n4 3\n255\n" + bytes(range(10, 130, 10)),
                        _from_file(tmp_path, H.read_pgm)),
    }[parser]()
    parse(seed_input)  # the unmutated input parses
    rng = np.random.default_rng(["tensor", "clip", "checkpoint", "manifest",
                                 "config", "pgm"].index(parser))
    escaped = []
    with np.errstate(all="ignore"):
        for i in range(count):
            buf = mutate(seed_input, rng)
            try:
                parse(buf)
            except CastError:
                pass
            except Exception as e:  # noqa: BLE001 - any other type is the failure
                escaped.append((i, buf, f"{type(e).__name__}: {e}"))
    assert not escaped, f"{len(escaped)} of {count} escaped, first: {escaped[:3]}"


def test_header_check_agrees_with_clip_parser(tmp_path):
    """load_split, which reads no frames, rejects exactly the mutated clips
    that read_clip rejects."""
    seed_input = _clip_bytes()
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("c.castclip\t1\ttrain\n")
    path = tmp_path / "c.castclip"

    def accepts(parse):
        try:
            parse()
        except CastError:
            return False
        return True
    rng = np.random.default_rng(7)
    disagree = []
    for i in range(400):
        buf = mutate(seed_input, rng)
        path.write_bytes(buf)
        if accepts(lambda: pp.read_clip(path)) != accepts(lambda: pp.load_split(manifest, "train")):
            disagree.append((i, buf))
    assert not disagree, f"{len(disagree)} of 400 disagree, first: {disagree[:3]}"


# no [output] section: runs go to the relative default dir, so no mutation
# can send them outside the test's working directory
CLI_CONFIG = b"""[synth]
frames=4
[model]
backbone_channels=4,8
d=8
encoder_layers=1
heads=2
ffn_dim=16
fusion_heads=2
clip_len=4
[training]
max_epochs=1
batch_size=4
"""

CLI_CASES = [("eval", "checkpoint", 150), ("eval", "manifest", 150), ("eval", "clip", 150),
             ("train", "config", 120), ("train", "manifest", 60), ("train", "clip", 60)]


@pytest.mark.parametrize("command,target,count", CLI_CASES)
def test_cli_exit_codes(tmp_path, monkeypatch, capsys, command, target, count):
    monkeypatch.chdir(tmp_path)
    synth.generate_dataset(tiny_synth_cfg(n_train=8, n_val=4, n_test=4), "runs/data")
    cfg = tiny_model_cfg()
    M.save_checkpoint("model.ckpt", cfg, M.init_cast_params(cfg, seed=4))
    (tmp_path / "exp.cfg").write_bytes(CLI_CONFIG)
    argv = {"eval": ["eval", "--checkpoint", "model.ckpt",
                     "--manifest", "runs/data/manifest.tsv", "--out", "report"],
            "train": ["train", "--config", "exp.cfg"]}[command]
    path = tmp_path / {"config": "exp.cfg", "checkpoint": "model.ckpt",
                       "manifest": "runs/data/manifest.tsv",
                       "clip": f"runs/data/{'test' if command == 'eval' else 'train'}"
                               f"/clip_00000.castclip"}[target]
    seed_input = path.read_bytes()
    assert cli.main(argv) == 0  # the unmutated inputs run
    rng = np.random.default_rng(100 + CLI_CASES.index((command, target, count)))
    escaped = []
    with np.errstate(all="ignore"):
        for i in range(count):
            buf = mutate(seed_input, rng)
            path.write_bytes(buf)
            capsys.readouterr()
            try:
                code = cli.main(argv)
            except Exception as e:  # noqa: BLE001 - any escape is the failure
                escaped.append((i, buf, f"{type(e).__name__}: {e}"))
                continue
            err = capsys.readouterr().err
            if code not in (0, 2, 3, 4, 5) or "Traceback" in err:
                escaped.append((i, buf, f"exit {code}: {err[-300:]}"))
    assert not escaped, f"{len(escaped)} of {count} escaped, first: {escaped[:3]}"
