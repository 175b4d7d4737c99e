"""Seeded mutation fuzz over the tensor, clip, checkpoint, manifest,
experiment-config and PGM parsers: whatever the bytes, only a CastError
escapes.

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

from castnet import heatmap as H
from castnet import kvtext
from castnet import model as M
from castnet import preprocess as pp
from castnet import tensor as T
from castnet.config import ExperimentConfig, load_experiment_config
from castnet.errors import CastError
from conftest import tiny_model_cfg

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
