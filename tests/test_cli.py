"""CLI contract: verbs, exit codes, printed output, artifact validity."""

import hashlib
import os
import resource
import select
import shutil
import signal
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from castnet import cli
from castnet import heatmap as H
from castnet import model as M
from castnet import synth
from castnet import tensor as T
from castnet.config import load_experiment_config, parse_experiment_text
from castnet.errors import ConfigError, FormatError
from castnet.metrics import evaluate
from castnet.preprocess import read_clip, read_manifest
from conftest import tiny_model_cfg


def config_text(**overrides):
    base = {
        "synth": {"n_train": 8, "n_val": 4, "n_test": 4, "frames": 4, "h": 8,
                  "w": 8, "base_seed": 5, "artifact_amplitude": 0.3},
        "model": {"backbone_channels": "4,8", "d": 8, "encoder_layers": 1,
                  "heads": 2, "ffn_dim": 16, "fusion_heads": 2, "clip_len": 4},
        "training": {"max_epochs": 1, "batch_size": 4, "seed": 0},
        "output": {},
    }
    for section, kv in overrides.items():
        base.setdefault(section, {}).update(kv)
    lines = []
    for section, kv in base.items():
        lines.append(f"[{section}]")
        lines.extend(f"{k}={v}" for k, v in kv.items())
    return "\n".join(lines) + "\n"


def write_config(tmp_path, name="exp.cfg", **overrides):
    overrides.setdefault("output", {})["dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(config_text(**overrides))
    return path


class TestConfigParsing:
    def test_defaults_fill_missing_sections(self):
        cfg = parse_experiment_text("[output]\ndir=x\n")
        assert cfg.synth.n_train == 400
        assert cfg.model.variant == "full"
        assert cfg.output.dir == "x"

    def test_unknown_key_names_key_and_line(self):
        text = "[synth]\nn_train=4\nwobble=1\n"
        with pytest.raises(ConfigError, match=r":3: unknown key 'wobble'"):
            parse_experiment_text(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_experiment_text("[sprockets]\nn=1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match=r":2: bad value for key 'n_train'"):
            parse_experiment_text("[synth]\nn_train=lots\n")

    def test_frames_must_match_clip_len(self):
        text = "[synth]\nframes=8\n[model]\nclip_len=4\n"
        with pytest.raises(ConfigError, match="clip_len"):
            parse_experiment_text(text)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_experiment_text("# top\n\n[synth]\n# inner\nn_train=3\n")
        assert cfg.synth.n_train == 3

    def test_nested_and_renamed_fields_keep_their_keys(self):
        cfg = parse_experiment_text("[synth]\nartifact_period=3\nartifact_kind=warp\n"
                                    "[ablation]\nshift_background=blotchy\n"
                                    "shift_region_jitter=0.0\n[evaluation]\nmanifest=none\n")
        assert cfg.synth.artifact.period == 3 and cfg.synth.artifact.kind == "warp"
        assert cfg.ablation.shift.background == "blotchy"
        assert cfg.ablation.shift.region_jitter == 0.0
        assert cfg.ablation.shift.amplitude_scale == 0.6  # the ablation default
        assert cfg.evaluation.manifest is None

    def test_non_utf8_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[synth]\nn_train=4\xff\n")
        with pytest.raises(ConfigError, match="UTF-8"):
            load_experiment_config(path)


class TestCmdGen:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        manifest = capsys.readouterr().out.strip()
        assert manifest.endswith("manifest.tsv")
        assert (tmp_path / "out" / "data" / "manifest.tsv").exists()

    def test_malformed_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[synth]\nbogus_key=1\n")
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "bogus_key" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key", [("training", "dropout"), ("evaluation", "mode")])
    def test_removed_key_exits_two(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, **{section: {key: "clip" if key == "mode" else 0.3}})
        assert cli.main(["gen", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key '{key}' in section [{section}]" in err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(config_text().encode() + b"# \xff\n")
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_nul_byte_in_output_dir_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(config_text(output={"dir": "runs\0x"}))
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "bad value for key 'dir'" in capsys.readouterr().err

    @pytest.mark.parametrize("size", [{"h": 1}, {"w": 1}, {"h": 0}])
    def test_degenerate_frame_size_exits_two(self, tmp_path, capsys, size):
        path = write_config(tmp_path, synth=size)
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "h >= 2 and w >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data").exists()

    def test_warp_that_moves_no_pixel_exits_two(self, tmp_path, capsys):
        # period 2 gives no column shift, and the 1-pixel-tall region at 8x8
        # no row shift: every fake clip would equal its real twin
        path = write_config(tmp_path, synth={"artifact_kind": "warp"})
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "moves no pixel" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data").exists()

    @pytest.mark.parametrize("kind", ["flicker", "texture_seam", "combined"])
    def test_amplitude_below_pixel_spacing_exits_two(self, tmp_path, capsys, kind):
        # +-1e-17 rounds away at every pixel value in [0.26, 0.74]
        path = write_config(tmp_path, synth={"artifact_kind": kind,
                                             "artifact_amplitude": 1e-17})
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "may change no pixel" in capsys.readouterr().err
        assert not (tmp_path / "out" / "data").exists()

    def test_missing_config_exits_two(self, tmp_path):
        assert cli.main(["gen", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert "base_seed" in capsys.readouterr().err
        path = write_config(tmp_path, synth={"base_seed": -1})
        assert cli.main(["gen", "--config", str(path)]) == 2

    def test_non_finite_float_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, training={"lr": "nan"})
        assert cli.main(["gen", "--config", str(path)]) == 2
        assert "bad value for key 'lr'" in capsys.readouterr().err

    def test_rerun_identical_dataset(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        sum1 = synth.dataset_checksum(tmp_path / "out" / "data")
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        sum2 = synth.dataset_checksum(tmp_path / "out" / "data")
        assert sum1 == sum2


class TestCmdTrain:
    def test_smoke_run(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "best_epoch 1" in out
        assert "best_val_loss" in out
        assert (tmp_path / "out" / "train" / "best.ckpt").exists()
        assert (tmp_path / "out" / "train" / "history.tsv").exists()

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    def test_model_dropout_reaches_trained_model(self, tmp_path, dropout):
        cfg_path = write_config(tmp_path, model={"dropout": dropout})
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        cfg, _ = M.load_checkpoint(tmp_path / "out" / "train" / "best.ckpt")
        assert cfg.dropout == dropout

    def test_missing_manifest_exits_two(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2

    def test_one_epoch_smoke_at_32px_under_a_minute(self, tmp_path):
        import time
        cfg_path = write_config(
            tmp_path,
            synth={"n_train": 16, "n_val": 8, "n_test": 4, "frames": 4,
                   "h": 32, "w": 32, "base_seed": 9},
            model={"backbone_channels": "8,16,32", "d": 32, "encoder_layers": 1,
                   "heads": 4, "ffn_dim": 64, "fusion_heads": 4, "clip_len": 4},
            training={"max_epochs": 1, "batch_size": 8, "seed": 0})
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        t0 = time.monotonic()
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        assert time.monotonic() - t0 < 60.0

    def test_repeated_seed_identical_history(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        h1 = (tmp_path / "out" / "train" / "history.tsv").read_bytes()
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        h2 = (tmp_path / "out" / "train" / "history.tsv").read_bytes()
        assert h1 == h2

    def test_divergence_exits_three(self, tmp_path):
        cfg_path = write_config(tmp_path, training={"lr": 1e200, "max_epochs": 3,
                                                    "batch_size": 4, "seed": 0})
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", str(cfg_path)]) == 3

    def test_no_checkpoint_exits_three(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, training={"lr": 1e200, "max_epochs": 1,
                                                    "batch_size": 4, "seed": 0})
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "no checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out" / "train" / "best.ckpt").exists()

    def test_failed_rerun_leaves_no_stale_checkpoint(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "out" / "train" / "best.ckpt"
        assert ckpt.exists()
        diverging = write_config(tmp_path, name="diverge.cfg",
                                 training={"lr": 1e200, "max_epochs": 1,
                                           "batch_size": 4, "seed": 0})
        with np.errstate(all="ignore"):
            assert cli.main(["train", "--config", str(diverging)]) == 3
        assert not ckpt.exists()

    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("damage", ["bad_magic", "truncated"])
    def test_bad_clip_exits_two_before_any_step(self, tmp_path, monkeypatch, capsys,
                                                split, damage):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        clip = tmp_path / "out" / "data" / split / "clip_00001.castclip"
        buf = clip.read_bytes()
        clip.write_bytes(b"Z" + buf[1:] if damage == "bad_magic" else buf[:-10])
        ckpt = tmp_path / "out" / "train" / "best.ckpt"
        ckpt.parent.mkdir()
        ckpt.write_bytes(b"an earlier run's checkpoint")
        forwards = []
        real_forward = M.forward
        monkeypatch.setattr(M, "forward",
                            lambda *a, **kw: forwards.append(a) or real_forward(*a, **kw))
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert forwards == []
        assert ckpt.read_bytes() == b"an earlier run's checkpoint"
        assert f"{split}/clip_00001.castclip" in capsys.readouterr().err

    def test_non_finite_gradients_exit_three(self, tmp_path, capsys, nan_gradients):
        cfg_path = write_config(tmp_path)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        stale = tmp_path / "out" / "train" / "history.tsv"
        stale.parent.mkdir()
        stale.write_text("an earlier run's history\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "no Adam step" in capsys.readouterr().err
        assert not stale.exists()  # epoch 1 diverged: no history of this run

    def test_divergence_keeps_finished_epochs_history(self, tmp_path, monkeypatch, capsys):
        # 8 train clips in steps of 4: from epoch 2 on, every gradient is NaN
        cfg_path = write_config(tmp_path, training={"max_epochs": 3, "batch_size": 4,
                                                    "seed": 0})
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        calls = []
        real = T.backward

        def poisoned_from_epoch_two(loss):
            grads = real(loss)
            calls.append(1)
            if len(calls) > 2:
                for g in grads.values():
                    g.data[...] = np.nan
            return grads
        monkeypatch.setattr(T, "backward", poisoned_from_epoch_two)
        assert cli.main(["train", "--config", str(cfg_path)]) == 3
        assert "epoch 2" in capsys.readouterr().err
        run = tmp_path / "out" / "train"
        rows = [r.split("\t") for r in (run / "history.tsv").read_text().splitlines()]
        assert rows[0] == ["epoch", "train_loss", "val_loss", "val_auc"]
        assert [r[0] for r in rows[1:]] == ["1"]
        assert (run / "best.ckpt").exists()


@pytest.fixture()
def zero_classifier_ckpt(tmp_path):
    cfg = tiny_model_cfg()
    params = M.init_cast_params(cfg, seed=2)
    params.classifier.weight.data[:] = 0.0
    params.classifier.bias.data[:] = 0.0
    path = tmp_path / "zero.ckpt"
    M.save_checkpoint(path, cfg, params)
    return path


def run_cli_limited(argv, limit, resource_id, signals=()):
    """castnet with these arguments in a child process whose resource
    resource_id is capped at limit (and these signals ignored), so no
    test can exhaust the host: (exit code, stderr)."""
    def cap():
        for sig in signals:
            signal.signal(sig, signal.SIG_IGN)
        resource.setrlimit(resource_id, (limit, limit))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "castnet.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr


class TestResourceExhaustion:
    """Running out of disk or memory is an input error: exit 2 and one
    error line, never a traceback."""

    def test_file_size_limit_exits_two(self, tmp_path):
        cfg_path = write_config(tmp_path, synth={"h": 32, "w": 32})  # 98 KB clips
        code, err = run_cli_limited(["gen", "--config", str(cfg_path)], 4096,
                                    resource.RLIMIT_FSIZE, [signal.SIGXFSZ])
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "File too large" in err

    def test_memory_limit_exits_two(self, tmp_path):
        # 800000x800000 frames: numpy's own allocation fails
        cfg_path = write_config(tmp_path, synth={"h": 800000, "w": 800000})
        code, err = run_cli_limited(["gen", "--config", str(cfg_path)], 2 * 10 ** 9,
                                    resource.RLIMIT_AS)
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "Unable to allocate" in err

    @pytest.mark.parametrize("model", [{"encoder_layers": 100000000}, {"d": 200000}],
                             ids=["layers", "width"])
    def test_model_larger_than_memory_exits_two(self, tmp_path, model):
        # refused from the weight count before any weight is built
        cfg_path = write_config(tmp_path, model=model)
        assert cli.main(["gen", "--config", str(cfg_path)]) == 0
        code, err = run_cli_limited(["train", "--config", str(cfg_path)], 2 * 10 ** 9,
                                    resource.RLIMIT_AS)
        assert code == 2, err
        assert err.startswith("error: model has ") and err.count("\n") == 1, err
        assert " weights, " in err and " GiB" in err

    def test_memory_error_without_message_names_itself(self, tmp_path):
        cfg_path = write_config(tmp_path, synth={"n_train": 10 ** 10})
        code, err = run_cli_limited(["gen", "--config", str(cfg_path)], 2 * 10 ** 9,
                                    resource.RLIMIT_AS)
        assert (code, err) == (2, "error: MemoryError\n")


class TestCmdEval:
    def test_zero_weight_prints_half_auc(self, tiny_dataset, zero_classifier_ckpt,
                                         tmp_path, capsys):
        code = cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep")])
        assert code == 0
        out = capsys.readouterr().out
        assert "AUC 0.5000" in out
        assert "ACC " in out

    def test_rerun_byte_identical_reports(self, tiny_dataset, zero_classifier_ckpt,
                                          tmp_path):
        for _ in range(2):
            assert cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                             "--manifest", str(tiny_dataset["manifest"]),
                             "--out", str(tmp_path / "rep")]) == 0
            with open(tmp_path / "rep" / "report.txt", "rb") as f:
                content = f.read()
            with open(tmp_path / "rep" / "roc.tsv", "rb") as f:
                roc = f.read()
        assert cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep2")]) == 0
        assert (tmp_path / "rep2" / "report.txt").read_bytes() == content
        assert (tmp_path / "rep2" / "roc.tsv").read_bytes() == roc

    def test_scores_file_lists_each_clip(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, M.init_cast_params(cfg, seed=4))
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep")]) == 0
        report = evaluate(ckpt, tiny_dataset["manifest"])
        lines = (tmp_path / "rep" / "scores.tsv").read_text().splitlines()
        assert lines == [f"{path}\t{label}\t{score!r}" for path, label, score
                         in zip(report.paths, report.labels, report.scores)]
        tests = [r for r in read_manifest(tiny_dataset["manifest"]) if r.split == "test"]
        assert [line.split("\t")[0] for line in lines] == [
            str(tiny_dataset["dir"] / r.path) for r in tests]
        assert len(set(report.scores)) > 1

    def test_interrupted_write_keeps_old_report(self, tiny_dataset, zero_classifier_ckpt,
                                                tmp_path, monkeypatch):
        # a run killed between writing and renaming leaves the last report whole
        out = tmp_path / "rep"
        out.mkdir()
        (out / "report.txt").write_bytes(b"old report\n")

        def killed(src, dst):
            raise KeyboardInterrupt
        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                      "--manifest", str(tiny_dataset["manifest"]), "--out", str(out)])
        assert (out / "report.txt").read_bytes() == b"old report\n"
        assert sorted(p.name for p in out.iterdir()) == ["report.txt"]

    def test_roc_file_endpoints(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=3)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep")]) == 0
        rows = (tmp_path / "rep" / "roc.tsv").read_text().strip().splitlines()
        first = tuple(float(v) for v in rows[0].split("\t"))
        last = tuple(float(v) for v in rows[-1].split("\t"))
        assert first == (0.0, 0.0)
        assert last == (1.0, 1.0)

    def test_incompatible_checkpoint_exits_four(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg(clip_len=8)  # dataset clips have 4 frames
        params = M.init_cast_params(cfg, seed=4)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", str(tiny_dataset["manifest"])]) == 4

    def test_non_numeric_config_value_exits_four(self, tiny_dataset, zero_classifier_ckpt,
                                                 tmp_path, capsys):
        buf = zero_classifier_ckpt.read_bytes()
        assert buf.count(b"\nd=8\n") == 1
        path = tmp_path / "bad.ckpt"
        path.write_bytes(buf.replace(b"\nd=8\n", b"\nd=x\n"))
        code = cli.main(["eval", "--checkpoint", str(path),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep")])
        assert code == 4
        assert "'d'" in capsys.readouterr().err

    def test_oversized_config_exits_four_before_allocating(self, tiny_dataset,
                                                           zero_classifier_ckpt, tmp_path):
        # a 13 KB file whose config block asks for ~40M weights (~320 MB)
        buf = zero_classifier_ckpt.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", buf, 10)
        block = buf[14:14 + cfg_len]
        for old, new in ((b"\nd=8\n", b"\nd=2048\n"), (b"\nffn_dim=16\n", b"\nffn_dim=2048\n")):
            assert block.count(old) == 1
            block = block.replace(old, new)
        path = tmp_path / "big.ckpt"
        path.write_bytes(buf[:10] + struct.pack("<I", len(block)) + block
                         + buf[14 + cfg_len:])
        tracemalloc.start()
        try:
            code = cli.main(["eval", "--checkpoint", str(path),
                             "--manifest", str(tiny_dataset["manifest"]),
                             "--out", str(tmp_path / "rep")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("fault", ["config_block", "entry_name", "duplicate_entry"])
    def test_malformed_checkpoint_exits_two(self, tiny_dataset, zero_classifier_ckpt,
                                            tmp_path, fault, capsys):
        buf = zero_classifier_ckpt.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", buf, 10)
        first = 14 + cfg_len  # first entry: u16 name length, name, tensor
        (name_len,) = struct.unpack_from("<H", buf, first)
        _, second = T.tensor_from_bytes(buf, first + 2 + name_len)
        if fault == "config_block":
            buf = buf[:14] + b"\xff" + buf[15:]
        elif fault == "entry_name":
            buf = buf[:first + 2] + b"\xff" + buf[first + 3:]
        else:
            buf = buf + buf[first:second]
        path = tmp_path / "bad.ckpt"
        path.write_bytes(buf)
        code = cli.main(["eval", "--checkpoint", str(path),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_weight_exits_four(self, tiny_dataset, tmp_path, capsys):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=5)
        params.classifier.bias.data[:] = np.nan
        path = tmp_path / "nan.ckpt"
        M.save_checkpoint(path, cfg, params)
        code = cli.main(["eval", "--checkpoint", str(path),
                         "--manifest", str(tiny_dataset["manifest"]),
                         "--out", str(tmp_path / "rep")])
        assert code == 4
        assert "classifier.bias" in capsys.readouterr().err

    def test_non_utf8_manifest_exits_two(self, zero_classifier_ckpt, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"clip\xff.castclip\t1\ttest\n")
        code = cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                         "--manifest", str(manifest), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_nul_byte_in_clip_path_exits_two(self, zero_classifier_ckpt, tmp_path, capsys):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_bytes(b"clip\x00.castclip\t1\ttest\n")
        code = cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                         "--manifest", str(manifest), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "NUL byte" in capsys.readouterr().err

    def test_non_utf8_clip_source_id_exits_two(self, tiny_dataset, zero_classifier_ckpt,
                                               tmp_path, capsys):
        rel = "test/clip_00000.castclip"
        buf = (tiny_dataset["dir"] / rel).read_bytes()
        (tmp_path / "test").mkdir()
        # the source id starts after magic (8), version u16, label i8, length u16
        (tmp_path / rel).write_bytes(buf[:13] + b"\xff" + buf[14:])
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"{rel}\t1\ttest\n")
        code = cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                         "--manifest", str(manifest), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("byte", [5, 0x80, 0xF9])
    def test_bad_clip_label_byte_exits_two(self, tiny_dataset, zero_classifier_ckpt,
                                           tmp_path, capsys, byte):
        rel = "test/clip_00000.castclip"
        buf = bytearray((tiny_dataset["dir"] / rel).read_bytes())
        (tmp_path / "test").mkdir()
        buf[10] = byte  # the label i8 follows magic (8) and version u16
        (tmp_path / rel).write_bytes(bytes(buf))
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text(f"{rel}\t1\ttest\n")
        code = cli.main(["eval", "--checkpoint", str(zero_classifier_ckpt),
                         "--manifest", str(manifest), "--out", str(tmp_path / "rep")])
        assert code == 2
        assert "clip_00000.castclip: clip label" in capsys.readouterr().err


class TestCmdAblate:
    def test_seed_flag_is_gone(self, tmp_path):
        # ablation seeds come from [ablation] seeds; a --seed flag was dead
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--config", str(cfg_path), "--seed", "3"])
        assert exc.value.code == 2

    def test_shift_whose_warp_moves_no_pixel_exits_two(self, tmp_path, capsys):
        # at 8x8 the region is 1x4: amplitude 0.3 rolls frame 1 by one column,
        # the shifted 0.3 * 0.6 by none, so the shifted fakes carry nothing
        cfg_path = write_config(
            tmp_path, synth={"artifact_kind": "warp", "artifact_period": 4},
            ablation={"seeds": "0", "shift_amplitude_scale": 0.6,
                      "shift_background": "none", "shift_region_jitter": 0.0})
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 2
        assert "moves no pixel" in capsys.readouterr().err
        seed_dir = tmp_path / "out" / "ablate" / "seed0"
        assert (seed_dir / "data" / "manifest.tsv").exists()
        assert not (seed_dir / "full").exists()

    def test_failing_variant_partial_table_nonzero_exit(self, tmp_path, capsys):
        # d=16 != backbone C=8, so the no_projection variant cannot build;
        # the other five must still train and land in the table
        cfg_path = write_config(
            tmp_path,
            model={"backbone_channels": "4,8", "d": 16, "encoder_layers": 1,
                   "heads": 2, "ffn_dim": 32, "fusion_heads": 2, "clip_len": 4},
            ablation={"seeds": "0", "shift_amplitude_scale": 0.7,
                      "shift_background": "none", "shift_region_jitter": 0.0})
        code = cli.main(["ablate", "--config", str(cfg_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "FAILED no_projection seed=0" in err
        table = (tmp_path / "out" / "ablate" / "ablation.tsv").read_text()
        body = table.strip().splitlines()[1:]
        assert len(body) == 10  # 5 surviving variants x (seed row + mean row)
        assert not any(r.startswith("no_projection") for r in body)

    def test_variant_out_of_memory_fails_only_its_run(self, tmp_path, capsys, monkeypatch):
        real_train = cli.train

        def train(model_cfg, *args):
            if model_cfg.variant == "multi_scale":
                raise MemoryError("Unable to allocate 9.00 GiB")
            return real_train(model_cfg, *args)
        monkeypatch.setattr(cli, "train", train)
        cfg_path = write_config(
            tmp_path,
            ablation={"seeds": "0", "shift_amplitude_scale": 0.7,
                      "shift_background": "none", "shift_region_jitter": 0.0})
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 1
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED")]
        assert failed == ["FAILED multi_scale seed=0: Unable to allocate 9.00 GiB"]
        table = (tmp_path / "out" / "ablate" / "ablation.tsv").read_text()
        body = table.strip().splitlines()[1:]
        assert len(body) == 10  # 5 surviving variants x (seed row + mean row)
        assert sorted({r.split("\t")[0] for r in body}) == sorted(
            set(M.VARIANTS) - {"multi_scale"})

    def test_all_variants_produce_rows(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path,
            ablation={"seeds": "0", "shift_amplitude_scale": 0.7,
                      "shift_background": "blotchy", "shift_region_jitter": 0.05})
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "dataset seed=0 sha256=" in out
        table = (tmp_path / "out" / "ablate" / "ablation.tsv").read_text()
        rows = table.strip().splitlines()
        assert rows[0] == "variant\tseed\tin_auc\tshifted_auc"
        body = rows[1:]
        assert len(body) == 12  # 6 variants x (1 seed row + 1 mean row)
        variants = [r.split("\t")[0] for r in body]
        assert variants == sorted(variants)
        for r in body:
            fields = r.split("\t")
            assert 0.0 <= float(fields[2]) <= 1.0
            assert 0.0 <= float(fields[3]) <= 1.0


ONE_SEED = {"seeds": "0", "shift_amplitude_scale": 0.7, "shift_background": "none",
            "shift_region_jitter": 0.0}


def open_fds() -> set:
    return set(os.listdir("/proc/self/fd"))


@pytest.fixture()
def in_child(monkeypatch):
    """Wraps cli.train so that a forked child runs a chosen variant's seed-0
    job. This process always runs job 0 (the first variant of the first
    seed): it waits in that run until a child has begun the chosen one, so
    a child takes every job in between and no timing decides who runs what.
    The child calls action() at the start of the chosen run."""
    parent, (read_end, write_end) = os.getpid(), os.pipe()
    real_train = cli.train

    def arm(variant, action=lambda: None):
        first = sorted(M.VARIANTS)[0]

        def train(model_cfg, *args):
            seed = args[2].seed
            if os.getpid() == parent and (model_cfg.variant, seed) == (first, 0):
                assert select.select([read_end], [], [], 300)[0], "no child began its run"
                os.read(read_end, 1)
            elif os.getpid() != parent and (model_cfg.variant, seed) == (variant, 0):
                os.write(write_end, b"x")
                action()
            return real_train(model_cfg, *args)
        monkeypatch.setattr(cli, "train", train)

    yield arm
    os.close(read_end)
    os.close(write_end)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestAblateWorkers:
    def _tree(self, root):
        return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(root.rglob("*")) if p.is_file()}

    def test_outputs_do_not_depend_on_cpu_count(self, tmp_path, capsys, monkeypatch,
                                                in_child):
        cfg_path = write_config(tmp_path, ablation=dict(ONE_SEED, seeds="0,1"))
        runs = {}
        for cpus in (1, 2, 3):
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            if cpus > 1:
                in_child("full")  # job 1: a child surely runs one job
            fds = open_fds()
            code = cli.main(["ablate", "--config", str(cfg_path)])
            assert open_fds() == fds
            assert_no_child_left()
            out, err = capsys.readouterr()
            runs[cpus] = (code, out, err, self._tree(tmp_path / "out" / "ablate"))
        assert runs[1][0] == 0 and len(runs[1][3]) > 50
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    def test_out_of_memory_in_a_child_fails_only_its_run(self, tmp_path, capsys,
                                                         monkeypatch, in_child):
        def out_of_memory():
            raise MemoryError("Unable to allocate 9.00 GiB")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child("multi_scale", out_of_memory)
        cfg_path = write_config(tmp_path, ablation=ONE_SEED)
        fds = open_fds()
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 1
        assert open_fds() == fds
        assert_no_child_left()
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED")]
        assert failed == ["FAILED multi_scale seed=0: Unable to allocate 9.00 GiB"]
        body = (tmp_path / "out" / "ablate" / "ablation.tsv").read_text().splitlines()[1:]
        assert sorted({r.split("\t")[0] for r in body}) == sorted(
            set(M.VARIANTS) - {"multi_scale"})

    def test_os_error_in_a_child_exits_two(self, tmp_path, capsys, monkeypatch, in_child):
        def denied():
            raise PermissionError("ablate output is read-only")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child("multi_scale", denied)
        cfg_path = write_config(tmp_path, ablation=ONE_SEED)
        fds = open_fds()
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 2
        assert open_fds() == fds
        assert_no_child_left()
        assert capsys.readouterr().err.splitlines() == ["error: ablate output is read-only"]
        assert not (tmp_path / "out" / "ablate" / "ablation.tsv").exists()

    def test_killed_child_fails_only_the_run_it_held(self, tmp_path, capsys, monkeypatch,
                                                     in_child):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child("multi_scale", lambda: os.kill(os.getpid(), signal.SIGKILL))
        cfg_path = write_config(tmp_path, ablation=ONE_SEED)
        fds = open_fds()
        assert cli.main(["ablate", "--config", str(cfg_path)]) == 1
        assert open_fds() == fds
        assert_no_child_left()
        failed = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("FAILED")]
        assert failed == ["FAILED multi_scale seed=0: worker process died (killed by SIGKILL)"]
        body = (tmp_path / "out" / "ablate" / "ablation.tsv").read_text().splitlines()[1:]
        assert len(body) == 10  # 5 surviving variants x (seed row + mean row)
        assert not any(r.startswith("multi_scale") for r in body)

    def test_interrupt_stops_and_reaps_every_child(self, tmp_path, monkeypatch, in_child):
        # the child blocks in its run until interrupted; this process is
        # interrupted in job 0 once the child is in that run
        hold_read, hold_write = os.pipe()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        in_child("multi_scale", lambda: os.read(hold_read, 1))
        waiting_train = cli.train

        def train(model_cfg, *args):
            result = waiting_train(model_cfg, *args)
            if model_cfg.variant == sorted(M.VARIANTS)[0]:
                raise KeyboardInterrupt
            return result
        monkeypatch.setattr(cli, "train", train)
        cfg_path = write_config(tmp_path, ablation=ONE_SEED)
        fds = open_fds()
        try:
            with pytest.raises(KeyboardInterrupt):
                cli.main(["ablate", "--config", str(cfg_path)])
            assert open_fds() == fds
            assert_no_child_left()
        finally:
            os.close(hold_read)
            os.close(hold_write)

    def test_runs_in_this_process_beside_another_thread(self, tmp_path, capsys,
                                                        monkeypatch):
        # a fork copies only the calling thread, so none is made
        pids, real_train = [], cli.train

        def train(*args):
            pids.append(os.getpid())
            return real_train(*args)
        monkeypatch.setattr(cli, "train", train)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg_path = write_config(tmp_path, ablation=ONE_SEED)
        done = threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            assert cli.main(["ablate", "--config", str(cfg_path)]) == 0
        finally:
            done.set()
            waiter.join()
        assert pids == [os.getpid()] * len(M.VARIANTS)


class TestCmdHeatmap:
    def _clip_path(self, tiny_dataset):
        return str(tiny_dataset["dir"] / "test" / "clip_00000.castclip")

    def test_writes_valid_pgm_at_clip_resolution(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=5)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        out = tmp_path / "heat.pgm"
        code = cli.main(["heatmap", "--checkpoint", str(ckpt),
                         "--clip", self._clip_path(tiny_dataset),
                         "--frame", "0", "--out", str(out)])
        assert code == 0
        img = H.read_pgm(out)
        assert img.shape == (8, 8)  # clip resolution
        raw = out.read_bytes()
        header_end = raw.index(b"255\n") + 4
        assert len(raw) - header_end == 64  # exactly H*W payload bytes

    def test_prints_the_raw_range_of_the_stretched_row(self, tiny_dataset, tmp_path, capsys):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=5)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        out = tmp_path / "heat.pgm"
        capsys.readouterr()
        code = cli.main(["heatmap", "--checkpoint", str(ckpt),
                         "--clip", self._clip_path(tiny_dataset),
                         "--frame", "1", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines[:2]] == ["row_min", "row_max"]
        lo, hi = (float(line.split()[1]) for line in lines[:2])
        assert lines[2] == str(out)
        with T.no_grad():
            row = M.forward(read_clip(self._clip_path(tiny_dataset)), params,
                            cfg, mode="eval").attention.data[1]
        assert (lo, hi) == (row.min(), row.max())
        # the image stretches that range to full contrast, however narrow
        assert 0.0 < lo < hi < 1.0
        img = H.read_pgm(out)
        assert img.min() == 0 and img.max() == 255

    def test_unsupported_variant_exits_five(self, tiny_dataset, tmp_path, capsys):
        cfg = tiny_model_cfg(variant="no_cross_attention")
        params = M.init_cast_params(cfg, seed=6)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        code = cli.main(["heatmap", "--checkpoint", str(ckpt),
                         "--clip", self._clip_path(tiny_dataset),
                         "--frame", "0", "--out", str(tmp_path / "h.pgm")])
        assert code == 5
        assert "no_cross_attention" in capsys.readouterr().err

    def test_frame_out_of_range_exits_two(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=7)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        code = cli.main(["heatmap", "--checkpoint", str(ckpt),
                         "--clip", self._clip_path(tiny_dataset),
                         "--frame", "99", "--out", str(tmp_path / "h.pgm")])
        assert code == 2


class TestHeatmapRendering:
    def test_uniform_attention_renders_mid_gray(self):
        img = H.grid_to_image(np.full((2, 2), 0.25), 8, 8)
        assert img.shape == (8, 8)
        assert np.all(img == 128)

    def test_one_hot_attention_single_bright_block(self):
        row = np.array([1.0, 0.0, 0.0, 0.0]).reshape(2, 2)
        img = H.grid_to_image(row, 8, 8)
        assert np.all(img[:4, :4] == 255)
        assert np.all(img[:4, 4:] == 0)
        assert np.all(img[4:, :] == 0)

    def test_min_max_normalization_range(self):
        rng = np.random.default_rng(0)
        img = H.grid_to_image(rng.uniform(0, 1, (4, 4)), 16, 16)
        assert img.min() == 0 and img.max() == 255

    def test_pgm_round_trip(self, tmp_path):
        img = (np.arange(48).reshape(6, 8) * 5).astype(np.uint8)
        H.write_pgm(tmp_path / "x.pgm", img)
        np.testing.assert_array_equal(H.read_pgm(tmp_path / "x.pgm"), img)

    @pytest.mark.parametrize("buf", [b"P5\n2 2", b"P5\n2\n255\n\x00\x00",
                                     b"P5\nx 2\n255\n\x00\x00", b"P5\n-1 -2\n255\n\x00\x00",
                                     b"P5\n0 2\n255\n", b"P5\n1 2\n65535\n\x00\x00",
                                     b"P5\n1 2\n255\n\x00", b"P2\n1 1\n255\n\x00"])
    def test_malformed_pgm_is_format_error(self, tmp_path, buf):
        path = tmp_path / "x.pgm"
        path.write_bytes(buf)
        with pytest.raises(FormatError):
            H.read_pgm(path)
