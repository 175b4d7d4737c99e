"""The benchmark's workloads, their correctness checks and their metrics.

Each workload is a closed loop: one process issues one ``castnet`` command
after another through ``castnet.cli.main``, the entry point users run, and
waits for each to finish. Inputs come only from the workload seed.

* ``train_default``: ``castnet train`` on the paper's default experiment
  (full variant, 16x32x32 flicker clips, batch 8, default model). Conv
  forward and backward, the tape, backward and Adam dominate it.
* ``eval_default``: ``castnet eval`` of a trained checkpoint over a test
  split of default-shaped clips. Forward only with grad off, plus clip
  reads: a change to backward or Adam should not move it.
* ``ablate_sweep``: ``castnet ablate`` over all six variants at the shape of
  acceptance criterion 7 (8x32x32 combined artifacts, channels 8,16,32,
  d=32, one encoder layer). The only workload that runs the decoupled,
  reversed_qkv, multi_scale and no_projection fusion paths; it also writes
  its datasets inside the timed command.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import signal
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from castnet import cli
from castnet import model as M
from castnet import metrics
from castnet.preprocess import read_manifest
from castnet.synth import dataset_checksum

VARIANT_COUNT = len(M.VARIANTS)

DEFAULT_MODEL = {"variant": "full"}
ABLATION_MODEL = {"backbone_channels": "8,16,32", "d": 32, "encoder_layers": 1,
                  "heads": 4, "ffn_dim": 128, "fusion_heads": 4, "clip_len": 8}
TOY_MODEL = {"backbone_channels": "4,8", "d": 8, "encoder_layers": 1, "heads": 2,
             "ffn_dim": 16, "fusion_heads": 2, "clip_len": 4}
TOY_SHAPE = {"frames": 4, "h": 8, "w": 8}

# Host speed on a shared box drifts by up to a quarter over minutes and
# wobbles from second to second, and the same drift slows this fixed kernel:
# im2col copies, a small BLAS matmul and an interpreter loop, like castnet's
# own mix. HostSpeedSampler runs it every SAMPLE_INTERVAL_S while castnet
# commands run. The untraced metrics scale clips/s and set-up seconds by its
# median time over REFERENCE_NOMINAL_S, its median while castnet commands
# run on a 2-vCPU x86-64 box with OpenBLAS pinned to one thread.
SAMPLE_INTERVAL_S = 0.125
REFERENCE_NOMINAL_S = 0.0087


class HostSpeedSampler:
    """Times the reference kernel from a SIGALRM handler while installed.

    The handler runs in the main thread between bytecodes, so it interrupts
    the command it samples; ``spent`` is the handler time, which the caller
    takes off the command's wall time."""

    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))
        self.frames = rng.standard_normal((16, 3, 34, 34))
        self.kernel = rng.standard_normal((16, 27))
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def run_kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            win = sliding_window_view(self.frames, (3, 3), axis=(2, 3))
            cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(-1, 27)
            (cols @ self.kernel.T).sum()
            total = 0
            for i in range(2000):
                total += i
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(self.run_kernel())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


class Ledger:
    """Attempted and failed units. A unit is one command run or one variant
    run; a failed check fails its unit and never stops the benchmark."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def unit(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)


class CommandResult:
    def __init__(self, argv, code, out, err, seconds):
        self.argv, self.code, self.out, self.err, self.seconds = argv, code, out, err, seconds

    def problems(self) -> list[str]:
        if self.code == 0:
            return []
        return [f"exit {self.code}: {self.err.strip()[-300:]}"]


def run_cli(argv: list[str], sampler=None) -> CommandResult:
    """Run one castnet command in this process, timing only cli.main, less
    the time a host-speed sampler spends in its handler."""
    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent if sampler else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (sampler or contextlib.nullcontext()):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as e:  # a crash is a failed unit, not a crashed benchmark
            code = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - t0
    if sampler:
        seconds -= sampler.spent - spent
    return CommandResult(argv, code, out.getvalue(), err.getvalue(), seconds)


def render_config(sections: dict[str, dict]) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k}={v}\n" for k, v in kv.items()) + "\n"
                   for name, kv in sections.items())


def _finite01(x: float) -> bool:
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _read_history(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f.readlines()[1:]]


def check_gen(res: CommandResult, data_dir: str, expect_rows: int) -> list[str]:
    problems = res.problems()
    if not problems:
        try:
            rows = len(read_manifest(os.path.join(data_dir, "manifest.tsv")))
        except Exception as e:
            return [f"manifest unreadable: {e}"]
        if rows != expect_rows:
            problems.append(f"manifest has {rows} rows, expected {expect_rows}")
    return problems


def check_train(res: CommandResult, run_dir: str, epochs: int) -> tuple[list[str], float]:
    """history.tsv has one finite row per epoch and best.ckpt loads.
    Returns (problems, best val AUC)."""
    problems = res.problems()
    if problems:
        return problems, math.nan
    try:
        rows = _read_history(os.path.join(run_dir, "history.tsv"))
        losses = [float(v) for r in rows for v in r[1:3]]
        aucs = [float(r[3]) for r in rows]
        M.load_checkpoint(os.path.join(run_dir, "best.ckpt"))
    except Exception as e:
        return [f"unreadable run output: {type(e).__name__}: {e}"], math.nan
    if len(rows) != epochs:
        problems.append(f"history has {len(rows)} epochs, expected {epochs}")
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss in history")
    auc = max(aucs) if aucs else math.nan
    if not _finite01(auc):
        problems.append(f"best val AUC {auc!r} outside [0,1]")
    return problems, auc


class Workload:
    """A named workload: its config, set-up commands, timed command and
    checks. ``toy`` swaps in tiny sizes for the benchmark's self-test."""

    name = ""
    why = ""
    model: dict = DEFAULT_MODEL
    synth: dict = {}
    training: dict = {}
    traced_units = 1  # timed commands repeated under the tracer (fixed work)
    tracer = None  # set while commands run traced
    sampler = None  # set while commands run under a host-speed sampler
    setup_reps = 3  # set-ups per untraced run; setup_s is their median

    def __init__(self, seed: int, work: str, toy: bool = False):
        self.seed, self.work = seed, work
        self.synth = dict(self.synth, **(TOY_SHAPE if toy else {}))
        self.model = TOY_MODEL if toy else self.model
        if toy:
            self.synth.update(n_train=8, n_val=4, n_test=4)
            self.training = dict(self.training, max_epochs=1)
        self.epochs = int(self.training.get("max_epochs", 1))
        self.sections_extra: dict[str, dict] = {}
        self.main_dir = ""
        self.last_auc = math.nan

    def write_config(self, out_dir: str) -> str:
        os.makedirs(out_dir, exist_ok=True)
        sections = {
            "synth": dict(self.synth, base_seed=self.seed),
            "model": self.model,
            "training": dict(self.training, seed=self.seed),
            **self.sections_extra,
            "output": {"dir": out_dir},
        }
        path = os.path.join(out_dir, "experiment.cfg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_config(sections))
        return path

    @property
    def n_clips(self) -> int:
        return sum(int(self.synth[k]) for k in ("n_train", "n_val", "n_test"))

    def run(self, argv: list[str]) -> CommandResult:
        """Run one command under the workload's tracer or sampler."""
        with self.tracer or contextlib.nullcontext():
            return run_cli(argv, self.sampler)

    def gen(self, ledger: Ledger, out_dir: str) -> float:
        config = self.write_config(out_dir)
        res = self.run(["gen", "--config", config])
        ledger.unit("gen", check_gen(res, os.path.join(out_dir, "data"), self.n_clips))
        return res.seconds

    def setup(self, ledger: Ledger, out_dir: str) -> float:
        """One set-up into out_dir; returns its wall seconds."""
        return self.gen(ledger, out_dir)

    def command(self) -> list[str]:
        raise NotImplementedError

    def check(self, res: CommandResult) -> tuple[list[str], float, dict[str, list[str]]]:
        """Check one timed command. Returns its problems, the AUC it
        reported, and the problems of each variant run inside it."""
        raise NotImplementedError

    def clips_per_command(self) -> int:
        raise NotImplementedError

    def final_checks(self, ledger: Ledger) -> None:
        """Checks made once after the timed loop."""

    def own_metrics(self, seconds: list[float]) -> dict[str, tuple[float, str]]:
        """The workload's metric under its own name, for the report."""
        raise NotImplementedError


class TrainDefault(Workload):
    name = "train_default"
    why = ("castnet train at the paper's default config (full variant, 16x32x32 "
           "flicker, batch 8): conv, tape, backward and Adam")
    synth = {"n_train": 64, "n_val": 32, "n_test": 1, "frames": 16, "h": 32, "w": 32,
             "artifact_kind": "flicker", "artifact_amplitude": 0.25}
    # lr above the default so two epochs separate the classes for every seed
    training = {"max_epochs": 2, "batch_size": 8, "lr": 3e-4}
    setup_reps = 9

    def command(self):
        return ["train", "--config", os.path.join(self.main_dir, "experiment.cfg")]

    def clips_per_command(self):
        return int(self.synth["n_train"]) * self.epochs

    def check(self, res):
        problems, auc = check_train(res, os.path.join(self.main_dir, "train"), self.epochs)
        return problems, auc, {}

    def own_metrics(self, seconds):
        return {"train_clips_per_s": (self.clips_per_command() / statistics.median(seconds),
                                      "clips/s")}


class EvalDefault(Workload):
    name = "eval_default"
    why = ("castnet eval of a trained checkpoint on default-shaped clips: forward "
           "only, no tape or backward, every clip read from disk")
    synth = {"n_train": 48, "n_val": 16, "n_test": 128, "frames": 16, "h": 32, "w": 32,
             "artifact_kind": "flicker", "artifact_amplitude": 0.25}
    # a short, faster-learning run so the scored checkpoint separates the classes
    training = {"max_epochs": 3, "batch_size": 8, "lr": 3e-4}
    traced_units = 2

    def setup(self, ledger, out_dir):
        seconds = self.gen(ledger, out_dir)
        res = self.run(["train", "--config", os.path.join(out_dir, "experiment.cfg")])
        problems, _ = check_train(res, os.path.join(out_dir, "train"), self.epochs)
        ledger.unit("train checkpoint", problems)
        return seconds + res.seconds

    def command(self):
        return ["eval", "--checkpoint", os.path.join(self.main_dir, "train", "best.ckpt"),
                "--manifest", os.path.join(self.main_dir, "data", "manifest.tsv"),
                "--out", os.path.join(self.main_dir, "eval")]

    def clips_per_command(self):
        return int(self.synth["n_test"])

    def _report(self) -> dict[str, str]:
        with open(os.path.join(self.main_dir, "eval", "report.txt"), encoding="utf-8") as f:
            return dict(line.rstrip("\n").split("\t", 1) for line in f if line.strip())

    def check(self, res):
        problems = res.problems()
        auc = math.nan
        if not problems:
            try:
                report = self._report()
                auc = float(report["auc"])
                if int(report["n_videos"]) != self.clips_per_command():
                    problems.append(f"report scores {report['n_videos']} clips")
            except Exception as e:
                problems.append(f"unreadable report: {type(e).__name__}: {e}")
            if not _finite01(auc):
                problems.append(f"AUC {auc!r} outside [0,1]")
        return problems, auc, {}

    def final_checks(self, ledger):
        """Scores come from a direct evaluate() call, since the report holds
        only their summary: each must be finite and in [0,1], and their AUC
        must equal the one the command reported."""
        problems = []
        try:
            rep = metrics.evaluate(os.path.join(self.main_dir, "train", "best.ckpt"),
                                   os.path.join(self.main_dir, "data", "manifest.tsv"))
            if not all(_finite01(s) for s in rep.scores):
                problems.append("a score is non-finite or outside [0,1]")
            if len(rep.scores) != self.clips_per_command():
                problems.append(f"{len(rep.scores)} scores")
            if rep.auc != self.last_auc:
                problems.append(f"evaluate AUC {rep.auc!r} != reported {self.last_auc!r}")
        except Exception as e:
            problems.append(f"{type(e).__name__}: {e}")
        ledger.unit("eval scores", problems)

    def own_metrics(self, seconds):
        return {"eval_clips_per_s": (self.clips_per_command() / statistics.median(seconds),
                                     "clips/s")}


class AblateSweep(Workload):
    name = "ablate_sweep"
    why = ("castnet ablate over all six variants at the acceptance-7 shape: every "
           "fusion path, small tensors, dataset writes inside the command")
    model = ABLATION_MODEL
    synth = {"n_train": 32, "n_val": 16, "n_test": 32, "frames": 8, "h": 32, "w": 32,
             "artifact_kind": "combined", "artifact_amplitude": 0.25}
    # lr above the default so three epochs separate the classes for every variant
    training = {"max_epochs": 3, "batch_size": 8, "lr": 5e-4}
    setup_reps = 11

    def __init__(self, seed, work, toy=False):
        super().__init__(seed, work, toy)
        self.sections_extra = {"ablation": {
            "seeds": self.seed, "shift_amplitude_scale": 0.6,
            "shift_background": "none", "shift_region_jitter": 0.05}}
        self.expected_sha = None

    def command(self):
        return ["ablate", "--config", os.path.join(self.main_dir, "experiment.cfg")]

    def clips_per_command(self):
        return VARIANT_COUNT * int(self.synth["n_train"]) * self.epochs

    def check(self, res):
        """The command exits 0, regenerates the set-up's dataset byte for
        byte, and its table has one finite row per variant for the seed.
        Its AUC is the mean in-domain AUC over those rows."""
        problems = res.problems()
        if self.expected_sha is None:
            self.expected_sha = dataset_checksum(os.path.join(self.main_dir, "data"))
        marker = f"dataset seed={self.seed} sha256="
        shas = [line[len(marker):] for line in res.out.splitlines() if line.startswith(marker)]
        if shas != [self.expected_sha]:
            problems.append(f"ablate dataset checksum {shas} != gen {self.expected_sha}")
        rows = {}
        try:
            with open(os.path.join(self.main_dir, "ablate", "ablation.tsv"), encoding="utf-8") as f:
                for line in f.readlines()[1:]:
                    variant, seed, auc_in, auc_shift = line.rstrip("\n").split("\t")
                    if seed == str(self.seed):
                        if variant in rows:
                            problems.append(f"duplicate row for {variant}")
                        rows[variant] = (float(auc_in), float(auc_shift))
        except Exception as e:
            problems.append(f"unreadable ablation.tsv: {type(e).__name__}: {e}")
        variants = {}
        for variant in sorted(M.VARIANTS):
            row = rows.get(variant)
            ok = row is not None and all(_finite01(v) for v in row)
            variants[f"variant {variant}"] = [] if ok else [f"row {row}"]
        aucs = [row[0] for row in rows.values()]
        return problems, (sum(aucs) / len(aucs) if aucs else math.nan), variants

    def own_metrics(self, seconds):
        return {"sweep_s": (statistics.median(seconds), "s")}


WORKLOADS = {w.name: w for w in (TrainDefault, EvalDefault, AblateSweep)}


def timed_loop(wl: Workload, ledger: Ledger, seconds: float, min_units: int = 1) -> list[float]:
    """Issue the workload's command until the next one would end after
    ``seconds``, at least ``min_units`` times. Returns the wall seconds of
    the commands that passed."""
    ok_seconds, all_seconds = [], []
    t_start = time.perf_counter()
    while True:
        res = wl.run(wl.command())
        all_seconds.append(res.seconds)
        problems, auc, variants = wl.check(res)
        if not problems and not math.isnan(wl.last_auc) and auc != wl.last_auc:
            problems.append(f"AUC {auc!r} != first run's {wl.last_auc!r}")
        ok = ledger.unit(res.argv[0], problems)
        for what, variant_problems in variants.items():
            ok = ledger.unit(what, variant_problems) and ok
        if ok:
            ok_seconds.append(res.seconds)
            if math.isnan(wl.last_auc):
                wl.last_auc = auc
        elapsed = time.perf_counter() - t_start
        if len(all_seconds) >= min_units and elapsed + statistics.median(all_seconds) > seconds:
            return ok_seconds


def run_setups(wl: Workload, ledger: Ledger, reps: int) -> list[float]:
    """Set up ``reps`` times into fresh directories and keep the last."""
    times = []
    for k in range(reps):
        out_dir = os.path.join(wl.work, f"setup{k}")
        times.append(wl.setup(ledger, out_dir))
        if k + 1 < reps:
            shutil.rmtree(out_dir, ignore_errors=True)
    wl.main_dir = os.path.join(wl.work, f"setup{reps - 1}")
    return times
