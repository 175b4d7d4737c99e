"""Command-line entry points: dataset generation, training, evaluation,
the ablation suite, and attention-heatmap export.

Exit codes are a stable scripting contract: 0 success, 2 config/input
error (an unreadable or unwritable file, a full disk and running out of
memory included), 3 training divergence, 4 checkpoint mismatch, 5 output
unsupported by the model variant. A partially failed ablation run exits 1.

`ablate` spreads its seed x variant runs over the CPUs this process may
use: the calling process and one forked child per extra CPU, each child a
fork that holds one run's memory at a time. Its outputs, printed lines and
exit codes do not depend on the CPU count.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import model as M
from .config import load_experiment_config
from .errors import (
    CastError,
    CheckpointError,
    ConfigError,
    DivergenceError,
    UnsupportedVariant,
)
from .heatmap import render_heatmap
from .metrics import evaluate, write_report
from .preprocess import to_tsv, write_file
from .synth import dataset_checksum, generate_dataset, shifted_variant
from .train import train


def _load_config(args):
    cfg = load_experiment_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg,
                      synth=replace(cfg.synth, base_seed=args.seed),
                      training=replace(cfg.training, seed=args.seed))
    return cfg


def cmd_gen(args) -> int:
    cfg = _load_config(args)
    data_dir = os.path.join(cfg.output.dir, "data")
    manifest = generate_dataset(cfg.synth, data_dir)
    print(manifest.manifest_path)
    return 0


def _training_manifest(cfg) -> str:
    if cfg.evaluation.manifest:
        return cfg.evaluation.manifest
    return os.path.join(cfg.output.dir, "data", "manifest.tsv")


def cmd_train(args) -> int:
    cfg = _load_config(args)
    manifest = _training_manifest(cfg)
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"manifest not found: {manifest} (run gen first "
                                f"or set [evaluation] manifest)")
    run_dir = os.path.join(cfg.output.dir, "train")
    result = train(cfg.model, manifest, manifest, cfg.training, run_dir)
    print(f"best_epoch {result.best_epoch}")
    print(f"best_val_loss {result.best_val_loss!r}")
    print(result.best_checkpoint)
    return 0


def cmd_eval(args) -> int:
    out_dir = args.out or os.path.dirname(os.path.abspath(args.checkpoint))
    try:
        report = evaluate(args.checkpoint, args.manifest, args.mode)
    except ConfigError as e:
        raise CheckpointError(f"checkpoint incompatible with manifest clips: {e}") from None
    os.makedirs(out_dir, exist_ok=True)
    write_report(report, os.path.join(out_dir, "report.txt"),
                 os.path.join(out_dir, "roc.tsv"), os.path.join(out_dir, "scores.tsv"))
    print(f"ACC {report.accuracy:.4f}")
    print(f"AUC {report.auc:.4f}")
    return 0


def _run_all(jobs: list, run) -> list[tuple]:
    """(run(job), None) for each job, in job order, or (None, message) for a
    job whose run raised a CastError or MemoryError. Any other exception is
    raised once every process has stopped, the first in job order, and no
    job starts after it, as if the jobs ran one after another.

    The jobs run on every CPU this process may use: this process and one
    forked child per extra CPU take them from a shared counter, and the
    results go back in job order, so they do not depend on the CPU count.
    This process takes job 0 before it forks, so it always runs one. A child
    that dies fails only the job it held. Every child is reaped before this
    returns; on an interrupt, or any other exception out of here, the ones
    still running are interrupted first. With one usable CPU, no fork, or
    another live thread (a fork copies only the calling one), every job runs
    in this process.
    """
    import itertools
    import pickle
    import signal

    outcomes: list = [None] * len(jobs)
    n_children = _spare_cpus(len(jobs))
    if not n_children:
        _work(jobs, run, range(len(jobs)), outcomes.__setitem__)
        return _settle(outcomes)
    counter = _JobCounter(len(jobs), start=1)
    children: dict = {}  # pid -> read end of the pipe it writes its records to
    try:
        for _ in range(n_children):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: go on with the ones made
                os.close(read_end)
                os.close(write_end)
                break
            if pid == 0:
                _child(jobs, run, counter, write_end,
                       [read_end, *(f.fileno() for f in children.values())])
            os.close(write_end)
            children[pid] = os.fdopen(read_end, "rb")
        if not _work(jobs, run, itertools.chain([0], iter(counter.take, None)),
                     outcomes.__setitem__):
            counter.stop()
        for pid, f in list(children.items()):
            held = None
            while True:  # records up to the end, or one cut short by a death
                try:
                    i, outcome = pickle.load(f)
                except (EOFError, pickle.UnpicklingError):
                    break
                outcomes[i] = outcome
                held = i if outcome is None else None
            f.close()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if held is not None:
                how = (f"killed by {signal.Signals(os.WTERMSIG(status)).name}"
                       if os.WIFSIGNALED(status)
                       else f"exit status {os.waitstatus_to_exitcode(status)}")
                outcomes[held] = (None, f"worker process died ({how})")
        for i, outcome in enumerate(outcomes):
            if outcome is None:  # held by a dead child, or not run after a raise
                outcomes[i] = (None, "worker process died")
    finally:
        for pid, f in children.items():  # any left: an exception is on its way out
            os.kill(pid, signal.SIGINT)
            f.close()
            os.waitpid(pid, 0)
        counter.close()
    return _settle(outcomes)


def _spare_cpus(n_jobs: int) -> int:
    """Children to fork for n_jobs: one per usable CPU past this process's,
    at most one per job past the first."""
    import threading

    if not all(hasattr(os, f) for f in ("fork", "sched_getaffinity", "memfd_create")):
        return 0
    if threading.active_count() > 1:
        return 0
    return max(0, min(len(os.sched_getaffinity(0)), n_jobs) - 1)


def _work(jobs: list, run, indices, report) -> bool:
    """Run the jobs at indices in turn and report(i, (value, error)) for
    each; error is None, a failure message, or an exception to raise. Stops
    at the first exception, returning False."""
    for i in indices:
        try:
            outcome = (run(jobs[i]), None)
        except (CastError, MemoryError) as e:
            outcome = (None, str(e) or type(e).__name__)
        except Exception as e:
            report(i, (None, e))
            return False
        report(i, outcome)
    return True


def _settle(outcomes: list) -> list[tuple]:
    for _, error in outcomes:
        if isinstance(error, BaseException):
            raise error
    return outcomes


def _child(jobs: list, run, counter, write_end: int, inherited: list[int]):
    """A forked worker's whole life: it closes the pipe ends it inherited,
    then takes jobs from the counter and writes the record (i, None) when it
    takes job i and (i, outcome) when that ends. It never returns and
    flushes nothing it inherited."""
    import pickle

    code = 1
    try:
        for fd in inherited:
            os.close(fd)

        def send(i, outcome):
            data = pickle.dumps((i, outcome))
            while data:
                data = data[os.write(write_end, data):]

        def taken():
            for i in iter(counter.take, None):
                send(i, None)
                yield i

        if not _work(jobs, run, taken(), send):
            counter.stop()
        code = 0
    finally:
        os._exit(code)


class _JobCounter:
    """The index of the next job, shared by the processes forked after it is
    made: eight bytes of an anonymous memory file, read and advanced under a
    POSIX record lock, which the kernel drops if its holder dies."""

    def __init__(self, n_jobs: int, start: int):
        self.n_jobs = n_jobs
        self.fd = os.memfd_create("castnet-jobs")
        os.pwrite(self.fd, start.to_bytes(8, "little"), 0)

    def _advance(self, step) -> int:
        import fcntl

        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        try:
            i = int.from_bytes(os.pread(self.fd, 8, 0), "little")
            os.pwrite(self.fd, step(i).to_bytes(8, "little"), 0)
        finally:
            fcntl.lockf(self.fd, fcntl.LOCK_UN)
        return i

    def take(self) -> int | None:
        """The next job's index, or None when none is left."""
        i = self._advance(lambda i: min(i + 1, self.n_jobs))
        return i if i < self.n_jobs else None

    def stop(self) -> None:
        """Hand out no more jobs."""
        self._advance(lambda i: self.n_jobs)

    def close(self) -> None:
        os.close(self.fd)


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    root = os.path.join(cfg.output.dir, "ablate")
    os.makedirs(root, exist_ok=True)
    runs: list[tuple[str, int, str, str]] = []
    for seed in cfg.ablation.seeds:
        seed_dir = os.path.join(root, f"seed{seed}")
        synth_cfg = replace(cfg.synth, base_seed=seed)
        data_dir = os.path.join(seed_dir, "data")
        manifest = generate_dataset(synth_cfg, data_dir).manifest_path
        print(f"dataset seed={seed} sha256={dataset_checksum(data_dir)}")

        shifted_cfg = replace(shifted_variant(synth_cfg, cfg.ablation.shift),
                              n_train=1, n_val=1)
        shifted_dir = os.path.join(seed_dir, "data_shifted")
        shifted_manifest = generate_dataset(shifted_cfg, shifted_dir).manifest_path
        print(f"dataset seed={seed} shifted sha256={dataset_checksum(shifted_dir)}")
        runs += [(variant, seed, manifest, shifted_manifest) for variant in sorted(M.VARIANTS)]

    def run(job):
        variant, seed, manifest, shifted_manifest = job
        result = train(replace(cfg.model, variant=variant), manifest, manifest,
                       replace(cfg.training, seed=seed),
                       os.path.join(root, f"seed{seed}", variant))
        return (evaluate(result.best_checkpoint, manifest).auc,
                evaluate(result.best_checkpoint, shifted_manifest).auc)

    rows: list[tuple[str, str, float, float]] = []
    failures: list[str] = []
    for (variant, seed, _, _), (aucs, error) in zip(runs, _run_all(runs, run)):
        if error is None:
            rows.append((variant, str(seed), *aucs))
        else:
            failures.append(f"{variant} seed={seed}: {error}")

    rows.sort(key=lambda r: (r[0], r[1]))
    table = [("variant", "seed", "in_auc", "shifted_auc")]
    for variant in sorted(set(r[0] for r in rows)):
        v_rows = [r for r in rows if r[0] == variant]
        table += v_rows
        table.append((variant, "mean", sum(r[2] for r in v_rows) / len(v_rows),
                      sum(r[3] for r in v_rows) / len(v_rows)))
    table_path = os.path.join(root, "ablation.tsv")
    write_file(table_path, to_tsv(table))
    print(table_path)

    if failures:
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        return 1
    return 0


def cmd_heatmap(args) -> int:
    row = render_heatmap(args.checkpoint, args.clip, args.frame, args.out)
    print(f"row_min {float(row.min())!r}")
    print(f"row_max {float(row.max())!r}")
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="castnet",
        description="cross-attentive spatio-temporal video classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--config", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train a model")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--manifest", required=True)
    p_eval.add_argument("--mode", choices=M.EVAL_LOGIT_MODES, default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_abl = sub.add_parser("ablate", help="train and score every model variant")
    p_abl.add_argument("--config", required=True)  # seeds: [ablation] seeds
    p_abl.set_defaults(func=cmd_ablate)

    p_heat = sub.add_parser("heatmap", help="export one attention row as PGM")
    p_heat.add_argument("--checkpoint", required=True)
    p_heat.add_argument("--clip", required=True)
    p_heat.add_argument("--frame", type=int, required=True)
    p_heat.add_argument("--out", required=True)
    p_heat.set_defaults(func=cmd_heatmap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except UnsupportedVariant as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except (CastError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
