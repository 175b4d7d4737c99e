"""Command-line entry points: dataset generation, training, evaluation,
the ablation suite, and attention-heatmap export.

Exit codes are a stable scripting contract: 0 success, 2 config/input
error, 3 training divergence, 4 checkpoint mismatch, 5 output unsupported
by the model variant. A partially failed ablation run exits 1.
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


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    root = os.path.join(cfg.output.dir, "ablate")
    os.makedirs(root, exist_ok=True)
    rows: list[tuple[str, str, float, float]] = []
    failures: list[str] = []

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

        for variant in sorted(M.VARIANTS):
            run_dir = os.path.join(seed_dir, variant)
            try:
                model_cfg = replace(cfg.model, variant=variant)
                train_cfg = replace(cfg.training, seed=seed)
                result = train(model_cfg, manifest, manifest, train_cfg, run_dir)
                auc_in = evaluate(result.best_checkpoint, manifest).auc
                auc_shift = evaluate(result.best_checkpoint, shifted_manifest).auc
            except CastError as e:
                failures.append(f"{variant} seed={seed}: {e}")
                continue
            rows.append((variant, str(seed), auc_in, auc_shift))

    rows.sort(key=lambda r: (r[0], r[1]))
    table = ["variant\tseed\tin_auc\tshifted_auc\n"]
    for variant in sorted(set(r[0] for r in rows)):
        v_rows = [r for r in rows if r[0] == variant]
        for _, seed, auc_in, auc_shift in v_rows:
            table.append(f"{variant}\t{seed}\t{auc_in!r}\t{auc_shift!r}\n")
        mean_in = sum(r[2] for r in v_rows) / len(v_rows)
        mean_shift = sum(r[3] for r in v_rows) / len(v_rows)
        table.append(f"{variant}\tmean\t{mean_in!r}\t{mean_shift!r}\n")
    table_path = os.path.join(root, "ablation.tsv")
    with open(table_path, "w", encoding="utf-8", newline="") as f:
        f.writelines(table)
    print(table_path)

    if failures:
        for line in failures:
            print(f"FAILED {line}", file=sys.stderr)
        return 1
    return 0


def cmd_heatmap(args) -> int:
    render_heatmap(args.checkpoint, args.clip, args.frame, args.out)
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
    p_eval.add_argument("--mode", choices=("clip", "frame_mean"), default=None)
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
    except (CastError, FileNotFoundError, NotADirectoryError, IsADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
