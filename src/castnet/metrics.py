"""Confusion counts, ROC/AUC with exact tie handling, and checkpoint
evaluation over a manifest."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import model as M
from . import tensor as T
from .errors import DegenerateEval, EmptyEval, NumericalFailure
from .preprocess import read_clip, read_manifest


def accuracy(scores, labels) -> tuple[int, int, int, int, float]:
    """Confusion counts and accuracy at the fixed 0.5 threshold; a score of
    exactly 0.5 classifies positive (fake)."""
    scores = list(scores)
    labels = list(labels)
    if not scores:
        raise EmptyEval("no scores to evaluate")
    if len(scores) != len(labels):
        raise ValueError("scores and labels differ in length")
    tp = tn = fp = fn = 0
    for s, y in zip(scores, labels):
        predicted_fake = s >= 0.5
        if y == 1:
            tp += predicted_fake
            fn += not predicted_fake
        else:
            fp += predicted_fake
            tn += not predicted_fake
    acc = (tp + tn) / len(scores)
    return tp, tn, fp, fn, acc


def roc_auc(scores, labels) -> tuple[list[tuple[float, float]], float]:
    """ROC curve (threshold swept over every distinct score) and its
    trapezoidal area, which equals the Mann-Whitney statistic with half
    credit for ties. Integer accumulation keeps the value exact."""
    scores = np.asarray(list(scores), dtype=np.float64)
    labels = np.asarray(list(labels), dtype=np.int64)
    if scores.size == 0:
        raise EmptyEval("no scores to evaluate")
    if not np.all(np.isfinite(scores)):
        raise NumericalFailure("non-finite scores")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateEval("need at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    points = [(0.0, 0.0)]
    tp = fp = 0
    area2 = 0  # twice the area, in integer count units
    i = 0
    while i < len(order):
        j = i
        p_here = n_here = 0
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                p_here += 1
            else:
                n_here += 1
            j += 1
        area2 += n_here * (2 * tp + p_here)
        tp += p_here
        fp += n_here
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = area2 / (2 * n_pos * n_neg)
    return points, auc


@dataclass
class EvalReport:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    roc: list[tuple[float, float]]
    auc: float
    scores: list[float]
    labels: list[int]

    @property
    def n_videos(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def report_from_scores(scores, labels) -> EvalReport:
    tp, tn, fp, fn, acc = accuracy(scores, labels)
    roc, auc = roc_auc(scores, labels)
    return EvalReport(tp=tp, tn=tn, fp=fp, fn=fn, accuracy=acc, roc=roc,
                      auc=auc, scores=list(scores), labels=list(labels))


def _eval_threads() -> int:
    """CAST_THREADS, clamped to [1, cpu count]; 1 when unset or malformed."""
    raw = os.environ.get("CAST_THREADS", "1")
    try:
        wanted = int(raw)
    except ValueError:
        return 1
    return max(1, min(wanted, os.cpu_count() or 1))


def evaluate(checkpoint_path, manifest_path,
             eval_logit_mode: Optional[str] = None) -> EvalReport:
    """Score every clip in the manifest with a trained checkpoint.

    Mixed-split manifests are reduced to their test rows; pre-filtered
    manifests are used whole. Scores merge in manifest order regardless of
    evaluation parallelism (capped by the CAST_THREADS env var).
    """
    cfg, params = M.load_checkpoint(checkpoint_path)
    mode = eval_logit_mode or cfg.eval_logit_mode
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = read_manifest(manifest_path)
    test_rows = [r for r in records if r.split == "test"]
    chosen = test_rows or records

    from .train import clip_scores  # local import to avoid a module cycle

    def score_one(rec):
        clip = read_clip(os.path.join(base, rec.path))
        out = M.forward(clip, params, cfg, mode="eval")
        return float(clip_scores(out, mode)[0])

    with T.no_grad():
        workers = _eval_threads()
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                scores = list(pool.map(score_one, chosen))
        else:
            scores = [score_one(rec) for rec in chosen]
    labels = [r.label for r in chosen]
    return report_from_scores(scores, labels)


def format_report(report: EvalReport) -> str:
    lines = [
        f"n_videos\t{report.n_videos}",
        f"tp\t{report.tp}",
        f"tn\t{report.tn}",
        f"fp\t{report.fp}",
        f"fn\t{report.fn}",
        f"accuracy\t{report.accuracy!r}",
        f"auc\t{report.auc!r}",
    ]
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, report_path, roc_path) -> None:
    with open(report_path, "w", encoding="utf-8", newline="") as f:
        f.write(format_report(report))
    with open(roc_path, "w", encoding="utf-8", newline="") as f:
        for fpr, tpr in report.roc:
            f.write(f"{fpr!r}\t{tpr!r}\n")
