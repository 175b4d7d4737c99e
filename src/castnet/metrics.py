"""Confusion counts, ROC/AUC with exact tie handling, batched clip
scoring, and checkpoint evaluation over a manifest."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ConfigError, DegenerateEval, EmptyEval, NumericalFailure, ShapeMismatch
from .preprocess import FrameClip, load_split, read_clip
from .tensor import stable_sigmoid

# clips per batched forward in evaluate; 32 measured no faster than 8
EVAL_BATCH = 8


def accuracy(scores, labels) -> tuple[int, int, int, int, float]:
    """Confusion counts and accuracy at the fixed 0.5 threshold; a score of
    exactly 0.5 classifies positive (fake)."""
    scores = list(scores)
    labels = list(labels)
    if not scores:
        raise EmptyEval("no scores to evaluate")
    if len(scores) != len(labels):
        raise ShapeMismatch(f"{len(scores)} scores for {len(labels)} labels")
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
    if len(scores) != len(labels):
        raise ShapeMismatch(f"{len(scores)} scores for {len(labels)} labels")
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
    paths: list[str]

    @property
    def n_videos(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def report_from_scores(scores, labels, paths) -> EvalReport:
    tp, tn, fp, fn, acc = accuracy(scores, labels)
    roc, auc = roc_auc(scores, labels)
    return EvalReport(tp=tp, tn=tn, fp=fp, fn=fn, accuracy=acc, roc=roc,
                      auc=auc, scores=list(scores), labels=list(labels),
                      paths=list(paths))


def clip_scores(out: M.ModelOutput, mode: str) -> np.ndarray:
    """Per-video scores in [0,1], one per clip of the forward pass: mean of
    per-frame sigmoids, or the sigmoid of the clip logit."""
    if mode == "frame_mean":
        return np.atleast_1d(stable_sigmoid(out.frame_logits.data).mean(axis=-1))
    if mode == "clip":
        return stable_sigmoid(out.clip_logit.data)
    raise ConfigError(f"unknown eval_logit_mode {mode!r}")


def score_clips(clips: Iterable[FrameClip], params: M.CastParams, cfg: M.CastConfig,
                mode: str, batch_size: int) -> tuple[list[float], list[float]]:
    """Eval-mode clip logits and scores (see clip_scores), in input order.

    The clips are consumed as a stream and forwarded in chunks of
    consecutive, equally shaped clips, at most batch_size per chunk, so at
    most batch_size clips are held at a time and clips of different sizes
    may mix.
    """
    logits: list[float] = []
    scores: list[float] = []
    chunk: list[FrameClip] = []

    def flush():
        out = M.forward(chunk, params, cfg, mode="eval")
        logits.extend(float(z) for z in out.clip_logit.data)
        scores.extend(float(v) for v in clip_scores(out, mode))
        chunk.clear()

    with T.no_grad():
        for clip in clips:
            if chunk and clip.frames.shape != chunk[0].frames.shape:
                flush()
            chunk.append(clip)
            if len(chunk) == batch_size:
                flush()
        if chunk:
            flush()
    return logits, scores


def evaluate(checkpoint_path, manifest_path,
             eval_logit_mode: Optional[str] = None) -> EvalReport:
    """Score every clip in the manifest with a trained checkpoint.

    Mixed-split manifests are reduced to their test rows; pre-filtered
    manifests are used whole. Every clip header is checked before scoring;
    clips are read as they are scored, in batches of EVAL_BATCH, and the
    scores keep manifest order.
    """
    cfg, params = M.load_checkpoint(checkpoint_path)
    mode = eval_logit_mode or cfg.eval_logit_mode
    rows = load_split(manifest_path, "test")
    clips = (read_clip(path) for path, _ in rows)
    _, scores = score_clips(clips, params, cfg, mode, EVAL_BATCH)
    return report_from_scores(scores, [label for _, label in rows],
                              [path for path, _ in rows])


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


def write_report(report: EvalReport, report_path, roc_path, scores_path) -> None:
    """report.txt's counts, the ROC points, and one path, label and score
    line per clip in manifest order."""
    with open(report_path, "w", encoding="utf-8", newline="") as f:
        f.write(format_report(report))
    with open(roc_path, "w", encoding="utf-8", newline="") as f:
        for fpr, tpr in report.roc:
            f.write(f"{fpr!r}\t{tpr!r}\n")
    with open(scores_path, "w", encoding="utf-8", newline="") as f:
        for path, label, score in zip(report.paths, report.labels, report.scores):
            f.write(f"{path}\t{label}\t{score!r}\n")
