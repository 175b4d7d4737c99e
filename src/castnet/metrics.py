"""Confusion counts, ROC/AUC with exact tie handling, batched clip
scoring, and checkpoint evaluation over a manifest."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from . import model as M
from . import nn
from . import tensor as T
from .errors import ConfigError, DegenerateEval, EmptyEval, NumericalFailure, ShapeMismatch
from .preprocess import FrameClip, load_split, read_clip, to_tsv, write_file
from .tensor import stable_sigmoid

# clips per batched forward in evaluate; 32 measured no faster than 8
EVAL_BATCH = 8


def check_labels(labels) -> np.ndarray:
    """labels as a float64 array; ConfigError unless every one is 0 or 1."""
    arr = np.asarray(labels, dtype=np.float64)
    if not np.all((arr == 0.0) | (arr == 1.0)):
        raise ConfigError(f"labels must be 0 or 1, got {labels}")
    return arr


def _scored(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """scores and labels as arrays, checked non-empty, of one length, and
    with every label 0 or 1."""
    scores, labels = np.asarray(list(scores), dtype=np.float64), np.asarray(list(labels))
    if scores.size == 0:
        raise EmptyEval("no scores to evaluate")
    if len(scores) != len(labels):
        raise ShapeMismatch(f"{len(scores)} scores for {len(labels)} labels")
    return scores, check_labels(labels)


def accuracy(scores, labels) -> tuple[int, int, int, int, float]:
    """Confusion counts and accuracy at the fixed 0.5 threshold; a score of
    exactly 0.5 classifies positive (fake)."""
    scores, labels = _scored(scores, labels)
    fake, pos = scores >= 0.5, labels == 1
    tp, fn = int(np.sum(fake & pos)), int(np.sum(~fake & pos))
    fp, tn = int(np.sum(fake & ~pos)), int(np.sum(~fake & ~pos))
    return tp, tn, fp, fn, (tp + tn) / len(scores)


def roc_auc(scores, labels) -> tuple[list[tuple[float, float]], float]:
    """ROC curve (threshold swept over every distinct score) and its
    trapezoidal area, which equals the Mann-Whitney statistic with half
    credit for ties. Integer accumulation keeps the value exact."""
    scores, labels = _scored(scores, labels)
    if not np.all(np.isfinite(scores)):
        raise NumericalFailure("non-finite scores")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateEval("need at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    # one curve point per distinct score, after the last clip of its ties;
    # tp and fp are integer counts, so every point and the area are exact
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(labels[order] == 1)[ends]
    fp = ends + 1 - tp
    p_here, n_here = np.diff(tp, prepend=0), np.diff(fp, prepend=0)
    area2 = int(np.sum(n_here * (2 * tp - p_here)))  # twice the area, in count units
    points = [(0.0, 0.0)] + list(zip((fp / n_neg).tolist(), (tp / n_pos).tolist()))
    return points, area2 / (2 * n_pos * n_neg)


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


@nn.workspace()
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
    labels = [label for _, label in rows]
    tp, tn, fp, fn, acc = accuracy(scores, labels)
    roc, auc = roc_auc(scores, labels)
    return EvalReport(tp=tp, tn=tn, fp=fp, fn=fn, accuracy=acc, roc=roc, auc=auc,
                      scores=scores, labels=labels, paths=[path for path, _ in rows])


def write_report(report: EvalReport, report_path, roc_path, scores_path) -> None:
    """report.txt's counts, the ROC points, and one path, label and score
    line per clip in manifest order."""
    write_file(report_path, to_tsv([
        ("n_videos", report.n_videos), ("tp", report.tp), ("tn", report.tn),
        ("fp", report.fp), ("fn", report.fn), ("accuracy", report.accuracy),
        ("auc", report.auc)]))
    write_file(roc_path, to_tsv(report.roc))
    write_file(scores_path, to_tsv(zip(report.paths, report.labels, report.scores)))
