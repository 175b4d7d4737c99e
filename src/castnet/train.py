"""Binary cross-entropy with logits, Adam with loss-scaling semantics, and
the training loop with best-validation checkpointing."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ConfigError, DivergenceError, ShapeMismatch
from .metrics import roc_auc, score_clips
from .preprocess import load_split, read_clip
from .seeding import derive_seed
from .tensor import GradientMap, Tensor


# Adam's decay rates and epsilon: the usual defaults, which no caller changes
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 1e-5
    batch_size: int = 8
    max_epochs: int = 25
    loss_scale: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        # written as not (x > 0) so that NaN, which compares false, fails too
        if not (self.lr > 0 and self.loss_scale > 0):
            raise ConfigError("lr and loss_scale must be positive")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")
        if not self.weight_decay >= 0:
            raise ConfigError("weight_decay must be >= 0")


def bce_with_logits(logit: Union[Tensor, float], y):
    """Binary cross-entropy from the raw logit: softplus(-z) + (1-y)*z.

    Stable for |z| up to at least 1e4. Tensor input joins the gradient
    tape and returns a Tensor of per-logit losses; y is then one label or
    one label per logit. Plain numbers return a float.
    """
    labels = np.asarray(y, dtype=np.float64)
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ConfigError(f"labels must be 0 or 1, got {y}")
    if isinstance(logit, Tensor):
        loss = T.softplus(T.scale(logit, -1.0))
        if np.any(labels != 1.0):
            loss = T.add(loss, T.mul(logit, Tensor(np.broadcast_to(1.0 - labels, logit.shape),
                                                   dtype=logit.dtype)))
        return loss
    y = float(y)
    z = float(logit)
    return max(-z, 0.0) + float(np.log1p(np.exp(-abs(z)))) + (1.0 - y) * z


class AdamState:
    """First/second moment buffers keyed by parameter node id, plus the
    shared step counter."""

    def __init__(self):
        self.step_count = 0
        self.moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def adam_step(params: Sequence[Tensor], grads: GradientMap, state: AdamState,
              cfg: TrainConfig) -> bool:
    """One Adam update over params (mutated in place).

    Gradients are unscaled by cfg.loss_scale first; the L2 weight-decay term
    is added to the unscaled gradient; then standard Adam with bias
    correction. If any unscaled gradient is non-finite the whole update is
    skipped and state is untouched. Returns whether the update was applied.
    """
    params = list(params)
    inv_scale = 1.0 / cfg.loss_scale
    unscaled = []
    for p in params:
        if p.node_id is None:
            raise ConfigError("adam_step updates only tensors made with requires_grad=True")
        gd = grads.of(p).data
        if gd.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {gd.shape} != param {p.data.shape}")
        unscaled.append(gd * inv_scale if cfg.loss_scale != 1.0 else gd)
    if any(not np.all(np.isfinite(g)) for g in unscaled):
        return False

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, g in zip(params, unscaled):
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p.data
        prev = state.moments.get(p.node_id)
        if prev is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        else:
            m, v = prev
        m = BETA1 * m + (1.0 - BETA1) * g
        v = BETA2 * v + (1.0 - BETA2) * (g * g)
        state.moments[p.node_id] = (m, v)
        p.data = p.data - cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return True


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    val_auc: float


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_checkpoint: str
    history_path: str
    best_epoch: int
    best_val_loss: float
    params: "M.CastParams"


def _validate_epoch(params: M.CastParams, cfg: M.CastConfig,
                    val_rows: list[tuple[str, int]],
                    batch_size: int) -> tuple[float, float]:
    clips = (read_clip(path) for path, _ in val_rows)
    logits, scores = score_clips(clips, params, cfg, cfg.eval_logit_mode, batch_size)
    labels = [label for _, label in val_rows]
    losses = [bce_with_logits(z, label) for z, label in zip(logits, labels)]
    if all(np.isfinite(s) for s in scores):
        _, auc = roc_auc(scores, labels)
    else:
        auc = float("nan")  # diverged weights; the epoch loop decides what next
    return float(np.mean(losses)), auc


def format_history(history: list[EpochRecord]) -> str:
    lines = ["epoch\ttrain_loss\tval_loss\tval_auc\n"]
    for rec in history:
        lines.append(f"{rec.epoch}\t{rec.train_loss!r}\t{rec.val_loss!r}"
                     f"\t{rec.val_auc!r}\n")
    return "".join(lines)


def train(model_cfg: M.CastConfig, train_manifest, val_manifest,
          cfg: TrainConfig, out_dir) -> TrainResult:
    """Train with seeded shuffling, save the checkpoint whenever validation
    loss strictly improves, and write a per-epoch history file; raise
    DivergenceError after it if no epoch saved a checkpoint. A best.ckpt
    already in out_dir is removed before the first epoch, after every clip
    header has been checked. Clips are read as the shuffled order draws
    them, so training and validation hold one batch of clips at a time."""
    cfg.validate()
    model_cfg.validate()
    train_rows = load_split(train_manifest, "train")
    val_rows = load_split(val_manifest, "val")
    if not train_rows or not val_rows:
        raise ConfigError("train and val manifests must be non-empty")

    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(os.fspath(out_dir), "best.ckpt")
    history_path = os.path.join(os.fspath(out_dir), "history.tsv")
    try:  # a checkpoint left by an earlier run must not outlive this one
        os.remove(ckpt_path)
    except FileNotFoundError:
        pass

    params = M.init_cast_params(model_cfg, derive_seed(cfg.seed, "init"))
    tensors = params.all_tensors()
    state = AdamState()
    history: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1

    for epoch in range(1, cfg.max_epochs + 1):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "shuffle", epoch)))
        order = rng.permutation(len(train_rows))
        batch_losses = []
        applied = 0
        for step in range(0, len(order), cfg.batch_size):
            batch = [train_rows[i] for i in order[step:step + cfg.batch_size]]
            T.reset_graph()  # the last step's tape holds its clips' frames
            seeds = [derive_seed(cfg.seed, "drop", epoch, step, j) for j in range(len(batch))]
            # no name keeps the clips, so they are freed before the next batch is read
            out = M.forward([read_clip(path) for path, _ in batch], params, model_cfg,
                            mode="train", seed=seeds)
            losses = bce_with_logits(out.clip_logit, [label for _, label in batch])
            batch_loss = T.scale(T.sum_all(losses), 1.0 / len(batch))
            scaled = (T.scale(batch_loss, cfg.loss_scale)
                      if cfg.loss_scale != 1.0 else batch_loss)
            # no name keeps the gradients, so they are freed after the update
            applied += adam_step(tensors, T.backward(scaled), state, cfg)
            batch_losses.append(batch_loss.item())
        T.reset_graph()

        if not any(np.isfinite(v) for v in batch_losses):
            raise DivergenceError(f"epoch {epoch}: every batch loss was non-finite")
        if not applied:
            raise DivergenceError(f"epoch {epoch}: every gradient was non-finite, "
                                  f"no Adam step was applied")
        train_loss = float(np.mean(batch_losses))
        val_loss, val_auc = _validate_epoch(params, model_cfg, val_rows, cfg.batch_size)
        history.append(EpochRecord(epoch=epoch, train_loss=train_loss,
                                   val_loss=val_loss, val_auc=val_auc))
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            M.save_checkpoint(ckpt_path, model_cfg, params)

    with open(history_path, "w", encoding="utf-8", newline="") as f:
        f.write(format_history(history))
    if best_epoch < 0:
        raise DivergenceError(f"no epoch reached a finite validation loss, so no "
                              f"checkpoint was written (history in {history_path})")
    return TrainResult(history=history, best_checkpoint=ckpt_path,
                       history_path=history_path, best_epoch=best_epoch,
                       best_val_loss=float(best_val), params=params)
