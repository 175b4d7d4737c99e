"""Binary cross-entropy with logits, Adam with loss-scaling semantics, and
the training loop with best-validation checkpointing."""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields
from typing import Sequence, Union

import numpy as np

from . import model as M
from . import nn
from . import tensor as T
from .errors import ConfigError, DivergenceError, ShapeMismatch
from .metrics import check_labels, roc_auc, score_clips
from .preprocess import load_split, read_clip, to_tsv, write_file
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
    """Binary cross-entropy from the raw logit: softplus((1 - 2y) * z).

    One formula for both labels, so nothing cancels: the loss is 0 at
    z = +inf for y = 1 and at z = -inf for y = 0. Tensor input joins the
    gradient graph and returns a Tensor of per-logit losses; y is then one
    label or one label per logit. A plain number is a one-element Tensor's
    loss, returned as a float.
    """
    if not isinstance(logit, Tensor):
        return bce_with_logits(Tensor([float(logit)]), y).item()
    sign = np.broadcast_to(1.0 - 2.0 * check_labels(y), logit.shape)
    return T.softplus(T.mul(logit, Tensor(sign)))


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

    def unscale(gd):
        return gd * inv_scale if cfg.loss_scale != 1.0 else gd

    # the map's own arrays, not copies; a missing gradient is zero
    raw = []
    for p in params:
        if p.node_id is None:
            raise ConfigError("adam_step updates only tensors made with requires_grad=True")
        g = grads.get(p.node_id)
        gd = np.zeros_like(p.data) if g is None else g.data
        if gd.shape != p.data.shape:
            raise ShapeMismatch(f"gradient shape {gd.shape} != param {p.data.shape}")
        raw.append(gd)
    if any(not np.all(np.isfinite(unscale(gd))) for gd in raw):
        return False

    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, gd in zip(params, raw):
        g = unscale(gd)
        if cfg.weight_decay:
            g = g + cfg.weight_decay * p.data
        if p.node_id not in state.moments:
            state.moments[p.node_id] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state.moments[p.node_id]
        # in place, with the operands of m = b1*m + (1-b1)*g and
        # p - lr*(m/bc1) / (sqrt(v/bc2) + eps) in the same order, so bit-equal;
        # g may be the map's own array and is only read
        m *= BETA1
        m += (1.0 - BETA1) * g
        gg = g * g
        gg *= 1.0 - BETA2
        v *= BETA2
        v += gg
        step = m / bc1
        step *= cfg.lr
        den = v / bc2
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step /= den
        p.data = p.data - step
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
    losses = bce_with_logits(Tensor(logits), labels).data
    if all(np.isfinite(s) for s in scores):
        _, auc = roc_auc(scores, labels)
    else:
        auc = float("nan")  # diverged weights; the epoch loop decides what next
    return float(np.mean(losses)), auc


@nn.workspace()
def train(model_cfg: M.CastConfig, train_manifest, val_manifest,
          cfg: TrainConfig, out_dir) -> TrainResult:
    """Train with seeded shuffling, save the checkpoint whenever validation
    loss strictly improves, and rewrite the history file after every epoch;
    raise DivergenceError after it if no epoch saved a checkpoint. A best.ckpt
    or history.tsv already in out_dir is removed before the first epoch,
    after every clip header has been checked. Clips are read as the shuffled
    order draws them, so training and validation hold one batch of clips at
    a time."""
    cfg.validate()
    model_cfg.validate()
    train_rows = load_split(train_manifest, "train")
    val_rows = load_split(val_manifest, "val")
    if not train_rows or not val_rows:
        raise ConfigError("train and val manifests must be non-empty")

    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = os.path.join(os.fspath(out_dir), "best.ckpt")
    history_path = os.path.join(os.fspath(out_dir), "history.tsv")
    for stale in (ckpt_path, history_path):  # an earlier run's files must not outlive this one
        try:
            os.remove(stale)
        except FileNotFoundError:
            pass

    params = M.init_cast_params(model_cfg, derive_seed(cfg.seed, "init"))
    tensors = params.all_tensors()
    state = AdamState()
    history: list[EpochRecord] = []
    best_val = np.inf
    best_epoch = -1

    # one batch's step; its graph, which holds its clips' frames, is freed on return
    def train_step(batch, epoch: int, step: int) -> tuple[float, bool]:
        seeds = [derive_seed(cfg.seed, "drop", epoch, step, j) for j in range(len(batch))]
        out = M.forward([read_clip(path) for path, _ in batch], params, model_cfg,
                        mode="train", seed=seeds)
        losses = bce_with_logits(out.clip_logit, [label for _, label in batch])
        batch_loss = T.scale(T.sum_all(losses), 1.0 / len(batch))
        scaled = (T.scale(batch_loss, cfg.loss_scale)
                  if cfg.loss_scale != 1.0 else batch_loss)
        # no name keeps the gradients, so they are freed after the update
        applied = adam_step(tensors, T.backward(scaled), state, cfg)
        return batch_loss.item(), applied

    for epoch in range(1, cfg.max_epochs + 1):
        rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, "shuffle", epoch)))
        order = rng.permutation(len(train_rows))
        steps = [train_step([train_rows[i] for i in order[at:at + cfg.batch_size]], epoch, at)
                 for at in range(0, len(order), cfg.batch_size)]
        batch_losses = [loss for loss, _ in steps]
        applied = sum(ok for _, ok in steps)

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
        # every epoch, so a run that diverges later keeps the epochs it finished
        write_file(history_path, to_tsv([[f.name for f in fields(EpochRecord)]]
                                         + [astuple(rec) for rec in history]))

    if best_epoch < 0:
        raise DivergenceError(f"no epoch reached a finite validation loss, so no "
                              f"checkpoint was written (history in {history_path})")
    return TrainResult(history=history, best_checkpoint=ckpt_path,
                       history_path=history_path, best_epoch=best_epoch,
                       best_val_loss=float(best_val), params=params)
