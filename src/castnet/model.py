"""The cross-attentive spatio-temporal fusion architecture.

Per clip: a small convolutional backbone extracts per-frame feature maps;
1x1 projections turn them into spatial tokens (one per grid cell) and, via
global average pooling, temporal tokens (one per frame). Temporal tokens
plus learnable positional embeddings go through a pre-norm transformer
encoder. Cross-attention then lets each encoded temporal token attend over
the time-averaged spatial tokens (queries from time, keys/values from
space), followed by residual add + layer norm, mean pooling, and a linear
classifier. Every ablation variant is a runtime configuration choice.

Every attention block (the encoder's self-attention, the cross-attention
fusion in all four of its variants, and the two streams of the decoupled
ablation) is one nn.attention call, with the heads as a batch axis.

forward() takes a batch of clips. Only the backbone runs per clip; every
later stage runs once over the stacked batch, with a leading batch axis on
every tensor. Spatial tokens project the frame mean of the last map, which
the affine projection makes equal to the frame mean of projected tokens.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from . import kvtext, nn
from . import tensor as T
from .errors import CheckpointError, ConfigError, FormatError, ShapeMismatch
from .nn import (
    AttnHead,
    Conv2dParams,
    LayerNormParams,
    MhsaParams,
    PointwiseProj,
)
from .preprocess import FrameClip, write_file
from .seeding import derive_seed
from .tensor import (Tensor, pack_magic, pack_text, read_magic, read_text, tensor_from_bytes,
                     tensor_to_bytes)

VARIANTS = ("full", "no_cross_attention", "decoupled_self_attention",
            "reversed_qkv", "multi_scale", "no_projection")
EVAL_LOGIT_MODES = ("clip", "frame_mean")

# variants whose fusion stage is the cross-attention block (and define A)
_CROSS_ATTN_VARIANTS = ("full", "reversed_qkv", "multi_scale", "no_projection")


@dataclass
class CastConfig:
    backbone_channels: tuple[int, ...] = (16, 32, 64)
    kernel: int = 3
    stride: int = 2
    d: int = 64
    encoder_layers: int = 2
    heads: int = 4
    ffn_dim: int = 256
    fusion_heads: int = 4
    dropout: float = 0.3
    clip_len: int = 16
    variant: str = "full"
    eval_logit_mode: str = "frame_mean"

    @property
    def backbone_out_channels(self) -> int:
        return self.backbone_channels[-1]

    @property
    def downsample_factor(self) -> int:
        return self.stride ** len(self.backbone_channels)

    def validate(self) -> None:
        if not self.backbone_channels or any(c < 1 for c in self.backbone_channels):
            raise ConfigError(f"bad backbone channels {self.backbone_channels}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError("backbone kernel must be a positive odd number")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.d < 1 or self.encoder_layers < 0 or self.clip_len < 1:
            raise ConfigError("d, encoder_layers, clip_len must be positive")
        if self.ffn_dim < 1:
            raise ConfigError("ffn_dim must be >= 1")
        if self.heads < 1 or self.d % self.heads:
            raise ConfigError(f"d={self.d} not divisible by heads={self.heads}")
        if self.fusion_heads < 1 or self.d % self.fusion_heads:
            raise ConfigError(f"d={self.d} not divisible by fusion_heads={self.fusion_heads}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0,1), got {self.dropout}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.eval_logit_mode not in EVAL_LOGIT_MODES:
            raise ConfigError(f"unknown eval_logit_mode {self.eval_logit_mode!r}")
        if self.variant == "no_projection" and self.d != self.backbone_out_channels:
            raise ConfigError(
                f"no_projection requires d == backbone output channels "
                f"({self.d} != {self.backbone_out_channels})")


@dataclass
class FfnParams:
    w1: Tensor  # (ffn_dim, d)
    b1: Tensor
    w2: Tensor  # (d, ffn_dim)
    b2: Tensor


@dataclass
class EncoderLayerParams:
    ln1: LayerNormParams
    mhsa: MhsaParams
    ln2: LayerNormParams
    ffn: FfnParams


@dataclass
class FusionParams:
    heads: list[AttnHead] = field(metadata={"inline": True})
    out_proj: Tensor  # (d, d)
    out_bias: Tensor  # (d,)
    ln: LayerNormParams


@dataclass
class DecoupledParams:
    temporal: MhsaParams
    spatial: MhsaParams
    mix_w: Tensor  # (d, 2d)
    mix_b: Tensor  # (d,)


def _named_tensors(node, path: tuple[str, ...]):
    """(dotted name, tensor) for every tensor under node, in field order."""
    if isinstance(node, Tensor):
        yield ".".join(path), node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _named_tensors(item, path + (str(i),))
    elif is_dataclass(node):
        for f in fields(node):
            sub = path if f.metadata.get("inline") else path + (f.name,)
            yield from _named_tensors(getattr(node, f.name), sub)


@dataclass(kw_only=True)
class CastParams:
    """Every weight of a model. The field order is the checkpoint's entry
    order; a stage a variant lacks is None."""
    backbone: list[Conv2dParams]
    spatial_proj: Optional[PointwiseProj] = None
    temporal_proj: Optional[PointwiseProj] = None
    pos_embed: Tensor
    encoder: list[EncoderLayerParams]
    fusion: Optional[FusionParams] = None
    decoupled: Optional[DecoupledParams] = None
    multi_scale_proj: Optional[PointwiseProj] = None
    classifier: PointwiseProj  # weight (1, d), bias (1,)

    def named_parameters(self) -> dict[str, Tensor]:
        """Every tensor field under its checkpoint entry name: the dotted
        path of field names, list items by index, and the heads of an
        attention block by index alone (fields marked inline). Values that
        are not tensors (absent stages, strides, eps, dropout) are skipped."""
        return dict(_named_tensors(self, ()))

    def all_tensors(self) -> list[Tensor]:
        return list(self.named_parameters().values())


@dataclass
class ModelOutput:
    """Per-clip shapes below; a batched forward adds a leading (B,) axis,
    except that clip_logit is then (B,)."""
    clip_logit: Tensor         # (1,)
    frame_logits: Tensor       # (clip_len,)
    attention: Optional[Tensor]  # (clip_len, H'*W'), head-averaged; None if undefined


def init_cast_params(cfg: CastConfig, seed: int) -> CastParams:
    cfg.validate()
    n, ram = param_count(cfg), os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 8 * n > ram:  # float64 weights alone would not fit in physical memory
        raise ConfigError(f"model has {n} weights, {8 * n / 2 ** 30:,.0f} GiB as float64; "
                          f"this machine has {ram / 2 ** 30:,.1f} GiB")
    backbone = []
    in_ch = 3
    for i, ch in enumerate(cfg.backbone_channels):
        backbone.append(nn.init_conv2d(ch, in_ch, cfg.kernel, cfg.kernel,
                                       stride=cfg.stride, padding=cfg.kernel // 2,
                                       seed=derive_seed(seed, "backbone", i)))
        in_ch = ch
    c_out = cfg.backbone_out_channels
    d = cfg.d

    spatial_proj = temporal_proj = None
    if cfg.variant != "no_projection":
        spatial_proj = nn.init_pointwise(d, c_out, derive_seed(seed, "spatial_proj"))
        temporal_proj = nn.init_pointwise(d, c_out, derive_seed(seed, "temporal_proj"))

    pos_embed = T.gaussian((cfg.clip_len, d), 0.0, 0.02,
                           derive_seed(seed, "pos_embed"), requires_grad=True)

    encoder = []
    for i in range(cfg.encoder_layers):
        ffn = FfnParams(*nn.init_linear(d, cfg.ffn_dim, derive_seed(seed, "ffn1", i)),
                        *nn.init_linear(cfg.ffn_dim, d, derive_seed(seed, "ffn2", i)))
        encoder.append(EncoderLayerParams(
            ln1=nn.init_layer_norm(d),
            mhsa=nn.init_mhsa(d, cfg.heads, cfg.dropout, derive_seed(seed, "mhsa", i)),
            ln2=nn.init_layer_norm(d),
            ffn=ffn))

    fusion = decoupled = multi_scale_proj = None
    if cfg.variant in _CROSS_ATTN_VARIANTS:
        attn = nn.init_mhsa(d, cfg.fusion_heads, cfg.dropout, derive_seed(seed, "fusion"))
        fusion = FusionParams(heads=attn.heads, out_proj=attn.out_proj,
                              out_bias=T.zeros((d,), requires_grad=True),
                              ln=nn.init_layer_norm(d))
    elif cfg.variant == "decoupled_self_attention":
        mix_w, mix_b = nn.init_linear(2 * d, d, derive_seed(seed, "decoupled_mix"))
        decoupled = DecoupledParams(
            temporal=nn.init_mhsa(d, cfg.fusion_heads, cfg.dropout,
                                  derive_seed(seed, "decoupled_t")),
            spatial=nn.init_mhsa(d, cfg.fusion_heads, cfg.dropout,
                                 derive_seed(seed, "decoupled_s")),
            mix_w=mix_w, mix_b=mix_b)
    if cfg.variant == "multi_scale":
        total_c = sum(cfg.backbone_channels)
        multi_scale_proj = nn.init_pointwise(d, total_c, derive_seed(seed, "ms_proj"))

    classifier = PointwiseProj(*nn.init_linear(d, 1, derive_seed(seed, "classifier")))
    return CastParams(backbone=backbone, pos_embed=pos_embed, encoder=encoder,
                      classifier=classifier,
                      spatial_proj=spatial_proj, temporal_proj=temporal_proj,
                      fusion=fusion, decoupled=decoupled,
                      multi_scale_proj=multi_scale_proj)


def param_count(cfg: CastConfig) -> int:
    """Number of weights init_cast_params(cfg) builds, computed without
    building them."""
    d, ffn = cfg.d, cfg.ffn_dim
    chans = (3,) + tuple(cfg.backbone_channels)
    n = sum(o * (i * cfg.kernel ** 2 + 1) for i, o in zip(chans, chans[1:]))
    if cfg.variant != "no_projection":
        n += 2 * d * (cfg.backbone_out_channels + 1)  # spatial and temporal
    n += cfg.clip_len * d  # pos_embed
    n += cfg.encoder_layers * (4 * d + 4 * d * d + 2 * d * ffn + ffn + d)
    if cfg.variant in _CROSS_ATTN_VARIANTS:
        n += 4 * d * d + 3 * d
    elif cfg.variant == "decoupled_self_attention":
        n += 2 * 4 * d * d + 2 * d * d + d
    if cfg.variant == "multi_scale":
        n += d * (sum(cfg.backbone_channels) + 1)
    return n + d + 1  # classifier


# ---------------------------------------------------------------------------
# forward pieces


def backbone_stages(frames: Tensor, backbone: list[Conv2dParams]) -> list[Tensor]:
    """Per-frame conv stages (conv then rectifier, one op record); one
    output per stage."""
    outs = []
    x = frames
    for p in backbone:
        x = nn.conv2d(x, p, relu=True)
        outs.append(x)
    return outs


def spatial_tokens(fmaps: Tensor, proj: Optional[PointwiseProj]) -> Tensor:
    """(..., C, H', W') -> (..., H'*W', d); row-major flatten of the grid.
    Without a projection the raw C-dim channel fibers are the tokens."""
    *lead, c, hp, wp = fmaps.shape
    x = T.transpose(T.reshape(fmaps, (*lead, c, hp * wp)))
    return x if proj is None else nn.linear(x, proj.weight, proj.bias)


def temporal_tokens(fmaps: Tensor, proj: Optional[PointwiseProj]) -> Tensor:
    """(..., F, C, H', W') -> (..., F, d): global average pool then
    projection."""
    pooled = nn.global_avg_pool(fmaps)
    return pooled if proj is None else nn.linear(pooled, proj.weight, proj.bias)


def encode_temporal(t_seq: Tensor, pos_embed: Tensor,
                    layers: list[EncoderLayerParams], drop_rate: float,
                    mode: str, seed) -> Tensor:
    """Add positional embeddings, then pre-norm transformer encoder layers.
    t_seq is (F, d) with an int seed, or (B, F, d) with one seed per clip."""
    if t_seq.shape[-2:] != pos_embed.shape:
        raise ConfigError(f"positional embeddings {pos_embed.shape} do not match "
                          f"token sequence {t_seq.shape}")
    x = T.add(t_seq, pos_embed)
    for i, layer in enumerate(layers):
        attn = nn.mhsa(nn.layer_norm(x, layer.ln1), layer.mhsa, mode,
                       derive_seed(seed, "enc_attn", i))
        x = T.add(x, attn)
        h = nn.layer_norm(x, layer.ln2)
        h = T.relu(nn.linear(h, layer.ffn.w1, layer.ffn.b1))
        h = nn.dropout(h, drop_rate, mode, derive_seed(seed, "enc_ffn", i))
        h = nn.linear(h, layer.ffn.w2, layer.ffn.b2)
        x = T.add(x, h)
    return x


def cross_attention_fuse(z: Tensor, s_mean: Tensor, fusion: FusionParams,
                         variant: str, drop_rate: float, mode: str,
                         seed) -> tuple[Tensor, Optional[Tensor]]:
    """Fusion stage for the cross-attention variants: one nn.attention call,
    output bias, dropout, residual add and layer norm.

    full / multi_scale / no_projection: temporal queries z over spatial
    keys/values s_mean; A is the head-averaged weight matrix.

    reversed_qkv: spatial tokens are queries, temporal tokens keys/values.
    The spatially-indexed output rows are redistributed to temporal rows
    through the transposed head-averaged attention before the residual; the
    reported A is that transpose, row-normalized so each temporal row is
    again a distribution over spatial sites.
    """
    reversed_qkv = variant == "reversed_qkv"
    xq, xkv = (s_mean, z) if reversed_qkv else (z, s_mean)
    z_hat, attn = nn.attention(xq, xkv, fusion.heads, fusion.out_proj,
                               drop_rate, mode, seed, "fusion_head")
    z_hat = nn.dropout(T.add(z_hat, fusion.out_bias), drop_rate, mode,
                       derive_seed(seed, "fusion_out"))
    if reversed_qkv:
        attn_avg = T.mean_axis0(attn)
        z_hat = T.matmul(T.transpose(attn_avg), z_hat)
        at = attn_avg.data.swapaxes(-1, -2)
        report = Tensor(at / at.sum(axis=-1, keepdims=True))
    else:
        report = Tensor(attn.data.mean(axis=0))  # reported only, so not recorded
    fused = nn.layer_norm(T.add(z, z_hat), fusion.ln)
    return fused, report


def decoupled_fuse(z: Tensor, s_mean: Tensor, p: DecoupledParams,
                   mode: str, seed) -> Tensor:
    """Ablation: independent self-attention (nn.mhsa) per stream, spatial
    side mean pooled and concatenated to every temporal row, linear back
    to d."""
    za = nn.mhsa(z, p.temporal, mode, derive_seed(seed, "dec_t"))
    sa = nn.mhsa(s_mean, p.spatial, mode, derive_seed(seed, "dec_s"))
    s_pool = T.mean_axis0(sa, axis=-2)
    cat = T.concat([za, T.repeat_rows(s_pool, z.shape[-2])], axis=-1)
    return nn.linear(cat, p.mix_w, p.mix_b)


def multi_scale_tokens(stages: list[Tensor], proj: PointwiseProj) -> Tensor:
    """Pool every backbone stage (..., C_i, H_i, W_i) to the final
    resolution, concatenate the channels, and project to token dim:
    -> (..., H'*W', d)."""
    target_h = stages[-1].shape[-2]
    pooled = [nn.avg_pool2d(s, s.shape[-2] // target_h) for s in stages]
    return spatial_tokens(T.concat(pooled, axis=-3), proj)


def classify(fused: Tensor, weight: Tensor, bias: Tensor) -> tuple[Tensor, Tensor]:
    """Fused (B, n, d) -> clip logits (B,) and frame logits (B, n). The clip
    logit is the mean frame logit: equal to the logit of the mean token, as
    the classifier is affine, and independent of the other clips in the
    batch."""
    if fused.ndim != 3:
        raise ShapeMismatch(f"classify expects (B, n, d), got {fused.shape}")
    b, n, _ = fused.shape
    frame_logits = T.reshape(nn.linear(fused, weight, bias), (b, n))
    clip_logit = T.mean_axis0(frame_logits, axis=-1)
    return clip_logit, frame_logits


def forward(clips, params: CastParams, cfg: CastConfig,
            mode: str = "eval", seed=0) -> ModelOutput:
    """Forward pass over a batch of clips.

    clips is a list of equally shaped FrameClips, and seed one int per clip
    (an int is used for every clip). Outputs carry a leading batch axis. A
    lone FrameClip is a batch of one whose outputs have the per-clip shapes
    of ModelOutput. mode 'eval' disables all dropout and derives no seeds;
    mode 'train' derives clip b's dropout masks from seed[b], so each clip's
    outputs equal those of a forward over that clip alone.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"unknown mode {mode!r}")
    single = isinstance(clips, FrameClip)
    batch = [clips] if single else list(clips)
    if not batch:
        raise ConfigError("forward needs at least one clip")
    seeds = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,) * len(batch)
    if len(seeds) != len(batch):
        raise ConfigError(f"{len(seeds)} seeds for {len(batch)} clips")
    if mode == "eval":
        seeds = None  # no dropout, so every derived seed is None too
    first = batch[0]
    if first.clip_len != cfg.clip_len:
        raise ConfigError(f"clip has {first.clip_len} frames, config wants {cfg.clip_len}")
    f = cfg.downsample_factor
    if first.height % f or first.width % f:
        raise ConfigError(f"frame dims {first.height}x{first.width} not divisible "
                          f"by backbone factor {f}")
    for clip in batch[1:]:
        if clip.frames.shape != first.frames.shape:
            raise ConfigError(f"clip shapes differ within a batch: "
                              f"{clip.frames.shape} vs {first.frames.shape}")

    # per clip: the backbone only (one conv over the whole batch measured
    # slower per train step, 72.6 against 60.1 ms) and multi_scale's
    # per-stage frame means
    lasts, stage_means = [], []
    for clip in batch:
        stages = backbone_stages(clip.frames, params.backbone)
        lasts.append(stages[-1])
        if cfg.variant == "multi_scale":
            stage_means.append([T.mean_axis0(s) for s in stages])
        del stages  # free the early maps before the next clip's backbone
    last = T.stack(lasts)  # (B, F, C, H', W')
    del lasts  # the stack is the one copy kept from here on

    # per batch: everything else
    z = encode_temporal(temporal_tokens(last, params.temporal_proj), params.pos_embed,
                        params.encoder, cfg.dropout, mode, derive_seed(seeds, "encoder"))
    attention = s_mean = None
    if cfg.variant == "multi_scale":
        s_mean = multi_scale_tokens([T.stack(level) for level in zip(*stage_means)],
                                    params.multi_scale_proj)
    elif cfg.variant != "no_cross_attention":
        s_mean = spatial_tokens(T.mean_axis0(last, axis=1), params.spatial_proj)
    if cfg.variant == "no_cross_attention":
        fused = z
    elif cfg.variant == "decoupled_self_attention":
        fused = decoupled_fuse(z, s_mean, params.decoupled, mode,
                               derive_seed(seeds, "fusion"))
    else:
        fused, attention = cross_attention_fuse(z, s_mean, params.fusion,
                                                cfg.variant, cfg.dropout, mode,
                                                derive_seed(seeds, "fusion"))

    clip_logit, frame_logits = classify(fused, params.classifier.weight,
                                        params.classifier.bias)
    if single:  # drop the batch axis; clip_logit keeps its shape (1,)
        frame_logits = T.reshape(frame_logits, frame_logits.shape[1:])
        if attention is not None:
            attention = Tensor(attention.data[0])
    return ModelOutput(clip_logit=clip_logit, frame_logits=frame_logits,
                       attention=attention)


# ---------------------------------------------------------------------------
# checkpoints: magic, version u16, u32 length-prefixed config text, then
# named parameter entries (u16 name length, name, tensor bytes) until EOF.

CKPT_MAGIC = b"CASTCKPT"
CKPT_VERSION = 1


def save_checkpoint(path, cfg: CastConfig, params: CastParams) -> None:
    parts = [pack_magic(CKPT_MAGIC, CKPT_VERSION),
             pack_text(kvtext.encode(cfg), "checkpoint config block", "I")]
    for name, tensor in params.named_parameters().items():
        parts.append(pack_text(name, "checkpoint entry name"))
        parts.append(tensor_to_bytes(tensor))
    write_file(path, b"".join(parts))


def load_checkpoint(path) -> tuple[CastConfig, CastParams]:
    """Load and validate a checkpoint. Shapes are checked against a skeleton
    built from the embedded config, once the file is known to hold as many
    weights as the skeleton; any mismatch, and any non-finite weight,
    raises CheckpointError."""
    with open(path, "rb") as f:
        buf = f.read()
    off = read_magic(buf, 0, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    what = f"checkpoint {os.fspath(path)} config block"
    text, off = read_text(buf, off, what, "I")
    cfg = kvtext.decode(CastConfig, text, what)
    cfg.validate()

    loaded: dict[str, Tensor] = {}
    while off < len(buf):
        name, off = read_text(buf, off, "checkpoint entry name")
        if name in loaded:
            raise FormatError(f"duplicate checkpoint entry {name!r}")
        loaded[name], off = tensor_from_bytes(buf, off)

    # the skeleton is as large as the config says; refuse to build one that
    # the weights in the file cannot fill
    n_file, n_cfg = sum(t.data.size for t in loaded.values()), param_count(cfg)
    if n_file != n_cfg:
        raise CheckpointError(f"checkpoint holds {n_file} weights, its config "
                              f"wants {n_cfg}")
    params = init_cast_params(cfg, seed=0)
    expected = params.named_parameters()
    missing = sorted(set(expected) - set(loaded))
    extra = sorted(set(loaded) - set(expected))
    if missing or extra:
        raise CheckpointError(f"parameter names do not match config "
                              f"(missing={missing}, extra={extra})")
    for name, target in expected.items():
        src = loaded[name]
        if src.shape != target.shape:
            raise CheckpointError(f"shape mismatch for {name}: checkpoint "
                                  f"{src.shape}, config wants {target.shape}")
        if not np.all(np.isfinite(src.data)):
            raise CheckpointError(f"non-finite values in {name}")
        target.data = src.data.copy()
    return cfg, params
