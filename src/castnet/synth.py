"""Deterministic generator of labeled synthetic face-like video clips with
plantable spatial/temporal forgery artifacts.

Clips are procedural: a drifting oval face with eye and mouth blobs over a
configurable background, with mild global lighting variation. Fake clips
additionally carry one artifact kind inside a normalized region: per-frame
brightness flicker, periodic patch warp, or a static texture seam. Base
content is drawn identically for both labels from the same seed, so a real
and a fake clip with equal seeds differ only inside the artifact region.

A clip is drawn in one array pass over its frames: the per-frame face drift,
lighting and flutter are (F,) arrays, the blobs are (F,H,W) planes built from
separable row and column distance terms, and the channel blend, flicker and
normalisation each run once over the whole (F,3,H,W) clip. Only warp rolls
frame by frame, since its shift changes from frame to frame.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import kvtext
from .errors import ConfigError, InvalidRegion
from .preprocess import (
    ClipRecord,
    FrameClip,
    LABEL_FAKE,
    LABEL_REAL,
    is_label,
    normalize_frame,
    write_clip,
    write_manifest,
)
from .tensor import Tensor
from .seeding import derive_seed

ARTIFACT_KINDS = ("none", "texture_seam", "flicker", "warp", "combined")
BACKGROUND_STYLES = ("smooth_gradient", "blotchy")

# Base drawing stays inside this band so artifact offsets up to ~0.25
# never clip against [0,1], keeping artifact energy proportional to amplitude.
_PIXEL_LO = 0.26
_PIXEL_HI = 0.74

_SPLITS = ("train", "val", "test")


@dataclass
class ArtifactSpec:
    kind: str = "flicker"
    amplitude: float = 0.25
    region: tuple[float, float, float, float] = (0.28, 0.32, 0.72, 0.56)  # x0,y0,x1,y1
    period: int = 2  # full cycle of the flicker and warp, in frames

    def validate(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ConfigError(f"unknown artifact kind {self.kind!r}")
        if not self.amplitude >= 0:  # NaN fails too
            raise ConfigError("artifact amplitude must be >= 0")
        if (self.kind == "none") != (self.amplitude == 0):
            raise ConfigError("artifact kind 'none' requires amplitude 0, "
                              "and every other kind an amplitude > 0")
        if self.period < 1:
            raise ConfigError("artifact period must be >= 1")
        if len(self.region) != 4:
            raise InvalidRegion(f"region needs 4 coordinates, got {self.region}")
        x0, y0, x1, y1 = self.region
        if not (0 <= x0 < x1 <= 1 and 0 <= y0 < y1 <= 1):
            raise InvalidRegion(f"region must be a box inside [0,1]^2, got {self.region}")


@dataclass
class SynthConfig:
    n_train: int = 400
    n_val: int = 100
    n_test: int = 200
    frames: int = 16
    h: int = 32
    w: int = 32
    fake_fraction: float = 0.5
    base_seed: int = 0
    artifact: ArtifactSpec = field(default_factory=ArtifactSpec)
    background_style: str = "smooth_gradient"

    def validate(self) -> None:
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("all split counts must be >= 1")
        _check_shape(self.frames, self.h, self.w)
        if not (0 < self.fake_fraction < 1):
            raise ConfigError("fake_fraction must be in (0,1)")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.background_style not in BACKGROUND_STYLES:
            raise ConfigError(f"unknown background style {self.background_style!r}")
        self.artifact.validate()
        _check_plants(self.artifact, self.frames, self.h, self.w)


@dataclass
class ShiftSpec:
    """Distribution shift applied by shifted_variant: artifact strength,
    background style, and region placement."""
    amplitude_scale: float = 1.0
    background: Optional[str] = None  # a background style, or None to keep it
    region_jitter: float = 0.0


@dataclass
class DatasetManifest:
    records: list[ClipRecord]
    manifest_path: str
    config_snapshot: str


def _check_shape(frames: int, h: int, w: int) -> None:
    if frames < 2:
        raise ConfigError("clips need at least 2 frames")
    if h < 2 or w < 2:  # pixel coordinates divide by h-1 and w-1
        raise ConfigError(f"frames need h >= 2 and w >= 2, got {h}x{w}")


def _check_plants(spec: ArtifactSpec, frames: int, h: int, w: int) -> None:
    """Reject a spec whose fake clips of this shape would carry no artifact:
    a warp alone whose every per-frame roll is a whole number of turns of
    the region, as at period 2 (no column shift) in a region under 5 pixels
    tall (no row shift at amplitude 0.25)."""
    if spec.kind != "warp":
        return  # flicker and the seam add +-amplitude > 0 to the region
    px0, py0, px1, py1 = region_pixels(spec.region, h, w)
    region_h, region_w = py1 - py0, px1 - px0
    if all(sy % region_h == 0 and sx % region_w == 0
           for sy, sx in _warp_shifts(spec, frames, region_h, region_w)):
        raise ConfigError(f"warp of amplitude {spec.amplitude!r} and period {spec.period} "
                          f"moves no pixel of a {region_h}x{region_w} region "
                          f"in {frames} frames")


def region_pixels(region, h: int, w: int) -> tuple[int, int, int, int]:
    """Scale a normalized (x0,y0,x1,y1) box to pixel bounds."""
    x0, y0, x1, y1 = region
    px0, px1 = int(round(x0 * w)), int(round(x1 * w))
    py0, py1 = int(round(y0 * h)), int(round(y1 * h))
    if not (0 <= px0 < px1 <= w and 0 <= py0 < py1 <= h):
        raise InvalidRegion(f"region {region} collapses at {h}x{w}")
    return px0, py0, px1, py1


def _soft_blob(yy, xx, cy, cx, ry, rx, sharp=6.0):
    """Smooth indicator of an ellipse, 1 inside fading to 0 outside. yy is an
    (H,1) column and xx a (1,W) row of coordinates, so the distance is a row
    term plus a column term; the centres may carry leading (frame) axes."""
    dist = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(sharp * (dist - 1.0)))


def _draw_base_clip(rng: np.random.Generator, frames: int, h: int, w: int,
                    background_style: str) -> np.ndarray:
    """Procedural face-like clip in [_PIXEL_LO, _PIXEL_HI], shape (F,3,H,W)."""
    yy = np.arange(h)[:, None] / (h - 1)
    xx = np.arange(w)[None, :] / (w - 1)

    # background
    if background_style == "smooth_gradient":
        gx, gy = rng.uniform(-0.10, 0.10, 2)
        base = 0.48 + gx * (xx - 0.5) + gy * (yy - 0.5)
        bg = np.stack([base + rng.uniform(-0.03, 0.03) for _ in range(3)])
    else:  # blotchy: random high-contrast soft blobs over a flat field
        bg = np.full((3, h, w), 0.5) + rng.uniform(-0.04, 0.04, (3, 1, 1))
        for _ in range(9):
            cy, cx = rng.uniform(0, 1, 2)
            ry, rx = rng.uniform(0.06, 0.25, 2)
            blob = _soft_blob(yy, xx, cy, cx, ry, rx, sharp=5.0)
            bg += rng.uniform(-0.16, 0.16, (3, 1, 1)) * blob

    # face geometry and palette
    face_cy, face_cx = rng.uniform(0.42, 0.52), rng.uniform(0.45, 0.55)
    face_ry, face_rx = rng.uniform(0.30, 0.38), rng.uniform(0.24, 0.32)
    eye_dy = rng.uniform(-0.14, -0.08)
    eye_dx = rng.uniform(0.10, 0.15)
    eye_r = rng.uniform(0.045, 0.07)
    mouth_dy = rng.uniform(0.14, 0.20)
    mouth_rx = rng.uniform(0.10, 0.16)
    face_rgb = 0.56 + rng.uniform(-0.05, 0.05, 3)
    eye_rgb = 0.32 + rng.uniform(-0.03, 0.03, 3)
    mouth_rgb = 0.38 + rng.uniform(-0.04, 0.04, 3)

    # smooth per-frame motion, plus global lighting with slow drift and a
    # frame-alternating component: whole-frame brightness flutters for real
    # and fake clips alike, so globally pooled statistics alone cannot
    # separate the classes; only spatially localized alternation can.
    drift_amp = rng.uniform(0.005, 0.02, 2)
    drift_phase = rng.uniform(0, 2 * np.pi, 2)
    light_amp = rng.uniform(0.01, 0.04)
    light_phase = rng.uniform(0, 2 * np.pi)
    light_freq = rng.uniform(0.5, 1.5)
    flutter_amp = rng.uniform(0.015, 0.045)
    flutter_sign = rng.choice([-1.0, 1.0])

    # per-frame (F,) terms. Each sine stays a scalar call: an array sine may
    # take a SIMD path that rounds differently in the last bit.
    phase = [2 * np.pi * t / frames for t in range(frames)]
    cy = face_cy + drift_amp[0] * np.array([np.sin(p + drift_phase[0]) for p in phase])
    cx = face_cx + drift_amp[1] * np.array([np.sin(p + drift_phase[1]) for p in phase])
    cy, cx = cy[:, None, None], cx[:, None, None]
    light = light_amp * np.array([np.sin(2 * np.pi * light_freq * t / frames + light_phase)
                                  for t in range(frames)])
    flutter = flutter_amp * flutter_sign * _square_wave(frames, 2)

    # (F,1,H,W) blobs blend over (3,1,1) colours in one pass for all frames
    face = _soft_blob(yy, xx, cy, cx, face_ry, face_rx)[:, None]
    eyes = (_soft_blob(yy, xx, cy + eye_dy, cx - eye_dx, eye_r, eye_r, 10.0)
            + _soft_blob(yy, xx, cy + eye_dy, cx + eye_dx, eye_r, eye_r, 10.0))[:, None]
    mouth = _soft_blob(yy, xx, cy + mouth_dy, cx, 0.05, mouth_rx, 10.0)[:, None]
    clip = bg * (1 - face)
    clip += face_rgb[:, None, None] * face
    clip *= 1 - eyes
    clip += eye_rgb[:, None, None] * np.minimum(eyes, 1.0)
    clip *= 1 - mouth
    clip += mouth_rgb[:, None, None] * mouth
    clip += light[:, None, None, None]
    clip += flutter[:, None, None, None]
    return np.clip(clip, _PIXEL_LO, _PIXEL_HI, out=clip)


def _square_wave(frames: int, period: int) -> np.ndarray:
    """+1 / -1 per frame, with the given full-cycle period: +1 for the first
    half of each cycle (rounded up), -1 for the rest."""
    return np.where(np.arange(frames) % period < (period + 1) // 2, 1.0, -1.0)


def _warp_shifts(spec: ArtifactSpec, frames: int, region_h: int,
                 region_w: int) -> list[tuple[int, int]]:
    """The (row, column) roll of the warped region in each frame."""
    shifts = []
    for t in range(frames):
        phase = 2 * np.pi * t / spec.period
        shifts.append((int(round(spec.amplitude * 0.5 * region_h * np.cos(phase))),
                       int(round(spec.amplitude * 0.5 * region_w * np.sin(phase)))))
    return shifts


def _apply_artifact(clip: np.ndarray, spec: ArtifactSpec) -> np.ndarray:
    """Plant the artifact into the region; touches nothing outside it."""
    if spec.kind == "none":
        return clip
    frames, _, h, w = clip.shape
    px0, py0, px1, py1 = region_pixels(spec.region, h, w)
    out = clip.copy()
    region = out[:, :, py0:py1, px0:px1]
    kinds = ("flicker", "warp", "texture_seam") if spec.kind == "combined" else (spec.kind,)
    region_w = px1 - px0
    region_h = py1 - py0

    if "warp" in kinds:  # the shift changes per frame, so one roll per frame
        for t, shift in enumerate(_warp_shifts(spec, frames, region_h, region_w)):
            region[t] = np.roll(region[t], shift, axis=(1, 2))

    if "flicker" in kinds:
        region += (spec.amplitude * _square_wave(frames, spec.period))[:, None, None, None]

    if "texture_seam" in kinds:
        cols = np.arange(px0, px1)
        region += np.where(cols % 2 == 0, spec.amplitude, -spec.amplitude)

    return np.clip(out, 0.0, 1.0, out=out)


def generate_clip(seed: int, label: int, spec: ArtifactSpec, frames: int = 16,
                  h: int = 32, w: int = 32,
                  background_style: str = "smooth_gradient",
                  source_id: Optional[str] = None) -> FrameClip:
    """Deterministic clip for (seed, label, spec); label 1 plants the artifact."""
    if not is_label(label):
        raise ConfigError(f"label must be the int {LABEL_REAL} or {LABEL_FAKE}, got {label!r}")
    spec.validate()
    _check_shape(frames, h, w)
    _check_plants(spec, frames, h, w)
    rng = np.random.Generator(np.random.PCG64(seed))
    raw = _draw_base_clip(rng, frames, h, w, background_style)
    if label == LABEL_FAKE:
        raw = _apply_artifact(raw, spec)
    return FrameClip(frames=normalize_frame(Tensor(raw)),
                     label=int(label),
                     source_id=source_id or f"synth-{seed:016x}",
                     f_orig=30.0, r=30.0)


def _split_labels(count: int, fake_fraction: float) -> list[int]:
    n_fake = int(np.floor(count * fake_fraction + 0.5))
    return [LABEL_FAKE] * n_fake + [LABEL_REAL] * (count - n_fake)


def generate_dataset(cfg: SynthConfig, out_dir) -> DatasetManifest:
    """Write clips and a manifest under out_dir; fully seed-deterministic."""
    cfg.validate()
    out_dir = os.fspath(out_dir)
    records = []
    split_codes = {"train": 0, "val": 1, "test": 2}
    counts = {"train": cfg.n_train, "val": cfg.n_val, "test": cfg.n_test}
    for split in _SPLITS:
        os.makedirs(os.path.join(out_dir, split), exist_ok=True)
        labels = _split_labels(counts[split], cfg.fake_fraction)
        for idx, label in enumerate(labels):
            seed = cfg.base_seed ^ derive_seed(0, split_codes[split], idx)
            rel = f"{split}/clip_{idx:05d}.castclip"
            clip = generate_clip(seed, label, cfg.artifact, cfg.frames, cfg.h,
                                 cfg.w, cfg.background_style,
                                 source_id=f"{split}-{idx:05d}-{seed & 0xFFFFFFFF:08x}")
            write_clip(os.path.join(out_dir, rel), clip)
            records.append(ClipRecord(path=rel, label=label, split=split))
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest_path, records)
    snapshot = kvtext.encode(cfg)
    with open(os.path.join(out_dir, "gen_config.txt"), "w", encoding="utf-8") as f:
        f.write(snapshot)
    return DatasetManifest(records=records, manifest_path=manifest_path,
                           config_snapshot=snapshot)


def shifted_variant(cfg: SynthConfig, shift: ShiftSpec) -> SynthConfig:
    """Derive a distribution-shifted config: scaled artifact amplitude,
    different background, jittered region. An identity shift returns an
    equivalent config (same seed namespace); any real shift also moves the
    seed namespace so shifted clips are fresh draws."""
    if not shift.amplitude_scale > 0:  # NaN fails too
        raise ConfigError("amplitude_scale must be positive")
    if shift.background is not None and shift.background not in BACKGROUND_STYLES:
        raise ConfigError(f"unknown background style {shift.background!r}")
    identity = (shift.amplitude_scale == 1.0 and shift.background is None
                and shift.region_jitter == 0.0)
    if identity:
        return replace(cfg)
    x0, y0, x1, y1 = cfg.artifact.region
    j = shift.region_jitter
    dx = min(j, 1.0 - x1) if j >= 0 else max(j, -x0)
    dy = min(j, 1.0 - y1) if j >= 0 else max(j, -y0)
    artifact = replace(cfg.artifact,
                       amplitude=cfg.artifact.amplitude * shift.amplitude_scale,
                       region=(x0 + dx, y0 + dy, x1 + dx, y1 + dy))
    shift_token = (f"{shift.amplitude_scale!r}|{shift.background}|"
                   f"{shift.region_jitter!r}")
    return replace(cfg, artifact=artifact,
                   background_style=shift.background or cfg.background_style,
                   base_seed=derive_seed(cfg.base_seed, "shift", shift_token))


def dataset_checksum(out_dir) -> str:
    """SHA-256 over the manifest and every clip file, for reproducibility logs."""
    out_dir = os.fspath(out_dir)
    digest = hashlib.sha256()
    names = []
    for root, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".castclip") or name == "manifest.tsv":
                names.append(os.path.relpath(os.path.join(root, name), out_dir))
    for rel in sorted(names):
        digest.update(rel.encode("utf-8"))
        with open(os.path.join(out_dir, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()
