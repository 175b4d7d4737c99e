"""Attention heatmap export: one fusion-attention row rendered as a
grayscale PGM image at the clip's resolution."""

from __future__ import annotations

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ConfigError, FormatError, UnsupportedVariant
from .preprocess import read_clip, write_file


def grid_to_image(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Min-max normalize to [0,255] (flat grids map to mid-gray 128) and
    nearest-upsample to the output resolution."""
    gh, gw = grid.shape
    if out_h % gh or out_w % gw:
        raise ConfigError(f"output {out_h}x{out_w} not a multiple of grid {gh}x{gw}")
    lo, hi = float(grid.min()), float(grid.max())
    if hi > lo:
        levels = np.rint((grid - lo) / (hi - lo) * 255.0)
    else:
        levels = np.full_like(grid, 128.0)
    img = levels.astype(np.uint8)
    return np.repeat(np.repeat(img, out_h // gh, axis=0), out_w // gw, axis=1)


def write_pgm(path, img: np.ndarray) -> None:
    """Binary PGM ("P5", maxval 255): header then exactly H*W bytes."""
    if img.dtype != np.uint8 or img.ndim != 2:
        raise ConfigError("PGM writer expects a 2-D uint8 image")
    h, w = img.shape
    write_file(path, f"P5\n{w} {h}\n255\n".encode("ascii") + img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM as write_pgm writes it ("P5", width and height,
    maxval 255, then H*W bytes); any other header or payload size raises
    FormatError."""
    with open(path, "rb") as f:
        buf = f.read()
    parts = buf.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise FormatError("not a binary P5 PGM")
    dims = parts[1].split()
    if len(dims) != 2 or not all(v.isdigit() for v in dims):
        raise FormatError(f"bad PGM dimensions line {parts[1][:40]!r}")
    w, h = (int(v) for v in dims)
    if w < 1 or h < 1:
        raise FormatError(f"PGM dimensions {w}x{h} must be positive")
    if parts[2] != b"255":
        raise FormatError(f"PGM maxval {parts[2][:40]!r}, expected 255")
    payload = parts[3]
    if len(payload) != h * w:
        raise FormatError(f"PGM payload has {len(payload)} bytes, expected {h * w}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def render_heatmap(checkpoint_path, clip_path, frame_index: int, out_path) -> np.ndarray:
    """Run the model on a clip, pick the attention row of one temporal
    token, and write it as a PGM heatmap at the clip's resolution. Returns
    the raw row as a (grid_h, grid_w) grid: the image stretches any
    non-constant row to 0-255, so only the row's own range tells a flat row
    from a peaked one."""
    cfg, params = M.load_checkpoint(checkpoint_path)
    clip = read_clip(clip_path)
    with T.no_grad():
        out = M.forward(clip, params, cfg, mode="eval")
    if out.attention is None:
        raise UnsupportedVariant(
            f"variant {cfg.variant!r} does not define a cross-attention matrix")
    if not (0 <= frame_index < cfg.clip_len):
        raise ConfigError(f"frame index {frame_index} out of range [0,{cfg.clip_len})")
    grid_h = clip.height // cfg.downsample_factor
    grid_w = clip.width // cfg.downsample_factor
    row = out.attention.data[frame_index].reshape(grid_h, grid_w)
    write_pgm(out_path, grid_to_image(row, clip.height, clip.width))
    return row
