"""Frame sampling arithmetic, normalization, and the clip file format.
Inputs are already face-cropped frames; no detection happens here.
"""

from __future__ import annotations

import io
import math
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyVideo, FormatError, InvalidRate
from .kvtext import decode_utf8
from .tensor import (TENSOR_HEADER_MAX, Tensor, pack_magic, pack_struct, pack_text,
                     read_magic, read_struct, read_text, tensor_from_bytes, tensor_header,
                     tensor_to_bytes)

# ImageNet channel statistics; inputs are real-valued in [0,1] before this.
DEFAULT_MEAN = (0.485, 0.456, 0.406)
DEFAULT_STD = (0.229, 0.224, 0.225)

CLIP_MAGIC = b"CASTCLIP"
CLIP_VERSION = 1

LABEL_REAL = 0
LABEL_FAKE = 1

# dataset splits, in the order of their seed codes (code = index)
SPLITS = ("train", "val", "test")

# the longest clip header: magic, version, label, the longest source id,
# the two rates and the longest tensor header
CLIP_HEADER_MAX = len(CLIP_MAGIC) + 5 + 0xFFFF + 16 + TENSOR_HEADER_MAX


@dataclass
class SamplingPlan:
    f_orig: float
    r: float
    delta: int
    total_frames: int
    candidate_count: int
    selected_indices: list[int]


@dataclass
class FrameClip:
    """A preprocessed clip: ordered normalized frames plus metadata."""

    frames: Tensor  # (F, 3, H, W)
    label: Optional[int] = None  # 0 real, 1 fake, None unknown
    source_id: str = ""
    f_orig: float = 30.0
    r: float = 30.0

    @property
    def clip_len(self) -> int:
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        return self.frames.shape[2]

    @property
    def width(self) -> int:
        return self.frames.shape[3]


def compute_interval(f_orig: float, r: float) -> int:
    """Frame sampling interval: max(1, floor(f_orig / r))."""
    if f_orig <= 0 or r <= 0:
        raise InvalidRate(f"rates must be positive, got f_orig={f_orig}, r={r}")
    return max(1, math.floor(f_orig / r))


def select_frames(total_frames: int, delta: int, target_count: int) -> list[int]:
    """Pick target_count frame indices from a video of total_frames.

    Candidates are the delta-spaced indices {0, delta, 2*delta, ...} of size
    floor(total_frames/delta) (or just {0} when that floor is 0). When there
    are at least target_count candidates they are thinned at the constant
    stride floor(candidates/target_count); otherwise all candidates are kept
    and the last one is repeated to pad.
    """
    if total_frames < 1:
        raise EmptyVideo(f"video has {total_frames} frames")
    if delta < 1 or target_count < 1:
        raise InvalidRate("delta and target_count must be >= 1")
    count = total_frames // delta
    candidates = [i * delta for i in range(count)] if count else [0]
    n = len(candidates)
    if n >= target_count:
        stride = n // target_count
        return [candidates[k * stride] for k in range(target_count)]
    return candidates + [candidates[-1]] * (target_count - n)


def plan_sampling(f_orig: float, r: float, total_frames: int,
                  target_count: int) -> SamplingPlan:
    delta = compute_interval(f_orig, r)
    indices = select_frames(total_frames, delta, target_count)
    return SamplingPlan(f_orig=f_orig, r=r, delta=delta, total_frames=total_frames,
                        candidate_count=total_frames // delta,
                        selected_indices=indices)


def write_file(path, data: bytes) -> None:
    """Whole-file atomic write: data goes to a temp file beside path, which
    then replaces path, so a reader sees the old file or the new one, never
    a torn one. Every file castnet writes goes through here. The temp name
    holds the writer's process and thread ids, so writers of one path at
    once do not share it."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:  # a failed or interrupted write leaves no temp file
        os.remove(tmp)
        raise


def to_tsv(rows) -> bytes:
    """UTF-8 text with one line per row: the fields through str(), joined
    by tabs. str() of an int or float is its repr, so numbers round-trip."""
    return "".join("\t".join(map(str, row)) + "\n" for row in rows).encode("utf-8")


def normalize_frame(frame: Tensor) -> Tensor:
    """Per-channel (x - mean) / std over (..., 3, H, W) frames in [0,1]."""
    mean = np.asarray(DEFAULT_MEAN)[:, None, None]
    std = np.asarray(DEFAULT_STD)[:, None, None]
    return Tensor((frame.data - mean) / std)


# ---------------------------------------------------------------------------
# clip files: magic, version u16, label i8 (-1 absent), source_id
# (u16 length + UTF-8), f_orig f64, r f64, then one serialized tensor.


def is_label(value) -> bool:
    """Whether value is a clip label: an int (numpy integers too, bools not)
    equal to LABEL_REAL or LABEL_FAKE."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value in (LABEL_REAL, LABEL_FAKE))


def clip_to_bytes(clip: FrameClip) -> bytes:
    if clip.label is not None and not is_label(clip.label):
        raise FormatError(f"clip label must be None, 0 or 1, got {clip.label!r}")
    label = -1 if clip.label is None else int(clip.label)
    return (pack_magic(CLIP_MAGIC, CLIP_VERSION) + pack_struct("b", label)
            + pack_text(clip.source_id, "source_id")
            + pack_struct("dd", clip.f_orig, clip.r) + tensor_to_bytes(clip.frames))


def _clip_header(buf: bytes, size: int) -> tuple[dict, int]:
    """Check the header of a size-byte clip stream that buf begins, the
    frames' tensor header and the stream's length included; returns the
    FrameClip fields other than frames, and the offset of the frames."""
    off = read_magic(buf, 0, CLIP_MAGIC, CLIP_VERSION, "clip")
    (label,), off = read_struct(buf, off, "b", "clip header")
    if label != -1 and not is_label(label):
        raise FormatError(f"clip label must be -1 (absent), 0 or 1, got {label}")
    source_id, off = read_text(buf, off, "clip source id")
    (f_orig, r), off = read_struct(buf, off, "dd", "clip header")
    _, dims, _, end = tensor_header(buf, off, size)
    if end != size:
        raise FormatError(f"{size - end} trailing bytes after clip")
    if len(dims) != 4 or dims[1] != 3:
        raise FormatError(f"clip tensor must be (F,3,H,W), got {dims}")
    fields = dict(label=None if label < 0 else label, source_id=source_id,
                  f_orig=f_orig, r=r)
    return fields, off


def clip_from_bytes(buf: bytes) -> FrameClip:
    fields, off = _clip_header(buf, len(buf))
    frames, _ = tensor_from_bytes(buf, off)
    return FrameClip(frames=frames, **fields)


def write_clip(path, clip: FrameClip) -> None:
    write_file(path, clip_to_bytes(clip))


def read_clip(path) -> FrameClip:
    with open(path, "rb") as f:
        return clip_from_bytes(f.read())


# ---------------------------------------------------------------------------
# dataset manifests: one record per line, `<relative path>\t<label>\t<split>`


@dataclass
class ClipRecord:
    path: str
    label: int
    split: str


def write_manifest(path, records: list[ClipRecord]) -> None:
    write_file(path, to_tsv((r.path, r.label, r.split) for r in records))


def read_manifest(path) -> list[ClipRecord]:
    with open(path, "rb") as f:
        text = decode_utf8(f.read(), f"manifest {os.fspath(path)}")
    records = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(f"{path}:{lineno}: expected 3 tab-separated fields")
        rel, label, split = parts
        if "\0" in rel:
            raise FormatError(f"{path}:{lineno}: NUL byte in clip path")
        if label not in ("0", "1"):
            raise FormatError(f"{path}:{lineno}: label must be 0 or 1, got {label!r}")
        if split not in SPLITS:
            raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
        records.append(ClipRecord(path=rel, label=int(label), split=split))
    return records


def _check_clip(path) -> None:
    """Check a clip file's header and length without reading its frames."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(min(size, CLIP_HEADER_MAX))
    try:
        _clip_header(head, size)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from None


def load_split(manifest_path, split: str) -> list[tuple[str, int]]:
    """(clip path, label) rows of one split, each clip's header and length
    checked but no frames read; falls back to all records when the manifest
    has no rows for that split (pre-filtered manifests)."""
    manifest_path = os.fspath(manifest_path)
    base = os.path.dirname(os.path.abspath(manifest_path))
    records = read_manifest(manifest_path)
    chosen = [r for r in records if r.split == split] or records
    rows = [(os.path.join(base, r.path), r.label) for r in chosen]
    for path, _ in rows:
        _check_clip(path)
    return rows
