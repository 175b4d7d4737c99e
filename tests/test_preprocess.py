"""Frame sampling arithmetic, normalization, resizing, clip file format."""

import struct

import numpy as np
import pytest

from castnet import preprocess as pp
from castnet import tensor as T
from castnet.errors import EmptyVideo, FormatError, InvalidRate


class TestComputeInterval:
    @pytest.mark.parametrize("f_orig,r,expected", [
        (30, 10, 3),
        (24, 30, 1),     # clamped by max(1, .)
        (29.97, 5, 5),   # floor(5.994)
        (60, 60, 1),
        (25, 2, 12),
    ])
    def test_fixtures(self, f_orig, r, expected):
        assert pp.compute_interval(f_orig, r) == expected

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            f = rng.uniform(0.1, 120)
            r = rng.uniform(0.1, 120)
            assert pp.compute_interval(f, r) >= 1

    def test_non_positive_rate(self):
        with pytest.raises(InvalidRate):
            pp.compute_interval(30, 0)
        with pytest.raises(InvalidRate):
            pp.compute_interval(-1, 10)


class TestSelectFrames:
    def test_long_video_even_thinning(self):
        # 100 candidates spaced 3 apart, thinned at stride floor(100/16) = 6
        got = pp.select_frames(300, 3, 16)
        expected = [3 * (k * (100 // 16)) for k in range(16)]
        assert got == expected
        assert got == [0, 18, 36, 54, 72, 90, 108, 126, 144, 162,
                       180, 198, 216, 234, 252, 270]

    def test_exact_length_identity(self):
        assert pp.select_frames(16, 1, 16) == list(range(16))

    def test_short_video_pads_with_last(self):
        got = pp.select_frames(5, 1, 16)
        assert got == [0, 1, 2, 3, 4] + [4] * 11

    def test_single_frame_video(self):
        assert pp.select_frames(1, 4, 3) == [0, 0, 0]

    def test_properties_random_sweep(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            total = int(rng.integers(1, 2000))
            f_orig = float(rng.uniform(1, 120))
            r = float(rng.uniform(1, 120))
            delta = pp.compute_interval(f_orig, r)
            plan = pp.plan_sampling(f_orig, r, total, 16)
            assert plan.delta == delta >= 1
            assert plan.candidate_count == total // delta
            idx = plan.selected_indices
            assert len(idx) == 16
            assert all(0 <= i <= total - 1 for i in idx)
            assert all(a <= b for a, b in zip(idx, idx[1:]))  # non-decreasing

    def test_empty_video(self):
        with pytest.raises(EmptyVideo):
            pp.select_frames(0, 1, 16)


class TestNormalizeFrame:
    def test_mean_frame_maps_to_zero(self):
        spec = pp.NormalizationSpec()
        frame = np.zeros((3, 4, 4))
        for c in range(3):
            frame[c] = spec.mean[c]
        out = pp.normalize_frame(T.Tensor(frame), spec)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_unit_pixel_fixture(self):
        out = pp.normalize_frame(T.ones((3, 1, 1)))
        got = out.data.reshape(3)
        expected = [(1 - 0.485) / 0.229, (1 - 0.456) / 0.224, (1 - 0.406) / 0.225]
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [2.2489, 2.4286, 2.6400], atol=1e-4)

    def test_matches_per_channel_formula(self):
        frame = T.uniform((3, 8, 8), 0, 1, seed=5)
        spec = pp.NormalizationSpec(mean=(0.1, 0.5, 0.9), std=(0.2, 0.3, 0.4))
        out = pp.normalize_frame(frame, spec).data
        for c in range(3):
            np.testing.assert_allclose(out[c], (frame.data[c] - spec.mean[c]) / spec.std[c],
                                       rtol=1e-15, atol=0)

    def test_std_must_be_positive(self):
        with pytest.raises(InvalidRate):
            pp.NormalizationSpec(std=(0.1, 0.0, 0.1))


class TestClipFiles:
    def _clip(self, label=1):
        frames = T.uniform((4, 3, 8, 8), -2, 2, seed=33)
        return pp.FrameClip(frames=frames, label=label, source_id="vid-0042",
                            f_orig=29.97, r=10.0)

    def test_round_trip_bitwise(self, tmp_path):
        clip = self._clip()
        path = tmp_path / "clip.castclip"
        pp.write_clip(path, clip)
        back = pp.read_clip(path)
        assert np.array_equal(back.frames.data, clip.frames.data)
        assert back.label == 1
        assert back.source_id == "vid-0042"
        assert back.f_orig == 29.97 and back.r == 10.0

    def test_write_is_deterministic(self, tmp_path):
        clip = self._clip()
        a, b = tmp_path / "a.castclip", tmp_path / "b.castclip"
        pp.write_clip(a, clip)
        pp.write_clip(b, clip)
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "clip.castclip"
        pp.write_clip(path, self._clip())
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            pp.read_clip(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "clip.castclip"
        buf = bytearray(pp.clip_to_bytes(self._clip()))
        buf[0] = ord(b"Z")
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError):
            pp.read_clip(path)

    def test_non_utf8_source_id_is_format_error(self):
        buf = bytearray(pp.clip_to_bytes(self._clip()))
        buf[13] = 0xFF  # first source id byte, after magic, version, label, length
        with pytest.raises(FormatError, match="UTF-8"):
            pp.clip_from_bytes(bytes(buf))

    def test_absent_label_round_trips_as_absent(self, tmp_path):
        clip = self._clip(label=None)
        path = tmp_path / "clip.castclip"
        pp.write_clip(path, clip)
        assert pp.read_clip(path).label is None

    @pytest.mark.parametrize("label", [300, -1, 2, 1.5, True])
    def test_label_outside_none_zero_one_is_format_error(self, label):
        # 300 raised a bare struct.error
        with pytest.raises(FormatError, match="label must be None, 0 or 1"):
            pp.clip_to_bytes(self._clip(label=label))

    def test_numpy_integer_label_writes_like_int(self):
        assert pp.clip_to_bytes(self._clip(label=np.int64(1))) == pp.clip_to_bytes(self._clip())


class TestLoadSplit:
    def _dataset(self, tmp_path, source_id="vid"):
        frames = T.uniform((2, 3, 4, 4), -1, 1, seed=5)
        records = []
        for i, split in enumerate(["train", "val", "train"]):
            rel = f"c{i}.castclip"
            pp.write_clip(tmp_path / rel, pp.FrameClip(frames=frames, label=i % 2,
                                                       source_id=source_id))
            records.append(pp.ClipRecord(rel, i % 2, split))
        pp.write_manifest(tmp_path / "manifest.tsv", records)
        return tmp_path / "manifest.tsv"

    def test_rows_are_paths_and_labels_and_no_frames_are_read(self, tmp_path, monkeypatch):
        manifest = self._dataset(tmp_path)

        def no_frames(*args):
            raise AssertionError("load_split read frames")
        monkeypatch.setattr(pp, "tensor_from_bytes", no_frames)
        rows = pp.load_split(manifest, "train")
        assert rows == [(str(tmp_path / "c0.castclip"), 0), (str(tmp_path / "c2.castclip"), 0)]

    def test_split_without_rows_falls_back_to_all(self, tmp_path):
        manifest = self._dataset(tmp_path)
        assert [label for _, label in pp.load_split(manifest, "test")] == [0, 1, 0]

    @pytest.mark.parametrize("damage", ["bad_magic", "truncated", "trailing", "version",
                                        "label_5", "label_0x80", "label_0xf9",
                                        "tensor_magic", "channels"])
    def test_structural_damage_names_the_clip(self, tmp_path, damage):
        manifest = self._dataset(tmp_path)
        path = tmp_path / "c2.castclip"
        buf = bytearray(path.read_bytes())
        tensor_at = buf.index(T.TENSOR_MAGIC)
        if damage == "bad_magic":
            buf[0] = ord("Z")
        elif damage == "truncated":
            del buf[-1]
        elif damage == "trailing":
            buf += b"\0"
        elif damage == "version":
            buf[8] = 9
        elif damage.startswith("label_"):
            buf[10] = int(damage[6:], 0)  # the label i8 follows magic and version
        elif damage == "tensor_magic":
            buf[tensor_at] = ord("Z")
        else:  # dims (2,3,4,4) -> (2,4,3,4): the same payload size, 4 channels
            struct.pack_into("<4Q", buf, tensor_at + 12, 2, 4, 3, 4)
        path.write_bytes(bytes(buf))
        with pytest.raises(FormatError):
            pp.read_clip(path)
        with pytest.raises(FormatError, match="c2.castclip: "):
            pp.load_split(manifest, "train")

    def test_longest_source_id_passes(self, tmp_path):
        manifest = self._dataset(tmp_path, source_id="x" * 0xFFFF)
        assert len(pp.load_split(manifest, "train")) == 2
        path = tmp_path / "c0.castclip"
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FormatError, match="truncated tensor payload"):
            pp.load_split(manifest, "train")


class TestManifest:
    def test_round_trip(self, tmp_path):
        records = [pp.ClipRecord("train/c0.castclip", 1, "train"),
                   pp.ClipRecord("val/c1.castclip", 0, "val")]
        path = tmp_path / "manifest.tsv"
        pp.write_manifest(path, records)
        back = pp.read_manifest(path)
        assert back == records

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_text("a.castclip\t1\n")
        with pytest.raises(FormatError):
            pp.read_manifest(path)
        path.write_text("a.castclip\t2\ttrain\n")
        with pytest.raises(FormatError):
            pp.read_manifest(path)

    def test_non_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"a\xff.castclip\t1\ttrain\n")
        with pytest.raises(FormatError, match="UTF-8"):
            pp.read_manifest(path)

    def test_crlf_lines_read_like_lf(self, tmp_path):
        path = tmp_path / "manifest.tsv"
        path.write_bytes(b"a.castclip\t1\ttrain\r\nb.castclip\t0\tval\r\n")
        assert pp.read_manifest(path) == [pp.ClipRecord("a.castclip", 1, "train"),
                                          pp.ClipRecord("b.castclip", 0, "val")]
