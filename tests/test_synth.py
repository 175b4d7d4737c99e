"""Synthetic clip generator: determinism, artifact locality and structure,
dataset assembly, distribution shifts, and the no-signal sanity floor."""

import hashlib
import itertools

import numpy as np
import pytest

from castnet import synth
from castnet.errors import ConfigError, InvalidRegion
from castnet.preprocess import clip_to_bytes, read_clip, read_manifest


def small_cfg(**kw):
    defaults = dict(n_train=10, n_val=4, n_test=4, frames=8, h=16, w=16,
                    fake_fraction=0.5, base_seed=7)
    defaults.update(kw)
    return synth.SynthConfig(**defaults)


class TestGenerateClip:
    def test_deterministic(self):
        spec = synth.ArtifactSpec()
        a = synth.generate_clip(123, 1, spec, frames=6, h=16, w=16)
        b = synth.generate_clip(123, 1, spec, frames=6, h=16, w=16)
        assert np.array_equal(a.frames.data, b.frames.data)
        assert a.source_id == b.source_id

    def test_fake_differs_only_inside_region(self):
        spec = synth.ArtifactSpec(kind="flicker", amplitude=0.5)
        real = synth.generate_clip(55, 0, spec, frames=6, h=32, w=32)
        fake = synth.generate_clip(55, 1, spec, frames=6, h=32, w=32)
        diff = np.abs(fake.frames.data - real.frames.data)
        px0, py0, px1, py1 = synth.region_pixels(spec.region, 32, 32)
        inside = diff[:, :, py0:py1, px0:px1]
        outside = diff.copy()
        outside[:, :, py0:py1, px0:px1] = 0.0
        assert inside.mean() > 0
        assert np.all(outside == 0.0)

    def test_warp_and_seam_stay_inside_region(self):
        for kind in ("warp", "texture_seam", "combined"):
            spec = synth.ArtifactSpec(kind=kind, amplitude=0.3)
            real = synth.generate_clip(56, 0, spec, frames=6)
            fake = synth.generate_clip(56, 1, spec, frames=6)
            diff = np.abs(fake.frames.data - real.frames.data)
            px0, py0, px1, py1 = synth.region_pixels(spec.region, 32, 32)
            diff[:, :, py0:py1, px0:px1] = 0.0
            assert np.all(diff == 0.0), kind

    def test_flicker_alternates_with_period_two(self):
        spec = synth.ArtifactSpec(kind="flicker", amplitude=0.25, period=2)
        fake = synth.generate_clip(99, 1, spec, frames=16)
        px0, py0, px1, py1 = synth.region_pixels(spec.region, 32, 32)
        series = fake.frames.data[:, :, py0:py1, px0:px1].mean(axis=(1, 2, 3))
        centered = series - series.mean()

        def autocorr(lag):
            return float(np.dot(centered[:-lag], centered[lag:])
                         / np.dot(centered, centered))

        lags = {lag: autocorr(lag) for lag in (1, 2, 3, 4)}
        assert max(lags, key=lags.get) == 2
        assert lags[2] > 0.5
        assert lags[1] < 0.0  # adjacent frames anti-correlate

    @pytest.mark.parametrize("h,w", [(1, 32), (32, 1), (1, 1), (0, 8), (8, 0)])
    def test_degenerate_frame_size_rejected(self, h, w):
        # h=1 or w=1 divided by zero, and h=0 or w=0 gave empty clips
        with pytest.raises(ConfigError, match="h >= 2 and w >= 2"):
            synth.generate_clip(1, 0, synth.ArtifactSpec(), 4, h, w)
        with pytest.raises(ConfigError, match="h >= 2 and w >= 2"):
            small_cfg(h=h, w=w).validate()

    @pytest.mark.parametrize("label", [1.7, 1.0, -1, 2, 300, True, False, "1", None])
    def test_label_must_be_int_zero_or_one(self, label):
        # 1.7 gave a clip labelled 1 with no artifact, -1 an unlabelled clip
        with pytest.raises(ConfigError, match="label must be"):
            synth.generate_clip(1, label, synth.ArtifactSpec(), 4, 8, 8)

    @pytest.mark.parametrize("label", [0, 1])
    def test_numpy_integer_labels_accepted(self, label):
        spec = synth.ArtifactSpec()
        want = clip_to_bytes(synth.generate_clip(5, label, spec, 4, 8, 8))
        for np_label in (np.int64(label), np.uint8(label)):
            assert clip_to_bytes(synth.generate_clip(5, np_label, spec, 4, 8, 8)) == want

    def test_region_must_fit_frame(self):
        spec = synth.ArtifactSpec(region=(0.49, 0.49, 0.51, 0.51))
        with pytest.raises(InvalidRegion):
            synth.generate_clip(1, 1, spec, frames=4, h=8, w=8)

    def test_every_accepted_spec_plants_something(self):
        # a fake clip with no artifact in it would be a label error
        accepted = rejected = 0
        for kind, style, region, (frames, h, w), period, amplitude in itertools.product(
                synth.ARTIFACT_KINDS, synth.BACKGROUND_STYLES,
                [synth.ArtifactSpec().region, (0.0, 0.0, 1.0, 1.0)],
                [(2, 2, 2), (3, 2, 5), (4, 8, 8), (4, 10, 14), (5, 16, 16), (4, 32, 32)],
                range(1, 6), [0.0, 0.05, 0.25, 0.6, 1.0, 4.0]):
            spec = synth.ArtifactSpec(kind=kind, amplitude=amplitude, region=region,
                                      period=period)
            try:
                fake = synth.generate_clip(31, 1, spec, frames, h, w, style)
            except (ConfigError, InvalidRegion):
                rejected += 1
                continue
            accepted += 1
            real = synth.generate_clip(31, 0, spec, frames, h, w, style)
            same = np.array_equal(fake.frames.data, real.frames.data)
            assert same == (kind == "none"), (kind, style, region, frames, h, w, period,
                                              amplitude)
        assert accepted > 1000 and rejected > 1000

    def test_warp_that_moves_no_pixel_rejected(self):
        # period 2: no column shift; a region under 5 pixels tall: no row shift
        # at amplitude 0.25. The fake equalled the real clip at 8x8 to 16x16.
        for h, w in [(8, 8), (10, 14), (16, 16)]:
            with pytest.raises(ConfigError, match="moves no pixel"):
                synth.generate_clip(3, 1, synth.ArtifactSpec(kind="warp"), 4, h, w)
            with pytest.raises(ConfigError, match="moves no pixel"):
                small_cfg(frames=4, h=h, w=w, artifact=synth.ArtifactSpec(kind="warp")).validate()
        small_cfg(frames=4, h=32, w=32, artifact=synth.ArtifactSpec(kind="warp")).validate()
        # a roll by the whole region is no roll either
        spec = synth.ArtifactSpec(kind="warp", amplitude=4.0, period=4)
        with pytest.raises(ConfigError, match="moves no pixel"):
            synth.generate_clip(3, 0, spec, 4, 32, 32)

    def test_invalid_artifact_configs(self):
        with pytest.raises(ConfigError):
            synth.ArtifactSpec(kind="sparkle").validate()
        with pytest.raises(ConfigError):
            synth.ArtifactSpec(kind="none", amplitude=0.1).validate()
        with pytest.raises(ConfigError, match="amplitude > 0"):
            synth.ArtifactSpec(kind="flicker", amplitude=0.0).validate()
        with pytest.raises(InvalidRegion):
            synth.ArtifactSpec(region=(0.5, 0.1, 0.4, 0.9)).validate()
        for region in [(0.1, 0.1, 0.9), (0.1, 0.1, 0.5, 0.5, 0.9)]:
            with pytest.raises(InvalidRegion):
                synth.ArtifactSpec(region=region).validate()


class TestGenerateDataset:
    def test_label_balance_exact(self, tmp_path):
        synth.generate_dataset(small_cfg(), tmp_path)
        records = read_manifest(tmp_path / "manifest.tsv")
        train = [r for r in records if r.split == "train"]
        assert sum(r.label for r in train) == 5

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = small_cfg()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth.generate_dataset(cfg, d1)
        synth.generate_dataset(cfg, d2)
        assert synth.dataset_checksum(d1) == synth.dataset_checksum(d2)
        assert (d1 / "manifest.tsv").read_bytes() == (d2 / "manifest.tsv").read_bytes()

    def test_gen_config_format(self, tmp_path):
        # one sorted key=value line per experiment-config [synth] key
        cfg = synth.SynthConfig(n_train=1, n_val=1, n_test=1)
        manifest = synth.generate_dataset(cfg, tmp_path)
        text = (tmp_path / "gen_config.txt").read_text(encoding="utf-8")
        assert text == manifest.config_snapshot == (
            "artifact_amplitude=0.25\nartifact_kind=flicker\nartifact_period=2\n"
            "artifact_region=0.28,0.32,0.72,0.56\nbackground_style=smooth_gradient\n"
            "base_seed=0\nfake_fraction=0.5\nframes=16\nh=32\nn_test=1\nn_train=1\n"
            "n_val=1\nw=32\n")

    def test_splits_disjoint_source_ids(self, tmp_path):
        synth.generate_dataset(small_cfg(), tmp_path)
        records = read_manifest(tmp_path / "manifest.tsv")
        by_split = {}
        for rec in records:
            clip = read_clip(tmp_path / rec.path)
            by_split.setdefault(rec.split, set()).add(clip.source_id)
        splits = list(by_split.values())
        for i in range(len(splits)):
            for j in range(i + 1, len(splits)):
                assert not (splits[i] & splits[j])

    def test_clip_labels_match_manifest(self, tmp_path):
        synth.generate_dataset(small_cfg(), tmp_path)
        for rec in read_manifest(tmp_path / "manifest.tsv"):
            assert read_clip(tmp_path / rec.path).label == rec.label

    def test_negative_base_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="base_seed"):
            synth.generate_dataset(small_cfg(base_seed=-1), tmp_path)


# SHA-256 digests of the generator's output (x86-64, numpy 2.4): any change
# to the drawing arithmetic or to the RNG draw order moves them, and so would
# a libm whose exp or sin rounds differently. Clips: seed 2024, label 1,
# amplitude 0.6 (0 for "none"), period 4, so that every artifact kind changes
# pixels at both shapes.
CLIP_DIGESTS = {
    ("none", "smooth_gradient", (4, 8, 8)):
        "3d4864410240b864d178fea3ce560be8d8bb3426d2d95f465905e98285e79f30",
    ("none", "smooth_gradient", (3, 10, 14)):
        "7d66b9d05f830abb44a6b01a02f6410cb84cc6b4ec286e9336efc87a816d5aeb",
    ("none", "blotchy", (4, 8, 8)):
        "9771c8e567d8bcd97927fde6f77be60273cd48a6956c26c41f8573514f7c8b54",
    ("none", "blotchy", (3, 10, 14)):
        "b3e5b4d8721dac62ce7694056ea954393752e97a4ba963202ff8ee0f376246cc",
    ("texture_seam", "smooth_gradient", (4, 8, 8)):
        "9569f507ff740e6a3562d8a709d9d50cb763b02011cf7edc3f92252cbdbca927",
    ("texture_seam", "smooth_gradient", (3, 10, 14)):
        "e06a4e1de5dc4f454504430c7453fa2af3d34fbaf6dc660dc676abb34724b5a2",
    ("texture_seam", "blotchy", (4, 8, 8)):
        "4c8f9edbfa49034573faaad56db58e0288a4b8d0d7a5543fb6db3e69cbea27b1",
    ("texture_seam", "blotchy", (3, 10, 14)):
        "88b622196c9d3365be27242ceccdae75d0ccd737c57a187f33af0468fb1d48b7",
    ("flicker", "smooth_gradient", (4, 8, 8)):
        "f5793414789b8e54a09feefae175694df08f0f9f807a64b9c03af346881dde71",
    ("flicker", "smooth_gradient", (3, 10, 14)):
        "310775552d7f76864dcbff7b7800668e7d811e1d90353da28b7bbfbe5d024cfd",
    ("flicker", "blotchy", (4, 8, 8)):
        "3dc0a055ea8faecbab4755cb4b6e339a98f0e5361a64b691644cb0cc06f444a0",
    ("flicker", "blotchy", (3, 10, 14)):
        "c06a704b684afbb8be76784707bb298c0eb5f61d725a6f5106da28796f9845d5",
    ("warp", "smooth_gradient", (4, 8, 8)):
        "e3055bc8ce7456f17b33fb2c5d60c4699454d64c223ac2097619d04b2dfc648b",
    ("warp", "smooth_gradient", (3, 10, 14)):
        "105bf907ba31fbd904ac1b81ef6012960d06c79054fa427b802e7d7f7c27618f",
    ("warp", "blotchy", (4, 8, 8)):
        "1d7b7f2d0179108719a713e99afed4c3d010f71f7176a11a8ad4272644c4a6df",
    ("warp", "blotchy", (3, 10, 14)):
        "4aeee6e3e48aeec81c5c174eaebc9b1b7f5d2a59384548d501f26e1bcdc21f15",
    ("combined", "smooth_gradient", (4, 8, 8)):
        "94938ad1d69e10cdd8bfe0651facaf9e2e00267063b4e07f724a8fbca61cf9e2",
    ("combined", "smooth_gradient", (3, 10, 14)):
        "03550e8a77a5182e46ed3444d68b2266228192f843e1785d3a773682218962f5",
    ("combined", "blotchy", (4, 8, 8)):
        "35a8c0968dd1aa2ebf3acebe6aab77ec80c75e478bc2eea389a8e1e01db8df8c",
    ("combined", "blotchy", (3, 10, 14)):
        "af1e5ceb11d0cb618de4ab2fe47aae02e95165b529b2319c58be3fcecdd5071a",
}
DATASET_DIGEST = "09d587a2eefe86b42f7fc894a461be0b5203749e7c8987ff359afacad52fd3be"


class TestPinnedBytes:
    @pytest.mark.parametrize("kind,style,shape", sorted(CLIP_DIGESTS))
    def test_clip_bytes(self, kind, style, shape):
        spec = synth.ArtifactSpec(kind=kind, amplitude=0.0 if kind == "none" else 0.6,
                                  period=4)
        clip = synth.generate_clip(2024, 1, spec, *shape, background_style=style)
        digest = hashlib.sha256(clip_to_bytes(clip)).hexdigest()
        assert digest == CLIP_DIGESTS[kind, style, shape]

    def test_dataset_bytes(self, tmp_path):
        cfg = small_cfg(background_style="blotchy",
                        artifact=synth.ArtifactSpec(kind="combined"))
        synth.generate_dataset(cfg, tmp_path)
        assert synth.dataset_checksum(tmp_path) == DATASET_DIGEST


class TestShiftedVariant:
    def test_identity_shift_keeps_dataset(self, tmp_path):
        cfg = small_cfg()
        shifted = synth.shifted_variant(cfg, synth.ShiftSpec())
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth.generate_dataset(cfg, d1)
        synth.generate_dataset(shifted, d2)
        assert synth.dataset_checksum(d1) == synth.dataset_checksum(d2)

    def test_half_amplitude_halves_artifact_energy(self):
        base = synth.ArtifactSpec(kind="flicker", amplitude=0.25)
        cfg = small_cfg(artifact=base)
        shifted = synth.shifted_variant(cfg, synth.ShiftSpec(amplitude_scale=0.5))
        assert shifted.artifact.amplitude == 0.125

        def energy(spec, seed):
            real = synth.generate_clip(seed, 0, spec, frames=8)
            fake = synth.generate_clip(seed, 1, spec, frames=8)
            px0, py0, px1, py1 = synth.region_pixels(spec.region, 32, 32)
            diff = np.abs(fake.frames.data - real.frames.data)
            return diff[:, :, py0:py1, px0:px1].mean()

        ratios = [energy(shifted.artifact, s) / energy(cfg.artifact, s)
                  for s in range(5)]
        assert abs(np.mean(ratios) - 0.5) < 0.05

    def test_background_change_shifts_pixel_statistics(self):
        spec = synth.ArtifactSpec(kind="none", amplitude=0.0)
        smooth = np.concatenate([
            synth.generate_clip(s, 0, spec, frames=4, background_style="smooth_gradient")
            .frames.data.ravel() for s in range(6)])
        blotchy = np.concatenate([
            synth.generate_clip(s, 0, spec, frames=4, background_style="blotchy")
            .frames.data.ravel() for s in range(6)])
        # two-sample KS statistic by hand
        allv = np.sort(np.concatenate([smooth, blotchy]))
        cdf_a = np.searchsorted(np.sort(smooth), allv, side="right") / smooth.size
        cdf_b = np.searchsorted(np.sort(blotchy), allv, side="right") / blotchy.size
        ks = np.abs(cdf_a - cdf_b).max()
        assert ks > 0.1

    def test_region_jitter_moves_region(self):
        cfg = small_cfg()
        shifted = synth.shifted_variant(cfg, synth.ShiftSpec(region_jitter=0.05))
        x0, y0, x1, y1 = shifted.artifact.region
        bx0, by0, bx1, by1 = cfg.artifact.region
        assert (x0, y0) != (bx0, by0)
        assert abs((x1 - x0) - (bx1 - bx0)) < 1e-12  # size preserved

    def test_invalid_scale(self):
        with pytest.raises(ConfigError):
            synth.shifted_variant(small_cfg(), synth.ShiftSpec(amplitude_scale=0.0))


class TestSanityFloor:
    def test_linear_probe_cannot_separate_zero_amplitude(self):
        """With no artifact, labels are independent of pixels; a ridge probe
        on raw pixels must score chance-level AUC on held-out clips."""
        spec = synth.ArtifactSpec(kind="none", amplitude=0.0)
        n_train, n_test = 120, 150

        def make(n, seed0):
            xs, ys = [], []
            for i in range(n):
                label = i % 2
                clip = synth.generate_clip(seed0 + i, label, spec, frames=4,
                                           h=16, w=16)
                xs.append(clip.frames.data.mean(axis=0).ravel())
                ys.append(label)
            return np.array(xs), np.array(ys)

        xtr, ytr = make(n_train, 10_000)
        xte, yte = make(n_test, 20_000)
        # dual-form ridge regression on +-1 targets
        t = 2.0 * ytr - 1.0
        gram = xtr @ xtr.T + 1e-3 * n_train * np.eye(n_train)
        alpha = np.linalg.solve(gram, t)
        scores = xte @ (xtr.T @ alpha)
        pos, neg = scores[yte == 1], scores[yte == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        auc = wins / (len(pos) * len(neg))
        assert abs(auc - 0.5) < 0.05
