"""Synthetic clip generator: determinism, artifact locality and structure,
dataset assembly, distribution shifts, and the no-signal sanity floor."""

import numpy as np
import pytest

from castnet import synth
from castnet.errors import ConfigError, InvalidRegion
from castnet.preprocess import read_clip, read_manifest


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

    def test_region_must_fit_frame(self):
        spec = synth.ArtifactSpec(region=(0.49, 0.49, 0.51, 0.51))
        with pytest.raises(InvalidRegion):
            synth.generate_clip(1, 1, spec, frames=4, h=8, w=8)

    def test_invalid_artifact_configs(self):
        with pytest.raises(ConfigError):
            synth.ArtifactSpec(kind="sparkle").validate()
        with pytest.raises(ConfigError):
            synth.ArtifactSpec(kind="none", amplitude=0.1).validate()
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
