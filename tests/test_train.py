"""Loss contract, Adam semantics (including loss scaling), the training
loop, and the metric computations."""

import importlib
import weakref
from dataclasses import replace

import numpy as np
import pytest

from castnet import metrics
from castnet import model as M
from castnet import preprocess as pp
from castnet import synth
from castnet import tensor as T
from castnet.errors import (
    ConfigError,
    DegenerateEval,
    DivergenceError,
    EmptyEval,
    ShapeMismatch,
)
from castnet.train import (
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    bce_with_logits,
    train,
)
from conftest import tiny_model_cfg, tiny_synth_cfg


def per_clip_scores(params, cfg, paths, mode):
    """The reference scorer: one forward per clip, outside score_clips."""
    with T.no_grad():
        return [float(metrics.clip_scores(M.forward(pp.read_clip(p), params, cfg), mode)[0])
                for p in paths]


@pytest.fixture(scope="module")
def mixed_sizes(tmp_path_factory):
    """A manifest whose val and test rows interleave 8x8 and 16x16 clips:
    two 8x8 rows, then one 16x16 row, and again."""
    root = tmp_path_factory.mktemp("mixed")
    small = synth.generate_dataset(tiny_synth_cfg(n_val=6, n_test=8), root / "s8")
    large = synth.generate_dataset(
        tiny_synth_cfg(n_train=1, n_val=3, n_test=4, h=16, w=16, base_seed=12),
        root / "s16")
    records = []
    for split in ("val", "test"):
        a = [replace(r, path=f"s8/{r.path}") for r in small.records if r.split == split]
        b = [replace(r, path=f"s16/{r.path}") for r in large.records if r.split == split]
        for k, row in enumerate(b):
            records += a[2 * k:2 * k + 2] + [row]
    pp.write_manifest(root / "mixed.tsv", records)
    return {"dir": root, "manifest": root / "mixed.tsv", "records": records,
            "train_manifest": small.manifest_path}


@pytest.fixture(autouse=True)
def fresh_graph():
    T.reset_graph()
    yield
    T.reset_graph()


class TestBceWithLogits:
    def test_symmetry_point(self):
        assert abs(bce_with_logits(0.0, 1) - np.log(2.0)) < 1e-12

    def test_confident_wrong_fixture(self):
        expected = np.log1p(np.exp(-2.0)) + 2.0
        assert abs(bce_with_logits(2.0, 0) - expected) < 1e-12
        assert abs(bce_with_logits(2.0, 0) - 2.126928) < 1e-6

    def test_finite_at_extreme_logits(self):
        for z in (1e4, -1e4):
            for y in (0, 1):
                assert np.isfinite(bce_with_logits(z, y))
        assert bce_with_logits(1e4, 1) < 1e-12

    def test_matches_naive_sigmoid_form(self):
        # the naive form cancels catastrophically near |z|~17 in float64,
        # so the oracle runs in extended precision
        rng = np.random.default_rng(0)
        for z in rng.uniform(-20, 20, 200):
            for y in (0, 1):
                zl = np.longdouble(z)
                s = 1.0 / (1.0 + np.exp(-zl))
                naive = float(-(y * np.log(s) + (1 - y) * np.log(1 - s)))
                assert abs(bce_with_logits(z, y) - naive) < 1e-9

    def test_convex_in_logit(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = sorted(rng.uniform(-15, 15, 2))
            y = int(rng.integers(0, 2))
            mid = bce_with_logits((a + b) / 2.0, y)
            assert mid <= (bce_with_logits(a, y) + bce_with_logits(b, y)) / 2.0 + 1e-12

    def test_tensor_path_gradient_is_sigmoid_minus_label(self):
        for z0, y in ((0.7, 1), (-1.3, 0), (2.0, 1)):
            T.reset_graph()
            z = T.Tensor([z0], requires_grad=True)
            grads = T.backward(bce_with_logits(z, y))
            expected = 1.0 / (1.0 + np.exp(-z0)) - y
            np.testing.assert_allclose(grads.of(z).data, [expected], atol=1e-12)

    def test_label_validated(self):
        with pytest.raises(ConfigError):
            bce_with_logits(0.0, 2)


def _grad_map_for(params, arrays):
    gm = T.GradientMap()
    for p, arr in zip(params, arrays):
        gm[p.node_id] = T.Tensor(arr)
    return gm


@pytest.mark.parametrize("make", [
    lambda: TrainConfig(lr=np.nan).validate(),
    lambda: TrainConfig(loss_scale=np.nan).validate(),
    lambda: TrainConfig(weight_decay=np.nan).validate(),
    lambda: synth.ArtifactSpec(amplitude=np.nan).validate(),
    lambda: synth.shifted_variant(tiny_synth_cfg(), synth.ShiftSpec(amplitude_scale=np.nan)),
], ids=["lr", "loss_scale", "weight_decay", "amplitude", "amplitude_scale"])
def test_nan_fails_validation(make):
    with pytest.raises(ConfigError):
        make()


class TestAdamStep:
    def test_zero_gradient_no_movement(self):
        p = T.Tensor([1.0, -2.0], requires_grad=True)
        state = AdamState()
        cfg = TrainConfig(weight_decay=0.0)
        applied = adam_step([p], _grad_map_for([p], [np.zeros(2)]), state, cfg)
        assert applied
        assert state.step_count == 1
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        m, v = state.moments[p.node_id]
        np.testing.assert_array_equal(m, 0.0)
        np.testing.assert_array_equal(v, 0.0)

    def test_first_step_closed_form(self):
        g = np.array([0.3, -1.7, 4.0])
        p = T.Tensor([1.0, 1.0, 1.0], requires_grad=True)
        state = AdamState()
        cfg = TrainConfig(lr=1e-4, weight_decay=0.0)
        adam_step([p], _grad_map_for([p], [g.copy()]), state, cfg)
        expected = 1.0 - cfg.lr * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(p.data, expected, atol=1e-15)
        # every coordinate moved by ~ lr in the direction opposing g
        np.testing.assert_allclose(np.abs(1.0 - p.data), cfg.lr, rtol=1e-6)

    def test_weight_decay_pulls_toward_zero(self):
        p = T.Tensor([10.0], requires_grad=True)
        state = AdamState()
        cfg = TrainConfig(lr=1e-2, weight_decay=0.1)
        adam_step([p], _grad_map_for([p], [np.zeros(1)]), state, cfg)
        assert p.data[0] < 10.0

    def test_non_finite_gradient_skips_update(self):
        p = T.Tensor([1.0], requires_grad=True)
        state = AdamState()
        state.step_count = 5
        cfg = TrainConfig()
        applied = adam_step([p], _grad_map_for([p], [np.array([np.nan])]), state, cfg)
        assert not applied
        assert state.step_count == 5
        assert not state.moments
        np.testing.assert_array_equal(p.data, [1.0])

    def test_unscale_divides_before_moments(self):
        g = np.array([0.5])
        runs = []
        for scale in (1.0, 1024.0):
            p = T.Tensor([1.0], requires_grad=True)
            state = AdamState()
            cfg = TrainConfig(loss_scale=scale, weight_decay=0.0)
            for step in range(3):
                adam_step([p], _grad_map_for([p], [g * scale]), state, cfg)
            runs.append(p.data.copy())
        np.testing.assert_allclose(runs[0], runs[1], atol=1e-12)

    def test_shape_mismatch(self):
        p = T.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeMismatch):
            adam_step([p], _grad_map_for([p], [np.zeros(3)]), AdamState(), TrainConfig())

    def test_tensor_without_grad_rejected(self):
        p = T.Tensor([1.0])
        with pytest.raises(ConfigError, match="requires_grad"):
            adam_step([p], T.GradientMap(), AdamState(), TrainConfig())


class TestAccuracy:
    def test_hand_counted_fixture(self):
        tp, tn, fp, fn, acc = metrics.accuracy(
            [0.9, 0.8, 0.6, 0.4, 0.2, 0.1], [1, 1, 1, 1, 0, 0])
        assert (tp, fn, tn, fp) == (3, 1, 2, 0)
        assert abs(acc - 5.0 / 6.0) < 1e-12

    def test_perfect_split(self):
        _, _, _, _, acc = metrics.accuracy([0.9, 0.1], [1, 0])
        assert acc == 1.0

    def test_tie_classifies_positive(self):
        tp, tn, fp, fn, _ = metrics.accuracy([0.5, 0.5], [1, 0])
        assert (tp, fp) == (1, 1)
        assert (tn, fn) == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEval):
            metrics.accuracy([], [])

    def test_length_mismatch_names_both_lengths(self):
        with pytest.raises(ShapeMismatch, match="3 scores for 2 labels"):
            metrics.accuracy([0.1, 0.9, 0.5], [0, 1])

    def test_invariant_under_monotone_transform_fixing_half(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0, 1, 60)
        labels = rng.integers(0, 2, 60)
        labels[0], labels[1] = 0, 1
        base = metrics.accuracy(scores, labels)
        warped = 0.5 + (scores - 0.5) ** 3 * 4.0  # strictly increasing, fixes 0.5
        assert metrics.accuracy(warped, labels) == base


def mann_whitney_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (2 * wins + ties) / (2 * len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        _, auc = metrics.roc_auc([0.9, 0.8, 0.4, 0.3], [1, 1, 0, 0])
        assert auc == 1.0

    def test_three_quarters_fixture(self):
        _, auc = metrics.roc_auc([0.9, 0.3, 0.8, 0.4], [1, 0, 0, 1])
        assert auc == 0.75

    def test_all_tied_scores(self):
        _, auc = metrics.roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert auc == 0.5

    def test_exact_match_with_pairwise_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 101))
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 1, 0  # both classes present
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, n), 2)
            _, auc = metrics.roc_auc(scores, labels)
            assert auc == mann_whitney_oracle(scores, labels)

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(23)
        scores = rng.uniform(0, 1, 50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        points, _ = metrics.roc_auc(scores, labels)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateEval):
            metrics.roc_auc([0.4, 0.6], [1, 1])

    @pytest.mark.parametrize("scores,labels", [([0.1, 0.9], [0, 1, 1]),
                                               ([0.1, 0.9, 0.5], [0, 1])])
    def test_length_mismatch_names_both_lengths(self, scores, labels):
        with pytest.raises(ShapeMismatch, match=f"{len(scores)} scores for {len(labels)} labels"):
            metrics.roc_auc(scores, labels)

    def test_invariant_under_strictly_increasing_transform(self):
        rng = np.random.default_rng(29)
        scores = rng.uniform(0, 1, 80)
        labels = rng.integers(0, 2, 80)
        labels[:2] = [0, 1]
        _, base = metrics.roc_auc(scores, labels)
        _, warped = metrics.roc_auc(2 * scores - scores ** 2, labels)
        assert warped == base


class TestTrainLoop:
    def test_single_epoch_artifacts(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=0)
        res = train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                    tiny_dataset["manifest"], cfg, tmp_path / "run")
        assert len(res.history) == 1
        assert res.best_epoch == 1
        assert (tmp_path / "run" / "best.ckpt").exists()
        assert (tmp_path / "run" / "history.tsv").exists()
        header = (tmp_path / "run" / "history.tsv").read_text().splitlines()[0]
        assert header == "epoch\ttrain_loss\tval_loss\tval_auc"

    def test_fixed_seed_bitwise_deterministic(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=3)
        res1 = train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                     tiny_dataset["manifest"], cfg, tmp_path / "a")
        res2 = train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                     tiny_dataset["manifest"], cfg, tmp_path / "b")
        h1 = (tmp_path / "a" / "history.tsv").read_bytes()
        h2 = (tmp_path / "b" / "history.tsv").read_bytes()
        assert h1 == h2
        c1 = (tmp_path / "a" / "best.ckpt").read_bytes()
        c2 = (tmp_path / "b" / "best.ckpt").read_bytes()
        assert c1 == c2
        assert res1.best_epoch == res2.best_epoch

    def test_checkpoint_saved_only_on_strict_improvement(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=1)
        res = train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                    tiny_dataset["manifest"], cfg, tmp_path / "run")
        best = min(r.val_loss for r in res.history)
        assert res.best_val_loss == best
        first_best = next(r.epoch for r in res.history if r.val_loss == best)
        assert res.best_epoch == first_best

    def test_divergence_raises_exit_contract(self, tiny_dataset, tmp_path):
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=0, lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError):
            train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                  tiny_dataset["manifest"], cfg, tmp_path / "run")

    def test_no_checkpoint_raises_after_history(self, tiny_dataset, tmp_path):
        # one epoch: a finite first batch loss, then weights that overflow,
        # so the epoch's validation loss is not finite and nothing is saved
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=0, lr=1e200)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="no checkpoint"):
            train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                  tiny_dataset["manifest"], cfg, tmp_path / "run")
        assert not (tmp_path / "run" / "best.ckpt").exists()
        rows = (tmp_path / "run" / "history.tsv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].split("\t")[2] == "nan"

    def test_non_finite_gradients_every_step_raise(self, tiny_dataset, tmp_path,
                                                   nan_gradients):
        # finite losses, but every Adam step is skipped: nothing trains
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=0)
        with pytest.raises(DivergenceError, match="no Adam step"):
            train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                  tiny_dataset["manifest"], cfg, tmp_path / "run")
        assert not (tmp_path / "run" / "best.ckpt").exists()

    def test_val_manifest_of_mixed_frame_sizes(self, mixed_sizes, tmp_path):
        cfg = TrainConfig(max_epochs=1, batch_size=4, seed=0)
        model_cfg = tiny_model_cfg()
        res = train(model_cfg, mixed_sizes["train_manifest"], mixed_sizes["manifest"],
                    cfg, tmp_path / "run")
        val = [r for r in mixed_sizes["records"] if r.split == "val"]
        with T.no_grad():
            logits = [M.forward(pp.read_clip(mixed_sizes["dir"] / r.path), res.params,
                                model_cfg).clip_logit.item() for r in val]
        expected = np.mean([bce_with_logits(z, r.label) for z, r in zip(logits, val)])
        assert res.history[0].val_loss == pytest.approx(expected, rel=1e-12, abs=0)

    def test_holds_at_most_batch_size_clips(self, tiny_dataset, tmp_path, monkeypatch):
        refs, live = [], []

        def counting_read(path):
            clip = pp.read_clip(path)
            refs.append(weakref.ref(clip))
            live.append(sum(r() is not None for r in refs))
            return clip
        # the package's `train` attribute is the function, not the module
        monkeypatch.setattr(importlib.import_module("castnet.train"), "read_clip",
                            counting_read)
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=0)
        train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
              tiny_dataset["manifest"], cfg, tmp_path / "run")
        # each epoch reads the 12 train clips in steps of 4, then the 6 val clips
        assert len(live) == 2 * (12 + 6) and max(live) == 4

    def test_step_gradients_freed_before_next_backward(self, tiny_dataset, tmp_path,
                                                        monkeypatch):
        refs = []
        real = T.backward

        def watched(loss):
            assert all(r() is None for r in refs), "an earlier step's gradients are alive"
            grads = real(loss)
            refs.append(weakref.ref(grads))
            return grads
        monkeypatch.setattr(T, "backward", watched)
        cfg = TrainConfig(max_epochs=2, batch_size=4, seed=0)
        train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
              tiny_dataset["manifest"], cfg, tmp_path / "run")
        assert len(refs) == 2 * 3  # 12 train clips in steps of 4, two epochs

    def test_loss_scale_invariance(self, tiny_dataset, tmp_path):
        results = []
        for scale in (1.0, 1024.0):
            cfg = TrainConfig(max_epochs=3, batch_size=4, seed=5, loss_scale=scale)
            res = train(tiny_dataset["model_cfg"], tiny_dataset["manifest"],
                        tiny_dataset["manifest"], cfg, tmp_path / f"s{int(scale)}")
            results.append(res.params.named_parameters())
        for name in results[0]:
            np.testing.assert_allclose(results[0][name].data, results[1][name].data,
                                       atol=1e-9, err_msg=name)


class TestEvaluate:
    def test_zero_classifier_scores_half(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=9)
        params.classifier.weight.data[:] = 0.0
        params.classifier.bias.data[:] = 0.0
        ckpt = tmp_path / "zero.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        report = metrics.evaluate(ckpt, tiny_dataset["manifest"])
        assert all(s == 0.5 for s in report.scores)
        assert report.auc == 0.5
        assert report.tp + report.fp == report.n_videos  # ties classify positive

    def test_reports_are_reproducible(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=10)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        r1 = metrics.evaluate(ckpt, tiny_dataset["manifest"])
        r2 = metrics.evaluate(ckpt, tiny_dataset["manifest"])
        assert r1.scores == r2.scores
        assert r1.auc == r2.auc

    def test_uses_test_split_of_mixed_manifest(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=11)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        report = metrics.evaluate(ckpt, tiny_dataset["manifest"])
        assert report.n_videos == 6  # n_test of the tiny dataset

    def test_scores_match_per_clip_forwards(self, tmp_path):
        # more test clips than EVAL_BATCH, so a chunk boundary is crossed
        n_test = 2 * metrics.EVAL_BATCH + 3
        data = synth.generate_dataset(tiny_synth_cfg(n_train=1, n_val=1, n_test=n_test),
                                      tmp_path / "data")
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=12)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        paths = [tmp_path / "data" / r.path for r in data.records if r.split == "test"]
        report = metrics.evaluate(ckpt, data.manifest_path, "frame_mean")
        assert report.scores == per_clip_scores(params, cfg, paths, "frame_mean")
        report = metrics.evaluate(ckpt, data.manifest_path, "clip")
        assert report.scores == per_clip_scores(params, cfg, paths, "clip")

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_clip_scores_do_not_depend_on_batch(self, variant):
        cfg = M.CastConfig(variant=variant)
        params = M.init_cast_params(cfg, seed=16)
        clips = [synth.generate_clip(i, i % 2, synth.ArtifactSpec()) for i in range(8)]
        one = metrics.score_clips(clips, params, cfg, "clip", batch_size=1)
        eight = metrics.score_clips(clips, params, cfg, "clip", batch_size=8)
        assert one == eight

    def test_mixed_frame_sizes_keep_manifest_order(self, mixed_sizes, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=14)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        rows = [r for r in mixed_sizes["records"] if r.split == "test"]
        report = metrics.evaluate(ckpt, mixed_sizes["manifest"])
        paths = [mixed_sizes["dir"] / r.path for r in rows]
        assert report.scores == per_clip_scores(params, cfg, paths, cfg.eval_logit_mode)
        assert report.labels == [r.label for r in rows]

    def test_holds_at_most_eval_batch_clips(self, tiny_dataset, tmp_path, monkeypatch):
        cfg = tiny_model_cfg()
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, M.init_cast_params(cfg, seed=15))
        refs, live = [], []

        def counting_read(path):
            clip = pp.read_clip(path)
            refs.append(weakref.ref(clip))
            live.append(sum(r() is not None for r in refs))
            return clip
        monkeypatch.setattr(metrics, "read_clip", counting_read)
        monkeypatch.setattr(metrics, "EVAL_BATCH", 4)
        metrics.evaluate(ckpt, tiny_dataset["manifest"])
        assert len(live) == 6 and max(live) <= 4

    def test_mode_override(self, tiny_dataset, tmp_path):
        cfg = tiny_model_cfg()
        params = M.init_cast_params(cfg, seed=13)
        ckpt = tmp_path / "m.ckpt"
        M.save_checkpoint(ckpt, cfg, params)
        frame = metrics.evaluate(ckpt, tiny_dataset["manifest"], "frame_mean")
        clip = metrics.evaluate(ckpt, tiny_dataset["manifest"], "clip")
        assert frame.scores != clip.scores  # sigmoid nonlinearity separates modes
