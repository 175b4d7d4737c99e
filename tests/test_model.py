"""Architecture-level contracts: token computation, encoding, fusion,
variants, classification linearity, and checkpoint round trips."""

import hashlib
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from castnet import kvtext
from castnet import model as M
from castnet import nn, seeding, synth
from castnet import tensor as T
from castnet.errors import CheckpointError, ConfigError, FormatError
from castnet.preprocess import FrameClip
from castnet.train import bce_with_logits


def tiny_cfg(**kw):
    defaults = dict(backbone_channels=(4, 8), d=8, encoder_layers=1, heads=2,
                    ffn_dim=16, fusion_heads=2, dropout=0.3, clip_len=2)
    defaults.update(kw)
    return M.CastConfig(**defaults)


def make_clip(cfg, seed=0, h=8, w=8, label=1):
    frames = T.uniform((cfg.clip_len, 3, h, w), -1, 1, seed=seed)
    return FrameClip(frames=frames, label=label, source_id=f"clip-{seed}")


class TestConfig:
    def test_round_trip_text(self):
        cfg = tiny_cfg(variant="multi_scale", eval_logit_mode="clip")
        back = kvtext.decode(M.CastConfig, kvtext.encode(cfg), "<ckpt>")
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            kvtext.decode(M.CastConfig, "wibble=3\n", "<ckpt>")

    @pytest.mark.parametrize("line", ["d=x", "dropout=abc", "backbone_channels=4,x",
                                      "backbone_channels="])
    def test_non_numeric_value_names_key(self, line):
        key = line.split("=")[0]
        with pytest.raises(ConfigError, match=f"'{key}'"):
            kvtext.decode(M.CastConfig, kvtext.encode(tiny_cfg()) + line + "\n", "<ckpt>")

    def test_no_projection_requires_matching_dims(self):
        with pytest.raises(ConfigError):
            tiny_cfg(variant="no_projection", d=16).validate()
        tiny_cfg(variant="no_projection", d=8).validate()  # C == 8 passes

    def test_head_divisibility(self):
        with pytest.raises(ConfigError):
            tiny_cfg(heads=3).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(fusion_heads=3).validate()


class TestBackbone:
    def test_downsampling_shape(self):
        cfg = M.CastConfig(clip_len=2)
        params = M.init_cast_params(cfg, seed=0)
        frames = T.uniform((2, 3, 32, 32), -1, 1, seed=1)
        out = M.backbone_stages(frames, params.backbone)[-1]
        assert out.shape == (2, 64, 4, 4)

    def test_zero_input_zero_bias_gives_zero_maps(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=0)
        frames = T.zeros((2, 3, 8, 8))
        out = M.backbone_stages(frames, params.backbone)[-1]
        np.testing.assert_array_equal(out.data, 0.0)

    def test_indivisible_dims_rejected(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=0)
        with pytest.raises(ConfigError):
            M.forward(make_clip(cfg, h=10, w=10), params, cfg)

    def test_per_frame_independence_under_permutation(self):
        cfg = tiny_cfg(clip_len=4)
        params = M.init_cast_params(cfg, seed=0)
        frames = T.uniform((4, 3, 8, 8), -1, 1, seed=2)
        out = M.backbone_stages(frames, params.backbone)[-1].data
        perm = [2, 0, 3, 1]
        out_p = M.backbone_stages(T.Tensor(frames.data[perm]), params.backbone)[-1].data
        np.testing.assert_array_equal(out_p, out[perm])


class TestTokens:
    def test_spatial_tokens_per_site_oracle(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=3)
        fmaps = T.uniform((2, 8, 2, 2), -1, 1, seed=4)
        s = M.spatial_tokens(fmaps, params.spatial_proj).data
        w = params.spatial_proj.weight.data
        b = params.spatial_proj.bias.data
        for i in range(2):
            for j in range(4):
                fiber = fmaps.data[i, :, j // 2, j % 2]
                np.testing.assert_allclose(s[i, j], w @ fiber + b, atol=1e-12)

    def test_spatial_tokens_identity_projection(self):
        proj = nn.PointwiseProj(weight=T.Tensor(np.eye(8)), bias=T.zeros((8,)))
        fmaps = T.uniform((2, 8, 2, 2), -1, 1, seed=5)
        s = M.spatial_tokens(fmaps, proj).data
        for i in range(2):
            for j in range(4):
                np.testing.assert_allclose(s[i, j], fmaps.data[i, :, j // 2, j % 2],
                                           atol=1e-15)

    def test_spatial_tokens_single_site(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=3)
        fmaps = T.uniform((2, 8, 1, 1), -1, 1, seed=6)
        s = M.spatial_tokens(fmaps, params.spatial_proj)
        assert s.shape == (2, 1, 8)

    def test_temporal_tokens_constant_map(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=7)
        fmaps = T.Tensor(np.full((2, 8, 2, 2), 1.5))
        tt = M.temporal_tokens(fmaps, params.temporal_proj).data
        expected = params.temporal_proj.weight.data @ np.full(8, 1.5) \
            + params.temporal_proj.bias.data
        np.testing.assert_allclose(tt[0], expected, atol=1e-12)
        np.testing.assert_allclose(tt[1], expected, atol=1e-12)

    def test_temporal_tokens_composed_oracle(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=8)
        fmaps = T.uniform((3, 8, 2, 2), -1, 1, seed=9)
        tt = M.temporal_tokens(fmaps, params.temporal_proj).data
        for i in range(3):
            gap = fmaps.data[i].mean(axis=(1, 2))
            expected = params.temporal_proj.weight.data @ gap \
                + params.temporal_proj.bias.data
            np.testing.assert_allclose(tt[i], expected, atol=1e-12)

    def test_identical_frames_identical_tokens(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=8)
        one = T.uniform((1, 8, 2, 2), -1, 1, seed=10)
        fmaps = T.Tensor(np.repeat(one.data, 2, axis=0))
        tt = M.temporal_tokens(fmaps, params.temporal_proj).data
        np.testing.assert_array_equal(tt[0], tt[1])


class TestEncoder:
    def test_zero_layers_is_positional_add(self):
        t_seq = T.uniform((4, 8), -1, 1, seed=11)
        pos = T.uniform((4, 8), -1, 1, seed=12)
        z = M.encode_temporal(t_seq, pos, [], 0.3, "eval", seed=0)
        np.testing.assert_array_equal(z.data, t_seq.data + pos.data)

    def test_permutation_equivariance_with_zero_pos(self):
        cfg = tiny_cfg(clip_len=5)
        params = M.init_cast_params(cfg, seed=13)
        t_seq = T.uniform((5, 8), -1, 1, seed=14)
        zero_pos = T.zeros((5, 8))
        z = M.encode_temporal(t_seq, zero_pos, params.encoder, 0.0, "eval", 0).data
        perm = [3, 1, 4, 0, 2]
        z_p = M.encode_temporal(T.Tensor(t_seq.data[perm]), zero_pos,
                                params.encoder, 0.0, "eval", 0).data
        np.testing.assert_allclose(z_p, z[perm], atol=1e-10)

    def test_single_frame_finite(self):
        cfg = tiny_cfg(clip_len=1)
        params = M.init_cast_params(cfg, seed=15)
        t_seq = T.uniform((1, 8), -1, 1, seed=16)
        z = M.encode_temporal(t_seq, params.pos_embed, params.encoder, 0.0,
                              "eval", 0)
        assert np.all(np.isfinite(z.data))

    def test_pos_shape_checked(self):
        with pytest.raises(ConfigError):
            M.encode_temporal(T.zeros((4, 8)), T.zeros((3, 8)), [], 0.0, "eval", 0)


class TestSpatialMean:
    """forward projects the frame mean of the last map, (B, F, C, H', W') ->
    (B, H'*W', d), in place of the frame mean of the projected tokens."""

    @staticmethod
    def _tokens(maps):
        proj = M.init_cast_params(tiny_cfg(), seed=3).spatial_proj
        return M.spatial_tokens(T.mean_axis0(maps, axis=1), proj), proj

    def test_identical_frames(self):
        one = T.uniform((2, 1, 8, 2, 2), -1, 1, seed=17)
        maps = T.Tensor(np.repeat(one.data, 3, axis=1))
        got, proj = self._tokens(maps)
        want = M.spatial_tokens(T.Tensor(one.data[:, 0]), proj)
        np.testing.assert_allclose(got.data, want.data, atol=1e-15)

    def test_opposite_frames_cancel(self):
        a = T.uniform((2, 1, 8, 2, 2), -1, 1, seed=18)
        maps = T.Tensor(np.concatenate([a.data, -a.data], axis=1))
        got, proj = self._tokens(maps)
        np.testing.assert_allclose(got.data, np.broadcast_to(proj.bias.data, (2, 4, 8)),
                                   atol=1e-15)

    def test_matches_loop_mean(self):
        maps = T.uniform((2, 5, 8, 2, 2), -1, 1, seed=19)
        got, proj = self._tokens(maps)
        for b in range(2):
            per_frame = M.spatial_tokens(T.Tensor(maps.data[b]), proj).data
            expected = sum(per_frame[i] for i in range(5)) / 5.0
            np.testing.assert_allclose(got.data[b], expected, atol=1e-12)


def identity_fusion(d=1, out_bias=0.0):
    head = nn.AttnHead(wq=T.Tensor(np.eye(d)), wk=T.Tensor(np.eye(d)),
                       wv=T.Tensor(np.eye(d)))
    return M.FusionParams(heads=[head], out_proj=T.Tensor(np.eye(d)),
                          out_bias=T.Tensor(np.full((d,), out_bias)),
                          ln=nn.init_layer_norm(d))


class TestCrossAttention:
    def test_scalar_hand_oracle(self):
        # one query q=1 against keys [1,0] with values [2,4], scale 1/sqrt(1)
        q, k, v = T.Tensor([[1.0]]), T.Tensor([[1.0], [0.0]]), T.Tensor([[2.0], [4.0]])
        out, attn = nn.scaled_dot_attention(q, k, v, 0.0, "eval", 0)
        e = np.e
        np.testing.assert_allclose(attn.data, [[e / (1 + e), 1 / (1 + e)]], atol=1e-4)
        np.testing.assert_allclose(attn.data, [[0.7311, 0.2689]], atol=1e-4)
        np.testing.assert_allclose(out.data, [[2.5379]], atol=1e-4)

    def test_identity_projection_core(self):
        fusion = identity_fusion(d=1)
        z = T.Tensor([[1.0]])
        s_mean = T.Tensor([[1.0], [0.0]])
        z_hat, attn = nn.attention(z, s_mean, fusion.heads, fusion.out_proj,
                                   0.0, "eval", 0, "fusion_head")
        e = np.e
        np.testing.assert_allclose(attn.data, [[[e / (1 + e), 1 / (1 + e)]]], atol=1e-12)
        np.testing.assert_allclose(z_hat.data, [[e / (1 + e)]], atol=1e-12)

    def test_single_spatial_token_attends_fully(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=20)
        z = T.uniform((2, 8), -1, 1, seed=21)
        s_mean = T.uniform((1, 8), -1, 1, seed=22)
        fused, attn = M.cross_attention_fuse(z, s_mean, params.fusion, "full",
                                             0.0, "eval", 0)
        np.testing.assert_allclose(attn.data, np.ones((2, 1)), atol=1e-12)
        assert fused.shape == (2, 8)

    def test_identical_spatial_tokens_uniform_attention(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=23)
        z = T.uniform((2, 8), -1, 1, seed=24)
        one = T.uniform((1, 8), -1, 1, seed=25)
        s_mean = T.Tensor(np.repeat(one.data, 4, axis=0))
        fused, attn = M.cross_attention_fuse(z, s_mean, params.fusion, "full",
                                             0.0, "eval", 0)
        np.testing.assert_allclose(attn.data, 0.25, atol=1e-12)
        np.testing.assert_allclose(fused.data[0] - fused.data[0], 0.0)
        rows = M.classify(T.reshape(fused, (1, 2, 8)), params.classifier.weight,
                          params.classifier.bias)[1].data
        assert np.all(np.isfinite(rows))

    def test_zero_value_path_residual_degeneracy(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=26)
        for head in params.fusion.heads:
            head.wv.data[:] = 0.0
        z = T.uniform((2, 8), -1, 1, seed=27)
        s_mean = T.uniform((4, 8), -1, 1, seed=28)

        # nonzero output bias: z_hat collapses to exactly that bias
        params.fusion.out_bias.data[:] = 0.25
        fused_bias, _ = M.cross_attention_fuse(z, s_mean, params.fusion, "full",
                                               0.0, "eval", 0)
        shifted = nn.layer_norm(T.Tensor(z.data + 0.25), params.fusion.ln)
        np.testing.assert_allclose(fused_bias.data, shifted.data, atol=1e-12)

        # zero bias: the fusion is exactly LayerNorm(z)
        params.fusion.out_bias.data[:] = 0.0
        fused_zero, _ = M.cross_attention_fuse(z, s_mean, params.fusion, "full",
                                               0.0, "eval", 0)
        expected = nn.layer_norm(z, params.fusion.ln)
        np.testing.assert_allclose(fused_zero.data, expected.data, atol=1e-12)

    def test_reversed_attention_is_row_stochastic_after_normalization(self):
        cfg = tiny_cfg(variant="reversed_qkv")
        params = M.init_cast_params(cfg, seed=29)
        z = T.uniform((2, 8), -1, 1, seed=30)
        s_mean = T.uniform((4, 8), -1, 1, seed=31)
        fused, attn = M.cross_attention_fuse(z, s_mean, params.fusion,
                                             "reversed_qkv", 0.0, "eval", 0)
        assert attn.shape == (2, 4)
        np.testing.assert_allclose(attn.data.sum(axis=1), 1.0, atol=1e-9)
        assert fused.shape == (2, 8)


class TestClassify:
    def test_zero_weight_gives_bias(self):
        fused = T.uniform((1, 4, 8), -1, 1, seed=32)
        w, b = T.zeros((1, 8)), T.Tensor([0.37])
        clip_logit, frame_logits = M.classify(fused, w, b)
        assert clip_logit.item() == 0.37
        np.testing.assert_array_equal(frame_logits.data, np.full((1, 4), 0.37))

    def test_identical_tokens(self):
        tok = T.uniform((1, 8), -1, 1, seed=33)
        fused = T.Tensor(np.repeat(tok.data, 3, axis=0)[None])
        w = T.uniform((1, 8), -1, 1, seed=34)
        b = T.Tensor([0.1])
        clip_logit, frame_logits = M.classify(fused, w, b)
        expected = float((w.data @ tok.data[0])[0] + 0.1)
        np.testing.assert_allclose(frame_logits.data, expected, atol=1e-12)
        np.testing.assert_allclose(clip_logit.item(), expected, atol=1e-12)

    def test_mean_frame_logit_equals_clip_logit(self):
        fused = T.uniform((1, 16, 8), -3, 3, seed=35)
        w = T.uniform((1, 8), -1, 1, seed=36)
        b = T.Tensor([-0.2])
        clip_logit, frame_logits = M.classify(fused, w, b)
        assert abs(frame_logits.data.mean() - clip_logit.item()) < 1e-10


class TestForward:
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_shape_contract_and_backward(self, variant):
        cfg = tiny_cfg(variant=variant)
        params = M.init_cast_params(cfg, seed=40)
        clip = make_clip(cfg, seed=41)
        out = M.forward(clip, params, cfg, mode="train", seed=7)
        assert out.clip_logit.size == 1
        assert out.frame_logits.shape == (cfg.clip_len,)
        if variant in ("no_cross_attention", "decoupled_self_attention"):
            assert out.attention is None
        else:
            assert out.attention.shape == (cfg.clip_len, 4)  # H'W' = 2*2
            np.testing.assert_allclose(out.attention.data.sum(axis=1), 1.0,
                                       atol=1e-6)
            assert np.all(out.attention.data >= 0)
        loss = bce_with_logits(out.clip_logit, clip.label)
        grads = T.backward(loss)
        for name, p in params.named_parameters().items():
            g = grads.of(p).data
            assert g.shape == p.shape, name
            assert np.all(np.isfinite(g)), name

    def test_eval_forward_deterministic(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=42)
        clip = make_clip(cfg, seed=43)
        with T.no_grad():
            a = M.forward(clip, params, cfg, mode="eval")
            b = M.forward(clip, params, cfg, mode="eval")
        assert np.array_equal(a.clip_logit.data, b.clip_logit.data)
        assert np.array_equal(a.frame_logits.data, b.frame_logits.data)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_eval_forward_derives_no_seeds(self, variant, monkeypatch):
        cfg = tiny_cfg(variant=variant)
        params = M.init_cast_params(cfg, seed=48)
        clips = [make_clip(cfg, seed=49 + i) for i in range(2)]

        def refuse(x):
            raise AssertionError("an eval forward derived a dropout seed")
        monkeypatch.setattr(seeding, "_splitmix64", refuse)
        taped = M.forward(clips, params, cfg, mode="eval", seed=[5, 6])
        assert taped.clip_logit.requires_grad
        with T.no_grad():
            quiet = M.forward(clips, params, cfg, mode="eval", seed=[5, 6])
        for name in ("clip_logit", "frame_logits", "attention"):
            a, b = getattr(taped, name), getattr(quiet, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.data.tobytes() == b.data.tobytes(), name

    def test_train_mode_dropout_depends_on_seed(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=44)
        clip = make_clip(cfg, seed=45)
        with T.no_grad():
            a = M.forward(clip, params, cfg, mode="train", seed=1)
            b = M.forward(clip, params, cfg, mode="train", seed=1)
            c = M.forward(clip, params, cfg, mode="train", seed=2)
        assert np.array_equal(a.clip_logit.data, b.clip_logit.data)
        assert not np.array_equal(a.clip_logit.data, c.clip_logit.data)

    def test_clip_logit_equals_mean_frame_logits(self):
        cfg = tiny_cfg(clip_len=6)
        params = M.init_cast_params(cfg, seed=46)
        clip = make_clip(cfg, seed=47)
        with T.no_grad():
            out = M.forward(clip, params, cfg)
        assert abs(out.frame_logits.data.mean() - out.clip_logit.item()) < 1e-10

    def test_frame_permutation_with_zero_pos(self):
        cfg = tiny_cfg(clip_len=4, dropout=0.0)
        params = M.init_cast_params(cfg, seed=48)
        params.pos_embed.data[:] = 0.0
        clip = make_clip(cfg, seed=49)
        perm = [2, 0, 3, 1]
        clip_p = FrameClip(frames=T.Tensor(clip.frames.data[perm]), label=1,
                           source_id="perm")
        with T.no_grad():
            out = M.forward(clip, params, cfg)
            out_p = M.forward(clip_p, params, cfg)
        np.testing.assert_allclose(out_p.frame_logits.data,
                                   out.frame_logits.data[perm], atol=1e-9)
        np.testing.assert_allclose(out_p.clip_logit.item(), out.clip_logit.item(),
                                   atol=1e-10)

    def test_learned_pos_breaks_permutation_invariance(self):
        cfg = tiny_cfg(clip_len=4, dropout=0.0)
        params = M.init_cast_params(cfg, seed=50)
        params.pos_embed.data[:] = T.gaussian((4, 8), 0, 1.0, seed=51).data
        clip = make_clip(cfg, seed=52)
        perm = [2, 0, 3, 1]
        clip_p = FrameClip(frames=T.Tensor(clip.frames.data[perm]), label=1,
                           source_id="perm")
        with T.no_grad():
            out = M.forward(clip, params, cfg)
            out_p = M.forward(clip_p, params, cfg)
        assert abs(out_p.clip_logit.item() - out.clip_logit.item()) > 1e-6

    def test_wrong_clip_length_rejected(self):
        cfg = tiny_cfg(clip_len=4)
        params = M.init_cast_params(cfg, seed=53)
        clip = make_clip(tiny_cfg(clip_len=2), seed=54)
        with pytest.raises(ConfigError):
            M.forward(clip, params, cfg)

    def test_full_forward_gradients(self):
        cfg = tiny_cfg(dropout=0.0)
        params = M.init_cast_params(cfg, seed=55)
        clip = make_clip(cfg, seed=56)
        named = params.named_parameters()
        subset = [named[k] for k in ("backbone.0.kernel", "spatial_proj.weight",
                                     "fusion.0.wq", "pos_embed",
                                     "classifier.weight", "fusion.ln.gamma")]

        def build():
            out = M.forward(clip, params, cfg, mode="train", seed=3)
            return bce_with_logits(out.clip_logit, 1)

        assert T.grad_check(build, subset, eps=1e-5) < 1e-5


class TestBatchedForward:
    """A batched forward equals the per-clip forwards it replaces."""

    @staticmethod
    def _run(cfg, params, clips, mode, seeds):
        batch = M.forward(clips, params, cfg, mode=mode, seed=seeds)
        labels = [clip.label for clip in clips]
        grads = T.backward(T.sum_all(bce_with_logits(batch.clip_logit, labels)))
        batched_grads = {k: grads.of(p).data for k, p in params.named_parameters().items()}
        singles = []
        loss = None
        for clip, s in zip(clips, seeds):
            out = M.forward(clip, params, cfg, mode=mode, seed=s)
            singles.append(out)
            li = bce_with_logits(out.clip_logit, clip.label)
            loss = li if loss is None else T.add(loss, li)
        grads = T.backward(loss)
        single_grads = {k: grads.of(p).data for k, p in params.named_parameters().items()}
        return batch, singles, batched_grads, single_grads

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_matches_single_clip_forwards(self, variant, mode):
        cfg = tiny_cfg(variant=variant, clip_len=3)
        params = M.init_cast_params(cfg, seed=70)
        clips = [make_clip(cfg, seed=71 + i, label=i % 2) for i in range(3)]
        seeds = [101, 202, 303]
        batch, singles, bg, sg = self._run(cfg, params, clips, mode, seeds)
        assert batch.clip_logit.shape == (3,)
        assert batch.frame_logits.shape == (3, cfg.clip_len)
        for i, one in enumerate(singles):
            np.testing.assert_allclose(batch.clip_logit.data[i], one.clip_logit.data[0],
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.frame_logits.data[i], one.frame_logits.data,
                                       rtol=0, atol=1e-12)
            if one.attention is None:
                assert batch.attention is None
            else:
                np.testing.assert_allclose(batch.attention.data[i], one.attention.data,
                                           rtol=0, atol=1e-12)
        for name, g in sg.items():
            scale = max(1.0, float(np.abs(g).max()))
            assert np.abs(bg[name] - g).max() <= 1e-10 * scale, name

    def test_default_backbone_matches_isolated_single_clips(self):
        # each single-clip graph is freed before the next forward, so state
        # that recorded convs wrongly share cannot spoil both sides alike
        cfg = M.CastConfig()
        params = M.init_cast_params(cfg, seed=0)
        named = params.named_parameters()
        clips = [synth.generate_clip(i, i % 2, synth.ArtifactSpec(), cfg.clip_len)
                 for i in range(4)]
        seeds = [11, 12, 13, 14]
        assert clips[0].frames.shape == (16, 3, 32, 32) and len(cfg.backbone_channels) == 3
        out = M.forward(clips, params, cfg, mode="train", seed=seeds)
        grads = T.backward(T.sum_all(bce_with_logits(out.clip_logit, [c.label for c in clips])))
        batched = {k: grads.of(p).data for k, p in named.items()}
        summed = {k: np.zeros_like(g) for k, g in batched.items()}
        del out, grads
        for clip, s in zip(clips, seeds):
            out = M.forward(clip, params, cfg, mode="train", seed=s)
            grads = T.backward(bce_with_logits(out.clip_logit, clip.label))
            for k, p in named.items():
                summed[k] += grads.of(p).data
            del out, grads
        for k, g in summed.items():  # atol: entries that cancel across clips
            np.testing.assert_allclose(batched[k], g, rtol=1e-12,
                                       atol=1e-12 * np.abs(g).max(), err_msg=k)

    def test_train_mode_masks_follow_each_clips_seed(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=72)
        clip = make_clip(cfg, seed=73)
        with T.no_grad():
            out = M.forward([clip, clip], params, cfg, mode="train", seed=[1, 2])
        assert out.clip_logit.data[0] != out.clip_logit.data[1]

    def test_int_seed_is_shared_by_every_clip(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=74)
        clip = make_clip(cfg, seed=75)
        with T.no_grad():
            out = M.forward([clip, clip], params, cfg, mode="train", seed=5)
        assert out.clip_logit.data[0] == out.clip_logit.data[1]

    def test_seed_count_and_clip_shapes_checked(self):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=76)
        a, b = make_clip(cfg, seed=77), make_clip(cfg, seed=78, h=16, w=16)
        with pytest.raises(ConfigError):
            M.forward([a, a], params, cfg, mode="train", seed=[1])
        with pytest.raises(ConfigError):
            M.forward([a, b], params, cfg)
        with pytest.raises(ConfigError):
            M.forward([], params, cfg)


class TestTapeSize:
    # op records that one train step's backward walks: those reachable from
    # the loss; a change that moves a count reports the new count, and the old
    # one, in CHANGES.md
    DEFAULT_STEP_RECORDS = 122
    # per variant at the model shape of acceptance 7 (8-frame 32x32 clips)
    ABLATION_STEP_RECORDS = {"full": 93, "no_cross_attention": 64,
                             "decoupled_self_attention": 114, "reversed_qkv": 96,
                             "multi_scale": 122, "no_projection": 91}

    # traced bytes that the default step's graph holds once its loss is built,
    # and the traced peak of the step's forward plus backward; the clips are
    # built and one step is run before tracing starts, in the same nn
    # workspace, so its conv scratch has its full size. The same rule as the
    # counts. The slack covers interpreter state, not an array: the smallest
    # conv's columns are 0.6 MB
    DEFAULT_STEP_GRAPH_BYTES = 11_010_000
    DEFAULT_STEP_PEAK_BYTES = 14_800_000
    GRAPH_BYTES_SLACK = 250_000

    @staticmethod
    def _step_inputs(cfg):
        params = M.init_cast_params(cfg, seed=0)
        clips = [synth.generate_clip(i, i % 2, synth.ArtifactSpec(), cfg.clip_len)
                 for i in range(8)]
        return params, clips

    @staticmethod
    def _step_loss(cfg, params, clips):
        out = M.forward(clips, params, cfg, mode="train", seed=list(range(8)))
        losses = bce_with_logits(out.clip_logit, [c.label for c in clips])
        return T.scale(T.sum_all(losses), 1.0 / len(clips))

    def _assert_step_records(self, cfg, pinned):
        count = len(T._reachable(self._step_loss(cfg, *self._step_inputs(cfg))))
        assert count == pinned, (
            f"one train step now records {count} ops, not {pinned}; if "
            f"intended, update the pin and report the new count in CHANGES.md")

    def test_default_train_step_record_count(self):
        self._assert_step_records(M.CastConfig(), self.DEFAULT_STEP_RECORDS)

    @nn.workspace()
    def _traced_second_step(self, run):
        """(bytes held, peak bytes) while run(cfg, params, clips) makes the
        default config's second step, in the first one's workspace."""
        cfg = M.CastConfig()
        params, clips = self._step_inputs(cfg)
        T.backward(self._step_loss(cfg, params, clips))
        tracemalloc.start()
        try:
            result = run(cfg, params, clips)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.record is not None
        return held, peak

    def _assert_bytes(self, what, got, pinned):
        assert abs(got - pinned) <= self.GRAPH_BYTES_SLACK, (
            f"one train step's {what} is now {got} bytes, not about {pinned}; if "
            f"intended, update the pin and report both values in CHANGES.md")

    def test_default_train_step_graph_bytes(self):
        held, _ = self._traced_second_step(self._step_loss)
        self._assert_bytes("graph", held, self.DEFAULT_STEP_GRAPH_BYTES)

    def test_default_train_step_peak_bytes(self):
        def step(cfg, params, clips):
            loss = self._step_loss(cfg, params, clips)
            T.backward(loss)
            return loss

        _, peak = self._traced_second_step(step)
        self._assert_bytes("traced peak", peak, self.DEFAULT_STEP_PEAK_BYTES)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_ablation_shape_record_count(self, variant):
        cfg = M.CastConfig(backbone_channels=(8, 16, 32), d=32, encoder_layers=1,
                           heads=4, ffn_dim=128, fusion_heads=4, clip_len=8,
                           variant=variant)
        self._assert_step_records(cfg, self.ABLATION_STEP_RECORDS[variant])


class TestGraphLifetime:
    def test_dropped_eval_forwards_hold_no_memory(self):
        # a recorded forward's graph is freed with its last tensor
        cfg = M.CastConfig()
        params = M.init_cast_params(cfg, seed=0)
        clip = synth.generate_clip(0, 1, synth.ArtifactSpec(), cfg.clip_len)
        held = []
        tracemalloc.start()
        try:
            for _ in range(5):
                out = M.forward(clip, params, cfg, mode="eval")
                assert out.clip_logit.requires_grad  # outside no_grad: recorded
                del out
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert held[-1] - held[0] <= 0.5 * 2 ** 20, held


class TestMultiScale:
    def test_token_construction(self):
        cfg = tiny_cfg(variant="multi_scale", clip_len=2)
        params = M.init_cast_params(cfg, seed=57)
        clip = make_clip(cfg, seed=58)
        stages = M.backbone_stages(clip.frames, params.backbone)
        toks = M.multi_scale_tokens(stages, params.multi_scale_proj)
        assert toks.shape == (2, 4, 8)  # final grid 2x2, d=8
        # site 0 fiber: stage0 pooled 2x2 block concat stage1 site
        s0 = stages[0].data  # (2, 4, 4, 4)
        s1 = stages[1].data  # (2, 8, 2, 2)
        fiber = np.concatenate([s0[0, :, 0:2, 0:2].mean(axis=(1, 2)), s1[0, :, 0, 0]])
        expected = params.multi_scale_proj.weight.data @ fiber \
            + params.multi_scale_proj.bias.data
        np.testing.assert_allclose(toks.data[0, 0], expected, atol=1e-12)


class TestCheckpoint:
    def test_default_config_block_format(self, tmp_path):
        # the block written since checkpoint version 1; older files must load
        cfg = M.CastConfig()
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, M.init_cast_params(cfg, seed=70))
        buf = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", buf, 10)
        assert buf[14:14 + cfg_len] == (
            b"backbone_channels=16,32,64\nclip_len=16\nd=64\ndropout=0.3\n"
            b"encoder_layers=2\neval_logit_mode=frame_mean\nffn_dim=256\n"
            b"fusion_heads=4\nheads=4\nkernel=3\nstride=2\nvariant=full\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_checkpoint_error(self, tmp_path, bad):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=71)
        params.classifier.bias.data[:] = bad
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, params)
        with pytest.raises(CheckpointError, match="classifier.bias"):
            M.load_checkpoint(path)

    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_cfg(variant="multi_scale")
        params = M.init_cast_params(cfg, seed=60)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, params)
        cfg2, params2 = M.load_checkpoint(path)
        assert cfg2 == cfg
        a = params.named_parameters()
        b = params2.named_parameters()
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k].data, b[k].data), k

    def test_loaded_params_train(self, tmp_path):
        cfg = tiny_cfg()
        params = M.init_cast_params(cfg, seed=61)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, cfg, params)
        _, params2 = M.load_checkpoint(path)
        clip = make_clip(cfg, seed=62)
        out = M.forward(clip, params2, cfg, mode="train", seed=1)
        grads = T.backward(bce_with_logits(out.clip_logit, 0))
        assert np.all(np.isfinite(grads.of(params2.classifier.weight).data))

    def test_config_param_mismatch_rejected(self, tmp_path):
        cfg8 = tiny_cfg()
        params8 = M.init_cast_params(cfg8, seed=63)
        cfg16 = tiny_cfg(backbone_channels=(4, 16), d=16)
        path = tmp_path / "bad.ckpt"
        M.save_checkpoint(path, cfg16, params8)
        with pytest.raises(CheckpointError):
            M.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path, seed):
        """A saved checkpoint's bytes and the span of its first entry."""
        cfg = tiny_cfg()
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, cfg, M.init_cast_params(cfg, seed=seed))
        buf = path.read_bytes()
        (cfg_len,) = struct.unpack_from("<I", buf, 10)
        first = 14 + cfg_len  # u16 name length, name, tensor
        (name_len,) = struct.unpack_from("<H", buf, first)
        _, end = T.tensor_from_bytes(buf, first + 2 + name_len)
        return path, buf, first, end

    def test_non_utf8_config_block_is_format_error(self, tmp_path):
        path, buf, _, _ = self._saved(tmp_path, 66)
        path.write_bytes(buf[:14] + b"\xff" + buf[15:])
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    def test_non_utf8_entry_name_is_format_error(self, tmp_path):
        path, buf, first, _ = self._saved(tmp_path, 67)
        path.write_bytes(buf[:first + 2] + b"\xc3(" + buf[first + 4:])
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    def test_non_numeric_config_value_is_config_error(self, tmp_path):
        path, buf, _, _ = self._saved(tmp_path, 69)
        assert buf.count(b"\nd=8\n") == 1
        path.write_bytes(buf.replace(b"\nd=8\n", b"\nd=x\n"))
        with pytest.raises(ConfigError, match="'d'"):
            M.load_checkpoint(path)

    def test_duplicate_entry_is_format_error(self, tmp_path):
        path, buf, first, end = self._saved(tmp_path, 68)
        path.write_bytes(buf + buf[first:end])
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    @pytest.mark.parametrize("kw", [dict(), dict(kernel=5, encoder_layers=0, clip_len=3,
                                                 backbone_channels=(4, 6, 9), d=6,
                                                 heads=3, fusion_heads=3)])
    def test_param_count_matches_skeleton(self, variant, kw):
        cfg = tiny_cfg(variant=variant, **kw)
        if variant == "no_projection":
            cfg = replace(cfg, d=cfg.backbone_out_channels, heads=1, fusion_heads=1)
        params = M.init_cast_params(cfg, seed=0)
        assert M.param_count(cfg) == sum(t.data.size for t in params.all_tensors())

    def test_weight_count_mismatch_is_checkpoint_error(self, tmp_path):
        path, buf, first, end = self._saved(tmp_path, 65)
        path.write_bytes(buf[:first] + buf[end:])  # drop the first entry
        with pytest.raises(CheckpointError, match="weights"):
            M.load_checkpoint(path)

    def test_variant_mismatch_between_params_and_config(self, tmp_path):
        cfg_full = tiny_cfg(variant="full")
        params_nca = M.init_cast_params(tiny_cfg(variant="no_cross_attention"), seed=64)
        path = tmp_path / "bad2.ckpt"
        M.save_checkpoint(path, cfg_full, params_nca)
        with pytest.raises(CheckpointError):
            M.load_checkpoint(path)


# the parameter layout of every variant at tiny_cfg: named_parameters() keys
# in order, and the SHA-256 of the checkpoint saved from seed 90; entry names
# are checkpoint format, so a change here breaks every saved checkpoint
_STEM = "backbone.0.kernel backbone.0.bias backbone.1.kernel backbone.1.bias"
_PROJ = "spatial_proj.weight spatial_proj.bias temporal_proj.weight temporal_proj.bias"
_ENCODER = ("pos_embed encoder.0.ln1.gamma encoder.0.ln1.beta "
            "encoder.0.mhsa.0.wq encoder.0.mhsa.0.wk encoder.0.mhsa.0.wv "
            "encoder.0.mhsa.1.wq encoder.0.mhsa.1.wk encoder.0.mhsa.1.wv "
            "encoder.0.mhsa.out_proj encoder.0.ln2.gamma encoder.0.ln2.beta "
            "encoder.0.ffn.w1 encoder.0.ffn.b1 encoder.0.ffn.w2 encoder.0.ffn.b2")
_FUSION = ("fusion.0.wq fusion.0.wk fusion.0.wv fusion.1.wq fusion.1.wk fusion.1.wv "
           "fusion.out_proj fusion.out_bias fusion.ln.gamma fusion.ln.beta")
_DECOUPLED = ("decoupled.temporal.0.wq decoupled.temporal.0.wk decoupled.temporal.0.wv "
              "decoupled.temporal.1.wq decoupled.temporal.1.wk decoupled.temporal.1.wv "
              "decoupled.temporal.out_proj "
              "decoupled.spatial.0.wq decoupled.spatial.0.wk decoupled.spatial.0.wv "
              "decoupled.spatial.1.wq decoupled.spatial.1.wk decoupled.spatial.1.wv "
              "decoupled.spatial.out_proj decoupled.mix_w decoupled.mix_b")
_CLASSIFIER = "classifier.weight classifier.bias"
PARAM_LAYOUTS = {
    "full": ((_STEM, _PROJ, _ENCODER, _FUSION, _CLASSIFIER),
             "fb1dfa0d1e710736e6dc47cbab83f99a881f323d9f104441b8430001f0a261b5"),
    "no_cross_attention": ((_STEM, _PROJ, _ENCODER, _CLASSIFIER),
                           "2141776e153b6e6b9a37f994964b00864a6bbf8b39a0c61159a1c4a85f2650b3"),
    "decoupled_self_attention": (
        (_STEM, _PROJ, _ENCODER, _DECOUPLED, _CLASSIFIER),
        "dfe82f0e0165579fccd1fc86fdd3bbdb5e61db31bec24f456f907cb900fe9a17"),
    "reversed_qkv": ((_STEM, _PROJ, _ENCODER, _FUSION, _CLASSIFIER),
                     "a042d142bf8b3580f89d32fa186e97bc9f5b670e1fb363bd85e3f972e336acd4"),
    "multi_scale": ((_STEM, _PROJ, _ENCODER, _FUSION,
                     "multi_scale_proj.weight multi_scale_proj.bias", _CLASSIFIER),
                    "a07a37804b0c3a940565401beb4e79630ba6878df58710c3f71f7067295dbf64"),
    "no_projection": ((_STEM, _ENCODER, _FUSION, _CLASSIFIER),
                      "cfe855cccbaef5196ed08e864e70cfbc3d408baa7b65751f2cfefc07fce130ce"),
}


class TestPinnedLayout:
    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_names_and_checkpoint_bytes(self, tmp_path, variant):
        cfg = tiny_cfg(variant=variant)
        if variant == "no_projection":
            cfg = replace(cfg, d=cfg.backbone_out_channels)
        params = M.init_cast_params(cfg, seed=90)
        groups, digest = PARAM_LAYOUTS[variant]
        assert list(params.named_parameters()) == " ".join(groups).split()
        path = tmp_path / "m.ckpt"
        M.save_checkpoint(path, cfg, params)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
