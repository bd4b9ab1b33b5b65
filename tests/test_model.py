import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_motion import corruptions

from gesturesynth.autodiff import Tensor, layer_norm
from gesturesynth.errors import ConfigError, ContractError, ParseError
from gesturesynth.gradcheck import finite_diff_check
from gesturesynth.layers import ConditionalNorm
from gesturesynth.model import (
    EMOTION_MODES,
    Condition,
    GestureDenoiser,
    ModelConfig,
    _ZeroDraws,
    load_checkpoint,
    randomize_parameters,
    save_checkpoint,
    toy_config,
)
from gesturesynth.motion import (
    AudioFeatureSequence,
    DatasetStats,
    GestureSequence,
    generic_skeleton,
    load_audio,
    load_motion,
    save_audio,
    save_motion,
)
from gesturesynth.pipeline import predict_emotion
from gesturesynth.rng import stream


def make_model(seed=0, **overrides):
    cfg = toy_config(**overrides)
    return GestureDenoiser(cfg, stream(seed, "model-init"))


def corrupt_header_line(path, prefix, line):
    """Replace the first checkpoint header line that starts with prefix."""
    header, end, blob = path.read_bytes().partition(b"end_header\n")
    lines = header.decode("ascii").split("\n")
    i = next(i for i, text in enumerate(lines) if text.startswith(prefix))
    lines[i] = line
    path.write_bytes("\n".join(lines).encode("ascii") + end + blob)


def make_inputs(model, b=2, n=10, seed=1):
    rng = np.random.default_rng(seed)
    c = model.config
    x = rng.normal(size=(b, n, c.n_joints, 3))
    audio = rng.normal(size=(b, n, c.d_audio_raw))
    cond = Condition(audio=audio, emotion_label=rng.integers(0, c.n_emotions, b),
                     speaker=rng.integers(0, c.n_speakers, b))
    return x, cond


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.n_joints == 47
        assert cfg.d_joint == 64 and cfg.d_temporal == 512 and cfg.d_fusion == 512
        assert cfg.depth_temporal == 8 and cfg.depth_joint == 4
        assert cfg.d_audio == 128 and cfg.n_emotions == 8

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divisible"):
            toy_config(d_temporal=30, d_fusion=30, heads_temporal=4)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="emotion_mode"):
            toy_config(emotion_mode="telepathy")

    @pytest.mark.parametrize("heads", ["heads_joint", "heads_temporal", "heads_fusion"])
    def test_zero_heads_rejected(self, heads):
        with pytest.raises(ConfigError, match=heads):
            toy_config(**{heads: 0})

    def test_fusion_dim_must_match_temporal(self):
        with pytest.raises(ConfigError, match="d_fusion"):
            toy_config(d_fusion=64)

    def test_dict_roundtrip(self):
        cfg = toy_config()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelConfig.from_dict({"n_joints": 4, "flux_capacitor": 1})


def aligned_audio(model, raw, n_frames):
    """One clip's aligned features, read off the path forward takes."""
    return model.classify_audio(raw[None], n_frames)[0].data[0]


class TestAlignAudio:
    def test_identity_projection_passthrough(self):
        model = make_model()
        d = model.config.d_audio_raw
        model.audio_align.W.data = np.eye(d)
        model.audio_align.b.data = np.zeros(d)
        raw = np.random.default_rng(0).normal(size=(12, d))
        out = aligned_audio(model, raw, 12)
        np.testing.assert_allclose(out, raw, atol=1e-12)

    def test_constant_input_stays_constant(self):
        model = make_model()
        raw = np.ones((50, model.config.d_audio_raw)) * 0.7
        out = aligned_audio(model, raw, 15)
        assert np.allclose(out, out[0])

    def test_matches_interpolation_oracle(self):
        # 100 source positions resampled to 30: target i sits at source
        # position i*99/29, and values follow the two-point linear formula
        model = make_model()
        d = model.config.d_audio_raw
        model.audio_align.W.data = np.eye(d)
        model.audio_align.b.data = np.zeros(d)
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(100, d))
        out = aligned_audio(model, raw, 30)
        for i in (0, 7, 15, 29):
            pos = i * 99.0 / 29.0
            lo, frac = int(np.floor(pos)), pos - int(np.floor(pos))
            hi = min(lo + 1, 99)
            expected = raw[lo] * (1 - frac) + raw[hi] * frac
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_too_few_source_frames(self):
        model = make_model()
        with pytest.raises(ConfigError, match="at least 2"):
            aligned_audio(model, np.zeros((1, model.config.d_audio_raw)), 10)

    def test_lone_frame_aligns_to_itself(self):
        model = make_model()
        raw = np.full((1, model.config.d_audio_raw), 0.3)
        expected = raw @ model.audio_align.W.data + model.audio_align.b.data
        np.testing.assert_array_equal(aligned_audio(model, raw, 1), expected)

    def test_wrong_channel_count(self):
        model = make_model()
        with pytest.raises(ContractError, match="channels"):
            aligned_audio(model, np.zeros((10, 3)), 10)


class TestEmotionHead:
    def test_zero_classifier_uniform_logits_tie_to_zero(self):
        model = make_model()
        model.emotion_phi.W.data[:] = 0.0
        model.emotion_phi.b.data[:] = 0.0
        rng = np.random.default_rng(2)
        audio = rng.normal(size=(9, model.config.d_audio_raw))
        _, logits = model.classify_audio(audio[None], 9)
        np.testing.assert_array_equal(logits.data, np.zeros((1, model.config.n_emotions)))
        assert predict_emotion(model, audio) == 0
        x = rng.normal(size=(9, model.config.n_joints, 3))
        _, _, labels = model.forward(x, 0, Condition(audio=audio))
        assert labels.tolist() == [0]  # the row of emotion_table forward uses

    def test_frame_permutation_invariant(self):
        model = make_model()
        rng = np.random.default_rng(3)
        audio = rng.normal(size=(11, model.config.d_audio_raw))
        perm = rng.permutation(11)
        _, a = model.classify_audio(audio[None], 11)
        _, b = model.classify_audio(audio[perm][None], 11)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)
        assert predict_emotion(model, audio) == predict_emotion(model, audio[perm])

    def test_predict_emotion_is_the_forward_label(self):
        labels = set()
        for seed in range(6):
            model = make_model(seed=seed)
            randomize_parameters(model, stream(seed, "rand"), scale=0.5)
            rng = np.random.default_rng(seed)
            n = 7 + seed
            audio = rng.normal(size=(n, model.config.d_audio_raw))
            x = rng.normal(size=(n, model.config.n_joints, 3))
            _, _, used = model.forward(x, 3, Condition(audio=audio))
            assert predict_emotion(model, audio) == used[0]
            labels.add(int(used[0]))
        assert len(labels) > 1  # the seeds exercise more than one class


class TestJointBranch:
    def test_token_output_dim_for_any_n(self):
        model = make_model()
        cond = None
        for n in (4, 9, 20):
            x = Tensor(np.random.default_rng(n).normal(size=(2, n, model.config.n_joints, 3)))
            out = model._joint_branch(x, cond)
            assert out.shape == (2, 1, model.config.d_joint)  # one token per item

    def test_attention_sequence_is_joints_plus_token(self):
        model = make_model()
        assert model._joint_pe.shape[0] == model.config.n_joints + 1
        default = GestureDenoiser(ModelConfig(depth_temporal=1, depth_joint=1,
                                              depth_fusion=1, ffn_mult=1),
                                  stream(0, "default-shape"))
        assert default._joint_pe.shape[0] == 48

    def test_zeroing_a_joint_changes_token(self):
        model = make_model()
        randomize_parameters(model, stream(4, "rand"))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 8, model.config.n_joints, 3))
        base = model._joint_branch(Tensor(x), None).data
        x2 = x.copy()
        x2[:, :, 3, :] = 0.0
        changed = model._joint_branch(Tensor(x2), None).data
        assert np.abs(base - changed).max() > 1e-8

    def test_time_collapse_starts_as_mean(self):
        model = make_model()
        n = 10
        w = model.time_collapse.data[:n] + 1.0 / n
        np.testing.assert_allclose(w, 1.0 / n)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)


class TestTemporalBranch:
    def test_output_shape(self):
        model = make_model()
        x = Tensor(np.random.default_rng(6).normal(size=(2, 12, model.config.n_joints * 3)))
        out = model._temporal_branch(x, None)
        assert out.shape == (2, 12, model.config.d_temporal)

    def test_variable_lengths_supported(self):
        model = make_model()
        for n in (5, 17):
            x = Tensor(np.zeros((1, n, model.config.n_joints * 3)))
            assert model._temporal_branch(x, None).shape[1] == n

    def test_positional_encoding_breaks_permutation_equivariance(self):
        model = make_model()
        randomize_parameters(model, stream(7, "rand"))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 9, model.config.n_joints * 3))
        perm = rng.permutation(9)

        with_pe = model._temporal_branch(Tensor(x), None).data
        with_pe_perm = model._temporal_branch(Tensor(x[:, perm]), None).data
        assert np.abs(with_pe[:, perm] - with_pe_perm).max() > 1e-6

        saved = model.temporal_pe.data.copy()
        model.temporal_pe.data = np.zeros_like(saved)
        no_pe = model._temporal_branch(Tensor(x), None).data
        no_pe_perm = model._temporal_branch(Tensor(x[:, perm]), None).data
        np.testing.assert_allclose(no_pe[:, perm], no_pe_perm, atol=1e-9)
        model.temporal_pe.data = saved

    def test_too_long_rejected_in_forward(self):
        model = make_model()
        n = model.config.n_max + 1
        x = np.zeros((1, n, model.config.n_joints, 3))
        cond = Condition(audio=np.zeros((1, n, model.config.d_audio_raw)))
        with pytest.raises(ConfigError, match="n_max"):
            model.forward(x, 1, cond)


class TestFusion:
    def test_zero_token_leaves_frames_unchanged(self):
        model = make_model()
        frames = np.random.default_rng(9).normal(size=(2, 6, model.config.d_temporal))
        token = Tensor(np.zeros((2, model.config.d_joint)))
        g_in = Tensor(frames) + model.token_proj(token).reshape(-1, 1, model.config.d_temporal)
        np.testing.assert_allclose(g_in.data, frames, atol=1e-12)

    def test_token_delta_shifts_all_frames_equally(self):
        model = make_model()
        rng = np.random.default_rng(10)
        frames = Tensor(rng.normal(size=(1, 6, model.config.d_temporal)))
        t1 = Tensor(rng.normal(size=(1, model.config.d_joint)))
        delta = rng.normal(size=(1, model.config.d_joint))
        t2 = Tensor(t1.data + delta)
        g1 = (frames + model.token_proj(t1).reshape(-1, 1, model.config.d_temporal)).data
        g2 = (frames + model.token_proj(t2).reshape(-1, 1, model.config.d_temporal)).data
        shift = g2 - g1
        np.testing.assert_allclose(
            shift, np.broadcast_to(shift[:, :1, :], shift.shape), atol=1e-12
        )
        np.testing.assert_allclose(
            shift[0, 0], (delta @ model.token_proj.W.data)[0], atol=1e-12
        )


class TestAudioCrossAttention:
    def test_zero_value_weights_identity(self):
        model = make_model()
        model.audio_attn.v.W.data[:] = 0.0
        model.audio_attn.v.b.data[:] = 0.0
        rng = np.random.default_rng(11)
        g = Tensor(rng.normal(size=(2, 7, model.config.d_fusion)))
        a = Tensor(rng.normal(size=(2, 7, model.config.d_audio)))
        out = model.audio_attn(g, a)
        np.testing.assert_allclose(out.data, g.data, atol=1e-12)

    def test_single_frame_full_weight(self):
        model = make_model()
        rng = np.random.default_rng(12)
        g = Tensor(rng.normal(size=(1, 1, model.config.d_fusion)))
        a = Tensor(rng.normal(size=(1, 1, model.config.d_audio)))
        out = model.audio_attn(g, a)
        # softmax over one key is 1, so output = g + out_proj(v(a))
        v = a.data @ model.audio_attn.v.W.data + model.audio_attn.v.b.data
        expected = g.data + (v @ model.audio_attn.out.W.data + model.audio_attn.out.b.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_matches_brute_force_oracle(self):
        model = make_model()
        randomize_parameters(model, stream(13, "rand"))
        rng = np.random.default_rng(14)
        n, d, da = 3, model.config.d_fusion, model.config.d_audio
        h = model.audio_attn.heads
        dh = d // h
        g = rng.normal(size=(1, n, d))
        a = rng.normal(size=(1, n, da))
        att = model.audio_attn
        q = (g @ att.q.W.data + att.q.b.data)[0]
        k = (a @ att.k.W.data + att.k.b.data)[0]
        v = (a @ att.v.W.data + att.v.b.data)[0]
        heads_out = np.zeros((n, d))
        for hh in range(h):
            sl = slice(hh * dh, (hh + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            heads_out[:, sl] = w @ v[:, sl]
        expected = g[0] + heads_out @ att.out.W.data + att.out.b.data
        np.testing.assert_allclose(att(Tensor(g), Tensor(a)).data[0], expected, atol=1e-10)

    def test_frame_count_mismatch_vs_gesture_ok(self):
        # cross-attention itself allows different context lengths; the audio
        # pathway aligns them, so inside the model they always match
        model = make_model()
        g = Tensor(np.zeros((1, 5, model.config.d_fusion)))
        a = Tensor(np.zeros((1, 9, model.config.d_audio)))
        assert model.audio_attn(g, a).shape == (1, 5, model.config.d_fusion)


class TestConditionalNorm:
    def test_one_affine_from_the_condition(self):
        rng = np.random.default_rng(3)
        norm = ConditionalNorm(8, 4, rng)
        for p in norm.params().values():
            p.data = rng.normal(size=p.data.shape)
        x = Tensor(rng.normal(size=(2, 5, 8)))
        cond = Tensor(rng.normal(size=(2, 1, 4)))
        gamma = cond.data @ norm.scale.W.data + norm.scale.b.data + 1.0
        beta = cond.data @ norm.shift.W.data + norm.shift.b.data
        expected = layer_norm(x, gamma, beta)
        np.testing.assert_array_equal(norm(x, cond).data, expected.data)
        frozen = [k for k, v in vars(norm).items()
                  if isinstance(v, Tensor) and not v.requires_grad]
        assert frozen == []

    def test_no_condition_is_plain_norm(self):
        rng = np.random.default_rng(4)
        norm = ConditionalNorm(6, 3, rng)
        x = Tensor(rng.normal(size=(2, 4, 6)))
        expected = layer_norm(x, np.ones(6), np.zeros(6))
        np.testing.assert_array_equal(norm(x, None).data, expected.data)


class TestEmotionConditioning:
    def test_adaln_identity_at_init(self):
        model = make_model(emotion_mode="adaln")
        rng = np.random.default_rng(15)
        g = Tensor(rng.normal(size=(2, 6, model.config.d_fusion)))
        e = Tensor(rng.normal(size=(2, 1, model.config.d_fusion)))
        out = model._condition_emotion(g, e, None)
        np.testing.assert_array_equal(out.data, g.data)

    def test_adaln_frame_local(self):
        model = make_model(emotion_mode="adaln")
        randomize_parameters(model, stream(16, "rand"))
        rng = np.random.default_rng(17)
        g1 = rng.normal(size=(1, 5, model.config.d_fusion))
        g2 = g1.copy()
        g2[0, 3] = rng.normal(size=model.config.d_fusion)  # change one frame
        e = Tensor(rng.normal(size=(1, 1, model.config.d_fusion)))
        o1 = model._condition_emotion(Tensor(g1), e, None).data
        o2 = model._condition_emotion(Tensor(g2), e, None).data
        np.testing.assert_array_equal(o1[0, [0, 1, 2, 4]], o2[0, [0, 1, 2, 4]])
        assert np.abs(o1[0, 3] - o2[0, 3]).max() > 0

    def test_token_mode_strips_to_input_length(self):
        model = make_model(emotion_mode="in_context_token")
        rng = np.random.default_rng(18)
        g = Tensor(rng.normal(size=(2, 6, model.config.d_fusion)))
        e = Tensor(rng.normal(size=(2, 1, model.config.d_fusion)))
        cond = Tensor(np.zeros((2, 1, model.config.d_cond)))
        out = model._condition_emotion(g, e, cond)
        assert out.shape == (2, 6, model.config.d_fusion)

    def test_content_mode_uniform_shift(self):
        model = make_model(emotion_mode="in_context_content")
        rng = np.random.default_rng(19)
        g = Tensor(rng.normal(size=(1, 4, model.config.d_fusion)))
        e = Tensor(rng.normal(size=(1, 1, model.config.d_fusion)))
        out = model._condition_emotion(g, e, None).data
        shift = out - g.data
        np.testing.assert_allclose(
            shift, np.broadcast_to(shift[:, :1, :], shift.shape), atol=1e-12
        )

    def test_cross_attention_mode_runs(self):
        model = make_model(emotion_mode="cross_attention")
        rng = np.random.default_rng(20)
        g = Tensor(rng.normal(size=(2, 5, model.config.d_fusion)))
        e = Tensor(rng.normal(size=(2, 1, model.config.d_fusion)))
        out = model._condition_emotion(g, e, None)
        assert out.shape == (2, 5, model.config.d_fusion)


class TestBatchInvariance:
    """A stack of clips denoises each clip as it denoises alone, bit for bit."""

    @pytest.mark.parametrize("spatial", [True, False], ids=["spatial", "no-spatial"])
    @pytest.mark.parametrize("mode", EMOTION_MODES)
    @pytest.mark.parametrize("labels", ["given", "predicted"])
    def test_stack_equals_each_item_alone(self, mode, spatial, labels):
        model = make_model(emotion_mode=mode, use_spatial_branch=spatial)
        randomize_parameters(model, stream(40, "rand"))
        c = model.config
        for n, b in [(n, b) for n in (1, 2, 20, 34) for b in (2, 3, 8)]:
            rng = np.random.default_rng(100 * n + b)
            x = rng.normal(size=(b, n, c.n_joints, 3))
            audio = rng.normal(size=(b, n, c.d_audio_raw))  # distinct per item
            given = rng.integers(0, c.n_emotions, b) if labels == "given" else [None] * b
            speakers = rng.integers(0, c.n_speakers, b)
            stack = model.denoise(x, 7, Condition(
                audio, None if labels == "predicted" else given, speakers))
            for i in range(b):
                alone = model.denoise(x[i], 7, Condition(audio[i], given[i], speakers[i]))
                np.testing.assert_array_equal(stack[i], alone,
                                              err_msg=f"N={n} B={b} item {i}")


class TestDenoise:
    @pytest.mark.parametrize("n", [8, 34, 150])
    def test_shape_preserving(self, n):
        model = make_model(n_max=150)
        x, cond = make_inputs(model, b=1, n=n)
        out = model.denoise(x[0], 5, Condition(audio=cond.audio[0]))
        assert out.shape == (n, model.config.n_joints, 3)

    def test_batched_shape(self):
        model = make_model()
        x, cond = make_inputs(model, b=3, n=12)
        out = model.denoise(x, 5, cond)
        assert out.shape == x.shape

    def test_per_sample_timesteps(self):
        model = make_model()
        randomize_parameters(model, stream(21, "rand"))
        x, cond = make_inputs(model, b=2, n=6)
        both = model.denoise(x, np.array([1, 9]), cond)
        one = model.denoise(x[:1], 1, Condition(audio=cond.audio[:1],
                                                emotion_label=cond.emotion_label[:1],
                                                speaker=cond.speaker[:1]))
        np.testing.assert_allclose(both[0], one[0], atol=1e-10)

    def test_denoise_matches_recorded_forward(self):
        # denoise skips the backward graph; the values must not move
        model = make_model()
        randomize_parameters(model, stream(24, "rand"))
        x, cond = make_inputs(model, b=2, n=9)
        eps, _, _ = model.forward(x, 4, cond)
        assert eps.requires_grad
        np.testing.assert_array_equal(model.denoise(x, 4, cond), eps.data)

    def test_timestep_sensitivity(self):
        model = make_model()
        randomize_parameters(model, stream(22, "rand"))
        x, cond = make_inputs(model, b=1, n=8)
        a = model.denoise(x, 1, cond)
        b = model.denoise(x, 17, cond)
        assert np.abs(a - b).max() > 1e-8

    def test_emotion_label_sensitivity_adaln(self):
        model = make_model(emotion_mode="adaln")
        randomize_parameters(model, stream(23, "rand"))
        x, cond = make_inputs(model, b=1, n=8)
        a = model.denoise(x, 3, Condition(audio=cond.audio, emotion_label=0))
        b = model.denoise(x, 3, Condition(audio=cond.audio, emotion_label=1))
        assert np.abs(a - b).mean() > 0

    def test_spatial_branch_ablation_runs(self):
        model = make_model(use_spatial_branch=False)
        randomize_parameters(model, stream(31, "rand"))
        x, cond = make_inputs(model, b=1, n=8)
        out = model.denoise(x, 3, cond)
        assert out.shape == x.shape

    def test_spatial_branch_changes_output(self):
        on = make_model(use_spatial_branch=True)
        randomize_parameters(on, stream(32, "rand"))
        off = make_model(use_spatial_branch=False)
        # same parameter values, only the wiring differs
        for name, p in off.params().items():
            p.data = on.params()[name].data.copy()
        x, cond = make_inputs(on, b=1, n=6)
        a = on.denoise(x, 3, cond)
        b = off.denoise(x, 3, cond)
        assert np.abs(a - b).max() > 1e-8

    def test_bad_speaker_rejected(self):
        model = make_model()
        x, cond = make_inputs(model)
        with pytest.raises(ConfigError, match="speaker"):
            model.denoise(x, 1, Condition(audio=cond.audio, speaker=99))

    def test_bad_joint_count_contract_error(self):
        model = make_model()
        x = np.zeros((1, 6, model.config.n_joints + 1, 3))
        cond = Condition(audio=np.zeros((1, 6, model.config.d_audio_raw)))
        with pytest.raises(ContractError, match="denoiser input"):
            model.denoise(x, 1, cond)

    def test_finite_difference_gradients(self):
        model = make_model(seed=3)
        randomize_parameters(model, stream(24, "rand"), scale=0.1)
        rng = np.random.default_rng(25)
        x, _ = make_inputs(model, b=1, n=5, seed=26)
        audio = rng.normal(size=(1, 5, model.config.d_audio_raw))
        cond = Condition(audio=audio, emotion_label=1, speaker=1)
        r_eps = rng.normal(size=(1, 5, model.config.n_joints, 3))
        r_log = rng.normal(size=(1, model.config.n_emotions))

        def loss():
            eps, logits, _ = model.forward(x, 4, cond)
            return (eps * Tensor(r_eps)).sum() + (logits * Tensor(r_log)).sum()

        report = finite_diff_check(
            loss, model.params(), h=1e-4, tol=1e-3, max_probes=3,
            rng=np.random.default_rng(27),
        )
        assert report.passed, report.summary()


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    save_checkpoint(make_model(seed=11), p,
                    stats=DatasetStats(mean=np.zeros(18), std=np.ones(18)),
                    meta={"step": 2}, extra_arrays={"opt.t": np.array([2.0])})
    return p


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = make_model(seed=5)
        randomize_parameters(model, stream(28, "rand"))
        stats = DatasetStats(mean=np.arange(4.0), std=np.ones(4))
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p, stats=stats, meta={"step": 7},
                        extra_arrays={"opt_m": np.ones(3)})
        bundle = load_checkpoint(p)
        assert bundle.model.config == model.config
        for name, param in model.params().items():
            np.testing.assert_array_equal(bundle.model.params()[name].data, param.data)
        np.testing.assert_array_equal(bundle.stats.mean, stats.mean)
        assert bundle.meta == {"step": 7}
        np.testing.assert_array_equal(bundle.extra_arrays["opt_m"], np.ones(3))

    def test_save_is_deterministic(self, tmp_path):
        model = make_model(seed=6)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_mismatch_rejected(self, tmp_path):
        model = make_model(seed=7)
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p)
        other = toy_config(n_joints=5)
        with pytest.raises(ConfigError, match="configuration"):
            load_checkpoint(p, expect_config=other)

    def test_matching_expect_config_accepted(self, tmp_path):
        model = make_model(seed=8)
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p)
        bundle = load_checkpoint(p, expect_config=model.config)
        assert bundle.model.config == model.config

    def test_truncated_file_parse_error(self, tmp_path):
        model = make_model(seed=9)
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 100])
        with pytest.raises(ParseError):
            load_checkpoint(p)

    @pytest.mark.parametrize("prefix, line", [
        ("params ", "params x"),
        ("param audio_align.W ", "param audio_align.W two 20 20"),
        ("config ", "config {not json"),
        ("stats ", "stats {not json"),
        ("meta ", "meta {not json"),
        ("config ", "config 5"),
        ("config ", 'config {"n_joints": "x"}'),
        ("stats ", "stats {}"),
        ("meta ", "meta 5"),
        ("meta ", "meta " + "[" * 100_000 + "]" * 100_000),
    ], ids=["params-count", "param-ndim", "config", "stats", "meta",
            "config-not-object", "config-field-type", "stats-empty", "meta-not-object",
            "meta-nested"])
    def test_malformed_header_parse_error(self, tmp_path, prefix, line):
        p = tmp_path / "model.ckpt"
        save_checkpoint(make_model(seed=9), p,
                        stats=DatasetStats(mean=np.zeros(2), std=np.ones(2)))
        corrupt_header_line(p, prefix, line)
        with pytest.raises(ParseError):
            load_checkpoint(p)

    @given(data=st.data())
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_corrupt_checkpoint_loads_or_parse_error(self, checkpoint_file, data):
        bad = checkpoint_file.with_name("bad.ckpt")
        bad.write_bytes(data.draw(corruptions(checkpoint_file.read_bytes())))
        try:
            load_checkpoint(bad)
        except ParseError:
            pass

    def test_roundtrip_denoise_identical(self, tmp_path):
        model = make_model(seed=10)
        randomize_parameters(model, stream(29, "rand"))
        p = tmp_path / "model.ckpt"
        save_checkpoint(model, p)
        again = load_checkpoint(p).model
        x, cond = make_inputs(model, b=1, n=6, seed=30)
        np.testing.assert_array_equal(
            model.denoise(x, 3, cond), again.denoise(x, 3, cond)
        )


def _swap(old, new):
    return lambda data: data.replace(old, new, 1)


def _at(marker):
    return lambda data: data.index(marker)


def _blob_start(data):
    return data.index(b"end_header\n") + len(b"end_header\n")


def _start(data):
    return 0


# id -> (format, corruption, message after "<path>: ", byte offset in the
# corrupted file).  The three formats share one framing, so one table pins
# the message and offset of every way a file can fail to load.
CONTAINER_ERRORS = {
    "motion-magic": ("motion", _swap(b"GSYNMOT", b"GSYNXXX"),
                     "not a GSYNMOT container (header 'GSYNXXX v1')", _start),
    "audio-magic": ("audio", _swap(b"GSYNAUD", b"GSYNXXX"),
                    "not a GSYNAUD container (header 'GSYNXXX v1')", _start),
    "ckpt-magic": ("ckpt", _swap(b"GSYNCKPT", b"GSYNMOT"),
                   "not a GSYNCKPT container (header 'GSYNMOT v1')", _start),
    "motion-version": ("motion", _swap(b"GSYNMOT v1", b"GSYNMOT v9"),
                       "unsupported container version 'v9'", _start),
    "audio-version": ("audio", _swap(b"GSYNAUD v1", b"GSYNAUD v2"),
                      "unsupported container version 'v2'", _start),
    "ckpt-version": ("ckpt", _swap(b"GSYNCKPT v1", b"GSYNCKPT v0"),
                     "unsupported container version 'v0'", _start),
    "motion-names": ("motion", _swap(b"names ", b"nomes "),
                     "expected names line, found 'nomes joint_0 joint_1 joint_2'",
                     _at(b"nomes")),
    "motion-parents": ("motion", _swap(b"parents ", b"porents "),
                       "expected parents line, found 'porents -1 0 1'", _at(b"porents")),
    "audio-frames": ("audio", _swap(b"frames ", b"frumes "),
                     "expected field 'frames', found 'frumes'", _at(b"frumes")),
    "ckpt-config": ("ckpt", _swap(b"config ", b"konfig "), "expected config line, found",
                    _at(b"konfig")),
    "ckpt-stats": ("ckpt", _swap(b"stats ", b"stots "),
                   "expected stats line, found 'stots none'", _at(b"stots")),
    "ckpt-meta": ("ckpt", _swap(b"meta ", b"mota "),
                  "expected meta line, found 'mota {}'", _at(b"mota")),
    "ckpt-param-line": ("ckpt", _swap(b"param audio_align.b 1 20", b"param audio_align.b x 20"),
                        "malformed param line 'param audio_align.b x 20'",
                        _at(b"param audio_align.b")),
    "ckpt-param-dims": ("ckpt", _swap(b"param audio_align.b 1 20", b"param audio_align.b 2 20"),
                        "param audio_align.b declares 2 dims, lists 1",
                        _at(b"param audio_align.b")),
    "ckpt-param-unknown": ("ckpt", _swap(b"param audio_align.b ", b"param audio_align.c "),
                           "unknown parameter 'audio_align.c'", _start),
    "ckpt-param-shape": ("ckpt", _swap(b"param audio_attn.k.W 2 20 32",
                                       b"param audio_attn.k.W 2 32 20"),
                         "parameter audio_attn.k.W has shape (32, 20), model expects (20, 32)",
                         _start),
    "ckpt-param-missing": ("ckpt", _swap(b"param time_collapse ", b"param extra.gone "),
                           "checkpoint is missing parameters: ['time_collapse']", _start),
    "motion-short-blob": ("motion", lambda data: data[:-8],
                          "expected 144 data bytes, file holds 136", _blob_start),
    "audio-short-blob": ("audio", lambda data: data[:-8],
                         "expected 96 data bytes, file holds 88", _blob_start),
    "ckpt-short-blob": ("ckpt", lambda data: data[:-8],
                        "expected 358512 data bytes, file holds 358504", _blob_start),
    "ckpt-byte-count": ("ckpt", _swap(b"le 358512", b"le 358520"),
                        "header declares 358520 data bytes but shape needs 358512",
                        _blob_start),
}


@pytest.mark.parametrize("case", sorted(CONTAINER_ERRORS))
def test_container_error_message_and_offset(tmp_path, case):
    fmt, corrupt, message, offset = CONTAINER_ERRORS[case]
    path = tmp_path / f"x.{fmt}"
    if fmt == "motion":
        save_motion(GestureSequence(np.full((2, 3, 3), 0.5), skeleton=generic_skeleton(3)), path)
    elif fmt == "audio":
        save_audio(AudioFeatureSequence(np.ones((3, 4))), path)
    else:
        save_checkpoint(make_model(seed=12), path)
    data = corrupt(path.read_bytes())
    path.write_bytes(data)
    load = {"motion": load_motion, "audio": load_audio, "ckpt": load_checkpoint}[fmt]
    with pytest.raises(ParseError) as err:
        load(path)
    assert f"{path}: {message}" in str(err.value)
    assert err.value.offset == offset(data)


# (listing digest, checkpoint digest) per toy configuration, recorded before
# the parameter registry replaced the hand-kept params() lists.  The listing
# is every (name, shape) in params() order: the order Adam steps and gradient
# checks draw their probes in.  The checkpoint is a fresh init saved with no
# stats or meta, so it also pins the init draws.
REGISTRY_SNAPSHOT = {
    "adaln": (
        "aa8b8d1922816bbce7c2d387489382f7b73c5f44f8ecc403f9a272f7478bccf5",
        "75dc8089ed3c4dc5ad7fc2c039fdee1bb03add78e47404853843bbc341952844",
    ),
    "in_context_token": (
        "9a825257d49922594ca4660e6325845f917374a654ce5702481b9253c4f96788",
        "a7ec870f52fcb997d988dea4feb8b11dd2553aec56d07cbc789ca3ba6f216bc0",
    ),
    "in_context_content": (
        "20985f465cf2bad76236aa78770d89e51a05c62ce4f087b4accdb38c7d9f3fd4",
        "ab2038058cd683ff9ae5a50efe0208cb04d0e6fe6c32b3c68d6e5d044e4f11e5",
    ),
    "cross_attention": (
        "9f6e23b5e204507efff965162e798bf558068a1545bfe4497c0d059df143abc2",
        "fc5a5bd2b5ce48390aa0f0f79f9c4ec640b3c3999b0b73d9a9b2e90ed74a6a95",
    ),
    "no_spatial_branch": (
        "aa8b8d1922816bbce7c2d387489382f7b73c5f44f8ecc403f9a272f7478bccf5",
        "011a893b400009b7933724818fbae7d45ea802dfaff30e5b8a8e9db5e97449c9",
    ),
}


def snapshot_config(case):
    if case == "no_spatial_branch":
        return toy_config(use_spatial_branch=False)
    return toy_config(emotion_mode=case)


class TestParameterRegistry:
    @pytest.mark.parametrize("case", sorted(REGISTRY_SNAPSHOT))
    def test_names_shapes_and_checkpoint_bytes_unchanged(self, tmp_path, case):
        model = GestureDenoiser(snapshot_config(case), stream(0, "registry-snapshot"))
        listing = [[name, list(p.data.shape)] for name, p in model.params().items()]
        path = tmp_path / "toy.ckpt"
        save_checkpoint(model, path)
        digests = (hashlib.sha256(json.dumps(listing).encode()).hexdigest(),
                   hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests == REGISTRY_SNAPSHOT[case]

    @pytest.mark.parametrize("case", sorted(REGISTRY_SNAPSHOT))
    def test_checkpoint_load_draws_nothing_and_restores_every_bit(self, tmp_path, case):
        model = GestureDenoiser(snapshot_config(case), stream(0, "registry-snapshot"))
        stand_in = GestureDenoiser(snapshot_config(case), _ZeroDraws())
        assert ([(name, p.data.shape) for name, p in stand_in.params().items()]
                == [(name, p.data.shape) for name, p in model.params().items()])
        randomize_parameters(model, stream(1, "rand"))
        save_checkpoint(model, tmp_path / "toy.ckpt")
        loaded = load_checkpoint(tmp_path / "toy.ckpt").model.params()
        assert list(loaded) == list(model.params())
        for name, p in model.params().items():
            assert loaded[name].data.dtype == np.float64
            assert loaded[name].data.tobytes() == p.data.tobytes(), name


# sha256 per toy configuration of (1) one B=1 denoise and (2) eps, logits and
# every parameter gradient (params() order) of one B=2 forward + backward.
# (1) dates from before Linear, attention and mean became single graph nodes
# and before `linear` folded the batch into its rows: a B=1 product is the
# same BLAS call either way, so sampling keeps every bit.  (2) was recorded
# again when `linear`'s backward began to fold the batch into one product
# per direction (at most 3.6e-15 absolute on these five configurations), and
# again when its forward began to form each item's product alone and the
# per-item vectors became (B, 1, d): one-row products went from one gemm
# over the batch to a gemv per item (at most 2.7e-15 absolute).
# They hash BLAS products, so another BLAS build or CPU kernel may need them
# recorded again (the same run on the parent tree gives the new values).
GRAPH_SNAPSHOT = {
    "adaln": (
        "7f0d17dd9ed60f615511c59028796cd4bb4c37fd3ea6b69a90fdc8b852a58357",
        "2f6ab1aeb5f2387b5e745fa17de5403861660150b1e5e9d77b503cace8b223d9",
    ),
    "cross_attention": (
        "e8b4b7213a11f2fddea1c036916f8c96db70dc2fb6dcd700b7345e36c9053d12",
        "7b78f5a1d04aa1625ac3760faf774dca2c8ad8aeccd088d39514e6e73c502300",
    ),
    "in_context_content": (
        "b3cad2db30db9bac6f97309523b32febbd69f73d498f3df34a3f21ca8e72356d",
        "fa1c29e5cf6d59a56eb53bec3c53fcf79568b45b4039cf44e1acdb633e277880",
    ),
    "in_context_token": (
        "c80360ed300d0ec07f9f2ead1f5872fcccc1d6c5c54df333b34aa67c525e94c4",
        "87e0e08b74f14e2298878e6ad73bbfc99e8a8a2a31598bac749d45fbf1875dfe",
    ),
    "no_spatial_branch": (
        "21322e8c7c7f64f764c7623db858aafb8de6c375defea3a4039ddb707e1a9c4f",
        "2fb3baf3ca0ef8aee3ea8caabf377c982b11dc39542ae23f3f4cc5e678814170",
    ),
}


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def graph_digests(case):
    model = GestureDenoiser(snapshot_config(case), stream(0, "graph-snapshot"))
    randomize_parameters(model, stream(1, "graph-snapshot"))
    x, cond = make_inputs(model, b=2, n=12, seed=3)
    single = model.denoise(x[0], 7, Condition(audio=cond.audio[0], speaker=1))
    eps, logits, _ = model.forward(x, [3, 40], cond)
    w = np.random.default_rng(4).normal(size=eps.shape)
    ((eps * Tensor(w)).sum() + logits.mean()).backward()
    return (_sha256(single),
            _sha256(eps.data, logits.data, *(p.grad for p in model.params().values())))


@pytest.mark.parametrize("case", sorted(REGISTRY_SNAPSHOT))
def test_denoise_and_gradients_keep_every_bit(case):
    single, batch = graph_digests(case)
    assert single == GRAPH_SNAPSHOT[case][0], "the B=1 denoise moved"
    assert batch == GRAPH_SNAPSHOT[case][1], "the B=2 forward or a gradient moved"
