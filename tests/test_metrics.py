"""Metric oracles: Fréchet distance, keypoint recall, beat extraction/alignment."""

import csv
import io
import math

import numpy as np
import pytest

from gesturesynth.corpus import generate_corpus, generate_sample, toy_corpus_config
from gesturesynth.errors import ConfigError, ContractError, MetricError, NumericError
from gesturesynth.metrics import (
    BeatSet,
    ExtractorConfig,
    GaussianStats,
    MetricsReport,
    audio_beats,
    beat_align,
    extract_latents,
    fgd,
    fgd_from_stats,
    kinematic_beats,
    mean_joint_speed,
    srgr,
    train_extractor,
)
from gesturesynth.motion import AudioFeatureSequence, GestureSequence, generic_skeleton


def make_motion(frames, fps=15.0):
    frames = np.asarray(frames, dtype=np.float64)
    return GestureSequence(frames, fps=fps, skeleton=generic_skeleton(frames.shape[1]))


class TestGaussianStats:
    def test_from_latents(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 4))
        stats = GaussianStats.from_latents(x)
        np.testing.assert_allclose(stats.mean, x.mean(axis=0))
        np.testing.assert_allclose(stats.cov, stats.cov.T)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ContractError):
            GaussianStats.from_latents(np.zeros((1, 4)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            GaussianStats(mean=np.zeros(3), cov=np.zeros((2, 2)))


class TestFgd:
    def test_identical_sets_are_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(300, 8))
        assert fgd(x, x.copy()) < 1e-6

    def test_analytic_mean_offset(self):
        """Equal covariance, means offset by d in k dims -> exactly k * d^2."""
        k, d = 6, 0.7
        eye = np.eye(k)
        a = GaussianStats(mean=np.zeros(k), cov=eye)
        b = GaussianStats(mean=np.full(k, d), cov=eye)
        assert abs(fgd_from_stats(a, b) - k * d * d) < 1e-6

    def test_sampled_gaussians_match_analytic(self):
        rng = np.random.default_rng(2)
        k, d = 4, 1.5
        real = rng.normal(size=(10_000, k))
        gen = rng.normal(size=(10_000, k)) + d
        assert abs(fgd(real, gen) - k * d * d) <= 0.02 * k * d * d

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(500, 5))
        b = 1.5 * rng.normal(size=(500, 5)) + 0.3
        assert abs(fgd(a, b) - fgd(b, a)) < 1e-6

    def test_monotone_in_mean_offset(self):
        k = 3
        eye = np.eye(k)
        base = GaussianStats(mean=np.zeros(k), cov=eye)
        values = [
            fgd_from_stats(base, GaussianStats(mean=np.full(k, d), cov=eye))
            for d in (0.1, 0.5, 1.0)
        ]
        assert values[0] < values[1] < values[2]

    def test_covariance_difference_counts(self):
        k = 4
        a = GaussianStats(mean=np.zeros(k), cov=np.eye(k))
        b = GaussianStats(mean=np.zeros(k), cov=4.0 * np.eye(k))
        # Tr(I) + Tr(4I) - 2 Tr(sqrt(4I)) = 4k + k - 4k = k
        assert abs(fgd_from_stats(a, b) - k) < 1e-6

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ContractError):
            fgd(np.zeros((10, 3)), np.zeros((10, 4)))

    def test_broken_covariance_raises_numeric_error(self):
        bad = GaussianStats(mean=np.zeros(2), cov=np.array([[1.0, 0.0], [0.0, -1.0]]))
        good = GaussianStats(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(NumericError, match="eigenvalue"):
            fgd_from_stats(bad, good)


class TestSrgr:
    def test_identity_gives_one(self):
        rng = np.random.default_rng(4)
        seq = make_motion(rng.normal(size=(10, 4, 3)))
        assert srgr(seq, seq) == 1.0

    def test_large_offset_gives_zero(self):
        seq = make_motion(np.zeros((6, 3, 3)))
        off = make_motion(np.full((6, 3, 3), 0.4 / math.sqrt(3)))  # distance 0.4 = 2 delta
        assert srgr(seq, off, delta=0.2) == 0.0

    def test_uniform_weights_match_brute_force(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 5, 3))
        b = a + 0.15 * rng.normal(size=a.shape)
        delta = 0.2
        hits = 0
        for f in range(8):
            for j in range(5):
                if np.linalg.norm(a[f, j] - b[f, j]) <= delta:
                    hits += 1
        expected = hits / (8 * 5)
        assert abs(srgr(make_motion(a), make_motion(b), delta=delta) - expected) < 1e-12

    def test_weighted_matches_brute_force(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(6, 4, 3))
        b = a + 0.2 * rng.normal(size=a.shape)
        w = rng.uniform(0.5, 2.0, size=6)
        wn = w / w.mean()
        total = 0.0
        for f in range(6):
            for j in range(4):
                if np.linalg.norm(a[f, j] - b[f, j]) <= 0.2:
                    total += wn[f]
        expected = total / (6 * 4)
        got = srgr(make_motion(a), make_motion(b), weights=w, delta=0.2)
        assert abs(got - expected) < 1e-12

    def test_monotone_in_delta(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(10, 6, 3))
        b = a + 0.3 * rng.normal(size=a.shape)
        scores = [srgr(make_motion(a), make_motion(b), delta=d)
                  for d in (0.05, 0.2, 0.5, 2.0)]
        assert all(x <= y for x, y in zip(scores, scores[1:]))
        assert scores[-1] == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            srgr(make_motion(np.zeros((5, 3, 3))), make_motion(np.zeros((6, 3, 3))))

    def test_bad_weights_rejected(self):
        seq = make_motion(np.zeros((4, 2, 3)))
        with pytest.raises(ContractError):
            srgr(seq, seq, weights=np.ones(3))
        with pytest.raises(ContractError):
            srgr(seq, seq, weights=-np.ones(4))


class TestBeatSets:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(ContractError):
            BeatSet(np.array([1.0, 1.0, 2.0]))

    def test_constant_pose_has_no_beats(self):
        seq = make_motion(np.ones((20, 3, 3)))
        assert len(kinematic_beats(seq)) == 0

    def test_short_sequence_rejected(self):
        with pytest.raises(ContractError):
            kinematic_beats(make_motion(np.zeros((4, 2, 3))))
        with pytest.raises(ContractError):
            audio_beats(AudioFeatureSequence(np.zeros((4, 3))))

    def test_zero_envelope_has_no_beats(self):
        audio = AudioFeatureSequence(np.zeros((30, 4)))
        assert len(audio_beats(audio)) == 0

    def test_kinematic_beats_recover_ground_truth(self):
        """>=90% of generator beats found within one frame."""
        cfg = toy_corpus_config(n_joints=10, sample_length=64)
        hit = total = 0
        for seed in range(16):
            s = generate_sample(cfg, seed % 4, seed % 2, seed=seed)
            found = np.round(kinematic_beats(s.motion).times * cfg.fps).astype(int)
            for b in s.beat_frames:
                if not 1 <= b <= cfg.sample_length - 2:
                    continue
                total += 1
                hit += np.any(np.abs(found - b) <= 1)
        assert total > 50
        assert hit / total >= 0.9

    def test_audio_beats_recover_ground_truth(self):
        cfg = toy_corpus_config(sample_length=64)
        hit = total = 0
        for seed in range(12):
            s = generate_sample(cfg, seed % 4, seed % 2, seed=seed)
            found = np.round(audio_beats(s.audio).times * cfg.fps).astype(int)
            for b in s.beat_frames:
                total += 1
                hit += np.any(np.abs(found - b) <= 1)
        assert hit / total >= 0.9

    def test_impulse_train_spacing(self):
        env = np.zeros((40, 2))
        env[5::8, 0] = 1.0
        beats = audio_beats(AudioFeatureSequence(env, source_rate_hz=20.0))
        gaps = np.diff(beats.times)
        np.testing.assert_allclose(gaps, 8 / 20.0)

    def test_beat_times_strictly_increasing(self):
        cfg = toy_corpus_config(sample_length=64)
        s = generate_sample(cfg, 1, 0, seed=3)
        times = kinematic_beats(s.motion).times
        assert np.all(np.diff(times) > 0)

    def test_mean_joint_speed_length(self):
        speed = mean_joint_speed(np.zeros((10, 2, 3)))
        assert speed.shape == (8,)


class TestBeatAlign:
    def test_identical_sets_give_one(self):
        b = np.array([0.5, 1.0, 2.0])
        assert beat_align(b, b) == 1.0

    def test_offset_closed_form(self):
        val = beat_align(np.array([1.0]), np.array([1.3]), sigma=0.3)
        assert abs(val - math.exp(-0.5)) < 1e-9

    def test_uses_nearest_audio_beat(self):
        bm = np.array([1.0])
        ba = np.array([0.0, 1.0 + 0.3, 9.0])
        assert abs(beat_align(bm, ba) - math.exp(-0.5)) < 1e-9

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(8)
        bm = np.sort(rng.uniform(0, 10, size=12))
        ba = np.sort(rng.uniform(0, 10, size=9))
        val = beat_align(bm, ba)
        assert 0.0 < val <= 1.0

    def test_empty_sets_rejected(self):
        with pytest.raises(MetricError):
            beat_align(np.array([]), np.array([1.0]))
        with pytest.raises(MetricError):
            beat_align(np.array([1.0]), np.array([]))

    def test_accepts_beat_set_objects(self):
        a = BeatSet(np.array([1.0, 2.0]), source="kinematic")
        b = BeatSet(np.array([1.0, 2.0]), source="audio")
        assert beat_align(a, b) == 1.0

    def test_true_pairing_beats_shuffled(self):
        """Aligned corpus audio scores higher than mismatched audio."""
        cfg = toy_corpus_config(sample_length=64)
        true_scores, shuffled_scores = [], []
        for seed in range(8):
            s = generate_sample(cfg, seed % 4, 0, seed=seed)
            other = generate_sample(cfg, (seed + 1) % 4, 0, seed=seed + 100)
            bm = kinematic_beats(s.motion)
            true_scores.append(beat_align(bm, audio_beats(s.audio)))
            shuffled_scores.append(beat_align(bm, audio_beats(other.audio)))
        assert np.mean(true_scores) > np.mean(shuffled_scores)
        assert np.mean(true_scores) > 0.9


@pytest.fixture(scope="module")
def trained():
    cfg = toy_corpus_config(sample_length=34)
    splits = generate_corpus(cfg, 140)
    clips = [s.motion for s in splits.train]
    holdout = [s.motion for s in splits.val]
    ex_cfg = ExtractorConfig(clip_length=34, n_steps=300, seed=3)
    return train_extractor(clips, ex_cfg), clips, holdout


class TestExtractor:

    def test_latent_dim(self, trained):
        extractor, clips, _ = trained
        z = extractor.encode(clips[0])
        assert z.shape == (32,)

    def test_heldout_reconstruction(self, trained):
        extractor, _, holdout = trained
        assert extractor.reconstruction_mse(holdout) <= 0.1

    def test_deterministic(self, trained):
        extractor, clips, _ = trained
        cfg = ExtractorConfig(clip_length=34, n_steps=300, seed=3)
        again = train_extractor(clips, cfg)
        np.testing.assert_array_equal(
            extractor.encode_batch(clips[:5]), again.encode_batch(clips[:5])
        )

    def test_too_few_clips_rejected(self):
        with pytest.raises(ContractError, match="100"):
            train_extractor([np.zeros((34, 3, 3))] * 99)

    def test_wrong_clip_length_rejected(self):
        with pytest.raises(ContractError):
            train_extractor([np.zeros((20, 3, 3))] * 120)

    def test_nonconvergence_warns_but_emits(self):
        rng = np.random.default_rng(9)
        clips = [rng.normal(size=(8, 2, 3)) for _ in range(110)]
        cfg = ExtractorConfig(clip_length=8, n_steps=2, target_mse=1e-6, seed=0)
        with pytest.warns(UserWarning, match="MSE"):
            extractor = train_extractor(clips, cfg)
        assert extractor.final_mse > 1e-6

    def test_long_sequences_train_on_disjoint_windows(self, trained):
        # pairs of 34-frame clips joined into 68-frame sequences window back
        # into the same clips in the same order, so the extractor is identical
        extractor, clips, _ = trained
        assert len(clips) % 2 == 0
        joined = [np.concatenate([a.frames, b.frames])
                  for a, b in zip(clips[0::2], clips[1::2])]
        again = train_extractor(joined, ExtractorConfig(clip_length=34, n_steps=300, seed=3))
        np.testing.assert_array_equal(
            extractor.encode_batch(clips[:5]), again.encode_batch(clips[:5])
        )

    def test_extract_latents_rejects_zero_stride(self, trained):
        extractor, clips, _ = trained
        with pytest.raises(ConfigError, match="must be positive"):
            extract_latents(extractor, clips[:2], stride=0)

    def test_extract_latents_windows(self, trained):
        extractor, clips, _ = trained
        z = extract_latents(extractor, clips[:4])
        assert z.shape == (4, 32)

    def test_latents_separate_real_from_noise(self, trained):
        """Same-distribution split halves score far closer than random motion.

        Both comparisons use >= latent_dim clips per side so the Gaussian
        fits are full rank.
        """
        extractor, clips, _ = trained
        half = len(clips) // 2
        # interleave so both halves share the same emotion mixture
        real_a = extract_latents(extractor, clips[0::2])
        real_b = extract_latents(extractor, clips[1::2])
        rng = np.random.default_rng(10)
        fake = [
            make_motion(rng.normal(size=(34,) + clips[0].frames.shape[1:]))
            for _ in range(half)
        ]
        noise = extract_latents(extractor, fake)
        assert fgd(real_a, noise) > 3.0 * fgd(real_a, real_b)


class TestMetricsReport:
    def test_text_contains_all_metrics(self):
        report = MetricsReport(fgd=1.5, srgr=0.8, beat_align=0.9,
                               details={"repeats": 10})
        text = report.text()
        for token in ("FGD", "SRGR", "BeatAlign", "repeats"):
            assert token in text

    def test_csv_roundtrippable(self, tmp_path):
        report = MetricsReport(fgd=1.25, srgr=0.5, beat_align=0.75)
        report.write_csv(tmp_path / "metrics.csv")
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "metric,value"
        parsed = dict(line.split(",") for line in lines[1:])
        assert float(parsed["fgd"]) == 1.25
        assert float(parsed["beat_align"]) == 0.75

        # two repeats: the per-repeat list holds a comma, yet stays one field
        report = MetricsReport(fgd=1.0, srgr=0.5, beat_align=0.75,
                               details={"repeats": 2, "fgd_per_repeat": [1.1, 0.9]})
        report.write_csv(tmp_path / "repeats.csv")
        text = (tmp_path / "repeats.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["metric", "value"]
        assert all(len(row) == 2 for row in rows)
        parsed = dict(rows[1:])
        assert parsed["fgd_per_repeat"] == "[1.1, 0.9]"
        assert float(parsed["repeats"]) == 2.0
        assert "repeats,2.0\n" in text  # scalar rows keep their bytes
