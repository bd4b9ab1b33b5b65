"""Tests for the procedural corpus: determinism, structure, separability."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from gesturesynth.corpus import (
    CorpusConfig,
    CorpusSample,
    closed_form_emotion_probe,
    emotion_pattern,
    generate_corpus,
    generate_sample,
    load_corpus,
    save_corpus,
    toy_corpus_config,
)
from gesturesynth.errors import ConfigError, ParseError


def json_corruptions(data):
    """`data` cut at any offset, or with any one byte overwritten.

    Written bytes favour JSON punctuation, digits, sign and exponent marks, a
    path separator and bytes that are not UTF-8.
    """
    at = st.integers(0, len(data) - 1)
    cut = at.map(lambda i: data[:i])
    byte = st.one_of(st.integers(0, 255), st.sampled_from(b'"{}[],:.-+e09/\\ \x00\xff'))
    poke = st.tuples(at, byte).map(
        lambda p: data[: p[0]] + bytes([p[1]]) + data[p[0] + 1 :])
    return st.one_of(cut, poke)


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """A saved 10-sample toy corpus and the names of its JSON files."""
    directory = tmp_path_factory.mktemp("corpus-fuzz")
    save_corpus(toy_corpus_config(), generate_corpus(toy_corpus_config(), 10), directory)
    sidecars = sorted(p.name for p in directory.glob("sample_*.json"))
    return directory, sidecars


def small_config(**overrides):
    base = dict(
        n_emotions=8,
        n_speakers=4,
        n_joints=12,
        sample_length=64,
        d_audio=24,
        master_seed=7,
    )
    base.update(overrides)
    return CorpusConfig(**base)


def mean_angular_speed(frames):
    """Per-frame mean joint speed via central differences (interior frames)."""
    vel = (frames[2:] - frames[:-2]) / 2.0
    return np.linalg.norm(vel, axis=2).mean(axis=1)


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = CorpusConfig()
        assert cfg.n_emotions == 8
        assert cfg.n_speakers == 4
        assert cfg.d_audio == 128
        assert len(cfg.amplitudes) == 8
        assert len(cfg.period_factors) == 8

    def test_channel_layout_is_disjoint(self):
        cfg = small_config()
        block = cfg.emotion_block
        used = [0, cfg.speaker_channel, *cfg.phase_channels]
        used += list(range(block.start, block.stop))
        assert len(used) == len(set(used))
        assert max(used) < cfg.d_audio

    def test_too_few_emotions_rejected(self):
        with pytest.raises(ConfigError):
            small_config(n_emotions=1)

    def test_narrow_audio_rejected(self):
        with pytest.raises(ConfigError, match="d_audio"):
            small_config(d_audio=10)

    def test_bad_beat_period_rejected(self):
        with pytest.raises(ConfigError):
            small_config(beat_period=(1, 4))
        with pytest.raises(ConfigError):
            small_config(beat_period=(9, 5))

    def test_wrong_table_length_rejected(self):
        with pytest.raises(ConfigError):
            small_config(amplitudes=(0.1, 0.2))

    def test_dict_roundtrip(self):
        cfg = small_config(amplitudes=tuple(np.linspace(0.1, 0.4, 8)))
        again = CorpusConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            CorpusConfig.from_dict({"n_emotions": 4, "flavor": "salt"})

    def test_toy_config_valid(self):
        cfg = toy_corpus_config()
        assert cfg.n_joints == 6
        assert cfg.d_audio >= 2 * cfg.n_emotions + 4


class TestGenerateSample:
    def test_deterministic(self):
        cfg = small_config()
        a = generate_sample(cfg, emotion=3, speaker=1, seed=11)
        b = generate_sample(cfg, emotion=3, speaker=1, seed=11)
        assert np.array_equal(a.motion.frames, b.motion.frames)
        assert np.array_equal(a.audio.features, b.audio.features)
        assert np.array_equal(a.beat_frames, b.beat_frames)

    def test_seed_changes_sample(self):
        cfg = small_config()
        a = generate_sample(cfg, 3, 1, seed=11)
        b = generate_sample(cfg, 3, 1, seed=12)
        assert not np.array_equal(a.motion.frames, b.motion.frames)

    def test_shapes_and_labels(self):
        cfg = small_config()
        s = generate_sample(cfg, 5, 2, seed=0)
        assert s.motion.frames.shape == (64, 12, 3)
        assert s.audio.features.shape == (64, 24)
        assert s.emotion == 5 and s.speaker == 2

    def test_beats_strictly_increasing_in_range(self):
        cfg = small_config()
        for seed in range(8):
            s = generate_sample(cfg, seed % 8, 0, seed=seed)
            beats = s.beat_frames
            assert beats.size >= 2
            assert np.all(np.diff(beats) > 0)
            assert beats[0] >= 0 and beats[-1] < 64

    def test_beat_period_constant_within_sample(self):
        s = generate_sample(small_config(), 2, 0, seed=4)
        gaps = np.diff(s.beat_frames)
        assert np.all(gaps == gaps[0])

    def test_invalid_labels_rejected(self):
        cfg = small_config()
        with pytest.raises(ConfigError):
            generate_sample(cfg, 8, 0, seed=0)
        with pytest.raises(ConfigError):
            generate_sample(cfg, 0, 4, seed=0)
        with pytest.raises(ConfigError):
            generate_sample(cfg, -1, 0, seed=0)

    def test_decreasing_beats_rejected_by_sample(self):
        s = generate_sample(small_config(), 0, 0, seed=0)
        with pytest.raises(ConfigError):
            CorpusSample(
                audio=s.audio,
                motion=s.motion,
                emotion=0,
                speaker=0,
                beat_frames=np.array([5, 3]),
                seed=0,
            )


class TestMotionStructure:
    def test_speed_dips_at_beats(self):
        cfg = small_config()
        s = generate_sample(cfg, 4, 0, seed=2)
        speed = mean_angular_speed(s.motion.frames)  # indexed from frame 1
        interior = [b for b in s.beat_frames if 1 <= b <= 62]
        at_beats = np.array([speed[b - 1] for b in interior])
        assert at_beats.mean() < 0.25 * speed.mean()

    def test_oracle_extractor_recovers_beats(self):
        """Peak-picking on negated mean speed finds >=90% of beats within 1 frame."""
        cfg = small_config()
        hit = total = 0
        for seed in range(16):
            s = generate_sample(cfg, seed % 8, seed % 4, seed=seed)
            speed = mean_angular_speed(s.motion.frames)
            # pad below the minimum so dips at the array edges still count
            floor = -(speed.max() + 1.0)
            padded = np.concatenate([[floor], -speed, [floor]])
            peaks, _ = find_peaks(padded, distance=2, prominence=0.01)
            found = peaks  # unpad (-1), then speed[i] covers frame i+1 (+1)
            for b in s.beat_frames:
                if not 1 <= b <= cfg.sample_length - 2:
                    continue
                total += 1
                hit += np.any(np.abs(found - b) <= 1)
        assert total > 50
        assert hit / total >= 0.9

    def test_amplitude_scales_with_emotion(self):
        cfg = small_config()
        spread = []
        for e in (0, cfg.n_emotions - 1):
            stds = []
            for seed in range(4):
                s = generate_sample(cfg, e, 0, seed=seed)
                stds.append(s.motion.frames.std(axis=0).mean())
            spread.append(np.mean(stds))
        assert spread[1] > 1.5 * spread[0]

    def test_posture_differs_between_emotions(self):
        cfg = small_config(motion_noise=0.0)
        a = generate_sample(cfg, 0, 0, seed=0).motion.frames.mean(axis=0)
        b = generate_sample(cfg, 5, 0, seed=0).motion.frames.mean(axis=0)
        assert np.linalg.norm(a - b) > 0.5

    def test_speaker_shifts_posture(self):
        cfg = small_config(motion_noise=0.0)
        a = generate_sample(cfg, 2, 0, seed=0).motion.frames.mean(axis=0)
        b = generate_sample(cfg, 2, 3, seed=0).motion.frames.mean(axis=0)
        assert np.linalg.norm(a - b) > 0.05


class TestAudioStructure:
    def test_beat_channel_peaks_at_beats(self):
        cfg = small_config()
        s = generate_sample(cfg, 1, 0, seed=3)
        ch = s.audio.features[:, 0]
        for b in s.beat_frames:
            if 2 <= b <= 61:
                assert ch[b] > ch[b - 2] + 0.3
                assert ch[b] > ch[b + 2] + 0.3

    def test_emotion_block_matches_pattern(self):
        cfg = small_config()
        s = generate_sample(cfg, 6, 0, seed=5)
        pooled = s.audio.features[:, cfg.emotion_block].mean(axis=0)
        np.testing.assert_allclose(
            pooled, cfg.emotion_cue_gain * emotion_pattern(cfg, 6), atol=0.05
        )

    def test_speaker_channel_encodes_identity(self):
        cfg = small_config()
        for sp in range(cfg.n_speakers):
            s = generate_sample(cfg, 0, sp, seed=1)
            level = s.audio.features[:, cfg.speaker_channel].mean()
            assert abs(level - (sp + 1) / cfg.n_speakers) < 0.05

    def test_phase_channels_lie_near_unit_circle(self):
        cfg = small_config()
        s = generate_sample(cfg, 0, 0, seed=9)
        si, co = cfg.phase_channels
        radius = np.hypot(
            s.audio.features[:, si], s.audio.features[:, co]
        )
        assert np.all(np.abs(radius - 1.0) < 0.5)

    def test_class_means_well_separated(self):
        """Pooled emotion-block means sit >=5x intra-class spread apart."""
        cfg = small_config()
        pooled = {e: [] for e in range(cfg.n_emotions)}
        for e in range(cfg.n_emotions):
            for seed in range(5):
                s = generate_sample(cfg, e, seed % 4, seed=seed)
                pooled[e].append(s.audio.features[:, cfg.emotion_block].mean(axis=0))
        means = {e: np.mean(v, axis=0) for e, v in pooled.items()}
        intra = max(
            np.sqrt(np.mean([np.sum((x - means[e]) ** 2) for x in v]))
            for e, v in pooled.items()
        )
        gaps = [
            np.linalg.norm(means[a] - means[b])
            for a in means
            for b in means
            if a < b
        ]
        assert min(gaps) >= 5.0 * intra

    def test_closed_form_probe_is_perfect(self):
        cfg = small_config()
        samples = [
            generate_sample(cfg, i % 8, (i // 8) % 4, seed=i) for i in range(40)
        ]
        assert closed_form_emotion_probe(cfg, samples) == 1.0


class TestCorpusSplits:
    def test_stratified_counts(self):
        cfg = small_config()
        splits = generate_corpus(cfg, 80)
        assert len(splits.train) == 64
        assert len(splits.val) == 8
        assert len(splits.test) == 8
        for e in range(8):
            assert sum(s.emotion == e for s in splits.all_samples()) == 10
            assert sum(s.emotion == e for s in splits.val) == 1
            assert sum(s.emotion == e for s in splits.test) == 1

    def test_splits_disjoint_and_exhaustive(self):
        splits = generate_corpus(small_config(), 80)
        seeds = [s.seed for s in splits.all_samples()]
        assert len(seeds) == len(set(seeds)) == 80

    def test_speakers_covered(self):
        splits = generate_corpus(small_config(), 80)
        assert {s.speaker for s in splits.train} == {0, 1, 2, 3}

    def test_small_corpus_rejected(self):
        with pytest.raises(ConfigError):
            generate_corpus(small_config(), 9)

    def test_minimum_corpus_splits(self):
        splits = generate_corpus(small_config(n_emotions=2), 10)
        assert len(splits.all_samples()) == 10
        assert len(splits.val) >= 1 and len(splits.test) >= 1

    def test_corpus_deterministic(self):
        a = generate_corpus(small_config(), 16)
        b = generate_corpus(small_config(), 16)
        for x, y in zip(a.all_samples(), b.all_samples()):
            assert np.array_equal(x.motion.frames, y.motion.frames)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        cfg = toy_corpus_config()
        splits = generate_corpus(cfg, 12)
        save_corpus(cfg, splits, tmp_path / "corpus")
        cfg2, loaded = load_corpus(tmp_path / "corpus")
        assert cfg2 == cfg
        for orig, back in zip(splits.all_samples(), loaded.all_samples()):
            assert np.array_equal(orig.motion.frames, back.motion.frames)
            assert np.array_equal(orig.audio.features, back.audio.features)
            assert np.array_equal(orig.beat_frames, back.beat_frames)
            assert orig.emotion == back.emotion
            assert orig.speaker == back.speaker
            assert orig.seed == back.seed

    def test_sidecar_contents(self, tmp_path):
        cfg = toy_corpus_config()
        splits = generate_corpus(cfg, 10)
        save_corpus(cfg, splits, tmp_path)
        sid = f"sample_{splits.train[0].seed:05d}"
        sidecar = json.loads((tmp_path / f"{sid}.json").read_text())
        assert set(sidecar) == {"emotion", "speaker", "beat_frames", "seed"}

    def test_manifest_names_every_sample(self, tmp_path):
        cfg = toy_corpus_config()
        splits = generate_corpus(cfg, 10)
        save_corpus(cfg, splits, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = sum(len(v) for v in manifest["splits"].values())
        assert listed == 10

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(ParseError):
            load_corpus(tmp_path / "nowhere")

    @given(data=st.data())
    @settings(derandomize=True, max_examples=400, deadline=None)
    def test_corrupt_json_bytes_load_or_parse_error(self, fuzz_corpus, data):
        directory, sidecars = fuzz_corpus
        name = data.draw(st.one_of(st.just("manifest.json"), st.sampled_from(sidecars)))
        path = directory / name
        original = path.read_bytes()
        path.write_bytes(data.draw(json_corruptions(original)))
        try:
            load_corpus(directory)
        except ParseError:
            pass
        finally:
            path.write_bytes(original)

    @pytest.mark.parametrize("target, corrupt", [
        ("sidecar", lambda d: "{not json"),
        ("sidecar", lambda d: {}),
        ("sidecar", lambda d: {**d, "emotion": "1"}),
        ("sidecar", lambda d: {**d, "emotion": 99}),
        ("sidecar", lambda d: {**d, "beat_frames": [3, 2]}),
        ("manifest", lambda d: {"splits": d["splits"]}),
        ("manifest", lambda d: {**d, "splits": {"train": [], "test": []}}),
        ("manifest", lambda d: {**d, "config": 5}),
        ("manifest", lambda d: {**d, "config": {"n_emotions": "4"}}),
        ("manifest", lambda d: {**d, "config": {"flavor": "salt"}}),
        ("manifest", lambda d: []),
    ], ids=["sidecar-json", "sidecar-empty", "sidecar-type", "sidecar-range",
            "sidecar-beats", "no-config", "no-val", "config-not-object",
            "config-type", "config-unknown-key", "manifest-not-object"])
    def test_malformed_corpus_parse_error(self, tmp_path, target, corrupt):
        cfg = toy_corpus_config()
        splits = generate_corpus(cfg, 10)
        save_corpus(cfg, splits, tmp_path)
        name = ("manifest" if target == "manifest"
                else f"sample_{splits.val[0].seed:05d}") + ".json"
        bad = corrupt(json.loads((tmp_path / name).read_text()))
        (tmp_path / name).write_text(bad if isinstance(bad, str) else json.dumps(bad))
        with pytest.raises(ParseError, match=name):
            load_corpus(tmp_path)
