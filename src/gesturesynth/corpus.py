"""Seeded procedural corpus: paired audio/gesture clips with known structure.

Every sample is generated from closed-form rules so downstream claims are
checkable against ground truth:

* Beats sit on a regular grid whose period is drawn per sample (and scaled
  per emotion).  Motion is built from single strokes between consecutive
  beats: within a stroke the pose travels along a fixed per-joint direction
  with speed profile 1 - cos(2*pi*u), which is exactly zero at the stroke
  boundaries.  Mean angular speed therefore dips to ~0 precisely at the
  beats, which is what the kinematic beat extractor keys on.  Stroke
  direction alternates so the pose oscillates instead of drifting.
* Audio channel 0 carries a Gaussian-smoothed impulse train peaking at the
  same beat frames.  A block of 2 channels per emotion carries that
  emotion's fixed two-hot pattern plus small noise, making classes linearly
  separable by construction.  The pattern is scaled by a deliberately small
  ``emotion_cue_gain``: pooling over frames recovers the class easily, so a
  supervised classifier head still decodes it, but the cue is too faint for
  the denoiser's regression objective to prefer it over the clean label
  embedding it is given — which is what makes label-override emotion
  transfer work at sampling time.  One channel encodes the speaker, two
  carry the stroke phase (sin/cos), and the rest are low-amplitude noise
  filler.
* Emotion also shifts the resting posture and scales stroke amplitude, and
  each speaker adds a small fixed posture offset, so labels are recoverable
  from the motion alone as well.

Everything is keyed off the master seed through named counter-based
streams, so a (config, emotion, speaker, seed) tuple always produces the
identical sample, on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError
from .motion import (
    AudioFeatureSequence,
    GestureSequence,
    JsonConfig,
    _read_json,
    _write_json,
    load_audio,
    load_motion,
    save_audio,
    save_motion,
    skeleton_for,
)
from .rng import stream

BEAT_CHANNEL = 0
BEAT_SMOOTHING = 0.8  # std dev (frames) of the impulse smoothing kernel


@dataclass(frozen=True)
class CorpusConfig(JsonConfig):
    n_emotions: int = 8
    n_speakers: int = 4
    n_joints: int = 47
    sample_length: int = 64
    fps: float = 15.0
    d_audio: int = 128
    beat_period: tuple = (5, 9)
    amplitudes: tuple = ()
    period_factors: tuple = ()
    posture_scale: float = 0.3
    motion_noise: float = 0.01
    audio_noise: float = 0.05
    emotion_cue_gain: float = 0.12
    master_seed: int = 0

    def __post_init__(self):
        if self.n_emotions < 2:
            raise ConfigError("corpus needs at least 2 emotion classes")
        if self.n_speakers < 1 or self.n_joints < 1:
            raise ConfigError("speaker and joint counts must be positive")
        if self.sample_length < 8:
            raise ConfigError("sample_length must be at least 8 frames")
        lo, hi = int(self.beat_period[0]), int(self.beat_period[1])
        if not (2 <= lo <= hi):
            raise ConfigError(f"beat periods must be >= 2 frames, got ({lo}, {hi})")
        object.__setattr__(self, "beat_period", (lo, hi))
        if self.d_audio < 2 * self.n_emotions + 4:
            raise ConfigError(
                f"d_audio={self.d_audio} too small for the channel layout; need at "
                f"least {2 * self.n_emotions + 4}"
            )
        if self.emotion_cue_gain < 0:
            raise ConfigError(
                f"emotion_cue_gain must be >= 0, got {self.emotion_cue_gain}"
            )
        for name, lo, hi in (("amplitudes", 0.15, 0.5), ("period_factors", 0.85, 1.25)):
            table = getattr(self, name) or np.round(np.linspace(lo, hi, self.n_emotions), 6)
            if len(table) != self.n_emotions:
                raise ConfigError(f"{name} table must have one entry per emotion")
            object.__setattr__(self, name, tuple(float(v) for v in table))

    @property
    def emotion_block(self) -> slice:
        """Audio channels carrying the per-emotion two-hot pattern."""
        return slice(1, 1 + 2 * self.n_emotions)

    @property
    def speaker_channel(self) -> int:
        return 1 + 2 * self.n_emotions

    @property
    def phase_channels(self) -> tuple:
        base = 2 + 2 * self.n_emotions
        return (base, base + 1)


@dataclass
class CorpusSample:
    audio: AudioFeatureSequence
    motion: GestureSequence
    emotion: int
    speaker: int
    beat_frames: np.ndarray
    seed: int

    def __post_init__(self):
        beats = np.asarray(self.beat_frames, dtype=int)
        n = self.motion.n_frames
        if beats.size and (np.any(np.diff(beats) <= 0) or beats[0] < 0 or beats[-1] >= n):
            raise ConfigError("beat frames must be strictly increasing within [0, N)")
        self.beat_frames = beats


def emotion_pattern(config: CorpusConfig, emotion: int) -> np.ndarray:
    """The clean two-hot signature of an emotion in the audio block."""
    pattern = np.zeros(2 * config.n_emotions)
    pattern[2 * emotion : 2 * emotion + 2] = 1.0
    return pattern


def _direction_table(config, emotion):
    rng = stream(config.master_seed, "directions", emotion)
    dirs = rng.normal(size=(config.n_joints, 3))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _posture_table(config, emotion):
    rng = stream(config.master_seed, "posture", emotion)
    return config.posture_scale * rng.normal(size=(config.n_joints, 3))


def _speaker_offset(config, speaker):
    rng = stream(config.master_seed, "speaker-pose", speaker)
    return 0.05 * rng.normal(size=(config.n_joints, 3))


def generate_sample(config: CorpusConfig, emotion: int, speaker: int, seed: int) -> CorpusSample:
    """One paired (audio, motion) clip with ground-truth beats and labels."""
    if not 0 <= emotion < config.n_emotions:
        raise ConfigError(f"emotion {emotion} outside [0, {config.n_emotions})")
    if not 0 <= speaker < config.n_speakers:
        raise ConfigError(f"speaker {speaker} outside [0, {config.n_speakers})")
    rng = stream(config.master_seed, "sample", seed, emotion, speaker)
    n = config.sample_length

    lo, hi = config.beat_period
    base_period = int(rng.integers(lo, hi + 1))
    period = max(2, int(round(base_period * config.period_factors[emotion])))
    first = 2
    grid_start = first - period
    # extended grid so every frame lies inside some stroke
    grid = np.arange(grid_start, n + 2 * period, period)
    beat_frames = grid[(grid >= 0) & (grid < n)]

    frames_idx = np.arange(n, dtype=np.float64)
    rel = (frames_idx - grid_start) / period
    stroke = np.floor(rel).astype(int)
    u = rel - stroke
    smooth = u - np.sin(2.0 * np.pi * u) / (2.0 * np.pi)
    value = np.where(stroke % 2 == 0, smooth, 1.0 - smooth)

    dirs = _direction_table(config, emotion)
    posture = _posture_table(config, emotion) + _speaker_offset(config, speaker)
    amp = config.amplitudes[emotion]
    motion = (
        posture[None, :, :]
        + amp * value[:, None, None] * dirs[None, :, :]
        + config.motion_noise * rng.normal(size=(n, config.n_joints, 3))
    )

    audio = config.audio_noise * rng.normal(size=(n, config.d_audio))
    offsets = frames_idx[:, None] - beat_frames[None, :]
    audio[:, BEAT_CHANNEL] = np.exp(
        -(offsets**2) / (2.0 * BEAT_SMOOTHING**2)
    ).sum(axis=1) + 0.01 * rng.normal(size=n)
    audio[:, config.emotion_block] += config.emotion_cue_gain * emotion_pattern(
        config, emotion
    )
    audio[:, config.speaker_channel] += (speaker + 1.0) / config.n_speakers
    ph_sin, ph_cos = config.phase_channels
    audio[:, ph_sin] += np.sin(2.0 * np.pi * u)
    audio[:, ph_cos] += np.cos(2.0 * np.pi * u)

    return CorpusSample(
        audio=AudioFeatureSequence(audio, source_rate_hz=config.fps),
        motion=GestureSequence(motion, fps=config.fps, skeleton=skeleton_for(config.n_joints)),
        emotion=emotion,
        speaker=speaker,
        beat_frames=beat_frames,
        seed=seed,
    )


@dataclass
class CorpusSplits:
    train: list = field(default_factory=list)
    val: list = field(default_factory=list)
    test: list = field(default_factory=list)

    def all_samples(self):
        return self.train + self.val + self.test


def generate_corpus(config: CorpusConfig, sample_count: int) -> CorpusSplits:
    """Emotion/speaker-stratified corpus with disjoint 80/10/10 splits."""
    if sample_count < 10:
        raise ConfigError(f"corpus needs at least 10 samples, got {sample_count}")
    samples = []
    for i in range(sample_count):
        emotion = i % config.n_emotions
        speaker = (i // config.n_emotions) % config.n_speakers
        samples.append(generate_sample(config, emotion, speaker, seed=i))

    by_emotion = {}
    for s in samples:
        by_emotion.setdefault(s.emotion, []).append(s)
    splits = CorpusSplits()
    for emotion in sorted(by_emotion):
        group = by_emotion[emotion]
        n_group = len(group)
        n_test = max(1, n_group // 10)
        n_val = max(1, n_group // 10)
        if n_test + n_val >= n_group:
            n_test = n_val = max(0, (n_group - 1) // 2) or 0
        splits.test.extend(group[:n_test])
        splits.val.extend(group[n_test : n_test + n_val])
        splits.train.extend(group[n_test + n_val :])
    return splits


def closed_form_emotion_probe(config: CorpusConfig, samples) -> float:
    """Accuracy of nearest-pattern classification on time-pooled audio blocks.

    Uses the known clean per-emotion patterns rather than fitted statistics,
    so on clean samples this is exact by construction.
    """
    patterns = config.emotion_cue_gain * np.stack(
        [emotion_pattern(config, e) for e in range(config.n_emotions)]
    )
    correct = 0
    for s in samples:
        pooled = s.audio.features[:, config.emotion_block].mean(axis=0)
        pred = int(np.argmin(np.linalg.norm(patterns - pooled, axis=1)))
        correct += pred == s.emotion
    return correct / len(samples)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _sample_id(sample: CorpusSample) -> str:
    return f"sample_{sample.seed:05d}"


def save_corpus(config: CorpusConfig, splits: CorpusSplits, directory) -> None:
    """Write each sample (motion, audio, sidecar) plus a split manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"config": config.to_dict(), "splits": {}}
    for name in ("train", "val", "test"):
        ids = []
        for sample in getattr(splits, name):
            sid = _sample_id(sample)
            ids.append(sid)
            save_motion(sample.motion, directory / f"{sid}.motion")
            save_audio(sample.audio, directory / f"{sid}.audio")
            sidecar = {
                "emotion": sample.emotion,
                "speaker": sample.speaker,
                "beat_frames": [int(b) for b in sample.beat_frames],
                "seed": sample.seed,
            }
            _write_json(directory / f"{sid}.json", sidecar)
        manifest["splits"][name] = ids
    _write_json(directory / "manifest.json", manifest)


def _load_sample(directory, sid, config: CorpusConfig) -> CorpusSample:
    """One saved sample; a malformed sidecar is a ParseError naming it."""
    path = directory / f"{sid}.json"
    sidecar = _read_json(path)
    ints = ("emotion", "speaker", "seed")
    if not (isinstance(sidecar, dict) and set(sidecar) == {*ints, "beat_frames"}
            and all(type(sidecar[k]) is int for k in ints)
            and isinstance(sidecar["beat_frames"], list)
            and all(type(b) is int for b in sidecar["beat_frames"])
            and 0 <= sidecar["emotion"] < config.n_emotions
            and 0 <= sidecar["speaker"] < config.n_speakers):
        raise ParseError(f"{path}: a sidecar holds integer emotion and speaker labels "
                         "within the corpus config, an integer seed and integer beat_frames")
    try:
        return CorpusSample(
            audio=load_audio(directory / f"{sid}.audio"),
            motion=load_motion(directory / f"{sid}.motion"),
            emotion=sidecar["emotion"],
            speaker=sidecar["speaker"],
            beat_frames=np.asarray(sidecar["beat_frames"], dtype=int),
            seed=sidecar["seed"],
        )
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_corpus(directory):
    """Read a saved corpus back; returns (config, splits)."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = _read_json(manifest_path)
    names = ("train", "val", "test")
    if not (isinstance(manifest, dict) and set(manifest) == {"config", "splits"}
            and isinstance(manifest["splits"], dict) and set(manifest["splits"]) == set(names)
            and all(isinstance(ids, list) and all(isinstance(i, str) for i in ids)
                    for ids in manifest["splits"].values())):
        raise ParseError(f"{manifest_path}: a manifest holds a config and "
                         "train/val/test lists of sample ids")
    try:
        config = CorpusConfig.from_dict(manifest["config"])
    except ConfigError as exc:
        raise ParseError(f"{manifest_path}: {exc}") from exc
    splits = CorpusSplits()
    for name in names:
        getattr(splits, name).extend(
            _load_sample(directory, sid, config) for sid in manifest["splits"][name]
        )
    return config, splits


def toy_corpus_config(**overrides) -> CorpusConfig:
    """Small corpus matching the toy model dims."""
    base = dict(
        n_emotions=4,
        n_speakers=2,
        n_joints=6,
        sample_length=34,
        d_audio=20,
        beat_period=(5, 8),
        master_seed=1234,
    )
    base.update(overrides)
    return CorpusConfig(**base)
