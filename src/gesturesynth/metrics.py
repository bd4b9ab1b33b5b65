"""Evaluation metrics: distributional distance, keypoint recall, beat synchrony.

The distribution metric compares Gaussian fits of latent features.  The
feature extractor is a small autoencoder over frame-flattened fixed-length
clips (latent dim 32), trained only on real motion; its decoder exists
purely to train the encoder and is discarded at evaluation time.

Beat extraction: kinematic beats are prominent local minima of the mean
per-joint angular speed (gesture strokes pause at beats), audio beats are
peaks of the onset-envelope channel.  Both report times in seconds.  The
alignment score is the mean exponential Chamfer agreement between the two
beat sets.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

from .autodiff import Tensor, no_grad
from .errors import ConfigError, ContractError, MetricError, NumericError
from .layers import Linear, Module
from .motion import (AudioFeatureSequence, DatasetStats, GestureSequence, JsonConfig,
                     _atomic_open, frames_of, normalize, window_starts)
from .optim import Adam
from .rng import stream

COV_JITTER = 1e-10
EIG_TOLERANCE = -1e-8


# ---------------------------------------------------------------------------
# feature extractor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractorConfig(JsonConfig):
    clip_length: int = 34
    latent_dim: int = 32
    hidden_dim: int = 128
    n_steps: int = 400
    batch_size: int = 32
    lr: float = 1e-3
    target_mse: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.clip_length < 2 or self.latent_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("extractor dimensions must be positive")
        if self.n_steps < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ConfigError("extractor training settings must be positive")


class GestureFeatureExtractor(Module):
    """Autoencoder whose frozen encoder maps clips to latent vectors."""

    def __init__(self, config: ExtractorConfig, input_dim, stats: DatasetStats, rng):
        self.config = config
        self.input_dim = input_dim
        self.stats = stats
        self.enc_in = Linear(input_dim, config.hidden_dim, rng)
        self.enc_out = Linear(config.hidden_dim, config.latent_dim, rng)
        self.dec_in = Linear(config.latent_dim, config.hidden_dim, rng)
        self.dec_out = Linear(config.hidden_dim, input_dim, rng)
        self.final_mse = None

    def _flatten(self, clip):
        frames = frames_of(clip)
        if frames.ndim != 3 or frames.shape[0] != self.config.clip_length:
            raise ContractError(
                f"extractor expects ({self.config.clip_length}, J, 3) clips, "
                f"got {frames.shape}"
            )
        return normalize(frames, self.stats).reshape(-1)

    def encode(self, clip) -> np.ndarray:
        return self.encode_batch([clip])[0]

    def _encode(self, x: Tensor) -> Tensor:
        return self.enc_out(self.enc_in(x).tanh())

    def _decode(self, z: Tensor) -> Tensor:
        return self.dec_out(self.dec_in(z).tanh())

    def encode_batch(self, clips) -> np.ndarray:
        x = np.stack([self._flatten(c) for c in clips])
        with no_grad():
            return self._encode(Tensor(x)).data

    def reconstruct_batch(self, clips) -> tuple:
        """(normalized inputs, reconstructions) — used for MSE reporting."""
        x = np.stack([self._flatten(c) for c in clips])
        with no_grad():
            return x, self._decode(self._encode(Tensor(x))).data

    def reconstruction_mse(self, clips) -> float:
        x, y = self.reconstruct_batch(clips)
        return float(np.mean((x - y) ** 2))


def _windows(sequences, n, stride):
    """Every n-frame window of each sequence at the given stride, in order."""
    return [frames[off : off + n] for frames in map(frames_of, sequences)
            for off in window_starts(frames.shape[0], n, stride)]


def train_extractor(real_clips, config: ExtractorConfig = ExtractorConfig()):
    """Fit the autoencoder on real motion only, cut into disjoint clip_length windows."""
    n = config.clip_length
    arrays = _windows(real_clips, n, n)
    if len(arrays) < 100:
        raise ContractError(
            f"extractor training needs >= 100 clips of {n} frames, got {len(arrays)}"
        )
    stats = DatasetStats.compute([a.reshape(n, -1) for a in arrays])
    rng = stream(config.seed, "extractor-init")
    model = GestureFeatureExtractor(config, arrays[0].size, stats, rng)
    x_all = np.stack([model._flatten(a) for a in arrays])

    opt = Adam(model.params(), lr=config.lr)
    for step in range(1, config.n_steps + 1):
        batch_rng = stream(config.seed, "extractor-step", step)
        idx = batch_rng.integers(0, len(x_all), size=config.batch_size)
        x = Tensor(x_all[idx])
        diff = model._decode(model._encode(x)) - x
        loss = (diff * diff).mean()
        opt.zero_grad()
        loss.backward()
        opt.step()
    model.final_mse = model.reconstruction_mse(arrays)
    if model.final_mse > config.target_mse:
        warnings.warn(
            f"extractor stopped at reconstruction MSE {model.final_mse:.4f} > "
            f"target {config.target_mse}; emitting it anyway"
        )
    return model


def extract_latents(extractor, sequences, stride=None) -> np.ndarray:
    """Window sequences to the extractor's clip length and encode each window."""
    n = extractor.config.clip_length
    clips = _windows(sequences, n, n if stride is None else stride)
    if not clips:
        raise ContractError(f"no windows of length {n} available for encoding")
    return extractor.encode_batch(clips)


# ---------------------------------------------------------------------------
# distribution distance
# ---------------------------------------------------------------------------


@dataclass
class GaussianStats:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.cov = np.asarray(self.cov, dtype=np.float64)
        d = self.mean.shape[0]
        if self.cov.shape != (d, d):
            raise ContractError(f"covariance {self.cov.shape} does not match mean dim {d}")
        self.cov = 0.5 * (self.cov + self.cov.T)

    @classmethod
    def from_latents(cls, latents):
        x = np.asarray(latents, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ContractError(
                f"need a (samples >= 2, dim) latent matrix, got {x.shape}"
            )
        return cls(mean=x.mean(axis=0), cov=np.cov(x, rowvar=False))


def _psd_sqrt(mat, what):
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < EIG_TOLERANCE:
        raise NumericError(
            f"{what} has eigenvalues below tolerance: min={vals.min():.3e}, "
            f"spectrum head={np.sort(vals)[:4]}"
        )
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def fgd_from_stats(real: GaussianStats, gen: GaussianStats) -> float:
    """Fréchet distance between two Gaussian fits."""
    if real.mean.shape != gen.mean.shape:
        raise ContractError("latent dims differ between the two sides")
    d = real.mean.shape[0]
    cov_r = real.cov + COV_JITTER * np.eye(d)
    cov_g = gen.cov + COV_JITTER * np.eye(d)
    root_r = _psd_sqrt(cov_r, "real covariance")
    product = root_r @ cov_g @ root_r
    product = 0.5 * (product + product.T)
    vals = np.linalg.eigvalsh(product)
    if vals.min() < EIG_TOLERANCE:
        raise NumericError(
            f"cross-covariance product not PSD: min eigenvalue {vals.min():.3e}"
        )
    cross = np.sqrt(np.clip(vals, 0.0, None)).sum()
    mean_term = float(np.sum((real.mean - gen.mean) ** 2))
    return mean_term + float(np.trace(cov_r) + np.trace(cov_g) - 2.0 * cross)


def fgd(real_latents, gen_latents) -> float:
    return fgd_from_stats(
        GaussianStats.from_latents(real_latents),
        GaussianStats.from_latents(gen_latents),
    )


# ---------------------------------------------------------------------------
# keypoint recall
# ---------------------------------------------------------------------------


def srgr(real: GestureSequence, gen: GestureSequence, weights=None,
         delta: float = 0.2) -> float:
    """Weighted fraction of (frame, joint) pairs within delta of the reference."""
    a = frames_of(real)
    b = frames_of(gen)
    if a.shape != b.shape:
        raise ContractError(f"sequence shapes differ: {a.shape} vs {b.shape}")
    if delta <= 0:
        raise ContractError(f"delta must be positive, got {delta}")
    n = a.shape[0]
    if weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise ContractError(f"weights shape {w.shape} does not match {n} frames")
        if np.any(w < 0) or w.mean() <= 0:
            raise ContractError("weights must be non-negative with positive mean")
        w = w / w.mean()
    hits = (np.linalg.norm(a - b, axis=2) <= delta).astype(np.float64)
    return float((w[:, None] * hits).mean())


# ---------------------------------------------------------------------------
# beats
# ---------------------------------------------------------------------------


@dataclass
class BeatSet:
    times: np.ndarray  # seconds
    source: str = "kinematic"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        if t.size and np.any(np.diff(t) <= 0):
            raise ContractError("beat times must be strictly increasing")
        self.times = t

    def __len__(self):
        return self.times.size


def mean_joint_speed(frames) -> np.ndarray:
    """Mean per-joint central-difference speed; entry i covers frame i+1."""
    vel = (frames[2:] - frames[:-2]) / 2.0
    return np.linalg.norm(vel, axis=2).mean(axis=1)


def _edge_padded_peaks(signal, **kwargs):
    """find_peaks with the edges padded below min so boundary maxima count."""
    floor = signal.min() - 1.0 - np.ptp(signal)
    padded = np.concatenate([[floor], signal, [floor]])
    peaks, props = find_peaks(padded, **kwargs)
    return peaks - 1, props


def kinematic_beats(motion: GestureSequence, prominence_ratio: float = 0.1) -> BeatSet:
    """Prominent local minima of mean joint speed, as times in seconds."""
    frames = motion.frames
    if frames.shape[0] < 5:
        raise ContractError(f"need at least 5 frames, got {frames.shape[0]}")
    speed = mean_joint_speed(frames)
    spread = float(speed.max() - speed.min())
    if spread <= 1e-12:
        return BeatSet(np.empty(0), source="kinematic")
    prominence = max(1e-9, prominence_ratio * spread)
    peaks, _ = _edge_padded_peaks(-speed, distance=2, prominence=prominence)
    beat_frames = peaks + 1  # speed[i] describes frame i + 1
    return BeatSet(beat_frames / motion.fps, source="kinematic")


def audio_beats(audio: AudioFeatureSequence, channel: int = 0,
                height_ratio: float = 0.5) -> BeatSet:
    """Peaks of the onset-envelope channel above a relative threshold."""
    feats = audio.features
    if feats.shape[0] < 5:
        raise ContractError(f"need at least 5 frames, got {feats.shape[0]}")
    env = feats[:, channel]
    top = float(env.max())
    if top <= 1e-9:
        return BeatSet(np.empty(0), source="audio")
    peaks, _ = _edge_padded_peaks(env, distance=2, height=height_ratio * top)
    return BeatSet(peaks / audio.source_rate_hz, source="audio")


def beat_align(beats_motion, beats_audio, sigma: float = 0.3) -> float:
    """Mean exponential Chamfer agreement of motion beats with audio beats."""
    bm = beats_motion.times if isinstance(beats_motion, BeatSet) else np.asarray(
        beats_motion, dtype=np.float64)
    ba = beats_audio.times if isinstance(beats_audio, BeatSet) else np.asarray(
        beats_audio, dtype=np.float64)
    if bm.size == 0 or ba.size == 0:
        raise MetricError("beat alignment undefined for empty beat sets")
    if sigma <= 0:
        raise ContractError(f"sigma must be positive, got {sigma}")
    dists = np.abs(bm[:, None] - ba[None, :]).min(axis=1)
    return float(np.mean(np.exp(-(dists**2) / (2.0 * sigma**2))))


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    fgd: float
    srgr: float
    beat_align: float
    details: dict = field(default_factory=dict)

    def text(self) -> str:
        lines = [
            "evaluation report",
            f"  FGD:       {self.fgd:.6f}",
            f"  SRGR:      {self.srgr:.6f}",
            f"  BeatAlign: {self.beat_align:.6f}",
        ]
        for key in sorted(self.details):
            lines.append(f"  {key}: {self.details[key]}")
        return "\n".join(lines) + "\n"

    def rows(self):
        out = [("fgd", self.fgd), ("srgr", self.srgr),
               ("beat_align", self.beat_align)]
        out.extend((k, self.details[k]) for k in sorted(self.details))
        return out

    def write_csv(self, path):
        with _atomic_open(path, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["metric", "value"])
            for key, value in self.rows():
                value = repr(float(value)) if isinstance(value, (int, float, np.floating)) else value
                writer.writerow([key, value])
