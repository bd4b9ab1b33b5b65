"""Loss assembly and the denoiser training loop.

The objective is a plain weighted sum: the noise-matching MSE, a geometric
reconstruction term computed on the clean-pose estimate implied by the
predicted noise, and a cross-entropy term for the emotion head.  All three
accept an optional per-frame exclusion mask so the variable-length strategy
(random proportional masks over each window) can drop frames from
supervision without changing batch shapes.

Every training step draws its batch indices, timesteps, noise, and masks
from a stream keyed by (seed, "train", step), so a run is replayable from
any checkpoint: resuming at step k consumes exactly the draws steps k+1..n
of an uninterrupted run would have.
"""

from __future__ import annotations

import csv
import ctypes
import functools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, as_tensor, no_grad, softmax
from .diffusion import ALPHA_BAR_FLOOR, NoiseSchedule
from .errors import ConfigError, ContractError, ParseError, TrainingError
from .model import Condition, load_checkpoint, save_checkpoint
from .motion import (DatasetStats, JsonConfig, _atomic_open, mask_ratio_bounds, normalize,
                     random_proportional_mask, window_starts)
from .optim import Adam
from .rng import stream

REC_STABILIZER = 1e-24  # inside the sqrt of the per-frame norm


@dataclass(frozen=True)
class LossWeights(JsonConfig):
    lambda_rec: float = 1.0
    use_rec: bool = True
    use_emotion: bool = True

    def __post_init__(self):
        if self.lambda_rec < 0:
            raise ConfigError(f"lambda_rec must be >= 0, got {self.lambda_rec}")


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    batch_size: int = 16
    n_steps: int = 2000
    lr: float = 1e-4
    n_clip: int = 34
    stride: int = 10
    variable_length: bool = False
    vl_window: int = 150
    vl_stride: int = 50
    mask_ratio_range: tuple = (0.0, 0.5)
    mask_mode: str = "suffix"
    weights: LossWeights = field(default_factory=LossWeights)
    checkpoint_every: int = 0  # 0 = final checkpoint only
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.n_clip < 2 or self.stride < 1 or self.vl_window < 2 or self.vl_stride < 1:
            raise ConfigError("window sizes must be >= 2 and strides >= 1")
        object.__setattr__(self, "mask_ratio_range", mask_ratio_bounds(self.mask_ratio_range))
        if self.mask_mode not in ("suffix", "scatter"):
            raise ConfigError(f"unknown mask_mode {self.mask_mode!r}")

    @property
    def window(self):
        return self.vl_window if self.variable_length else self.n_clip

    @property
    def window_stride(self):
        return self.vl_stride if self.variable_length else self.stride


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _operands(x, y, frame_mask):
    """y - x over (batch, frames, joints, 3) data, and float frame weights (batch, frames).

    A (frames, joints, 3) operand is a batch of one.  ``frame_mask`` is a
    boolean exclusion mask per frame or per (batch, frame); None weighs all ones.
    """
    a, b = (as_tensor(v) for v in (x, y))
    a, b = (t.reshape((1,) + t.data.shape) if t.data.ndim == 3 else t for t in (a, b))
    for t in (a, b):
        if t.data.ndim != 4:
            raise ContractError(f"expected (batch, frames, joints, 3) data, got {t.data.shape}")
    if a.data.shape != b.data.shape:
        raise ContractError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    batch, n = a.data.shape[:2]
    if frame_mask is None:
        return b - a, np.ones((batch, n))
    mask = np.asarray(frame_mask, dtype=bool)
    if mask.ndim == 1:
        mask = np.broadcast_to(mask, (batch, mask.shape[0]))
    if mask.shape != (batch, n):
        raise ContractError(
            f"frame mask shape {mask.shape} does not cover a ({batch}, {n}) batch"
        )
    w = 1.0 - mask.astype(np.float64)
    if w.sum() == 0:
        raise ContractError("every frame is masked; nothing left to supervise")
    return b - a, w


def _loss_value(out, *inputs):
    """A loss stays a graph Tensor when any input is a Tensor, else a float."""
    return out if any(isinstance(x, Tensor) for x in inputs) else float(out.data)


def loss_mse(eps, eps_hat, frame_mask=None):
    """Mean squared error over unmasked frames (all channels)."""
    diff, w = _operands(eps, eps_hat, frame_mask)
    batch, n, j, _ = diff.data.shape
    total = (diff * diff * w.reshape(batch, n, 1, 1)).sum()
    return _loss_value(total * (1.0 / (w.sum() * j * 3)), eps, eps_hat)


def loss_rec(x0, x0_hat, frame_mask=None):
    """Mean over unmasked frames of the per-frame L2 pose-difference norm."""
    diff, w = _operands(x0, x0_hat, frame_mask)
    sq = (diff * diff).sum(axis=(2, 3))  # (batch, n)
    norms = (sq + REC_STABILIZER).sqrt()
    return _loss_value((norms * w).sum() * (1.0 / w.sum()), x0, x0_hat)


def loss_ce(logits, label):
    """Mean negative log softmax probability of the true label(s)."""
    lg = as_tensor(logits)
    if lg.data.ndim == 1:
        lg = lg.reshape((1, lg.data.shape[0]))
    batch, n_classes = lg.data.shape
    labels = np.atleast_1d(np.asarray(label, dtype=int))
    if labels.shape != (batch,):
        raise ContractError(f"{labels.shape[0]} labels for a batch of {batch}")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ContractError(f"labels {labels} outside [0, {n_classes})")
    onehot = np.zeros((batch, n_classes))
    onehot[np.arange(batch), labels] = 1.0
    return _loss_value((softmax(lg).log() * onehot).sum() * (-1.0 / batch), logits)


def _scalar(part):
    return float(part.data) if isinstance(part, Tensor) else float(part)


def total_loss(mse, rec, ce, weights: LossWeights = LossWeights()):
    """Weighted sum of the active terms; rejects non-finite parts."""
    parts = [("mse", mse, None)]
    if weights.use_rec:
        parts.append(("rec", rec, weights.lambda_rec))
    if weights.use_emotion:
        parts.append(("ce", ce, None))
    out = None
    for name, part, scale in parts:
        if part is None or not np.isfinite(_scalar(part)):
            raise TrainingError(f"loss term {name} is missing or non-finite")
        part = part if scale is None else part * scale
        out = part if out is None else out + part
    return out


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainingItem:
    x0: np.ndarray      # normalized pose window (n, J, 3)
    audio: np.ndarray   # aligned feature window (n, d_audio)
    emotion: int
    speaker: int


def build_training_items(samples, stats: DatasetStats, n_clip, stride):
    """Window every sample into fixed-length normalized training items."""
    items = []
    for s in samples:
        norm = normalize(s.motion, stats)
        for off in window_starts(s.motion.n_frames, n_clip, stride):
            items.append(
                TrainingItem(
                    x0=norm.frames[off : off + n_clip].copy(),
                    audio=s.audio.features[off : off + n_clip].copy(),
                    emotion=s.emotion,
                    speaker=s.speaker,
                )
            )
    return items


def _step_losses(model, batch, rng, schedule: NoiseSchedule, config: TrainConfig):
    """Noise one batch of items, run the model, and score it.

    Draws the timesteps, then the noise, then the variable-length masks from
    ``rng``.  Returns the total loss as a graph Tensor and every term as a
    float (0.0 for a term the loss weights switch off).
    """
    weights = config.weights
    x0 = np.stack([b.x0 for b in batch])
    audio = np.stack([b.audio for b in batch])
    labels = np.array([b.emotion for b in batch], dtype=int)
    speakers = np.array([b.speaker for b in batch], dtype=int)
    b, n = x0.shape[0], x0.shape[1]

    t = rng.integers(1, schedule.n_steps + 1, size=b)
    eps = rng.normal(size=x0.shape)
    abar = schedule.alpha_bar[t - 1].reshape(-1, 1, 1, 1)
    x_t = np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
    mask = None
    if config.variable_length:
        mask = np.stack([
            random_proportional_mask(n, config.mask_ratio_range, rng,
                                     mode=config.mask_mode)
            for _ in range(b)
        ])

    cond_labels = labels if weights.use_emotion else np.zeros_like(labels)
    cond = Condition(audio=audio, emotion_label=cond_labels, speaker=speakers)
    eps_hat, logits, _ = model.forward(x_t, t, cond)

    l_mse = loss_mse(eps, eps_hat, mask)
    safe_abar = np.maximum(abar, ALPHA_BAR_FLOOR)
    x0_hat = (as_tensor(x_t) - eps_hat * np.sqrt(1.0 - safe_abar)) * (
        1.0 / np.sqrt(safe_abar)
    )
    l_rec = loss_rec(as_tensor(x0), x0_hat, mask) if weights.use_rec else None
    l_ce = loss_ce(logits, labels) if weights.use_emotion else None
    total = total_loss(l_mse, l_rec, l_ce, weights)
    return total, {
        "L_mse": float(l_mse.data),
        "L_rec": float(l_rec.data) if l_rec is not None else 0.0,
        "L_ce": float(l_ce.data) if l_ce is not None else 0.0,
        "total": float(total.data),
    }


@dataclass
class TrainResult:
    rows: list
    stats: DatasetStats
    checkpoints: list
    final_checkpoint: str


LOG_COLUMNS = ("step", "L_mse", "L_rec", "L_ce", "total")


def write_loss_log(rows, path):
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in rows:
            writer.writerow(
                [row["step"]] + [repr(float(row[c])) for c in LOG_COLUMNS[1:]]
            )


def read_loss_log(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {
                "step": int(r["step"]),
                **{c: float(r[c]) for c in LOG_COLUMNS[1:]},
            }
            for r in reader
        ]


def _libc_mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        return ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None


@functools.cache
def keep_heap():
    """Keep freed heap memory in this process instead of returning it to the system.

    A consumed backward frees most of a step's graph at once; by default
    glibc then trims the top of the heap, and the next forward faults those
    pages back in (thousands of minor faults and several ms of system time
    per B=16 step).  Raising glibc's trim threshold to 256 MiB and fixing its
    mmap threshold at 32 MiB keeps the pages for the next step.  The policy
    is process-wide and set once; it changes no arithmetic, and where the C
    library has no ``mallopt`` nothing happens.
    """
    mallopt = _libc_mallopt()
    if mallopt is None:
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD in glibc's malloc.h
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def train(model, samples, schedule: NoiseSchedule, config: TrainConfig,
          out_dir=None, resume_from=None) -> TrainResult:
    """Run the denoising objective over windowed samples.

    ``samples`` is a list of corpus samples (the training split).  When
    ``resume_from`` names a checkpoint written by a previous call with the
    same configs, training continues from its recorded step and reproduces
    the uninterrupted trajectory exactly.
    """
    start_step = 0
    stats = None
    if resume_from is not None:
        bundle = load_checkpoint(resume_from, expect_config=model.config)
        loaded = bundle.model.params()
        for name, param in model.params().items():
            param.data = loaded[name].data.copy()
        stats = bundle.stats
        start_step = bundle.meta.get("step", 0)
        if type(start_step) is not int or start_step < 0:
            raise ParseError(f"{resume_from}: meta step must be an int >= 0, "
                             f"got {start_step!r}")
        if start_step >= config.n_steps:
            raise ConfigError(
                f"checkpoint already at step {start_step} >= n_steps {config.n_steps}"
            )
    if not samples:
        raise ContractError("training needs a non-empty sample list")
    if stats is None:
        stats = DatasetStats.compute([s.motion.channels() for s in samples])
    items = build_training_items(samples, stats, config.window, config.window_stride)
    if not items:
        raise TrainingError(
            f"no training windows: clips shorter than window {config.window}"
        )

    keep_heap()
    opt = Adam(model.params(), lr=config.lr)
    if resume_from is not None:
        opt.load_state_dict({k[len("opt."):]: a for k, a in bundle.extra_arrays.items()
                             if k.startswith("opt.")})

    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def save(step, name):
        path = out_dir / name
        save_checkpoint(
            model,
            path,
            stats=stats,
            meta={"step": step, "train_config": config.to_dict()},
            extra_arrays={f"opt.{k}": a for k, a in opt.state_dict().items()},
        )
        return str(path)

    rows = []
    checkpoints = []
    for step in range(start_step + 1, config.n_steps + 1):
        rng = stream(config.seed, "train", step)
        idx = rng.integers(0, len(items), size=config.batch_size)
        total, losses = _step_losses(model, [items[i] for i in idx], rng, schedule, config)

        opt.zero_grad()
        total.backward()
        opt.step()

        rows.append({"step": step, **losses})
        if (
            out_dir is not None
            and config.checkpoint_every
            and step % config.checkpoint_every == 0
            and step < config.n_steps
        ):
            checkpoints.append(save(step, f"checkpoint_{step:06d}.ckpt"))

    final = None
    if out_dir is not None:
        final = save(config.n_steps, "checkpoint_final.ckpt")
        checkpoints.append(final)
        write_loss_log(rows, out_dir / "loss_log.csv")
    return TrainResult(rows=rows, stats=stats, checkpoints=checkpoints,
                       final_checkpoint=final)


def validation_losses(model, samples, schedule: NoiseSchedule,
                      config: TrainConfig, stats: DatasetStats) -> dict:
    """Forward-only loss snapshot over a held-out split.

    Mirrors one training step per batch (same noising, same masking regime)
    but draws from a dedicated stream and never touches the parameters, so
    the same model and split always produce the same numbers.
    """
    if not samples:
        raise ContractError("validation needs at least one sample")
    items = build_training_items(samples, stats, config.window,
                                 config.window_stride)
    if not items:
        raise ContractError(
            f"no validation windows of length {config.window} available"
        )
    sums = dict.fromkeys(("L_mse", "L_rec", "L_ce", "total"), 0.0)
    count = 0
    for chunk, off in enumerate(range(0, len(items), config.batch_size)):
        batch = items[off : off + config.batch_size]
        with no_grad():
            _, losses = _step_losses(model, batch, stream(config.seed, "val", chunk),
                                     schedule, config)
        for key in sums:
            sums[key] += losses[key] * len(batch)
        count += len(batch)
    return {k: v / count for k, v in sums.items()}


def smoothed(values, window=101):
    """Centered moving average used for smoke-test loss comparisons."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        return v
    window = min(window, v.size)
    kernel = np.ones(window) / window
    return np.convolve(v, kernel, mode="valid")
