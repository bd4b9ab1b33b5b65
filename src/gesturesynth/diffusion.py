"""Denoising-diffusion core: schedule, forward corruption, reverse sampling.

The forward process corrupts a clean sequence x0 with Gaussian noise,

    x_t = sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps,

where abar_t is the running product of alpha_t = 1 - beta_t.  The reverse
process walks t = T..1, each step forming the mean

    mu = (x_t - beta_t / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t)

from the model's noise estimate and adding sigma_t * z (z = 0 on the last
step).  The editing samplers reuse the same chain but pin a subset of joints
or frames to a reference motion: at every step the pinned entries are
replaced with the forward corruption of the reference at that step, and after
the final step they are overwritten with the reference exactly.

Timesteps are 1-based: t = 1 is the least-noised level and abar at t = 0 is
defined as 1 (identity).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .motion import DatasetStats, GestureSequence, denormalize, normalize

ALPHA_BAR_FLOOR = 1e-12


class NoiseSchedule:
    """Per-step beta/alpha/alpha-bar tables, indexed by t in [1, T]."""

    def __init__(self, beta):
        beta = np.asarray(beta, dtype=np.float64)
        if beta.ndim != 1 or beta.size < 1:
            raise ConfigError(f"beta table must be a non-empty vector, got {beta.shape}")
        if np.any(beta <= 0) or np.any(beta >= 1):
            raise ConfigError("every beta must lie strictly inside (0, 1)")
        self.beta = beta
        self.alpha = 1.0 - beta
        self.alpha_bar = np.cumprod(self.alpha)
        for arr in (self.beta, self.alpha, self.alpha_bar):
            arr.setflags(write=False)

    @property
    def n_steps(self):
        return self.beta.size

    def _check_t(self, t):
        t = int(t)
        if not 1 <= t <= self.n_steps:
            raise ConfigError(f"timestep {t} outside [1, {self.n_steps}]")
        return t

    def beta_at(self, t):
        return float(self.beta[self._check_t(t) - 1])

    def alpha_at(self, t):
        return float(self.alpha[self._check_t(t) - 1])

    def alpha_bar_at(self, t):
        t = int(t)
        if t == 0:
            return 1.0
        return float(self.alpha_bar[self._check_t(t) - 1])

    def posterior_variance(self, t):
        """beta_tilde_t = (1 - abar_{t-1}) / (1 - abar_t) * beta_t."""
        t = self._check_t(t)
        return (
            (1.0 - self.alpha_bar_at(t - 1))
            / (1.0 - self.alpha_bar_at(t))
            * self.beta_at(t)
        )


def make_schedule(
    n_steps: int = 1000,
    beta_start: float = 1e-4,
    beta_end: float = 0.02,
    kind: str = "linear",
) -> NoiseSchedule:
    """Build a noise schedule; `linear` interpolates beta, `cosine` shapes abar."""
    if n_steps < 1:
        raise ConfigError(f"schedule needs at least one step, got {n_steps}")
    if kind == "linear":
        if not (0.0 < beta_start <= beta_end < 1.0):
            raise ConfigError(
                f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
            )
        if n_steps == 1:
            beta = np.array([beta_start])
        else:
            beta = np.linspace(beta_start, beta_end, n_steps)
    elif kind == "cosine":
        # squared-cosine alpha-bar shape with the usual 0.008 offset
        s = 0.008
        steps = np.arange(n_steps + 1, dtype=np.float64)
        f = np.cos((steps / n_steps + s) / (1 + s) * np.pi / 2.0) ** 2
        abar = f / f[0]
        beta = np.clip(1.0 - abar[1:] / abar[:-1], 1e-8, 0.999)
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    return NoiseSchedule(beta)


def q_sample(x0, t, eps, schedule: NoiseSchedule):
    """Forward corruption: x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ContractError(f"eps shape {eps.shape} must match x0 shape {x0.shape}")
    abar = schedule.alpha_bar_at(schedule._check_t(t))
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps


def predict_x0(x_t, eps_hat, t, schedule: NoiseSchedule):
    """Invert the forward corruption given a noise estimate."""
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    abar = schedule.alpha_bar_at(schedule._check_t(t))
    if abar < ALPHA_BAR_FLOOR:
        raise NumericError(
            f"alpha_bar at t={t} is {abar:.3e}, below the {ALPHA_BAR_FLOOR:g} floor"
        )
    return (x_t - np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(abar)


def reverse_step(x_t, t, eps_hat, schedule: NoiseSchedule, rng, variance: str = "beta"):
    """One reverse update x_t -> x_{t-1}; the t=1 step is noiseless."""
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    t = schedule._check_t(t)
    beta = schedule.beta_at(t)
    abar = schedule.alpha_bar_at(t)
    mean = (x_t - beta / np.sqrt(1.0 - abar) * eps_hat) / np.sqrt(schedule.alpha_at(t))
    if t == 1:
        return mean
    if variance == "beta":
        var = beta
    elif variance == "posterior":
        var = schedule.posterior_variance(t)
    else:
        raise ConfigError(f"unknown variance mode {variance!r}")
    return mean + np.sqrt(var) * rng.standard_normal(x_t.shape)


def _call_denoiser(denoiser, x, t, condition):
    eps_hat = np.asarray(denoiser(x, t, condition), dtype=np.float64)
    if eps_hat.shape != x.shape:
        raise ContractError(
            f"denoiser returned shape {eps_hat.shape} for input shape {x.shape}"
        )
    return eps_hat


def _masked_chain(
    denoiser,
    condition,
    shape,
    schedule,
    rng,
    ref_norm=None,
    keep=None,
    variance="beta",
):
    """Run the reverse chain; entries where `keep` is True track `ref_norm`.

    `keep` broadcasts against `shape`.  When nothing is kept the chain is the
    plain sampler and consumes exactly the same RNG draws, so editing with an
    all-regenerate mask replays unconditional sampling bit for bit.
    """
    x = rng.standard_normal(shape)
    pin = keep is not None and bool(np.any(keep))
    for t in range(schedule.n_steps, 0, -1):
        if pin:
            noisy_ref = q_sample(ref_norm, t, rng.standard_normal(shape), schedule)
            x = np.where(keep, noisy_ref, x)
        eps_hat = _call_denoiser(denoiser, x, t, condition)
        x = reverse_step(x, t, eps_hat, schedule, rng, variance=variance)
    return x


def _finish(x, stats, skeleton, fps):
    if stats is not None:
        x = denormalize(x, stats)
    if not np.all(np.isfinite(x)):
        raise NumericError("sampler produced non-finite values")
    return GestureSequence(x, fps=fps, skeleton=skeleton)


def _skeleton_for(n_joints, skeleton):
    """The given skeleton, else the default one if the joint count fits, else a chain."""
    from .motion import default_skeleton, generic_skeleton

    if skeleton is not None:
        return skeleton
    default = default_skeleton()
    return default if n_joints == default.joint_count else generic_skeleton(n_joints)


def sample(
    denoiser,
    condition,
    n_frames: int,
    n_joints: int,
    schedule: NoiseSchedule,
    rng,
    *,
    stats: DatasetStats = None,
    skeleton=None,
    fps: float = 15.0,
    variance: str = "beta",
) -> GestureSequence:
    """Generate a sequence from pure noise under the given condition."""
    skeleton = _skeleton_for(n_joints, skeleton)
    x = _masked_chain(
        denoiser, condition, (n_frames, n_joints, 3), schedule, rng, variance=variance
    )
    return _finish(x, stats, skeleton, fps)


def inpaint_sample(
    denoiser,
    condition,
    x_ref,
    joint_mask,
    schedule: NoiseSchedule,
    rng,
    *,
    stats: DatasetStats = None,
    variance: str = "beta",
) -> GestureSequence:
    """Regenerate the joints marked True while preserving the rest of x_ref.

    Preserved joints are pinned to the forward corruption of the reference at
    every step and copied from the reference exactly after the last one.
    """
    joint_mask = np.asarray(joint_mask, dtype=bool)
    if x_ref is None:
        if not joint_mask.all():
            raise ConfigError("a reference motion is required unless every joint is regenerated")
        raise ConfigError("inpaint_sample without a reference: use sample() instead")
    ref_seq = x_ref if isinstance(x_ref, GestureSequence) else GestureSequence(x_ref)
    if joint_mask.shape != (ref_seq.n_joints,):
        raise ConfigError(
            f"joint mask must have length {ref_seq.n_joints}, got shape {joint_mask.shape}"
        )
    ref_raw = ref_seq.frames
    ref_norm = normalize(ref_raw, stats) if stats is not None else ref_raw
    keep = ~joint_mask.reshape(1, -1, 1)
    x = _masked_chain(
        denoiser,
        condition,
        ref_raw.shape,
        schedule,
        rng,
        ref_norm=ref_norm,
        keep=keep,
        variance=variance,
    )
    out = _finish(x, stats, ref_seq.skeleton, ref_seq.fps)
    out.frames = np.where(keep, ref_raw, out.frames)
    return out


def seed_pose_sample(
    denoiser,
    condition,
    seed_pose,
    n_frames: int,
    schedule: NoiseSchedule,
    rng,
    *,
    stats: DatasetStats = None,
    skeleton=None,
    fps: float = 15.0,
    variance: str = "beta",
) -> GestureSequence:
    """Generate n_frames of motion whose leading frames are pinned to seed_pose.

    An empty seed pose pins nothing, so the chain replays ``sample`` exactly.
    """
    if isinstance(seed_pose, GestureSequence):
        skeleton = seed_pose.skeleton
        fps = seed_pose.fps
        seed = seed_pose.frames
    else:
        seed = np.asarray(seed_pose, dtype=np.float64)
    if seed.ndim != 3 or seed.shape[2] != 3:
        raise ConfigError(f"seed pose must be (k, J, 3), got {seed.shape}")
    k, n_joints = seed.shape[0], seed.shape[1]
    if k > n_frames:
        raise ConfigError(f"seed pose has {k} frames but only {n_frames} requested")
    skeleton = _skeleton_for(n_joints, skeleton)
    seed_norm = normalize(seed, stats) if stats is not None and k else seed
    ref_norm = np.zeros((n_frames, n_joints, 3))
    ref_norm[:k] = seed_norm
    keep = np.zeros((n_frames, 1, 1), dtype=bool)
    keep[:k] = True
    x = _masked_chain(
        denoiser,
        condition,
        (n_frames, n_joints, 3),
        schedule,
        rng,
        ref_norm=ref_norm,
        keep=keep,
        variance=variance,
    )
    out = _finish(x, stats, skeleton, fps)
    out.frames[:k] = seed
    return out
