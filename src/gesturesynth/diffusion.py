"""Denoising-diffusion core: schedule, forward corruption, reverse sampling.

The forward process corrupts a clean sequence x0 with Gaussian noise,

    x_t = sqrt(abar_t) * x0 + sqrt(1 - abar_t) * eps,

where abar_t is the running product of alpha_t = 1 - beta_t.  The reverse
process walks t = T..1, each step forming the mean

    mu = (x_t - beta_t / sqrt(1 - abar_t) * eps_hat) / sqrt(alpha_t)

from the model's noise estimate and adding sigma_t * z (z = 0 on the last
step).  The samplers call ``denoiser(x_t, t, condition)`` for eps_hat;
``GestureDenoiser.denoise`` is one.  All of them run one path that may pin
a subset of joints or frames to a reference motion: at every step the pinned
entries are replaced with the forward corruption of the reference at that
step, and after the final step they are overwritten with the reference exactly.
That path steps a stack of independent chains in lockstep, one denoiser call
per step on the (B, N, J, 3) stack (B = 1 for one generator), each chain
drawing from its own generator; a denoiser that forms every item of a batch
as it would alone (``denoise`` does) gives each chain the bytes it has alone.

Timesteps are 1-based: t = 1 is the least-noised level and abar at t = 0 is
defined as 1 (identity).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ContractError, NumericError
from .motion import DatasetStats, GestureSequence, denormalize, normalize, skeleton_for

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


class _Lockstep:
    """Normal draws for a stack of chains: item c comes from chain c's own generator.

    Each chain's generator sees the draws, in the order, that it would see
    running alone, so no chain's values depend on its batch-mates.
    """

    def __init__(self, rngs):
        self.rngs = rngs

    def standard_normal(self, shape):
        return np.stack([r.standard_normal(shape[1:]) for r in self.rngs])


def _pinned_sample(denoiser, condition, ref, keep, schedule, rng, stats, skeleton,
                   fps, variance):
    """Reverse chains with the entries where `keep` is True pinned to `ref`.

    `rng` is a list of B generators for B chains stepped in lockstep: one
    denoiser call per step on the (B, N, J, 3) stack, whose `condition`
    holds B stacked clips, and a list of B sequences back.  One generator
    is a stack of one, and its sequence comes back alone.  `ref` is
    (N, J, 3), shared, or (B, N, J, 3) in data space; `keep` broadcasts
    against one chain.  The RNG draws depend only on whether anything is
    kept, so pinning nothing is ``sample`` bit for bit.
    """
    if not isinstance(rng, (list, tuple)):
        return _pinned_sample(denoiser, condition, ref, keep, schedule, [rng], stats,
                              skeleton, fps, variance)[0]
    noise = _Lockstep(rng)
    shape = (len(noise.rngs),) + ref.shape[-3:]
    if ref.ndim == 4 and ref.shape[0] != shape[0]:
        raise ContractError(f"{ref.shape[0]} pinned references for {shape[0]} chains")
    if skeleton is None:
        skeleton = skeleton_for(ref.shape[-2])
    ref_norm = ref if stats is None else normalize(ref.reshape(-1, *ref.shape[-2:]),
                                                   stats).reshape(ref.shape)
    ref_norm = np.broadcast_to(ref_norm, shape)
    pin = bool(np.any(keep))
    x = noise.standard_normal(shape)
    for t in range(schedule.n_steps, 0, -1):
        if pin:
            noisy_ref = q_sample(ref_norm, t, noise.standard_normal(shape), schedule)
            x = np.where(keep, noisy_ref, x)
        eps_hat = np.asarray(denoiser(x, t, condition), dtype=np.float64)
        if eps_hat.shape != shape:
            raise ContractError(f"denoiser returned shape {eps_hat.shape} for input {shape}")
        x = reverse_step(x, t, eps_hat, schedule, noise, variance=variance)
    if stats is not None:
        x = denormalize(x.reshape(-1, *shape[-2:]), stats).reshape(shape)
    seqs = []
    for chain, r in zip(x, np.broadcast_to(ref, shape)):
        if not np.all(np.isfinite(chain)):
            raise NumericError("sampler produced non-finite values")
        seqs.append(GestureSequence(np.where(keep, r, chain), fps=fps, skeleton=skeleton))
    return seqs


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
    """Generate a sequence from pure noise under the given condition.

    A list of B generators samples B chains in lockstep (see
    ``_pinned_sample``) and returns B sequences.
    """
    return _pinned_sample(denoiser, condition, np.zeros((n_frames, n_joints, 3)), False,
                          schedule, rng, stats, skeleton, fps, variance)


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
    """Regenerate the joints marked True while preserving the rest of x_ref."""
    if x_ref is None:
        raise ConfigError("inpaint_sample needs a reference motion; use sample() without one")
    joint_mask = np.asarray(joint_mask, dtype=bool)
    ref = x_ref if isinstance(x_ref, GestureSequence) else GestureSequence(x_ref)
    if joint_mask.shape != (ref.n_joints,):
        raise ConfigError(
            f"joint mask must have length {ref.n_joints}, got shape {joint_mask.shape}"
        )
    return _pinned_sample(denoiser, condition, ref.frames, ~joint_mask.reshape(1, -1, 1),
                          schedule, rng, stats, ref.skeleton, ref.fps, variance)


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
    With a list of B generators, B chains run in lockstep, each pinned to
    the shared (k, J, 3) pose or to its own item of a (B, k, J, 3) stack.
    """
    if isinstance(seed_pose, GestureSequence):
        skeleton = seed_pose.skeleton
        fps = seed_pose.fps
        seed = seed_pose.frames
    else:
        seed = np.asarray(seed_pose, dtype=np.float64)
    if seed.ndim not in (3, 4) or seed.shape[-1] != 3:
        raise ConfigError(f"seed pose must be (k, J, 3), got {seed.shape}")
    k = seed.shape[-3]
    if k > n_frames:
        raise ConfigError(f"seed pose has {k} frames but only {n_frames} requested")
    ref = np.zeros(seed.shape[:-3] + (n_frames,) + seed.shape[-2:])
    ref[..., :k, :, :] = seed
    keep = (np.arange(n_frames) < k).reshape(-1, 1, 1)
    return _pinned_sample(denoiser, condition, ref, keep, schedule, rng, stats, skeleton,
                          fps, variance)
