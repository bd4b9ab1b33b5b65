"""End-to-end generation and evaluation on top of the trained denoiser.

Generation windows the input audio and samples each window with the
reverse chain.  Continuity across windows comes from pinning each window's
first ``overlap`` frames to the previous clip's tail (the seed-pose
mechanism), so the pin is the one definition of a seam: ``stitch`` joins
the clips by taking those frames once, from the earlier clip.

Evaluation follows a fixed protocol: encode real and generated clips with
the frozen feature extractor, fit Gaussians, score the distribution
distance, keypoint recall against the paired real motion, and beat
alignment against the audio — repeated over several sampling seeds and
averaged.

Each evaluated or emotion-transferred clip is its own reverse chain with its
own RNG stream, so ``map_chains`` hands contiguous groups of those chains to
one forked worker per CPU in the affinity mask, with one BLAS thread each,
and ``generate_chains`` samples each run of a group's equal-length chains in
lockstep, one batched denoiser call per step.  No chain's arithmetic depends
on its batch-mates, so every path returns the bytes of running each chain
alone, one after another, in this process.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os

import numpy as np

from .autodiff import blas_thread_setter as _blas_thread_setter, no_grad
from .config import EvalConfig, SampleConfig
from .diffusion import NoiseSchedule, inpaint_sample, sample, seed_pose_sample
from .errors import ConfigError, ContractError
from .metrics import (
    GestureFeatureExtractor,
    MetricsReport,
    audio_beats,
    beat_align,
    extract_latents,
    fgd,
    kinematic_beats,
    srgr,
)
from .model import Condition, GestureDenoiser
from .motion import GestureSequence, joint_group_mask, JOINT_GROUPS, stitch
from .rng import stream


LOCKSTEP_MAX = 16  # chains per lockstep group; see map_chains

_chain_fn = None  # the mapped function, set in each worker by _start_worker


def _start_worker(fn, set_blas_threads):
    global _chain_fn
    _chain_fn = fn
    set_blas_threads(1)


def _run_group(group):
    return _chain_fn(group)


def map_chains(fn, n):
    """The results of ``fn(group)`` for contiguous groups of ``range(n)``, concatenated.

    ``fn`` maps a ``range`` of independent sampling chains to one result
    per chain, sampling them in lockstep: one batched denoiser call per
    step.  A group holds at most ``LOCKSTEP_MAX`` chains and at most
    ceil(n / workers), and the groups split the chains evenly over the
    workers.  A denoiser call costs about 2.24 ms per chain at B=1,
    1.37-1.40 at B=8-16, 1.80 at B=32 and 2.01 at B=80 (bench model shape,
    one BLAS thread), so larger groups lose again.

    With at least two chains and two CPUs in the affinity mask, the groups
    run on ``min(n, CPUs)`` workers forked from this process, so ``fn`` and
    the model it closes over reach them copy-on-write and are never
    pickled; only results and exceptions are.  Forking is safe here because
    the package starts no threads and OpenBLAS shuts its thread pool down
    through its own fork handler.  Results come back in input order, and
    the first failing group in that order re-raises its exception, as the
    in-process loop would.  No worker outlives the call.

    Each worker pins OpenBLAS to one thread.  Without the pin the workers'
    BLAS threads oversubscribe the CPUs: at default BLAS threads on a
    2-CPU host, 8 evaluation chains took 11.6-38.9 s on 2 workers against
    4.9-5.5 s in-process, and 2.6-2.9 s with the pin.  So the groups run
    in-process, one after another, when there are fewer than two chains or
    CPUs, when the platform cannot fork, or when no OpenBLAS thread setter
    is loaded; ``taskset -c 0`` selects that path too.
    """
    if n < 1:
        return []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(n, cpus)
    rounds = -(-n // (workers * LOCKSTEP_MAX))
    size = -(-n // (workers * rounds))
    groups = [range(s, min(s + size, n)) for s in range(0, n, size)]
    set_blas_threads = _blas_thread_setter() if workers > 1 else None
    if set_blas_threads is None or "fork" not in multiprocessing.get_all_start_methods():
        results = [fn(group) for group in groups]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers, initializer=_start_worker,
                      initargs=(fn, set_blas_threads)) as pool:
            results = list(pool.imap(_run_group, groups))
            pool.close()
            pool.join()
    return [r for group in results for r in group]


def generate_chains(model, chains, schedule, **kwargs):
    """``generate_motion`` for each dict of per-chain arguments, in input order.

    Each dict gives ``audio_features``, ``emotion``, ``speaker``,
    ``seed_labels`` and ``fps``; ``kwargs`` are shared.  ``map_chains``
    hands out contiguous groups, and each contiguous run of a group's
    chains with one audio shape and frame rate is one lockstep
    ``generate_motion`` call.  A lockstep call raises what its first
    failing chain raises alone, so the first failing chain in input order
    raises its own exception, as the serial loop would.
    """
    def key(j):
        return np.shape(chains[j]["audio_features"]), chains[j]["fps"]

    def run(group):
        seqs = []
        for (_, fps), run_ in itertools.groupby(group, key):
            cs = [chains[j] for j in run_]
            seqs += generate_motion(
                model, np.stack([c["audio_features"] for c in cs]), schedule,
                emotion=[c["emotion"] for c in cs], speaker=[c["speaker"] for c in cs],
                seed_labels=[c["seed_labels"] for c in cs], fps=fps, **kwargs)
        return seqs

    return map_chains(run, len(chains))


def predict_emotion(model: GestureDenoiser, raw_audio) -> int:
    """The label the denoiser's own classifier gives the whole (M, D_raw) input."""
    raw = np.asarray(raw_audio, dtype=np.float64)
    with no_grad():
        _, logits = model.classify_audio(raw[None], raw.shape[0])
    return int(np.argmax(logits.data[0]))


def _window_plan(n_total, window, overlap):
    """(start, end) spans whose consecutive overlaps are exactly `overlap`."""
    spans = []
    s = 0
    while True:
        if s + window >= n_total:
            spans.append((s, n_total))
            break
        spans.append((s, s + window))
        s += window - overlap
    return spans


def generate_motion(
    model: GestureDenoiser,
    audio_features,
    schedule: NoiseSchedule,
    *,
    stats=None,
    sample_cfg: SampleConfig = SampleConfig(),
    emotion=None,
    speaker=0,
    seed_pose=None,
    master_seed: int = 0,
    seed_labels=(),
    fps: float = 15.0,
):
    """Synthesize motion for the full audio; output length equals input length.

    ``emotion=None`` uses the label the emotion head predicts from the whole
    input; an integer overrides it (emotion transfer).  ``seed_pose`` pins
    the first frames of the first window.

    A list of B ``seed_labels`` tuples samples B chains in lockstep on a
    (B, M, D) stack of equal-length audio and returns B sequences;
    ``emotion`` and ``speaker`` then give one value or a list of B.  Each
    chain's later windows are pinned to its own previous tail, and each
    chain returns the bytes it returns alone.
    """
    raw = np.asarray(audio_features, dtype=np.float64)
    one = not isinstance(seed_labels, list)
    if one:
        raw, seed_labels = raw[None], [seed_labels]
    b = len(seed_labels)
    if raw.shape[:1] != (b,):
        raise ContractError(f"audio features of shape {raw.shape} are no stack of {b}")
    if raw.ndim != 3:
        raise ContractError(f"audio features must be (frames, channels), got {raw.shape[1:]}")
    n_total = raw.shape[1]
    if n_total < 2:
        raise ContractError("need at least 2 audio frames")
    emotions = emotion if isinstance(emotion, list) else [emotion] * b
    labels = [predict_emotion(model, r) if e is None else int(e)
              for r, e in zip(raw, emotions)]

    spans = _window_plan(n_total, sample_cfg.window, sample_cfg.overlap)
    n_joints = model.config.n_joints
    clips = []
    for i, (s, e) in enumerate(spans):
        rngs = [stream(master_seed, *chain, "generate", i) for chain in seed_labels]
        cond = Condition(audio=raw[:, s:e], emotion_label=labels, speaker=speaker)
        if i == 0 and seed_pose is None:
            windows = sample(model.denoise, cond, e - s, n_joints, schedule, rngs,
                             stats=stats, fps=fps, variance=sample_cfg.variance)
        else:
            # one chain pins a (k, J, 3) tail, as a one-chain caller of seed_pose_sample
            # does; wrappers of it (perfbench's tracer) read k from the first axis
            pin = seed_pose if i == 0 else (tails[0] if one else tails)
            windows = seed_pose_sample(model.denoise, cond, pin, e - s, schedule, rngs,
                                       stats=stats, fps=fps,
                                       variance=sample_cfg.variance)
        clips.append(windows)
        tails = np.stack([c.frames[c.n_frames - sample_cfg.overlap :] for c in windows])
    seqs = [stitch(list(chain), overlap=sample_cfg.overlap) for chain in zip(*clips)]
    return seqs[0] if one else seqs


def parse_joint_mask(skeleton, spec: str) -> np.ndarray:
    """Mask of joints to regenerate: a group name or comma-separated joints."""
    spec = spec.strip()
    if spec in JOINT_GROUPS:
        mask = joint_group_mask(skeleton, spec)
        if spec != "none" and not mask.any():
            raise ConfigError(f"joint group {spec!r} selects no joint of this skeleton")
        return mask
    mask = np.zeros(skeleton.joint_count, dtype=bool)
    index = {name: i for i, name in enumerate(skeleton.joint_names)}
    for raw_name in spec.split(","):
        name = raw_name.strip()
        if name not in index:
            raise ConfigError(
                f"unknown joint {name!r}; valid groups: {', '.join(JOINT_GROUPS)}; "
                f"valid joints: {', '.join(skeleton.joint_names)}"
            )
        mask[index[name]] = True
    return mask


def edit_motion(
    model: GestureDenoiser,
    reference: GestureSequence,
    mask_spec,
    audio_features,
    schedule: NoiseSchedule,
    *,
    stats=None,
    emotion=None,
    speaker: int = 0,
    master_seed: int = 0,
    variance: str = "beta",
) -> GestureSequence:
    """Regenerate the masked joints of a reference; the rest is preserved."""
    raw = np.asarray(audio_features, dtype=np.float64)
    if raw.shape[0] != reference.n_frames:
        raise ContractError(
            f"audio has {raw.shape[0]} frames but the reference has "
            f"{reference.n_frames}"
        )
    mask = (
        parse_joint_mask(reference.skeleton, mask_spec)
        if isinstance(mask_spec, str)
        else np.asarray(mask_spec, dtype=bool)
    )
    if not mask.any():
        return reference.with_frames(reference.frames.copy())
    label = predict_emotion(model, raw) if emotion is None else int(emotion)
    cond = Condition(audio=raw, emotion_label=label, speaker=speaker)
    rng = stream(master_seed, "edit")
    return inpaint_sample(model.denoise, cond, reference, mask,
                          schedule, rng, stats=stats, variance=variance)


# ---------------------------------------------------------------------------
# evaluation protocol
# ---------------------------------------------------------------------------


def score_generation(extractor: GestureFeatureExtractor, real_seqs, gen_seqs,
                     audio_seqs, *, delta: float = 0.2,
                     latent_stride=None) -> dict:
    """One evaluation pass over paired (real, generated, audio) sequences."""
    if not (len(real_seqs) == len(gen_seqs) == len(audio_seqs)):
        raise ContractError("real, generated, and audio lists must align")
    real_lat = extract_latents(extractor, real_seqs, stride=latent_stride)
    gen_lat = extract_latents(extractor, gen_seqs, stride=latent_stride)
    fgd_score = fgd(real_lat, gen_lat)
    srgr_scores = [srgr(r, g, delta=delta) for r, g in zip(real_seqs, gen_seqs)]
    beat_scores = []
    for gen, audio in zip(gen_seqs, audio_seqs):
        beats_m = kinematic_beats(gen)
        beats_a = audio_beats(audio)
        if len(beats_m) == 0 or len(beats_a) == 0:
            beat_scores.append(0.0)  # beatless motion scores worst
            continue
        beat_scores.append(beat_align(beats_m, beats_a))
    return {
        "fgd": fgd_score,
        "srgr": float(np.mean(srgr_scores)),
        "beat_align": float(np.mean(beat_scores)),
    }


def evaluate(
    model: GestureDenoiser,
    extractor: GestureFeatureExtractor,
    test_samples,
    schedule: NoiseSchedule,
    *,
    stats=None,
    eval_cfg: EvalConfig = EvalConfig(),
    sample_cfg: SampleConfig = SampleConfig(),
    master_seed: int = 0,
) -> MetricsReport:
    """Average FGD/SRGR/BeatAlign over repeated sampling with distinct seeds."""
    if not test_samples:
        raise ContractError("evaluation needs a non-empty test split")
    stride = eval_cfg.latent_stride or None
    real_seqs = [s.motion for s in test_samples]
    audio_seqs = [s.audio for s in test_samples]
    n = len(test_samples)

    chains = [dict(audio_features=s.audio.features, emotion=None, speaker=s.speaker,
                   seed_labels=("eval", r, i), fps=s.motion.fps)
              for r in range(eval_cfg.repeats) for i, s in enumerate(test_samples)]
    generated = generate_chains(model, chains, schedule, stats=stats,
                                sample_cfg=sample_cfg, master_seed=master_seed)
    per_repeat = [
        score_generation(extractor, real_seqs, generated[r * n : (r + 1) * n],
                         audio_seqs, delta=eval_cfg.srgr_delta, latent_stride=stride)
        for r in range(eval_cfg.repeats)
    ]
    means = {k: float(np.mean([p[k] for p in per_repeat])) for k in per_repeat[0]}
    details = {
        "repeats": eval_cfg.repeats,
        "fgd_per_repeat": [round(p["fgd"], 6) for p in per_repeat],
        "extractor_final_mse": extractor.final_mse,
    }
    return MetricsReport(fgd=means["fgd"], srgr=means["srgr"],
                         beat_align=means["beat_align"], details=details)
