"""The three benchmark workloads: inputs, one operation, and its output checks.

Every workload uses the acceptance-suite model shape and a T=200 linear
schedule with beta_end=0.05.  The corpus, the model weights and the sampling
seed all derive from the workload seed, so the same seed gives the same
inputs and, because the package is deterministic, the same output bytes.

- ``train``: ``training.train`` at B=16 on 34-frame windows.  The only
  workload that builds a graph, runs backward and steps the optimizer.
- ``longform``: ``pipeline.generate_motion`` on one 170-frame track (five
  test clips back to back, six 34-frame windows with overlap 4), seeded by a
  4-frame pose, emotion predicted by the model.  Windows run in sequence and
  every denoiser call has B=1.
- ``eval``: ``pipeline.evaluate`` over eight 34-frame test clips (one per
  emotion) with one repeat: eight independent single-window chains, then
  FGD, SRGR and BeatAlign.  The size is that of the acceptance suite's
  criteria 7 and 8, which evaluate eight clips with ``repeats=1``.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from gesturesynth import pipeline, training
from gesturesynth.config import EvalConfig, SampleConfig
from gesturesynth.corpus import CorpusConfig, generate_corpus
from gesturesynth.diffusion import make_schedule
from gesturesynth.metrics import ExtractorConfig, srgr, train_extractor
from gesturesynth.model import (
    GestureDenoiser,
    ModelConfig,
    load_checkpoint,
    randomize_parameters,
    save_checkpoint,
)
from gesturesynth.motion import DatasetStats
from gesturesynth.rng import stream

# The acceptance-suite shape (ACCEPT_MODEL / ACCEPT_CORPUS in
# tests/test_acceptance.py), restated so the benchmark does not import tests.
MODEL = ModelConfig(
    n_joints=12, n_max=36, d_audio=32, d_audio_raw=32,
    d_joint=32, d_temporal=128, d_fusion=128, d_cond=64,
    depth_joint=2, depth_temporal=2, depth_fusion=1,
    heads_joint=4, heads_temporal=4, heads_fusion=4,
    ffn_mult=2, n_emotions=8, n_speakers=4,
)
CORPUS_SAMPLES = 400
SCHEDULE_STEPS = 200
SCHEDULE_BETA_END = 0.05
SAMPLE_CFG = SampleConfig(window=34, overlap=4)

TRAIN_BATCH = 16
TRAIN_STEPS_PER_OP = 10
LONGFORM_CLIPS = 5
SEED_POSE_FRAMES = 4
EVAL_CLIPS = 8
EXTRACTOR_STEPS = 400
SRGR_NOISE = 0.12


def _corpus(seed):
    cfg = CorpusConfig(n_emotions=MODEL.n_emotions, n_speakers=MODEL.n_speakers,
                       n_joints=MODEL.n_joints, sample_length=34,
                       d_audio=MODEL.d_audio_raw, master_seed=seed)
    return generate_corpus(cfg, CORPUS_SAMPLES)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class Workload:
    """Set-up state plus one repeatable operation.

    ``setup`` builds everything an operation needs and returns the time each
    set-up stage took.  ``run_op`` performs one operation and returns
    ``(items, outputs)``: the work items it completed (the unit of the
    throughput metric) and the values ``check`` validates.  ``digest`` hashes
    the outputs; repeated operations in one invocation must agree on it.
    """

    name = ""
    attempts_per_op = 1  # operations counted per run_op call

    def __init__(self, seed, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir

    def _model_via_checkpoint(self, model, timings):
        """Write the model to a checkpoint and load it back, timing both."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / f"{self.name}-{self.seed}.ckpt"
        try:
            t0 = time.perf_counter()
            save_checkpoint(model, path, stats=self.stats)
            t1 = time.perf_counter()
            loaded = load_checkpoint(path, expect_config=MODEL).model
            t2 = time.perf_counter()
        finally:
            path.unlink(missing_ok=True)
        timings["model.save_checkpoint_ms"] = (t1 - t0) * 1e3
        timings["model.load_checkpoint_ms"] = (t2 - t1) * 1e3
        return loaded

    def setup(self) -> dict:
        timings = {}
        t0 = time.perf_counter()
        self.splits = _corpus(self.seed)
        timings["corpus.generate_s"] = time.perf_counter() - t0
        self.stats = DatasetStats.compute(
            [s.motion.channels() for s in self.splits.train])
        self.schedule = make_schedule(n_steps=SCHEDULE_STEPS,
                                      beta_end=SCHEDULE_BETA_END)
        model = GestureDenoiser(MODEL, stream(self.seed, "init"))
        if self.name != "train":
            # every conditioning pathway non-neutral, as a trained model is
            randomize_parameters(model, stream(self.seed, "randomize"))
        self.model = self._model_via_checkpoint(model, timings)
        timings["metrics.train_extractor_s"] = 0.0
        return timings

    def setup_digest(self) -> str:
        return _digest(
            *[s.motion.frames for s in self.splits.all_samples()],
            *[p.data for _, p in sorted(self.model.params().items())],
        )

    def digest(self, outputs) -> str:
        return _digest(*outputs.values())

    def reference_values(self, outputs) -> dict:
        raise NotImplementedError

    def check(self, outputs) -> list:
        raise NotImplementedError


class TrainWorkload(Workload):
    name = "train"
    attempts_per_op = TRAIN_STEPS_PER_OP

    def setup(self):
        timings = super().setup()
        self.initial = {k: p.data.copy() for k, p in self.model.params().items()}
        self.config = training.TrainConfig(batch_size=TRAIN_BATCH,
                                           n_steps=TRAIN_STEPS_PER_OP,
                                           lr=1e-4, seed=self.seed)
        return timings

    def run_op(self):
        # every op trains the same initial weights, so all ops must agree
        for name, p in self.model.params().items():
            p.data = self.initial[name].copy()
        result = training.train(self.model, self.splits.train, self.schedule,
                                self.config)
        losses = np.array([[r[c] for c in training.LOG_COLUMNS[1:]]
                           for r in result.rows])
        return TRAIN_BATCH * len(result.rows), {"losses": losses}

    def check(self, outputs):
        losses = outputs["losses"]
        errors = []
        if losses.shape != (TRAIN_STEPS_PER_OP, 4):
            errors.append(f"expected {TRAIN_STEPS_PER_OP} loss rows, got {losses.shape}")
        if not np.all(np.isfinite(losses)):
            errors.append("a training loss is not finite")
        return errors

    def reference_values(self, outputs):
        return {"final_loss": float(outputs["losses"][-1, -1])}


class LongformWorkload(Workload):
    name = "longform"

    def setup(self):
        timings = super().setup()
        clips = self.splits.test[:LONGFORM_CLIPS]
        self.audio = np.concatenate([s.audio.features for s in clips], axis=0)
        self.seed_pose = clips[0].motion.frames[:SEED_POSE_FRAMES].copy()
        self.fps = clips[0].motion.fps
        return timings

    def run_op(self):
        seq = pipeline.generate_motion(
            self.model, self.audio, self.schedule, stats=self.stats,
            sample_cfg=SAMPLE_CFG, seed_pose=self.seed_pose,
            master_seed=self.seed, fps=self.fps,
        )
        return seq.n_frames, {"frames": seq.frames}

    def check(self, outputs):
        frames = outputs["frames"]
        errors = []
        if frames.shape[0] != self.audio.shape[0]:
            errors.append(f"output has {frames.shape[0]} frames, audio has "
                          f"{self.audio.shape[0]}")
        if not np.array_equal(frames[:SEED_POSE_FRAMES], self.seed_pose):
            errors.append("seed-pose frames are not reproduced bit for bit")
        if not np.all(np.isfinite(frames)):
            errors.append("output motion is not finite")
        return errors

    def reference_values(self, outputs):
        frames = outputs["frames"]
        return {"sum": float(frames.sum()), "norm": float(np.linalg.norm(frames))}


class EvalWorkload(Workload):
    name = "eval"

    def setup(self):
        timings = super().setup()
        # the test split lists emotions in equal blocks; take one clip from
        # each emotion
        per_emotion = len(self.splits.test) // MODEL.n_emotions
        self.test = self.splits.test[::per_emotion][:EVAL_CLIPS]
        self.eval_cfg = EvalConfig(repeats=1)
        t0 = time.perf_counter()
        self.extractor = train_extractor(
            [s.motion for s in self.splits.train],
            ExtractorConfig(clip_length=34, n_steps=EXTRACTOR_STEPS, seed=self.seed),
        )
        timings["metrics.train_extractor_s"] = time.perf_counter() - t0
        return timings

    def run_op(self):
        report = pipeline.evaluate(
            self.model, self.extractor, self.test, self.schedule,
            stats=self.stats, eval_cfg=self.eval_cfg, sample_cfg=SAMPLE_CFG,
            master_seed=self.seed,
        )
        scores = np.array([report.fgd, report.srgr, report.beat_align])
        return len(self.test) * self.eval_cfg.repeats, {"scores": scores}

    def check(self, outputs):
        fgd, srgr, beat = outputs["scores"]
        errors = []
        if not (math.isfinite(fgd) and fgd >= 0):
            errors.append(f"FGD {fgd} is not finite and >= 0")
        if not 0.0 <= srgr <= 1.0:
            errors.append(f"SRGR {srgr} outside [0, 1]")
        if not 0.0 <= beat <= 1.0:
            errors.append(f"BeatAlign {beat} outside [0, 1]")
        return errors

    def reference_values(self, outputs):
        fgd, srgr_score, beat = outputs["scores"]
        return {"fgd": float(fgd), "srgr": float(srgr_score),
                "beat_align": float(beat), "srgr_perturbed": self._srgr_perturbed()}

    def _srgr_perturbed(self):
        """Mean SRGR of the real clips against seeded noisy copies of themselves.

        The randomized model's output is never within ``srgr_delta`` of the
        real clips, so the operation's SRGR is 0 and cannot show drift in the
        SRGR arithmetic.  Gaussian noise with standard deviation SRGR_NOISE
        per coordinate puts about half of the (frame, joint) pairs within
        ``srgr_delta``, so this value can.
        """
        rng = stream(self.seed, "srgr-reference")
        scores = []
        for s in self.test:
            real = s.motion.frames
            noisy = real + SRGR_NOISE * rng.standard_normal(real.shape)
            scores.append(srgr(real, noisy, delta=self.eval_cfg.srgr_delta))
        return float(np.mean(scores))


WORKLOADS = {w.name: w for w in (TrainWorkload, LongformWorkload, EvalWorkload)}

