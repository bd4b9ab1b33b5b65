"""Windowed generation, editing, the evaluation protocol, and study harnesses.

The model here is deliberately untrained — these tests check plumbing,
determinism, and preservation invariants, which do not depend on sample
quality.  Quality-dependent claims live in the acceptance suite.
"""

import ctypes
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from gesturesynth.config import (
    EvalConfig,
    SampleConfig,
    ScheduleConfig,
    toy_run_config,
)
from gesturesynth.corpus import generate_corpus, toy_corpus_config
from gesturesynth.diffusion import make_schedule
from gesturesynth.errors import ConfigError, ContractError, NumericError
from gesturesynth import experiments
from gesturesynth.experiments import (
    GestureEmotionClassifier,
    ablate,
    ablation_grid,
    compare_conditioning_modes,
    emotion_transfer_eval,
    format_comparison,
)
from gesturesynth.metrics import ExtractorConfig, train_extractor
from gesturesynth import pipeline
from gesturesynth.model import GestureDenoiser, randomize_parameters, toy_config
from gesturesynth.motion import GestureSequence, generic_skeleton, stitch
from gesturesynth.pipeline import (
    _window_plan,
    edit_motion,
    evaluate,
    generate_motion,
    parse_joint_mask,
    predict_emotion,
    score_generation,
)
from gesturesynth.rng import stream
from gesturesynth.training import TrainConfig, train
from test_training import load_tracer_module


@pytest.fixture(scope="module")
def splits():
    return generate_corpus(toy_corpus_config(), 160)


@pytest.fixture(scope="module")
def schedule():
    return make_schedule(n_steps=8, beta_end=0.05)


@pytest.fixture(scope="module")
def model(splits, schedule):
    # a few optimizer steps move the zero-initialized conditioning heads off
    # zero, so the emotion/speaker pathways influence the output
    m = GestureDenoiser(toy_config(), stream(7, "init"))
    train(m, splits.train[:16], schedule,
          TrainConfig(batch_size=2, n_steps=3, lr=1e-2, seed=0))
    return m


@pytest.fixture(scope="module")
def extractor(splits):
    cfg = ExtractorConfig(clip_length=34, n_steps=60, seed=2)
    return train_extractor([s.motion for s in splits.train], cfg)


def make_audio(n_frames, seed=3):
    return stream(seed, "audio").standard_normal((n_frames, 20)) * 0.3


def blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def fail_chains(monkeypatch, chains=(1, 3)):
    """Make ``pipeline.generate_motion`` raise NumericError on the given clips.

    A lockstep call (a list of ``seed_labels``) raises for the first failing
    clip it holds.  The first failing chain waits before it raises, so on
    the worker pool a later chain's error arrives first.
    """
    original = pipeline.generate_motion

    def generate(*args, seed_labels=(), **kwargs):
        held = seed_labels if isinstance(seed_labels, list) else [seed_labels]
        failing = [labels[-1] for labels in held if labels[-1] in chains]
        if failing:
            if failing[0] == chains[0]:
                time.sleep(0.3)
            raise NumericError(f"chain {failing[0]} left its domain")
        return original(*args, seed_labels=seed_labels, **kwargs)

    monkeypatch.setattr(pipeline, "generate_motion", generate)


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


needs_pool = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
    or pipeline._blas_thread_setter() is None,
    reason="the chain pool needs two CPUs and an OpenBLAS thread setter",
)


class TestWindowPlan:
    def test_single_window_when_short(self):
        assert _window_plan(20, 34, 4) == [(0, 20)]
        assert _window_plan(34, 34, 4) == [(0, 34)]

    def test_exact_overlap_between_spans(self):
        spans = _window_plan(60, 20, 4)
        assert spans[0] == (0, 20)
        assert spans[-1][1] == 60
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 - s1 == 4

    @given(
        n=st.integers(min_value=2, max_value=400),
        window=st.integers(min_value=2, max_value=60),
        overlap=st.integers(min_value=0, max_value=59),
    )
    @settings(max_examples=120, deadline=None)
    def test_plan_covers_input(self, n, window, overlap):
        if overlap >= window:
            overlap = window - 1
        spans = _window_plan(n, window, overlap)
        assert spans[0][0] == 0 and spans[-1][1] == n
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert s1 == e0 - overlap
            assert e1 > e0
        for s, e in spans:
            assert 0 < e - s <= window
        if len(spans) > 1:
            last = spans[-1][1] - spans[-1][0]
            assert last > overlap


class TestGenerateMotion:
    def test_output_matches_audio_length(self, model, schedule):
        audio = make_audio(60)
        out = generate_motion(
            model, audio, schedule,
            sample_cfg=SampleConfig(window=20, overlap=4), emotion=1,
        )
        assert out.n_frames == 60
        assert out.frames.shape == (60, 6, 3)
        assert np.all(np.isfinite(out.frames))

    def test_zero_overlap_concatenates_independent_windows(self, model, schedule):
        audio = make_audio(60)
        cfg = SampleConfig(window=34, overlap=0)
        out = generate_motion(model, audio, schedule, sample_cfg=cfg, emotion=2,
                              master_seed=3)
        first = generate_motion(model, audio[:34], schedule, sample_cfg=cfg, emotion=2,
                                master_seed=3)
        assert out.n_frames == 60
        assert_array_equal(out.frames[:34], first.frames)

    @pytest.mark.parametrize("n_frames", [35, 69])
    def test_zero_overlap_one_frame_tail_window(self, model, schedule, n_frames):
        # the last window holds one frame, which aligns to itself
        audio = make_audio(n_frames)
        cfg = SampleConfig(window=34, overlap=0)
        out = generate_motion(model, audio, schedule, sample_cfg=cfg, master_seed=3)
        first = generate_motion(model, audio[:34], schedule, sample_cfg=cfg,
                                emotion=predict_emotion(model, audio), master_seed=3)
        assert out.n_frames == n_frames
        assert np.all(np.isfinite(out.frames))
        assert_array_equal(out.frames[:34], first.frames)

    def test_deterministic_under_master_seed(self, model, schedule):
        audio = make_audio(40)
        cfg = SampleConfig(window=20, overlap=4)
        a = generate_motion(model, audio, schedule, sample_cfg=cfg,
                            emotion=0, master_seed=5)
        b = generate_motion(model, audio, schedule, sample_cfg=cfg,
                            emotion=0, master_seed=5)
        assert_array_equal(a.frames, b.frames)

    def test_master_seed_changes_outcome(self, model, schedule):
        audio = make_audio(30)
        a = generate_motion(model, audio, schedule, emotion=0, master_seed=1)
        b = generate_motion(model, audio, schedule, emotion=0, master_seed=2)
        assert not np.array_equal(a.frames, b.frames)

    def test_emotion_override_changes_outcome(self, model, schedule):
        audio = make_audio(30)
        a = generate_motion(model, audio, schedule, emotion=0, master_seed=4)
        b = generate_motion(model, audio, schedule, emotion=3, master_seed=4)
        assert not np.array_equal(a.frames, b.frames)

    def test_default_emotion_comes_from_audio(self, model, schedule):
        audio = make_audio(30)
        label = predict_emotion(model, audio)
        auto = generate_motion(model, audio, schedule, master_seed=4)
        explicit = generate_motion(model, audio, schedule, emotion=label,
                                   master_seed=4)
        assert_array_equal(auto.frames, explicit.frames)

    def test_first_window_matches_standalone_clip(self, model, schedule):
        audio = make_audio(60)
        cfg = SampleConfig(window=20, overlap=4)
        full = generate_motion(model, audio, schedule, sample_cfg=cfg,
                               emotion=1, master_seed=11)
        single = generate_motion(model, audio[:20], schedule, sample_cfg=cfg,
                                 emotion=1, master_seed=11)
        assert_array_equal(full.frames[:20], single.frames)

    def test_seams_equal_the_earlier_window_tail(self, model, schedule, monkeypatch):
        clips = []

        def keep_clips(parts, overlap):
            clips.extend(parts)
            return stitch(parts, overlap)

        monkeypatch.setattr(pipeline, "stitch", keep_clips)
        out = generate_motion(model, make_audio(60), schedule,
                              sample_cfg=SampleConfig(window=20, overlap=4),
                              emotion=1, master_seed=11)
        spans = _window_plan(60, 20, 4)
        assert len(clips) == len(spans) == 4
        for (start, _), earlier in zip(spans[1:], clips):
            assert_array_equal(out.frames[start : start + 4], earlier.frames[-4:])

    @pytest.mark.parametrize("n_frames", [2, 4])
    def test_audio_within_the_overlap_is_one_window(self, model, schedule, n_frames):
        # one window no longer than the default overlap: no seam, nothing cut
        out = generate_motion(model, make_audio(n_frames), schedule, emotion=0)
        assert out.n_frames == n_frames

    def test_seed_pose_pins_first_frames(self, model, schedule):
        audio = make_audio(30)
        seed = stream(9, "pose").standard_normal((3, 6, 3))
        out = generate_motion(model, audio, schedule, emotion=0,
                              seed_pose=seed, master_seed=6)
        assert_array_equal(out.frames[:3], seed)

    def test_rejects_short_audio(self, model, schedule):
        with pytest.raises(ContractError):
            generate_motion(model, make_audio(1), schedule, emotion=0)

    def test_rejects_flat_audio(self, model, schedule):
        with pytest.raises(ContractError):
            generate_motion(model, np.zeros(30), schedule, emotion=0)

    def test_rejects_bad_emotion(self, model, schedule):
        with pytest.raises(ConfigError):
            generate_motion(model, make_audio(30), schedule, emotion=99)


class TestTracedLongform:
    def test_tracer_keeps_frames_and_records_each_window(self, schedule):
        model = GestureDenoiser(toy_config(), stream(12, "init"))
        randomize_parameters(model, stream(12, "rand"))
        audio = make_audio(60)
        seed = stream(12, "pose").standard_normal((3, 6, 3))
        cfg = SampleConfig(window=20, overlap=4)

        def run():
            return generate_motion(model, audio, schedule, sample_cfg=cfg,
                                   seed_pose=seed, master_seed=12)

        plain = run()
        tracing = load_tracer_module()
        tracer = tracing.Tracer()
        tracer.install(model)
        try:
            traced = run()
        finally:
            tracer.uninstall()
        assert_array_equal(traced.frames, plain.frames)
        names = [s[tracing.NAME] for s in tracer.spans]
        assert names.count("motion.stitch") == 1
        pinned = [s[tracing.NOTE]["pinned"] for s in tracer.spans
                  if s[tracing.NAME] == "diffusion.chain"]
        assert pinned == [3, 4, 4, 4]


class TestJointMask:
    def test_group_name(self):
        skel = generic_skeleton(6)
        assert parse_joint_mask(skel, "all").all()
        assert not parse_joint_mask(skel, "none").any()

    def test_named_joints(self):
        skel = generic_skeleton(6)
        mask = parse_joint_mask(skel, "joint_1, joint_3")
        assert mask.tolist() == [False, True, False, True, False, False]

    def test_unknown_joint_rejected(self):
        with pytest.raises(ConfigError, match="wrist"):
            parse_joint_mask(generic_skeleton(6), "wrist")

    @pytest.mark.parametrize("group", ["left_hand", "right_hand", "hands"])
    def test_group_selecting_no_joint_rejected(self, group):
        # a generic skeleton has no hand joints; only "none" may select nothing
        with pytest.raises(ConfigError, match=group):
            parse_joint_mask(generic_skeleton(6), group)


class TestEditMotion:
    def test_empty_mask_returns_copy(self, model, splits, schedule):
        ref = splits.val[0].motion
        audio = splits.val[0].audio.features
        out = edit_motion(model, ref, "none", audio, schedule)
        assert out is not ref
        assert out.frames is not ref.frames
        assert_array_equal(out.frames, ref.frames)

    def test_unmasked_joints_preserved_exactly(self, model, splits, schedule):
        ref = splits.val[0].motion
        audio = splits.val[0].audio.features
        out = edit_motion(model, ref, "joint_1,joint_3", audio, schedule,
                          master_seed=3)
        kept = [0, 2, 4, 5]
        assert_array_equal(out.frames[:, kept], ref.frames[:, kept])

    def test_masked_joints_resampled(self, model, splits, schedule):
        ref = splits.val[0].motion
        audio = splits.val[0].audio.features
        out = edit_motion(model, ref, "joint_1,joint_3", audio, schedule,
                          master_seed=3)
        changed = np.any(out.frames[:, [1, 3]] != ref.frames[:, [1, 3]],
                         axis=(1, 2))
        assert changed.mean() >= 0.95

    def test_boolean_mask_accepted(self, model, splits, schedule):
        ref = splits.val[0].motion
        audio = splits.val[0].audio.features
        mask = np.array([True, False, False, False, False, False])
        out = edit_motion(model, ref, mask, audio, schedule, master_seed=3)
        assert_array_equal(out.frames[:, 1:], ref.frames[:, 1:])

    def test_deterministic(self, model, splits, schedule):
        ref = splits.val[0].motion
        audio = splits.val[0].audio.features
        a = edit_motion(model, ref, "all", audio, schedule, master_seed=8)
        b = edit_motion(model, ref, "all", audio, schedule, master_seed=8)
        assert_array_equal(a.frames, b.frames)

    def test_audio_length_mismatch(self, model, splits, schedule):
        ref = splits.val[0].motion
        audio = splits.val[0].audio.features
        with pytest.raises(ContractError):
            edit_motion(model, ref, "all", audio[:-1], schedule)

    def test_reference_longer_than_model_limit(self, model, schedule):
        long_ref = GestureSequence(
            stream(1, "long").standard_normal((40, 6, 3)),
            fps=15.0, skeleton=generic_skeleton(6),
        )
        with pytest.raises(ConfigError):
            edit_motion(model, long_ref, "all", make_audio(40), schedule)


    def test_too_long_reference_names_model_limit(self, model, schedule):
        long_ref = GestureSequence(
            stream(1, "long").standard_normal((40, 6, 3)),
            fps=15.0, skeleton=generic_skeleton(6),
        )
        with pytest.raises(ConfigError, match=r"40 exceeds the model's \D*36"):
            edit_motion(model, long_ref, "joint_1", make_audio(40), schedule, emotion=0)


class TestScoring:
    def test_real_vs_real_is_near_perfect(self, extractor, splits):
        seqs = [s.motion for s in splits.val]
        audio = [s.audio for s in splits.val]
        scores = score_generation(extractor, seqs, seqs, audio)
        assert scores["fgd"] < 1e-6
        assert scores["srgr"] == 1.0
        assert 0.0 < scores["beat_align"] <= 1.0

    def test_list_lengths_must_align(self, extractor, splits):
        seqs = [s.motion for s in splits.val]
        audio = [s.audio for s in splits.val]
        with pytest.raises(ContractError):
            score_generation(extractor, seqs, seqs[:-1], audio)

    def test_evaluate_report(self, model, extractor, splits, schedule):
        report = evaluate(
            model, extractor, splits.test[:4], schedule,
            eval_cfg=EvalConfig(repeats=2),
            sample_cfg=SampleConfig(window=34, overlap=4),
            master_seed=0,
        )
        assert np.isfinite(report.fgd)
        assert 0.0 <= report.srgr <= 1.0
        assert 0.0 <= report.beat_align <= 1.0
        assert report.details["repeats"] == 2
        assert len(report.details["fgd_per_repeat"]) == 2

    def test_evaluate_deterministic(self, model, extractor, splits, schedule):
        kwargs = dict(
            eval_cfg=EvalConfig(repeats=1),
            sample_cfg=SampleConfig(window=34, overlap=4),
            master_seed=12,
        )
        a = evaluate(model, extractor, splits.test[:2], schedule, **kwargs)
        b = evaluate(model, extractor, splits.test[:2], schedule, **kwargs)
        assert (a.fgd, a.srgr, a.beat_align) == (b.fgd, b.srgr, b.beat_align)

    def test_evaluate_needs_samples(self, model, extractor, schedule):
        with pytest.raises(ContractError):
            evaluate(model, extractor, [], schedule)

    def test_evaluate_reports_extractor_fit(self, model, extractor, splits, schedule,
                                            tmp_path):
        # the extractor's reconstruction MSE on its training windows goes into
        # the report, so a poorly fitted extractor shows next to the scores
        report = evaluate(model, extractor, splits.test[:2], schedule,
                          eval_cfg=EvalConfig(repeats=1),
                          sample_cfg=SampleConfig(window=34, overlap=4))
        mse = report.details["extractor_final_mse"]
        assert mse == extractor.final_mse > 0
        assert f"extractor_final_mse: {mse}" in report.text()
        report.write_csv(tmp_path / "report.csv")
        assert f"extractor_final_mse,{mse!r}\n" in (tmp_path / "report.csv").read_text()


class TestLockstep:
    """Chains sampled together give each chain the bytes it has alone."""

    def test_evaluate_chain_ignores_its_batch_mates(self, model, extractor, splits,
                                                    schedule, monkeypatch):
        clips = splits.test[:3]
        cfg = SampleConfig(window=34, overlap=4)
        generated, batches = [], []

        def keep_generated(extractor, real, gen, audio, **kwargs):
            generated.extend(gen)
            return score_generation(extractor, real, gen, audio, **kwargs)

        def denoise(x_t, t, condition):
            batches.append(np.shape(x_t)[0] if np.ndim(x_t) == 4 else 1)
            return GestureDenoiser.denoise(model, x_t, t, condition)

        monkeypatch.setattr(pipeline, "score_generation", keep_generated)
        monkeypatch.setattr(model, "denoise", denoise)
        one_cpu(monkeypatch)  # one in-process group of all three chains
        evaluate(model, extractor, clips, schedule, eval_cfg=EvalConfig(repeats=1),
                 sample_cfg=cfg, master_seed=5)
        assert batches == [3] * schedule.n_steps
        middle = clips[1]
        alone = generate_motion(model, middle.audio.features, schedule, sample_cfg=cfg,
                                speaker=middle.speaker, master_seed=5,
                                seed_labels=("eval", 0, 1), fps=middle.motion.fps)
        assert batches[-1] == 1
        assert len(generated) == 3
        assert_array_equal(generated[1].frames, alone.frames)

    def test_seed_pose_is_exact_in_every_chain(self, model, schedule):
        cfg = SampleConfig(window=20, overlap=4)
        audio = np.stack([make_audio(60, seed=s) for s in (1, 2, 3)])
        seed = stream(9, "pose").standard_normal((3, 6, 3))
        labels = [("pose", k) for k in range(3)]
        kwargs = dict(sample_cfg=cfg, seed_pose=seed, master_seed=6)
        batch = generate_motion(model, audio, schedule, emotion=[0, None, 3],
                                speaker=[1, 0, 1], seed_labels=labels, **kwargs)
        for k, seq in enumerate(batch):
            assert_array_equal(seq.frames[:3], seed)
            alone = generate_motion(model, audio[k], schedule, emotion=[0, None, 3][k],
                                    speaker=[1, 0, 1][k], seed_labels=labels[k], **kwargs)
            assert_array_equal(seq.frames, alone.frames)

    @pytest.mark.parametrize("n", [1, 3, 8, 17, 64, 80, 100])
    def test_groups_are_contiguous_and_bounded(self, n, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        monkeypatch.setattr(pipeline, "_blas_thread_setter", lambda: None)
        groups = []

        def fn(group):
            groups.append(group)
            return [i * i for i in group]

        assert pipeline.map_chains(fn, n) == [i * i for i in range(n)]
        assert [i for g in groups for i in g] == list(range(n))
        size = len(groups[0])
        assert size <= min(pipeline.LOCKSTEP_MAX, -(-n // min(n, 4)))
        assert all(len(g) == size for g in groups[:-1])


def first_error(call):
    """(type, message) of the exception `call()` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestOneChainForm:
    """A lockstep run raises what its first failing chain raises alone, and samples once."""

    KWARGS = dict(sample_cfg=SampleConfig(window=34, overlap=4), master_seed=5)

    def chains(self, splits):
        return [dict(audio_features=s.audio.features, emotion=None, speaker=k % 2,
                     seed_labels=("eval", 0, k), fps=s.motion.fps)
                for k, s in enumerate(splits.test[:3])]

    def assert_raises_as_alone(self, model, chains, schedule, monkeypatch, cpus, expected):
        alone = first_error(lambda: [generate_motion(model, schedule=schedule, **c,
                                                     **self.KWARGS) for c in chains])
        assert alone[0] is expected
        if cpus == "one":
            one_cpu(monkeypatch)
        lockstep = first_error(lambda: pipeline.generate_chains(model, chains, schedule,
                                                                **self.KWARGS))
        assert lockstep == alone
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", ["one", pytest.param("pool", marks=needs_pool)])
    def test_malformed_audio(self, model, splits, schedule, monkeypatch, cpus):
        chains = self.chains(splits)
        chains[1]["audio_features"] = np.zeros(20)
        self.assert_raises_as_alone(model, chains, schedule, monkeypatch, cpus,
                                    ContractError)

    @pytest.mark.parametrize("cpus", ["one", pytest.param("pool", marks=needs_pool)])
    def test_non_finite_chain(self, model, splits, schedule, monkeypatch, cpus):
        batches = []

        def denoise(x_t, t, condition):  # speaker 1, the middle chain, blows up
            batches.append(len(x_t))
            eps = GestureDenoiser.denoise(model, x_t, t, condition)
            eps[np.broadcast_to(condition.speaker, len(x_t)) == 1] = np.inf
            return eps

        monkeypatch.setattr(model, "denoise", denoise)
        with np.errstate(invalid="ignore"):
            self.assert_raises_as_alone(model, self.chains(splits), schedule,
                                        monkeypatch, cpus, NumericError)
        if cpus == "one":  # two chains alone, then the three chains once, in lockstep
            assert batches == [1] * 2 * schedule.n_steps + [3] * schedule.n_steps


@needs_pool
class TestMapChains:
    """The worker pool against the one-CPU path that runs chains in-process."""

    def test_evaluate_pool_equals_one_cpu(self, model, extractor, splits, schedule,
                                          monkeypatch):
        kwargs = dict(eval_cfg=EvalConfig(repeats=2),
                      sample_cfg=SampleConfig(window=34, overlap=4), master_seed=5)
        pooled = evaluate(model, extractor, splits.test[:3], schedule, **kwargs)
        assert multiprocessing.active_children() == []
        one_cpu(monkeypatch)
        serial = evaluate(model, extractor, splits.test[:3], schedule, **kwargs)
        assert (pooled.fgd, pooled.srgr, pooled.beat_align, pooled.details) == \
            (serial.fgd, serial.srgr, serial.beat_align, serial.details)

    def test_transfer_pool_equals_one_cpu(self, model, classifier, splits, schedule,
                                          monkeypatch):
        kwargs = dict(sample_cfg=SampleConfig(window=34, overlap=4),
                      clips_per_emotion=2, master_seed=5)
        audio = splits.val[0].audio.features
        pooled = emotion_transfer_eval(model, classifier, audio, schedule, **kwargs)
        assert multiprocessing.active_children() == []
        one_cpu(monkeypatch)
        serial = emotion_transfer_eval(model, classifier, audio, schedule, **kwargs)
        assert_array_equal(pooled.confusion, serial.confusion)
        assert pooled.accuracy == serial.accuracy

    def test_first_failing_chain_is_reraised(self, model, extractor, splits, schedule,
                                             monkeypatch):
        fail_chains(monkeypatch)
        raised = []
        for cpus in (os.sched_getaffinity(0), {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            with pytest.raises(NumericError) as info:
                evaluate(model, extractor, splits.test[:4], schedule,
                         eval_cfg=EvalConfig(repeats=1),
                         sample_cfg=SampleConfig(window=34, overlap=4))
            raised.append((type(info.value), str(info.value)))
            assert multiprocessing.active_children() == []
        assert raised == [(NumericError, "chain 1 left its domain")] * 2

    def test_workers_run_one_blas_thread(self):
        before = blas_threads()

        def probe(group):
            time.sleep(0.2)  # long enough that every worker takes a group
            return [(os.getpid(), blas_threads()) for _ in group]

        seen = pipeline.map_chains(probe, 4)
        assert [count for _, count in seen] == [1] * 4
        workers = {pid for pid, _ in seen}
        assert os.getpid() not in workers
        assert len(workers) == min(4, len(os.sched_getaffinity(0)))
        assert blas_threads() == before
        assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def classifier(splits):
    return GestureEmotionClassifier().fit(
        [s.motion for s in splits.train],
        [s.emotion for s in splits.train],
    )


@pytest.fixture(scope="module")
def tiny_run():
    return toy_run_config(
        schedule=ScheduleConfig(n_steps=8, beta_end=0.05),
        training=TrainConfig(batch_size=2, n_steps=3, lr=1e-3, seed=0),
        evaluation=EvalConfig(repeats=1),
        extractor=ExtractorConfig(clip_length=34, n_steps=40, seed=2),
    )


class TestEmotionClassifier:
    def test_separates_corpus_emotions(self, classifier, splits):
        held_out = splits.val + splits.test
        acc = classifier.accuracy([s.motion for s in held_out],
                                  [s.emotion for s in held_out])
        assert acc >= 0.9

    def test_unfitted_rejects_predict(self, splits):
        with pytest.raises(ContractError):
            GestureEmotionClassifier().predict(splits.val[0].motion)

    def test_fit_validates_lengths(self, splits):
        with pytest.raises(ContractError):
            GestureEmotionClassifier().fit([splits.val[0].motion], [0, 1])


class TestHarnesses:

    def test_transfer_eval_structure(self, model, classifier, splits, schedule):
        audio = splits.val[0].audio.features
        result = emotion_transfer_eval(
            model, classifier, audio, schedule,
            sample_cfg=SampleConfig(window=34, overlap=4),
            clips_per_emotion=2, master_seed=0,
        )
        assert result.confusion.shape == (4, 4)
        assert result.confusion.sum() == 8
        assert_array_equal(result.confusion.sum(axis=1), [2, 2, 2, 2])
        assert 0.0 <= result.accuracy <= 1.0
        assert "transfer accuracy" in result.summary()

    @pytest.mark.parametrize("clips", [0, -1])
    def test_transfer_eval_needs_a_clip_per_emotion(self, model, classifier, splits,
                                                    schedule, monkeypatch, clips):
        def never(*args, **kwargs):
            raise AssertionError("sampled before the argument check")

        monkeypatch.setattr(pipeline, "generate_motion", never)
        with pytest.raises(ConfigError, match="clips_per_emotion"):
            emotion_transfer_eval(model, classifier, splits.val[0].audio.features,
                                  schedule, clips_per_emotion=clips)

    def test_transfer_eval_deterministic(self, model, classifier, splits,
                                         schedule):
        audio = splits.val[0].audio.features
        kwargs = dict(sample_cfg=SampleConfig(window=34, overlap=4),
                      clips_per_emotion=1, master_seed=3)
        a = emotion_transfer_eval(model, classifier, audio, schedule, **kwargs)
        b = emotion_transfer_eval(model, classifier, audio, schedule, **kwargs)
        assert_array_equal(a.confusion, b.confusion)

    def test_conditioning_mode_comparison(self, tiny_run, splits, extractor):
        table = compare_conditioning_modes(
            tiny_run, splits, modes=("adaln", "cross_attention"),
            extractor=extractor, eval_samples=splits.val[:2],
        )
        assert set(table) == {"adaln", "cross_attention"}
        for row in table.values():
            assert set(row) == {"fgd", "srgr", "beat_align", "final_loss"}
            assert all(np.isfinite(v) for v in row.values())

    def test_ablation_grid(self, tiny_run, splits, extractor):
        table = ablation_grid(
            tiny_run, splits, extractor=extractor,
            variants=("no_rec", "no_spatial"), eval_samples=splits.val[:2],
        )
        assert set(table) == {"no_rec", "no_spatial"}
        for row in table.values():
            assert set(row) == {"fgd", "srgr", "final_loss"}
            assert all(np.isfinite(v) for v in row.values())

    def test_unknown_ablation_variant(self, tiny_run, splits, extractor):
        with pytest.raises(ConfigError):
            ablation_grid(tiny_run, splits, extractor=extractor,
                          variants=("no_gravity",))

    def test_unknown_variant_rejected_before_training(self, tiny_run, splits, extractor,
                                                      monkeypatch):
        trained = []
        monkeypatch.setattr(experiments, "train", lambda *args, **kw: trained.append(args))
        with pytest.raises(ConfigError, match="no_gravity"):
            ablation_grid(tiny_run, splits, extractor=extractor,
                          variants=("no_rec", "no_gravity"))
        assert trained == []

    @pytest.mark.parametrize("variant, section, path", [
        ("no_rec", "training", ("weights", "use_rec")),
        ("no_emotion", "training", ("weights", "use_emotion")),
        ("no_spatial", "model", ("use_spatial_branch",)),
    ])
    def test_ablate_switches_off_one_flag(self, tiny_run, variant, section, path):
        model_cfg, train_cfg = ablate(tiny_run.model, tiny_run.training, variant)
        out = {"model": model_cfg.to_dict(), "training": train_cfg.to_dict()}
        ref = {"model": tiny_run.model.to_dict(), "training": tiny_run.training.to_dict()}
        node = ref[section]
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] is True
        node[path[-1]] = False
        assert out == ref

    def test_ablate_full_changes_nothing(self, tiny_run):
        assert ablate(tiny_run.model, tiny_run.training, "full") == (
            tiny_run.model, tiny_run.training)

    def test_format_comparison(self):
        table = {"full": {"fgd": 1.25, "srgr": 0.5}}
        text = format_comparison(table, "ablations")
        assert "ablations" in text and "full" in text and "fgd=1.2500" in text
