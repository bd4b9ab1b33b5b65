"""Loss oracles, the training loop, checkpoint cadence, and resume replay."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gesturesynth.autodiff import Tensor, as_tensor
from gesturesynth.corpus import generate_corpus, toy_corpus_config
from gesturesynth.diffusion import make_schedule
from gesturesynth.errors import ConfigError, ContractError, ParseError, TrainingError
from gesturesynth.gradcheck import finite_diff_check
from gesturesynth.model import GestureDenoiser, load_checkpoint, save_checkpoint, toy_config
from gesturesynth import motion as motion_module
from gesturesynth.metrics import MetricsReport
from gesturesynth.motion import (DatasetStats, GestureSequence, _write_json,
                                 export_motion_csv, generic_skeleton)
from gesturesynth.rng import stream
from gesturesynth import training
from gesturesynth.training import (
    LossWeights,
    TrainConfig,
    build_training_items,
    keep_heap,
    loss_ce,
    loss_mse,
    loss_rec,
    read_loss_log,
    smoothed,
    total_loss,
    train,
    write_loss_log,
)


class TestLossMse:
    def test_perfect_prediction_is_zero(self):
        eps = np.ones((2, 5, 3, 3))
        assert loss_mse(eps, eps.copy()) == 0.0

    def test_unit_offset_gives_one(self):
        eps = np.random.default_rng(0).normal(size=(2, 5, 3, 3))
        assert abs(loss_mse(eps, eps + 1.0) - 1.0) < 1e-12

    def test_masked_frames_do_not_contribute(self):
        rng = np.random.default_rng(1)
        eps = rng.normal(size=(1, 6, 2, 3))
        eps_hat = eps + rng.normal(size=eps.shape)
        mask = np.zeros(6, dtype=bool)
        mask[4:] = True
        base = loss_mse(eps, eps_hat, mask)
        poked = eps_hat.copy()
        poked[:, 4:] += 100.0
        assert loss_mse(eps, poked, mask) == base

    def test_mask_changes_normalizer(self):
        eps = np.zeros((1, 4, 1, 3))
        eps_hat = np.zeros((1, 4, 1, 3))
        eps_hat[0, 0] = 2.0  # squared error 12 in one frame
        mask = np.array([False, True, True, True])
        assert abs(loss_mse(eps, eps_hat, mask) - 4.0) < 1e-12

    def test_all_masked_rejected(self):
        eps = np.zeros((1, 3, 2, 3))
        with pytest.raises(ContractError, match="masked"):
            loss_mse(eps, eps, np.ones(3, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            loss_mse(np.zeros((1, 3, 2, 3)), np.zeros((1, 4, 2, 3)))

    def test_tensor_inputs_return_tensor(self):
        eps = np.zeros((1, 2, 2, 3))
        out = loss_mse(eps, Tensor(np.ones((1, 2, 2, 3))))
        assert isinstance(out, Tensor)
        assert abs(float(out.data) - 1.0) < 1e-12


class TestLossRec:
    def test_perfect_is_zero(self):
        x = np.random.default_rng(2).normal(size=(1, 4, 3, 3))
        assert loss_rec(x, x.copy()) < 1e-11

    def test_known_single_frame_norm(self):
        x0 = np.zeros((1, 1, 2, 3))
        x0_hat = np.zeros((1, 1, 2, 3))
        x0_hat[0, 0, 0, 0] = 3.0
        x0_hat[0, 0, 0, 1] = 4.0
        assert abs(loss_rec(x0, x0_hat) - 5.0) < 1e-9

    def test_norm_is_homogeneous(self):
        rng = np.random.default_rng(3)
        x0 = np.zeros((1, 5, 2, 3))
        d = rng.normal(size=x0.shape)
        assert abs(loss_rec(x0, 3.0 * d) - 3.0 * loss_rec(x0, d)) < 1e-9

    def test_mean_over_frames(self):
        x0 = np.zeros((1, 2, 1, 3))
        x0_hat = np.zeros((1, 2, 1, 3))
        x0_hat[0, 0] = [3.0, 4.0, 0.0]  # norms 5 and 0 -> mean 2.5
        assert abs(loss_rec(x0, x0_hat) - 2.5) < 1e-9

    def test_masked_frames_ignored(self):
        x0 = np.zeros((1, 2, 1, 3))
        x0_hat = np.zeros((1, 2, 1, 3))
        x0_hat[0, 1] = 99.0
        mask = np.array([False, True])
        assert loss_rec(x0, x0_hat, mask) < 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(2, 3, 2, 3))
        pred = Tensor(rng.normal(size=(2, 3, 2, 3)), requires_grad=True)

        def loss_fn():
            return loss_rec(as_tensor(x0), pred)

        report = finite_diff_check(loss_fn, {"pred": pred}, tol=1e-5)
        assert report.passed, report.summary()


class TestLossCe:
    def test_uniform_logits_closed_form(self):
        assert abs(loss_ce(np.zeros(8), 3) - math.log(8)) < 1e-12

    def test_confident_correct_goes_to_zero(self):
        logits = np.zeros(8)
        logits[2] = 40.0
        assert loss_ce(logits, 2) < 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=6)
        assert abs(loss_ce(logits, 4) - loss_ce(logits + 7.3, 4)) < 1e-9

    def test_batch_is_mean_of_singles(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 5))
        labels = np.array([0, 2, 4])
        singles = [loss_ce(logits[i], labels[i]) for i in range(3)]
        assert abs(loss_ce(logits, labels) - np.mean(singles)) < 1e-12

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ContractError):
            loss_ce(np.zeros(4), 4)
        with pytest.raises(ContractError):
            loss_ce(np.zeros(4), -1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        labels = np.array([1, 0, 3])
        report = finite_diff_check(
            lambda: loss_ce(logits, labels), {"logits": logits}, tol=1e-5
        )
        assert report.passed, report.summary()


class TestTotalLoss:
    def test_plain_sum(self):
        assert total_loss(1.0, 2.0, 3.0, LossWeights(lambda_rec=1.0)) == 6.0

    def test_lambda_scales_rec(self):
        assert total_loss(1.0, 2.0, 3.0, LossWeights(lambda_rec=0.5)) == 5.0

    def test_zero_lambda_drops_rec(self):
        assert total_loss(1.0, 2.0, 3.0, LossWeights(lambda_rec=0.0)) == 4.0

    def test_rec_ablation_ignores_part(self):
        out = total_loss(1.0, None, 3.0, LossWeights(use_rec=False))
        assert out == 4.0

    def test_emotion_ablation_omits_ce(self):
        out = total_loss(1.0, 2.0, None, LossWeights(use_emotion=False))
        assert out == 3.0

    def test_non_finite_part_raises(self):
        with pytest.raises(TrainingError):
            total_loss(float("nan"), 1.0, 1.0)
        with pytest.raises(TrainingError):
            total_loss(1.0, float("inf"), 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigError):
            LossWeights(lambda_rec=-0.1)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 16
        assert cfg.window == 34 and cfg.window_stride == 10

    def test_variable_length_switches_window(self):
        cfg = TrainConfig(variable_length=True)
        assert cfg.window == 150 and cfg.window_stride == 50

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(mask_ratio_range=(0.8, 0.2))
        with pytest.raises(ConfigError):
            TrainConfig(mask_mode="prefix")

    @pytest.mark.parametrize("variable_length", [False, True])
    def test_mask_ratio_of_one_rejected_at_load(self, variable_length):
        # the masks need hi < 1, and the config checks the same rule up front
        with pytest.raises(ConfigError, match=r"within \[0, 1\)"):
            TrainConfig(mask_ratio_range=(0.0, 1.0), variable_length=variable_length)

    def test_dict_roundtrip(self):
        cfg = TrainConfig(n_steps=7, weights=LossWeights(lambda_rec=0.25))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"n_steps": 5, "momentum": 0.9})


def tiny_setup(n_samples=10, sample_length=34, **train_overrides):
    corpus_cfg = toy_corpus_config(sample_length=sample_length)
    splits = generate_corpus(corpus_cfg, n_samples)
    model = GestureDenoiser(toy_config(), stream(99, "init"))
    schedule = make_schedule(n_steps=50, beta_end=0.05)
    base = dict(batch_size=4, n_steps=10, lr=1e-3, seed=5)
    base.update(train_overrides)
    return model, splits.train, schedule, TrainConfig(**base)


class TestTrainingItems:
    def test_one_window_per_minimum_clip(self):
        model, samples, schedule, cfg = tiny_setup()
        stats = DatasetStats.compute([s.motion.channels() for s in samples])
        items = build_training_items(samples, stats, 34, 10)
        assert len(items) == len(samples)
        assert items[0].x0.shape == (34, 6, 3)
        assert items[0].audio.shape == (34, 20)

    def test_longer_clips_make_more_windows(self):
        _, samples, _, _ = tiny_setup(sample_length=64)
        stats = DatasetStats.compute([s.motion.channels() for s in samples])
        items = build_training_items(samples, stats, 34, 10)
        assert len(items) == 4 * len(samples)

    def test_items_are_normalized(self):
        _, samples, _, _ = tiny_setup()
        stats = DatasetStats.compute([s.motion.channels() for s in samples])
        items = build_training_items(samples, stats, 34, 10)
        pooled = np.concatenate([i.x0.reshape(-1, 18) for i in items])
        assert np.all(np.abs(pooled.mean(axis=0)) < 0.2)


class TestTrainLoop:
    def test_completes_and_logs(self):
        model, samples, schedule, cfg = tiny_setup()
        result = train(model, samples, schedule, cfg)
        assert len(result.rows) == cfg.n_steps
        for row in result.rows:
            assert np.isfinite(row["total"])
            assert row["total"] >= row["L_mse"]

    def test_same_seed_replays_exactly(self):
        model_a, samples, schedule, cfg = tiny_setup()
        rows_a = train(model_a, samples, schedule, cfg).rows
        model_b = GestureDenoiser(toy_config(), stream(99, "init"))
        rows_b = train(model_b, samples, schedule, cfg).rows
        assert rows_a == rows_b

    def test_seed_changes_trajectory(self):
        model_a, samples, schedule, cfg = tiny_setup()
        rows_a = train(model_a, samples, schedule, cfg).rows
        model_b = GestureDenoiser(toy_config(), stream(99, "init"))
        rows_b = train(model_b, samples, schedule, TrainConfig(
            batch_size=4, n_steps=10, lr=1e-3, seed=6)).rows
        assert rows_a != rows_b

    def test_variable_length_mode_completes(self):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=4, n_steps=6, lr=1e-3, seed=5,
                          variable_length=True, vl_window=34, vl_stride=10,
                          mask_ratio_range=(0.2, 0.5))
        result = train(model, samples, schedule, cfg)
        assert len(result.rows) == 6

    def test_rec_ablation_zeroes_column(self):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, lr=1e-3, seed=5,
                          weights=LossWeights(use_rec=False))
        rows = train(model, samples, schedule, cfg).rows
        assert all(r["L_rec"] == 0.0 for r in rows)
        assert all(r["L_ce"] > 0.0 for r in rows)

    def test_emotion_ablation_zeroes_column(self):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, lr=1e-3, seed=5,
                          weights=LossWeights(use_emotion=False))
        rows = train(model, samples, schedule, cfg).rows
        assert all(r["L_ce"] == 0.0 for r in rows)

    def test_window_longer_than_clips_rejected(self):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, n_clip=100, seed=5)
        with pytest.raises(TrainingError, match="window"):
            train(model, samples, schedule, cfg)

    def test_empty_sample_list_rejected(self):
        model, _, schedule, cfg = tiny_setup()
        with pytest.raises(ContractError):
            train(model, [], schedule, cfg)

    def test_divergence_guard(self):
        model, samples, schedule, cfg = tiny_setup()
        model.params()["out_head.W"].data[0, 0] = np.nan
        with pytest.raises(TrainingError):
            train(model, samples, schedule, cfg)


# one tiny training run in a fresh process, its heap policy left alone or
# with mallopt missing; prints a digest of the loss rows and final weights
_HEAP_RUN = """
import hashlib, sys
from gesturesynth import training
from test_training import tiny_setup
if sys.argv[1] == "without":
    training._libc_mallopt = lambda: None
model, samples, schedule, cfg = tiny_setup()
rows = training.train(model, samples, schedule, cfg).rows
h = hashlib.sha256(repr(rows).encode())
for p in model.params().values():
    h.update(p.data.tobytes())
print(h.hexdigest())
"""


class TestHeapPolicy:
    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        keep_heap.cache_clear()
        yield
        keep_heap.cache_clear()  # the next train() sets the real policy again

    def test_sets_both_thresholds_once(self, monkeypatch):
        calls = []

        def fake_mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(training, "_libc_mallopt", lambda: fake_mallopt)
        keep_heap()
        keep_heap()
        assert calls == [(-1, 256 << 20), (-3, 32 << 20)]

    def test_twice_with_the_real_allocator_is_harmless(self):
        keep_heap()
        keep_heap()
        model, samples, schedule, cfg = tiny_setup(n_steps=2)
        assert len(train(model, samples, schedule, cfg).rows) == 2

    def test_without_mallopt_is_a_noop(self, monkeypatch):
        monkeypatch.setattr(training, "_libc_mallopt", lambda: None)
        assert keep_heap() is None

    def test_losses_and_weights_equal_with_and_without_it(self):
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        digests = [subprocess.run([sys.executable, "-c", _HEAP_RUN, mode], env=env,
                                  capture_output=True, text=True, check=True).stdout
                   for mode in ("with", "without")]
        assert len(digests[0].strip()) == 64 and digests[0] == digests[1]


def load_perfbench_module(name):
    """perfbench/<name>.py, imported by path: perfbench is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_module():
    return load_perfbench_module("tracing")


class TestTracedTraining:
    def test_tracer_keeps_parameters_and_losses(self):
        # the tracer swaps model sub-modules for proxies that are not layer
        # classes; the registry must still find, train and save their tensors
        plain, samples, schedule, cfg = tiny_setup(n_steps=2)
        traced, _, _, _ = tiny_setup()
        tracer = load_tracer_module().Tracer()
        tracer.install(traced)
        try:
            assert list(traced.params()) == list(plain.params())
            traced_rows = train(traced, samples, schedule, cfg).rows
        finally:
            tracer.uninstall()
        assert traced_rows == train(plain, samples, schedule, cfg).rows
        for name, p in plain.params().items():
            np.testing.assert_array_equal(traced.params()[name].data, p.data)


class TestCheckpointsAndResume:
    def test_checkpoint_cadence(self, tmp_path):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=9, lr=1e-3, seed=5,
                          checkpoint_every=3)
        result = train(model, samples, schedule, cfg, out_dir=tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert names == ["checkpoint_000003.ckpt", "checkpoint_000006.ckpt",
                         "checkpoint_final.ckpt"]
        assert result.final_checkpoint.endswith("checkpoint_final.ckpt")
        assert (tmp_path / "loss_log.csv").exists()

    def test_loss_log_roundtrip(self, tmp_path):
        model, samples, schedule, cfg = tiny_setup()
        result = train(model, samples, schedule, cfg, out_dir=tmp_path)
        back = read_loss_log(tmp_path / "loss_log.csv")
        assert back == result.rows

    def test_resume_replays_uninterrupted_run(self, tmp_path):
        model_a, samples, schedule, _ = tiny_setup()
        cfg_full = TrainConfig(batch_size=2, n_steps=12, lr=1e-3, seed=5,
                               checkpoint_every=6)
        full = train(model_a, samples, schedule, cfg_full,
                     out_dir=tmp_path / "full")
        model_b = GestureDenoiser(toy_config(), stream(1234, "other-init"))
        resumed = train(model_b, samples, schedule, cfg_full,
                        out_dir=tmp_path / "resumed",
                        resume_from=tmp_path / "full" / "checkpoint_000006.ckpt")
        assert [r["step"] for r in resumed.rows] == list(range(7, 13))
        assert resumed.rows == full.rows[6:]
        for name, param in model_a.params().items():
            np.testing.assert_array_equal(param.data, model_b.params()[name].data)

    def test_resume_past_end_rejected(self, tmp_path):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, lr=1e-3, seed=5)
        train(model, samples, schedule, cfg, out_dir=tmp_path)
        with pytest.raises(ConfigError):
            train(model, samples, schedule, cfg,
                  resume_from=tmp_path / "checkpoint_final.ckpt")

    @pytest.mark.parametrize("key, value, error, match", [
        ("step", "x", ParseError, "step"),
        ("step", [1], ParseError, "step"),
        ("step", -1, ParseError, "step"),
        ("step", True, ParseError, "step"),
        ("opt.m.out_head.W", None, TrainingError, "m.out_head.W"),
        ("opt.v.out_head.b", np.zeros(2), TrainingError, "v.out_head.b"),
        ("opt.t", np.array([np.nan]), TrainingError, "optimizer state"),
        ("opt.t", np.zeros(0), TrainingError, "optimizer state"),
    ], ids=["step-str", "step-list", "step-negative", "step-bool", "moment-missing",
            "moment-size", "t-nan", "t-empty"])
    def test_corrupt_resume_state_rejected(self, tmp_path, key, value, error, match):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, lr=1e-3, seed=5, checkpoint_every=2)
        train(model, samples, schedule, cfg, out_dir=tmp_path)
        bundle = load_checkpoint(tmp_path / "checkpoint_000002.ckpt")
        meta, extra = dict(bundle.meta), dict(bundle.extra_arrays)
        if key == "step":
            meta[key] = value
        elif value is None:
            del extra[key]
        else:
            extra[key] = value
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bundle.model, bad, stats=bundle.stats, meta=meta,
                        extra_arrays=extra)
        with pytest.raises(error, match=match):
            train(model, samples, schedule, cfg, resume_from=bad)

    def test_checkpoints_store_flat_optimizer_state(self, tmp_path):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, lr=1e-3, seed=5, checkpoint_every=2)
        train(model, samples, schedule, cfg, out_dir=tmp_path)
        extra = load_checkpoint(tmp_path / "checkpoint_000002.ckpt").extra_arrays
        names = model.params()
        assert set(extra) == {"opt.t"} | {f"opt.{part}.{name}" for part in "mv"
                                           for name in names}
        assert extra["opt.t"].tolist() == [2.0]
        for name, param in names.items():
            assert extra[f"opt.m.{name}"].shape == param.data.shape

    def test_failed_save_keeps_old_checkpoint(self, tmp_path, monkeypatch):
        model, samples, schedule, _ = tiny_setup()
        cfg = TrainConfig(batch_size=2, n_steps=4, lr=1e-3, seed=5, checkpoint_every=2)
        full = train(model, samples, schedule, cfg, out_dir=tmp_path)
        old = tmp_path / "checkpoint_000002.ckpt"
        before, listing = old.read_bytes(), sorted(tmp_path.iterdir())
        monkeypatch.setattr(motion_module, "open", half_then_fail, raising=False)
        with pytest.raises(OSError, match="disk full"):
            train(GestureDenoiser(toy_config(), stream(99, "init")), samples, schedule,
                  cfg, out_dir=tmp_path)
        monkeypatch.undo()
        assert old.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing
        resumed = train(GestureDenoiser(toy_config(), stream(1, "other")), samples,
                        schedule, cfg, resume_from=old)
        assert resumed.rows == full.rows[2:]

    def test_checkpoint_save_load_save_byte_identical(self, tmp_path):
        model, samples, schedule, cfg = tiny_setup()
        train(model, samples, schedule, cfg, out_dir=tmp_path)
        first = (tmp_path / "checkpoint_final.ckpt").read_bytes()
        bundle = load_checkpoint(tmp_path / "checkpoint_final.ckpt")
        save_checkpoint(bundle.model, tmp_path / "again.ckpt",
                        stats=bundle.stats, meta=bundle.meta,
                        extra_arrays=bundle.extra_arrays)
        assert (tmp_path / "again.ckpt").read_bytes() == first


class _HalfWriter:
    """A file whose write stores half of its data, then fails like a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


def half_then_fail(*args, **kwargs):
    return _HalfWriter(open(*args, **kwargs))


@pytest.mark.parametrize("write", [
    lambda path: _write_json(path, {"a": 1}),
    lambda path: write_loss_log([{"step": 1, "L_mse": 1.0, "L_rec": 0.0, "L_ce": 0.0,
                                  "total": 1.0}], path),
    lambda path: export_motion_csv(
        GestureSequence(np.zeros((2, 4, 3)), skeleton=generic_skeleton(4)), path),
    lambda path: MetricsReport(fgd=1.0, srgr=0.5, beat_align=0.25).write_csv(path),
], ids=["json", "loss-log", "motion-csv", "metrics-csv"])
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, write):
    path = tmp_path / "old.txt"
    path.write_bytes(b"old contents\n")
    monkeypatch.setattr(motion_module, "open", half_then_fail, raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(tmp_path.iterdir()) == [path]


class TestSmoothed:
    def test_constant_stays_constant(self):
        out = smoothed(np.full(50, 3.0), window=7)
        np.testing.assert_allclose(out, 3.0)

    def test_window_larger_than_series(self):
        out = smoothed([1.0, 2.0, 3.0], window=101)
        assert out.shape == (1,)
        assert abs(out[0] - 2.0) < 1e-12
