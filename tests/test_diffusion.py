import math

import numpy as np
import pytest

from gesturesynth.diffusion import (
    NoiseSchedule,
    inpaint_sample,
    make_schedule,
    predict_x0,
    q_sample,
    reverse_step,
    sample,
    seed_pose_sample,
)
from gesturesynth.errors import ConfigError, ContractError, NumericError
from gesturesynth.motion import DatasetStats, GestureSequence, default_skeleton
from gesturesynth.rng import stream


def oracle_denoiser(x0, schedule):
    """Ideal noise estimate: the eps that would have corrupted x0 into x_t."""

    def denoiser(x_t, t, condition):
        abar = schedule.alpha_bar_at(t)
        return (x_t - math.sqrt(abar) * x0) / math.sqrt(1.0 - abar)

    return denoiser


class TestSchedule:
    def test_first_alpha_bar(self):
        sched = make_schedule(1000, 1e-4, 0.02)
        assert sched.alpha_bar_at(1) == pytest.approx(1 - 1e-4, abs=1e-15)

    def test_strictly_decreasing(self):
        sched = make_schedule(1000, 1e-4, 0.02)
        assert np.all(np.diff(sched.alpha_bar) < 0)

    def test_terminal_alpha_bar_default(self):
        # independent log-sum evaluation of the running product gives
        # 4.035829765375694e-05 for the default 1000-step linear schedule
        sched = make_schedule(1000, 1e-4, 0.02)
        assert sched.alpha_bar_at(1000) == pytest.approx(4.035829765375694e-05, rel=1e-10)
        assert sched.alpha_bar_at(1000) < 1e-4
        assert sched.alpha_bar_at(500) == pytest.approx(0.07858724288177803, rel=1e-10)

    def test_alpha_bar_at_zero_is_one(self):
        sched = make_schedule(10, 1e-4, 0.02)
        assert sched.alpha_bar_at(0) == 1.0

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ConfigError):
            make_schedule(10, 0.0, 0.02)
        with pytest.raises(ConfigError):
            make_schedule(10, 0.3, 0.2)
        with pytest.raises(ConfigError):
            make_schedule(10, 1e-4, 1.0)
        with pytest.raises(ConfigError):
            make_schedule(0, 1e-4, 0.02)

    def test_cosine_schedule_valid(self):
        sched = make_schedule(100, kind="cosine")
        assert np.all(sched.beta > 0) and np.all(sched.beta < 1)
        assert np.all(np.diff(sched.alpha_bar) < 0)
        assert sched.alpha_bar_at(100) < 0.01

    def test_t_out_of_range(self):
        sched = make_schedule(10, 1e-4, 0.02)
        with pytest.raises(ConfigError):
            sched.beta_at(11)
        with pytest.raises(ConfigError):
            sched.beta_at(0)

    def test_tables_immutable(self):
        sched = make_schedule(10, 1e-4, 0.02)
        with pytest.raises(ValueError):
            sched.beta[0] = 0.5


class TestQSample:
    def test_zero_noise_scales_x0(self):
        sched = make_schedule(100, 1e-4, 0.05)
        x0 = np.ones((3, 2, 3))
        out = q_sample(x0, 40, np.zeros_like(x0), sched)
        np.testing.assert_allclose(out, math.sqrt(sched.alpha_bar_at(40)), atol=1e-12)

    def test_terminal_t_is_mostly_noise(self):
        sched = make_schedule(1000, 1e-4, 0.02)
        x0 = np.full((4, 4), 5.0)
        eps = np.ones_like(x0)
        out = q_sample(x0, 1000, eps, sched)
        # abar_T < 1e-4, so the x0 share is under sqrt(1e-4)*5 = 0.05
        np.testing.assert_allclose(out, eps, atol=0.04)

    def test_variance_preserving_monte_carlo(self):
        sched = make_schedule(100, 1e-4, 0.05)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(100_000)
        eps = rng.standard_normal(100_000)
        for t in (1, 30, 100):
            xt = q_sample(x0, t, eps, sched)
            assert abs(xt.var() - 1.0) < 0.03

    def test_shape_mismatch_rejected(self):
        sched = make_schedule(10, 1e-4, 0.02)
        with pytest.raises(ContractError):
            q_sample(np.zeros((2, 3)), 5, np.zeros((3, 2)), sched)

    def test_t_out_of_range_rejected(self):
        sched = make_schedule(10, 1e-4, 0.02)
        with pytest.raises(ConfigError):
            q_sample(np.zeros(3), 11, np.zeros(3), sched)


class TestPredictX0:
    def test_inverts_q_sample_every_t(self):
        sched = make_schedule(200, 1e-4, 0.05)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((5, 3, 3))
        for t in range(1, 201):
            eps = rng.standard_normal(x0.shape)
            xt = q_sample(x0, t, eps, sched)
            back = predict_x0(xt, eps, t, sched)
            np.testing.assert_allclose(back, x0, atol=1e-9)

    def test_sweep_max_error(self):
        sched = make_schedule(1000, 1e-4, 0.02)
        rng = np.random.default_rng(2)
        worst = 0.0
        for t in range(1, 1001, 7):
            x0 = rng.standard_normal((2, 4))
            eps = rng.standard_normal((2, 4))
            back = predict_x0(q_sample(x0, t, eps, sched), eps, t, sched)
            worst = max(worst, np.abs(back - x0).max())
        assert worst < 1e-8

    def test_zero_eps_hat(self):
        sched = make_schedule(50, 1e-4, 0.05)
        xt = np.full((2, 2), 3.0)
        out = predict_x0(xt, np.zeros_like(xt), 20, sched)
        np.testing.assert_allclose(out, xt / math.sqrt(sched.alpha_bar_at(20)), atol=1e-12)

    def test_alpha_bar_floor(self):
        # beta 0.999 five times: abar = 1e-15, under the 1e-12 floor
        sched = NoiseSchedule(np.full(5, 0.999))
        with pytest.raises(NumericError, match="floor"):
            predict_x0(np.zeros(3), np.zeros(3), 5, sched)


class TestReverseStep:
    def test_final_step_deterministic(self):
        sched = make_schedule(50, 1e-4, 0.05)
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(99)
        xt = np.random.default_rng(4).standard_normal((3, 3))
        eps = np.random.default_rng(5).standard_normal((3, 3))
        out_a = reverse_step(xt, 1, eps, sched, rng_a)
        out_b = reverse_step(xt, 1, eps, sched, rng_b)
        np.testing.assert_array_equal(out_a, out_b)
        beta, abar = sched.beta_at(1), sched.alpha_bar_at(1)
        mean = (xt - beta / math.sqrt(1 - abar) * eps) / math.sqrt(sched.alpha_at(1))
        np.testing.assert_allclose(out_a, mean, atol=1e-12)

    def test_tiny_beta_keeps_x(self):
        sched = NoiseSchedule(np.full(10, 1e-8))
        xt = np.ones((2, 2))
        out = reverse_step(xt, 5, np.zeros_like(xt), sched, np.random.default_rng(0))
        np.testing.assert_allclose(out, xt, atol=1e-3)

    def test_posterior_variance_smaller_than_beta(self):
        sched = make_schedule(100, 1e-4, 0.05)
        for t in (2, 50, 100):
            assert 0 < sched.posterior_variance(t) < sched.beta_at(t)

    def test_oracle_chain_reconstructs_x0_deterministic(self):
        # sigma forced to zero via an rng stub that always draws 0; with the
        # ideal noise estimate the t=1 update recovers x0 exactly because
        # beta_1 = 1 - abar_1 collapses the mean to x0 algebraically
        class ZeroRng:
            def standard_normal(self, shape):
                return np.zeros(shape)

        sched = make_schedule(200, 1e-4, 0.05)
        rng = ZeroRng()
        init = np.random.default_rng(6)
        x0 = init.standard_normal((4, 3, 3))
        den = oracle_denoiser(x0, sched)
        x = q_sample(x0, 200, init.standard_normal(x0.shape), sched)
        # independent recurrence for the deviation coefficient: each mean-only
        # step contracts the noise component by sqrt(alpha_t)(1-abar_{t-1})/(1-abar_t)
        c = math.sqrt(1 - sched.alpha_bar_at(200))
        for t in range(200, 0, -1):
            eps_hat = den(x, t, None)
            x = reverse_step(x, t, eps_hat, sched, rng)
            if t > 1:
                c = c * math.sqrt(sched.alpha_at(t)) * (1 - sched.alpha_bar_at(t - 1)) / (
                    1 - sched.alpha_bar_at(t)
                )
                drift = np.abs(x - math.sqrt(sched.alpha_bar_at(t - 1)) * x0).max()
                assert drift <= c * 6 + 1e-9
        # the stochastic reverse_step path is only taken when t > 1; at t = 1
        # rng is unused, so this chain is fully deterministic given the oracle
        np.testing.assert_allclose(x, x0, atol=1e-6)

    def test_oracle_chain_with_noise_still_lands_on_x0(self):
        # injected noise is part of x_t, the ideal estimate accounts for it,
        # and the final step contracts the deviation to zero
        sched = make_schedule(100, 1e-4, 0.05)
        rng = np.random.default_rng(7)
        x0 = np.random.default_rng(8).standard_normal((3, 2, 3))
        den = oracle_denoiser(x0, sched)
        x = rng.standard_normal(x0.shape)
        for t in range(100, 0, -1):
            x = reverse_step(x, t, den(x, t, None), sched, rng)
        np.testing.assert_allclose(x, x0, atol=1e-8)


class FixedLinearDenoiser:
    """Deterministic stand-in model: a fixed random linear map of the input."""

    def __init__(self, seed=0, gain=0.1):
        self.gain = gain
        self.seed = seed

    def __call__(self, x_t, t, condition):
        rng = np.random.default_rng(self.seed)
        w = rng.standard_normal((x_t.shape[-1], x_t.shape[-1]))
        return self.gain * (x_t @ w)


class TestSamplers:
    def setup_method(self):
        self.sched = make_schedule(60, 1e-4, 0.05)
        self.den = FixedLinearDenoiser()

    def test_deterministic_given_seed(self):
        a = sample(self.den, None, 12, 47, self.sched, stream(7, "sample"))
        b = sample(self.den, None, 12, 47, self.sched, stream(7, "sample"))
        np.testing.assert_array_equal(a.frames, b.frames)

    @pytest.mark.parametrize("n", [8, 34, 150])
    def test_output_shape(self, n):
        out = sample(self.den, None, n, 47, self.sched, stream(0, "shape", n))
        assert out.frames.shape == (n, 47, 3)

    def test_untrained_denoiser_finite(self):
        out = sample(self.den, None, 20, 5, self.sched, stream(1, "smoke"))
        assert np.all(np.isfinite(out.frames))

    def test_denoiser_shape_mismatch_contract_error(self):
        bad = lambda x, t, c: x[:, :1]
        with pytest.raises(ContractError, match="shape"):
            sample(bad, None, 8, 5, self.sched, stream(2, "bad"))

    def test_denormalizes_with_stats(self):
        stats = DatasetStats(mean=np.full(15, 100.0), std=np.full(15, 2.0))
        out = sample(
            self.den, None, 10, 5, self.sched, stream(3, "norm"), stats=stats
        )
        # normalized-space output is O(1), so denormalized must sit near 100
        assert np.abs(out.frames.mean() - 100.0) < 20.0

    def test_inpaint_all_true_equals_plain_sample(self):
        skel = default_skeleton()
        ref = GestureSequence(np.zeros((10, 47, 3)), skeleton=skel)
        mask = np.ones(47, dtype=bool)
        a = inpaint_sample(self.den, None, ref, mask, self.sched, stream(4, "x"))
        b = sample(self.den, None, 10, 47, self.sched, stream(4, "x"))
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_inpaint_all_false_returns_ref_exactly(self):
        rng = np.random.default_rng(9)
        ref = GestureSequence(rng.normal(size=(8, 47, 3)) * 0.3)
        mask = np.zeros(47, dtype=bool)
        out = inpaint_sample(self.den, None, ref, mask, self.sched, stream(5, "y"))
        np.testing.assert_array_equal(out.frames, ref.frames)

    def test_inpaint_preserved_bit_exact_masked_changed(self):
        rng = np.random.default_rng(10)
        ref = GestureSequence(rng.normal(size=(12, 47, 3)) * 0.3)
        mask = np.zeros(47, dtype=bool)
        mask[9:28] = True  # left-hand block in the default layout
        out = inpaint_sample(self.den, None, ref, mask, self.sched, stream(6, "z"))
        np.testing.assert_array_equal(out.frames[:, ~mask], ref.frames[:, ~mask])
        frames_changed = np.any(out.frames[:, mask] != ref.frames[:, mask], axis=(1, 2))
        assert frames_changed.mean() >= 0.95

    def test_inpaint_with_stats_roundtrip_exact(self):
        rng = np.random.default_rng(11)
        ref = GestureSequence(rng.normal(loc=2.0, size=(6, 47, 3)))
        stats = DatasetStats(
            mean=rng.normal(size=141), std=rng.uniform(0.5, 2.0, 141)
        )
        mask = np.zeros(47, dtype=bool)
        mask[:5] = True
        out = inpaint_sample(
            self.den, None, ref, mask, self.sched, stream(7, "w"), stats=stats
        )
        np.testing.assert_array_equal(out.frames[:, ~mask], ref.frames[:, ~mask])

    def test_inpaint_requires_ref(self):
        mask = np.zeros(47, dtype=bool)
        with pytest.raises(ConfigError):
            inpaint_sample(self.den, None, None, mask, self.sched, stream(8, "v"))

    def test_inpaint_mask_length_checked(self):
        ref = GestureSequence(np.zeros((4, 47, 3)))
        with pytest.raises(ConfigError, match="mask"):
            inpaint_sample(
                self.den, None, ref, np.zeros(46, bool), self.sched, stream(9, "u")
            )

    def test_seed_pose_pins_leading_frames(self):
        rng = np.random.default_rng(12)
        seed = rng.normal(size=(4, 47, 3)) * 0.2
        out = seed_pose_sample(
            self.den, None, seed, 16, self.sched, stream(10, "s")
        )
        assert out.frames.shape == (16, 47, 3)
        np.testing.assert_array_equal(out.frames[:4], seed)

    def test_zero_seed_frames_identical_to_sample(self):
        seed = np.zeros((0, 47, 3))
        a = seed_pose_sample(self.den, None, seed, 10, self.sched, stream(11, "t"))
        b = sample(self.den, None, 10, 47, self.sched, stream(11, "t"))
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_zero_seed_frames_with_stats_identical_to_sample(self):
        stats = DatasetStats(mean=np.full(15, 100.0), std=np.full(15, 2.0))
        seed = np.zeros((0, 5, 3))
        a = seed_pose_sample(self.den, None, seed, 10, self.sched, stream(11, "s"),
                             stats=stats)
        b = sample(self.den, None, 10, 5, self.sched, stream(11, "s"), stats=stats)
        np.testing.assert_array_equal(a.frames, b.frames)

    def test_seed_longer_than_output_rejected(self):
        seed = np.zeros((8, 47, 3))
        with pytest.raises(ConfigError, match="seed"):
            seed_pose_sample(self.den, None, seed, 4, self.sched, stream(12, "r"))

    def test_trajectory_replay_identical(self):
        outs = [
            inpaint_sample(
                self.den,
                None,
                GestureSequence(np.zeros((6, 47, 3))),
                np.arange(47) % 2 == 0,
                self.sched,
                stream(13, "replay"),
            ).frames
            for _ in range(2)
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
