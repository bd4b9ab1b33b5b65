import numpy as np
import pytest

from gesturesynth.autodiff import Tensor
from gesturesynth.errors import TrainingError
from gesturesynth.optim import Adam


def make_param(val):
    return Tensor(np.array(val, dtype=float), requires_grad=True)


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        # with bias correction the very first update is lr * g/(|g| + ~0),
        # i.e. lr * sign(g) up to eps
        p = make_param([1.0, -2.0, 3.0])
        p.grad = np.array([0.5, -4.0, 1e-3])
        opt = Adam({"p": p}, lr=0.1)
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(before - p.data, 0.1 * np.sign(p.grad), atol=1e-4)

    def test_zero_grad_param_is_untouched(self):
        p = make_param([1.0, 2.0])
        q = make_param([3.0])
        q.grad = np.array([1.0])
        opt = Adam({"p": p, "q": q}, lr=0.05)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert q.data[0] != 3.0

    def test_zero_grad_clears(self):
        p = make_param([1.0])
        p.grad = np.array([2.0])
        opt = Adam({"p": p})
        opt.zero_grad()
        assert p.grad is None

    def test_converges_on_quadratic(self):
        p = make_param([5.0, -3.0])
        opt = Adam({"p": p}, lr=0.2)
        for _ in range(400):
            opt.zero_grad()
            p.grad = 2 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_nonfinite_grad_raises_with_name(self):
        p = make_param([1.0])
        p.grad = np.array([np.nan])
        opt = Adam({"bad_param": p})
        with pytest.raises(TrainingError, match="bad_param"):
            opt.step()

    @pytest.mark.parametrize("part", ["m", "v"])
    def test_moment_of_another_shape_is_rejected(self, part):
        # as many entries as the parameter, but transposed: nothing is reshaped,
        # and the well-formed entries are not loaded either
        p = make_param(np.zeros((2, 3)))
        state = {"t": np.array([4.0]), "m.p": np.ones((2, 3)), "v.p": np.ones((2, 3))}
        state[f"{part}.p"] = np.arange(6.0).reshape(3, 2)
        opt = Adam({"p": p})
        with pytest.raises(TrainingError, match=rf"{part}\.p .* not of shape \(2, 3\)"):
            opt.load_state_dict(state)
        assert opt.t == 0
        np.testing.assert_array_equal(opt.m["p"], np.zeros((2, 3)))
        np.testing.assert_array_equal(opt.v["p"], np.zeros((2, 3)))

    def test_state_roundtrip_resumes_identically(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=3) for _ in range(20)]

        def run(split):
            p = make_param([1.0, 2.0, 3.0])
            opt = Adam({"p": p}, lr=0.01)
            state = None
            for i, g in enumerate(grads):
                if split is not None and i == split:
                    state = opt.state_dict()
                    p2 = make_param(p.data.copy())
                    opt = Adam({"p": p2}, lr=0.01)
                    opt.load_state_dict(state)
                    p = p2
                p.grad = g.copy()
                opt.step()
            return p.data

        np.testing.assert_array_equal(run(None), run(10))

    def test_deterministic(self):
        def run():
            p = make_param([0.3, 0.7])
            opt = Adam({"p": p}, lr=0.123)
            for i in range(5):
                p.grad = np.array([0.1 * i, -0.2])
                opt.step()
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())


def reference_adam(data, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as out-of-place formulas, one fresh array per operation."""
    m = {k: np.zeros_like(a) for k, a in data.items()}
    v = {k: np.zeros_like(a) for k, a in data.items()}
    for t, step_grads in enumerate(grads, start=1):
        for k in data:
            g = step_grads.get(k)
            g = np.zeros_like(data[k]) if g is None else g
            m[k] = b1 * m[k] + (1 - b1) * g
            v[k] = b2 * v[k] + (1 - b2) * g * g
            m_hat = m[k] / (1 - b1**t)
            v_hat = v[k] / (1 - b2**t)
            data[k] = data[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return data, m, v


class TestAdamInPlace:
    def start(self):
        rng = np.random.default_rng(3)
        params = {"a": make_param(rng.normal(size=(3, 4))), "b": make_param(rng.normal(size=5)),
                  "idle": make_param([0.25, -1.0])}
        return rng, params, Adam(params, lr=0.01)

    def test_matches_out_of_place_formulas_bit_for_bit(self):
        rng, params, opt = self.start()
        data = {k: p.data.copy() for k, p in params.items()}
        grads = [{"a": rng.normal(size=(3, 4)), "b": rng.normal(scale=1e-3, size=5)}
                 for _ in range(20)]
        for step_grads in grads:
            opt.zero_grad()
            for k, g in step_grads.items():
                params[k].grad = g.copy()
            opt.step()
        data, m, v = reference_adam(data, grads, lr=0.01)
        assert opt.t == 20
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, data[k])
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v[k])

    def test_nonfinite_grad_changes_no_state(self):
        rng, params, opt = self.start()
        for _ in range(3):
            params["a"].grad, params["b"].grad = rng.normal(size=(3, 4)), rng.normal(size=5)
            opt.step()
        before = {k: (p.data, p.data.copy(), opt.m[k].copy(), opt.v[k].copy())
                  for k, p in params.items()}
        params["a"].grad = rng.normal(size=(3, 4))
        params["b"].grad = np.array([0.0, np.inf, 0.0, 0.0, 0.0])
        with pytest.raises(TrainingError, match="'b'"):
            opt.step()
        assert opt.t == 3
        for k, (buf, data, m, v) in before.items():
            assert params[k].data is buf
            np.testing.assert_array_equal(params[k].data, data)
            np.testing.assert_array_equal(opt.m[k], m)
            np.testing.assert_array_equal(opt.v[k], v)

    def test_loaded_state_is_owned_by_the_optimizer(self):
        rng, params, opt = self.start()
        params["a"].grad, params["b"].grad = rng.normal(size=(3, 4)), rng.normal(size=5)
        opt.step()
        state = opt.state_dict()
        kept = {k: a.copy() for k, a in state.items()}
        twin = {k: make_param(p.data.copy()) for k, p in params.items()}
        resumed = Adam(twin, lr=0.01)
        resumed.load_state_dict(state)
        twin["a"].grad = twin["b"].grad = None
        resumed.step()  # stepping after loading leaves the caller's arrays alone
        for k, a in state.items():
            np.testing.assert_array_equal(a, kept[k])
        moments = {k: (resumed.m[k].copy(), resumed.v[k].copy()) for k in twin}
        for a in state.values():  # and mutating them leaves the optimizer alone
            a[...] = 7.0
        for k, (m, v) in moments.items():
            np.testing.assert_array_equal(resumed.m[k], m)
            np.testing.assert_array_equal(resumed.v[k], v)
