import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gesturesynth.autodiff import (
    Tensor,
    concat,
    gelu,
    layer_norm,
    linear,
    no_grad,
    scaled_dot_attention,
    softmax,
    take_rows,
)
from gesturesynth.errors import DimensionError


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestMatmul:
    def test_identity(self):
        a = np.arange(6, dtype=float).reshape(2, 3)
        out = Tensor(a) @ Tensor(np.eye(3))
        np.testing.assert_array_equal(out.data, a)

    def test_annihilator(self):
        z = Tensor(np.zeros((4, 5)))
        b = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        np.testing.assert_array_equal((z @ b).data, np.zeros((4, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))

    def test_grads_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        ((ta @ tb) * (ta @ tb)).sum().backward()

        def loss_a(x):
            return float(((x @ b) ** 2).sum())

        def loss_b(x):
            return float(((a @ x) ** 2).sum())

        assert rel(ta.grad, fd_grad(loss_a, a.copy())) < 1e-6
        assert rel(tb.grad, fd_grad(loss_b, b.copy())) < 1e-6

    def test_batched_grads(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(4, 5))
        ta, tw = Tensor(a, requires_grad=True), Tensor(w, requires_grad=True)
        ((ta @ tw) ** 2).sum().backward()
        assert rel(tw.grad, fd_grad(lambda x: float(((a @ x) ** 2).sum()), w.copy())) < 1e-6
        assert rel(ta.grad, fd_grad(lambda x: float(((x @ w) ** 2).sum()), a.copy())) < 1e-6


class TestSoftmax:
    def test_uniform(self):
        out = softmax(Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_extreme_logits_stable(self):
        out = softmax(Tensor([1000.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] > 0.999999

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(scale=10, size=(5, 7))
        s = softmax(Tensor(x)).data.sum(axis=-1)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)

    def test_permutation_equivariant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=8)
        perm = rng.permutation(8)
        np.testing.assert_allclose(
            softmax(Tensor(x[perm])).data, softmax(Tensor(x)).data[perm], atol=1e-15
        )

    def test_jacobian_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=6)
        w = rng.normal(size=6)  # random contraction makes the loss scalar
        t = Tensor(x, requires_grad=True)
        (softmax(t) * Tensor(w)).sum().backward()
        fd = fd_grad(
            lambda v: float((np.exp(v - v.max()) / np.exp(v - v.max()).sum() * w).sum()),
            x.copy(),
        )
        assert rel(t.grad, fd) < 1e-6

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_property_simplex(self, vals):
        out = softmax(Tensor(np.array(vals))).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        x = Tensor(np.full((3, 5), 2.7))
        out = layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        # variance of [1, -1] is 1, so normalization is the identity here
        out = layer_norm(Tensor([1.0, -1.0]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-6)

    def test_zero_gain_gives_bias(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 3)))
        b = np.array([5.0, -1.0, 0.5])
        out = layer_norm(x, Tensor(np.zeros(3)), Tensor(b))
        np.testing.assert_allclose(out.data, np.broadcast_to(b, (4, 3)), atol=1e-12)

    def test_grads_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        w = rng.normal(size=(2, 5))
        tx = Tensor(x, requires_grad=True)
        tg = Tensor(gain, requires_grad=True)
        tb = Tensor(bias, requires_grad=True)
        (layer_norm(tx, tg, tb) * Tensor(w)).sum().backward()

        def ref(xa, ga, ba):
            mu = xa.mean(-1, keepdims=True)
            c = xa - mu
            var = (c * c).mean(-1, keepdims=True)
            return float((((c / np.sqrt(var + 1e-8)) * ga + ba) * w).sum())

        assert rel(tx.grad, fd_grad(lambda v: ref(v, gain, bias), x.copy())) < 1e-6
        assert rel(tg.grad, fd_grad(lambda v: ref(x, v, bias), gain.copy())) < 1e-6
        assert rel(tb.grad, fd_grad(lambda v: ref(x, gain, v), bias.copy())) < 1e-6

    @staticmethod
    def composite(x, gain, bias, eps=1e-8):
        """The same norm as separate mean/centre/variance/sqrt/divide ops."""
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        return centered / (var + eps).sqrt() * gain + bias

    @staticmethod
    def inputs(rng, affine):
        """(x, gain, bias) at the denoiser's shape; the affine is (B, 1, d) or 1.0/0.0."""
        x = Tensor(rng.normal(scale=rng.uniform(0.1, 10), size=(16, 34, 128)), requires_grad=True)
        if affine == "scalar":
            return x, 1.0, 0.0
        gain, bias = (Tensor(rng.normal(size=(16, 1, 128)), requires_grad=True) for _ in range(2))
        return x, gain, bias

    @pytest.mark.parametrize("affine", ["tensor", "scalar"])
    def test_forward_equals_composite_bit_for_bit(self, affine):
        rng = np.random.default_rng(30)
        for _ in range(5):
            args = self.inputs(rng, affine)
            np.testing.assert_array_equal(
                layer_norm(*args).data, self.composite(*args).data
            )

    @pytest.mark.parametrize("affine", ["tensor", "scalar"])
    def test_grads_match_composite(self, affine):
        # the analytic backward re-rounds; measured worst max-norm relative
        # difference over 20 trials: about 4e-16
        rng = np.random.default_rng(31)
        for _ in range(20):
            one = self.inputs(rng, affine)
            ref = [Tensor(a.data, requires_grad=True) if isinstance(a, Tensor) else a for a in one]
            w = Tensor(rng.normal(size=(16, 34, 128)))
            (layer_norm(*one) * w).sum().backward()
            (self.composite(*ref) * w).sum().backward()
            for a, b in zip(one, ref):
                if isinstance(a, Tensor):
                    assert np.abs(a.grad - b.grad).max() <= 1e-14 * np.abs(b.grad).max()

    def test_is_one_node_over_x_gain_bias(self):
        rng = np.random.default_rng(33)
        shapes = [(2, 3, 4), (2, 1, 4), (2, 1, 4)]
        x, gain, bias = (Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
        out = layer_norm(x, gain, bias)
        assert out._parents == (x, gain, bias)
        with no_grad():
            free = layer_norm(x, gain, bias)
        assert not free.requires_grad and free._parents == ()
        np.testing.assert_array_equal(free.data, out.data)


class TestAttention:
    def test_single_token_returns_value_row(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 5))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), 0.5).data
        np.testing.assert_allclose(out, np.broadcast_to(v, (3, 5)), atol=1e-12)

    def test_zero_scores_average_values(self):
        rng = np.random.default_rng(9)
        q = np.zeros((2, 4))
        k = rng.normal(size=(6, 4))
        v = rng.normal(size=(6, 3))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), 1.0).data
        np.testing.assert_allclose(out, np.broadcast_to(v.mean(0), (2, 3)), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        q, k, v = rng.normal(size=(5, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
        scale = 1 / np.sqrt(4)
        expected = np.zeros((5, 3))
        for i in range(5):
            scores = np.array([q[i] @ k[j] * scale for j in range(6)])
            w = np.exp(scores - scores.max())
            w /= w.sum()
            for j in range(6):
                expected[i] += w[j] * v[j]
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), scale).data
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_differentiable_through_all_inputs(self):
        rng = np.random.default_rng(11)
        q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
        w = rng.normal(size=(3, 2))
        scale = 0.7

        def ref(qa, ka, va):
            s = qa @ ka.T * scale
            e = np.exp(s - s.max(-1, keepdims=True))
            p = e / e.sum(-1, keepdims=True)
            return float(((p @ va) * w).sum())

        tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
        (scaled_dot_attention(tq, tk, tv, scale) * Tensor(w)).sum().backward()
        assert rel(tq.grad, fd_grad(lambda a: ref(a, k, v), q.copy())) < 1e-6
        assert rel(tk.grad, fd_grad(lambda a: ref(q, a, v), k.copy())) < 1e-6
        assert rel(tv.grad, fd_grad(lambda a: ref(q, k, a), v.copy())) < 1e-6


class TestMiscOps:
    def test_gelu_grad(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=7)
        t = Tensor(x, requires_grad=True)
        gelu(t).sum().backward()

        def ref(v):
            c = np.sqrt(2 / np.pi)
            return float((0.5 * v * (1 + np.tanh(c * (v + 0.044715 * v**3)))).sum())

        assert rel(t.grad, fd_grad(ref, x.copy())) < 1e-6

    def test_gelu_matches_power_cube(self):
        # the cube is a * a * a; against a**3 it may differ only in the last bits
        a = np.concatenate([
            np.linspace(-60.0, 60.0, 20001),
            -np.logspace(0, 8, 500),
            np.logspace(0, 8, 500),
        ])
        c = np.sqrt(2 / np.pi)
        old = 0.5 * a * (1 + np.tanh(c * (a + 0.044715 * a**3)))
        out = gelu(Tensor(a)).data
        assert np.all(np.abs(out - old) <= 1e-15 * np.maximum(1.0, np.abs(a)))

    def test_getitem_repeated_indices_accumulate(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 2))
        rows, cols = np.array([0, 2, 0, 3, 0]), [1, 1]
        t = Tensor(x, requires_grad=True)
        (t[rows][:, cols] * Tensor(w)).sum().backward()
        fd = fd_grad(lambda v: float((v[rows][:, cols] * w).sum()), x.copy())
        assert rel(t.grad, fd) < 1e-6
        probe = Tensor(np.arange(3.0), requires_grad=True)
        probe[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_array_equal(probe.grad, [2.0, 0.0, 1.0])
        mask = Tensor(np.arange(3.0), requires_grad=True)
        mask[np.array([True, False, True])].sum().backward()
        np.testing.assert_array_equal(mask.grad, [1.0, 0.0, 1.0])

    def test_no_grad_keeps_values_and_records_nothing(self):
        rng = np.random.default_rng(17)
        t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        recorded = gelu(t @ w) * 2.0
        with no_grad():
            free = gelu(t @ w) * 2.0
        np.testing.assert_array_equal(free.data, recorded.data)
        assert not free.requires_grad and free._parents == ()
        with pytest.raises(DimensionError), no_grad():
            t @ t
        again = t @ w
        assert again.requires_grad and again._parents == (t, w)

    def test_concat_and_slice_grads(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        joined = concat([ta, tb], axis=0)
        (joined[1:5] ** 2).sum().backward()
        expect_a = np.zeros_like(a)
        expect_a[1] = 2 * a[1]
        expect_b = np.zeros_like(b)
        expect_b[:3] = 2 * b[:3]
        np.testing.assert_allclose(ta.grad, expect_a, atol=1e-12)
        np.testing.assert_allclose(tb.grad, expect_b, atol=1e-12)

    def test_take_rows_scatter_adds(self):
        table = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        take_rows(table, [1, 1, 3]).sum().backward()
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_broadcast_add_mul_grads(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 4, 3))
        b = rng.normal(size=3)
        tx, tb = Tensor(x, requires_grad=True), Tensor(b, requires_grad=True)
        ((tx + tb) * tb).sum().backward()
        assert rel(tb.grad, fd_grad(lambda v: float(((x + v) * v).sum()), b.copy())) < 1e-6
        assert rel(tx.grad, fd_grad(lambda v: float(((v + b) * b).sum()), x.copy())) < 1e-6

    def test_reshape_transpose_roundtrip_grad(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 4))
        t = Tensor(x, requires_grad=True)
        y = t.reshape(2, 12).reshape(2, 3, 4).transpose(1, 0, 2)
        (y * y).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * x, atol=1e-12)

    def test_mean_axis_tuple(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        m = x.mean(axis=(1, 2))
        np.testing.assert_allclose(m.data, [1.0, 1.0])
        m.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3, 4), 1 / 12), atol=1e-15)

    def test_no_nan_from_finite_inputs(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(scale=100, size=(4, 6)), requires_grad=True)
        out = layer_norm(softmax(x), Tensor(np.ones(6)), Tensor(np.zeros(6)))
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_determinism(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5, 5))

        def run():
            t = Tensor(x.copy(), requires_grad=True)
            (softmax(t @ Tensor(x)) ** 2).sum().backward()
            return t.grad.copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a, b)


def swap_last(t):
    """t^T over the last two axes, as a transpose node."""
    axes = list(range(t.ndim))
    axes[-2:] = axes[-1], axes[-2]
    return t.transpose(*axes)


def composite_attention(q, k, v, scale, heads=None):
    """Attention as separate split / matmul / scale / softmax / matmul / merge ops."""
    if heads is not None:
        s, d = q.shape[1], q.shape[2]
        q, k, v = (t.reshape(-1, t.shape[1], heads, d // heads).transpose(0, 2, 1, 3)
                   for t in (q, k, v))
    y = softmax((q @ swap_last(k)) * scale) @ v
    return y if heads is None else y.transpose(0, 2, 1, 3).reshape(-1, s, d)


def leaves(rng, *shapes):
    return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]


def twins(tensors):
    return [Tensor(t.data.copy(), requires_grad=t.requires_grad) for t in tensors]


def assert_same_node(fused, composite, args, rng):
    """fused(*args) equals composite(*copies) in value and every gradient, bit for bit."""
    ref = twins(args)
    out, expect = fused(*args), composite(*ref)
    np.testing.assert_array_equal(out.data, expect.data)
    w = Tensor(rng.normal(size=out.shape))
    (out * w).sum().backward()
    (expect * w).sum().backward()
    for a, b in zip(args, ref):
        np.testing.assert_array_equal(a.grad, b.grad)


class CountingGrad:
    """An upstream gradient that counts the matrix products formed with it."""

    __array_ufunc__ = None  # numpy hands `array @ probe` to __rmatmul__

    def __init__(self, a):
        self.a, self.products = a, 0

    @property
    def shape(self):
        return self.a.shape

    def reshape(self, *shape):  # the folded rows keep counting into this probe
        self.a = self.a.reshape(*shape)
        return self

    def __matmul__(self, other):
        self.products += 1
        return self.a @ other

    def __rmatmul__(self, other):
        self.products += 1
        return other @ self.a


class TestOneNodeOps:
    """linear, attention and mean are one node each, bit-identical to their composites."""

    @pytest.mark.parametrize("shapes", [
        [(16, 34, 128), (128, 256), (256,)],  # a denoiser feed-forward
        [(16, 64), (64, 8), (8,)],  # the time MLP / classifier: 2-D input
        [(3, 5, 4), (4, 2), (1, 1, 2)],  # a bias that broadcasts from (1, 1, d)
    ])
    def test_linear_equals_matmul_add(self, shapes):
        rng = np.random.default_rng(40)
        for _ in range(3):
            assert_same_node(linear, lambda x, w, b: x @ w + b, leaves(rng, *shapes), rng)

    @pytest.mark.parametrize("q_len, ctx_len", [(34, 34), (34, 40), (34, 1), (7, 13)])
    def test_attention_with_heads_equals_split_attend_merge(self, q_len, ctx_len):
        # self-attention, audio cross-attention and the one-token emotion context
        rng = np.random.default_rng(41)
        scale = 1.0 / np.sqrt(32)
        for _ in range(3):
            args = leaves(rng, (4, q_len, 128), (4, ctx_len, 128), (4, ctx_len, 128))
            assert_same_node(lambda q, k, v: scaled_dot_attention(q, k, v, scale, heads=4),
                             lambda q, k, v: composite_attention(q, k, v, scale, heads=4),
                             args, rng)

    @pytest.mark.parametrize("shapes", [[(5, 4), (6, 4), (6, 3)],
                                        [(2, 3, 5, 4), (2, 3, 6, 4), (2, 3, 6, 3)]])
    def test_attention_without_heads_equals_composite(self, shapes):
        rng = np.random.default_rng(42)
        for _ in range(3):
            assert_same_node(lambda q, k, v: scaled_dot_attention(q, k, v, 0.7),
                             lambda q, k, v: composite_attention(q, k, v, 0.7),
                             leaves(rng, *shapes), rng)

    @pytest.mark.parametrize("axis, keepdims", [(None, False), (1, False), (-1, True),
                                                ((1, 2), False), ((0, 2), True)])
    def test_mean_equals_sum_times_reciprocal(self, axis, keepdims):
        rng = np.random.default_rng(43)
        (x,) = leaves(rng, (4, 34, 20))
        count = x.size // x.data.sum(axis=axis, keepdims=keepdims).size
        assert_same_node(lambda t: t.mean(axis=axis, keepdims=keepdims),
                         lambda t: t.sum(axis=axis, keepdims=keepdims) * (1.0 / count),
                         [x], rng)

    def test_each_is_one_node_and_none_under_no_grad(self):
        rng = np.random.default_rng(44)
        x, w, b = leaves(rng, (2, 3, 4), (4, 4), (4,))
        q, k, v = leaves(rng, (2, 3, 4), (2, 5, 4), (2, 5, 4))
        ops = [(lambda: linear(x, w, b), (x, w, b)),
               (lambda: scaled_dot_attention(q, k, v, 0.5, heads=2), (q, k, v)),
               (lambda: x.mean(axis=1), (x,))]
        for op, parents in ops:
            out = op()
            assert out._parents == parents
            with no_grad():
                free = op()
            assert not free.requires_grad and free._parents == ()
            np.testing.assert_array_equal(free.data, out.data)

    def test_attention_with_heads_needs_three_axes(self):
        flat = Tensor(np.zeros((3, 4)))
        with pytest.raises(DimensionError, match=r"\(B, S, d\).*\(3, 4\)"):
            scaled_dot_attention(flat, flat, flat, 0.5, heads=2)

    def test_linear_grads_vs_finite_differences(self):
        rng = np.random.default_rng(45)
        x, w, b, r = (rng.normal(size=s) for s in [(2, 3, 4), (4, 5), (5,), (2, 3, 5)])
        args = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        (linear(*args) * Tensor(r)).sum().backward()

        def ref(xa, wa, ba):
            return float(((xa @ wa + ba) * r).sum())

        assert rel(args[0].grad, fd_grad(lambda a: ref(a, w, b), x.copy())) < 1e-6
        assert rel(args[1].grad, fd_grad(lambda a: ref(x, a, b), w.copy())) < 1e-6
        assert rel(args[2].grad, fd_grad(lambda a: ref(x, w, a), b.copy())) < 1e-6

    def test_attention_with_heads_vs_finite_differences(self):
        rng = np.random.default_rng(46)
        q, k, v = (rng.normal(size=s) for s in [(2, 3, 4), (2, 5, 4), (2, 5, 4)])
        r = rng.normal(size=(2, 3, 4))
        scale = 0.6

        def ref(qa, ka, va):
            out = np.zeros((2, 3, 4))
            for h in range(2):  # two heads of two channels each
                cols = slice(2 * h, 2 * h + 2)
                s = qa[..., cols] @ ka[..., cols].swapaxes(1, 2) * scale
                e = np.exp(s - s.max(-1, keepdims=True))
                out[..., cols] = e / e.sum(-1, keepdims=True) @ va[..., cols]
            return float((out * r).sum())

        tq, tk, tv = (Tensor(a, requires_grad=True) for a in (q, k, v))
        (scaled_dot_attention(tq, tk, tv, scale, heads=2) * Tensor(r)).sum().backward()
        assert rel(tq.grad, fd_grad(lambda a: ref(a, k, v), q.copy())) < 1e-6
        assert rel(tk.grad, fd_grad(lambda a: ref(q, a, v), k.copy())) < 1e-6
        assert rel(tv.grad, fd_grad(lambda a: ref(q, k, a), v.copy())) < 1e-6

    @pytest.mark.parametrize("axis", [None, 0, (0, 2)])
    def test_mean_vs_finite_differences(self, axis):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(3, 2, 4))
        r = rng.normal(size=np.shape(x.mean(axis=axis)))
        t = Tensor(x, requires_grad=True)
        (t.mean(axis=axis) * Tensor(r)).sum().backward()
        assert rel(t.grad, fd_grad(lambda a: float((a.mean(axis=axis) * r).sum()),
                                   x.copy())) < 1e-6

    @pytest.mark.parametrize("op", ["matmul", "linear"])
    @pytest.mark.parametrize("needs", [(True, False), (False, True), (True, True)])
    def test_backward_skips_operands_that_need_no_grad(self, op, needs):
        # the bias of `linear` needs none either, so only x and W meet the probe
        rng = np.random.default_rng(48)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=needs[0])
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=needs[1])
        out = x @ w if op == "matmul" else linear(x, w, Tensor(np.zeros(5)))
        g = rng.normal(size=out.shape)
        probe = CountingGrad(g)
        grads = out._backward(probe)
        assert probe.products == sum(needs)
        rows, g_rows = x.data.reshape(-1, 4), g.reshape(-1, 5)
        expected = ((g_rows @ w.data.T).reshape(x.shape), rows.T @ g_rows, None)
        for need, grad, expect in zip(needs + (False,), grads, expected):
            if need:
                np.testing.assert_array_equal(grad, expect)
            else:
                assert grad is None


# (x, W) products of the perfbench model shape at B=16: the attention and
# feed-forward Linears, the input and output heads, the joint branch, and
# the time collapse, whose x is a transposed view of a (B, n, 36) array.
FOLD_SHAPES = {
    "d128-d128": ((16, 34, 128), (128, 128), False),
    "ffn-in": ((16, 34, 128), (128, 256), False),
    "ffn-out": ((16, 34, 256), (256, 128), False),
    "frame-embed": ((16, 34, 36), (36, 128), False),
    "out-head": ((16, 34, 128), (128, 36), False),
    "joint-branch": ((16, 13, 32), (32, 32), False),
    "time-collapse": ((16, 36, 34), (34, 1), True),
}


def fold_operands(x_shape, w_shape, transposed, seed):
    rng = np.random.default_rng(seed)
    if transposed:
        x = rng.normal(size=x_shape[:-2] + x_shape[:-3:-1]).swapaxes(-1, -2)
    else:
        x = rng.normal(size=x_shape)
    w = rng.normal(size=w_shape)
    g = rng.normal(size=x_shape[:-1] + w_shape[1:])
    return x, w, g


def fold_and_reference(x, w, g):
    """linear's value and gradients, and per-slice matmul's, the batch summed after."""
    tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    out = linear(tx, tw)
    out.backward(g)
    gw = x.swapaxes(-1, -2) @ g
    ref = (np.matmul(x, w), np.matmul(g, w.T), gw.sum(axis=0) if gw.ndim == 3 else gw)
    return (out.data, tx.grad, tw.grad), ref


class TestLinearFold:
    """A matrix W takes one product over all leading axes of x, each way."""

    @pytest.mark.parametrize("name", sorted(FOLD_SHAPES) + ["2-D"])
    def test_one_row_block_equals_per_slice_matmul_bit_for_bit(self, name):
        if name == "2-D":  # the time MLP and classifier heads: a (B, d) input
            x, w, g = fold_operands((16, 64), (64, 8), False, 60)
        else:
            x_shape, w_shape, transposed = FOLD_SHAPES[name]
            x, w, g = fold_operands((1,) + x_shape[1:], w_shape, transposed, 61)
        got, ref = fold_and_reference(x, w, g)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", sorted(FOLD_SHAPES))
    def test_batch_is_within_last_bits_of_batched_then_summed(self, name):
        got, ref = fold_and_reference(*fold_operands(*FOLD_SHAPES[name], 62))
        for a, b in zip(got, ref):
            assert a.shape == b.shape
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_matrix_needs_two_dims(self):
        with pytest.raises(DimensionError, match=r"\(3,\)"):
            linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("op", ["add", "sub", "mul", "truediv"])
@pytest.mark.parametrize("needs", [(True, False), (False, True), (True, True)])
def test_elementwise_backward_skips_operands_that_need_no_grad(op, needs):
    rng = np.random.default_rng(49)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=needs[0])
    b = Tensor(rng.uniform(1.0, 2.0, size=(3,)), requires_grad=needs[1])
    out = getattr(a, f"__{op}__")(b)
    g = rng.normal(size=out.shape)
    grads = out._backward(g)
    x, y = a.data, b.data
    expected = {
        "add": (g, g.sum(axis=0)),
        "sub": (g, (-g).sum(axis=0)),
        "mul": (g * y, (g * x).sum(axis=0)),
        "truediv": (g / y, (-g * x / (y * y)).sum(axis=0)),
    }[op]
    for need, grad, expect in zip(needs, grads, expected):
        if need:
            np.testing.assert_array_equal(grad, expect)
        else:
            assert grad is None


def retained_backward(root):
    """The walk before backward consumed its graph: every node keeps its gradient."""
    root.grad = np.ones_like(root.data)
    for node in reversed(root._toposort()):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


class TestConsumingBackward:
    """backward frees the graph as it walks it and leaves only leaf gradients."""

    @staticmethod
    def forward(x, w, b):
        # x feeds the product and the gate, w both products: leaves used twice
        h = gelu(linear(x, w, b))
        y = softmax(h * x) - Tensor(np.full(3, 0.5))
        return (y * y).sum() + (h @ w).mean(), (h, y)

    def test_leaf_grads_equal_the_retained_walk_and_interiors_are_freed(self):
        rng = np.random.default_rng(50)
        args = leaves(rng, (4, 3), (3, 3), (3,))
        ref = twins(args)
        loss, interiors = self.forward(*args)
        loss.backward()
        ref_loss, ref_interiors = self.forward(*ref)
        retained_backward(ref_loss)
        for a, b in zip(args, ref):
            np.testing.assert_array_equal(a.grad, b.grad)
        for t in (loss, *interiors):
            assert t.grad is None and t._parents is None
        assert all(t.grad is not None for t in ref_interiors)

    def test_second_walk_through_a_consumed_node_raises(self):
        rng = np.random.default_rng(51)
        x, w, b = leaves(rng, (4, 3), (3, 3), (3,))
        loss, _ = self.forward(x, w, b)
        loss.backward()
        with pytest.raises(ValueError, match="consumed"):
            loss.backward()
        # two losses over one forward: the second walk stops before touching a leaf
        x.grad = w.grad = None
        h = x @ w
        h.sum().backward()
        first = x.grad.copy()
        with pytest.raises(ValueError, match="consumed"):
            (h * h + x).sum().backward()
        np.testing.assert_array_equal(x.grad, first)

    def test_peak_memory_stays_below_the_retained_walk(self):
        import tracemalloc

        def peak(walk):
            x = Tensor(np.random.default_rng(52).normal(size=(128, 1024)), requires_grad=True)
            y = x
            for _ in range(16):  # 1 MiB per value, per gradient
                y = (y * 0.5).tanh()
            loss = y.sum()
            del y
            tracemalloc.start()
            try:
                walk(loss)
                return tracemalloc.get_traced_memory()[1], x.grad
            finally:
                tracemalloc.stop()

        consumed, g = peak(Tensor.backward)
        retained, ref = peak(retained_backward)
        np.testing.assert_array_equal(g, ref)
        assert retained > 16 * 2**20  # one gradient per node stays alive
        assert consumed < retained / 4

    def test_seed_gradient_must_have_the_root_shape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(DimensionError, match=r"\(2, 3\)"):
            (x * 2).backward(np.ones((2, 3)))
        with pytest.raises(DimensionError, match=r"\(4,\)"):
            (x * 2).sum().backward(np.ones(4))
        (x * 2).backward(np.ones(3))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])
