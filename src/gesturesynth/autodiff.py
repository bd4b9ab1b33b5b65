"""Dense float64 tensors with reverse-mode automatic differentiation.

Every model layer, loss, and sampler in this package is built on the ops
here, so each analytic gradient can be cross-checked against central finite
differences (see gradcheck). Ops record their operands and a backward rule
on the output tensor; ``Tensor.backward`` walks that implicit graph once in
reverse topological order and consumes it: each intermediate buffer is freed
once its last reader has run, only leaves keep ``.grad``, and a second walk
through a consumed node raises ValueError. The data buffer of a tensor is
treated as immutable once an op has consumed it.

``linear`` (``x @ W + b``), ``scaled_dot_attention`` (with ``heads``, also
the head split and merge) and ``Tensor.mean`` are one node each. Attention
and ``mean`` keep the values and gradients of their composites bit for bit.
``linear`` forms its forward per item: a stacked ``x`` takes the product
each item takes alone, so a batch is a stack of independent items and its
values equal B=1 calls bit for bit. Its backward with a matrix ``W`` folds
all leading axes of ``x`` into one product per direction: bit for bit with
per-slice matmul for a 2-D ``x`` or a batch of one, within the last bits of
it for a larger batch. ``@`` is ``linear`` without a bias, whose backward
returns None, and forms no product, for an operand that needs no gradient;
so do ``+``, ``-``, ``*`` and ``/``. The OpenBLAS thread-count getter and
setter that ``metrics`` and ``pipeline`` share live here too.
"""

import ctypes
import functools
from contextlib import contextmanager

import numpy as np

from .errors import DimensionError

__all__ = [
    "Tensor",
    "as_tensor",
    "concat",
    "linear",
    "softmax",
    "layer_norm",
    "scaled_dot_attention",
    "gelu",
    "take_rows",
    "no_grad",
    "blas_thread_getter",
    "blas_thread_setter",
    "one_blas_thread",
]

_recording = True


@contextmanager
def no_grad():
    """Record no backward graph inside the block; the values are unchanged.

    Inference needs only the forward values, and skipping the graph spares
    each op its parent links and keeps no intermediates alive.
    """
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


@functools.cache
def _blas_threads(action):
    """OpenBLAS's ``get``/``set`` thread-count function for the library numpy loaded.

    None without one.  Looked up once per process, through /proc/self/maps.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            fn = getattr(lib, f"{prefix}{action}_num_threads{suffix}", None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int] if action == "set" else []
                fn.restype = None if action == "set" else ctypes.c_int
                return fn
    return None


def blas_thread_getter():
    """The thread-count getter of the OpenBLAS library numpy loaded, or None."""
    return _blas_threads("get")


def blas_thread_setter():
    """The thread-count setter of the OpenBLAS library numpy loaded, or None."""
    return _blas_threads("set")


@contextmanager
def one_blas_thread():
    """Run the block at one OpenBLAS thread; the caller's count comes back after it.

    A product with hundreds of rows splits its sums over BLAS threads, so its
    last bits depend on the thread count; at one thread they are the same on
    any number of cores.  Without an OpenBLAS getter and setter it does nothing.
    """
    get, set_threads = blas_thread_getter(), blas_thread_setter()
    if get is None or set_threads is None:
        yield
        return
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.name = name
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    # -- graph walk ---------------------------------------------------------

    def _toposort(self):
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node._parents is None:  # the mark backward() leaves on what it consumed
                raise ValueError("backward() reached a graph an earlier backward() consumed")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad:
                    stack.append((p, False))
        return order

    def backward(self, grad=None):
        """Accumulate dL/dp into the leaves' `.grad`, consuming the graph as it goes.

        Each interior node's gradient, rule and parent links are dropped once
        used. `grad` (ones by default) must have this tensor's shape.
        """
        if not self.requires_grad:
            raise ValueError("backward() called on a tensor that does not require grad")
        grad = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            raise DimensionError(f"seed gradient {grad.shape} for a root of shape {self.shape}")
        order = self._toposort()
        self.grad = grad
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            g, back, parents = node.grad, node._backward, node._parents
            node.grad, node._backward, node._parents = None, None, None
            if g is None:
                continue
            for parent, pg in zip(parents, back(g)):
                if pg is None or not parent.requires_grad:
                    continue
                parent.grad = pg if parent.grad is None else parent.grad + pg

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)

        def back(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.shape) if other.requires_grad else None)

        return _node(self.data + other.data, (self, other), back)

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = as_tensor(other)

        def back(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad else None,
                    _unbroadcast(-g, other.shape) if other.requires_grad else None)

        return _node(self.data - other.data, (self, other), back)

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def back(g):
            return (_unbroadcast(g * b, self.shape) if self.requires_grad else None,
                    _unbroadcast(g * a, other.shape) if other.requires_grad else None)

        return _node(a * b, (self, other), back)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def back(g):
            return (_unbroadcast(g / b, self.shape) if self.requires_grad else None,
                    _unbroadcast(-g * a / (b * b), other.shape) if other.requires_grad else None)

        return _node(a / b, (self, other), back)

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data

        def back(g):
            return (g * exponent * a ** (exponent - 1),)

        return _node(a**exponent, (self,), back)

    def __matmul__(self, other):
        return linear(self, other)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        return _node(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(old),)
        )

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return _node(
            self.data.transpose(axes), (self,),
            lambda g: (g.transpose(tuple(np.argsort(axes))),),
        )

    def __getitem__(self, key):
        out = self.data[key]
        shape = self.shape
        parts = key if isinstance(key, tuple) else (key,)
        advanced = any(isinstance(k, (np.ndarray, list)) for k in parts)

        def back(g):
            full = np.zeros(shape, dtype=np.float64)
            if advanced:
                np.add.at(full, key, g)  # repeated indices each add their share
            else:
                full[key] = g
            return (full,)

        return _node(out, (self,), back)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        return self._sum(axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        """One node computing ``sum * (1/n)``, as a sum and a multiply op would."""
        return self._sum(axis, keepdims, mean=True)

    def _sum(self, axis, keepdims, mean=False):
        shape = self.shape
        out = self.data.sum(axis=axis, keepdims=keepdims)
        scale = 1.0 / (self.size // np.size(out)) if mean else None

        def back(g):
            if scale is not None:
                g = g * scale
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return _node(out if scale is None else out * scale, (self,), back)

    # -- pointwise nonlinearities -------------------------------------------

    def exp(self):
        out = np.exp(self.data)
        return _node(out, (self,), lambda g: (g * out,))

    def log(self):
        a = self.data
        return _node(np.log(a), (self,), lambda g: (g / a,))

    def sqrt(self):
        out = np.sqrt(self.data)
        return _node(out, (self,), lambda g: (g * 0.5 / out,))

    def tanh(self):
        out = np.tanh(self.data)
        return _node(out, (self,), lambda g: (g * (1.0 - out * out),))


def _node(data, parents, back):
    out = Tensor(data)
    if _recording and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = back
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def linear(x, W, b=None) -> Tensor:
    """x @ W + b as one node, or x @ W without `b`; the arithmetic of matmul then add.

    The forward is matmul's: one product for a 2-D `x`, and one per item
    for a stack, the same BLAS call that item makes alone, so no item's
    value depends on its batch-mates. For a matrix `W` the backward folds
    every leading axis of `x` into rows, so the input gradient and the
    weight gradient are one product each; with one row block (a 2-D `x`,
    or B=1) that is the per-slice product, bit for bit, and with more the
    batch sum of the weight gradient happens inside the product and rounds
    differently in the last bits. A `W` of three or more dims (no model
    layer has one) is a stack of matrices broadcast against `x`.
    """
    x, W = as_tensor(x), as_tensor(W)
    a, w = x.data, W.data
    if a.ndim < 2 or w.ndim < 2:
        raise DimensionError(f"matmul needs matrices, got {a.shape} @ {w.shape}")
    if a.shape[-1] != w.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {w.shape}")
    b = None if b is None else as_tensor(b)
    out = a @ w
    if w.ndim == 2:
        def products(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ w.T).reshape(x.shape) if x.requires_grad else None,
                    a.reshape(-1, a.shape[-1]).T @ g2 if W.requires_grad else None)
    else:
        def products(g):
            return (
                _unbroadcast(g @ w.swapaxes(-1, -2), x.shape) if x.requires_grad else None,
                _unbroadcast(a.swapaxes(-1, -2) @ g, W.shape) if W.requires_grad else None,
            )

    def back(g):  # without a bias, the third slot has no parent and is ignored
        return (*products(g),
                _unbroadcast(g, b.shape) if b is not None and b.requires_grad else None)

    if b is None:
        return _node(out, (x, W), back)
    return _node(out + b.data, (x, W, b), back)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(
        np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back
    )


def _softmax(a):
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad(g, y):
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(x) -> Tensor:
    """Softmax over the last axis, stabilised by max subtraction."""
    x = as_tensor(x)
    y = _softmax(x.data)
    return _node(y, (x,), lambda g: (_softmax_grad(g, y),))


def layer_norm(x, gain, bias, eps=1e-8) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then apply affine.

    The epsilon keeps a zero-variance row finite (it maps to `bias`). One
    node with an analytic backward; the forward rounds as the composite
    mean / centre / variance / sqrt / divide ops would.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    inv_n = 1.0 / x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * inv_n + eps)
    xhat = centered / std

    def back(g):
        gy = g * gain.data
        mean_gy = gy.sum(axis=-1, keepdims=True) * inv_n
        mean_gyx = (gy * xhat).sum(axis=-1, keepdims=True) * inv_n
        return (
            (gy - mean_gy - xhat * mean_gyx) / std,
            _unbroadcast(g * xhat, gain.shape),
            _unbroadcast(g, bias.shape),
        )

    return _node(xhat * gain.data + bias.data, (x, gain, bias), back)


def scaled_dot_attention(q, k, v, scale, heads=None) -> Tensor:
    """softmax(q @ k^T * scale) @ v over the last two axes, as one node.

    With `heads`, q, k and v are (B, S, d): the node splits d into `heads`
    heads, attends within each and merges the heads back to (B, S, d). The
    arithmetic is that of split, matmul, scale, softmax, matmul and merge
    ops in turn, so values and gradients equal theirs bit for bit.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.shape[-1] != k.shape[-1]:
        raise DimensionError(f"query/key dims differ: {q.shape} vs {k.shape}")
    if k.shape[-2] != v.shape[-2]:
        raise DimensionError(f"key/value token counts differ: {k.shape} vs {v.shape}")
    if heads is None:
        split = merge = lambda a: a
    elif q.ndim != 3 or k.ndim != 3:
        raise DimensionError(f"multi-head attention needs (B, S, d) inputs, "
                             f"got {q.shape} and {k.shape}")
    else:
        def split(a):  # (B, S, d) -> (B, heads, S, d/heads), a view
            return a.reshape(-1, a.shape[1], heads, a.shape[2] // heads).transpose(0, 2, 1, 3)

        def merge(a):  # (B, heads, S, dh) -> (B, S, heads*dh)
            return a.transpose(0, 2, 1, 3).reshape(-1, a.shape[2], a.shape[1] * a.shape[3])
    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = _softmax((qh @ kh.swapaxes(-1, -2)) * scale)

    def back(g):
        gy = split(g)
        gs = _softmax_grad(gy @ vh.swapaxes(-1, -2), p) * scale
        gk = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return (_unbroadcast(merge(gs @ kh), q.shape), _unbroadcast(merge(gk), k.shape),
                _unbroadcast(merge(p.swapaxes(-1, -2) @ gy), v.shape))

    return _node(merge(p @ vh), (q, k, v), back)


def gelu(x) -> Tensor:
    """Smooth gated activation (tanh formulation)."""
    x = as_tensor(x)
    a = x.data
    c = np.sqrt(2.0 / np.pi)
    u = c * (a + 0.044715 * (a * a * a))
    t = np.tanh(u)
    out = 0.5 * a * (1.0 + t)

    def back(g):
        du = c * (1.0 + 3 * 0.044715 * a * a)
        return (g * (0.5 * (1.0 + t) + 0.5 * a * (1.0 - t * t) * du),)

    return _node(out, (x,), back)


def take_rows(table, indices) -> Tensor:
    """Row lookup into an embedding table; gradients scatter-add back."""
    return as_tensor(table)[np.asarray(indices, dtype=np.intp)]
