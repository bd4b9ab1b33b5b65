"""Transformer building blocks on top of the autodiff engine.

Everything here works on stacked batches: sequences are (B, S, d) and
conditioning vectors are (B, 1, d_cond), so every product is formed per
item.  Blocks follow the pre-norm layout with conditional layer norm: the
norm has no learned affine of its own, and a conditioning vector supplies a
per-channel scale and shift through zero-init heads, so at initialization
every block behaves as a vanilla pre-norm block and the conditioning pathway
is exactly neutral.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, gelu, layer_norm, linear, scaled_dot_attention
from .errors import ConfigError


class Module:
    """Base of every block that owns trainable tensors.

    ``params()`` is the one place parameter names come from.  It walks the
    instance attributes in assignment order: a Tensor with requires_grad is a
    parameter named after its attribute; a child (anything with a ``params``
    method, so stand-in proxies count too) adds its attribute name as a
    prefix to its own names; the items of a list are named by their position
    alone.  Frozen tensors, arrays, configs and numbers are skipped.
    """

    def params(self) -> dict:
        out = {}
        for attr, value in vars(self).items():
            items = enumerate(value) if isinstance(value, list) else [(attr, value)]
            for name, item in items:
                if isinstance(item, Tensor):
                    if item.requires_grad:
                        out[str(name)] = item
                elif hasattr(item, "params"):
                    out.update({f"{name}.{k}": p for k, p in item.params().items()})
        return out


class Linear(Module):
    """Affine map with fan-in scaled uniform weights and zero bias."""

    def __init__(self, d_in, d_out, rng, zero_init=False):
        if zero_init:
            w = np.zeros((d_in, d_out))
        else:
            limit = 1.0 / np.sqrt(d_in)
            w = rng.uniform(-limit, limit, size=(d_in, d_out))
        self.W = Tensor(w, requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.W, self.b)


def sinusoidal_table(n_positions: int, dim: int) -> np.ndarray:
    """Fixed sin/cos position features, one row per position."""
    if dim % 2 != 0:
        raise ConfigError(f"sinusoidal encoding needs an even dim, got {dim}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    freqs = np.exp(-np.log(10000.0) * np.arange(dim // 2, dtype=np.float64) / (dim // 2))
    angles = pos * freqs[None, :]
    table = np.zeros((n_positions, dim))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


def timestep_features(t_values, dim: int) -> np.ndarray:
    """Sinusoidal features of (possibly batched) integer timesteps."""
    t = np.atleast_1d(np.asarray(t_values, dtype=np.float64))
    freqs = np.exp(-np.log(10000.0) * np.arange(dim // 2, dtype=np.float64) / (dim // 2))
    angles = t[:, None] * freqs[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


class ScaleShift(Module):
    """Direct feature modulation x * gamma(e) + beta(e), no norm; identity at init."""

    def __init__(self, d, d_cond, rng):
        self.scale = Linear(d_cond, d, rng, zero_init=True)
        self.shift = Linear(d_cond, d, rng, zero_init=True)

    def affine(self, cond: Tensor):
        """(gamma, beta), each (B, 1, d), from a (B, 1, d_cond) conditioning vector."""
        return self.scale(cond) + 1.0, self.shift(cond)

    def __call__(self, x: Tensor, cond: Tensor) -> Tensor:
        gamma, beta = self.affine(cond)
        return x * gamma + beta


class ConditionalNorm(ScaleShift):
    """Layer norm whose scale/shift come from a conditioning vector.

    Zero-init heads make the modulation identity (scale 1, shift 0) at
    initialization; with no conditioning vector this is a plain norm.
    """

    def __call__(self, x: Tensor, cond) -> Tensor:
        gain, bias = (1.0, 0.0) if cond is None else self.affine(cond)
        return layer_norm(x, gain, bias)


class Attention(Module):
    """Multi-head attention: queries from x, keys and values from ctx."""

    def __init__(self, d, d_ctx, heads, rng):
        if d % heads != 0:
            raise ConfigError(f"model dim {d} not divisible by {heads} heads")
        self.d, self.heads = d, heads
        self.q = Linear(d, d, rng)
        self.k = Linear(d_ctx, d, rng)
        self.v = Linear(d_ctx, d, rng)
        self.out = Linear(d, d, rng)

    def _attend(self, x: Tensor, ctx: Tensor) -> Tensor:
        scale = 1.0 / np.sqrt(self.d // self.heads)
        y = scaled_dot_attention(self.q(x), self.k(ctx), self.v(ctx), scale, heads=self.heads)
        return self.out(y)


class MultiHeadSelfAttention(Attention):
    def __init__(self, d, heads, rng):
        super().__init__(d, d, heads, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self._attend(x, x)


class CrossAttention(Attention):
    """Queries from the feature stream, keys/values from a context stream.

    The output projection is added back to the input (residual), so zero
    value weights leave the input untouched.
    """

    def __call__(self, x: Tensor, ctx: Tensor) -> Tensor:
        return x + self._attend(x, ctx)


class FeedForward(Module):
    def __init__(self, d, rng, mult=4):
        self.up = Linear(d, mult * d, rng)
        self.down = Linear(mult * d, d, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(gelu(self.up(x)))


class TransformerBlock(Module):
    """Pre-norm self-attention + feed-forward with conditional norms."""

    def __init__(self, d, heads, d_cond, rng, ffn_mult=4):
        self.norm1 = ConditionalNorm(d, d_cond, rng)
        self.attn = MultiHeadSelfAttention(d, heads, rng)
        self.norm2 = ConditionalNorm(d, d_cond, rng)
        self.ffn = FeedForward(d, rng, mult=ffn_mult)

    def __call__(self, x: Tensor, cond) -> Tensor:
        x = x + self.attn(self.norm1(x, cond))
        return x + self.ffn(self.norm2(x, cond))


class TransformerStack(Module):
    def __init__(self, depth, d, heads, d_cond, rng, ffn_mult=4):
        if depth < 1:
            raise ConfigError(f"transformer stack needs depth >= 1, got {depth}")
        self.blocks = [
            TransformerBlock(d, heads, d_cond, rng, ffn_mult=ffn_mult)
            for _ in range(depth)
        ]

    def __call__(self, x: Tensor, cond) -> Tensor:
        for block in self.blocks:
            x = block(x, cond)
        return x
