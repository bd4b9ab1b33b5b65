"""Adam-style optimizer with bias correction."""

import numpy as np

from .autodiff import Tensor
from .errors import TrainingError


class Adam:
    """Moment-accumulating gradient descent over a named parameter dict."""

    def __init__(self, params, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def state_dict(self):
        """Flat arrays: ``t`` as a one-element array, ``m.<param>``, ``v.<param>``."""
        state = {"t": np.array([float(self.t)])}
        for part in ("m", "v"):
            state.update({f"{part}.{k}": a.copy() for k, a in getattr(self, part).items()})
        return state

    def load_state_dict(self, state):
        """Restore from ``state_dict`` arrays; a missing or malformed one is a TrainingError."""
        t = np.asarray(state.get("t", np.empty(0)))
        if t.shape != (1,) or not (t[0] >= 0 and float(t[0]).is_integer()):
            raise TrainingError("optimizer state lacks a valid step count t; cannot resume")
        for part in ("m", "v"):
            moments = getattr(self, part)
            for k, old in moments.items():
                new = state.get(f"{part}.{k}")
                if new is None or np.size(new) != old.size:
                    raise TrainingError(
                        f"optimizer state {part}.{k} is missing or not of shape "
                        f"{old.shape}; cannot resume"
                    )
                moments[k] = np.asarray(new, dtype=np.float64).reshape(old.shape)
        self.t = int(t[0])
