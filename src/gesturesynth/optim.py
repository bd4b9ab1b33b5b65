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
        return {
            "t": self.t,
            "m": {k: v.copy() for k, v in self.m.items()},
            "v": {k: v.copy() for k, v in self.v.items()},
        }

    def load_state_dict(self, state):
        """Restore t, m and v; a missing or mis-sized moment is a TrainingError."""
        self.t = int(state["t"])
        for part, moments in (("m", self.m), ("v", self.v)):
            for k, old in moments.items():
                new = state[part].get(k)
                if new is None or np.size(new) != old.size:
                    raise TrainingError(
                        f"optimizer state {part}.{k} is missing or not of shape "
                        f"{old.shape}; cannot resume"
                    )
                moments[k] = np.asarray(new, dtype=np.float64).reshape(old.shape)
