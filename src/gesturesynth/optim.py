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
        self._scratch = {k: np.empty_like(p.data) for k, p in self.params.items()}

    def step(self):
        """One update; every gradient is checked finite before any state changes."""
        grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                 for p in self.params.values()]
        for name, g in zip(self.params, grads):
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for (name, p), g in zip(self.params.items(), grads):
            # b1*m + (1-b1)*g, b2*v + (1-b2)*g*g, p - lr*m_hat/(sqrt(v_hat)+eps), in place
            m, v, s = self.m[name], self.v[name], self._scratch[name]
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            v += np.multiply(np.multiply(1 - b2, g, out=s), g, out=s)
            step = np.sqrt(np.divide(v, c2, out=s))  # the one fresh array: the new p.data
            step += self.eps
            np.divide(np.multiply(np.divide(m, c1, out=s), self.lr, out=s), step, out=s)
            p.data = np.subtract(p.data, s, out=step)

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
        """Copy in ``state_dict`` arrays; a missing or malformed one is a TrainingError.

        Every entry is checked before any state changes.
        """
        t = np.asarray(state.get("t", np.empty(0)))
        if t.shape != (1,) or not (t[0] >= 0 and float(t[0]).is_integer()):
            raise TrainingError("optimizer state lacks a valid step count t; cannot resume")
        for part in ("m", "v"):
            for k, old in getattr(self, part).items():
                new = state.get(f"{part}.{k}")
                if new is None or np.shape(new) != old.shape:
                    raise TrainingError(
                        f"optimizer state {part}.{k} is missing or not of shape "
                        f"{old.shape}; cannot resume"
                    )
        for part in ("m", "v"):
            moments = getattr(self, part)
            for k in moments:
                moments[k] = np.array(state[f"{part}.{k}"], dtype=np.float64)
        self.t = int(t[0])
