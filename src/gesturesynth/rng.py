"""Deterministic random streams.

Every stochastic component draws from a counter-based Philox generator keyed
by the master seed plus a tuple of string labels, so any part of a run can be
replayed in isolation (e.g. training step k, or sampling chain r) without
consuming state from a shared stream.
"""

import zlib

import numpy as np

from .errors import ConfigError


def _label_key(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


def stream(master_seed: int, *labels) -> np.random.Generator:
    """Return an independent generator keyed by (master_seed, *labels).

    Every seed of the package passes through here, so a negative one (which
    SeedSequence cannot take) is rejected here as a ConfigError.
    """
    seed = int(master_seed)
    if seed < 0:
        raise ConfigError(f"seeds must be integers >= 0, got {seed}")
    entropy = (seed,) + tuple(_label_key(l) for l in labels)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
