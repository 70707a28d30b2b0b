"""The numpy helpers that the classical models (:mod:`lexisent.ml`) and the
contextual model and its attributions share, so that neither loads the other."""

import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...); deterministic per key."""
    key = [seed & 0xFFFFFFFFFFFFFFFF] + [s & 0xFFFFFFFFFFFFFFFF for s in stream]
    return np.random.default_rng(np.random.SeedSequence(key))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, with each row's maximum subtracted first."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
