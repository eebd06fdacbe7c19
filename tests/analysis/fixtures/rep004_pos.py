"""REP004 positive: float32 (or unprovable) buffers feeding sums."""

# repro: scope[float64-sums]

import numpy as np


def narrow_sum(n):
    buf = np.ones(n, dtype=np.float32)
    return float(buf.sum())


def cast_then_cumsum(values):
    narrow = values.astype(np.float32)
    return np.cumsum(narrow)


def runtime_dtype(n, dt):
    buf = np.zeros(n, dtype=dt)  # not provably float64
    return buf.sum()


def narrow_accumulator(hist, dt):
    return np.cumsum(hist, axis=-1, dtype=dt)  # the sum itself narrows
