"""Bursty missing-data processes.

Section 3 of the paper reports gap statistics for the PRO time series:
missing observations arrive in *bursts* (mean burst length ~5 consecutive
missing points, max 17; ~108 gaps per patient on average across all
series, max 284).  A two-state (observed / missing) Markov chain produces
exactly this burst structure; the transition probabilities are derived
from the target mean gap length and overall missing rate.

:func:`burst_gap_masks` runs many independent chains with shared
parameters at once: one ``rng.random((n_series, n_steps + 1))`` draw (per
series, the initial-state uniform followed by one uniform per step),
then :func:`burst_chains` steps every series together, one time step per
loop iteration.  Row ``i`` consumes the generator exactly as the ``i``-th
of ``n_series`` successive :func:`burst_gap_mask` calls would, so the
masks are bit-identical; :func:`burst_gap_mask` is the one-series case.
:func:`burst_chains` also takes per-series parameters, so a caller can
gather the uniforms of many generators and step them in one pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["burst_chains", "burst_gap_mask", "burst_gap_masks", "gap_lengths"]


def burst_gap_mask(
    rng: np.random.Generator,
    n_steps: int,
    missing_rate: float,
    mean_gap_length: float,
    max_gap_length: int | None = None,
) -> np.ndarray:
    """Return a boolean mask (True = missing) from a two-state Markov chain.

    Parameters
    ----------
    rng:
        Source of randomness.
    n_steps:
        Length of the series.
    missing_rate:
        Target stationary fraction of missing entries, in [0, 1).
    mean_gap_length:
        Target expected length of a missing burst (>= 1).
    max_gap_length:
        Optional hard cap; bursts are truncated at this length
        (re-entering the observed state), mirroring the paper's max
        observed gap of 17.

    Notes
    -----
    With ``p_enter`` = P(observed -> missing) and ``p_exit`` =
    P(missing -> observed): the mean burst length is ``1 / p_exit`` and
    the stationary missing probability is
    ``p_enter / (p_enter + p_exit)``; both targets pin down the chain.
    """
    return burst_gap_masks(
        rng, 1, n_steps, missing_rate, mean_gap_length, max_gap_length
    )[0]


def burst_gap_masks(
    rng: np.random.Generator,
    n_series: int,
    n_steps: int,
    missing_rate: float,
    mean_gap_length: float,
    max_gap_length: int | None = None,
) -> np.ndarray:
    """``bool[n_series, n_steps]`` masks of independent burst chains.

    Parameters are those of :func:`burst_gap_mask`, shared by every
    series.  A zero ``missing_rate``, zero steps or zero series draws
    nothing from ``rng``.
    """
    if n_steps < 0 or n_series < 0:
        raise ValueError("n_steps and n_series must be non-negative")
    _check_chain_parameters(missing_rate, mean_gap_length, max_gap_length)
    if missing_rate == 0.0 or n_steps == 0 or n_series == 0:
        return np.zeros((n_series, n_steps), dtype=bool)
    draws = rng.random((n_series, n_steps + 1))
    return burst_chains(draws, missing_rate, mean_gap_length, max_gap_length)


def burst_chains(
    draws: np.ndarray,
    missing_rate,
    mean_gap_length,
    max_gap_length: int | None = None,
) -> np.ndarray:
    """Step burst chains from their uniforms: ``bool[n_series, n_steps]``.

    ``draws`` is ``float64[n_series, n_steps + 1]``: per series, the
    uniform that picks the initial state, then one uniform per step.
    ``missing_rate`` and ``mean_gap_length`` are scalars or one value
    per series, so chains with different parameters (and whose uniforms
    came from different generators) step together.  A series with a zero
    rate never goes missing, whatever its uniforms.
    """
    draws = np.asarray(draws, dtype=np.float64)
    if draws.ndim != 2 or draws.shape[1] < 1:
        raise ValueError("draws must have shape (n_series, n_steps + 1)")
    n_series, n_steps = draws.shape[0], draws.shape[1] - 1
    rate = np.broadcast_to(np.asarray(missing_rate, dtype=np.float64), (n_series,))
    mean_len = np.broadcast_to(
        np.asarray(mean_gap_length, dtype=np.float64), (n_series,)
    )
    _check_chain_parameters(rate, mean_len, max_gap_length)
    p_exit = 1.0 / mean_len
    p_enter = np.minimum(rate * p_exit / (1.0 - rate), 1.0)

    steps = draws.T
    mask = np.empty((n_steps, n_series), dtype=bool)
    missing = steps[0] < rate
    run = np.zeros(n_series, dtype=np.int64)
    for t in range(n_steps):
        if max_gap_length is not None:
            # Forced recovery step: hard cap on run length.
            missing &= run < max_gap_length
            run += 1
            run *= missing
        mask[t] = missing
        # A series switches state when its uniform falls below the
        # exit (missing) or entry (observed) probability.
        missing ^= steps[t + 1] < np.where(missing, p_exit, p_enter)
    return np.ascontiguousarray(mask.T)


def _check_chain_parameters(missing_rate, mean_gap_length, max_gap_length) -> None:
    rate = np.asarray(missing_rate)
    if not np.all((rate >= 0.0) & (rate < 1.0)):
        raise ValueError("missing_rate must be in [0, 1)")
    if not np.all(np.asarray(mean_gap_length) >= 1.0):
        raise ValueError("mean_gap_length must be >= 1")
    if max_gap_length is not None and max_gap_length < 1:
        raise ValueError("max_gap_length must be >= 1")


def gap_lengths(mask: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of True in a boolean mask.

    >>> gap_lengths(np.array([0, 1, 1, 0, 1], dtype=bool)).tolist()
    [2, 1]
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return np.array([], dtype=np.int64)
    padded = np.concatenate([[False], mask, [False]])
    changes = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(changes == 1)
    ends = np.flatnonzero(changes == -1)
    return (ends - starts).astype(np.int64)
