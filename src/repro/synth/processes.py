"""Continuous stochastic processes used by the cohort generator."""

from __future__ import annotations

import numpy as np

__all__ = ["ar1_process", "clipped_noise", "weekly_profile"]


def ar1_process(
    rng: np.random.Generator,
    n_steps: int,
    mean: float,
    phi: float,
    sigma: float,
    start: float | None = None,
    drift: float = 0.0,
) -> np.ndarray:
    """Simulate a mean-reverting AR(1) path with optional linear drift.

    The recursion is::

        x[t] = mean_t + phi * (x[t-1] - mean_{t-1}) + sigma * eps[t]
        mean_t = mean + drift * t

    so the process reverts towards a (possibly drifting) mean.  Used for
    latent intrinsic-health trajectories: ``phi`` close to 1 gives slow
    health evolution, negative ``drift`` models ageing decline.

    Parameters
    ----------
    rng:
        Source of randomness.
    n_steps:
        Number of samples to produce (must be >= 1).
    mean:
        Long-run level at t = 0.
    phi:
        Autoregressive coefficient; require ``0 <= phi < 1`` for mean
        reversion.
    sigma:
        Innovation standard deviation (>= 0).
    start:
        Initial value; defaults to a draw from the stationary
        distribution around ``mean``.
    drift:
        Per-step change of the long-run mean.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must be in [0, 1) for a mean-reverting AR(1)")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    means = (mean + drift * np.arange(n_steps)).tolist()
    if start is None:
        stationary_sd = sigma / np.sqrt(1.0 - phi**2) if sigma > 0 else 0.0
        start = float(rng.normal(mean, stationary_sd))
    # One draw of all innovations: the same standard normals, in the same
    # order, as one scalar draw per step.  The recursion itself stays a
    # scalar loop so every step rounds exactly as it always has.
    eps = rng.standard_normal(n_steps).tolist()
    x = [means[0] + phi * (start - mean) + sigma * eps[0]]
    for t in range(1, n_steps):
        x.append(means[t] + phi * (x[t - 1] - means[t - 1]) + sigma * eps[t])
    return np.array(x, dtype=np.float64)


def clipped_noise(
    rng: np.random.Generator,
    size: int,
    sigma: float,
    heavy_tail: float = 0.0,
    clip: float = 4.0,
) -> np.ndarray:
    """Zero-mean noise with an optional heavy-tail mixture component.

    With probability ``heavy_tail`` a sample comes from a 4x wider
    Gaussian (bad sensor days, outlier questionnaire entries); everything
    is clipped to ``clip`` standard deviations so one draw cannot wreck a
    monthly aggregate.
    """
    if not 0.0 <= heavy_tail <= 1.0:
        raise ValueError("heavy_tail must be a probability")
    base = rng.standard_normal(size)
    if heavy_tail > 0:
        widen = rng.random(size) < heavy_tail
        base = np.where(widen, base * 4.0, base)
    return np.clip(base, -clip, clip) * sigma


def weekly_profile(
    rng: np.random.Generator,
    weekend_dip: float = 0.15,
    jitter: float = 0.05,
) -> np.ndarray:
    """A length-7 multiplicative day-of-week activity profile.

    Weekdays hover around 1.0; Saturday/Sunday are reduced by
    ``weekend_dip`` on average.  ``jitter`` adds person-level variation.
    The profile is normalised to mean 1 so it does not bias monthly means.
    """
    profile = np.ones(7)
    profile[5] -= weekend_dip
    profile[6] -= weekend_dip
    profile = profile + rng.normal(0.0, jitter, size=7)
    profile = np.clip(profile, 0.1, None)
    return profile / profile.mean()
