"""Seeded stochastic building blocks for the synthetic cohort.

The MySAwH dataset cannot be redistributed, so the reproduction generates a
synthetic cohort with the same schema and statistical character (see
DESIGN.md section 5).  This package holds the reusable random-process
primitives that the generator composes:

``SeedSequenceFactory``
    Deterministic hierarchical seeding so that every patient / stream gets
    an independent, reproducible RNG.
``ar1_process``
    Mean-reverting AR(1) paths used for latent intrinsic-health states.
``OrdinalLink`` / ``OrdinalBank``
    Monotone mapping from a continuous latent score to ordinal categories,
    used for PRO questionnaire answers; a bank stacks many links so one
    draw answers them all.
``weekly_profile``
    Day-of-week seasonality for wearable traces.
``burst_gap_mask`` / ``burst_gap_masks`` / ``burst_chains``
    Bursty missing-data process calibrated to the paper's gap statistics,
    for one series or many at once (``burst_chains`` steps chains from
    uniforms already drawn).
"""

from repro.synth.gaps import (
    burst_chains,
    burst_gap_mask,
    burst_gap_masks,
    gap_lengths,
)
from repro.synth.ordinal import OrdinalBank, OrdinalLink
from repro.synth.processes import ar1_process, clipped_noise, weekly_profile
from repro.synth.seeding import SeedSequenceFactory

__all__ = [
    "SeedSequenceFactory",
    "ar1_process",
    "clipped_noise",
    "weekly_profile",
    "OrdinalLink",
    "OrdinalBank",
    "burst_gap_mask",
    "burst_gap_masks",
    "burst_chains",
    "gap_lengths",
]
