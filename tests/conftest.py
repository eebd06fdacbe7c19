"""Shared fixtures: a scaled-down cohort and sample sets.

Most tests run against a 30-patient cohort (the full 261-patient default
is exercised by the benchmarks and one smoke test) so the whole suite
stays fast while covering every code path.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

# CI runs every property test on a pinned, derandomized example stream
# (HYPOTHESIS_PROFILE=ci), so a red build replays on any machine; local
# runs keep Hypothesis' default random exploration.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from repro.cohort import ClinicConfig, CohortConfig, generate_cohort
from repro.pipeline import build_dd_samples, build_kd_samples


def small_config(seed: int = 11) -> CohortConfig:
    """A 30-patient, 3-clinic configuration mirroring the real shape."""
    return CohortConfig(
        seed=seed,
        clinics=(
            ClinicConfig("modena", 14, health_mean=0.62, health_spread=0.15,
                         protocol_noise=0.0, missing_rate=0.50),
            ClinicConfig("sydney", 10, health_mean=0.65, health_spread=0.13,
                         protocol_noise=0.05, missing_rate=0.48),
            ClinicConfig("hong_kong", 6, health_mean=0.60, health_spread=0.07,
                         protocol_noise=0.18, missing_rate=0.56),
        ),
    )


@pytest.fixture(scope="session")
def small_cohort():
    """A deterministic 30-patient cohort shared across the suite."""
    return generate_cohort(small_config())


@pytest.fixture(scope="session")
def qol_dd_samples(small_cohort):
    """DD sample set (QoL, with FI) on the small cohort."""
    return build_dd_samples(small_cohort, "qol", with_fi=True)


@pytest.fixture(scope="session")
def qol_kd_samples(qol_dd_samples):
    """KD counterpart of :func:`qol_dd_samples`."""
    return build_kd_samples(qol_dd_samples)


@pytest.fixture(scope="session")
def falls_dd_samples(small_cohort):
    """DD sample set (Falls, with FI) on the small cohort."""
    return build_dd_samples(small_cohort, "falls", with_fi=True)


@pytest.fixture()
def rng():
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
