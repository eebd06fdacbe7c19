"""Configuration of the synthetic cohort generator.

Both configs validate every numeric field on construction, so a garbage
value (NaN, an infinity, a float where a count belongs, a value outside
the documented range) fails with a ``ValueError`` naming the field — also
when the config comes from a ``config.json`` that :func:`json.loads`
happily parses ``NaN`` out of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

__all__ = ["ClinicConfig", "CohortConfig"]


def _check_count(name: str, value, minimum: int | None = None) -> None:
    """``value`` must be an integer (not a bool), ``>= minimum`` if given."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def _check_real(
    name: str,
    value,
    low: float = -math.inf,
    high: float = math.inf,
    *,
    low_open: bool = False,
    high_open: bool = False,
) -> None:
    """``value`` must be a finite real inside ``[low, high]``.

    ``low_open`` / ``high_open`` exclude the corresponding bound.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    above = value > low if low_open else value >= low
    below = value < high if high_open else value <= high
    if not (above and below):
        lo = "(" if low_open else "["
        hi = ")" if high_open else "]"
        raise ValueError(f"{name} must be in {lo}{low}, {high}{hi}, got {value!r}")


@dataclass(frozen=True)
class ClinicConfig:
    """Per-clinic generation parameters.

    The paper's three clinics differ in size (Modena 128, Sydney 100,
    Hong Kong 33) and, per section 5.1, in homogeneity: the Hong Kong
    sub-cohort is smaller and "more homogeneous" yet shows more model
    outliers.  ``health_spread`` controls the between-patient variance of
    the latent baseline; ``protocol_noise`` models differences in data
    collection protocols between clinics (extra observation noise).

    Attributes
    ----------
    name:
        Clinic identifier used in the tables.
    n_patients:
        Cohort size for the clinic (integer >= 1).
    health_mean:
        Mean latent intrinsic-health baseline, in (0, 1).
    health_spread:
        SD of the patient baseline around ``health_mean`` (finite, >= 0).
    protocol_noise:
        Extra multiplicative observation noise for app/wearable streams
        (finite, >= 0).
    missing_rate:
        Stationary missing fraction for PRO series at this clinic, in
        [0, 1).
    """

    name: str
    n_patients: int
    health_mean: float = 0.62
    health_spread: float = 0.14
    protocol_noise: float = 0.0
    missing_rate: float = 0.30

    def __post_init__(self):
        _check_count("n_patients", self.n_patients, 1)
        _check_real(
            "health_mean", self.health_mean, 0.0, 1.0, low_open=True, high_open=True
        )
        _check_real("health_spread", self.health_spread, 0.0)
        _check_real("protocol_noise", self.protocol_noise, 0.0)
        _check_real("missing_rate", self.missing_rate, 0.0, 1.0, high_open=True)


def _default_clinics() -> tuple[ClinicConfig, ...]:
    """The paper's three clinics with calibrated generation parameters."""
    return (
        ClinicConfig(
            "modena",
            128,
            health_mean=0.62,
            health_spread=0.15,
            protocol_noise=0.00,
            missing_rate=0.50,
        ),
        ClinicConfig(
            "sydney",
            100,
            health_mean=0.65,
            health_spread=0.13,
            protocol_noise=0.05,
            missing_rate=0.48,
        ),
        # Hong Kong: small, homogeneous baseline, noisier collection
        # protocol -> the per-clinic anomalies of Table 1 / Fig. 5.
        ClinicConfig(
            "hong_kong",
            33,
            health_mean=0.60,
            health_spread=0.07,
            protocol_noise=0.18,
            missing_rate=0.56,
        ),
    )


@dataclass(frozen=True)
class CohortConfig:
    """Full configuration of the synthetic cohort.

    The defaults reproduce the paper's study design: 18 months of
    observation, visits at months 0/9/18, two 9-month windows each
    contributing up to 8 monthly samples per patient.

    Attributes
    ----------
    seed:
        Root seed (an integer); the entire cohort is a pure function of
        it.
    clinics:
        Per-clinic parameter blocks (at least one, unique names).
    n_months:
        Study length in months, a positive multiple of 9 (the paper uses
        18).
    days_per_month:
        Wearable days simulated per month (integer >= 1; 30 gives ~540
        days).
    ageing_drift_per_month:
        Mean monthly change of latent health, in [-1, 1]; negative
        values model ageing decline (accentuated by HIV, cf. [3]).
    health_phi:
        AR(1) persistence of the latent monthly health state, in [0, 1).
    health_sigma:
        AR(1) innovation SD of the latent monthly health state (finite,
        >= 0).
    domain_offset_sd:
        SD of persistent per-patient, per-domain offsets (finite, >= 0);
        this is what makes different patients weak in different IC
        domains.
    domain_noise_sd:
        Monthly fluctuation of each domain score around its mean path
        (finite, >= 0).
    mean_gap_length / max_gap_length:
        Burst-missingness calibration (paper: mean 5, max 17): a finite
        mean >= 1 and an integer cap >= 1.
    falls_base_rate:
        Approximate marginal probability of a fall in a window, in
        (0, 1) (paper Fig. 1c shows a strong False majority).
    """

    seed: int = 0
    clinics: tuple[ClinicConfig, ...] = field(default_factory=_default_clinics)
    n_months: int = 18
    days_per_month: int = 30
    ageing_drift_per_month: float = -0.004
    health_phi: float = 0.88
    health_sigma: float = 0.035
    domain_offset_sd: float = 0.10
    domain_noise_sd: float = 0.05
    mean_gap_length: float = 7.0
    max_gap_length: int = 17
    falls_base_rate: float = 0.15

    def __post_init__(self):
        _check_count("seed", self.seed)
        _check_count("n_months", self.n_months, 9)
        if self.n_months % 9 != 0:
            raise ValueError(
                "n_months must be a multiple of 9 to honour the paper's "
                "visit schedule (visits every 9 months)"
            )
        _check_count("days_per_month", self.days_per_month, 1)
        _check_real("ageing_drift_per_month", self.ageing_drift_per_month, -1.0, 1.0)
        _check_real("health_phi", self.health_phi, 0.0, 1.0, high_open=True)
        _check_real("health_sigma", self.health_sigma, 0.0)
        _check_real("domain_offset_sd", self.domain_offset_sd, 0.0)
        _check_real("domain_noise_sd", self.domain_noise_sd, 0.0)
        _check_real("mean_gap_length", self.mean_gap_length, 1.0)
        _check_count("max_gap_length", self.max_gap_length, 1)
        _check_real(
            "falls_base_rate",
            self.falls_base_rate,
            0.0,
            1.0,
            low_open=True,
            high_open=True,
        )
        if not self.clinics:
            raise ValueError("at least one clinic is required")
        names = [c.name for c in self.clinics]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate clinic names in {names}")

    @property
    def n_windows(self) -> int:
        """Number of 9-month observation windows."""
        return self.n_months // 9

    @property
    def n_patients(self) -> int:
        """Total cohort size across clinics."""
        return sum(c.n_patients for c in self.clinics)

    @property
    def visit_months(self) -> tuple[int, ...]:
        """Months with a clinical visit (0, 9, 18, ...)."""
        return tuple(range(0, self.n_months + 1, 9))

    def window_months(self, window: int) -> list[int]:
        """Observation months of 1-based ``window`` (paper: i in [1, 8]).

        Window ``j`` covers months ``(j-1)*9 + 1 .. (j-1)*9 + 8``; the
        ninth month of each block is the visit month and contributes the
        label, not a sample.
        """
        if not 1 <= window <= self.n_windows:
            raise ValueError(f"window must be in 1..{self.n_windows}")
        start = (window - 1) * 9
        return [start + i for i in range(1, 9)]
