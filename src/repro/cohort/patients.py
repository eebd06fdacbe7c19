"""Patient demographics and latent intrinsic-health trajectories.

Every patient carries a latent monthly health state ``h_p(t) in [0, 1]``
(an AR(1) with ageing drift) plus persistent per-domain offsets, giving
five monthly *domain score* paths.  All observables — wearable traces,
PRO answers, clinical deficits, outcomes — are noisy views of these
latents, which is what makes the paper's empirical effects (DD > KD,
FI helps) emerge from the pipeline instead of being asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cohort.config import ClinicConfig, CohortConfig
from repro.cohort.schema import IC_DOMAINS
from repro.synth import SeedSequenceFactory, ar1_process

__all__ = ["PatientLatent", "generate_patients"]

#: Clamp for latent health, keeping every downstream link well-defined.
_H_MIN, _H_MAX = 0.02, 0.98


@dataclass(frozen=True)
class PatientLatent:
    """Demographics plus ground-truth latent paths for one patient.

    Attributes
    ----------
    patient_id:
        Stable identifier, e.g. ``"modena_007"``.
    clinic:
        Clinic name.
    age / years_with_hiv:
        Demographics (the study enrols 50+ year-olds; years with HIV is
        the paper's proxy for accentuated biological ageing).
    health:
        Array of length ``n_months + 1``: ``health[t]`` is h_p at month t
        (month 0 = enrolment visit).
    domain_scores:
        ``{domain: array(n_months + 1)}`` monthly domain scores.
    """

    patient_id: str
    clinic: str
    age: int
    years_with_hiv: int
    health: np.ndarray
    domain_scores: dict[str, np.ndarray]

    def health_at(self, month: int) -> float:
        """Latent health at a given month."""
        return float(self.health[month])

    def window_means(
        self, months: np.ndarray, domain: str | None = None
    ) -> np.ndarray:
        """Mean latent (or domain) score over each row of ``months``.

        ``months`` is an ``(n_windows, k)`` index matrix; row ``i`` of
        the result equals ``np.mean`` of ``path[months[i]]`` bit for bit
        (the same pairwise sum over a contiguous row).
        """
        path = self.health if domain is None else self.domain_scores[domain]
        return path[months].mean(axis=1)


def _one_patient(
    cfg: CohortConfig,
    clinic: ClinicConfig,
    index: int,
    seeds: SeedSequenceFactory,
) -> PatientLatent:
    pid = f"{clinic.name}_{index:03d}"
    scope = seeds.child(pid)
    rng = scope.generator("latent")

    age = int(np.clip(rng.normal(57.0, 6.0), 50, 85))
    years_with_hiv = int(np.clip(rng.normal(18.0, 7.0), 1, 40))

    # Baseline worsens with biological age (age + HIV duration), cf. [3].
    biological_load = 0.002 * (age - 57) + 0.003 * (years_with_hiv - 18)
    baseline = rng.normal(clinic.health_mean - biological_load, clinic.health_spread)
    baseline = float(np.clip(baseline, _H_MIN + 0.05, _H_MAX - 0.05))

    n_points = cfg.n_months + 1
    path = ar1_process(
        rng,
        n_steps=n_points,
        mean=baseline,
        phi=cfg.health_phi,
        sigma=cfg.health_sigma,
        start=baseline,
        drift=cfg.ageing_drift_per_month,
    )
    health = np.clip(path, _H_MIN, _H_MAX)

    domain_scores: dict[str, np.ndarray] = {}
    for domain in IC_DOMAINS:
        offset = rng.normal(0.0, cfg.domain_offset_sd)
        wobble = ar1_process(
            rng,
            n_steps=n_points,
            mean=0.0,
            phi=0.6,
            sigma=cfg.domain_noise_sd,
            start=0.0,
        )
        domain_scores[domain] = np.clip(health + offset + wobble, 0.0, 1.0)

    return PatientLatent(
        patient_id=pid,
        clinic=clinic.name,
        age=age,
        years_with_hiv=years_with_hiv,
        health=health,
        domain_scores=domain_scores,
    )


def generate_patients(
    cfg: CohortConfig, seeds: SeedSequenceFactory
) -> list[PatientLatent]:
    """Generate all patients of all clinics (deterministic in the seed)."""
    patients: list[PatientLatent] = []
    for clinic in cfg.clinics:
        for index in range(clinic.n_patients):
            patients.append(_one_patient(cfg, clinic, index, seeds))
    return patients
