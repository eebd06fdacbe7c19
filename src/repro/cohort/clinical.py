"""Clinical visits: deficit assessments at months 0, 9 and 18.

At every scheduled visit a healthcare worker assesses the 37 deficit
variables (27 blood, 3 body composition, 7 HIV/PRO — the catalogue in
:mod:`repro.frailty.deficits`).  Deficit expression is driven by the
patient's latent health at the visit month, observed through clinician
measurement noise, so the resulting Frailty Index is an *independent*
clinical view of the same latent state the PRO/wearable streams observe —
which is exactly why appending FI to the feature vector helps both the
DD and KD models in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.cohort.config import CohortConfig
from repro.cohort.patients import PatientLatent
from repro.frailty.deficits import DEFICIT_CATALOGUE, sample_deficits
from repro.synth import SeedSequenceFactory

__all__ = ["generate_visit_deficits"]

#: SD of the clinician's effective measurement noise on latent health.
_ASSESSMENT_NOISE = 0.04


def generate_visit_deficits(
    cfg: CohortConfig,
    patient: PatientLatent,
    seeds: SeedSequenceFactory,
) -> np.ndarray:
    """Deficit values for every visit month of one patient.

    Returns ``float64[37, v]`` with ``v = len(cfg.visit_months)``: row
    ``i`` holds ``DEFICIT_CATALOGUE[i]`` at each visit.  All deficits
    are drawn with one uniform draw from the patient's ``clinical``
    stream, after the assessment noise.
    """
    rng = seeds.child(patient.patient_id).generator("clinical")
    visit_months = np.asarray(cfg.visit_months, dtype=np.int64)
    observed_h = np.clip(
        patient.health[visit_months]
        + rng.normal(0.0, _ASSESSMENT_NOISE, size=visit_months.shape),
        0.0,
        1.0,
    )
    return sample_deficits(DEFICIT_CATALOGUE, observed_h, rng)
