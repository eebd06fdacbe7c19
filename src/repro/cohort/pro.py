"""Monthly PRO questionnaire answers.

Each of the 56 items discretises the patient's latent domain score of the
month through its item-specific :class:`~repro.synth.OrdinalLink`
(reversed scales, skewed thresholds and noise tiers are declared in the
item bank, :mod:`repro.cohort.schema`).  Clinic protocol noise widens the
latent noise — one of the reasons the Hong Kong sub-models behave
anomalously in Table 1.

The links of a clinic are stacked once per cohort into a read-only
:class:`~repro.synth.OrdinalBank`; each patient's whole questionnaire
history is then one ``(items, months)`` block drawn with a single normal
draw from the patient's ``pro`` stream, bit-identical to answering the
items one at a time in bank order.
"""

from __future__ import annotations

import numpy as np

from repro.cohort.config import ClinicConfig, CohortConfig
from repro.cohort.patients import PatientLatent
from repro.cohort.schema import IC_DOMAINS, PRO_ITEMS
from repro.synth import OrdinalBank, OrdinalLink, SeedSequenceFactory

__all__ = ["generate_pro_answers", "build_item_links", "clinic_item_bank"]

#: Latent noise added to every item per unit of clinic protocol noise.
_PROTOCOL_NOISE_SCALE = 0.05

#: Row of each item's IC domain in the stacked domain-score matrix.
_ITEM_DOMAIN = np.array([IC_DOMAINS.index(item.domain) for item in PRO_ITEMS])


def build_item_links(extra_noise: float = 0.0) -> dict[str, OrdinalLink]:
    """Instantiate the ordinal link of every PRO item.

    ``extra_noise`` is added to each item's latent noise SD (clinic
    protocol effect).
    """
    return {
        item.name: OrdinalLink.equispaced(
            n_levels=item.n_levels,
            reversed_scale=item.reversed_scale,
            noise_sd=item.noise_sd + extra_noise,
            skew=item.skew,
        )
        for item in PRO_ITEMS
    }


def clinic_item_bank(clinic: ClinicConfig) -> OrdinalBank:
    """The clinic's item links, stacked in bank order.

    Every item's noise SD is widened by the clinic's protocol noise.
    """
    links = build_item_links(_PROTOCOL_NOISE_SCALE * clinic.protocol_noise)
    return OrdinalBank(links.values())


def generate_pro_answers(
    cfg: CohortConfig,
    bank: OrdinalBank,
    patient: PatientLatent,
    seeds: SeedSequenceFactory,
) -> np.ndarray:
    """Answers for months ``1..n_months`` for one patient.

    Returns ``float64[56, n_months]``: row ``i`` holds the answers to
    ``PRO_ITEMS[i]`` (floats, so missingness can later be marked with
    NaN).  ``bank`` is the patient's clinic bank
    (:func:`clinic_item_bank`).
    """
    rng = seeds.child(patient.patient_id).generator("pro")
    scores = np.stack([patient.domain_scores[d] for d in IC_DOMAINS])
    latent = scores[_ITEM_DOMAIN, 1 : cfg.n_months + 1]
    return bank.sample(latent, rng).astype(np.float64)
