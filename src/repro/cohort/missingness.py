"""Missing-data injection for the PRO series.

Section 3 of the paper reports the QA statistics of the PRO streams:
bursts of consecutive missing observations (mean length ~5, max 17) and
~108 gaps per patient on average across all series (max 284).

The dominant mechanism is *patient-level*: a participant stops answering
the app for a stretch, blanking every item simultaneously — that is what
makes the per-patient gap count scale with the number of items (56 items
x ~2 bursts ~ 108 gaps).  A small item-level dropout is layered on top
(single questions skipped within an otherwise completed month).

Both layers are drawn from each patient's ``missingness`` stream: first
the patient-level chain (nothing is drawn when the clinic's rate is zero),
then one chain per item in bank order — the uniforms that successive
:func:`~repro.synth.burst_gap_mask` calls would consume.  The uniforms of
every patient are gathered into one buffer and stepped together by
:func:`~repro.synth.burst_chains`; the generator blanks the answers with
one NaN put through the resulting mask.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cohort.config import ClinicConfig, CohortConfig
from repro.cohort.schema import PRO_ITEMS
from repro.synth import SeedSequenceFactory, burst_chains

__all__ = ["missingness_mask"]

#: Stationary rate / mean burst length of item-level (question skipped)
#: dropout, on top of the patient-level app-abandonment bursts.
_ITEM_DROPOUT_RATE = 0.05
_ITEM_DROPOUT_MEAN_LEN = 1.3


def missingness_mask(
    cfg: CohortConfig,
    clinics: Sequence[ClinicConfig],
    patient_ids: Sequence[str],
    seeds: SeedSequenceFactory,
) -> np.ndarray:
    """Which PRO answers go missing under the two-layer burst process.

    Parameters
    ----------
    clinics / patient_ids:
        The clinic and id of each patient.

    Returns
    -------
    numpy.ndarray
        ``bool[n_patients, n_items, n_months]``, True where the answer
        is missing; laid out like the answer blocks of
        :func:`repro.cohort.pro.generate_pro_answers`.
    """
    if len(clinics) != len(patient_ids):
        raise ValueError("need one clinic per patient id")
    n_patients, n_items, n = len(patient_ids), len(PRO_ITEMS), cfg.n_months
    # Series 0 of each patient is the patient-level chain, 1.. the items.
    rates = np.full((n_patients, 1 + n_items), _ITEM_DROPOUT_RATE)
    rates[:, 0] = [clinic.missing_rate for clinic in clinics]
    mean_len = np.full((n_patients, 1 + n_items), _ITEM_DROPOUT_MEAN_LEN)
    mean_len[:, 0] = cfg.mean_gap_length
    # Undrawn rows stay 0.0; their zero rate keeps them observed.
    draws = np.zeros((n_patients, 1 + n_items, n + 1))
    for block, rate, pid in zip(draws, rates[:, 0], patient_ids):
        rng = seeds.child(pid).generator("missingness")
        if rate > 0.0:
            block[0] = rng.random(n + 1)
        block[1:] = rng.random((n_items, n + 1))
    chains = burst_chains(
        draws.reshape(-1, n + 1),
        rates.ravel(),
        mean_len.ravel(),
        cfg.max_gap_length,
    ).reshape(n_patients, 1 + n_items, n)
    return chains[:, :1] | chains[:, 1:]
