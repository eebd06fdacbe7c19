"""Outcome models: QoL, SPPB and Falls at the end-of-window visits.

The paper's three outcomes (section 3) and their generative links:

* **QoL** (EQ-5D-5L visual-analogue scale, in [0, 1]) — an affine map of
  the window's mean psychological, vitality and overall health, plus
  reporting noise; calibrated so the distribution concentrates in the
  0.6-0.9 bins of Fig. 1(a).
* **SPPB** (integer 0..12, lower-limb function) — a discretised, slightly
  saturating map of the window's mean locomotion score; Fig. 1(b) shows
  mass concentrated at 9-12 with a left tail.
* **Falls** (binary, "fell at least once since the previous visit") — a
  Bernoulli with logistic dependence on locomotion and vitality deficits;
  Fig. 1(c) shows a strong "False" majority, the class imbalance that
  collapses KD recall in Fig. 4.
"""

from __future__ import annotations

import numpy as np

from repro.cohort.config import CohortConfig
from repro.cohort.patients import PatientLatent
from repro.synth import SeedSequenceFactory

__all__ = ["generate_outcomes", "OUTCOME_NAMES"]

#: Canonical outcome identifiers used across the pipeline.
OUTCOME_NAMES: tuple[str, ...] = ("qol", "sppb", "falls")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def generate_outcomes(
    cfg: CohortConfig,
    patient: PatientLatent,
    seeds: SeedSequenceFactory,
) -> dict[str, np.ndarray]:
    """Outcomes measured at each window-closing visit for one patient.

    Returns ``{"window": int64[w], "visit_month": int64[w],
    "qol": float64[w], "sppb": int64[w], "falls": bool[w]}`` where
    ``w = cfg.n_windows`` and window ``j`` closes at month ``9 * j``.
    """
    rng = seeds.child(patient.patient_id).generator("outcomes")
    windows = np.arange(1, cfg.n_windows + 1, dtype=np.int64)
    visit_months = 9 * windows

    qol = np.empty(len(windows))
    sppb = np.empty(len(windows), dtype=np.int64)
    falls = np.empty(len(windows), dtype=bool)

    # The window means draw nothing, so computing them up front keeps
    # the ``outcomes`` stream's draw order.
    months = np.array([cfg.window_months(int(j)) for j in windows])
    health = patient.window_means(months)
    locomotion = patient.window_means(months, "locomotion")
    vitality = patient.window_means(months, "vitality")
    psychological = patient.window_means(months, "psychological")

    for idx, (h, loco, vita, psy) in enumerate(
        zip(health, locomotion, vitality, psychological)
    ):
        qol_mean = 0.30 + 0.78 * (0.40 * psy + 0.25 * vita + 0.35 * h)
        qol[idx] = float(np.clip(qol_mean + rng.normal(0.0, 0.045), 0.0, 1.0))

        sppb_latent = 12.0 * np.clip(
            0.22 + 1.05 * loco + rng.normal(0.0, 0.05), 0.0, 1.0
        )
        sppb[idx] = int(np.clip(np.round(sppb_latent), 0, 12))

        # Calibrated so the marginal rate ~ cfg.falls_base_rate at the
        # population's typical locomotion/vitality levels.
        base_logit = np.log(cfg.falls_base_rate / (1.0 - cfg.falls_base_rate)) - 0.35
        risk = base_logit + 6.0 * (0.58 - loco) + 2.5 * (0.58 - vita)
        falls[idx] = bool(rng.random() < _sigmoid(risk))

    return {
        "window": windows,
        "visit_month": visit_months,
        "qol": qol,
        "sppb": sppb,
        "falls": falls,
    }
