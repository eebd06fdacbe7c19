"""The 37-deficit catalogue behind the Frailty Index.

Composition follows section 3 of the paper ("37 of these variables were
used to measure the Frailty Index"): 27 blood-test deficits, 3 body
composition deficits, 7 HIV-related / patient-reported deficits.

Each deficit carries the parameters of its *generation model* — how
strongly it responds to declining latent health (``sensitivity``), its
baseline prevalence in a fully healthy subject (``base_rate``) and whether
it is binary (present/absent) or graded (0, 0.5, 1 severity steps, as the
Searle procedure allows).  A deficit value is always in [0, 1], so the FI
(mean deficit) is too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Deficit", "DEFICIT_CATALOGUE", "deficit_names", "sample_deficits"]

#: Deficit categories with the paper's counts.
CATEGORY_COUNTS = {"blood": 27, "body_composition": 3, "hiv_pro": 7}


@dataclass(frozen=True)
class Deficit:
    """One health deficit contributing to the Frailty Index.

    Attributes
    ----------
    name:
        Column name in the visits table, e.g. ``"blood_07"``.
    category:
        One of ``blood``, ``body_composition``, ``hiv_pro``.
    base_rate:
        Probability (binary) or expected severity (graded) of the deficit
        for a subject at perfect latent health (h = 1).
    sensitivity:
        How steeply expression rises as latent health falls; the
        expression probability is
        ``clip(base_rate + sensitivity * (1 - h), 0, 1)``.
    graded:
        If True the deficit takes values {0, 0.5, 1} (partial
        expression); if False it is binary {0, 1}.
    """

    name: str
    category: str
    base_rate: float
    sensitivity: float
    graded: bool

    def __post_init__(self):
        if self.category not in CATEGORY_COUNTS:
            raise ValueError(f"unknown deficit category {self.category!r}")
        if not 0.0 <= self.base_rate <= 1.0:
            raise ValueError("base_rate must be in [0, 1]")
        if self.sensitivity < 0:
            raise ValueError("sensitivity must be non-negative")

    def expression_probability(self, latent_health) -> np.ndarray:
        """Probability of (full) expression given latent health in [0, 1]."""
        h = np.asarray(latent_health, dtype=np.float64)
        return np.clip(self.base_rate + self.sensitivity * (1.0 - h), 0.0, 1.0)

    def sample(self, latent_health, rng: np.random.Generator) -> np.ndarray:
        """Draw deficit values for latent health values.

        Binary deficits return {0, 1}; graded ones {0, 0.5, 1} with the
        half step representing sub-clinical expression.
        """
        return sample_deficits((self,), latent_health, rng)[0, ...]


def sample_deficits(
    deficits: Sequence[Deficit], latent_health, rng: np.random.Generator
) -> np.ndarray:
    """Values of every deficit at the same latent health values.

    Returns ``float64[len(deficits), *shape]``.  One ``rng.random`` call
    draws all uniforms in C order (deficit 0 first), exactly those that
    successive :meth:`Deficit.sample` calls would consume.  A deficit is
    expressed when its uniform falls below the expression probability;
    a graded deficit splits that mass between full (the lower third,
    value 1) and partial (value 0.5) expression, so means stay
    comparable to binary deficits.
    """
    h = np.asarray(latent_health, dtype=np.float64)
    per_deficit = (len(deficits),) + (1,) * h.ndim
    base_rate = np.array([d.base_rate for d in deficits]).reshape(per_deficit)
    sensitivity = np.array([d.sensitivity for d in deficits]).reshape(per_deficit)
    graded = np.array([d.graded for d in deficits], dtype=bool).reshape(per_deficit)
    p = np.clip(base_rate + sensitivity * (1.0 - h), 0.0, 1.0)
    u = rng.random(p.shape)
    partial = graded & (u >= p / 3.0)
    return np.where(u < p, np.where(partial, 0.5, 1.0), 0.0)


def _build_catalogue() -> tuple[Deficit, ...]:
    """Construct the 37-deficit catalogue.

    Parameters are varied deterministically so deficits span weakly to
    strongly health-linked markers; a handful of near-insensitive
    deficits model lab values that vary for reasons other than frailty.
    """
    deficits: list[Deficit] = []
    sensitivities = (0.65, 0.45, 0.30, 0.15, 0.05)
    base_rates = (0.02, 0.05, 0.10, 0.08, 0.03)
    for cat, count in CATEGORY_COUNTS.items():
        prefix = {"blood": "blood", "body_composition": "body", "hiv_pro": "hivp"}[cat]
        for k in range(count):
            deficits.append(
                Deficit(
                    name=f"{prefix}_{k + 1:02d}",
                    category=cat,
                    base_rate=base_rates[k % len(base_rates)],
                    sensitivity=sensitivities[k % len(sensitivities)],
                    graded=(k % 4 == 2),
                )
            )
    assert len(deficits) == 37, f"catalogue has {len(deficits)}, expected 37"
    return tuple(deficits)


#: The canonical 37-deficit catalogue.
DEFICIT_CATALOGUE: tuple[Deficit, ...] = _build_catalogue()


def deficit_names() -> list[str]:
    """Names of all 37 deficits in canonical order."""
    return [d.name for d in DEFICIT_CATALOGUE]
