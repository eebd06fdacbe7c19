"""Top-level cohort generation: compose all per-patient streams.

Every stream of a patient draws from its own named generator
(``seeds.child(patient_id).generator(stream)``), so streams never
perturb each other.  The PRO and visit streams come back as
``(items, months)`` / ``(deficits, visits)`` blocks; each table column is
one row of the patients' blocks laid side by side.
"""

from __future__ import annotations

import numpy as np

from repro.cohort.clinical import generate_visit_deficits
from repro.cohort.config import CohortConfig
from repro.cohort.dataset import CohortDataset
from repro.cohort.missingness import missingness_mask
from repro.cohort.outcomes import OUTCOME_NAMES, generate_outcomes
from repro.cohort.patients import PatientLatent, generate_patients
from repro.cohort.pro import clinic_item_bank, generate_pro_answers
from repro.cohort.schema import IC_DOMAINS, PRO_ITEMS, pro_item_names
from repro.cohort.wearable import generate_daily_trace
from repro.frailty.deficits import deficit_names
from repro.synth import SeedSequenceFactory
from repro.tabular import Column, ColumnType, Table

__all__ = ["generate_cohort"]


def generate_cohort(config: CohortConfig | None = None) -> CohortDataset:
    """Generate the full synthetic cohort for ``config``.

    The result is a pure function of ``config`` (including its seed):
    regenerating with the same configuration yields identical tables.

    Examples
    --------
    >>> cohort = generate_cohort(CohortConfig(seed=1))
    >>> cohort.patients.num_rows
    261
    """
    cfg = config or CohortConfig()
    seeds = SeedSequenceFactory(cfg.seed).child("cohort")
    clinics = {c.name: c for c in cfg.clinics}
    patients = generate_patients(cfg, seeds)

    patient_rows = _patients_table(patients)
    daily = _daily_table(cfg, patients, clinics, seeds)
    pro = _pro_table(cfg, patients, clinics, seeds)
    visits = _visits_table(cfg, patients, seeds)
    latent = _latent_table(cfg, patients)

    return CohortDataset(
        config=cfg,
        patients=patient_rows,
        daily=daily,
        pro=pro,
        visits=visits,
        latent=latent,
    )


def _patients_table(patients: list[PatientLatent]) -> Table:
    return Table(
        [
            Column("patient_id", [p.patient_id for p in patients], ColumnType.STRING),
            Column("clinic", [p.clinic for p in patients], ColumnType.STRING),
            Column("age", [p.age for p in patients], ColumnType.INT),
            Column(
                "years_with_hiv",
                [p.years_with_hiv for p in patients],
                ColumnType.INT,
            ),
        ]
    )


def _repeat_ids(patients: list[PatientLatent], n: int) -> np.ndarray:
    """Each patient's id ``n`` times, patients in order."""
    return np.repeat(np.array([p.patient_id for p in patients], dtype=object), n)


def _daily_table(cfg, patients, clinics, seeds) -> Table:
    parts: dict[str, list[np.ndarray]] = {}
    for p in patients:
        trace = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
        for key, arr in trace.items():
            parts.setdefault(key, []).append(arr)
    n_days = cfg.n_months * cfg.days_per_month
    cols = [Column("patient_id", _repeat_ids(patients, n_days), ColumnType.STRING)]
    for key in ("day", "month"):
        cols.append(Column(key, np.concatenate(parts[key]), ColumnType.INT))
    for key in ("steps", "calories", "sleep_hours"):
        cols.append(Column(key, np.concatenate(parts[key]), ColumnType.FLOAT))
    return Table(cols)


def _pro_table(cfg, patients, clinics, seeds) -> Table:
    banks = {name: clinic_item_bank(clinic) for name, clinic in clinics.items()}
    # One row per item, each patient's months side by side.
    items = np.empty((len(PRO_ITEMS), len(patients), cfg.n_months))
    for i, p in enumerate(patients):
        items[:, i] = generate_pro_answers(cfg, banks[p.clinic], p, seeds)
    missing = missingness_mask(
        cfg,
        [clinics[p.clinic] for p in patients],
        [p.patient_id for p in patients],
        seeds,
    )
    items[missing.transpose(1, 0, 2)] = np.nan
    months = np.arange(1, cfg.n_months + 1, dtype=np.int64)
    cols = [
        Column("patient_id", _repeat_ids(patients, cfg.n_months), ColumnType.STRING),
        Column("month", np.tile(months, len(patients)), ColumnType.INT),
    ]
    for name, values in zip(pro_item_names(), items.reshape(len(PRO_ITEMS), -1)):
        cols.append(Column(name, values, ColumnType.FLOAT))
    return Table(cols)


def _visits_table(cfg, patients, seeds) -> Table:
    visit_months = np.asarray(cfg.visit_months, dtype=np.int64)
    n_visits = len(visit_months)
    blocks = []
    # Outcomes sit at window-closing visits; month 0 has none (NaN).
    outcome_block = np.full((len(OUTCOME_NAMES), len(patients), n_visits), np.nan)
    for i, p in enumerate(patients):
        blocks.append(generate_visit_deficits(cfg, p, seeds))
        outcomes = generate_outcomes(cfg, p, seeds)
        pos = np.searchsorted(visit_months, outcomes["visit_month"])
        for row, name in enumerate(OUTCOME_NAMES):
            outcome_block[row, i, pos] = outcomes[name]
    deficits = np.concatenate(blocks, axis=1)
    cols = [
        Column("patient_id", _repeat_ids(patients, n_visits), ColumnType.STRING),
        Column("visit_month", np.tile(visit_months, len(patients)), ColumnType.INT),
    ]
    for name, values in zip(deficit_names(), deficits):
        cols.append(Column(name, values, ColumnType.FLOAT))
    for name, values in zip(OUTCOME_NAMES, outcome_block):
        cols.append(Column(name, values.ravel(), ColumnType.FLOAT))
    return Table(cols)


def _latent_table(cfg, patients) -> Table:
    n_points = cfg.n_months + 1
    months = np.tile(np.arange(n_points, dtype=np.int64), len(patients))
    cols = [
        Column("patient_id", _repeat_ids(patients, n_points), ColumnType.STRING),
        Column("month", months, ColumnType.INT),
        Column(
            "health",
            np.concatenate([p.health for p in patients]),
            ColumnType.FLOAT,
        ),
    ]
    for domain in IC_DOMAINS:
        cols.append(
            Column(
                domain,
                np.concatenate([p.domain_scores[domain] for p in patients]),
                ColumnType.FLOAT,
            )
        )
    return Table(cols)
