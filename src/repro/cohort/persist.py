"""Persist a generated cohort to disk (CSV tables + JSON config).

A cohort is a pure function of its config, and the paper-scale dataset
regenerates in well under a second; but downstream consumers (R users,
spreadsheet-level clinicians) want files.  ``save_cohort`` writes
one CSV per table plus the generating configuration; ``load_cohort``
restores an identical :class:`CohortDataset` (verified by table equality
in the tests).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.cohort.config import ClinicConfig, CohortConfig
from repro.cohort.dataset import CohortDataset
from repro.cohort.schema import IC_DOMAINS, pro_item_names
from repro.frailty.deficits import deficit_names
from repro.tabular import ColumnType, read_csv, write_csv

__all__ = ["save_cohort", "load_cohort"]

_TABLES = ("patients", "daily", "pro", "visits", "latent")


def _schemas() -> dict[str, dict[str, ColumnType]]:
    """Explicit column types per table (CSV inference is lossy)."""
    pro = {"patient_id": ColumnType.STRING, "month": ColumnType.INT}
    pro.update({name: ColumnType.FLOAT for name in pro_item_names()})
    visits = {"patient_id": ColumnType.STRING, "visit_month": ColumnType.INT}
    visits.update({name: ColumnType.FLOAT for name in deficit_names()})
    visits.update({o: ColumnType.FLOAT for o in ("qol", "sppb", "falls")})
    latent = {"patient_id": ColumnType.STRING, "month": ColumnType.INT,
              "health": ColumnType.FLOAT}
    latent.update({d: ColumnType.FLOAT for d in IC_DOMAINS})
    return {
        "patients": {
            "patient_id": ColumnType.STRING,
            "clinic": ColumnType.STRING,
            "age": ColumnType.INT,
            "years_with_hiv": ColumnType.INT,
        },
        "daily": {
            "patient_id": ColumnType.STRING,
            "day": ColumnType.INT,
            "month": ColumnType.INT,
            "steps": ColumnType.FLOAT,
            "calories": ColumnType.FLOAT,
            "sleep_hours": ColumnType.FLOAT,
        },
        "pro": pro,
        "visits": visits,
        "latent": latent,
    }


def save_cohort(cohort: CohortDataset, directory: str | Path) -> None:
    """Write the cohort's five tables and config under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in _TABLES:
        write_csv(getattr(cohort, name), directory / f"{name}.csv")
    config_doc = dataclasses.asdict(cohort.config)
    (directory / "config.json").write_text(
        json.dumps(config_doc, indent=2), encoding="utf-8"
    )


def load_cohort(directory: str | Path) -> CohortDataset:
    """Restore a cohort saved by :func:`save_cohort`.

    Raises
    ------
    FileNotFoundError
        If any expected file is missing.
    ValueError
        If ``config.json`` holds an invalid value (e.g. a ``NaN``, which
        :func:`json.loads` accepts); the message names the field.
    """
    directory = Path(directory)
    config_path = directory / "config.json"
    if not config_path.exists():
        raise FileNotFoundError(f"missing {config_path}")
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["clinics"] = tuple(ClinicConfig(**c) for c in doc["clinics"])
    config = CohortConfig(**doc)

    schemas = _schemas()
    tables = {}
    for name in _TABLES:
        path = directory / f"{name}.csv"
        if not path.exists():
            raise FileNotFoundError(f"missing {path}")
        tables[name] = read_csv(path, types=schemas[name])
    return CohortDataset(config=config, **tables)
