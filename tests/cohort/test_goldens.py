"""Committed digests pin the bits of generated cohorts.

``goldens/cohort_tables.json`` holds the SHA-256 of every table of three
cohorts: the seed-7 paper-scale cohort, the 30-patient
:func:`~tests.conftest.small_config` cohort, and a 27-month cohort with
a clinic whose PRO ``missing_rate`` is zero.  The digests were recorded
before the per-patient streams were batched and must never change: any
reordering of draws within a named generator shows up here.

``python -m tests.cohort.test_goldens`` prints the current digests (run
from the repo root with ``PYTHONPATH=src``).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cohort import ClinicConfig, CohortConfig, generate_cohort
from repro.tabular import ColumnType, Table

from tests.conftest import small_config

GOLDENS = Path(__file__).parent / "goldens" / "cohort_tables.json"
TABLES = ("patients", "daily", "pro", "visits", "latent")


def golden_configs() -> dict[str, CohortConfig]:
    return {
        "paper_seed7": CohortConfig(seed=7),
        "small_seed11": small_config(),
        "no_gaps_27m": CohortConfig(
            seed=3,
            n_months=27,
            clinics=(
                ClinicConfig("complete", 5, missing_rate=0.0),
                ClinicConfig(
                    "noisy", 4, health_mean=0.55, protocol_noise=0.3,
                    missing_rate=0.4,
                ),
            ),
        ),
    }


def table_digest(table: Table) -> str:
    """SHA-256 over column names, logical types and raw value bytes."""
    h = hashlib.sha256()
    for name in table.column_names:
        col = table.column(name)
        h.update(f"{name}\0{col.ctype.value}\0".encode())
        values = col.values
        if col.ctype is ColumnType.STRING:
            h.update(json.dumps(values.tolist()).encode())
        else:
            h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def cohort_digests(config: CohortConfig) -> dict[str, str]:
    cohort = generate_cohort(config)
    return {name: table_digest(getattr(cohort, name)) for name in TABLES}


@pytest.fixture(scope="module")
def expected() -> dict[str, dict[str, str]]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def test_goldens_cover_every_config(expected):
    assert set(expected) == set(golden_configs())
    for digests in expected.values():
        assert set(digests) == set(TABLES)


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_cohort_tables_match_goldens(name, expected):
    assert cohort_digests(golden_configs()[name]) == expected[name]


def test_digest_sees_a_single_flipped_bit(small_cohort):
    pro = small_cohort.pro
    values = pro["pro_loc_01"].copy()
    first = int(np.flatnonzero(~np.isnan(values))[0])
    values[first] = np.nextafter(values[first], np.inf)
    changed = pro.with_column("pro_loc_01", values)
    assert table_digest(changed) != table_digest(pro)


if __name__ == "__main__":
    print(
        json.dumps(
            {name: cohort_digests(cfg) for name, cfg in golden_configs().items()},
            indent=2,
            sort_keys=True,
        )
    )
