"""The reports every ``train_grid`` op must reproduce.

The cohort and every protocol split use a fixed seed, so each of the 12
Fig. 4 cells has one right answer: its CV reports and its test report.
``reference_grid.json`` holds them for the paper-scale cohort and for
the tiny cohort of the self-tests, and every op is compared with its
cell's entry.  Values agree within :data:`RTOL` (re-associated metric
sums), which no changed prediction stays inside.

Regenerate the table, only after a change meant to alter the results,
from the repository root::

    PYTHONPATH=src python3 -m perfbench.reference
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

__all__ = ["RTOL", "cell_name", "load", "matches"]

TABLE = Path(__file__).with_name("reference_grid.json")
#: Relative tolerance on one report value.
RTOL = 1e-9
#: Cohort sizes the table covers: the paper scale and the self-tests'.
COHORTS = (None, 30)


def _cohort_name(patients: int | None) -> str:
    return "paper" if patients is None else f"{patients}_patients"


def cell_name(cell: tuple) -> str:
    return "/".join(map(str, cell))


def reports(result) -> dict:
    """The CV and test reports of one protocol run, as plain data."""
    return {
        "cv": [r.as_dict() for r in result.cv_reports],
        "test": result.test_report.as_dict(),
    }


def load(patients: int | None) -> dict[str, dict]:
    """The reference reports of every cell, for this cohort size."""
    table = json.loads(TABLE.read_text())
    name = _cohort_name(patients)
    if name not in table:
        raise RuntimeError(
            f"no reference reports for the {name} cohort in {TABLE.name}; "
            f"train_grid runs the cohorts {sorted(table)}"
        )
    return table[name]


def _close(a: float, b: float) -> bool:
    return (a != a and b != b) or math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-15)


def matches(expected: dict, result) -> bool:
    """Whether a protocol run reproduces its cell's reference reports."""
    got = reports(result)
    if len(got["cv"]) != len(expected["cv"]):
        return False
    pairs = zip([expected["test"], *expected["cv"]], [got["test"], *got["cv"]])
    return all(
        a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
        for a, b in pairs
    )


def main() -> int:
    from .workloads import GRID, TrainGrid

    table = {}
    for patients in COHORTS:
        with tempfile.TemporaryDirectory() as workdir:
            grid = TrainGrid(0, patients, Path(workdir))
            grid.build()
            table[_cohort_name(patients)] = {
                cell_name(cell): reports(grid.op(cell)) for cell in GRID
            }
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
