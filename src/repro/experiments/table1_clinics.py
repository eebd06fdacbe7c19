"""TAB1 — single-clinic models (paper Table 1).

One model per clinic per (outcome, with/without FI) configuration, DD
arm and KD arm, mirroring the pooled Fig. 4 grid.  Expected shape: the
Hong Kong sub-cohort (n = 33) produces unstable, sometimes anomalous
metrics, which the paper attributes to its size.
"""

from __future__ import annotations

from repro.experiments.context import ExperimentContext, default_context
from repro.learning.stratify import build_clinic_units, run_clinic_unit
from repro.parallel import parallel_map

__all__ = ["run_table1", "render_table1"]


def run_table1(
    context: ExperimentContext | None = None,
    kinds: tuple[str, ...] = ("kd", "dd"),
) -> dict[str, dict]:
    """Return the Table 1 grid.

    All (outcome, kind, with_fi, clinic) models are independent units,
    fanned out in one flat pass through the executor (serial under the
    default backend, bitwise-identical either way).

    Returns
    -------
    dict
        ``{clinic: {(outcome, kind, with_fi): metrics_dict}}``.
    """
    ctx = context or default_context()
    units: list = []
    labels: list[tuple[str, tuple[str, str, bool]]] = []
    for outcome in ("qol", "sppb", "falls"):
        for kind in kinds:
            for with_fi in (False, True):
                samples = ctx.samples(outcome, kind, with_fi)
                clinics, config_units = build_clinic_units(
                    samples, ctx.n_folds, ctx.seed
                )
                units.extend(config_units)
                labels.extend(
                    (clinic, (outcome, kind, with_fi)) for clinic in clinics
                )
    results = parallel_map(run_clinic_unit, units, n_jobs=ctx.n_jobs)
    grid: dict[str, dict] = {}
    for (clinic, config), result in zip(labels, results):
        grid.setdefault(clinic, {})[config] = result.test_report.as_dict()
    return grid


def render_table1(grid: dict[str, dict]) -> str:
    """Plain-text rendering (clinic blocks, rows w/o / w/ FI)."""
    lines = ["TABLE1: single-clinic models"]
    for clinic in sorted(grid):
        lines.append(f"  clinic {clinic}")
        block = grid[clinic]
        for with_fi in (False, True):
            tag = "w/ FI " if with_fi else "w/o FI"
            parts = []
            for outcome in ("qol", "sppb"):
                for kind in ("kd", "dd"):
                    m = block[(outcome, kind, with_fi)]
                    parts.append(
                        f"{outcome}/{kind}={100 * m['one_minus_mape']:.0f}%"
                    )
            for kind in ("kd", "dd"):
                m = block[("falls", kind, with_fi)]
                parts.append(
                    f"falls/{kind}: acc={100 * m['accuracy']:.0f}% "
                    f"recT={100 * m['recall_true']:.0f}%"
                )
            lines.append(f"    {tag}  " + "  ".join(parts))
    return "\n".join(lines)
