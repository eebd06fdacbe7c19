"""Command-line entry point: experiments, plus the serving driver.

Usage::

    python -m repro fig4                 # one experiment, paper scale
    python -m repro all --small          # everything, 50-patient cohort
    python -m repro qa --out results/    # also write the artefact files
    python -m repro serve publish ...    # model registry + scoring
    python -m repro serve score ...      # (see repro.serve.driver)
    python -m repro lint                 # determinism & concurrency lint
    python -m repro lint --format=json   # (see repro.analysis.cli)

Experiments: fig1, fig4, table1, fig5, fig6, fig7, qa, abl1, abl2, abl3, all.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cohort import ClinicConfig, CohortConfig
from repro.experiments import (
    ExperimentContext,
    run_fig1,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_imbalance_ablation,
    run_imputation_ablation,
    run_model_ablation,
    run_qa,
    run_table1,
)
from repro.experiments.ablation_imbalance import render_imbalance_ablation
from repro.experiments.ablation_imputation import render_imputation_ablation
from repro.experiments.ablation_models import render_model_ablation
from repro.experiments.fig1_distributions import render_fig1
from repro.experiments.fig4_performance import render_fig4
from repro.experiments.fig5_mae_by_clinic import render_fig5
from repro.experiments.fig6_local_explanations import render_fig6
from repro.experiments.fig7_global_dependence import render_fig7
from repro.experiments.qa_gaps import render_qa
from repro.experiments.table1_clinics import render_table1

#: experiment id -> (runner, renderer)
EXPERIMENTS = {
    "fig1": (run_fig1, render_fig1),
    "fig4": (run_fig4, render_fig4),
    "table1": (run_table1, render_table1),
    "fig5": (run_fig5, render_fig5),
    "fig6": (run_fig6, render_fig6),
    "fig7": (run_fig7, render_fig7),
    "qa": (run_qa, render_qa),
    "abl1": (run_model_ablation, render_model_ablation),
    "abl2": (run_imputation_ablation, render_imputation_ablation),
    "abl3": (run_imbalance_ablation, render_imbalance_ablation),
}


def _small_config(seed: int) -> CohortConfig:
    return CohortConfig(
        seed=seed,
        clinics=(
            ClinicConfig("modena", 24),
            ClinicConfig("sydney", 18),
            ClinicConfig("hong_kong", 8, health_spread=0.07, protocol_noise=0.18),
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which artefact to regenerate ('serve' dispatches to the "
        "scoring driver, 'lint' to the determinism analyzer; see "
        "python -m repro serve --help / python -m repro lint --help)",
    )
    parser.add_argument("--seed", type=int, default=7, help="cohort/protocol seed")
    parser.add_argument(
        "--small",
        action="store_true",
        help="50-patient demo cohort instead of the paper's 261",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write each rendered artefact to DIR/<exp>.txt",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the experiment grid (default: the "
        "REPRO_JOBS environment variable, else serial; 0 or -1 = one per "
        "CPU).  Results are identical on every backend.",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] == "serve":
        # The serving driver owns its own subcommand parser.
        from repro.serve.driver import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "lint":
        # The determinism analyzer owns its own parser too.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.out is not None:
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create --out {args.out}: {exc}", file=sys.stderr)
            return 2
    ctx = ExperimentContext(
        seed=args.seed,
        n_folds=2 if args.small else 3,
        cohort_config=_small_config(args.seed) if args.small else None,
        n_jobs=args.jobs,
    )
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner, renderer = EXPERIMENTS[name]
        text = renderer(runner(ctx))
        print(text)
        print()
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
