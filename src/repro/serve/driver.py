"""Serving driver behind ``python -m repro serve``.

Four subcommands cover the train-once / score-later lifecycle::

    # fit a model on a training CSV and publish it into a registry
    python -m repro serve publish --registry models/ --name sppb \\
        --train cohort.csv --target sppb

    # list published versions
    python -m repro serve versions --registry models/ --name sppb

    # score a cohort CSV end-to-end (micro-batched, cached, optionally
    # with per-row attribution reports; --jobs N splits each batch's
    # TreeSHAP work on cache misses over N worker processes)
    python -m repro serve score --registry models/ --name sppb \\
        --input visits.csv --out scored.csv --explain --jobs 4

    # serve scoring over HTTP (asyncio front end, hot model swap,
    # admission control, /metrics; see docs/serving-ops.md)
    python -m repro serve start --registry models/ --name sppb \\
        --port 8000 --jobs 4

``score`` appends a ``prediction`` column (plus ``probability`` for
classifiers) to the input table, writes per-row attribution reports next
to the output when ``--explain`` is given, and prints throughput plus
cache statistics.  The input table is **streamed in chunks**
(``--chunk-rows``) so peak memory is bounded by the chunk size, not the
cohort size, and the output CSV/report files are appended incrementally;
because the scoring engine is row-deterministic, chunked output is
byte-identical to whole-table scoring for any chunk size and worker
count.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path

import numpy as np

from repro.boosting import GBClassifier, GBConfig, GBRegressor
from repro.parallel.executor import resolve_jobs
from repro.serve.registry import ModelRegistry
from repro.serve.service import ScoreRequest, ScoringService
from repro.tabular.column import ColumnType
from repro.tabular.io import CsvBatchWriter, iter_csv_batches, read_csv
from repro.tabular.table import Table

__all__ = ["build_serve_parser", "main"]

_NUMERIC = (ColumnType.FLOAT, ColumnType.INT, ColumnType.BOOL)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Model registry + batched scoring over CSV tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pub = sub.add_parser("publish", help="fit a model and publish it")
    pub.add_argument("--registry", type=Path, required=True, metavar="DIR")
    pub.add_argument("--name", required=True, help="registry model name")
    pub.add_argument("--train", type=Path, required=True, metavar="CSV")
    pub.add_argument("--target", required=True, help="target column in CSV")
    pub.add_argument(
        "--kind",
        choices=("regressor", "classifier"),
        default="regressor",
    )
    pub.add_argument("--n-estimators", type=int, default=100)
    pub.add_argument("--max-depth", type=int, default=4)
    pub.add_argument("--learning-rate", type=float, default=0.1)

    ver = sub.add_parser("versions", help="list published versions")
    ver.add_argument("--registry", type=Path, required=True, metavar="DIR")
    ver.add_argument("--name", required=True)

    sc = sub.add_parser("score", help="score a cohort CSV")
    sc.add_argument("--registry", type=Path, required=True, metavar="DIR")
    sc.add_argument("--name", required=True)
    sc.add_argument("--tag", default=None, help="version tag (default latest)")
    sc.add_argument("--input", type=Path, required=True, metavar="CSV")
    sc.add_argument("--out", type=Path, required=True, metavar="CSV")
    sc.add_argument(
        "--explain",
        action="store_true",
        help="also write per-row attribution reports",
    )
    sc.add_argument(
        "--features",
        default=None,
        metavar="A,B,...",
        help="comma-separated feature columns; required when the "
        "published version carries no feature metadata",
    )
    sc.add_argument("--top-k", type=int, default=5)
    sc.add_argument("--batch-size", type=int, default=256)
    sc.add_argument("--cache-size", type=int, default=4096)
    sc.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="scoring worker processes (default: the REPRO_JOBS "
        "environment variable, else serial; 0 or -1 = one per CPU).  "
        "Output is byte-identical on every backend.",
    )
    sc.add_argument(
        "--chunk-rows",
        type=int,
        default=4096,
        metavar="N",
        help="stream the input CSV in chunks of N rows (bounds peak "
        "memory; does not change any output byte)",
    )

    st = sub.add_parser("start", help="serve scoring over HTTP")
    st.add_argument("--registry", type=Path, required=True, metavar="DIR")
    st.add_argument("--name", required=True)
    st.add_argument(
        "--tag",
        default=None,
        help="pin one version (default: follow LATEST and hot-swap)",
    )
    st.add_argument("--host", default="127.0.0.1")
    st.add_argument(
        "--port",
        type=int,
        default=8000,
        help="listen port (0 binds an ephemeral port)",
    )
    st.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="scoring worker processes (default: REPRO_JOBS, else "
        "serial; 0 or -1 = one per CPU).  Responses are byte-identical "
        "for every value.",
    )
    st.add_argument("--max-batch", type=int, default=64)
    st.add_argument(
        "--max-queue",
        type=int,
        default=256,
        metavar="ROWS",
        help="admission bound; beyond it posts get 429 + Retry-After",
    )
    st.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="registry LATEST poll period for hot swaps (0 disables)",
    )
    st.add_argument("--cache-size", type=int, default=4096)
    st.add_argument("--top-k", type=int, default=5)
    st.add_argument(
        "--task-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task stuck-worker deadline (default: the "
        "REPRO_TASK_DEADLINE environment variable, else none); an "
        "overdue worker is killed, its rows recomputed in-process "
        "(byte-identically), and the slot respawned",
    )
    st.add_argument(
        "--for-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve for a fixed duration then drain and exit "
        "(default: until SIGINT/SIGTERM)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_serve_parser().parse_args(argv)
    try:
        if args.command == "publish":
            return _publish(args)
        if args.command == "versions":
            return _versions(args)
        if args.command == "start":
            return _start(args)
        return _score(args)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


def _message(exc: Exception) -> str:
    # KeyError reprs its argument; unwrap for a readable CLI message.
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


def _numeric_matrix(table: Table, names: list[str]) -> np.ndarray:
    """Stack named columns into a float64 design matrix."""
    out = np.empty((table.num_rows, len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        if name not in table:
            raise KeyError(f"input table has no column {name!r}")
        if table.column(name).ctype not in _NUMERIC:
            raise ValueError(f"column {name!r} is not numeric")
        out[:, j] = np.asarray(table[name], dtype=np.float64)
    return out


def _numeric_names(table: Table, exclude: tuple[str, ...] = ()) -> list[str]:
    return [
        name
        for name in table.column_names
        if name not in exclude and table.column(name).ctype in _NUMERIC
    ]


def _publish(args: argparse.Namespace) -> int:
    table = read_csv(args.train)
    if args.target not in table:
        raise KeyError(f"training table has no target column {args.target!r}")
    features = _numeric_names(table, exclude=(args.target,))
    if not features:
        raise ValueError("training table has no numeric feature columns")
    X = _numeric_matrix(table, features)
    y = np.asarray(table[args.target], dtype=np.float64)

    config = GBConfig(
        n_estimators=args.n_estimators,
        max_depth=args.max_depth,
        learning_rate=args.learning_rate,
    )
    cls = GBClassifier if args.kind == "classifier" else GBRegressor
    model = cls(config).fit(X, y)

    registry = ModelRegistry(args.registry)
    version = registry.publish(
        args.name,
        model,
        metadata={
            "features": features,
            "target": args.target,
            "train_rows": table.num_rows,
            "source": args.train.name,
        },
    )
    print(f"published {version.ref}")
    print(f"  kind={version.kind} trees={version.n_trees} features={features}")
    return 0


def _versions(args: argparse.Namespace) -> int:
    registry = ModelRegistry(args.registry)
    latest = registry.resolve(args.name)
    for v in registry.versions(args.name):
        stamp = time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(v.created_at))
        marker = " (latest)" if v.tag == latest else ""
        nodes = "?" if v.n_nodes is None else str(v.n_nodes)
        compacted = ""
        if v.compaction is not None:
            compacted = (
                f" table_rows={v.compaction['table_rows']}"
                f" compression={v.compaction['ratio']:.2f}x"
            )
        print(
            f"{v.ref}  kind={v.kind} trees={v.n_trees} nodes={nodes} "
            f"bytes={v.size_on_disk}{compacted} "
            f"features={v.n_features} published={stamp}{marker}"
        )
    for tag, reason in registry.quarantined(args.name):
        print(
            f"{args.name}@{tag}  QUARANTINED: {reason} "
            "(re-publish the model to heal)"
        )
    return 0


def _start(args: argparse.Namespace) -> int:
    """Run the asyncio HTTP front end until a signal (or a deadline)."""
    from repro.serve.server import ScoringServer

    if args.for_seconds is not None and args.for_seconds < 0:
        raise ValueError("--for-seconds must be >= 0")
    server = ScoringServer(
        ModelRegistry(args.registry),
        args.name,
        tag=args.tag,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        poll_interval=args.poll_interval,
        cache_size=args.cache_size,
        top_k=args.top_k,
        task_deadline=args.task_deadline,
    )
    return asyncio.run(_serve_until_signal(args, server))


async def _serve_until_signal(args, server) -> int:
    import signal

    await server.start()
    workers = server.workers
    print(
        f"serving {server.model_ref} on http://{args.host}:{server.port} "
        f"({workers} worker{'s' if workers != 1 else ''}, "
        f"max_batch={args.max_batch}, max_queue={args.max_queue} rows)"
    )
    stop_requested = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list[int] = []
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_requested.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            pass  # non-unix event loop: --for-seconds still works
    try:
        if args.for_seconds is None:
            await stop_requested.wait()
        else:
            try:
                await asyncio.wait_for(
                    stop_requested.wait(), timeout=args.for_seconds
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.stop()
    stats = server.stats
    print(
        f"drained and stopped: {stats.posts} posts / {stats.rows} rows "
        f"answered, {stats.swaps} hot swaps, {stats.errors} errors"
    )
    return 0


def _score(args: argparse.Namespace) -> int:
    if args.batch_size < 1:
        raise ValueError("--batch-size must be >= 1")
    if args.chunk_rows < 1:
        raise ValueError("--chunk-rows must be >= 1")
    # Validate the output target up front: a bad --out must not waste a
    # full (potentially expensive) scoring run.
    _ensure_parent(args.out)
    registry = ModelRegistry(args.registry)
    version = registry.describe(args.name, args.tag)
    if args.features is not None:
        features = [name.strip() for name in args.features.split(",")]
    else:
        features = version.metadata.get("features")
    if features is None:
        raise ValueError(
            f"version {version.ref} carries no feature metadata; pass "
            "--features to name the input columns explicitly"
        )
    if len(features) != version.n_features:
        raise ValueError(
            f"{len(features)} feature columns named, but {version.ref} "
            f"was fitted on {version.n_features} features"
        )
    with ScoringService.from_registry(
        registry,
        args.name,
        args.tag,
        feature_names=list(features),
        n_jobs=resolve_jobs(args.jobs),
        cache_size=args.cache_size,
        top_k=args.top_k,
    ) as service:
        return _score_stream(args, service, version, list(features))


def _score_stream(args, service, version, features: list[str]) -> int:
    """Stream input chunks through the service, appending outputs.

    Peak memory holds one ``--chunk-rows`` chunk, its results and the
    model — never the whole cohort.  Chunking does not change a
    single output byte (the engine is row-deterministic and the cache
    is exact), asserted by the chunked-vs-whole driver test.
    """
    writer: CsvBatchWriter | None = None
    report_fh = None
    report_path = args.out.with_suffix(".reports.txt")
    n_rows = 0
    elapsed = 0.0
    has_probability = False
    try:
        for chunk in iter_csv_batches(args.input, args.chunk_rows):
            X = _numeric_matrix(chunk, features)
            t0 = time.perf_counter()
            results = []
            for start in range(0, X.shape[0], args.batch_size):
                block = X[start : start + args.batch_size]
                results.extend(
                    service.score_batch(
                        [
                            ScoreRequest(row=block[i], explain=args.explain)
                            for i in range(block.shape[0])
                        ]
                    )
                )
            elapsed += time.perf_counter() - t0

            scored = chunk.with_column(
                "prediction", np.asarray([r.prediction for r in results])
            )
            if results and results[0].probability is not None:
                has_probability = True
            if has_probability:
                scored = scored.with_column(
                    "probability", np.asarray([r.probability for r in results])
                )
            if writer is None:
                writer = CsvBatchWriter(args.out)
            writer.write(scored)

            if args.explain:
                if report_fh is None:
                    report_fh = report_path.open("w", encoding="utf-8")
                for i, result in enumerate(results, start=n_rows):
                    if i > 0:
                        report_fh.write("\n")
                    report_fh.write(
                        f"# row {i}\n{result.explanation.render()}\n"
                    )
            n_rows += len(results)

        if writer is None:
            # Header-only (or headerless) input: fall back to the
            # whole-table path so the output mirrors the input shape —
            # still validating that the feature columns exist.  Zero
            # rows cannot anchor type inference, so the feature columns
            # are pinned to FLOAT explicitly.
            table = read_csv(
                args.input,
                types={name: ColumnType.FLOAT for name in features},
            )
            _numeric_matrix(table, features)
            scored = table.with_column(
                "prediction", np.empty(0, dtype=np.float64)
            )
            writer = CsvBatchWriter(args.out)
            writer.write(scored)
            if args.explain:
                report_path.write_text("", encoding="utf-8")
    finally:
        if writer is not None:
            writer.close()
        if report_fh is not None:
            report_fh.close()

    print(f"scored {n_rows} rows with {version.ref} -> {args.out}")
    if args.explain:
        print(f"wrote {n_rows} attribution reports -> {report_path}")
    cache = service.cache_stats
    rate = n_rows / elapsed if elapsed > 0 else float("inf")
    workers = f", {service.workers} workers" if service.workers > 1 else ""
    print(
        f"  {elapsed:.3f}s ({rate:.0f} rows/s{workers}), cache hit rate "
        f"{100 * cache.hit_rate:.1f}% ({cache.hits} hits / {cache.misses} misses)"
    )
    return 0


def _ensure_parent(path: Path) -> None:
    parent = path.parent
    if not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise ValueError(f"--out {path} is a directory, expected a file path")
