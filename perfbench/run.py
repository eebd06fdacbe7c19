"""The repository's benchmark, one workload per invocation.

Run from the repository root::

    python3 -m perfbench.run --workload serve_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (untraced); ``--trace 1``
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a ``meta`` record
(host, calibration kernel, input properties, every set-up time).

Each set-up and each measured segment runs in a fresh child process
(:mod:`perfbench.worker`) started with ``PYTHONPATH=src``.  An untraced
run sets up :data:`SETUPS` times and reports the median as ``setup_s``,
each set-up rescaled to the reference host speed
(:mod:`perfbench.hostspeed`).  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock budget of one invocation, children included.
BUDGET_S = 175.0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed interpreter + numpy kernel (host speed)."""
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        np.sort(data)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def host_record() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
    }


def spawn(args, mode: str, workdir: Path, deadline: float) -> dict:
    """Run one worker process; return its JSON result."""
    t0 = time.monotonic()
    command = [
        sys.executable,
        "-m",
        "perfbench.worker",
        "--workload",
        args.workload,
        "--mode",
        mode,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--t0",
        repr(t0),
        "--workdir",
        str(workdir),
    ]
    if args.patients is not None:
        command += ["--patients", str(args.patients)]
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(ROOT), env.get("PYTHONPATH")) if p
    )
    env.pop("REPRO_JOBS", None)  # the program's serial default
    child = subprocess.Popen(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        start_new_session=True,  # one group, killed as a whole
    )
    try:
        out, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"{mode} worker exceeded the time budget")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stragglers of the group
        except ProcessLookupError:
            pass
    if child.returncode != 0:
        raise BenchError(f"{mode} worker exited with {child.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return ``(result, meta)``."""
    deadline = time.monotonic() + BUDGET_S
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(),
        "calibration_ms_before": calibration_ms(),
    }
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            out = spawn(args, "trace", workdir, deadline)
            units = metric_units("per_layer")
        else:
            setups = [
                spawn(args, "setup", workdir / f"setup{i}", deadline)["setup"]
                for i in range(SETUPS - 1)
            ]
            out = spawn(args, "run", workdir / "run", deadline)
            setups.append(out["setup"])
            out["metrics"]["setup_s"] = statistics.median(
                s["setup_s"] for s in setups
            )
            meta["setups"] = setups
            units = metric_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    meta["calibration_ms_after"] = calibration_ms()
    meta["inputs"] = out["inputs"]
    meta["timing"] = out["timing"]
    missing = set(units) - set(out["metrics"])
    if missing:
        raise BenchError(f"metrics missing: {sorted(missing)}")
    result = {
        "correct": out["failed"] == 0 and out["attempted"] >= 1,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, meta


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m perfbench.run")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--patients",
        type=int,
        default=None,
        help="scale the cohort down to about this many patients (self-tests)",
    )
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the worker's process group is
    # killed and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, meta = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
