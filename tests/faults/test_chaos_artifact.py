"""Chaos-run artifact: recovery counters written for the CI upload.

Gated behind ``REPRO_CHAOS_ARTEFACT=1`` so local runs stay quiet; the
CI ``chaos`` job sets it and uploads ``results/chaos_metrics.json`` so
a red chaos matrix comes with the counters that explain it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.faults import fault_plan
from repro.parallel import ShardedPool

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_CHAOS_ARTEFACT") != "1",
    reason="chaos artifact only written when REPRO_CHAOS_ARTEFACT=1",
)

# The suite conftest strips the ambient schedule per test (chaos tests
# own their plans), so record the CI matrix cell's schedule at import
# time — this is what the artifact should attribute its counters to.
_AMBIENT_PLAN = os.environ.get("REPRO_FAULTS", "")


def _shard_sum(payload, state):
    return float(state["X"][payload].sum()) + payload


def test_writes_recovery_counters_artifact():
    X = np.arange(4096.0).reshape(64, 64)
    pool = ShardedPool(n_jobs=2, state={"X": X})
    if pool.workers != 2:
        pool.close()
        pytest.skip("process backend unavailable")
    tasks = [(i % 4, i) for i in range(8)]
    reference = [_shard_sum(payload, {"X": X}) for _, payload in tasks]
    try:
        with fault_plan("kill@shard.send:w=0:n=0"):
            assert pool.scatter(_shard_sum, tasks) == reference
            assert pool.scatter(_shard_sum, tasks) == reference
        payload = {
            "env_plan": _AMBIENT_PLAN,
            "jobs": pool.workers,
            "recovery": {
                "workers_respawned": pool.workers_respawned,
                "deadline_kills": pool.deadline_kills,
                "workers_alive": pool.workers_alive,
            },
        }
    finally:
        pool.close()
    out = Path("results")
    out.mkdir(exist_ok=True)
    path = out / "chaos_metrics.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    written = json.loads(path.read_text(encoding="utf-8"))
    assert written["recovery"]["workers_respawned"] >= 1
