"""Per-rule positive/negative coverage for the REP rule pack.

Each rule has a pair of fixture files under ``fixtures/`` (scoped by
in-file ``# repro: scope[...]`` markers, exactly as real modules would
opt in) plus inline edge cases exercised through ``lint_source``.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"

RULE_IDS = [f"REP{i:03d}" for i in range(1, 8)]


def rules_in(report):
    return {finding.rule for finding in report.findings}


class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_positive_fixture_flags_its_rule(self, rule_id):
        report = lint_file(FIXTURES / f"{rule_id.lower()}_pos.py")
        assert not report.clean
        assert rules_in(report) == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_negative_fixture_is_clean(self, rule_id):
        report = lint_file(FIXTURES / f"{rule_id.lower()}_neg.py")
        assert report.clean, [f.render() for f in report.findings]

    def test_malformed_pragmas_are_rep000(self):
        report = lint_file(FIXTURES / "pragma_pos.py")
        assert "REP000" in rules_in(report)
        # The unjustified allow did NOT silence the wall-clock finding.
        assert "REP002" in rules_in(report)

    def test_justified_pragmas_suppress(self):
        report = lint_file(FIXTURES / "pragma_neg.py")
        assert report.clean
        assert len(report.suppressed) == 2
        assert all(s.reason for s in report.suppressed)


class TestConsingFixtures:
    """Rule coverage shaped like the hash-consing pass in boosting.dag.

    The compaction pass is reproducible because it iterates the intern
    table in canonical insertion order (or sorted) and never reaches
    for an RNG to break ties.  The positive fixture commits both sins;
    the negative mirrors how ``CompactEnsemble.from_ensemble`` works.
    """

    def test_positive_flags_iteration_and_rng(self):
        report = lint_file(FIXTURES / "consing_pos.py")
        assert rules_in(report) == {"REP002", "REP007"}
        # Both the for-loop sweep and the comprehension are caught.
        assert (
            sum(f.rule == "REP007" for f in report.findings) == 2
        ), [f.render() for f in report.findings]

    def test_negative_consing_shape_is_clean(self):
        report = lint_file(FIXTURES / "consing_neg.py")
        assert report.clean, [f.render() for f in report.findings]


ROW_DET = frozenset({"row-deterministic"})


class TestRep001Edges:
    def test_axis_kwarg_is_fixed(self):
        src = "def f(x):\n    return x.sum(axis=-1)\n"
        assert lint_source(src, tags=ROW_DET).clean

    def test_positional_axis_is_fixed(self):
        src = "def f(x):\n    return x.sum(1)\n"
        assert lint_source(src, tags=ROW_DET).clean

    def test_axis_none_is_not_fixed(self):
        src = "def f(x):\n    return x.sum(axis=None)\n"
        assert rules_in(lint_source(src, tags=ROW_DET)) == {"REP001"}

    def test_np_sum_positional_axis(self):
        src = "import numpy as np\n\ndef f(x):\n    return np.sum(x, 0)\n"
        assert lint_source(src, tags=ROW_DET).clean

    def test_np_sum_without_axis_flagged(self):
        src = "import numpy as np\n\ndef f(x):\n    return np.sum(x)\n"
        assert rules_in(lint_source(src, tags=ROW_DET)) == {"REP001"}

    def test_matmul_operator_flagged(self):
        src = "def f(a, b):\n    return a @ b\n"
        assert rules_in(lint_source(src, tags=ROW_DET)) == {"REP001"}

    def test_method_dot_flagged(self):
        src = "def f(a, b):\n    return a.dot(b)\n"
        assert rules_in(lint_source(src, tags=ROW_DET)) == {"REP001"}

    def test_out_of_scope_module_untouched(self):
        src = "def f(x):\n    return x.sum()\n"
        assert lint_source(src, tags=frozenset()).clean


FLOAT64_SUMS = frozenset({"float64-sums"})


class TestRep004Edges:
    def test_narrowing_dtype_on_the_sum_flagged(self):
        # The operand carries no dtype evidence; the call's own dtype
        # argument sets a float32 accumulator.
        src = (
            "import numpy as np\n\n"
            "def f(hist, out):\n"
            "    np.cumsum(hist, axis=2, dtype=np.float32, out=out)\n"
        )
        assert rules_in(lint_source(src, tags=FLOAT64_SUMS)) == {"REP004"}

    def test_runtime_dtype_on_the_sum_flagged(self):
        src = "def f(hist, dt):\n    return hist.cumsum(axis=-1, dtype=dt)\n"
        assert rules_in(lint_source(src, tags=FLOAT64_SUMS)) == {"REP004"}

    def test_float64_dtype_on_the_sum_is_clean(self):
        src = "import numpy as np\n\ndef f(h):\n    return h.sum(dtype=np.float64)\n"
        assert lint_source(src, tags=FLOAT64_SUMS).clean


class TestScopeResolution:
    def test_package_defaults_apply_by_path(self, tmp_path):
        pkg = tmp_path / "repro" / "explain"
        pkg.mkdir(parents=True)
        file = pkg / "thing.py"
        file.write_text("def f(x):\n    return x.sum()\n", encoding="utf-8")
        assert rules_in(lint_file(file)) == {"REP001"}

    def test_marker_adds_scope_beyond_package_default(self, tmp_path):
        file = tmp_path / "loose.py"
        file.write_text(
            "# repro: scope[row-deterministic]\n"
            "def f(x):\n"
            "    return x.sum()\n",
            encoding="utf-8",
        )
        assert rules_in(lint_file(file)) == {"REP001"}

    def test_unknown_scope_tag_is_rep000(self):
        src = "# repro: scope[made-up-tag]\n"
        assert rules_in(lint_source(src)) == {"REP000"}

    def test_syntax_error_is_rep000(self):
        assert rules_in(lint_source("def broken(:\n")) == {"REP000"}


class TestRep005Edges:
    def test_unlocked_class_is_not_governed(self):
        src = (
            "class Plain:\n"
            "    def put(self, k, v):\n"
            "        self._cache[k] = v\n"
        )
        assert lint_source(src).clean

    def test_augassign_write_flagged(self):
        src = (
            "import threading\n\n"
            "class Memo:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._hits = 0\n"
            "    def bump(self):\n"
            "        self._hits += 1\n"
        )
        assert rules_in(lint_source(src)) == {"REP005"}


class TestRep006Edges:
    def test_state_kwarg_lambda_flagged(self):
        src = (
            "from repro.parallel import ShardedPool\n\n"
            "def build():\n"
            "    return ShardedPool(state=lambda a: a)\n"
        )
        assert rules_in(lint_source(src)) == {"REP006"}

    def test_state_kwarg_local_def_flagged(self):
        src = (
            "from repro.parallel import parallel_map\n\n"
            "def unit(item, state):\n"
            "    return item\n\n"
            "def run(items):\n"
            "    def local(x):\n"
            "        return x\n"
            "    return parallel_map(unit, items, state=local)\n"
        )
        assert rules_in(lint_source(src)) == {"REP006"}

    def test_scatter_method_checked(self):
        src = (
            "def run(pool, tasks):\n"
            "    return pool.scatter(lambda payload, state: payload, tasks)\n"
        )
        assert rules_in(lint_source(src)) == {"REP006"}

    def test_module_level_function_ok(self):
        src = (
            "from repro.parallel import parallel_map\n\n"
            "def unit(item, state):\n"
            "    return item\n\n"
            "def run(items):\n"
            "    return parallel_map(unit, items)\n"
        )
        assert lint_source(src).clean


class TestFindingOrderStability:
    def test_findings_sorted_by_location(self):
        src = (
            "import numpy as np\n\n"
            "def f(x):\n"
            "    return np.sum(x)\n\n"
            "def g(a, b):\n"
            "    return a @ b\n"
        )
        report = lint_source(src, tags=ROW_DET)
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)
