"""Tests for the ``python -m repro serve`` offline driver."""

import numpy as np
import pytest

from repro.serve.driver import main as serve_main
from repro.tabular.io import read_csv, write_csv
from repro.tabular.table import Table


@pytest.fixture()
def csv_pair(tmp_path):
    """A training CSV (with target) and a visits CSV (features only)."""
    rng = np.random.default_rng(4)
    n = 90
    cols = {f"x{i}": rng.normal(size=n) for i in range(4)}
    cols["x1"][rng.random(n) < 0.2] = np.nan
    cols["sppb"] = (
        2.0 * cols["x0"] - np.nan_to_num(cols["x1"]) + rng.normal(0, 0.1, n)
    )
    table = Table(cols)
    train = tmp_path / "train.csv"
    visits = tmp_path / "visits.csv"
    write_csv(table, train)
    write_csv(table.drop(["sppb"]), visits)
    return train, visits


def _publish(tmp_path, train, name="sppb", extra=()):
    return serve_main(
        [
            "publish",
            "--registry",
            str(tmp_path / "registry"),
            "--name",
            name,
            "--train",
            str(train),
            "--target",
            "sppb",
            "--n-estimators",
            "15",
            *extra,
        ]
    )


class TestPublish:
    def test_publish_prints_reference(self, tmp_path, csv_pair, capsys):
        train, _ = csv_pair
        assert _publish(tmp_path, train) == 0
        out = capsys.readouterr().out
        assert "published sppb@" in out
        assert "trees=15" in out

    def test_missing_target_is_clean_error(self, tmp_path, csv_pair, capsys):
        _, visits = csv_pair  # has no sppb column
        assert _publish(tmp_path, visits) == 2
        assert "no target column" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        assert _publish(tmp_path, tmp_path / "nope.csv") == 2
        assert "error:" in capsys.readouterr().err


class TestScore:
    def test_score_end_to_end(self, tmp_path, csv_pair, capsys):
        train, visits = csv_pair
        assert _publish(tmp_path, train) == 0
        out_csv = tmp_path / "scored.csv"
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(visits),
                "--out",
                str(out_csv),
                "--explain",
                "--batch-size",
                "32",
            ]
        )
        assert rc == 0
        scored = read_csv(out_csv)
        assert "prediction" in scored
        assert scored.num_rows == read_csv(visits).num_rows
        reports = out_csv.with_suffix(".reports.txt").read_text()
        assert "# row 0" in reports and "prediction =" in reports
        assert "rows/s" in capsys.readouterr().out

    def test_predictions_match_library_path(self, tmp_path, csv_pair):
        from repro.serve import ModelRegistry

        train, visits = csv_pair
        _publish(tmp_path, train)
        out_csv = tmp_path / "scored.csv"
        serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(visits),
                "--out",
                str(out_csv),
            ]
        )
        registry = ModelRegistry(tmp_path / "registry")
        model = registry.load("sppb")
        features = registry.describe("sppb").metadata["features"]
        table = read_csv(visits)
        X = np.column_stack(
            [np.asarray(table[f], dtype=np.float64) for f in features]
        )
        assert np.array_equal(read_csv(out_csv)["prediction"], model.predict(X))

    def test_unknown_model_is_clean_error(self, tmp_path, csv_pair, capsys):
        train, visits = csv_pair
        _publish(tmp_path, train)
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "ghost",
                "--input",
                str(visits),
                "--out",
                str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 2
        assert "no model named" in capsys.readouterr().err

    def test_out_directory_is_clean_error(self, tmp_path, csv_pair, capsys):
        train, visits = csv_pair
        _publish(tmp_path, train)
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(visits),
                "--out",
                str(tmp_path),  # existing directory, not a file
            ]
        )
        assert rc == 2
        assert "is a directory" in capsys.readouterr().err

    def test_missing_feature_metadata_requires_features_flag(
        self, tmp_path, csv_pair, capsys
    ):
        from repro.serve import ModelRegistry
        from repro.boosting import GBRegressor

        train, visits = csv_pair
        table = read_csv(train)
        X = np.column_stack(
            [np.asarray(table[f"x{i}"], dtype=np.float64) for i in range(4)]
        )
        model = GBRegressor(n_estimators=5, max_depth=2).fit(
            X, np.asarray(table["sppb"], dtype=np.float64)
        )
        # Published without metadata: scoring must not guess columns.
        ModelRegistry(tmp_path / "registry").publish("bare", model)
        common = [
            "score",
            "--registry",
            str(tmp_path / "registry"),
            "--name",
            "bare",
            "--input",
            str(visits),
            "--out",
            str(tmp_path / "s.csv"),
        ]
        assert serve_main(common) == 2
        assert "--features" in capsys.readouterr().err

        assert serve_main([*common, "--features", "x0,x1"]) == 2
        assert "fitted on 4 features" in capsys.readouterr().err

        assert serve_main([*common, "--features", "x0,x1,x2,x3"]) == 0
        predictions = read_csv(tmp_path / "s.csv")["prediction"]
        assert np.array_equal(predictions, model.predict(X))

    def test_bad_batch_size_is_clean_error(self, tmp_path, csv_pair, capsys):
        train, visits = csv_pair
        _publish(tmp_path, train)
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(visits),
                "--out",
                str(tmp_path / "s.csv"),
                "--batch-size",
                "0",
            ]
        )
        assert rc == 2
        assert "--batch-size" in capsys.readouterr().err


class TestVersions:
    def test_versions_marks_latest(self, tmp_path, csv_pair, capsys):
        train, _ = csv_pair
        _publish(tmp_path, train)
        _publish(tmp_path, train, extra=("--max-depth", "2"))
        capsys.readouterr()
        rc = serve_main(
            [
                "versions",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
            ]
        )
        assert rc == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines() if line
        ]
        assert len(lines) == 2
        assert sum("(latest)" in line for line in lines) == 1

    def test_versions_reports_size_and_compaction(
        self, tmp_path, csv_pair, capsys
    ):
        from repro.serve import ModelRegistry

        train, _ = csv_pair
        _publish(tmp_path, train)
        capsys.readouterr()
        assert (
            serve_main(
                [
                    "versions",
                    "--registry",
                    str(tmp_path / "registry"),
                    "--name",
                    "sppb",
                ]
            )
            == 0
        )
        line = capsys.readouterr().out.splitlines()[0]
        version = ModelRegistry(tmp_path / "registry").versions("sppb")[0]
        assert f"trees={version.n_trees}" in line
        assert f"nodes={version.n_nodes}" in line
        assert f"bytes={version.size_on_disk}" in line
        assert version.n_nodes == version.compaction["nodes"]
        assert (
            f"table_rows={version.compaction['table_rows']}"
            f" compression={version.compaction['ratio']:.2f}x" in line
        )
        assert version.size_on_disk > 0

    def test_classifier_kind_publishes(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        n = 80
        cols = {"x0": rng.normal(size=n), "x1": rng.normal(size=n)}
        cols["sppb"] = (cols["x0"] > 0).astype(float)
        train = tmp_path / "train.csv"
        write_csv(Table(cols), train)
        assert _publish(tmp_path, train, extra=("--kind", "classifier")) == 0
        assert "kind=classifier" in capsys.readouterr().out


class TestChunkedStreaming:
    """The streamed scorer is byte-identical to whole-table scoring."""

    def _score(self, tmp_path, visits, out, extra=()):
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(visits),
                "--out",
                str(out),
                "--explain",
                "--batch-size",
                "16",
                *extra,
            ]
        )
        assert rc == 0

    def test_chunked_equals_whole(self, tmp_path, csv_pair):
        train, visits = csv_pair
        _publish(tmp_path, train)
        self._score(
            tmp_path, visits, tmp_path / "whole.csv",
            ("--chunk-rows", "100000"),
        )
        self._score(
            tmp_path, visits, tmp_path / "chunked.csv", ("--chunk-rows", "7")
        )
        assert (tmp_path / "chunked.csv").read_bytes() == (
            tmp_path / "whole.csv"
        ).read_bytes()
        assert (tmp_path / "chunked.reports.txt").read_bytes() == (
            tmp_path / "whole.reports.txt"
        ).read_bytes()

    def test_multiworker_equals_serial(self, tmp_path, csv_pair, capsys):
        train, visits = csv_pair
        _publish(tmp_path, train)
        self._score(tmp_path, visits, tmp_path / "serial.csv")
        self._score(
            tmp_path, visits, tmp_path / "jobs.csv",
            ("--jobs", "2", "--chunk-rows", "13"),
        )
        assert (tmp_path / "jobs.csv").read_bytes() == (
            tmp_path / "serial.csv"
        ).read_bytes()
        assert (tmp_path / "jobs.reports.txt").read_bytes() == (
            tmp_path / "serial.reports.txt"
        ).read_bytes()
        assert "2 workers" in capsys.readouterr().out

    def test_header_only_input(self, tmp_path, csv_pair):
        train, _ = csv_pair
        _publish(tmp_path, train)
        empty = tmp_path / "empty.csv"
        empty.write_text("x0,x1,x2,x3\n")
        out = tmp_path / "scored.csv"
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(empty),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        scored = read_csv(out)
        assert scored.num_rows == 0
        assert "prediction" in scored

    def test_bad_chunk_rows_is_clean_error(self, tmp_path, csv_pair, capsys):
        train, visits = csv_pair
        _publish(tmp_path, train)
        rc = serve_main(
            [
                "score",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--input",
                str(visits),
                "--out",
                str(tmp_path / "s.csv"),
                "--chunk-rows",
                "0",
            ]
        )
        assert rc == 2
        assert "--chunk-rows" in capsys.readouterr().err


class TestStart:
    def test_start_help_parses(self, capsys):
        from repro.serve.driver import build_serve_parser

        with pytest.raises(SystemExit) as excinfo:
            build_serve_parser().parse_args(["start", "--help"])
        assert excinfo.value.code == 0

    def test_start_serves_then_drains(self, tmp_path, csv_pair, capsys):
        train, _visits = csv_pair
        _publish(tmp_path, train)
        rc = serve_main(
            [
                "start",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "sppb",
                "--port",
                "0",
                "--poll-interval",
                "0",
                "--for-seconds",
                "0.2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving sppb@" in out
        assert "drained and stopped" in out

    def test_start_unknown_model_is_clean_error(self, tmp_path, capsys):
        (tmp_path / "registry").mkdir()
        rc = serve_main(
            [
                "start",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "nope",
                "--for-seconds",
                "0.1",
            ]
        )
        assert rc == 2
        assert "no model named" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_start_non_finite_deadline_is_clean_error(
        self, tmp_path, capsys, value
    ):
        (tmp_path / "registry").mkdir()
        rc = serve_main(
            [
                "start",
                "--registry",
                str(tmp_path / "registry"),
                "--name",
                "nope",
                "--task-deadline",
                value,
            ]
        )
        assert rc == 2
        assert "task_deadline must be finite" in capsys.readouterr().err
