"""Round-trip tests for cohort persistence."""

import json

import numpy as np
import pytest

from repro.cohort import load_cohort, save_cohort
from repro.pipeline import build_dd_samples


class TestRoundTrip:
    def test_tables_identical(self, small_cohort, tmp_path):
        save_cohort(small_cohort, tmp_path)
        restored = load_cohort(tmp_path)
        assert restored.patients == small_cohort.patients
        assert restored.daily == small_cohort.daily
        assert restored.pro == small_cohort.pro
        assert restored.visits == small_cohort.visits
        assert restored.latent == small_cohort.latent

    def test_config_identical(self, small_cohort, tmp_path):
        save_cohort(small_cohort, tmp_path)
        restored = load_cohort(tmp_path)
        assert restored.config == small_cohort.config

    def test_missing_values_preserved(self, small_cohort, tmp_path):
        save_cohort(small_cohort, tmp_path)
        restored = load_cohort(tmp_path)
        original_nan = np.isnan(small_cohort.pro["pro_loc_01"])
        restored_nan = np.isnan(restored.pro["pro_loc_01"])
        assert np.array_equal(original_nan, restored_nan)

    def test_pipeline_runs_on_restored_cohort(self, small_cohort, tmp_path):
        save_cohort(small_cohort, tmp_path)
        restored = load_cohort(tmp_path)
        original = build_dd_samples(small_cohort, "qol", with_fi=True)
        roundtrip = build_dd_samples(restored, "qol", with_fi=True)
        assert np.array_equal(original.y, roundtrip.y)
        assert np.array_equal(
            np.isnan(original.X), np.isnan(roundtrip.X)
        )

    def test_expected_files_written(self, small_cohort, tmp_path):
        save_cohort(small_cohort, tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "patients.csv",
            "daily.csv",
            "pro.csv",
            "visits.csv",
            "latent.csv",
            "config.json",
        }


class TestErrors:
    def test_missing_config_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config"):
            load_cohort(tmp_path)

    def test_missing_table_rejected(self, small_cohort, tmp_path):
        save_cohort(small_cohort, tmp_path)
        (tmp_path / "visits.csv").unlink()
        with pytest.raises(FileNotFoundError, match="visits"):
            load_cohort(tmp_path)

    @pytest.mark.parametrize(
        "path, field",
        [
            (("mean_gap_length",), "mean_gap_length"),
            (("clinics", 2, "protocol_noise"), "protocol_noise"),
            (("domain_noise_sd",), "domain_noise_sd"),
        ],
    )
    def test_nan_in_config_rejected(self, small_cohort, tmp_path, path, field):
        # json.loads parses a bare NaN; the config must refuse it by name
        # instead of generating a cohort from it (or failing deep inside).
        save_cohort(small_cohort, tmp_path)
        config_path = tmp_path / "config.json"
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = float("nan")
        text = json.dumps(doc)
        assert "NaN" in text
        config_path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=field):
            load_cohort(tmp_path)
