"""Unit tests for repro.cohort.config."""

import numpy as np
import pytest

from repro.cohort import ClinicConfig, CohortConfig


class TestClinicConfig:
    def test_defaults_valid(self):
        ClinicConfig("x", 10)

    def test_zero_patients_rejected(self):
        with pytest.raises(ValueError, match="n_patients"):
            ClinicConfig("x", 0)

    def test_health_mean_bounds(self):
        with pytest.raises(ValueError, match="health_mean"):
            ClinicConfig("x", 10, health_mean=1.0)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            ClinicConfig("x", 10, health_spread=-0.1)

    def test_missing_rate_bounds(self):
        with pytest.raises(ValueError, match="missing_rate"):
            ClinicConfig("x", 10, missing_rate=1.0)


class TestCohortConfig:
    def test_default_matches_paper(self):
        cfg = CohortConfig()
        assert cfg.n_patients == 261
        assert cfg.n_months == 18
        assert cfg.n_windows == 2
        assert cfg.visit_months == (0, 9, 18)

    def test_default_clinic_sizes(self):
        sizes = {c.name: c.n_patients for c in CohortConfig().clinics}
        assert sizes == {"modena": 128, "sydney": 100, "hong_kong": 33}

    def test_window_months_first(self):
        assert CohortConfig().window_months(1) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_window_months_second(self):
        assert CohortConfig().window_months(2) == [10, 11, 12, 13, 14, 15, 16, 17]

    def test_window_out_of_range(self):
        with pytest.raises(ValueError, match="window"):
            CohortConfig().window_months(3)

    def test_non_multiple_of_nine_rejected(self):
        with pytest.raises(ValueError, match="multiple of 9"):
            CohortConfig(n_months=12)

    def test_duplicate_clinics_rejected(self):
        clinic = ClinicConfig("x", 5)
        with pytest.raises(ValueError, match="duplicate"):
            CohortConfig(clinics=(clinic, clinic))

    def test_empty_clinics_rejected(self):
        with pytest.raises(ValueError, match="clinic"):
            CohortConfig(clinics=())

    def test_falls_rate_bounds(self):
        with pytest.raises(ValueError, match="falls_base_rate"):
            CohortConfig(falls_base_rate=0.0)

    def test_max_gap_bounds(self):
        with pytest.raises(ValueError, match="max_gap_length"):
            CohortConfig(max_gap_length=0)

    def test_longer_study_supported(self):
        cfg = CohortConfig(n_months=27)
        assert cfg.n_windows == 3
        assert cfg.visit_months == (0, 9, 18, 27)


# Every numeric field rejects NaN, infinities and out-of-range values with
# a ValueError that names the field (configs also arrive from JSON, which
# parses NaN).
_NAN, _INF = float("nan"), float("inf")

CLINIC_BAD_VALUES = {
    "n_patients": [0, -3, 2.5, _NAN, True],
    "health_mean": [_NAN, _INF, 0.0, 1.0, -0.2],
    "health_spread": [_NAN, _INF, -0.1],
    "protocol_noise": [_NAN, _INF, -_INF, -0.01],
    "missing_rate": [_NAN, _INF, 1.0, -0.1],
}

COHORT_BAD_VALUES = {
    "seed": [1.5, _NAN, "7", False],
    "n_months": [0, 9.0, _NAN, 12],
    "days_per_month": [0, 30.0, _NAN],
    "ageing_drift_per_month": [_NAN, _INF, -1.5, 2.0],
    "health_phi": [_NAN, _INF, 1.0, -0.1],
    "health_sigma": [_NAN, _INF, -0.01],
    "domain_offset_sd": [_NAN, _INF, -0.1],
    "domain_noise_sd": [_NAN, _INF, -0.1],
    "mean_gap_length": [_NAN, _INF, 0.5],
    "max_gap_length": [0, 17.0, _NAN],
    "falls_base_rate": [_NAN, _INF, 0.0, 1.0],
}


class TestClinicFieldValidation:
    @pytest.mark.parametrize("field", sorted(CLINIC_BAD_VALUES))
    def test_field_rejects_garbage(self, field):
        for value in CLINIC_BAD_VALUES[field]:
            with pytest.raises(ValueError, match=field):
                ClinicConfig("x", **{"n_patients": 10, field: value})

    def test_boundary_values_accepted(self):
        ClinicConfig("x", 1, health_spread=0.0, protocol_noise=0.0, missing_rate=0.0)


class TestCohortFieldValidation:
    @pytest.mark.parametrize("field", sorted(COHORT_BAD_VALUES))
    def test_field_rejects_garbage(self, field):
        for value in COHORT_BAD_VALUES[field]:
            with pytest.raises(ValueError, match=field):
                CohortConfig(**{field: value})

    def test_boundary_values_accepted(self):
        CohortConfig(
            seed=-4,
            n_months=9,
            days_per_month=1,
            ageing_drift_per_month=0.0,
            health_phi=0.0,
            health_sigma=0.0,
            domain_offset_sd=0.0,
            domain_noise_sd=0.0,
            mean_gap_length=1.0,
            max_gap_length=1,
        )

    def test_numpy_scalars_accepted(self):
        cfg = CohortConfig(seed=np.int64(3), health_phi=np.float64(0.5))
        assert cfg.health_phi == 0.5
