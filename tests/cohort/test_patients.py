"""Unit tests for repro.cohort.patients (latent trajectories)."""

import numpy as np
import pytest

from repro.cohort import CohortConfig
from repro.cohort.patients import PatientLatent, generate_patients
from repro.cohort.schema import IC_DOMAINS
from repro.synth import SeedSequenceFactory

from tests.conftest import small_config


@pytest.fixture(scope="module")
def patients():
    cfg = small_config()
    return cfg, generate_patients(cfg, SeedSequenceFactory(cfg.seed))


class TestGeneration:
    def test_total_count(self, patients):
        cfg, pats = patients
        assert len(pats) == cfg.n_patients

    def test_ids_unique(self, patients):
        _, pats = patients
        ids = [p.patient_id for p in pats]
        assert len(set(ids)) == len(ids)

    def test_ids_carry_clinic(self, patients):
        _, pats = patients
        assert all(p.patient_id.startswith(p.clinic) for p in pats)

    def test_deterministic(self, patients):
        cfg, pats = patients
        again = generate_patients(cfg, SeedSequenceFactory(cfg.seed))
        assert all(
            np.array_equal(a.health, b.health) for a, b in zip(pats, again)
        )

    def test_different_seed_differs(self, patients):
        cfg, pats = patients
        other = generate_patients(cfg, SeedSequenceFactory(cfg.seed + 1))
        assert not np.array_equal(pats[0].health, other[0].health)


class TestLatents:
    def test_health_in_unit_interval(self, patients):
        _, pats = patients
        for p in pats:
            assert p.health.min() >= 0.0 and p.health.max() <= 1.0

    def test_health_length_covers_all_months(self, patients):
        cfg, pats = patients
        assert all(len(p.health) == cfg.n_months + 1 for p in pats)

    def test_all_domains_present(self, patients):
        _, pats = patients
        assert set(pats[0].domain_scores) == set(IC_DOMAINS)

    def test_domain_scores_bounded(self, patients):
        _, pats = patients
        for p in pats[:5]:
            for path in p.domain_scores.values():
                assert path.min() >= 0.0 and path.max() <= 1.0

    def test_domains_correlate_with_health(self, patients):
        _, pats = patients
        # Pool across patients: domain scores are health plus noise.
        health = np.concatenate([p.health for p in pats])
        loco = np.concatenate([p.domain_scores["locomotion"] for p in pats])
        assert np.corrcoef(health, loco)[0, 1] > 0.5

    def test_domain_offsets_differ_between_patients(self, patients):
        _, pats = patients
        gaps = [
            float(np.mean(p.domain_scores["cognition"] - p.health)) for p in pats
        ]
        assert np.std(gaps) > 0.02  # persistent per-patient offsets

    def test_ageing_drift_declines_on_average(self):
        cfg = small_config()
        pats = generate_patients(cfg, SeedSequenceFactory(123))
        start = np.mean([p.health[:3].mean() for p in pats])
        end = np.mean([p.health[-3:].mean() for p in pats])
        assert end < start  # negative drift dominates over 18 months

    def test_demographics_ranges(self, patients):
        _, pats = patients
        for p in pats:
            assert 50 <= p.age <= 85  # OPLWH cohort is 50+
            assert 1 <= p.years_with_hiv <= 40

    def test_helper_accessors(self, patients):
        cfg, pats = patients
        p = pats[0]
        assert p.health_at(0) == pytest.approx(float(p.health[0]))
        months = np.array([cfg.window_months(1)])
        assert p.window_means(months)[0] == np.mean(p.health[months[0]])
        assert p.window_means(months, "vitality")[0] == np.mean(
            p.domain_scores["vitality"][months[0]]
        )

    def test_window_means_match_per_window_np_mean(self):
        """The batched row means equal per-slice ``np.mean`` bit for bit.

        Random 73-month paths (the paper-scale 72-month cohort): each of
        the eight 8-month windows is compared against ``np.mean`` of its
        own 1-D slice, which rounds as the outcome model expects.
        """
        cfg = CohortConfig(n_months=72)
        months = np.array(
            [cfg.window_months(j) for j in range(1, cfg.n_windows + 1)]
        )
        rng = np.random.default_rng(20)
        for _ in range(2000):
            path = rng.random(cfg.n_months + 1)
            latent = PatientLatent(
                patient_id="p",
                clinic="c",
                age=60,
                years_with_hiv=10,
                health=path,
                domain_scores={"vitality": 1.0 - path},
            )
            for domain, values in ((None, path), ("vitality", 1.0 - path)):
                expected = [np.mean(values[row]) for row in months]
                np.testing.assert_array_equal(
                    latent.window_means(months, domain), expected
                )
