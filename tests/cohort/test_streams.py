"""Unit tests for the per-patient observation streams (wearable, PRO,
clinical, outcomes, missingness)."""

import numpy as np
import pytest

from repro.cohort import ClinicConfig
from repro.cohort.clinical import generate_visit_deficits
from repro.cohort.missingness import missingness_mask
from repro.cohort.outcomes import generate_outcomes
from repro.cohort.patients import generate_patients
from repro.cohort.pro import (
    build_item_links,
    clinic_item_bank,
    generate_pro_answers,
)
from repro.cohort.schema import PRO_ITEMS, pro_item_names
from repro.cohort.wearable import generate_daily_trace
from repro.frailty.deficits import deficit_names
from repro.synth import SeedSequenceFactory

from tests.conftest import small_config
from tests.synth.test_batched_draws import (
    oracle_burst_gap_mask,
    oracle_ordinal_sample,
)


@pytest.fixture(scope="module")
def setup():
    cfg = small_config()
    seeds = SeedSequenceFactory(cfg.seed)
    patients = generate_patients(cfg, seeds)
    clinics = {c.name: c for c in cfg.clinics}
    return cfg, seeds, patients, clinics


class TestWearable:
    def test_trace_length(self, setup):
        cfg, seeds, patients, clinics = setup
        p = patients[0]
        trace = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
        assert len(trace["day"]) == cfg.n_months * cfg.days_per_month

    def test_month_attribution(self, setup):
        cfg, seeds, patients, clinics = setup
        p = patients[0]
        trace = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
        assert trace["month"].min() == 1
        assert trace["month"].max() == cfg.n_months
        # each month holds exactly days_per_month days
        counts = np.bincount(trace["month"])[1:]
        assert (counts == cfg.days_per_month).all()

    def test_values_positive(self, setup):
        cfg, seeds, patients, clinics = setup
        p = patients[1]
        trace = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
        assert (trace["steps"] >= 0).all()
        assert (trace["calories"] > 0).all()
        assert (trace["sleep_hours"] > 0).all()

    def test_steps_track_locomotion(self, setup):
        cfg, seeds, patients, clinics = setup
        # Patients with higher mean locomotion walk more on average.
        mean_steps, mean_loco = [], []
        for p in patients:
            trace = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
            mean_steps.append(float(np.mean(trace["steps"])))
            mean_loco.append(float(np.mean(p.domain_scores["locomotion"])))
        assert np.corrcoef(mean_steps, mean_loco)[0, 1] > 0.3

    def test_deterministic(self, setup):
        cfg, seeds, patients, clinics = setup
        p = patients[0]
        a = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
        b = generate_daily_trace(cfg, clinics[p.clinic], p, seeds)
        assert np.array_equal(a["steps"], b["steps"])


def _answers(setup, p):
    cfg, seeds, _, clinics = setup
    return generate_pro_answers(cfg, clinic_item_bank(clinics[p.clinic]), p, seeds)


def _mask(setup, chosen):
    cfg, seeds, _, clinics = setup
    return missingness_mask(
        cfg, [clinics[p.clinic] for p in chosen], [p.patient_id for p in chosen], seeds
    )


class TestPro:
    def test_block_covers_items_by_months(self, setup):
        cfg, _, patients, _ = setup
        answers = _answers(setup, patients[0])
        assert answers.shape == (len(PRO_ITEMS), cfg.n_months)
        assert answers.dtype == np.float64

    def test_answers_within_scale(self, setup):
        _, _, patients, _ = setup
        answers = _answers(setup, patients[2])
        for item, vals in zip(PRO_ITEMS, answers):
            assert vals.min() >= 1 and vals.max() <= item.n_levels

    def test_block_rows_match_per_item_links(self, setup):
        # The batched block equals answering the items one at a time,
        # in bank order, from the patient's pro stream (pre-batching loop).
        cfg, seeds, patients, clinics = setup
        p = patients[3]
        links = build_item_links(0.05 * clinics[p.clinic].protocol_noise)
        rng = seeds.child(p.patient_id).generator("pro")
        expected = [
            oracle_ordinal_sample(
                links[item.name], p.domain_scores[item.domain][1 : cfg.n_months + 1], rng
            )
            for item in PRO_ITEMS
        ]
        assert np.array_equal(_answers(setup, p), np.array(expected, dtype=float))

    def test_item_links_cover_bank(self):
        links = build_item_links()
        assert set(links) == set(pro_item_names())

    def test_protocol_noise_widens_links(self):
        base = build_item_links(extra_noise=0.0)
        noisy = build_item_links(extra_noise=0.1)
        name = pro_item_names()[0]
        assert noisy[name].noise_sd > base[name].noise_sd

    def test_clinic_bank_is_read_only(self, setup):
        _, _, _, clinics = setup
        bank = clinic_item_bank(clinics["hong_kong"])
        assert len(bank) == len(PRO_ITEMS)
        for arr in (bank.thresholds, bank.noise_sd, bank.n_levels, bank.reversed_scale):
            assert not arr.flags.writeable

    def test_clinic_bank_widens_noise(self, setup):
        _, _, _, clinics = setup
        base = clinic_item_bank(ClinicConfig("quiet", 1, protocol_noise=0.0))
        noisy = clinic_item_bank(clinics["hong_kong"])
        assert (noisy.noise_sd > base.noise_sd).all()
        assert np.array_equal(noisy.thresholds, base.thresholds)


class TestMissingness:
    def test_mask_matches_answer_blocks(self, setup):
        cfg, _, patients, _ = setup
        mask = _mask(setup, patients[:2])
        assert mask.shape == (2, len(PRO_ITEMS), cfg.n_months)
        assert mask.dtype == np.bool_

    def test_holes_created(self, setup):
        assert _mask(setup, setup[2][:1]).any()

    def test_patient_level_bursts_blank_many_items_at_once(self, setup):
        # In months hit by the patient-level mask, most items are missing
        # simultaneously; count months where >90% of items are missing.
        frac = _mask(setup, setup[2][:10]).mean(axis=1)
        assert int(np.sum(frac > 0.9)) > 0

    def test_batch_equals_one_patient_at_a_time(self, setup):
        chosen = setup[2][:5]
        single = np.concatenate([_mask(setup, [p]) for p in chosen])
        assert np.array_equal(_mask(setup, chosen), single)

    def test_matches_per_item_chains(self, setup):
        # The pre-batching layout: one patient chain, then one chain per
        # item, all from the patient's missingness stream.
        cfg, seeds, patients, clinics = setup
        for p in patients[:6]:
            rng = seeds.child(p.patient_id).generator("missingness")
            n = cfg.n_months
            patient = oracle_burst_gap_mask(
                rng, n, clinics[p.clinic].missing_rate, cfg.mean_gap_length,
                cfg.max_gap_length,
            )
            items = [
                patient
                | oracle_burst_gap_mask(rng, n, 0.05, 1.3, cfg.max_gap_length)
                for _ in PRO_ITEMS
            ]
            assert np.array_equal(_mask(setup, [p])[0], items)

    def test_count_mismatch_rejected(self, setup):
        cfg, seeds, patients, _ = setup
        with pytest.raises(ValueError, match="one clinic"):
            missingness_mask(cfg, [], [patients[0].patient_id], seeds)


class TestClinical:
    def test_block_covers_deficits_by_visits(self, setup):
        cfg, seeds, patients, _ = setup
        deficits = generate_visit_deficits(cfg, patients[0], seeds)
        assert deficits.shape == (len(deficit_names()), len(cfg.visit_months))

    def test_all_deficits_in_unit_interval(self, setup):
        cfg, seeds, patients, _ = setup
        deficits = generate_visit_deficits(cfg, patients[0], seeds)
        assert ((deficits >= 0) & (deficits <= 1)).all()

    def test_sicker_patients_express_more_deficits(self, setup):
        cfg, seeds, patients, _ = setup
        burden, health = [], []
        for p in patients:
            deficits = generate_visit_deficits(cfg, p, seeds)
            burden.append(float(deficits.mean()))
            health.append(float(p.health[list(cfg.visit_months)].mean()))
        assert np.corrcoef(burden, health)[0, 1] < -0.5


class TestOutcomes:
    def test_one_row_per_window(self, setup):
        cfg, seeds, patients, _ = setup
        out = generate_outcomes(cfg, patients[0], seeds)
        assert out["window"].tolist() == [1, 2]
        assert out["visit_month"].tolist() == [9, 18]

    def test_qol_in_unit_interval(self, setup):
        cfg, seeds, patients, _ = setup
        for p in patients[:10]:
            out = generate_outcomes(cfg, p, seeds)
            assert (out["qol"] >= 0).all() and (out["qol"] <= 1).all()

    def test_sppb_in_range(self, setup):
        cfg, seeds, patients, _ = setup
        for p in patients[:10]:
            out = generate_outcomes(cfg, p, seeds)
            assert out["sppb"].min() >= 0 and out["sppb"].max() <= 12

    def test_falls_is_boolean(self, setup):
        cfg, seeds, patients, _ = setup
        out = generate_outcomes(cfg, patients[0], seeds)
        assert out["falls"].dtype == bool

    def test_falls_minority_class(self, setup):
        cfg, seeds, patients, _ = setup
        all_falls = np.concatenate(
            [generate_outcomes(cfg, p, seeds)["falls"] for p in patients]
        )
        assert 0.0 < all_falls.mean() < 0.5  # strong False majority

    def test_sppb_tracks_locomotion(self, setup):
        cfg, seeds, patients, _ = setup
        sppb, loco = [], []
        for p in patients:
            out = generate_outcomes(cfg, p, seeds)
            sppb.extend(out["sppb"].tolist())
            months = np.array(
                [cfg.window_months(int(j)) for j in out["window"]]
            )
            loco.extend(p.window_means(months, "locomotion").tolist())
        assert np.corrcoef(sppb, loco)[0, 1] > 0.6
