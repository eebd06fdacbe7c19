"""Differential tests: batched samplers against per-item loop oracles.

The cohort draws each patient's PRO answers, burst-missingness chains and
deficits as whole arrays.  The oracles below are the per-item loops the
batched code replaced, kept verbatim.  Every case compares the outputs
bit for bit *and* the generator's next draw after the call, so a batched
sampler that consumed one uniform too many or too few (and would shift
every later stream) fails here.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frailty.deficits import DEFICIT_CATALOGUE, Deficit, sample_deficits
from repro.synth import (
    OrdinalBank,
    OrdinalLink,
    ar1_process,
    burst_chains,
    burst_gap_mask,
    burst_gap_masks,
)

# ----------------------------------------------------------------------
# oracles: the per-item loops, as they were before batching
# ----------------------------------------------------------------------


def oracle_ordinal_sample(link: OrdinalLink, latent, rng) -> np.ndarray:
    latent = np.asarray(latent, dtype=np.float64)
    noisy = latent + rng.normal(0.0, link.noise_sd, size=latent.shape)
    answers = np.searchsorted(link.thresholds, np.clip(noisy, 0.0, 1.0)) + 1
    if link.reversed_scale:
        answers = link.n_levels + 1 - answers
    return answers.astype(np.int64)


def oracle_burst_gap_mask(
    rng, n_steps, missing_rate, mean_gap_length, max_gap_length=None
) -> np.ndarray:
    mask = np.zeros(n_steps, dtype=bool)
    if missing_rate == 0.0 or n_steps == 0:
        return mask
    p_exit = 1.0 / mean_gap_length
    p_enter = missing_rate * p_exit / (1.0 - missing_rate)
    p_enter = min(p_enter, 1.0)
    missing = rng.random() < missing_rate
    run = 0
    draws = rng.random(n_steps)
    for t in range(n_steps):
        if missing and max_gap_length is not None and run >= max_gap_length:
            missing = False
        if missing:
            mask[t] = True
            run += 1
            if draws[t] < p_exit:
                missing = False
        else:
            run = 0
            if draws[t] < p_enter:
                missing = True
    return mask


def oracle_deficit_sample(deficit: Deficit, latent_health, rng) -> np.ndarray:
    p = deficit.expression_probability(latent_health)
    if not deficit.graded:
        return (rng.random(p.shape) < p).astype(np.float64)
    u = rng.random(p.shape)
    full = u < p / 3.0
    partial = (~full) & (u < p)
    return np.where(full, 1.0, np.where(partial, 0.5, 0.0))


def oracle_ar1_process(rng, n_steps, mean, phi, sigma, start=None, drift=0.0):
    means = mean + drift * np.arange(n_steps)
    x = np.empty(n_steps, dtype=np.float64)
    if start is None:
        stationary_sd = sigma / np.sqrt(1.0 - phi**2) if sigma > 0 else 0.0
        start = float(rng.normal(mean, stationary_sd))
    x[0] = means[0] + phi * (start - mean) + sigma * rng.standard_normal()
    for t in range(1, n_steps):
        x[t] = (
            means[t]
            + phi * (x[t - 1] - means[t - 1])
            + sigma * rng.standard_normal()
        )
    return x


def same_next_draw(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.random() == b.random() and a.normal() == b.normal()


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

noise_sds = st.one_of(st.just(0.0), st.floats(0.0, 0.6))
links = st.builds(
    OrdinalLink.equispaced,
    n_levels=st.integers(2, 10),
    reversed_scale=st.booleans(),
    noise_sd=noise_sds,
    skew=st.floats(-0.95, 0.95),
)
rates = st.one_of(
    st.just(0.0),
    st.floats(0.0, 0.95),
    st.floats(0.95, 0.9999),
)
mean_lengths = st.one_of(st.just(1.0), st.floats(1.0, 25.0))
max_gaps = st.sampled_from([None, 1, 17])
step_counts = st.sampled_from([0, 1, 18, 40])
seeds = st.integers(0, 2**32 - 1)


class TestOrdinalBank:
    @given(
        bank_links=st.lists(links, min_size=1, max_size=12),
        n=st.integers(0, 40),
        seed=seeds,
    )
    @settings(max_examples=80, deadline=None)
    def test_bank_equals_per_link_loop(self, bank_links, n, seed):
        latent = np.random.default_rng(seed ^ 1).uniform(
            -0.3, 1.3, size=(len(bank_links), n)
        )
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        batched = OrdinalBank(bank_links).sample(latent, rng_a)
        expected = np.array(
            [
                oracle_ordinal_sample(link, row, rng_b)
                for link, row in zip(bank_links, latent)
            ]
        ).reshape(len(bank_links), n)
        assert batched.dtype == np.int64
        assert np.array_equal(batched, expected)
        assert same_next_draw(rng_a, rng_b)

    @given(link=links, n=st.integers(0, 60), seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_link_sample_equals_oracle(self, link, n, seed):
        latent = np.random.default_rng(seed ^ 2).uniform(0.0, 1.0, size=n)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        assert np.array_equal(
            link.sample(latent, rng_a), oracle_ordinal_sample(link, latent, rng_b)
        )
        assert same_next_draw(rng_a, rng_b)

    def test_latent_on_cut_points(self):
        # A noise-free score equal to a cut point sits left of it
        # (searchsorted side="left"): count only the cut points below.
        link = OrdinalLink(4, [0.25, 0.5, 0.75], noise_sd=0.0)
        latent = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        assert link.sample(latent, np.random.default_rng(0)).tolist() == [
            1, 1, 2, 3, 4,
        ]

    def test_nan_latent_rejected_before_drawing(self):
        link = OrdinalLink.equispaced(5)
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="NaN"):
            link.sample(np.array([0.5, np.nan]), rng)
        assert rng.random() == np.random.default_rng(5).random()

    def test_latent_shape_must_match_bank(self):
        bank = OrdinalBank([OrdinalLink.equispaced(5)] * 3)
        with pytest.raises(ValueError, match="shape"):
            bank.sample(np.zeros((2, 4)), np.random.default_rng(0))

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            OrdinalBank([])

    def test_arrays_read_only(self):
        bank = OrdinalBank([OrdinalLink.equispaced(3), OrdinalLink.equispaced(7)])
        assert np.isinf(bank.thresholds[0, 2:]).all()
        with pytest.raises(ValueError):
            bank.thresholds[0, 0] = 0.5


class TestBurstGapMasks:
    @given(
        n_series=st.integers(1, 60),
        n_steps=step_counts,
        rate=rates,
        mean_len=mean_lengths,
        max_gap=max_gaps,
        seed=seeds,
    )
    @settings(max_examples=100, deadline=None)
    def test_masks_equal_per_series_loop(
        self, n_series, n_steps, rate, mean_len, max_gap, seed
    ):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        batched = burst_gap_masks(rng_a, n_series, n_steps, rate, mean_len, max_gap)
        expected = np.array(
            [
                oracle_burst_gap_mask(rng_b, n_steps, rate, mean_len, max_gap)
                for _ in range(n_series)
            ]
        ).reshape(n_series, n_steps)
        assert batched.dtype == np.bool_
        assert np.array_equal(batched, expected)
        assert same_next_draw(rng_a, rng_b)

    @given(
        n_steps=st.integers(0, 120),
        rate=rates,
        mean_len=mean_lengths,
        max_gap=max_gaps,
        seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_single_mask_equals_oracle(self, n_steps, rate, mean_len, max_gap, seed):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        assert np.array_equal(
            burst_gap_mask(rng_a, n_steps, rate, mean_len, max_gap),
            oracle_burst_gap_mask(rng_b, n_steps, rate, mean_len, max_gap),
        )
        assert same_next_draw(rng_a, rng_b)

    @given(
        params=st.lists(st.tuples(rates, mean_lengths, seeds), min_size=1, max_size=30),
        n_steps=step_counts,
        max_gap=max_gaps,
    )
    @settings(max_examples=60, deadline=None)
    def test_chains_with_per_series_parameters(self, params, n_steps, max_gap):
        # Uniforms gathered from one generator per series, stepped in one
        # pass, equal each series' own scalar chain.
        draws = np.zeros((len(params), n_steps + 1))
        expected = []
        for row, (rate, mean_len, seed) in zip(draws, params):
            if rate > 0.0 and n_steps > 0:
                row[:] = np.random.default_rng(seed).random(n_steps + 1)
            expected.append(
                oracle_burst_gap_mask(
                    np.random.default_rng(seed), n_steps, rate, mean_len, max_gap
                )
            )
        rate, mean_len, _ = (np.array(col) for col in zip(*params))
        got = burst_chains(draws, rate, mean_len, max_gap)
        assert np.array_equal(got, np.array(expected).reshape(len(params), n_steps))

    def test_zero_rate_draws_nothing(self):
        rng = np.random.default_rng(9)
        assert not burst_gap_masks(rng, 5, 18, 0.0, 3.0).any()
        assert rng.random() == np.random.default_rng(9).random()

    def test_zero_series_or_steps_draws_nothing(self):
        rng = np.random.default_rng(9)
        assert burst_gap_masks(rng, 0, 18, 0.3, 3.0).shape == (0, 18)
        assert burst_gap_masks(rng, 4, 0, 0.3, 3.0).shape == (4, 0)
        assert rng.random() == np.random.default_rng(9).random()

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(missing_rate=np.nan, mean_gap_length=3.0), "missing_rate"),
            (dict(missing_rate=0.2, mean_gap_length=np.nan), "mean_gap_length"),
            (dict(missing_rate=0.2, mean_gap_length=3.0, max_gap_length=0), "max_gap"),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            burst_gap_masks(np.random.default_rng(0), 2, 5, **kwargs)

    def test_negative_series_rejected(self):
        with pytest.raises(ValueError, match="n_series"):
            burst_gap_masks(np.random.default_rng(0), -1, 5, 0.2, 2.0)

    def test_chain_draws_must_be_2d(self):
        with pytest.raises(ValueError, match="draws"):
            burst_chains(np.zeros(5), 0.2, 2.0)


class TestSampleDeficits:
    deficit = st.builds(
        Deficit,
        name=st.just("d"),
        category=st.sampled_from(["blood", "body_composition", "hiv_pro"]),
        base_rate=st.floats(0.0, 1.0),
        sensitivity=st.floats(0.0, 2.0),
        graded=st.booleans(),
    )

    @given(
        deficits=st.lists(deficit, min_size=1, max_size=40),
        n=st.integers(0, 10),
        seed=seeds,
    )
    @settings(max_examples=80, deadline=None)
    def test_matrix_equals_per_deficit_loop(self, deficits, n, seed):
        h = np.random.default_rng(seed ^ 3).uniform(-0.2, 1.2, size=n)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        batched = sample_deficits(deficits, h, rng_a)
        expected = np.array(
            [oracle_deficit_sample(d, h, rng_b) for d in deficits]
        ).reshape(len(deficits), n)
        assert np.array_equal(batched, expected)
        assert same_next_draw(rng_a, rng_b)

    @given(seed=seeds, n=st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_catalogue_one_deficit_at_a_time(self, seed, n):
        h = np.random.default_rng(seed ^ 4).uniform(0.0, 1.0, size=n)
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        for deficit in DEFICIT_CATALOGUE:
            assert np.array_equal(
                deficit.sample(h, rng_a), oracle_deficit_sample(deficit, h, rng_b)
            )
        assert same_next_draw(rng_a, rng_b)


class TestAr1Process:
    @given(
        n_steps=st.integers(1, 40),
        mean=st.floats(-1.0, 1.0),
        phi=st.floats(0.0, 0.99),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        start=st.one_of(st.none(), st.floats(-1.0, 1.0)),
        drift=st.floats(-0.05, 0.05),
        seed=seeds,
    )
    @settings(max_examples=80, deadline=None)
    def test_one_innovation_draw_equals_per_step_draws(
        self, n_steps, mean, phi, sigma, start, drift, seed
    ):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        got = ar1_process(rng_a, n_steps, mean, phi, sigma, start, drift)
        want = oracle_ar1_process(rng_b, n_steps, mean, phi, sigma, start, drift)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert same_next_draw(rng_a, rng_b)
