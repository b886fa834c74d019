"""Tests for the aggregator protocol orchestration."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import COUNT, SUM, RangeQuery
from repro.dp.accountant import BudgetExhausted, PrivacyAccountant
from repro.oracle import oracle_value

Q = RangeQuery(COUNT, {"age": (5, 60), "education": (0, 14)})


class TestExactFederated:
    @pytest.mark.parametrize("agg", [COUNT, SUM])
    def test_matches_duckdb_oracle(self, adult_fed, adult_pdf, agg):
        q = RangeQuery(agg, {"age": (10, 50), "hours": (20, 70)})
        assert adult_fed.aggregator.exact(q) == oracle_value(adult_pdf, q)

    def test_sum_over_providers_is_union(self, adult_fed):
        parts = sum(p.exact(Q) for p in adult_fed.providers)
        assert adult_fed.aggregator.exact(Q) == parts


class TestAnswer:
    def test_answer_fields(self, adult_fed_pandas, rng):
        ans = adult_fed_pandas.aggregator.answer(
            Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng
        )
        assert ans.eps == 1.0 and ans.delta == 1e-3 and not ans.used_smc
        assert len(ans.allocations) == 4 and len(ans.summaries) == 4
        assert len(ans.local_results) == 4
        assert ans.seconds > 0

    def test_estimate_pre_noise_tracks_oracle(self, adult_fed_pandas, adult_pdf):
        """Σ local estimates (before release noise) must approximate the
        DuckDB oracle answer — the sampling machinery itself is sound."""
        truth = oracle_value(adult_pdf, Q)
        rng = np.random.default_rng(5)
        pre_noise = []
        for _ in range(15):
            ans = adult_fed_pandas.aggregator.answer(
                Q, sampling_rate=0.3, eps=100.0, delta=1e-3, rng=rng
            )
            pre_noise.append(sum(lr.estimate for lr in ans.local_results))
        assert np.mean(pre_noise) == pytest.approx(truth, rel=0.2)

    def test_high_eps_answer_close_to_truth(self, adult_fed_pandas, adult_pdf):
        truth = oracle_value(adult_pdf, Q)
        rng = np.random.default_rng(6)
        vals = [
            adult_fed_pandas.aggregator.answer(
                Q, sampling_rate=0.3, eps=1000.0, delta=1e-3, rng=rng
            ).value
            for _ in range(15)
        ]
        assert np.mean(vals) == pytest.approx(truth, rel=0.2)

    def test_noise_recorded(self, adult_fed_pandas, rng):
        ans = adult_fed_pandas.aggregator.answer(
            Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng
        )
        assert ans.value == pytest.approx(
            sum(lr.estimate for lr in ans.local_results) + ans.noise
        )

    def test_exact_path_taken_when_nq_below_nmin(self, adult_fed_pandas, rng):
        """A query touching almost no clusters must run 'regularly'."""
        narrow = RangeQuery(COUNT, {"age": (0, 0), "sex": (0, 0), "hours": (0, 1)})
        ans = adult_fed_pandas.aggregator.answer(
            narrow, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng
        )
        assert any(lr.exact_path for lr in ans.local_results)

    def test_allocation_favors_data_rich_provider(self, adult_fed_pandas):
        """Providers are partitioned by age: a low-age query must allocate
        most samples to low-age providers (on average over noise)."""
        q = RangeQuery(COUNT, {"age": (0, 20)})
        rng = np.random.default_rng(7)
        allocs = np.zeros(4)
        for _ in range(25):
            ans = adult_fed_pandas.aggregator.answer(
                q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng
            )
            allocs += ans.allocations
        assert allocs[0] > allocs[-1]


class TestSmcPath:
    def test_single_noise_injection(self, adult_fed_pandas, rng):
        ans = adult_fed_pandas.aggregator.answer(
            Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, use_smc=True
        )
        assert ans.used_smc and ans.smc_seconds > 0

    def test_smc_value_consistent(self, adult_fed_pandas, rng):
        ans = adult_fed_pandas.aggregator.answer(
            Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, use_smc=True
        )
        total = sum(lr.estimate for lr in ans.local_results)
        # secure sum is fixed-point: equal to plain sum within encoding error
        assert ans.value - ans.noise == pytest.approx(total, abs=1e-3)

    def test_smc_noise_bounded_by_max_sensitivity(self, adult_fed_pandas):
        """SMC path uses ONE Lap(2·max S_LS/ε^E); the non-SMC path sums 4
        independent noises — SMC's noise spread must not exceed ~the sum."""
        rng = np.random.default_rng(8)
        smc_noise, solo_noise = [], []
        for _ in range(40):
            a = adult_fed_pandas.aggregator.answer(
                Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, use_smc=True
            )
            smc_noise.append(abs(a.noise))
            b = adult_fed_pandas.aggregator.answer(
                Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, use_smc=False
            )
            solo_noise.append(abs(b.noise))
        assert np.mean(smc_noise) < 3 * np.mean(solo_noise)


class TestAccountantIntegration:
    def test_budget_charged_per_query(self, adult_fed_pandas, rng):
        acc = PrivacyAccountant(2.0, 1e-2)
        adult_fed_pandas.aggregator.answer(
            Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, accountant=acc
        )
        assert acc.spent_eps == pytest.approx(1.0)

    def test_budget_exhaustion_blocks_query(self, adult_fed_pandas, rng):
        acc = PrivacyAccountant(1.5, 1e-2)
        adult_fed_pandas.aggregator.answer(
            Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, accountant=acc
        )
        with pytest.raises(BudgetExhausted):
            adult_fed_pandas.aggregator.answer(
                Q, sampling_rate=0.2, eps=1.0, delta=1e-3, rng=rng, accountant=acc
            )

    def test_empty_provider_list_rejected(self):
        from repro.federation.aggregator import Aggregator

        with pytest.raises(ValueError):
            Aggregator([])
