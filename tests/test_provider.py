"""Tests for the data provider's local protocol steps."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core import sensitivity as sens
from repro.core.query import COUNT, SUM, RangeQuery

Q_WIDE = RangeQuery(COUNT, {"age": (5, 60), "education": (0, 14)})
Q_NARROW = RangeQuery(COUNT, {"age": (0, 2)})


class TestPrepare:
    def test_context_fields(self, adult_fed):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        assert ctx.n_q == len(ctx.cluster_ids) == len(ctx.r)
        assert ctx.sum_r == pytest.approx(float(ctx.r.sum()))
        assert 0 <= ctx.avg_r <= 1
        assert ctx.lookup_seconds >= 0

    def test_lookup_is_fast(self, adult_fed):
        """Metadata lookups must cost far less than a scan (the point of
        Algorithm 1) — generous bound to stay robust on CI noise."""
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        assert ctx.lookup_seconds < 0.5

    def test_empty_context_for_impossible_query(self, adult_fed):
        p = adult_fed.providers[0]
        ctx = p.prepare(RangeQuery(COUNT, {"age": (500, 600)}))
        assert ctx.n_q == 0 and ctx.avg_r == 0.0

    def test_unknown_dimension_named(self, adult_fed):
        p = adult_fed.providers[0]
        with pytest.raises(ValueError, match="'salary'"):
            p.prepare(RangeQuery(COUNT, {"age": (5, 60), "salary": (0, 3)}))


class TestSummarize:
    def test_noise_centered_on_truth(self, adult_fed):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        rng = np.random.default_rng(0)
        nqs = [p.summarize(ctx, 1.0, rng).noisy_n_q for _ in range(4000)]
        assert np.mean(nqs) == pytest.approx(ctx.n_q, abs=0.5)

    def test_noise_scales_with_sensitivity(self, adult_fed):
        """Avg(R̂) noise must use Δ_Avg (Thm 5.1), N^Q noise Δ=1, each on
        ε^O/2 (Eq 5)."""
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        rng = np.random.default_rng(1)
        eps_o = 0.2
        avg_errs = np.abs(
            [p.summarize(ctx, eps_o, rng).noisy_avg_r - ctx.avg_r for _ in range(8000)]
        )
        d_avg = sens.delta_avg_r(p.S, len(Q_WIDE.ranges), p.n_min)
        assert np.mean(avg_errs) == pytest.approx(d_avg / (eps_o / 2), rel=0.1)

    def test_summaries_are_noisy(self, adult_fed, rng):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        a = p.summarize(ctx, 0.1, rng)
        b = p.summarize(ctx, 0.1, rng)
        assert a.noisy_n_q != b.noisy_n_q


class TestExactPath:
    def test_exact_matches_pandas(self, adult_fed):
        p = adult_fed.providers[0]
        local = adult_fed.local_frames[0]
        mask = local["age"].between(5, 60) & local["education"].between(0, 14)
        assert p.exact(Q_WIDE) == float(mask.sum())

    def test_exact_dp_result_fields(self, adult_fed):
        p = adult_fed.providers[0]
        res = p.exact_dp(Q_WIDE)
        assert res.exact_path and res.smooth_ls == 1.0
        assert res.estimate == p.exact(Q_WIDE)
        assert len(res.sampled_clusters) == 0

    def test_release_exact_path_laplace_gs1(self, adult_fed):
        p = adult_fed.providers[0]
        res = p.exact_dp(Q_NARROW)
        rng = np.random.default_rng(3)
        errs = np.abs([p.release(res, 1.0, rng) - res.estimate for _ in range(8000)])
        assert np.mean(errs) == pytest.approx(1.0, rel=0.1)  # E|Lap(1/1)| = 1


class TestApproximate:
    def test_sample_size_respected(self, adult_fed, rng):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        res = p.approximate(ctx, 10, 0.1, 0.8, 1e-3, rng)
        assert len(res.sampled_clusters) == 10
        assert not res.exact_path

    def test_sample_clamped_to_nq(self, adult_fed, rng):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        res = p.approximate(ctx, 10_000, 0.1, 0.8, 1e-3, rng)
        assert len(res.sampled_clusters) == ctx.n_q

    def test_sampled_from_cq(self, adult_fed, rng):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        res = p.approximate(ctx, 20, 0.1, 0.8, 1e-3, rng)
        assert set(res.sampled_clusters.tolist()) <= set(ctx.cluster_ids.tolist())

    def test_estimate_near_truth_with_large_sample(self, adult_fed):
        """Full-size with-replacement sample ⇒ HH estimate within ~25% of
        the local exact answer (sampling error only, no release noise)."""
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        exact = p.exact(Q_WIDE)
        rng = np.random.default_rng(7)
        ests = [
            p.approximate(ctx, ctx.n_q, 10.0, 0.8, 1e-3, rng).estimate
            for _ in range(30)
        ]
        assert np.mean(ests) == pytest.approx(exact, rel=0.25)

    def test_smooth_ls_positive(self, adult_fed, rng):
        p = adult_fed.providers[0]
        ctx = p.prepare(Q_WIDE)
        res = p.approximate(ctx, 10, 0.1, 0.8, 1e-3, rng)
        assert res.smooth_ls > 0

    def test_empty_context_returns_zero(self, adult_fed, rng):
        p = adult_fed.providers[0]
        ctx = p.prepare(RangeQuery(COUNT, {"age": (500, 600)}))
        res = p.approximate(ctx, 5, 0.1, 0.8, 1e-3, rng)
        assert res.estimate == 0.0 and res.smooth_ls == 0.0

    def test_sum_query_estimates(self, adult_fed):
        p = adult_fed.providers[0]
        q = RangeQuery(SUM, {"age": (5, 60)})
        ctx = p.prepare(q)
        exact = p.exact(q)
        rng = np.random.default_rng(11)
        ests = [p.approximate(ctx, ctx.n_q, 10.0, 0.8, 1e-3, rng).estimate for _ in range(30)]
        assert np.mean(ests) == pytest.approx(exact, rel=0.25)


class TestConstruction:
    def test_invalid_nmin(self, adult_fed):
        from repro.federation.provider import DataProvider

        p = adult_fed.providers[0]
        with pytest.raises(ValueError):
            DataProvider("x", dims=p.dims, S=p.S, n_min=0, metadata=p.meta, evaluator=p.evaluator)
