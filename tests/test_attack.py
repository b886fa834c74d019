"""Tests for the §6.6 learning-based (NBC) attack."""
from __future__ import annotations

import numpy as np
import pytest

from repro.attack.nbc import (
    AttackSpec,
    per_query_eps,
    train_nbc,
)
from repro.core.query import COUNT, RangeQuery
from repro.dp.accountant import advanced_eps, sequential_eps


@pytest.fixture(scope="module")
def spec():
    # small SA domain keeps the unit-scale attack fast; Table 1 uses 100
    return AttackSpec(
        sa_dim="capgain",
        qi_dims=("education", "workclass"),
        domains={"capgain": 100, "education": 16, "workclass": 9},
    )


class TestSpec:
    def test_n_queries_formula(self, spec):
        assert spec.n_queries == 1 + 100 + 100 * (16 + 9)

    def test_sa_domain(self, spec):
        assert spec.sa_domain == 100


class TestPerQueryEps:
    def test_sequential(self):
        eps, delta = per_query_eps("sequential", 100.0, 1000, 1e-6)
        assert eps == pytest.approx(sequential_eps(100.0, 1000))
        assert delta == pytest.approx(1e-9)

    def test_advanced(self):
        eps, _ = per_query_eps("advanced", 100.0, 1000, 1e-6)
        assert eps == pytest.approx(advanced_eps(100.0, 1000, 1e-9))

    def test_advanced_exceeds_sequential(self):
        s, _ = per_query_eps("sequential", 50.0, 2601, 1e-6)
        a, _ = per_query_eps("advanced", 50.0, 2601, 1e-6)
        assert a > s

    def test_coalition(self):
        eps, _ = per_query_eps("coalition", 42.0, 9999, 1e-6)
        assert eps == 42.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            per_query_eps("bogus", 1.0, 10, 1e-6)


class TestNBCOnExactAnswers:
    """Sanity ceiling: with non-private answers and a correlated SA, the
    attack must beat random guessing — otherwise Table 1's < 1% result
    would be vacuous."""

    def test_beats_random(self, adult_pdf, adult_fed_pandas, spec):
        nbc = train_nbc(spec, adult_fed_pandas.aggregator.exact)
        acc = nbc.accuracy(adult_pdf)
        assert acc > 2.5 / spec.sa_domain  # > 2.5x random (random = 1%)

    def test_prediction_shape(self, adult_pdf, adult_fed_pandas, spec):
        nbc = train_nbc(spec, adult_fed_pandas.aggregator.exact)
        preds = nbc.predict(adult_pdf.head(100))
        assert preds.shape == (100,)
        assert ((preds >= 0) & (preds < 100)).all()


class TestNBCOnNoisyAnswers:
    def test_heavy_noise_kills_attack(self, adult_pdf, adult_fed_pandas, spec):
        """With noise far above the signal the classifier must fall to
        random-guessing accuracy (the Table 1 phenomenon)."""
        rng = np.random.default_rng(0)
        exact = adult_fed_pandas.aggregator.exact

        def noisy(q: RangeQuery) -> float:
            return exact(q) + rng.laplace(0, 10_000.0)

        nbc = train_nbc(spec, noisy)
        acc = nbc.accuracy(adult_pdf)
        assert acc < 3.0 / spec.sa_domain  # ≈ random

    def test_noise_floor_applied(self, spec, adult_pdf):
        """All-negative noisy counts must not produce NaNs/log(<=0)."""
        def hostile(q: RangeQuery) -> float:
            return -100.0

        nbc = train_nbc(spec, hostile)
        assert np.isfinite(nbc.log_prior).all()
        for d in spec.qi_dims:
            assert np.isfinite(nbc.log_lift[d]).all()


class TestAnswerCounting:
    def test_query_budget_matches_formula(self, adult_fed_pandas):
        spec = AttackSpec(
            sa_dim="sex", qi_dims=("workclass",), domains={"sex": 2, "workclass": 9}
        )
        calls = {"n": 0}
        exact = adult_fed_pandas.aggregator.exact

        def counting(q: RangeQuery) -> float:
            calls["n"] += 1
            return exact(q)

        train_nbc(spec, counting)
        assert calls["n"] == spec.n_queries
