"""Tests for the paper-specific synthetic data generators."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.federation.builder import build_federation
from repro.synth_data import (
    ADULT_DIMS,
    AMAZON_DIMS,
    adult_tensor,
    amazon_tensor,
    assign_clusters,
    partition_providers,
)


@pytest.mark.parametrize("gen,dims", [(adult_tensor, ADULT_DIMS), (amazon_tensor, AMAZON_DIMS)])
class TestTensorGenerators:
    def test_columns(self, gen, dims):
        pdf = gen(sf=0.001)
        assert list(pdf.columns) == list(dims) + ["measure"]

    def test_domains_respected(self, gen, dims):
        pdf = gen(sf=0.002)
        for d, dom in dims.items():
            assert pdf[d].min() >= 0
            assert pdf[d].max() < dom, f"{d} exceeds domain {dom}"

    def test_measure_positive(self, gen, dims):
        pdf = gen(sf=0.002)
        assert (pdf["measure"] >= 1).all()

    def test_deterministic_in_seed(self, gen, dims):
        a = gen(sf=0.001, seed=3)
        b = gen(sf=0.001, seed=3)
        pd.testing.assert_frame_equal(a, b)

    def test_seed_changes_data(self, gen, dims):
        a = gen(sf=0.001, seed=3)
        b = gen(sf=0.001, seed=4)
        assert not a.equals(b)

    def test_scale_factor_scales_rows(self, gen, dims):
        small = gen(sf=0.0005)
        large = gen(sf=0.001)
        assert len(large) == 2 * len(small)

    def test_integer_dtypes(self, gen, dims):
        pdf = gen(sf=0.001)
        for d in dims:
            assert np.issubdtype(pdf[d].dtype, np.integer), d


class TestAdultSpecifics:
    def test_sa_dimension_domain_100(self):
        assert ADULT_DIMS["capgain"] == 100

    def test_sa_correlates_with_education(self):
        """The attack sanity ceiling needs QI->SA signal."""
        pdf = adult_tensor(sf=0.01)
        corr = pdf[["education", "capgain"]].corr().iloc[0, 1]
        assert corr > 0.3

    def test_nine_dimensions(self):
        assert len(ADULT_DIMS) == 9  # supports n in [2, 7] workloads + SA dims

    def test_fnlwgt_uniform_and_independent(self):
        """The paper-regime SA dim: near-uniform marginal, no QI signal."""
        pdf = adult_tensor(sf=0.01)
        freq = pdf["fnlwgt"].value_counts(normalize=True)
        assert freq.max() < 0.03  # mode share ~1%: random-guessing floor
        corr = pdf[["education", "fnlwgt"]].corr().iloc[0, 1]
        assert abs(corr) < 0.05


class TestAmazonSpecifics:
    def test_six_dimensions(self):
        assert len(AMAZON_DIMS) == 6  # supports n in [2, 5] workloads

    def test_rating_skewed_to_five_stars(self):
        pdf = amazon_tensor(sf=0.005)
        assert (pdf["rating"] == 4).mean() > 0.5

    def test_bigger_than_adult_per_sf(self):
        assert len(amazon_tensor(sf=0.001)) > len(adult_tensor(sf=0.001))


class TestAssignClusters:
    def test_cluster_sizes(self):
        pdf = adult_tensor(sf=0.001)
        out = assign_clusters(pdf, cluster_size=50, sort_dim="age", seed=0)
        sizes = out.groupby("cluster_id").size()
        assert (sizes <= 50).all()
        assert (sizes.iloc[:-1] == 50).all()  # only the tail may be short

    def test_preserves_rows(self):
        pdf = adult_tensor(sf=0.001)
        out = assign_clusters(pdf, cluster_size=64, sort_dim="age", seed=0)
        assert len(out) == len(pdf)
        assert out["measure"].sum() == pdf["measure"].sum()

    def test_value_locality(self):
        """Sorted-with-jitter assignment must yield skewed per-cluster age
        ranges (the property PPS sampling exploits)."""
        pdf = adult_tensor(sf=0.002)
        out = assign_clusters(pdf, cluster_size=100, sort_dim="age", seed=0)
        spans = out.groupby("cluster_id")["age"].agg(lambda s: s.max() - s.min())
        full_span = pdf["age"].max() - pdf["age"].min()
        assert spans.median() < 0.7 * full_span

    def test_deterministic(self):
        pdf = adult_tensor(sf=0.001)
        a = assign_clusters(pdf, cluster_size=32, sort_dim="age", seed=5)
        b = assign_clusters(pdf, cluster_size=32, sort_dim="age", seed=5)
        pd.testing.assert_frame_equal(a, b)

    def test_cluster_ids_contiguous(self):
        pdf = adult_tensor(sf=0.001)
        out = assign_clusters(pdf, cluster_size=100, sort_dim="hours", seed=1)
        ids = sorted(out["cluster_id"].unique())
        assert ids == list(range(len(ids)))


def _reference_layout(
    pdf: pd.DataFrame, *, n_providers: int, cluster_frac: float, sort_dim: str, seed: int
) -> list[pd.DataFrame]:
    """The provider frames of the original two-copy layout, kept as a
    test-only reference: jitter-sort and chunk the tensor into providers,
    then jitter-sort and cluster each provider, copying at every step."""
    g = np.random.default_rng(seed)
    span = max(1.0, float(pdf[sort_dim].max() - pdf[sort_dim].min()))
    key = pdf[sort_dim].to_numpy() + g.normal(0, 0.5 * span, len(pdf))
    pdf = pdf.iloc[np.argsort(key, kind="stable")].reset_index(drop=True)
    bounds = np.linspace(0, len(pdf), n_providers + 1).astype(int)
    parts = [
        pdf.iloc[bounds[i] : bounds[i + 1]].reset_index(drop=True)
        for i in range(n_providers)
    ]
    S = max(2, int(round(cluster_frac * len(parts[0]))))
    frames = []
    for i, part in enumerate(parts):
        g = np.random.default_rng(seed + i)
        span = max(1.0, float(part[sort_dim].max() - part[sort_dim].min()))
        key = part[sort_dim].to_numpy() + g.normal(0, 0.15 * span, len(part))
        out = part.iloc[np.argsort(key, kind="stable")].reset_index(drop=True).copy()
        out["cluster_id"] = (np.arange(len(out)) // S).astype("int64")
        frames.append(out)
    return frames


def _layout(pdf, *, n_providers, cluster_frac, sort_dim, seed):
    """The provider frames as ``build_federation`` lays them out."""
    parts = partition_providers(pdf, n_providers=n_providers, sort_dim=sort_dim, seed=seed)
    S = max(2, int(round(cluster_frac * len(parts[0]))))
    return [
        assign_clusters(pdf.iloc[rows], cluster_size=S, sort_dim=sort_dim, seed=seed + i)
        for i, rows in enumerate(parts)
    ]


class TestLayoutMatchesReference:
    @pytest.mark.parametrize("n_providers,seed", [(4, 0), (3, 5), (7, 2)])
    @pytest.mark.parametrize("pdf_name,dims", [("adult_pdf", ADULT_DIMS), ("amazon_pdf", AMAZON_DIMS)])
    def test_frames_equal(self, request, pdf_name, dims, n_providers, seed):
        pdf = request.getfixturevalue(pdf_name)
        assert n_providers == 4 or len(pdf) % n_providers  # uneven splits too
        kw = dict(n_providers=n_providers, cluster_frac=0.01, sort_dim=next(iter(dims)), seed=seed)
        got, want = _layout(pdf, **kw), _reference_layout(pdf, **kw)
        assert len(got) == len(want) == n_providers
        for g, w in zip(got, want):
            pd.testing.assert_frame_equal(g, w)

    @pytest.mark.parametrize(
        "fed_name,pdf_name,dims,cluster_frac,seed",
        [
            ("adult_fed", "adult_pdf", ADULT_DIMS, 0.01, 0),
            ("amazon_fed", "amazon_pdf", AMAZON_DIMS, 0.005, 1),
        ],
    )
    def test_fixture_stores_hold_reference_rows(
        self, request, fed_name, pdf_name, dims, cluster_frac, seed
    ):
        """Each built provider's store holds its reference frame's rows."""
        providers = request.getfixturevalue(fed_name).providers
        want = _reference_layout(
            request.getfixturevalue(pdf_name), n_providers=len(providers),
            cluster_frac=cluster_frac, sort_dim=next(iter(dims)), seed=seed,
        )
        for p, w in zip(providers, want):
            got = p.evaluator.store.read_pandas()
            got = got.sort_values("cluster_id", kind="stable", ignore_index=True)
            pd.testing.assert_frame_equal(got[list(w.columns)], w)


class TestPartitionProviders:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_partition_sizes(self, n):
        pdf = adult_tensor(sf=0.001)
        parts = partition_providers(pdf, n_providers=n, sort_dim="age")
        assert sum(len(rows) for rows in parts) == len(pdf)
        sizes = [len(rows) for rows in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_partitions_disjoint_and_complete(self):
        pdf = adult_tensor(sf=0.001)
        parts = partition_providers(pdf, n_providers=4, sort_dim="age")
        np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(len(pdf)))

    def test_contiguous_with_sort_dim_skews_providers(self):
        """Providers must hold different value ranges for allocation skew."""
        pdf = adult_tensor(sf=0.002)
        parts = partition_providers(pdf, n_providers=4, sort_dim="age", seed=0)
        age = pdf["age"].to_numpy()
        means = [age[rows].mean() for rows in parts]
        assert means == sorted(means)
        assert means[-1] - means[0] > 5

    def test_deterministic(self):
        pdf = adult_tensor(sf=0.001)
        a = partition_providers(pdf, n_providers=4, sort_dim="age", seed=2)
        b = partition_providers(pdf, n_providers=4, sort_dim="age", seed=2)
        age = pdf["age"].to_numpy()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
            np.testing.assert_array_equal(age[x], age[y])


class TestBuildFederationRejects:
    """Degenerate layouts fail before any provider store is written."""

    def _build(self, spark, tmp_path, n_rows, **kw):
        return build_federation(
            spark, adult_tensor(sf=0.001).head(n_rows), dims=list(ADULT_DIMS),
            store_root=str(tmp_path), **kw,
        )

    def test_unknown_mode_rejected(self, spark, tmp_path):
        with pytest.raises(ValueError, match="unknown partition mode: bogus"):
            self._build(spark, tmp_path, 100, n_providers=2, partition_mode="bogus")
        assert list(tmp_path.iterdir()) == []

    def test_more_providers_than_rows_rejected(self, spark, tmp_path):
        with pytest.raises(ValueError, match=r"\b10 rows, got 16"):
            self._build(spark, tmp_path, 10, n_providers=16)
        assert list(tmp_path.iterdir()) == []

    def test_zero_providers_rejected(self, spark, tmp_path):
        with pytest.raises(ValueError, match=r"\b10 rows, got 0"):
            self._build(spark, tmp_path, 10, n_providers=0)
        assert list(tmp_path.iterdir()) == []
