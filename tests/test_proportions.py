"""Tests for C^Q identification (Eq 2) and R/p computation (Eq 1)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metadata import build_metadata
from repro.core.proportions import (
    clusters_for_query,
    proportions,
    r_floor,
    sampling_probabilities,
)
from repro.core.query import COUNT, RangeQuery
from repro.synth_data import ADULT_DIMS, adult_tensor, assign_clusters

DIMS = ["age", "education", "hours"]
S = 80


@st.composite
def range_queries(draw):
    """Queries over 1-3 of DIMS, with bounds reaching past both domain ends."""
    dims = draw(st.lists(st.sampled_from(DIMS), min_size=1, max_size=3, unique=True))
    ranges = {}
    for d in dims:
        lb, ub = sorted(draw(st.integers(-3, ADULT_DIMS[d] + 3)) for _ in range(2))
        ranges[d] = (lb, ub)
    return RangeQuery(COUNT, ranges)


@pytest.fixture(scope="module")
def setup(spark):
    pdf = assign_clusters(
        adult_tensor(sf=0.001, seed=5), cluster_size=S, sort_dim="age", seed=0
    )
    meta = build_metadata(spark.createDataFrame(pdf), dims=DIMS, S=S)
    return pdf, meta


class TestClustersForQuery:
    def test_matches_brute_force_envelope(self, setup):
        pdf, meta = setup
        q = RangeQuery(COUNT, {"age": (10, 30), "hours": (20, 60)})
        got = set(clusters_for_query(meta, q).tolist())
        brute = set()
        for cid, grp in pdf.groupby("cluster_id"):
            if (
                grp["age"].min() <= 30
                and grp["age"].max() >= 10
                and grp["hours"].min() <= 60
                and grp["hours"].max() >= 20
            ):
                brute.add(int(cid))
        assert got == brute

    def test_superset_of_matching_clusters(self, setup):
        """Envelope pruning may over-approximate but never drops a cluster
        that actually contains matching rows."""
        pdf, meta = setup
        q = RangeQuery(COUNT, {"age": (25, 35), "education": (3, 8)})
        got = set(clusters_for_query(meta, q).tolist())
        mask = (
            pdf["age"].between(25, 35) & pdf["education"].between(3, 8)
        )
        actually_matching = set(pdf.loc[mask, "cluster_id"].unique().tolist())
        assert actually_matching <= got

    def test_full_domain_selects_all(self, setup):
        pdf, meta = setup
        q = RangeQuery(COUNT, {"age": (0, 73)})
        assert len(clusters_for_query(meta, q)) == meta.n_clusters

    def test_out_of_domain_selects_none(self, setup):
        _, meta = setup
        q = RangeQuery(COUNT, {"age": (200, 300)})
        assert len(clusters_for_query(meta, q)) == 0

    def test_no_ranges_selects_all(self, setup):
        _, meta = setup
        assert len(clusters_for_query(meta, RangeQuery(COUNT, {}))) == meta.n_clusters

    def test_sorted_output(self, setup):
        _, meta = setup
        ids = clusters_for_query(meta, RangeQuery(COUNT, {"age": (0, 73)}))
        assert (np.diff(ids) > 0).all()


class TestAgainstBruteForce:
    @given(q=range_queries())
    @settings(max_examples=150, deadline=None)
    def test_random_queries(self, setup, q):
        """C^Q is the clusters whose per-dimension [min, max] overlaps every
        range, and R is the product of the per-dimension fractions
        |rows >= lb|/S - |rows >= ub+1|/S, bit for bit."""
        pdf, meta = setup
        envelope, expect_r = [], []
        for cid, grp in pdf.groupby("cluster_id"):
            cols = {d: grp[d].to_numpy() for d in q.ranges}
            if all(cols[d].min() <= ub and cols[d].max() >= lb for d, (lb, ub) in q.ranges.items()):
                envelope.append(int(cid))
                r = 1.0
                for d, (lb, ub) in q.ranges.items():
                    r *= max((cols[d] >= lb).sum() / S - (cols[d] >= ub + 1).sum() / S, 0.0)
                expect_r.append(r)
        np.testing.assert_array_equal(clusters_for_query(meta, q), envelope)
        ids, r = proportions(meta, q, min_r=0.0)
        np.testing.assert_array_equal(ids, envelope)
        np.testing.assert_array_equal(r, expect_r)


class TestProportions:
    def test_single_dim_R_is_exact(self, setup):
        """With one query dimension there is no independence error: R must
        equal the true per-cluster matching fraction for every kept
        cluster, and dropped clusters hold less than one expected row."""
        pdf, meta = setup
        q = RangeQuery(COUNT, {"age": (20, 40)})
        ids, r = proportions(meta, q)
        kept = set(ids.tolist())
        for cid, got in zip(ids, r):
            grp = pdf[pdf["cluster_id"] == cid]
            true_frac = grp["age"].between(20, 40).sum() / S
            assert got == pytest.approx(true_frac), cid
        for cid, grp in pdf.groupby("cluster_id"):
            if int(cid) not in kept:
                # dropped => approximated R < 1/S (single dim: exact), i.e.
                # the cluster holds zero matching rows
                assert grp["age"].between(20, 40).sum() / S < 1.0 / S + 1e-12

    def test_multi_dim_R_in_unit_interval(self, setup):
        _, meta = setup
        q = RangeQuery(COUNT, {"age": (10, 50), "education": (2, 10), "hours": (10, 80)})
        _, r = proportions(meta, q)
        assert (r > 0).all() and (r <= 1.0 + 1e-12).all()

    def test_multi_dim_R_close_to_truth_on_average(self, setup):
        """Independence approximation should track the true fraction."""
        pdf, meta = setup
        q = RangeQuery(COUNT, {"age": (10, 50), "hours": (20, 70)})
        ids, r = proportions(meta, q)
        true = []
        for cid in ids:
            grp = pdf[pdf["cluster_id"] == cid]
            true.append(
                (grp["age"].between(10, 50) & grp["hours"].between(20, 70)).sum() / S
            )
        # aggregate mass must agree within 25% (approximation, not exact)
        assert np.sum(r) == pytest.approx(np.sum(true), rel=0.25)

    def test_membership_threshold_applied(self, setup):
        """Every kept cluster holds at least one expected row (R >= 1/S)."""
        _, meta = setup
        q = RangeQuery(COUNT, {"age": (10, 50), "education": (0, 15), "hours": (0, 98)})
        assert r_floor(meta, q) == pytest.approx(S ** -3.0)
        _, r = proportions(meta, q)
        assert (r >= 1.0 / S - 1e-15).all()

    def test_threshold_override(self, setup):
        """min_r=0 recovers the raw (unthresholded) Eq 2 set."""
        _, meta = setup
        from repro.core.proportions import clusters_for_query as cfq

        q = RangeQuery(COUNT, {"age": (10, 50)})
        ids, _ = proportions(meta, q, min_r=0.0)
        assert set(ids.tolist()) == set(cfq(meta, q).tolist())

    def test_inclusive_upper_bound(self, setup):
        """[v, v] point range must count rows equal to v (the paper's
        R^{d>=}(u_b) form would drop them)."""
        pdf, meta = setup
        v = int(pdf["age"].mode()[0])
        q = RangeQuery(COUNT, {"age": (v, v)})
        ids, r = proportions(meta, q)
        for cid, got in zip(ids, r):
            true = (pdf.loc[pdf["cluster_id"] == cid, "age"] == v).sum() / S
            assert got == pytest.approx(true), cid


class TestSamplingProbabilities:
    def test_sum_to_one(self, setup):
        _, meta = setup
        _, r = proportions(meta, RangeQuery(COUNT, {"age": (10, 50)}))
        p = sampling_probabilities(r)
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0).all()

    def test_proportional_to_R(self, setup):
        _, meta = setup
        _, r = proportions(meta, RangeQuery(COUNT, {"age": (10, 50)}))
        p = sampling_probabilities(r)
        np.testing.assert_allclose(p * r.sum(), r)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError, match="all proportions are zero"):
            sampling_probabilities(np.zeros(3))
