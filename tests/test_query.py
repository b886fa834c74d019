"""Tests for the range-query model, oracle-checked against DuckDB."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import COUNT, RESULT_COL, SUM, RangeQuery
from repro.oracle import assert_equivalent


class TestValidation:
    def test_bad_agg_rejected(self):
        with pytest.raises(ValueError, match="agg must be one of"):
            RangeQuery("AVG", {"age": (0, 10)})

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="empty range"):
            RangeQuery(COUNT, {"age": (10, 5)})

    @pytest.mark.parametrize("bounds", [(17.5, 30), (0, 10.0), ("1", 5)])
    def test_non_integer_bounds_rejected(self, bounds):
        """Spark and the metadata must see the same integer bounds."""
        with pytest.raises(ValueError, match="must be integers"):
            RangeQuery(COUNT, {"age": bounds})

    def test_numpy_integer_bounds_accepted(self):
        q = RangeQuery(COUNT, {"age": (np.int64(3), np.int32(7))})
        assert q.where_sql() == "(age BETWEEN 3 AND 7)"

    def test_dims_order_stable(self):
        q = RangeQuery(COUNT, {"b": (0, 1), "a": (0, 1)})
        assert q.dims == ["b", "a"]

    def test_frozen(self):
        q = RangeQuery(COUNT, {"age": (0, 10)})
        with pytest.raises(AttributeError):
            q.agg = SUM


class TestSqlRendering:
    def test_where_sql_no_ranges(self):
        assert RangeQuery(COUNT, {}).where_sql() == "TRUE"

    def test_where_sql_conjunction(self):
        q = RangeQuery(COUNT, {"age": (1, 5), "sex": (0, 0)})
        assert q.where_sql() == "(age BETWEEN 1 AND 5) AND (sex BETWEEN 0 AND 0)"

    def test_duckdb_sql_count(self):
        sql = RangeQuery(COUNT, {"age": (1, 5)}).duckdb_sql("tbl")
        assert "COUNT(*)" in sql and f"AS {RESULT_COL}" in sql and "FROM tbl" in sql

    def test_duckdb_sql_sum(self):
        sql = RangeQuery(SUM, {"age": (1, 5)}).duckdb_sql()
        assert "SUM(measure)" in sql


@pytest.mark.parametrize("agg", [COUNT, SUM])
@pytest.mark.parametrize(
    "ranges",
    [
        {"age": (10, 50)},
        {"age": (0, 73)},  # full domain
        {"age": (20, 40), "education": (2, 10)},
        {"age": (20, 40), "education": (2, 10), "hours": (10, 60)},
        {"sex": (0, 0), "capgain": (0, 30)},
        {"age": (70, 73)},  # narrow tail range
        {},  # no predicate: whole table
    ],
)
class TestSparkVsDuckDB:
    """query.evaluate-style Spark aggregation must equal DuckDB exactly."""

    def test_result_equivalent(self, spark, adult_pdf, agg, ranges):
        q = RangeQuery(agg, ranges)
        sdf = spark.createDataFrame(adult_pdf)
        got = sdf.filter(q.predicate()).agg(q.agg_column())
        assert_equivalent(got, q.duckdb_sql("t"), t=adult_pdf)


class TestEvaluateHelpers:
    def test_evaluate_scalar_matches_pandas(self, spark, adult_pdf):
        q = RangeQuery(COUNT, {"age": (10, 50)})
        sdf = spark.createDataFrame(adult_pdf)
        mask = (adult_pdf["age"] >= 10) & (adult_pdf["age"] <= 50)
        assert q.evaluate(sdf) == float(mask.sum())

    def test_evaluate_sum_matches_pandas(self, spark, adult_pdf):
        q = RangeQuery(SUM, {"hours": (30, 50)})
        sdf = spark.createDataFrame(adult_pdf)
        mask = (adult_pdf["hours"] >= 30) & (adult_pdf["hours"] <= 50)
        assert q.evaluate(sdf) == float(adult_pdf.loc[mask, "measure"].sum())

    def test_evaluate_empty_result_is_zero(self, spark, adult_pdf):
        q = RangeQuery(SUM, {"age": (0, 73), "sex": (5, 9)})  # sex domain is 2
        sdf = spark.createDataFrame(adult_pdf)
        assert q.evaluate(sdf) == 0.0

    def test_per_cluster_sums_to_total(self, spark, adult_pdf):
        from repro.synth_data import assign_clusters

        local = assign_clusters(adult_pdf, cluster_size=200, sort_dim="age", seed=0)
        sdf = spark.createDataFrame(local)
        q = RangeQuery(SUM, {"age": (10, 50)})
        per = q.evaluate_per_cluster(sdf)
        assert sum(per.values()) == pytest.approx(q.evaluate(sdf))

    def test_per_cluster_omits_empty_clusters(self, spark, adult_pdf):
        from repro.synth_data import assign_clusters

        local = assign_clusters(adult_pdf, cluster_size=200, sort_dim="age", seed=0)
        sdf = spark.createDataFrame(local)
        q = RangeQuery(COUNT, {"age": (0, 5)})  # only low-age clusters match
        per = q.evaluate_per_cluster(sdf)
        assert 0 < len(per) < local["cluster_id"].nunique()
        assert all(v > 0 for v in per.values())
