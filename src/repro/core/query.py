"""Range-query model (§3 "Queries").

A :class:`RangeQuery` is ``SELECT <agg> FROM T WHERE <conjunctive ranges>``
with ``agg`` either ``COUNT(*)`` (tensor rows) or ``SUM(measure)``
(aggregated individuals). It renders to a Spark ``Column`` predicate /
aggregation for execution, to a row mask over pandas frames and to DuckDB
SQL for the correctness oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

COUNT = "COUNT"
SUM = "SUM"
_AGGS = (COUNT, SUM)

#: Output column alias used on both the Spark and DuckDB side.
RESULT_COL = "result"


@dataclass(frozen=True)
class RangeQuery:
    """A conjunctive range aggregation query over integer-coded dimensions.

    ``ranges`` maps dimension name -> inclusive ``(lb, ub)`` bounds.
    """

    agg: str
    ranges: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.agg not in _AGGS:
            raise ValueError(f"agg must be one of {_AGGS}, got {self.agg!r}")
        for d, (lb, ub) in self.ranges.items():
            if not (isinstance(lb, Integral) and isinstance(ub, Integral)):
                raise ValueError(f"bounds on {d} must be integers, got ({lb!r}, {ub!r})")
            if lb > ub:
                raise ValueError(f"empty range on {d}: [{lb}, {ub}]")

    @property
    def dims(self) -> list[str]:
        """Query dimensions D^Q, in stable (insertion) order."""
        return list(self.ranges)

    def predicate(self) -> Column:
        """Spark boolean Column for the WHERE clause (True if no ranges)."""
        pred = F.lit(True)
        for d, (lb, ub) in self.ranges.items():
            pred = pred & F.col(d).between(int(lb), int(ub))
        return pred

    def mask(self, pdf: pd.DataFrame) -> np.ndarray:
        """Boolean row mask of the WHERE clause over a pandas frame."""
        mask = np.ones(len(pdf), dtype=bool)
        for d, (lb, ub) in self.ranges.items():
            col = pdf[d].to_numpy()
            mask &= (col >= lb) & (col <= ub)
        return mask

    def agg_column(self) -> Column:
        """Spark aggregation expression, aliased to :data:`RESULT_COL`."""
        if self.agg == COUNT:
            return F.count(F.lit(1)).cast("double").alias(RESULT_COL)
        return F.coalesce(F.sum("measure").cast("double"), F.lit(0.0)).alias(
            RESULT_COL
        )

    def evaluate(self, df: DataFrame) -> float:
        """Exact evaluation on a Spark DataFrame — one filter+aggregate job."""
        row = df.filter(self.predicate()).agg(self.agg_column()).first()
        return float(row[RESULT_COL])

    def evaluate_per_cluster(self, df: DataFrame) -> dict[int, float]:
        """Q(C) for every cluster present in ``df`` (grouped aggregate)."""
        rows = (
            df.filter(self.predicate())
            .groupBy("cluster_id")
            .agg(self.agg_column())
            .collect()
        )
        return {int(r["cluster_id"]): float(r[RESULT_COL]) for r in rows}

    def where_sql(self) -> str:
        """SQL WHERE expression (identical semantics in Spark SQL/DuckDB)."""
        if not self.ranges:
            return "TRUE"
        return " AND ".join(
            f"({d} BETWEEN {int(lb)} AND {int(ub)})"
            for d, (lb, ub) in self.ranges.items()
        )

    def duckdb_sql(self, table: str = "t") -> str:
        """Oracle SQL with the output aliased exactly like the Spark side."""
        expr = (
            "CAST(COUNT(*) AS DOUBLE)"
            if self.agg == COUNT
            else "CAST(COALESCE(SUM(measure), 0) AS DOUBLE)"
        )
        return f"SELECT {expr} AS {RESULT_COL} FROM {table} WHERE {self.where_sql()}"
