"""Synthetic count tensors at a configurable scale factor.

Tests use SF<=0.01; the paper artifacts use SF 0.01 to 1 (see
``repro.experiments.FEDERATIONS``). Generators are deterministic in
``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Paper-specific generators: count tensors for the EDBT'25 private-AQP
# reproduction (Laouir & Imine). A *count tensor* is a table whose rows are
# distinct-ish combinations of discrete ordered dimension values plus a
# ``measure`` column counting the aggregated individuals (Fig. 2 of the
# paper). All dimensions are integer-coded ordinal values in [0, dom).
# ---------------------------------------------------------------------------

#: Dimension -> domain size for the Adult-lite tensor. Two candidate
#: sensitive attributes for the Table-1 attack, both with domain 100:
#: ``fnlwgt`` (uniform, independent of the QI dims — the paper's regime,
#: where even a non-private attack is near random) and ``capgain``
#: (correlated with ``education``, giving a non-private attack real signal
#: to find — the supplementary "ceiling" experiment).
ADULT_DIMS: dict[str, int] = {
    "age": 74,
    "education": 16,
    "hours": 99,
    "capgain": 100,
    "fnlwgt": 100,
    "occupation": 15,
    "workclass": 9,
    "relationship": 6,
    "sex": 2,
}

#: Dimension -> domain size for the Amazon-Review-lite tensor: three skewed
#: "real" dimensions plus three uniform synthetic ones (the paper likewise
#: adds three randomly-populated dimensions).
AMAZON_DIMS: dict[str, int] = {
    "rating": 5,
    "helpful": 50,
    "month": 120,
    "r1": 20,
    "r2": 30,
    "r3": 10,
}

_N_ADULT_PER_SF = 4_000_000  # tensor rows at SF=1; SF=0.1 ~= paper's 4M individuals
_N_AMAZON_PER_SF = 16_000_000  # tensor rows at SF=1 (~100 MB at SF=0.1) — the "big" dataset


def adult_tensor(*, sf: float = 0.01, seed: int = 7) -> pd.DataFrame:
    """Adult-lite count tensor with skewed, partially correlated marginals."""
    n = max(10, int(_N_ADULT_PER_SF * sf))
    g = _rng(seed)
    education = np.minimum(g.geometric(0.18, n) - 1, 15)
    # SA dim: correlated with education (signal for the NBC attack sanity
    # check) plus wide noise so the correlation is moderate, not trivial.
    capgain = np.clip(
        education * 6 + g.normal(0, 18, n).astype(int) + 5, 0, 99
    ).astype(int)
    pdf = pd.DataFrame(
        {
            "age": np.clip(g.normal(36, 14, n), 0, 73).astype(int),
            "education": education.astype(int),
            "hours": np.clip(g.normal(40, 12, n), 0, 98).astype(int),
            "capgain": capgain,
            "fnlwgt": g.integers(0, 100, n),
            "occupation": np.minimum(g.geometric(0.25, n) - 1, 14).astype(int),
            "workclass": np.minimum(g.geometric(0.45, n) - 1, 8).astype(int),
            "relationship": g.integers(0, 6, n),
            "sex": g.integers(0, 2, n),
            "measure": 1 + g.poisson(9, n),
        }
    )
    return pdf


def amazon_tensor(*, sf: float = 0.01, seed: int = 11) -> pd.DataFrame:
    """Amazon-Review-lite count tensor (3 skewed + 3 uniform dimensions)."""
    n = max(10, int(_N_AMAZON_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "rating": g.choice(5, n, p=[0.06, 0.05, 0.09, 0.20, 0.60]),
            "helpful": np.minimum(g.geometric(0.12, n) - 1, 49).astype(int),
            "month": np.clip(
                119 - (g.exponential(30, n)).astype(int), 0, 119
            ),
            "r1": g.integers(0, 20, n),
            "r2": g.integers(0, 30, n),
            "r3": g.integers(0, 10, n),
            "measure": 1 + g.poisson(3, n),
        }
    )
    return pdf


def _jittered_order(values: np.ndarray, jitter: float, seed: int) -> np.ndarray:
    """Row positions sorted by ``values`` plus Gaussian jitter of ``jitter``
    times their span (stable, so equal keys keep their order)."""
    g = _rng(seed)
    span = max(1.0, float(values.max() - values.min()))
    key = values + g.normal(0, jitter * span, len(values))
    return np.argsort(key, kind="stable")


def assign_clusters(
    pdf: pd.DataFrame,
    *,
    cluster_size: int,
    sort_dim: str,
    seed: int = 0,
) -> pd.DataFrame:
    """Assign rows to fixed-size clusters with value locality.

    Real storage pages correlate with insertion order, which correlates
    with attribute values (e.g. time). We sort by ``sort_dim`` plus
    Gaussian jitter (15% of the domain span) and chunk into clusters
    of ``cluster_size`` rows, yielding the skewed per-cluster proportions
    that make distribution-aware (PPS) sampling beat uniform sampling.
    The result is the one copy of ``pdf``'s rows, in cluster order.
    """
    out = pdf.take(_jittered_order(pdf[sort_dim].to_numpy(), 0.15, seed))
    out.index = pd.RangeIndex(len(out))
    out["cluster_id"] = (np.arange(len(out)) // cluster_size).astype("int64")
    return out


def partition_providers(
    pdf: pd.DataFrame, *, n_providers: int, sort_dim: str, seed: int = 0
) -> list[np.ndarray]:
    """Horizontally partition a tensor into equal-size provider tables,
    returned as each provider's row positions into ``pdf``.

    Rows are ordered by ``sort_dim`` plus Gaussian jitter (half its span)
    before chunking, so providers hold overlapping but distinct slices of
    the value space — the cross-provider skew the allocation phase (Eq 6)
    is designed to exploit.
    """
    order = _jittered_order(pdf[sort_dim].to_numpy(), 0.5, seed)
    bounds = np.linspace(0, len(pdf), n_providers + 1).astype(int)
    return [order[bounds[i] : bounds[i + 1]] for i in range(n_providers)]
