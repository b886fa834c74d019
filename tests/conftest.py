"""Shared fixtures: small deterministic federations built once per session.

Scale: SF chosen so each dataset is ~8k tensor rows (unit-test scale per the
repo conventions); the benchmark suite rebuilds at SF=0.1. Each provider is
a parquet cluster store under a session temp directory, the same data path
as every paper artifact.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.federation.builder import Federation, build_federation
from repro.synth_data import ADULT_DIMS, AMAZON_DIMS, adult_tensor, amazon_tensor

ADULT_SF = 0.002  # 8k tensor rows
AMAZON_SF = 0.0005  # 8k tensor rows


@pytest.fixture(scope="session")
def adult_pdf() -> pd.DataFrame:
    return adult_tensor(sf=ADULT_SF, seed=7)


@pytest.fixture(scope="session")
def amazon_pdf() -> pd.DataFrame:
    return amazon_tensor(sf=AMAZON_SF, seed=11)


@pytest.fixture(scope="session")
def adult_fed(spark, adult_pdf, tmp_path_factory) -> Federation:
    return build_federation(
        spark,
        adult_pdf,
        dims=list(ADULT_DIMS),
        store_root=str(tmp_path_factory.mktemp("adult_store")),
        n_providers=4,
        cluster_frac=0.01,
        n_min=5,
        seed=0,
    )


@pytest.fixture(scope="session")
def amazon_fed(spark, amazon_pdf, tmp_path_factory) -> Federation:
    return build_federation(
        spark,
        amazon_pdf,
        dims=list(AMAZON_DIMS),
        store_root=str(tmp_path_factory.mktemp("amazon_store")),
        n_providers=4,
        cluster_frac=0.005,
        n_min=5,
        seed=1,
    )


@pytest.fixture(scope="session")
def adult_fed_pandas(adult_fed) -> Federation:
    """Driver-side mirror of adult_fed (identical protocol, no Spark jobs)."""
    return adult_fed.with_pandas_evaluators()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
