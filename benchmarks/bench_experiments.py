"""One benchmark per paper artifact of the experiment registry.

Each case builds the federations its artifact needs (once per session, not
timed), times the artifact's driver calls, writes the same
``benchmark_results/<file>.md`` as ``jobs/run_experiment.py`` and checks the
paper's shape claim for that artifact.

    pytest benchmarks/ --benchmark-only            # every artifact
    pytest benchmarks/ --benchmark-only -k fig1    # one artifact
"""
from __future__ import annotations

from statistics import mean

import pytest

from repro.experiments import ARTIFACTS, SPEC_PAPER, XI, Federations, render, run
from repro.reporting import save_results


def _check_table1(tables):
    primary, supplementary = tables
    random_level = 1.0 / SPEC_PAPER.sa_domain
    private = [p for p in primary if p["mode"] in ("sequential", "advanced", "coalition")]
    for r in private:
        for x in XI:
            # paper: < 1% in every cell; allow 2.5x random for sampling noise
            assert r[f"xi={x:g}"] < 2.5 * random_level, r

    # the correlated regime must show a real ceiling and DP collapse at ξ=1
    ceiling = [r for r in supplementary if r["mode"].startswith("no-privacy")][0]
    seq = [r for r in supplementary if r["mode"] == "sequential"][0]
    assert ceiling["xi=1"] > 5 * random_level
    assert seq["xi=1"] < 0.5 * ceiling["xi=1"]


def _check_fig1(tables):
    (rows,) = tables
    # result sharing is constant and ~0.04 s; row-sharing cost grows with
    # the rows shared and reaches >100× on the larger queries
    assert all(0.005 < r["smc_results_s"] < 0.2 for r in rows)
    by_rows = sorted(rows, key=lambda r: r["rows_shared"])
    assert by_rows[-1]["ratio"] > by_rows[0]["ratio"]
    assert by_rows[-1]["ratio"] > 100


def _check_fig4(tables):
    (rows,) = tables
    # the Fig 4 shape: fewer dims ⇒ lower error (check the extremes, COUNT)
    by = {(r["dataset"], r["n_dims"], r["agg"]): r["rel_err"] for r in rows}
    assert by[("amazon-lite", 2, "COUNT")] < 0.25


def _check_fig5(tables):
    (rows,) = tables
    # trend check: higher sr must not increase error much on the big dataset
    count_rows = [
        r for r in rows if r["dataset"] == "amazon-lite" and r["agg"] == "COUNT"
    ]
    assert count_rows[-1]["rel_err"] < count_rows[0]["rel_err"] + 0.05


def _check_fig6(tables):
    (rows,) = tables
    # the canonical DP trend on the big dataset: ε=0.1 worse than ε=1.3
    ama = [r for r in rows if r["dataset"] == "amazon-lite" and r["agg"] == "COUNT"]
    assert ama[0]["rel_err"] >= ama[-1]["rel_err"] - 0.02


def _check_fig7(tables):
    dim_rows, eps_rows, scale_rows = tables
    # shape: approximation faster than exact at the big scale ...
    assert min(r["speedup"] for r in dim_rows) > 1.0
    # ... ε has no systematic effect on speed-up (paper Fig 7b) ...
    sp = [r["speedup"] for r in eps_rows]
    assert max(sp) / min(sp) < 2.0
    # ... and speed-up grows with dataset size (paper §6.3)
    count_scale = [r for r in scale_rows if r["agg"] == "COUNT"]
    assert count_scale[-1]["speedup"] > count_scale[0]["speedup"]


def _check_fig8(tables):
    (rows,) = tables
    smc = [r for r in rows if r["mode"] == "SMC"]
    dp = [r for r in rows if r["mode"] == "DP"]
    # SMC result-sharing must not produce significant overhead (Fig 8 / Fig 1)
    assert mean(r["speedup"] for r in smc) > 0.5 * mean(r["speedup"] for r in dp)


def _check_metadata_space(tables):
    (rows,) = tables
    # §6.1: the metadata is a negligible fraction of the data, under a MB here
    assert all(r["metadata_mb"] < 1.0 for r in rows)


CHECKS = {
    "table1": _check_table1,
    "fig1": _check_fig1,
    "fig4": _check_fig4,
    "fig5": _check_fig5,
    "fig6": _check_fig6,
    "fig7": _check_fig7,
    "fig8": _check_fig8,
    "metadata_space": _check_metadata_space,
}


@pytest.fixture(scope="session")
def federations(spark, tmp_path_factory) -> Federations:
    return Federations(spark, str(tmp_path_factory.mktemp("stores")))


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_artifact(benchmark, federations, name):
    artifact = ARTIFACTS[name]
    feds = {f: federations[f] for f in artifact.federations}
    tables = benchmark.pedantic(run, args=(artifact, feds), rounds=1, iterations=1)
    save_results(artifact.results, render(artifact, tables))
    CHECKS[name](tables)
