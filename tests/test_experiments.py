"""Tests for the §6 experiment drivers (structure + trend sanity) and the
experiment registry.

Runs at unit scale on the pandas-evaluator federation so the whole module
stays fast; the benchmark suite runs the registry at bench scale.
"""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments
from benchmarks.bench_experiments import CHECKS
from repro.attack.nbc import AttackSpec
from repro.core.query import COUNT, SUM
from repro.experiments import (
    ARTIFACTS,
    FEDERATIONS,
    attack_table,
    dimension_sweep,
    epsilon_sweep,
    render,
    run,
    sampling_rate_sweep,
    smc_comparison,
    smc_cost_simulation,
)
from repro.synth_data import ADULT_DIMS

ROOT = Path(__file__).resolve().parent.parent


class TestDimensionSweep:
    def test_row_structure(self, adult_fed_pandas):
        rows = dimension_sweep(
            adult_fed_pandas, ADULT_DIMS, n_dims_list=[2, 3], m=3, sr=0.2, seed=1
        )
        assert len(rows) == 4  # 2 dims × 2 aggs
        for r in rows:
            assert set(r) >= {"n_dims", "agg", "rel_err", "speedup"}
            assert r["rel_err"] >= 0 and r["speedup"] > 0

    def test_covers_both_aggs(self, adult_fed_pandas):
        rows = dimension_sweep(
            adult_fed_pandas, ADULT_DIMS, n_dims_list=[2], m=2, sr=0.2, seed=2
        )
        assert {r["agg"] for r in rows} == {COUNT, SUM}


class TestSamplingRateSweep:
    def test_rates_enumerated(self, adult_fed_pandas):
        rows = sampling_rate_sweep(
            adult_fed_pandas, ADULT_DIMS, rates=[0.1, 0.2], m=2, n_dims=2, seed=3
        )
        assert {r["sr"] for r in rows} == {0.1, 0.2}
        assert len(rows) == 4


class TestEpsilonSweep:
    def test_eps_enumerated(self, adult_fed_pandas):
        rows = epsilon_sweep(
            adult_fed_pandas, ADULT_DIMS, eps_list=[0.5, 5.0], m=2, sr=0.2,
            n_dims=2, seed=4,
        )
        assert {r["eps"] for r in rows} == {0.5, 5.0}

    def test_error_trend_with_extreme_eps(self, adult_fed_pandas):
        """ε=1e-3 must be (much) worse than ε=1e3 on the same workload."""
        rows = epsilon_sweep(
            adult_fed_pandas, ADULT_DIMS, eps_list=[1e-3, 1e3], m=3, sr=0.3,
            n_dims=2, seed=5,
        )
        count_rows = [r for r in rows if r["agg"] == COUNT]
        assert count_rows[0]["rel_err"] > count_rows[1]["rel_err"]


class TestSmcComparison:
    def test_modes_and_reps(self, adult_fed_pandas):
        rows = smc_comparison(
            adult_fed_pandas, ADULT_DIMS, n_queries=2, reps=2, sr=0.2, seed=6
        )
        assert len(rows) == 4  # 2 queries × 2 modes
        assert {r["mode"] for r in rows} == {"DP", "SMC"}
        for r in rows:
            assert r["noise_hi"] >= r["noise_lo"]
            assert r["noise_spread"] == pytest.approx(r["noise_hi"] - r["noise_lo"])


class TestSmcCostSimulation:
    def test_rows_and_ratio(self, adult_fed_pandas):
        rows = smc_cost_simulation(adult_fed_pandas, ADULT_DIMS, n_queries=3, seed=7)
        assert len(rows) == 3
        for r in rows:
            # at unit scale a tiny query's rows can be cheaper to share than
            # the fixed result round — the Fig 1 claim is about large tables,
            # checked at bench scale; here only internal consistency
            assert r["smc_rows_s"] > 0 and r["smc_results_s"] > 0
            assert r["ratio"] == pytest.approx(r["smc_rows_s"] / r["smc_results_s"])

    def test_cost_grows_with_rows(self, adult_fed_pandas):
        rows = smc_cost_simulation(adult_fed_pandas, ADULT_DIMS, n_queries=4, seed=8)
        by_rows = sorted(rows, key=lambda r: r["rows_shared"])
        assert by_rows[0]["smc_rows_s"] <= by_rows[-1]["smc_rows_s"]


class TestAttackTable:
    @pytest.fixture(scope="class")
    def tiny_spec(self):
        # tiny domains keep nQueries ≈ 60 so the full protocol is cheap
        return AttackSpec(
            sa_dim="relationship",
            qi_dims=("sex",),
            domains={"relationship": 6, "sex": 2},
        )

    def test_table_structure(self, adult_fed_pandas, tiny_spec):
        rows = attack_table(
            adult_fed_pandas, tiny_spec, xi_list=[1.0, 50.0], seed=9,
            modes=("sequential",), aggs=(COUNT,),
            include_no_privacy_ceiling=True,
        )
        modes = [r["mode"] for r in rows]
        assert "sequential" in modes
        assert any(m.startswith("no-privacy") for m in modes)
        seq = rows[0]
        assert set(seq) >= {"mode", "agg", "xi=1", "xi=50"}
        assert 0 <= seq["xi=1"] <= 1

    def test_all_modes_run(self, adult_fed_pandas, tiny_spec):
        rows = attack_table(
            adult_fed_pandas, tiny_spec, xi_list=[10.0], seed=10,
            include_no_privacy_ceiling=False,
        )
        modes = {r["mode"] for r in rows if r["agg"]}
        assert modes == {"sequential", "advanced", "coalition"}
        assert len([r for r in rows if r["agg"]]) == 6  # 3 modes × 2 aggs


class TestRegistry:
    def test_experiments_md_blocks_match_registry(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        begins = re.findall(r"<!-- BEGIN (\w+) -->", text)
        ends = re.findall(r"<!-- END (\w+) -->", text)
        assert sorted(begins) == sorted(ends) == sorted(ARTIFACTS)

    def test_benchmark_checks_cover_registry(self):
        assert CHECKS.keys() == ARTIFACTS.keys()

    def test_names_unique(self):
        """A repeated key in the registry's dict literals would silently drop
        an entry, so read the literals' keys from the source."""
        tree = ast.parse(Path(repro.experiments.__file__).read_text())
        registries = {
            node.target.id: [k.value for k in node.value.keys]
            for node in ast.walk(tree)
            if isinstance(node, ast.AnnAssign)
            and node.target.id in ("FEDERATIONS", "ARTIFACTS")
        }
        assert registries.keys() == {"FEDERATIONS", "ARTIFACTS"}
        for keys in registries.values():
            assert len(keys) == len(set(keys))
        results = [a.results for a in ARTIFACTS.values()]
        assert len(results) == len(set(results))

    def test_calls_use_registered_federations(self):
        for artifact in ARTIFACTS.values():
            assert set(artifact.federations) <= FEDERATIONS.keys()

    def test_run_renders_registered_columns(self, adult_fed_pandas):
        """fig1's registered call, on the unit-scale federation."""
        artifact = ARTIFACTS["fig1"]
        tables = run(artifact, {"adult": adult_fed_pandas})
        assert [len(rows) for rows in tables] == [5]
        header = render(artifact, tables).splitlines()[0]
        assert header == "| " + " | ".join(artifact.tables[0].columns) + " |"

    def test_run_experiment_rejects_unknown_name(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "jobs" / "run_experiment.py"), "fig1", "fig9"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode != 0
        assert "fig9" in proc.stderr
        for name in ARTIFACTS:
            assert name in proc.stderr
        assert proc.stderr.startswith("usage:")  # rejected while parsing, before Spark
