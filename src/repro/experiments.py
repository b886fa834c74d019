"""Evaluation-section experiments (§6): the drivers and the one registry of
paper artifacts that ``jobs/run_experiment.py`` and ``benchmarks/`` both run.

Each driver reproduces one artifact's numbers and returns printable rows.
``FEDERATIONS`` names every federation the evaluation builds, and
``ARTIFACTS`` says, per artifact, which drivers run on which federation with
which arguments, the columns printed and the ``benchmark_results/`` file
written. Metrics follow §6.1: Relative error = |answer − estimation| / answer
and Speed-up = time(normal computation) / time(estimate computation).
"""
from __future__ import annotations

import os
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from statistics import mean

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.attack.nbc import AttackSpec, per_query_eps, train_nbc
from repro.core.query import COUNT, SUM, RangeQuery
from repro.federation.builder import Federation, build_federation
from repro.reporting import format_table, save_results
from repro.smc.protocol import SMCEnvironment
from repro.synth_data import ADULT_DIMS, AMAZON_DIMS, adult_tensor, amazon_tensor
from repro.workloads import qualifying_workload


def _cell(
    fed: Federation,
    queries: list[RangeQuery],
    *,
    sr: float,
    eps: float,
    delta: float,
    seed: int,
    use_smc: bool = False,
) -> dict:
    """Mean relative error + speed-up of the private protocol over a
    workload, against the exact plain-text execution."""
    rng = np.random.default_rng(seed)
    rel_errs, speedups = [], []
    for q in queries:
        t0 = time.perf_counter()
        exact = fed.aggregator.exact(q)
        exact_s = time.perf_counter() - t0
        ans = fed.aggregator.answer(
            q, sampling_rate=sr, eps=eps, delta=delta, rng=rng, use_smc=use_smc
        )
        rel_errs.append(abs(ans.value - exact) / max(abs(exact), 1.0))
        speedups.append(exact_s / max(ans.seconds, 1e-9))
    return {"rel_err": mean(rel_errs), "speedup": mean(speedups)}


def dimension_sweep(
    fed: Federation,
    dims: dict[str, int],
    *,
    n_dims_list: list[int],
    m: int,
    sr: float,
    eps: float = 1.0,
    delta: float = 1e-3,
    seed: int = 0,
    min_width_frac: float = 0.3,
) -> list[dict]:
    """Fig 4 (+ Fig 7 dims axis): error/speed-up vs #query dimensions.

    ``min_width_frac`` keeps random ranges wide enough that high-dimension
    answers stay above the noise floor — the regime the paper's reported
    error bands imply (its 4M/924M-row tables with ≤ 17% error at n=7
    require range products far above #clusters-scale noise).
    """
    rows = []
    for n in n_dims_list:
        for agg in (COUNT, SUM):
            ws = qualifying_workload(
                dims, fed.providers, m=m, n_dims=n, agg=agg, seed=seed + n,
                min_width_frac=min_width_frac,
            )
            cell = _cell(fed, ws, sr=sr, eps=eps, delta=delta, seed=seed + n)
            rows.append({"n_dims": n, "agg": agg, **cell})
    return rows


def sampling_rate_sweep(
    fed: Federation,
    dims: dict[str, int],
    *,
    rates: list[float],
    m: int,
    n_dims: int = 4,
    eps: float = 1.0,
    delta: float = 1e-3,
    seed: int = 0,
    min_width_frac: float = 0.3,
) -> list[dict]:
    """Fig 5: error/speed-up vs sampling rate (fixed n=4 dims)."""
    rows = []
    for agg in (COUNT, SUM):
        ws = qualifying_workload(
            dims, fed.providers, m=m, n_dims=n_dims, agg=agg, seed=seed,
            min_width_frac=min_width_frac,
        )
        for sr in rates:
            cell = _cell(fed, ws, sr=sr, eps=eps, delta=delta, seed=seed + int(sr * 100))
            rows.append({"sr": sr, "agg": agg, **cell})
    return rows


def epsilon_sweep(
    fed: Federation,
    dims: dict[str, int],
    *,
    eps_list: list[float],
    m: int,
    sr: float,
    n_dims: int = 4,
    delta: float = 1e-3,
    seed: int = 0,
    min_width_frac: float = 0.3,
) -> list[dict]:
    """Fig 6 (+ Fig 7 ε axis): error/speed-up vs privacy budget ε."""
    rows = []
    for agg in (COUNT, SUM):
        ws = qualifying_workload(
            dims, fed.providers, m=m, n_dims=n_dims, agg=agg, seed=seed,
            min_width_frac=min_width_frac,
        )
        for eps in eps_list:
            cell = _cell(fed, ws, sr=sr, eps=eps, delta=delta, seed=seed + int(eps * 10))
            rows.append({"eps": eps, "agg": agg, **cell})
    return rows


def smc_comparison(
    fed: Federation,
    dims: dict[str, int],
    *,
    n_queries: int = 5,
    reps: int = 5,
    sr: float = 0.1,
    eps: float = 1.0,
    delta: float = 1e-3,
    seed: int = 0,
) -> list[dict]:
    """Fig 8: per-query Laplace noise range and speed-up, with/without SMC
    result sharing (two-dimensional COUNT queries, as in the paper)."""
    ws = qualifying_workload(dims, fed.providers, m=n_queries, n_dims=2, agg=COUNT, seed=seed)
    rows = []
    for qi, q in enumerate(ws):
        for mode in ("DP", "SMC"):
            rng = np.random.default_rng(seed + qi)
            noises, speedups = [], []
            for _ in range(reps):
                t0 = time.perf_counter()
                fed.aggregator.exact(q)
                exact_s = time.perf_counter() - t0
                ans = fed.aggregator.answer(
                    q,
                    sampling_rate=sr,
                    eps=eps,
                    delta=delta,
                    rng=rng,
                    use_smc=(mode == "SMC"),
                )
                noises.append(ans.noise)
                # SMC wire time is simulated; add it to the measured time
                speedups.append(exact_s / max(ans.seconds + ans.smc_seconds, 1e-9))
            rows.append(
                {
                    "query": qi + 1,
                    "mode": mode,
                    "noise_lo": min(noises),
                    "noise_hi": max(noises),
                    "noise_spread": max(noises) - min(noises),
                    "speedup": mean(speedups),
                }
            )
    return rows


def smc_cost_simulation(
    fed: Federation,
    dims: dict[str, int],
    *,
    n_queries: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Fig 1: simulated SMC cost of sharing matching rows vs sharing only
    local results, per random range query."""
    ws = qualifying_workload(dims, fed.providers, m=n_queries, n_dims=2, agg=COUNT, seed=seed)
    n_cols = len(dims) + 1  # dims + measure
    rows = []
    for qi, q in enumerate(ws):
        matching_rows = int(fed.aggregator.exact(q))
        env = SMCEnvironment(n_parties=len(fed.providers), rng=np.random.default_rng(seed))
        t_rows = env.share_rows_cost(matching_rows, n_cols)
        t_results = env.share_results_cost()
        rows.append(
            {
                "query": qi + 1,
                "rows_shared": matching_rows,
                "smc_rows_s": t_rows,
                "smc_results_s": t_results,
                "ratio": t_rows / t_results,
            }
        )
    return rows


def attack_table(
    fed: Federation,
    spec: AttackSpec,
    *,
    xi_list: list[float],
    psi: float = 1e-6,
    sr: float = 0.1,
    modes: tuple[str, ...] = ("sequential", "advanced", "coalition"),
    aggs: tuple[str, ...] = (COUNT, SUM),
    seed: int = 0,
) -> list[dict]:
    """Table 1: NBC inference accuracy per composition mode / agg / ξ.

    Answers are issued through the full protocol on ``fed``'s pandas
    mirror (numerically identical, and feasible for ~10^4 queries per cell,
    where one Spark job per query is not). Accuracy is scored on the rows
    the providers hold, as the mirror read them. The last row is the
    non-private ceiling, trained on the mirror's exact answers, showing the
    attack does work without DP.
    """
    mirror = fed.with_pandas_evaluators()
    target = pd.concat([p.evaluator.pdf for p in mirror.providers], ignore_index=True)
    rows = []
    nq = spec.n_queries
    t0 = time.perf_counter()
    for mode in modes:
        for agg in aggs:
            accs = {}
            for xi in xi_list:
                eps, delta = per_query_eps(mode, xi, nq, psi)
                rng = np.random.default_rng(seed)

                def answer(q: RangeQuery) -> float:
                    return mirror.aggregator.answer(
                        q, sampling_rate=sr, eps=eps, delta=delta, rng=rng
                    ).value

                nbc = train_nbc(spec, answer, agg=agg)
                accs[f"xi={xi:g}"] = nbc.accuracy(target)
            rows.append({"mode": mode, "agg": agg, **accs})
    acc = train_nbc(spec, mirror.aggregator.exact, agg=COUNT).accuracy(target)
    rows.append(
        {"mode": "no-privacy (ceiling)", "agg": COUNT} | {f"xi={xi:g}": acc for xi in xi_list}
    )
    rows.append({"mode": f"(total {time.perf_counter() - t0:.0f}s)", "agg": ""})
    return rows


def metadata_footprint(fed: Federation) -> list[dict]:
    """§6.1 metadata space: the bytes of every provider's Algorithm 1
    count matrices, in MiB and in KiB per cluster."""
    total = sum(p.meta.size_bytes() for p in fed.providers)
    clusters = sum(p.meta.n_clusters for p in fed.providers)
    return [
        {
            "clusters": clusters,
            "S": fed.providers[0].meta.S,
            "metadata_mb": round(total / 1024**2, 3),
            "kb_per_cluster": round(total / 1024 / clusters, 3),
        }
    ]


# ---------------------------------------------------------------------------
# The registry: every federation and every paper artifact, defined once.
# ---------------------------------------------------------------------------

_DATASETS = {"adult": (adult_tensor, ADULT_DIMS), "amazon": (amazon_tensor, AMAZON_DIMS)}


@dataclass(frozen=True)
class FederationSpec:
    """How one federation of the evaluation is built."""

    dataset: str  # "adult" or "amazon": the tensor generator and its dims
    sf: float
    tensor_seed: int
    cluster_frac: float  # S as a fraction of one provider's rows
    seed: int  # build_federation seed: provider partition and cluster jitter
    n_providers: int = 4
    n_min: int = 10


def build(spark: SparkSession, spec: FederationSpec, store_root: str) -> Federation:
    """Build ``spec``'s federation, its parquet stores under ``store_root``."""
    generator, dims = _DATASETS[spec.dataset]
    return build_federation(
        spark,
        generator(sf=spec.sf, seed=spec.tensor_seed),
        dims=list(dims),
        n_providers=spec.n_providers,
        cluster_frac=spec.cluster_frac,
        n_min=spec.n_min,
        store_root=store_root,
        seed=spec.seed,
    )


# Accuracy at the paper's regime needs the paper's data scale: the smooth-
# sensitivity noise is roughly size-independent (~#clusters), so relative
# error is noise/answer. adult-lite at SF=1 (4M tensor rows, the paper's
# scaled Adult) and amazon-lite at SF=0.5 (8M rows) put answers in the
# paper's answer-to-noise regime while staying laptop-feasible. S is 1% of a
# provider for Adult and 0.5% for Amazon, as in the paper.
_ADULT = FederationSpec("adult", sf=1.0, tensor_seed=7, cluster_frac=0.01, seed=0)
_AMAZON = FederationSpec("amazon", sf=0.5, tensor_seed=11, cluster_frac=0.005, seed=1)

FEDERATIONS: dict[str, FederationSpec] = {
    "adult": _ADULT,
    "amazon": _AMAZON,
    # Fig 7's scale sweep
    "amazon_small": replace(_AMAZON, sf=0.1),
    "amazon_big": replace(_AMAZON, sf=1.0),
    # Table 1: 40k rows; attack_table answers its ~10^4 queries per cell
    # through the pandas mirror (numerically identical to the store path,
    # see tests/test_evaluation.py)
    "adult_attack": replace(_ADULT, sf=0.01),
}


@dataclass(frozen=True)
class Call:
    """``driver(federation, **kwargs)``. Each row it returns is prefixed with
    the federation's ``dataset`` label, ``sf`` and ``tensor_rows``, then with
    ``label``."""

    driver: Callable[..., list[dict]]
    federation: str
    kwargs: dict = field(default_factory=dict)
    label: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Table:
    columns: list[str]
    calls: list[Call]
    title: str = ""


@dataclass(frozen=True)
class Artifact:
    """One paper artifact. Its registry name is also the key of its
    ``<!-- BEGIN name -->`` block in EXPERIMENTS.md."""

    results: str  # written to benchmark_results/<results>.md
    tables: list[Table]

    @property
    def federations(self) -> list[str]:
        """The federations the artifact runs on, in order of first use."""
        return list(dict.fromkeys(c.federation for t in self.tables for c in t.calls))


XI = [1.0, 20.0, 50.0, 100.0]
_QI = ("education", "workclass", "relationship")
_QI_DOMAINS = {d: ADULT_DIMS[d] for d in _QI}
SPEC_PAPER = AttackSpec(
    sa_dim="fnlwgt", qi_dims=_QI, domains={"fnlwgt": ADULT_DIMS["fnlwgt"], **_QI_DOMAINS}
)
SPEC_CORRELATED = AttackSpec(
    sa_dim="capgain", qi_dims=_QI, domains={"capgain": ADULT_DIMS["capgain"], **_QI_DOMAINS}
)
_ATTACK_COLS = ["mode", "agg"] + [f"xi={x:g}" for x in XI]

_M = 6  # queries per cell (paper: m=100), the wall-clock budget EXPERIMENTS.md states
_M_FIG7 = 4  # on the 16M-row federation
_RATES = [0.05, 0.10, 0.15, 0.20]
_EPS = [0.1, 0.4, 0.7, 1.0, 1.3]

ARTIFACTS: dict[str, Artifact] = {
    # Table 1 (§6.6): NBC accuracy vs total budget ξ, ψ=1e-6, 3 QI dims,
    # ||SA||=100. Primary: SA=fnlwgt is near-uniform and independent of the
    # QIs, like the paper's binned Adult SA, so even the non-private ceiling
    # is near random. Supplementary: SA=capgain is education-driven, so the
    # ceiling is far above random and shows the attack works until DP
    # collapses it.
    "table1": Artifact("table1_attack", [
        Table(_ATTACK_COLS, [Call(attack_table, "adult_attack", dict(
            spec=SPEC_PAPER, xi_list=XI, psi=1e-6, sr=0.1, seed=90,
        ))], title="Primary (paper regime, SA=fnlwgt):"),
        Table(_ATTACK_COLS, [Call(attack_table, "adult_attack", dict(
            spec=SPEC_CORRELATED, xi_list=XI, psi=1e-6, sr=0.1, seed=91,
            modes=("sequential", "coalition"), aggs=(COUNT,),
        ))], title="Supplementary (correlated SA=capgain):"),
    ]),
    # Fig 1: simulated SMC cost of sharing matching rows vs only local results
    "fig1": Artifact("fig1_smc_cost", [
        Table(["query", "rows_shared", "smc_rows_s", "smc_results_s", "ratio"], [
            Call(smc_cost_simulation, "adult", dict(dims=ADULT_DIMS, n_queries=5, seed=10)),
        ]),
    ]),
    # Fig 4: error vs #dimensions; paper n in [2,7] Adult / [2,5] Amazon
    "fig4": Artifact("fig4_dimensions", [
        Table(["dataset", "n_dims", "agg", "rel_err", "speedup"], [
            Call(dimension_sweep, "adult", dict(
                dims=ADULT_DIMS, n_dims_list=[2, 3, 4, 5, 6, 7], m=_M, sr=0.20, seed=40,
            )),
            Call(dimension_sweep, "amazon", dict(
                dims=AMAZON_DIMS, n_dims_list=[2, 3, 4, 5], m=_M, sr=0.05, seed=41,
            )),
        ]),
    ]),
    # Fig 5: error / speed-up vs sampling rate at n=4
    "fig5": Artifact("fig5_sampling_rate", [
        Table(["dataset", "sr", "agg", "rel_err", "speedup"], [
            Call(sampling_rate_sweep, "adult", dict(
                dims=ADULT_DIMS, rates=_RATES, m=_M, n_dims=4, seed=50,
            )),
            Call(sampling_rate_sweep, "amazon", dict(
                dims=AMAZON_DIMS, rates=_RATES, m=_M, n_dims=4, seed=51,
            )),
        ]),
    ]),
    # Fig 6: error vs ε at n=4, sr 10% Adult / 5% Amazon
    "fig6": Artifact("fig6_epsilon", [
        Table(["dataset", "eps", "agg", "rel_err", "speedup"], [
            Call(epsilon_sweep, "adult", dict(
                dims=ADULT_DIMS, eps_list=_EPS, m=_M, sr=0.10, seed=60,
            )),
            Call(epsilon_sweep, "amazon", dict(
                dims=AMAZON_DIMS, eps_list=_EPS, m=_M, sr=0.05, seed=61,
            )),
        ]),
    ]),
    # Fig 7: speed-up vs #dims and vs ε at amazon-lite SF=1, plus a scale
    # sweep SF 0.1 -> 1. Spark local-mode job overhead (~0.1 s per provider)
    # caps the measurable speed-up at small SF; the sweep shows it growing
    # with size, the paper's "more speed for larger datasets".
    "fig7": Artifact("fig7_speedup", [
        Table(["axis", "n_dims", "agg", "rel_err", "speedup"], [
            Call(dimension_sweep, "amazon_big", dict(
                dims=AMAZON_DIMS, n_dims_list=[2, 3, 4, 5], m=_M_FIG7, sr=0.05, seed=70,
            ), label={"axis": "dims"}),
        ]),
        Table(["axis", "eps", "agg", "rel_err", "speedup"], [
            Call(epsilon_sweep, "amazon_big", dict(
                dims=AMAZON_DIMS, eps_list=[0.1, 0.7, 1.3], m=_M_FIG7, sr=0.05, n_dims=4,
                seed=71,
            ), label={"axis": "eps"}),
        ]),
        Table(["sf", "tensor_rows", "agg", "rel_err", "speedup"], [
            Call(dimension_sweep, fed, dict(
                dims=AMAZON_DIMS, n_dims_list=[4], m=_M_FIG7, sr=0.05, seed=72,
            ))
            for fed in ("amazon_small", "amazon", "amazon_big")
        ]),
    ]),
    # Fig 8: Laplace noise range and speed-up with and without SMC result
    # sharing, 5 two-dimensional COUNT queries × 5 reps
    "fig8": Artifact("fig8_smc_vs_dp", [
        Table(["query", "mode", "noise_lo", "noise_hi", "noise_spread", "speedup"], [
            Call(smc_comparison, "adult", dict(
                dims=ADULT_DIMS, n_queries=5, reps=5, sr=0.1, seed=80,
            )),
        ]),
    ]),
    # §6.1 metadata space allocation
    "metadata_space": Artifact("metadata_space", [
        Table(["dataset", "sf", "clusters", "S", "metadata_mb", "kb_per_cluster"], [
            Call(metadata_footprint, "adult"),
            Call(metadata_footprint, "amazon"),
        ]),
    ]),
}


class Federations(dict):
    """The registry's federations by name, each built on first use."""

    def __init__(self, spark: SparkSession, store_root: str):
        super().__init__()
        self.spark = spark
        self.store_root = store_root

    def __missing__(self, name: str) -> Federation:
        spec = FEDERATIONS[name]
        fed = self[name] = build(self.spark, spec, os.path.join(self.store_root, name))
        return fed


def run(artifact: Artifact, federations: dict[str, Federation]) -> list[list[dict]]:
    """Run every driver call of ``artifact``: one list of rows per table."""
    tables = []
    for table in artifact.tables:
        rows = []
        for call in table.calls:
            spec, fed = FEDERATIONS[call.federation], federations[call.federation]
            tensor_rows = int(sum(p.meta.n_rows.sum() for p in fed.providers))
            facts = {"dataset": f"{spec.dataset}-lite", "sf": spec.sf, "tensor_rows": tensor_rows}
            rows += [facts | call.label | r for r in call.driver(fed, **call.kwargs)]
        tables.append(rows)
    return tables


def render(artifact: Artifact, tables: list[list[dict]]) -> str:
    """The text of ``benchmark_results/<artifact.results>.md``."""
    return "\n\n".join(
        (f"{t.title}\n" if t.title else "") + format_table(rows, t.columns)
        for t, rows in zip(artifact.tables, tables)
    )


def run_experiments(spark: SparkSession, names: list[str]) -> None:
    """Run and save each named artifact, building each federation once."""
    with tempfile.TemporaryDirectory(prefix="repro_stores_") as root:
        federations = Federations(spark, root)
        for name in names:
            artifact = ARTIFACTS[name]
            save_results(artifact.results, render(artifact, run(artifact, federations)))
