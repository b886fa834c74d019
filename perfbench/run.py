"""Latency, throughput and set-up benchmark of the private federated query path.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload interactive-range --seed 1 \
        --seconds 15 --trace 0

One process, one client, closed loop: each query is answered with
``Aggregator.answer`` and then evaluated again with ``Aggregator.exact``.
Set-up is ``build_federation`` plus a fixed accuracy panel answered as
warm-up. Outputs are checked in the same run: every exact result must
equal DuckDB over the union tensor and every released value must be
finite. ``--trace 1`` runs the same workload with spans around each
layer's public functions and prints the per-layer metrics instead of the
end-to-end ones. The last stdout line is the result JSON; the line before
it is a JSON record of the environment and diagnostics, also written with
every call and span to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    CLUSTER_FRAC,
    DATA_SEED,
    DEFAULT_SEED,
    N_MIN,
    N_PROVIDERS,
    PANEL_EXACT,
    PANEL_SEED,
    PANEL_SIZE,
    SAMPLING_RATE,
    SF,
    WORKLOADS,
    interactive_range,
)

#: Spark deployment settings only; SQL tuning stays with Spark and the program.
#: The driver heap has a fixed size and is touched when the JVM starts, so
#: the page faults of a growing heap fall before set-up, not inside timings.
DRIVER_MEMORY = "1g"
MAX_CORES = 4


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


# -- environment ---------------------------------------------------------------
def start_spark(work: Path):
    """Start Spark with its local dirs and all JVM and Python temp files
    under ``work``."""
    from pyspark.sql import SparkSession

    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)  # the gateway's connection-info dir
    # Every JVM, the launcher's too: no /tmp/hsperfdata_*, temp files here.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{cores}]")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.extraJavaOptions", f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(work / "spark-local"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the context, then the JVM the gateway launched, and wait for it."""
    sc = spark.sparkContext
    proc = getattr(sc._gateway, "proc", None)
    spark.stop()
    sc._gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


def vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set size of a process, from /proc."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment(spark, args) -> dict:
    import duckdb
    import pandas
    import pyspark

    sql_keys = [
        "spark.sql.shuffle.partitions",
        "spark.sql.adaptive.enabled",
        "spark.sql.execution.arrow.pyspark.enabled",
        "spark.sql.autoBroadcastJoinThreshold",
    ]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "versions": {
            "pyspark": pyspark.__version__,
            "duckdb": duckdb.__version__,
            "numpy": np.__version__,
            "pandas": pandas.__version__,
        },
        "spark_conf": dict(sorted(spark.sparkContext.getConf().getAll())),
        "spark_sql_conf": {k: spark.conf.get(k) for k in sql_keys},
        "seed": args.seed,
        "data_seed": DATA_SEED,
        "panel_seed": PANEL_SEED,
        "workload": {
            "name": args.workload,
            "sf": SF,
            "cluster_frac": CLUSTER_FRAC,
            "providers": N_PROVIDERS,
            "n_min": N_MIN,
            "sampling_rate": SAMPLING_RATE,
            "panel_size": PANEL_SIZE,
            "panel_exact": PANEL_EXACT,
        },
    }


# -- Spark job attribution -----------------------------------------------------
class SparkJobs:
    """Jobs, stages and tasks a call caused, read from the status tracker.

    A call's jobs are every job id allocated while it ran, whatever thread
    submitted them, so work moved to worker threads is still counted. The
    job group set around the call labels the jobs it submits directly.
    """

    def __init__(self, sc) -> None:
        self.sc = sc
        self.tracker = sc.statusTracker()
        self._dag = sc._jsc.sc().dagScheduler()
        self._counted_stages: set[int] = set()

    def next_job_id(self) -> int:
        return int(self._dag.numTotalJobs())

    def begin(self, group: str) -> int:
        self.sc.setJobGroup(group, group)
        return self.next_job_id()

    def end(self, first_job: int) -> tuple[int, int]:
        self.sc.setJobGroup("perfbench-idle", "perfbench-idle")
        jobs = range(first_job, self.next_job_id())
        tasks = 0
        for j in jobs:
            info = self._finished(j)
            for s in info.stageIds if info else ():
                if s in self._counted_stages:
                    continue
                self._counted_stages.add(s)
                st = self.tracker.getStageInfo(s)
                tasks += st.numCompletedTasks if st else 0
        return len(jobs), tasks

    def _finished(self, job: int, timeout: float = 5.0):
        # The status store is fed by an asynchronous listener bus.
        deadline = time.monotonic() + timeout
        while True:
            info = self.tracker.getJobInfo(job)
            if (info is not None and info.status != "RUNNING") or time.monotonic() > deadline:
                return info
            time.sleep(0.005)


# -- measurement helpers -------------------------------------------------------
def percentile_tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it (never below
    the median): returns (value, percentile)."""
    xs = sorted(samples)
    n = len(xs)
    k = max(n - 10, n // 2 + 1)  # 1-based rank
    return xs[k - 1], 100.0 * k / n


def oracle_factory(tensor):
    """DuckDB answers over the union tensor, from SQL written here."""
    import duckdb

    con = duckdb.connect()
    con.register("t", tensor)

    def oracle(q) -> float:
        where = " AND ".join(
            f"{d} BETWEEN {int(lb)} AND {int(ub)}" for d, (lb, ub) in q.ranges.items()
        ) or "TRUE"
        expr = "COUNT(*)" if q.agg == "COUNT" else "COALESCE(SUM(measure), 0)"
        return float(con.execute(f"SELECT CAST({expr} AS DOUBLE) FROM t WHERE {where}").fetchone()[0])

    return oracle


def store_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Run:
    """One benchmark run: set-up, closed query loop, checks."""

    def __init__(self, args, spark, work: Path, tracer) -> None:
        from repro.synth_data import ADULT_DIMS, adult_tensor

        self.args, self.spark, self.work, self.tracer = args, spark, work, tracer
        self.dims = dict(ADULT_DIMS)
        self.tensor = adult_tensor(sf=SF, seed=DATA_SEED)
        self.oracle = oracle_factory(self.tensor)
        self.jobs = SparkJobs(spark.sparkContext) if tracer else None
        self.calls: list[dict] = []  # one record per answer/exact call
        self.mismatches: list[dict] = []
        self.call_id = 0

    # one answer or exact call, failures counted, never raised
    def call(self, kind: str, req, rng, phase: str) -> dict:
        agg = self.fed.aggregator
        rec = {"kind": kind, "phase": phase, "ok": False}
        if self.tracer:
            self.tracer.begin_call(self.call_id)
            first_job = self.jobs.begin(f"{kind}-{self.call_id}")
        t0 = time.perf_counter()
        try:
            if kind == "answer":
                ans = agg.answer(
                    req.query,
                    sampling_rate=SAMPLING_RATE,
                    eps=req.eps,
                    delta=req.delta,
                    rng=rng,
                    use_smc=req.use_smc,
                )
                rec["value"] = ans.value
                rec["smc_s"] = ans.smc_seconds
                rec["exact_paths"] = sum(lr.exact_path for lr in ans.local_results)
                rec["providers"] = len(ans.local_results)
            else:
                rec["value"] = agg.exact(req.query)
            rec["ok"] = math.isfinite(rec["value"])
        except Exception:  # counted into failed; the run goes on
            rec["error"] = traceback.format_exc()
        rec["s"] = time.perf_counter() - t0
        if self.tracer:
            self.tracer.begin_call(None)
            rec["jobs"], rec["tasks"] = self.jobs.end(first_job)
        rec["call_id"] = self.call_id
        self.call_id += 1
        if rec["ok"] and kind == "exact":
            want = self.oracle(req.query)
            if rec["value"] != want:
                self.mismatches.append({"query": repr(req.query), "got": rec["value"], "want": want})
        self.calls.append(rec)
        return rec

    def setup(self) -> None:
        from repro.federation import builder

        t0 = time.perf_counter()
        self.fed = builder.build_federation(
            self.spark,
            self.tensor,
            dims=list(self.dims),
            n_providers=N_PROVIDERS,
            cluster_frac=CLUSTER_FRAC,
            n_min=N_MIN,
            partition_mode="contiguous",
            store_root=str(self.work / "store"),
            seed=DATA_SEED,
        )
        self.build_s = time.perf_counter() - t0
        # Warm-up: a fixed accuracy panel of range queries, identical for
        # every workload and every --seed.
        rng = np.random.default_rng([PANEL_SEED, 1])
        stream = interactive_range(PANEL_SEED, self.dims)
        self.panel_err = []
        for i in range(PANEL_SIZE):
            req = next(stream)
            rec = self.call("answer", req, rng, "panel")
            if rec["ok"]:
                want = self.oracle(req.query)
                self.panel_err.append(abs(rec["value"] - want) / max(want, 1.0))
            if i < PANEL_EXACT:
                self.call("exact", req, rng, "panel")
        self.setup_s = time.perf_counter() - t0

    def measure(self, seconds: float) -> None:
        rng = np.random.default_rng([self.args.seed, 1])
        stream = WORKLOADS[self.args.workload](self.args.seed, self.dims)
        t0 = time.perf_counter()
        deadline = t0 + seconds
        while time.perf_counter() < deadline:
            req = next(stream)
            self.call("answer", req, rng, "query")
            self.call("exact", req, rng, "query")
        self.phase_s = time.perf_counter() - t0

    def metadata_kb(self) -> float:
        return sum(len(pickle.dumps(p.meta, protocol=5)) for p in self.fed.providers) / 1024.0

    def peak_rss_mb(self) -> tuple[float, float]:
        """Peak RSS of the Python driver and of the Spark JVM."""
        jvm = self.spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
        return vm_hwm_mb("self"), vm_hwm_mb(jvm)


# -- metrics -------------------------------------------------------------------
def end_to_end(run: Run) -> tuple[dict, dict]:
    q = [c for c in run.calls if c["phase"] == "query"]
    ans = [c["s"] * 1e3 for c in q if c["kind"] == "answer" and c["ok"]]
    exa = [c["s"] * 1e3 for c in q if c["kind"] == "exact" and c["ok"]]
    if not (ans and exa and run.panel_err):
        # Nothing to take a latency or error from: no metrics, correct=false.
        return {}, {"answer_samples": len(ans), "exact_samples": len(exa)}
    a_tail, a_pct = percentile_tail(ans)
    e_tail, e_pct = percentile_tail(exa)
    answer_time = sum(c["s"] for c in q if c["kind"] == "answer")
    rss_py, rss_jvm = run.peak_rss_mb()
    metrics = {
        "setup_s": (run.setup_s, "s"),
        "answer_p50_ms": (statistics.median(ans), "ms"),
        "answer_tail_ms": (a_tail, "ms"),
        "exact_p50_ms": (statistics.median(exa), "ms"),
        "exact_tail_ms": (e_tail, "ms"),
        "answers_per_s": (len(ans) / answer_time, "1/s"),
        "rel_err_p50": (statistics.median(run.panel_err), "ratio"),
        "metadata_kb": (run.metadata_kb(), "KiB"),
        "peak_rss_mb": (rss_py + rss_jvm, "MiB"),
    }
    info = {
        "answer_tail_percentile": a_pct,
        "answer_samples": len(ans),
        "exact_tail_percentile": e_pct,
        "exact_samples": len(exa),
        "speedup_exact_over_answer_p50": statistics.median(exa) / statistics.median(ans),
        "build_federation_s": run.build_s,
        "query_phase_s": run.phase_s,
        "panel_rel_err": run.panel_err,
        "peak_rss_python_mb": rss_py,
        "peak_rss_jvm_mb": rss_jvm,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


#: Spans each workload must produce in a traced run.
EXPECTED_SPANS = {
    "common": [
        "aggregator.answer", "aggregator.exact", "allocation.solve",
        "provider.prepare", "provider.summarize", "provider.exact",
        "provider.release", "proportions.envelope", "proportions.threshold",
        "evaluation.total", "builder.build_federation", "builder.partition",
        "builder.assign_clusters", "metadata.build", "clusterstore.write",
    ],
    "interactive-range": [
        "provider.approximate", "dp.em_sample", "estimator.hh",
        "sensitivity.smooth_ls", "evaluation.per_cluster",
        "smc.secure_sum", "smc.secure_max",
    ],
    "attack-point-store": ["provider.exact_dp"],
}


def per_layer(run: Run, tracer, wrapper_cost: float) -> tuple[dict, dict]:
    spans = tracer.spans
    self_t = tracer.self_times()
    q_ids = {c["call_id"]: c for c in run.calls if c["phase"] == "query"}
    answers = [c for c in q_ids.values() if c["kind"] == "answer"]
    exacts = [c for c in q_ids.values() if c["kind"] == "exact"]
    n_a, n_e = max(1, len(answers)), max(1, len(exacts))

    def under(kind):
        return [
            (i, s) for i, s in enumerate(spans)
            if s.call_id in q_ids and q_ids[s.call_id]["kind"] == kind
        ]

    in_answer, in_exact = under("answer"), under("exact")

    def tot(items, name, *, self_time=False, scale=1e3):
        return sum((self_t[i] if self_time else s.end - s.start) for i, s in items if s.name == name) * scale

    def count(items, name):
        return sum(1 for _, s in items if s.name == name)

    def counted(items, name, key):
        return sum(s.counts.get(key, 0) for _, s in items if s.name == name)

    setup = [(i, s) for i, s in enumerate(spans) if s.call_id is None]
    envelope = counted(in_answer, "proportions.envelope", "clusters")
    kept = counted(in_answer, "proportions.threshold", "clusters")
    draws = counted(in_answer, "dp.em_sample", "draws")
    unique = counted(in_answer, "dp.em_sample", "unique")
    roots = [(i, s) for i, s in in_answer + in_exact if s.parent is None]
    root_time = sum(s.end - s.start for _, s in roots)
    root_self = sum(self_t[i] for i, _ in roots)
    n_provider_results = sum(c.get("providers", 0) for c in answers)
    expected = EXPECTED_SPANS["common"] + EXPECTED_SPANS[run.args.workload]
    seen = {s.name for s in spans}
    missing = sorted(set(expected) - seen)
    m = {
        "evaluation.per_cluster_ms": (tot(in_answer, "evaluation.per_cluster") / n_a, "ms"),
        "evaluation.per_cluster_calls": (count(in_answer, "evaluation.per_cluster") / n_a, "count"),
        "evaluation.total_exact_path_ms": (tot(in_answer, "evaluation.total") / n_a, "ms"),
        "evaluation.total_baseline_ms": (tot(in_exact, "evaluation.total") / n_e, "ms"),
        "path.exact_share": (
            sum(c.get("exact_paths", 0) for c in answers) / max(1, n_provider_results), "ratio"),
        "spark.jobs_per_answer": (sum(c["jobs"] for c in answers) / n_a, "count"),
        "spark.tasks_per_answer": (sum(c["tasks"] for c in answers) / n_a, "count"),
        "spark.jobs_per_exact": (sum(c["jobs"] for c in exacts) / n_e, "count"),
        "spark.tasks_per_exact": (sum(c["tasks"] for c in exacts) / n_e, "count"),
        "clusterstore.write_s": (tot(setup, "clusterstore.write", scale=1.0), "s"),
        "clusterstore.disk_bytes_per_row": (
            store_bytes(run.work / "store") / len(run.tensor), "B"),
        "metadata.build_s": (tot(setup, "metadata.build", scale=1.0), "s"),
        "builder.layout_s": (
            tot(setup, "builder.partition", scale=1.0)
            + tot(setup, "builder.assign_clusters", scale=1.0), "s"),
        "provider.prepare_ms": (tot(in_answer, "provider.prepare") / n_a, "ms"),
        "proportions.cq_clusters": (kept / max(1, count(in_answer, "proportions.threshold")), "count"),
        "proportions.kept_share": (kept / max(1, envelope), "ratio"),
        "dp.em_sample_ms": (tot(in_answer, "dp.em_sample") / n_a, "ms"),
        "dp.em_draws": (draws / n_a, "count"),
        "dp.em_unique_share": (unique / max(1, draws), "ratio"),
        "sensitivity.smooth_ls_ms": (tot(in_answer, "sensitivity.smooth_ls") / n_a, "ms"),
        "sensitivity.smooth_ls_calls": (count(in_answer, "sensitivity.smooth_ls") / n_a, "count"),
        "estimator.hh_ms": (tot(in_answer, "estimator.hh") / n_a, "ms"),
        "provider.approximate_self_ms": (
            tot(in_answer, "provider.approximate", self_time=True) / n_a, "ms"),
        "provider.summarize_ms": (tot(in_answer, "provider.summarize") / n_a, "ms"),
        "allocation.solve_ms": (tot(in_answer, "allocation.solve") / n_a, "ms"),
        "provider.release_ms": (tot(in_answer, "provider.release") / n_a, "ms"),
        "aggregator.answer_self_ms": (
            tot(in_answer, "aggregator.answer", self_time=True) / n_a, "ms"),
        "smc.secure_ms": (
            (tot(in_answer, "smc.secure_sum") + tot(in_answer, "smc.secure_max")) / n_a, "ms"),
        "smc.simulated_wire_ms": (sum(c.get("smc_s", 0.0) for c in answers) * 1e3 / n_a, "ms"),
        "trace.overhead_share": (
            len(spans) * wrapper_cost / max(1e-9, root_time + run.setup_s), "ratio"),
        "trace.unattributed_share": (root_self / max(1e-9, root_time), "ratio"),
        "trace.missing_spans": (len(missing) + len(tracer.missing), "count"),
    }
    info = {
        "missing_spans": missing + tracer.missing,
        "answer_self_time_share": layer_split(in_answer, self_t),
        "exact_self_time_share": layer_split(in_exact, self_t),
        "setup_self_time_s": {
            k: round(v, 3) for k, v in layer_split(setup, self_t, share=False).items()
        },
        "wrapper_cost_us": wrapper_cost * 1e6,
        "spans": len(spans),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}, info


def layer_split(items, self_t, share: bool = True) -> dict:
    acc: dict[str, float] = {}
    for i, s in items:
        acc[s.name] = acc.get(s.name, 0.0) + self_t[i]
    total = (sum(acc.values()) or 1.0) if share else 1.0
    return {k: v / total for k, v in sorted(acc.items(), key=lambda kv: -kv[1])}


def digest(values: list[float]) -> str:
    return hashlib.sha256(",".join(float(v).hex() for v in values).encode()).hexdigest()[:16]


# -- entry point ---------------------------------------------------------------
def main() -> int:
    args = parse_args()
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out = HERE / "out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from tracing import Tracer, wrapper_cost_s

        tracer = Tracer()
        tracer.install()
    spark = start_spark(work)
    try:
        run = Run(args, spark, work, tracer)
        run.setup()
        run.measure(args.seconds)
        env = environment(spark, args)
        if tracer:
            metrics, info = per_layer(run, tracer, wrapper_cost_s())
        else:
            metrics, info = end_to_end(run)
        attempted = sum(1 for c in run.calls if c["phase"] == "query")
        failed = sum(1 for c in run.calls if c["phase"] == "query" and not c["ok"])
        panel_vals = [c["value"] for c in run.calls if c["phase"] == "panel" and c["kind"] == "answer"]
        first = [c["value"] for c in run.calls
                 if c["phase"] == "query" and c["kind"] == "answer"][:4]
        errors = [c["error"] for c in run.calls if "error" in c]
        all_finite = all(c["ok"] for c in run.calls if "value" in c)
        correct = bool(metrics) and not run.mismatches and all_finite
        record = {
            "workload": args.workload,
            "trace": args.trace,
            "env": env,
            "info": info,
            "failed_share": failed / attempted,
            "panel_failed": sum(1 for c in run.calls if c["phase"] == "panel" and not c["ok"]),
            "oracle_checked": sum(1 for c in run.calls if c["kind"] == "exact" and c["ok"]),
            "oracle_mismatches": run.mismatches[:5],
            "errors": errors[:5],
            "digest_panel": digest(panel_vals),
            "digest_first4": digest(first),
            "calls": [
                {k: c.get(k) for k in ("phase", "kind", "s", "ok", "exact_paths", "jobs", "tasks")}
                for c in run.calls
            ],
        }
        if tracer:
            tracer.uninstall()
            record["spans"] = [s.as_dict() for s in tracer.spans]
        trace_file = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        trace_file.write_text(json.dumps(record, default=str))
        for key in ("spans", "calls"):
            record.pop(key, None)
        print(json.dumps(record, default=str))
    finally:
        stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
