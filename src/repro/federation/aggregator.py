"""Aggregator: orchestrates the online protocol (Fig 3 steps 1–7).

The aggregator never sees raw rows — only DP-noised summaries, allocations
and DP-noised (or secret-shared) local estimates. Two release modes:

* **per-provider DP** (default): each provider perturbs its local estimate
  with its own smooth-sensitivity-calibrated Laplace noise; the aggregator
  sums the noisy values (post-processing).
* **SMC**: providers secret-share estimates and sensitivities; the
  aggregator obliviously sums the estimates, takes the max sensitivity and
  injects a *single* Laplace noise before release (protocol step 7).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.query import RangeQuery
from repro.dp.accountant import PrivacyAccountant, split_budget
from repro.dp.mechanisms import laplace_noise
from repro.federation.allocation import solve_allocation
from repro.federation.provider import DataProvider, LocalResult, Summary
from repro.smc.protocol import SMCEnvironment


@dataclass
class PrivateAnswer:
    """The released answer plus bookkeeping for experiments."""

    value: float
    eps: float
    delta: float
    used_smc: bool
    allocations: np.ndarray
    summaries: list[Summary]
    local_results: list[LocalResult] = field(repr=False)
    noise: float = 0.0
    seconds: float = 0.0
    smc_seconds: float = 0.0


class Aggregator:
    """Coordinator of the federation (holds no data)."""

    def __init__(self, providers: list[DataProvider]) -> None:
        if not providers:
            raise ValueError("need at least one data provider")
        self.providers = providers

    def exact(self, query: RangeQuery) -> float:
        """Plain-text federated execution: Σ_i exact_i (the baseline)."""
        return float(sum(p.exact(query) for p in self.providers))

    def answer(
        self,
        query: RangeQuery,
        *,
        sampling_rate: float,
        eps: float,
        delta: float,
        rng: np.random.Generator,
        use_smc: bool = False,
        accountant: PrivacyAccountant | None = None,
    ) -> PrivateAnswer:
        """Run the full private approximate query protocol."""
        if accountant is not None:
            accountant.charge(eps, delta)
        budget = split_budget(eps)
        t0 = time.perf_counter()

        # steps 1–2: local metadata lookups + DP summaries
        contexts = [p.prepare(query) for p in self.providers]
        summaries = [
            p.summarize(ctx, budget.eps_allocation, rng)
            for p, ctx in zip(self.providers, contexts)
        ]

        # step 3: allocation (Eq 6) on the noisy summaries
        alloc = solve_allocation(
            np.array([s.noisy_avg_r for s in summaries]),
            np.array([s.noisy_n_q for s in summaries]),
            sampling_rate,
        )

        # steps 4–6: local estimation on the path each provider's step 1 chose
        locals_: list[LocalResult] = []
        for p, ctx, s_i in zip(self.providers, contexts, alloc):
            if ctx.exact_path:
                locals_.append(p.exact_dp(query))
            else:
                locals_.append(
                    p.approximate(
                        ctx, int(s_i), budget.eps_sampling, budget.eps_estimate, delta, rng
                    )
                )

        # step 7: release
        smc_seconds = 0.0
        if use_smc:
            env = SMCEnvironment(n_parties=len(self.providers), rng=rng)
            total = env.secure_sum([lr.estimate for lr in locals_])
            # exact-path results carry smooth_ls = GS = 1, so they join the max
            max_ls = env.secure_max([lr.smooth_ls for lr in locals_])
            smc_seconds = env.simulated_seconds
            noise = laplace_noise(2.0 * max_ls, budget.eps_estimate, rng)
            value = total + noise
        else:
            released = [
                p.release(lr, budget.eps_estimate, rng)
                for p, lr in zip(self.providers, locals_)
            ]
            value = float(sum(released))
            noise = value - float(sum(lr.estimate for lr in locals_))

        return PrivateAnswer(
            value=float(value),
            eps=eps,
            delta=delta,
            used_smc=use_smc,
            allocations=alloc,
            summaries=summaries,
            local_results=locals_,
            noise=float(noise),
            seconds=time.perf_counter() - t0,
            smc_seconds=smc_seconds,
        )
