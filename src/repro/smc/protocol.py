"""Simulated SMC environment: secure sum / secure max + a wire-cost model.

The paper's SMC option (MPyC over a LAN) is replaced by in-process additive
secret sharing (real share arithmetic, see :mod:`repro.smc.shares`) plus an
explicit network cost model, because the container has neither MPyC nor a
network. The model charges per-message latency and per-byte transfer time;
its constants are calibrated so that *result-sharing* costs ≈ 0.04 s for 4
providers (the constant the paper reports in Fig 1) and *row-sharing* costs
grow linearly with the number of shared rows (~440× slower on the
simulated Adult table), preserving the cost shape the paper demonstrates.

Secure max is implemented tournament-style with a simulated pairwise secure
comparison (constant rounds per comparison); the comparison itself is
evaluated on reconstructed values — the *cost* model is what matters for
the experiments, the privacy argument for max is the paper's, not ours.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.smc import shares as sh

#: Bytes per shared field element on the wire.
_ELEMENT_BYTES = 8

# The simulated LAN.
_LATENCY_PER_MESSAGE_S = 2.4e-3  # ~LAN round-trip + MPC framing
_SECONDS_PER_BYTE = 9e-9  # ~1 Gbps with protocol overhead
_SECONDS_PER_COMPARISON = 1.2e-3  # secure comparison sub-protocol


def transfer(n_messages: int, n_bytes: int) -> float:
    """Simulated seconds to send ``n_messages`` carrying ``n_bytes`` in all."""
    return n_messages * _LATENCY_PER_MESSAGE_S + n_bytes * _SECONDS_PER_BYTE


@dataclass
class SMCEnvironment:
    """Tracks simulated wall-clock cost of SMC interactions."""

    n_parties: int
    rng: np.random.Generator
    simulated_seconds: float = field(default=0.0, init=False)

    def _charge(self, seconds: float) -> None:
        self.simulated_seconds += seconds

    def secure_sum(self, values: list[float]) -> float:
        """Each party shares its value to all others; shares are summed
        locally and partial sums are reconstructed at the aggregator."""
        if len(values) != self.n_parties:
            raise ValueError("one value per party expected")
        share_vectors = [sh.share(v, self.n_parties, self.rng) for v in values]
        acc = share_vectors[0]
        for vec in share_vectors[1:]:
            acc = sh.add_shares(acc, vec)
        # messages: each party sends n-1 shares out + n partial sums to agg
        n_msg = self.n_parties * (self.n_parties - 1) + self.n_parties
        self._charge(transfer(n_msg, n_msg * _ELEMENT_BYTES))
        return sh.reconstruct(acc)

    def secure_max(self, values: list[float]) -> float:
        """Tournament of simulated secure comparisons (log2(n) rounds)."""
        if len(values) != self.n_parties:
            raise ValueError("one value per party expected")
        current = list(values)
        while len(current) > 1:
            nxt = []
            for i in range(0, len(current) - 1, 2):
                self._charge(_SECONDS_PER_COMPARISON)
                n_msg = 2 * self.n_parties
                self._charge(transfer(n_msg, n_msg * _ELEMENT_BYTES))
                nxt.append(max(current[i], current[i + 1]))
            if len(current) % 2:
                nxt.append(current[-1])
            current = nxt
        return current[0]

    def share_rows_cost(self, n_rows: int, n_cols: int) -> float:
        """Simulated cost of SMC *row sharing*: every row of every party is
        secret-shared to all others (the expensive baseline of Fig 1)."""
        elements = n_rows * n_cols * (self.n_parties - 1)
        n_msg = self.n_parties * (self.n_parties - 1) * max(1, n_rows // 1024)
        t = transfer(n_msg, elements * _ELEMENT_BYTES)
        # per-element share-split arithmetic, measured cheaply in bulk
        t += elements * 1.5e-7
        self._charge(t)
        return t

    def share_results_cost(self) -> float:
        """Simulated cost of sharing only local scalar results (cheap path)."""
        before = self.simulated_seconds
        self.secure_sum([0.0] * self.n_parties)
        return self.simulated_seconds - before
