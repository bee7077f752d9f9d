"""Probabilistic black-box minimization over a discrete grid via a TT prior.

Each iteration draws a batch of multi-indices from the tensor-train
distribution (squared-entry scheme), evaluates the objective on indices not
seen before, keeps the lowest scorers as elites, and raises the likelihood
of the elites by gradient ascent on the cores.  Evaluations are memoized
across the whole run and the budget counts distinct objective calls, so
once the distribution concentrates, batches full of repeats cost nothing
and the loop keeps sharpening until the budget is spent.  The best value
seen is tracked globally and never regresses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .tt import TTDistribution, ascent_step, random_tt, sample_squared_batch


@dataclass(frozen=True)
class ProtesConfig:
    """Hyperparameters of the sampling loop.

    budget counts distinct objective calls over the whole run; any repeat of
    an already-evaluated index reuses the cached value for free.
    """

    rank: int = 5
    batch_size: int = 20
    elite_count: int = 10
    ascent_steps: int = 5
    learning_rate: float = 0.05
    nodes_per_dim: int = 100
    budget: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for key in ("rank", "batch_size", "elite_count", "ascent_steps", "nodes_per_dim", "budget", "seed"):
            if not isinstance(getattr(self, key), (int, np.integer)):
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.seed < 0:  # numpy's seeding would refuse it later without naming the field
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if not 1 <= self.elite_count <= self.batch_size:
            raise ValueError(f"need 1 <= elites <= batch size, got {self.elite_count} of {self.batch_size}")
        if self.budget < self.batch_size:
            raise ValueError(f"budget {self.budget} below one batch of {self.batch_size}")
        if self.nodes_per_dim < 2:
            raise ValueError(f"grid needs >= 2 nodes per dimension, got {self.nodes_per_dim}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.ascent_steps < 1:
            raise ValueError(f"ascent steps must be >= 1, got {self.ascent_steps}")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    evals: int
    best_value: float


@dataclass
class OptimizationTrace:
    records: list[IterationRecord]
    best_index: tuple[int, ...]
    best_value: float
    total_evals: int
    tt: TTDistribution
    diagnostics: dict[str, int] = field(default_factory=dict)
    batch_means: list[float] = field(default_factory=list)


def optimize(
    objective: Callable[[tuple[int, ...]], float],
    dims: int,
    config: ProtesConfig,
) -> OptimizationTrace:
    """Minimize a black-box function of grid multi-indices.

    Iterates until budget distinct indices have been evaluated.  While every
    batch is fresh this is budget // batch_size iterations; repeat-heavy
    batches stretch the run since cached indices cost nothing.  A hard
    ceiling of budget iterations guarantees termination when the
    distribution has collapsed onto already-known indices.  Deterministic
    for a fixed config; raises if the objective returns a non-finite value.
    """
    return _optimize_batched(lambda fresh: [objective(idx) for idx in fresh], dims, config)


def _optimize_batched(
    evaluate: Callable[[list[tuple[int, ...]]], Sequence[float]],
    dims: int,
    config: ProtesConfig,
) -> OptimizationTrace:
    """The loop of optimize, with one evaluate call per batch: indices in, one value per index out.

    evaluate receives the batch's uncached indices in first-appearance
    order, cut at the budget, and never an empty list, so the cache, the
    budget edge and the random stream are those of one call per index.
    ProtesConfig's budget >= batch_size >= 1 sets best_index in iteration 1.
    """
    if dims < 1:
        raise ValueError(f"dimension count must be >= 1, got {dims}")
    rng = np.random.default_rng(config.seed)
    t = random_tt(dims, config.nodes_per_dim, config.rank, rng)
    records: list[IterationRecord] = []
    batch_means: list[float] = []
    diagnostics: dict[str, int] = {"uniform_fallbacks": 0, "clamped_values": 0, "cache_hits": 0}
    cache: dict[tuple[int, ...], float] = {}
    best_value = math.inf
    best_index: tuple[int, ...] | None = None
    it = 0
    while len(cache) < config.budget and it < config.budget:
        it += 1
        samples, sample_diag = sample_squared_batch(t, config.batch_size, rng)
        diagnostics["uniform_fallbacks"] += sample_diag.get("uniform_fallbacks", 0)
        plan = list(dict.fromkeys(samples))
        fresh = [idx for idx in plan if idx not in cache]
        diagnostics["cache_hits"] += len(plan) - len(fresh)
        fresh = fresh[: config.budget - len(cache)]
        if fresh:
            for idx, value in zip(fresh, evaluate(fresh), strict=True):
                value = float(value)
                if not math.isfinite(value):
                    raise RuntimeError(f"objective returned non-finite value {value} at index {idx}")
                cache[idx] = value
        # Samples past the budget edge have no value and drop out of ranking.
        scored = [idx for idx in samples if idx in cache]
        values = np.array([cache[idx] for idx in scored])
        order = np.argsort(values, kind="stable")
        elites = [scored[i] for i in order[: config.elite_count]]
        lead = int(order[0])
        if values[lead] < best_value:
            best_value = float(values[lead])
            best_index = scored[lead]
        ascent_diag = ascent_step(t, elites, config.learning_rate, config.ascent_steps)
        diagnostics["clamped_values"] += ascent_diag.get("clamped_values", 0)
        records.append(IterationRecord(it, len(cache), best_value))
        batch_means.append(float(values.mean()))
    return OptimizationTrace(records, best_index, best_value, len(cache), t, diagnostics, batch_means)


def trace_to_csv(trace: OptimizationTrace) -> str:
    """Per-iteration progress with cumulative distinct evaluation counts."""
    lines = ["iteration,evals,best_value"]
    for rec in trace.records:
        lines.append(f"{rec.iteration},{rec.evals},{rec.best_value!r}")
    return "\n".join(lines) + "\n"
