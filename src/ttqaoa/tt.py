"""Tensor-train parameterization of an unnormalized sampling distribution.

A distribution over d-dimensional multi-indices is stored as a chain of
three-way cores, core k shaped (R_k, N_k, R_{k+1}) with boundary ranks 1.
Point evaluation, marginalization, exact conditional sampling, and analytic
log-likelihood gradients each cost O(d N R^2) or less per index.

sample draws with probability proportional to the tensor entry (suffix sums
from right_marginals give the conditionals); sample_squared draws in
proportion to the squared entry (suffix Gram matrices).  Squaring sharpens
the contrast between high- and low-mass regions and keeps every index
reachable after ascent drives core entries through zero, which is what the
optimizer needs to concentrate within a small budget.

Both schemes, single draws and batches alike, run through one kernel that
draws K indices together, one dimension at a time, from a (K, R) array of
left interfaces and one uniform per draw out of one rng.random((K, d)) block.
Generator.choice(n, p=...) consumes one double per call and maps it through
cumsum(p) / cumsum(p)[-1] and a right-sided search.  The kernel repeats that
arithmetic, so a batch equals K sequential choice-based draws, draw for draw.
The squared weights and the suffix Grams are two-operand products: numpy
runs a three-operand einsum without BLAS, about ten times slower at R=5,
N=100.

One gradient kernel serves log_value_grad and ascent_step: it gathers every
core's chosen slices for all indices, builds prefix and suffix interfaces
with batched matrix products, and scatter-adds the outer products, so
repeated indices accumulate in batch order.

Ascent can push core entries negative.  No positivity constraint is
enforced; the samplers clamp negative conditional weights to zero and fall
back to a uniform draw on a vanished conditional (counted in the
diagnostics dict).  A non-finite conditional weight raises ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

INIT_FLOOR = 1e-6
VALUE_FLOOR = 1e-12

CHECKPOINT_MAGIC = "tt-checkpoint 1"


@dataclass
class TTDistribution:
    """Chained three-way cores; mutated in place only by ascent_step."""

    cores: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.cores:
            raise ValueError("tensor train needs at least one core")
        for k, core in enumerate(self.cores):
            if core.ndim != 3:
                raise ValueError(f"core {k} must be three-way, got shape {core.shape}")
            if core.shape[1] < 1:
                raise ValueError(f"core {k} needs at least one node, got shape {core.shape}")
        if self.cores[0].shape[0] != 1 or self.cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for k in range(len(self.cores) - 1):
            if self.cores[k].shape[2] != self.cores[k + 1].shape[0]:
                raise ValueError(f"rank mismatch between cores {k} and {k + 1}")

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(core.shape[1] for core in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(core.shape[0] for core in self.cores) + (1,)


def random_tt(d: int, n_nodes: int, rank: int, rng: np.random.Generator) -> TTDistribution:
    """Fresh positive TT with entries drawn uniformly from [INIT_FLOOR, 1)."""
    if d < 1 or n_nodes < 2 or rank < 1:
        raise ValueError(f"invalid tensor-train shape d={d}, N={n_nodes}, R={rank}")
    cores = []
    for k in range(d):
        left = 1 if k == 0 else rank
        right = 1 if k == d - 1 else rank
        cores.append(INIT_FLOOR + (1.0 - INIT_FLOOR) * rng.random((left, n_nodes, right)))
    return TTDistribution(cores)


def _check_index(t: TTDistribution, idx: Sequence[int]) -> tuple[int, ...]:
    if len(idx) != t.d:
        raise ValueError(f"multi-index length {len(idx)} does not match dimension {t.d}")
    for k, (i, n) in enumerate(zip(idx, t.shape)):
        if not isinstance(i, (int, np.integer)):
            raise ValueError(f"index {i!r} in axis {k} is not an integer")
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range [0, {n}) in axis {k}")
    return tuple(int(i) for i in idx)


def tt_value(t: TTDistribution, idx: Sequence[int]) -> float:
    """Entry of the represented tensor at one multi-index."""
    idx = _check_index(t, idx)
    vec = t.cores[0][:, idx[0], :]
    for k in range(1, t.d):
        vec = vec @ t.cores[k][:, idx[k], :]
    return float(vec[0, 0])


def right_marginals(t: TTDistribution) -> list[np.ndarray]:
    """Suffix sums: entry k is the core-k..end tensor summed over its indices.

    Returned list has d+1 vectors; the last is the scalar [1], the first is
    the total mass of the tensor (length-1 vector, boundary rank).
    """
    z = [np.ones(1)] * (t.d + 1)
    for k in range(t.d - 1, -1, -1):
        z[k] = t.cores[k].sum(axis=1) @ z[k + 1]
    return z


def total_mass(t: TTDistribution) -> float:
    return float(right_marginals(t)[0][0])


def _draw(
    t: TTDistribution,
    count: int,
    rng: np.random.Generator,
    suffix: list[np.ndarray],
    squared: bool,
    diagnostics: dict[str, int] | None,
) -> list[tuple[int, ...]]:
    """Draw count multi-indices by sequential univariate conditionals.

    At step k, node i's unnormalized weight is v_i @ suffix[k+1] (linear) or
    v_i suffix[k+1] v_i^T (squared), v_i = phi @ core_k[:, i, :].  Negative
    weights clamp to zero; an all-zero conditional draws uniformly and bumps
    diagnostics["uniform_fallbacks"].  phi is rescaled by its max-abs entry
    after each draw to dodge under/overflow.
    """
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")
    uniforms = rng.random((count, t.d))
    draws = np.empty((count, t.d), dtype=np.intp)
    phi = np.ones((count, 1))
    for k, core in enumerate(t.cores):
        vecs = np.einsum("kr,rns->kns", phi, core)
        if squared:
            weights = ((vecs @ suffix[k + 1]) * vecs).sum(axis=2)
        else:
            weights = vecs @ suffix[k + 1]
        weights = np.clip(weights, 0.0, None)
        mass = weights.sum(axis=1)
        if not np.isfinite(mass).all():
            raise ValueError(f"non-finite conditional weight in axis {k}")
        vanished = mass <= 0.0
        weights[vanished] = 1.0
        mass[vanished] = weights.shape[1]
        if diagnostics is not None and vanished.any():
            diagnostics["uniform_fallbacks"] = diagnostics.get("uniform_fallbacks", 0) + int(vanished.sum())
        cdf = np.cumsum(weights / mass[:, None], axis=1)
        cdf /= cdf[:, -1:]
        draws[:, k] = (cdf <= uniforms[:, k, None]).sum(axis=1)
        phi = vecs[np.arange(count), draws[:, k]]
        peak = np.abs(phi).max(axis=1, keepdims=True)
        phi = phi / np.where(peak > 0.0, peak, 1.0)
    return [tuple(row) for row in draws.tolist()]


def sample(
    t: TTDistribution,
    rng: np.random.Generator,
    marginals: list[np.ndarray] | None = None,
    diagnostics: dict[str, int] | None = None,
) -> tuple[int, ...]:
    """Draw one multi-index with probability proportional to the entry."""
    if marginals is None:
        marginals = right_marginals(t)
    return _draw(t, 1, rng, marginals, False, diagnostics)[0]


def sample_batch(
    t: TTDistribution, count: int, rng: np.random.Generator
) -> tuple[list[tuple[int, ...]], dict[str, int]]:
    """Draw count multi-indices sharing one marginal sweep; returns diagnostics."""
    diagnostics: dict[str, int] = {}
    return _draw(t, count, rng, right_marginals(t), False, diagnostics), diagnostics


def suffix_grams(t: TTDistribution) -> list[np.ndarray]:
    """Suffix Gram matrices of the core chain, right to left.

    Entry k is M_k = sum_i G_k[:,i,:] M_{k+1} G_k[:,i,:]^T, so
    phi M_k phi^T is the squared-entry mass of the suffix tensor weighted by
    the left interface phi.  Each level is rescaled by its max-abs entry;
    only weight ratios matter downstream and the rescaling keeps long chains
    away from float under/overflow.
    """
    grams = [np.ones((1, 1))] * (t.d + 1)
    for k in range(t.d - 1, -1, -1):
        m = np.tensordot(t.cores[k] @ grams[k + 1], t.cores[k], axes=([1, 2], [1, 2]))
        peak = np.max(np.abs(m))
        if peak > 0.0:
            m = m / peak
        grams[k] = m
    return grams


def sample_squared(
    t: TTDistribution,
    rng: np.random.Generator,
    grams: list[np.ndarray] | None = None,
    diagnostics: dict[str, int] | None = None,
) -> tuple[int, ...]:
    """Draw one multi-index with probability proportional to the squared entry."""
    if grams is None:
        grams = suffix_grams(t)
    return _draw(t, 1, rng, grams, True, diagnostics)[0]


def sample_squared_batch(
    t: TTDistribution, count: int, rng: np.random.Generator
) -> tuple[list[tuple[int, ...]], dict[str, int]]:
    """Draw count squared-scheme multi-indices sharing one Gram sweep."""
    diagnostics: dict[str, int] = {}
    return _draw(t, count, rng, suffix_grams(t), True, diagnostics), diagnostics


def _log_grads(t: TTDistribution, idx: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Summed gradient of ln(value) over the rows of an (E, d) index array.

    Each index adds outer(prefix, suffix) / value to its slice of each core;
    values <= 0 divide as VALUE_FLOOR.  Also returns the unclamped values.
    """
    ones = np.ones((len(idx), 1, 1))
    slices = [core[:, idx[:, k], :].transpose(1, 0, 2) for k, core in enumerate(t.cores)]
    pre = [ones]
    for s in slices:
        pre.append(pre[-1] @ s)
    suf = [ones] * (t.d + 1)
    for k in range(t.d - 1, -1, -1):
        suf[k] = slices[k] @ suf[k + 1]
    values = pre[t.d][:, 0, 0]
    divisor = np.where(values <= 0.0, VALUE_FLOOR, values)[:, None, None]
    grads = []
    for k, core in enumerate(t.cores):
        g = np.zeros((core.shape[1], core.shape[0], core.shape[2]))
        np.add.at(g, idx[:, k], pre[k].transpose(0, 2, 1) * suf[k + 1].transpose(0, 2, 1) / divisor)
        grads.append(g.transpose(1, 0, 2))
    return grads, values


def log_value_grad(t: TTDistribution, idx: Sequence[int]) -> list[np.ndarray]:
    """Gradient of ln(tensor value at idx) with respect to every core entry.

    Core k's gradient is zero except at slice idx[k], where it equals the
    outer product of the prefix and suffix interfaces divided by the value.
    """
    idx = _check_index(t, idx)
    grads, values = _log_grads(t, np.array([idx]))
    if values[0] <= 0.0:
        raise ValueError(f"tensor value {values[0]} at {idx} is not positive; log-gradient undefined")
    return grads


def ascent_step(
    t: TTDistribution,
    batch: Sequence[Sequence[int]],
    learning_rate: float,
    step_count: int,
) -> dict[str, int]:
    """In-place gradient ascent on the summed log-likelihood of the batch.

    Runs step_count rounds; each round recomputes the gradient of
    sum_i ln P[batch_i] against the current cores and adds learning_rate
    times it.  Repeated indices in the batch count once per occurrence.  A
    value driven to <= 0 mid-ascent is clamped to VALUE_FLOOR for the
    division and counted in the returned diagnostics.
    """
    if not batch:
        raise ValueError("ascent batch must be non-empty")
    if learning_rate < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {learning_rate}")
    if step_count < 0:
        raise ValueError(f"step count must be >= 0, got {step_count}")
    idx = np.array([_check_index(t, i) for i in batch])
    diagnostics = {"clamped_values": 0}
    for _ in range(step_count):
        grads, values = _log_grads(t, idx)
        diagnostics["clamped_values"] += int((values <= 0.0).sum())
        for core, g in zip(t.cores, grads):
            core += learning_rate * g
    return diagnostics


def save_tt_text(t: TTDistribution, path: str) -> None:
    """Textual checkpoint: header, shapes, then row-major core entries.

    Floats are written with repr so a load round-trips bit-exactly.
    """
    lines = [CHECKPOINT_MAGIC, f"d {t.d}"]
    lines.append("shape " + " ".join(str(n) for n in t.shape))
    lines.append("ranks " + " ".join(str(r) for r in t.ranks))
    for k, core in enumerate(t.cores):
        lines.append(f"core {k}")
        lines.append(" ".join(repr(float(x)) for x in core.ravel()))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_tt_text(path: str) -> TTDistribution:
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ValueError("not a tensor-train checkpoint file")
    try:
        d = int(lines[1].split()[1])
        shape = [int(x) for x in lines[2].split()[1:]]
        ranks = [int(x) for x in lines[3].split()[1:]]
        if len(shape) != d or len(ranks) != d + 1:
            raise ValueError("inconsistent checkpoint header")
        cores = []
        for k in range(d):
            if lines[4 + 2 * k] != f"core {k}":
                raise ValueError(f"expected 'core {k}' at checkpoint line {5 + 2 * k}")
            entries = np.array([float(x) for x in lines[5 + 2 * k].split()])
            if not np.isfinite(entries).all():
                raise ValueError(f"non-finite entry at checkpoint line {6 + 2 * k}")
            cores.append(entries.reshape(ranks[k], shape[k], ranks[k + 1]))
    except IndexError:
        raise ValueError(f"truncated tensor-train checkpoint ({len(lines)} lines)") from None
    if len(lines) > 4 + 2 * d:
        raise ValueError(f"unexpected content after the last core at checkpoint line {5 + 2 * d}")
    return TTDistribution(cores)
