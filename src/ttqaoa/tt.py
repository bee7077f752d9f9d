"""Tensor-train parameterization of an unnormalized sampling distribution.

A distribution over d-dimensional multi-indices is stored as a chain of
three-way cores, core k shaped (R_k, N_k, R_{k+1}) with boundary ranks 1.
Point evaluation, marginalization, exact conditional sampling, and analytic
log-likelihood gradients each cost O(d N R^2) or less per index.

sample draws with probability proportional to the tensor entry (suffix sums
from right_marginals give the conditionals); sample_squared draws in
proportion to the squared entry (suffix Gram matrices).  Squaring sharpens
the contrast between high- and low-mass regions, which is what the optimizer
needs to concentrate within a small budget.

Both schemes, single draws and batches alike, run through one kernel that
draws K indices together, one dimension at a time, from a (K, R) array of
left interfaces and one uniform per draw out of one rng.random((K, d)) block.
Generator.choice(n, p=...) consumes one double per call and maps it through
cumsum(p) / cumsum(p)[-1] and a right-sided search.  The kernel repeats that
arithmetic, so a batch equals K sequential choice-based draws, draw for draw.
Every contraction is a two-operand BLAS product, as an einsum runs without
BLAS: the interfaces times the core viewed as R x (N R'), the squared
weights' rank sum as a product with ones, and the suffix Grams.  The tests
check the draws against per-draw einsum references up to the solve's shapes.

One gradient kernel serves log_value_grad and ascent_step: from every
index's slices of every core it builds the prefix and suffix interfaces with
batched matrix products, and each index's outer products over its value.
ascent_step checks the batch as one array, copies its slices once per call
and runs every round on that copy, where one row owns each slice that
several rows share: a round takes the rows' slices from it and scatter-adds
the terms back in batch order (np.bincount adds in turn, as np.add.at does).
The slices are written back once, and the cores end bit-identical to
updating whole cores every round.

The search's trains stay positive: random_tt starts entries at INIT_FLOOR or
above and a positive train's gradient terms are >= 0, so ascent never lowers
an entry.  The samplers' clamps and uniform fallback (counted in diagnostics)
guard signed trains from the API or a checkpoint; weights or suffix Grams
that overflow raise ValueError, with numpy's warnings held back.
"""
from __future__ import annotations

import math
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


@np.errstate(over="ignore", invalid="ignore")  # a weight that overflows is refused by name
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
    # Every draw starts from phi = 1, so axis 0's conditional is one row, read by all (rows maps draws to rows).
    phi, rows = np.ones((1, 1)), np.zeros(count, dtype=np.intp)
    for k, core in enumerate(t.cores):
        left, nodes, right = core.shape
        vecs = (phi @ core.reshape(left, nodes * right)).reshape(-1, right)
        weights = ((vecs @ suffix[k + 1]) * vecs) @ np.ones(right) if squared else vecs @ suffix[k + 1]
        weights = np.maximum(weights, 0.0, out=weights).reshape(len(phi), nodes)
        mass = weights.sum(axis=1)
        if not mass.max() < math.inf:  # NaN fails too
            raise ValueError(f"conditional weight in axis {k} is not finite: the train's weights overflow float64")
        if not mass.min() > 0.0:
            vanished = mass <= 0.0
            weights[vanished] = 1.0
            mass[vanished] = nodes
            if diagnostics is not None:
                diagnostics["uniform_fallbacks"] = diagnostics.get("uniform_fallbacks", 0) + int(vanished[rows].sum())
        cdf = np.cumsum(weights / mass[:, None], axis=1)
        cdf /= cdf[:, -1:]
        draws[:, k] = (cdf <= uniforms[:, k, None]).sum(axis=1)
        phi, rows = vecs.reshape(len(phi), nodes, right)[rows, draws[:, k]], np.arange(count)
        peak = np.abs(phi).max(axis=1, keepdims=True)
        phi /= np.where(peak > 0.0, peak, 1.0)
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


@np.errstate(over="ignore", invalid="ignore")  # a level that overflows is refused by name
def suffix_grams(t: TTDistribution) -> list[np.ndarray]:
    """Suffix Gram matrices of the core chain, right to left.

    Entry k is M_k = sum_i G_k[:,i,:] M_{k+1} G_k[:,i,:]^T, so
    phi M_k phi^T is the squared-entry mass of the suffix tensor weighted by
    the left interface phi.  Each level is rescaled by its max-abs entry;
    only weight ratios matter downstream and the rescaling keeps long chains
    away from float under/overflow.  A level that still overflows raises ValueError.
    """
    grams = [np.ones((1, 1))] * (t.d + 1)
    for k, core in reversed(list(enumerate(t.cores))):
        m = np.dot((core @ grams[k + 1]).reshape(len(core), -1), core.reshape(len(core), -1).T)
        peak = np.max(np.abs(m))
        if not peak < math.inf:  # NaN fails too
            raise ValueError(f"suffix Gram matrix of core {k} is not finite: the squared train overflows float64")
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


class _GradKernel:
    """Gradient terms of ln(value) at the rows of a checked (B, d) integer index array, in buffers reused by every run.

    Row e of gathered starts as a copy of index idx[e]'s slice of every core,
    core k's R_k x R_k+1 entries after core k-1's.  run writes index e's term
    for each core, outer(prefix_k, suffix_k+1) / value_e, to row e of terms in
    the same layout, so one division covers every core.  Values <= 0 divide
    as VALUE_FLOOR.
    """

    def __init__(self, t: TTDistribution, idx: np.ndarray) -> None:
        self.shapes, count = [(core.shape[0], core.shape[2]) for core in t.cores], len(idx)
        width = sum(left * right for left, right in self.shapes)
        self.gathered, self.terms = np.empty((count, width)), np.empty((count, width))
        self.slices, self.term_views = self._views(self.gathered), self._views(self.terms)
        for s, core, column in zip(self.slices, t.cores, idx.T):
            s[...] = core[:, column, :].transpose(1, 0, 2)
        d = t.d
        ones = np.ones((count, 1, 1))
        # The boundary interfaces are ones, and a product with ones equals the other factor.  No
        # term reads suf[0].
        self.pre = [ones, self.slices[0]] + [np.empty((count, 1, right)) for _, right in self.shapes[1:]]
        self.suf = [np.empty((count, left, 1)) for left, _ in self.shapes] + [ones]
        self.suf[d - 1] = self.slices[d - 1]
        self.outer = [(p.transpose(0, 2, 1), s.transpose(0, 2, 1)) for p, s in zip(self.pre, self.suf[1:])]
        self.values = self.pre[d][:, 0, 0]

    def _views(self, buf: np.ndarray) -> list[np.ndarray]:
        views, offset = [], 0
        for left, right in self.shapes:
            views.append(buf[:, offset : offset + left * right].reshape(len(buf), left, right))
            offset += left * right
        return views

    def run(self) -> np.ndarray:
        """Terms from the current gathered slices; returns the unclamped values."""
        d = len(self.slices)
        for k in range(1, d):
            np.matmul(self.pre[k], self.slices[k], out=self.pre[k + 1])
        for k in range(d - 2, 0, -1):
            np.matmul(self.slices[k], self.suf[k + 1], out=self.suf[k])
        for (p, s), out in zip(self.outer, self.term_views):
            np.multiply(p, s, out=out)
        self.terms /= np.where(self.values <= 0.0, VALUE_FLOOR, self.values)[:, None]
        return self.values


def log_value_grad(t: TTDistribution, idx: Sequence[int]) -> list[np.ndarray]:
    """Gradient of ln(tensor value at idx) with respect to every core entry.

    Core k's gradient is zero except at slice idx[k], where it equals the
    outer product of the prefix and suffix interfaces divided by the value.
    """
    idx = _check_index(t, idx)
    kernel = _GradKernel(t, np.array([idx]))
    values = kernel.run()
    if values[0] <= 0.0:
        raise ValueError(f"tensor value {values[0]} at {idx} is not positive; log-gradient undefined")
    grads = [np.zeros_like(core) for core in t.cores]
    for g, term, i in zip(grads, kernel.term_views, idx):
        g[:, i, :] += term[0]
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
    times it.  Repeated indices in the batch count once per occurrence.  No
    entry of a positive train decreases.  A value <= 0 (only entries <= 0
    give one) divides as VALUE_FLOOR, counted in the returned diagnostics:
    such a train's steps grow about 1e12-fold and can overflow within a few
    rounds, which raises ValueError and leaves the cores as they were.
    """
    if len(batch) == 0:
        raise ValueError("ascent batch must be non-empty")
    if not (math.isfinite(learning_rate) and learning_rate >= 0.0):
        raise ValueError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    if not isinstance(step_count, (int, np.integer)) or step_count < 0:
        raise ValueError(f"step_count must be an integer >= 0, got {step_count!r}")
    try:  # checked as one array; a batch it refuses gets _check_index's error for its first bad index
        idx = np.asarray(batch)
    except ValueError:  # ragged rows
        idx = np.empty(0)
    if idx.dtype.kind not in "iu" or idx.shape != (len(batch), t.d) or not ((idx >= 0) & (idx < t.shape)).all():
        idx = np.array([_check_index(t, i) for i in batch])
    # Only the batch's slices change, so the rounds run on a copy of them: compact starts as the
    # kernel's gathered rows, and of the rows with one node on axis k, one (its owner, from a table
    # over every axis's nodes) holds that slice of core k for all.  slot maps each gathered entry to
    # its place there; the terms scatter-add back through it, so a shared slice sums them in batch order.
    kernel = _GradKernel(t, idx)
    nodes = idx + np.cumsum((0, *t.shape[:-1]))
    owner = np.empty(nodes.max() + 1, dtype=np.intp)
    owner[nodes] = np.arange(len(idx))[:, None]
    width, sizes = kernel.gathered.shape[1], [s.shape[1] * s.shape[2] for s in kernel.slices]
    compact, slot = kernel.gathered.ravel().copy(), np.repeat(owner[nodes] * width, sizes, axis=1) + np.arange(width)
    diagnostics = {"clamped_values": 0}
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, before the cores change
        for _ in range(step_count):
            np.take(compact, slot, out=kernel.gathered, mode="clip")  # "clip" writes out directly; no copy
            values = kernel.run()
            diagnostics["clamped_values"] += int(np.count_nonzero(values <= 0.0))
            # bincount adds each weight in turn onto zeros, as np.add.at does, at a fraction of its cost.
            grad = np.bincount(slot.ravel(), kernel.terms.ravel(), compact.size)
            grad *= learning_rate
            compact += grad
    if not np.isfinite(compact).all():  # checked once: a non-finite entry stays non-finite in later rounds
        raise ValueError(f"non-finite core entries after {step_count} steps of ascent; the cores are left unchanged")
    # A full-core update adds learning_rate * 0.0 to every untouched entry, which leaves it as it is
    # for a finite rate (bar a -0.0 entry, which ascent never produces): writing back only the
    # batch's slices ends bit-identical to one.
    np.take(compact, slot, out=kernel.gathered, mode="clip")
    for core, column, s in zip(t.cores, idx.T, kernel.slices):
        core[:, column, :] = s.transpose(1, 0, 2)
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
        numbered = [(lineno, line.strip()) for lineno, line in enumerate(fh, start=1) if line.strip()]
    linenos, lines = [lineno for lineno, _ in numbered], [line for _, line in numbered]  # errors name file lines
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
                raise ValueError(f"expected 'core {k}' at checkpoint line {linenos[4 + 2 * k]}")
            entries = np.array([float(x) for x in lines[5 + 2 * k].split()])
            if not np.isfinite(entries).all():
                raise ValueError(f"non-finite entry at checkpoint line {linenos[5 + 2 * k]}")
            cores.append(entries.reshape(ranks[k], shape[k], ranks[k + 1]))
    except IndexError:
        raise ValueError(f"truncated tensor-train checkpoint ({len(lines)} lines)") from None
    if len(lines) > 4 + 2 * d:
        raise ValueError(f"unexpected content after the last core at checkpoint line {linenos[4 + 2 * d]}")
    return TTDistribution(cores)
