"""Dense statevector simulation of the color-encoded QAOA circuit.

Two interchangeable phase-separator backends are provided: DIAGONAL multiplies
amplitudes by the precomputed cost diagonal (one exp per cost level, gathered
per entry), GATE builds the same evolution from X/CX/CCX and controlled-phase
gates with two ancilla qubits.  The two agree up to a single global phase.

Angle convention: one phase layer with angle gamma multiplies basis state z
by exp(-i * gamma * values[z] / 2), which on the GATE backend is one
controlled phase of -gamma * w per edge.  The mixer is the full
exp(-i*beta*X) per qubit.  qaoa_model states the angle periods.

Qubit layout follows qaoa_model: vertex i's pair sits in bits (2i, 2i+1) of
the basis index.  On the GATE backend the two ancillas are the most
significant qubits; they start in |0> and are restored to |0> after every
edge block, so they never entangle with the color register.  Only
_color_block drops them, after checking that they hold no mass.

The gates address qubits through one strided view, with no index array.  The
mixer is one 16x16 matmul per two vertices (apply_rx is its gate-by-gate
reference), its matrices built for all betas at once, bit for bit Python's
c ** (q - h) * s ** h: np.float_power calls libm's pow as Python does, where
np.power's SIMD loop can move a last bit.  A _Plan owns one state and one
scratch buffer as long as it lives, grown to the largest batch it has run and
at most (rows, D), rows = max(1, STACK_AMPLITUDES // D): run_solve keeps one
for its search, refinement and final state, and run_qaoa builds one per call.
_phase_diagonal, apply_phase_diagonal's kernel, gathers the plan's phases into
the scratch by take's mode="clip" (mode="raise" gathers into a fresh copy of
out first), the mixer passes between the buffers, and _measure takes
|amp|**2, for the norm check and the energy, in the free one.  _energies runs
(B, 2p) angle arrays through a plan; rows equal one-row runs bit for bit.
make_instance checks MAX_QUBITS.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph
from .qaoa_model import MAX_QUBITS, CostDiagonal, build_cost_diagonal

NORM_TOL = 1e-10
# Amplitudes per stacked call in energy_grid and _energies: up to 2**12 (n <= 6) call overhead dominates.
STACK_AMPLITUDES = 1 << 12


class Backend(str, enum.Enum):
    DIAGONAL = "diagonal"
    GATE = "gate"


@dataclass(frozen=True)
class ParameterVector:
    """Per-layer phase angles (gammas) and mixing angles (betas)."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.gammas) != len(self.betas) or not self.gammas:
            raise ValueError("gammas and betas must have equal positive length")
        for name in ("gammas", "betas"):
            angles = tuple(float(x) for x in getattr(self, name))
            if not all(map(math.isfinite, angles)):
                raise ValueError(f"{name} must be finite, got {angles}")
            object.__setattr__(self, name, angles)

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def from_flat(cls, theta: Sequence[float]) -> "ParameterVector":
        """Split a flat vector (gamma_1..gamma_p, beta_1..beta_p)."""
        if len(theta) % 2 != 0 or not len(theta):
            raise ValueError(f"flat parameter vector must have even positive length, got {len(theta)}")
        half = len(theta) // 2
        return cls(tuple(theta[:half]), tuple(theta[half:]))

    def to_flat(self) -> np.ndarray:
        return np.array(self.gammas + self.betas)


@dataclass(frozen=True)
class QaoaInstance:
    graph: Graph
    depth: int
    cost: CostDiagonal
    backend: Backend


def _register_qubits(n: int, backend: Backend) -> int:
    """Qubits of an n-vertex register: 2n colors, plus two ancillas on GATE."""
    qubits = 2 * n + (2 if Backend(backend) is Backend.GATE else 0)
    if qubits > MAX_QUBITS:
        raise ValueError(f"{qubits} qubits exceed the {MAX_QUBITS}-qubit dense limit")
    return qubits


def make_instance(graph: Graph, depth: int, backend: Backend = Backend.DIAGONAL) -> QaoaInstance:
    if depth < 1:
        raise ValueError(f"circuit depth must be >= 1, got {depth}")
    _register_qubits(graph.n, backend)
    return QaoaInstance(graph, depth, build_cost_diagonal(graph), Backend(backend))


def _check_qubits(state: np.ndarray, *qubits: int) -> int:
    size = state.shape[-1]
    q = int(size).bit_length() - 1
    if size != 1 << q:
        raise ValueError(f"statevector length {size} is not a power of two")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    for t in qubits:
        if not 0 <= t < q:
            raise ValueError(f"qubit index {t} out of range for {q} qubits")
    return q


# Hamming distance between 4-bit block indices; its top-left 4x4 serves the one-vertex block.
_HAMMING = np.array([[bin(j ^ k).count("1") for k in range(16)] for j in range(16)])


def _mixer_blocks(betas: np.ndarray, n: int) -> list[np.ndarray]:
    """exp(-i*beta*X) per mixer block of n vertices (q = 4 qubits per two, 2 for the last of odd n), in order.

    Each is a (*betas.shape, 2**q, 2**q) stack, cos**(q-h) * (-i*sin)**h at Hamming distance h: take, unlike an
    index gather, keeps the beta axes outermost, so every matrix of a stack takes a lone matrix's BLAS path.
    """
    betas, widths = np.asarray(betas)[..., None], [min(4, 2 * n - low) for low in range(0, 2 * n, 4)]
    cos, sin, h = np.cos(betas), -1j * np.sin(betas), np.arange(5)
    terms = {q: np.float_power(cos, q - h[: q + 1]) * np.power(sin, h[: q + 1]) for q in set(widths)}
    blocks = {q: t.take(_HAMMING[: 1 << q, : 1 << q], axis=-1) for q, t in terms.items()}
    return [blocks[q] for q in widths]


def _mix(state: np.ndarray, scratch: np.ndarray, matrices: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Mix a (B, D) stack, one matmul per (B, 1, 2**q, 2**q) block stack lifting its bits to the top: (mixed, free)."""
    src, dst = state, scratch
    for m in matrices:
        size = m.shape[-1]
        blocks = src.reshape(len(src), -1, 4**n // size, size).swapaxes(2, 3)
        np.matmul(m, blocks, out=dst.reshape(len(src), -1, size, 4**n // size))
        src, dst = dst, src
    return src, dst


def _view(state: np.ndarray, q: int, bits: dict[int, int]) -> np.ndarray:
    """Strided view of the amplitudes whose qubit t holds bits[t] for each listed t."""
    index = [bits.get(t, slice(None)) for t in range(q - 1, -1, -1)]
    # The trailing Ellipsis keeps the all-qubits-fixed case a 0-d view, not a scalar.
    return state.reshape((2,) * q)[(*index, ...)]


def _controlled_x(state: np.ndarray, controls: tuple[int, ...], target: int) -> np.ndarray:
    """Flip the target where every control is 1: swap its 0 and 1 views."""
    q = _check_qubits(state, *controls, target)
    on = dict.fromkeys(controls, 1)
    v0, v1 = _view(state, q, {**on, target: 0}), _view(state, q, {**on, target: 1})
    tmp = v0.copy()
    v0[...] = v1
    v1[...] = tmp
    return state


def apply_x(state: np.ndarray, qubit: int) -> np.ndarray:
    return _controlled_x(state, (), qubit)


def apply_rx(state: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    """Rotation exp(-i*theta*X/2) on one qubit: the gate-by-gate reference for apply_mixer."""
    _check_qubits(state, qubit)
    c, s = math.cos(theta / 2), -1j * math.sin(theta / 2)
    psi = state.reshape(*state.shape[:-1], -1, 2, 1 << qubit)
    psi[...] = np.array([[c, s], [s, c]]) @ psi
    return state


def apply_cx(state: np.ndarray, control: int, target: int) -> np.ndarray:
    return _controlled_x(state, (control,), target)


def apply_ccx(state: np.ndarray, control_a: int, control_b: int, target: int) -> np.ndarray:
    return _controlled_x(state, (control_a, control_b), target)


def apply_controlled_phase(state: np.ndarray, controls: Sequence[int], target: int, phi: float) -> np.ndarray:
    """Multiply by exp(i*phi) on basis states where the target and all controls are 1."""
    q = _check_qubits(state, *controls, target)
    view = _view(state, q, dict.fromkeys((*controls, target), 1))
    view *= np.exp(1j * phi)
    return state


def prepare_initial(n: int, backend: Backend = Backend.DIAGONAL) -> np.ndarray:
    """Uniform superposition on the 2n color qubits; GATE adds two ancillas in |0>."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    state = np.zeros(1 << _register_qubits(n, backend), dtype=complex)
    state[: 4**n] = 2.0**-n
    return state


def apply_mixer(state: np.ndarray, beta: float | np.ndarray, n: int) -> np.ndarray:
    """exp(-i*beta*X) on each of the 2n color qubits; ancillas are untouched.

    Takes one statevector and a scalar beta, or a (B, D) stack and (B,) betas; _mix runs between
    the state and a fresh buffer.  Rows equal one-row calls bit for bit, and apply_rx to 1e-13.
    """
    betas = np.asarray(beta, dtype=float)
    if betas.shape != state.shape[:-1]:
        raise ValueError(f"beta shape {betas.shape} does not match the state stack {state.shape[:-1]}")
    _check_qubits(state, 2 * n - 1)
    rows = state.reshape(-1, state.shape[-1])
    mixed, _ = _mix(rows, np.empty_like(rows), _mixer_blocks(betas.reshape(-1, 1), n), n)
    if mixed is not rows:
        rows[...] = mixed
    return state


def apply_phase_diagonal(state: np.ndarray, cost: CostDiagonal, gamma: float | np.ndarray) -> np.ndarray:
    """amplitude[z] *= exp(-i*gamma*cost[z]/2), one exp per cost level gathered per entry by _phase_diagonal.

    Takes one statevector and a scalar gamma, or a (B, D) stack and (B, 1) gammas; rows equal one-row calls bit for bit.
    """
    if state.shape[-1] != cost.values.size:
        raise ValueError(f"state length {state.shape[-1]} does not match cost diagonal {cost.values.size}")
    stack = (*state.shape[:-1], 1) if state.ndim > 1 else ()
    if np.shape(gamma) != stack:
        raise ValueError(f"gamma shape {np.shape(gamma)} does not match the state stack {state.shape[:-1]}")
    return _phase_diagonal(state, cost, gamma)


def _phase_diagonal(rows: np.ndarray, cost: CostDiagonal, gammas, out: np.ndarray | None = None) -> np.ndarray:
    """rows *= exp(-0.5j * gammas * levels), gathered per entry into out if given (see the module docstring)."""
    levels, inverse = cost.levels
    rows *= np.exp(-0.5j * gammas * levels).take(inverse, axis=-1, out=out, mode="clip")
    return rows


def _color_block(state: np.ndarray, color_dim: int, when: str) -> np.ndarray:
    """Block 0 of reshape(-1, color_dim), after checking the other blocks hold no mass."""
    if state.size == color_dim:
        return state
    blocks = state.reshape(-1, color_dim)
    residual = np.sum(np.abs(blocks[1:]) ** 2)
    if residual > 1e-12:
        raise ValueError(f"ancillas not in |00> {when} (residual mass {residual:.3e})")
    return blocks[0]


def apply_phase_gate_level(state: np.ndarray, g: Graph, gamma: float) -> np.ndarray:
    """Gate-level phase separator over the two-ancilla register, edge by edge.

    For each edge three blocks run: an equal-pair block (CX-compute the XOR of
    the two bit pairs onto vertex j, X-flip, controlled phase, uncompute) and
    one block per aliased cross pair (2,3)/(3,2) (CCX the pair predicates onto
    the ancillas, ancilla-controlled phase, uncompute).  Each controlled phase
    turns by -gamma*w, which reproduces the diagonal evolution up to one
    global phase per edge.  Ancillas must enter in |0> and are restored after
    every block.
    """
    if state.size != 4**g.n * 4:
        raise ValueError(f"state length {state.size} does not match {2 * g.n} color qubits + 2 ancillas")
    anc0, anc1 = 2 * g.n, 2 * g.n + 1
    _color_block(state, 4**g.n, "at entry")
    for i, j, w in g.edges:
        qi0, qi1 = 2 * i + 1, 2 * i
        qj0, qj1 = 2 * j + 1, 2 * j
        phi = -gamma * w

        # Equal bit pairs: after CX + X, vertex j's pair is 11 iff the pairs matched.
        apply_cx(state, qi0, qj0)
        apply_cx(state, qi1, qj1)
        apply_x(state, qj0)
        apply_x(state, qj1)
        apply_controlled_phase(state, [qj0], qj1, phi)
        apply_x(state, qj1)
        apply_x(state, qj0)
        apply_cx(state, qi1, qj1)
        apply_cx(state, qi0, qj0)

        # Pairs (2, 3) then (3, 2): X on vertex i's, then vertex j's, low bit
        # makes that vertex's 10 readable as 11.
        for low in (qi1, qj1):
            apply_x(state, low)
            apply_ccx(state, qi0, qi1, anc0)
            apply_ccx(state, qj0, qj1, anc1)
            apply_controlled_phase(state, [anc0, anc1], qj1, phi)
            apply_ccx(state, qj0, qj1, anc1)
            apply_ccx(state, qi0, qi1, anc0)
            apply_x(state, low)
    return state


class _Plan:
    """The set-up and buffers that every evaluation of inst repeats, built once; see the module docstring."""

    def __init__(self, inst: QaoaInstance):
        self.inst = inst
        if inst.backend is Backend.DIAGONAL:
            inst.cost.levels  # built now, so the level sort's temporaries are freed before any buffer exists
        self.state = self.scratch = np.empty((0, 1 << _register_qubits(inst.graph.n, inst.backend)), dtype=complex)
        self.rows = max(1, STACK_AMPLITUDES // self.state.shape[1])

    def run(self, thetas: np.ndarray, cost: CostDiagonal | None = None) -> tuple[np.ndarray, list[float]]:
        """The p layers and _measure on one register per row of (B, 2p) flat angles, B <= rows.

        Returns the rows, a view of a plan buffer until the next run, and each row's <cost> given a cost.
        """
        n, size = self.inst.graph.n, self.state.shape[1]
        if len(self.state) < len(thetas):
            self.state, self.scratch = (np.empty((len(thetas), size), dtype=complex) for _ in range(2))
        state, scratch = self.state[: len(thetas)], self.scratch[: len(thetas)]
        state[:, : 4**n], state[:, 4**n :] = 2.0**-n, 0.0
        gammas, betas = (angles.T[..., None] for angles in np.split(thetas, 2, axis=1))
        for gamma, *blocks in zip(gammas, *_mixer_blocks(betas, n)):
            _phase_layer(self.inst, state, gamma, scratch)
            state, scratch = _mix(state, scratch, blocks, n)
        return state, _measure(state, cost, scratch)


def run_qaoa(inst: QaoaInstance, theta: ParameterVector) -> np.ndarray:
    """Apply depth layers of phase separator then mixer to the initial state, through a plan of its own."""
    if theta.p != inst.depth:
        raise ValueError(f"parameter depth {theta.p} does not match instance depth {inst.depth}")
    (state,), _ = _Plan(inst).run(theta.to_flat()[None])
    return state


def _phase_layer(inst: QaoaInstance, rows: np.ndarray, gammas: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Phase layers on a (B, D) stack in place, gammas a (B, 1) column: DIAGONAL gathers into out, GATE row by row."""
    if inst.backend is Backend.DIAGONAL:
        return _phase_diagonal(rows, inst.cost, gammas, out)
    for row, (gamma,) in zip(rows, gammas.tolist()):
        apply_phase_gate_level(row, inst.graph, gamma)
    return rows


def _measure(rows: np.ndarray, cost: CostDiagonal | None = None, scratch: np.ndarray | None = None) -> list[float]:
    """Raise unless every row of a (B, D) stack kept unit norm (NaN fails too); given a cost, each row's own <cost>."""
    probs = np.abs(rows, out=None if scratch is None else scratch.view(float)[:, : rows.shape[1]])
    for norm in np.sqrt(np.square(probs, out=probs).sum(axis=1)).tolist():
        if not abs(norm - 1.0) <= NORM_TOL:
            raise RuntimeError(f"statevector norm drifted to {norm}")
    return [] if cost is None else [_energy(row, row_probs, cost) for row, row_probs in zip(rows, probs)]


def energy_grid(inst: QaoaInstance, gammas: Sequence[float], betas: Sequence[float]) -> np.ndarray:
    """Depth-1 energies over a grid: entry (i, j) is <cost> after gamma_i then beta_j.

    One phase layer per gamma; its color block (on GATE the ancilla blocks, checked empty, hold exact
    zeros, as the gate layer only swaps amplitudes) is copied into one row per beta, and the rows are
    mixed and measured in stacks of at most STACK_AMPLITUDES amplitudes: entries are run_qaoa's, bit for bit.
    """
    if inst.depth != 1:
        raise ValueError(f"energy_grid evaluates depth-1 circuits, got depth {inst.depth}")
    gammas, betas = (np.asarray(x, dtype=float) for x in (gammas, betas))
    if gammas.ndim != 1 or betas.ndim != 1:
        raise ValueError("gammas and betas must be 1-D")
    size = inst.cost.values.size
    per_call = max(1, STACK_AMPLITUDES // size)
    stack = np.empty((min(betas.size, per_call), size), dtype=complex)
    energies = np.empty((gammas.size, betas.size))
    for i, gamma in enumerate(gammas[:, None, None]):
        # Bound before the phase layer runs, so the previous gamma's state is freed by then.
        state = prepare_initial(inst.graph.n, inst.backend)[None]
        state = _color_block(_phase_layer(inst, state, gamma)[0], size, "after the phase layer")
        for start in range(0, betas.size, per_call):
            chunk = betas[start : start + per_call]
            rows = stack[: chunk.size]
            rows[...] = state
            energies[i, start : start + chunk.size] = _measure(apply_mixer(rows, chunk, inst.graph.n), inst.cost)
    return energies


def _energies(plan: _Plan, thetas: np.ndarray) -> np.ndarray:
    """Energies of the rows of a (B, 2p) array of flat angle vectors, gammas then betas, through plan.

    Runs stacks of at most plan.rows registers; entry b is
    expectation(run_qaoa(plan.inst, ParameterVector.from_flat(thetas[b])), plan.inst.cost), bit for bit.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != 2 * plan.inst.depth:
        raise ValueError(f"angle array shape {thetas.shape} does not match (B, {2 * plan.inst.depth})")
    energies = np.empty(len(thetas))
    for start in range(0, len(thetas), plan.rows):
        energies[start : start + plan.rows] = plan.run(thetas[start : start + plan.rows], plan.inst.cost)[1]
    return energies


def expectation(state: np.ndarray, cost: CostDiagonal) -> float:
    """<cost> in the current state; ancillas, if present, are checked to be in |00>, not traced out."""
    return _energy(state, np.abs(state[: cost.values.size]) ** 2, cost)


def _energy(state: np.ndarray, probs: np.ndarray, cost: CostDiagonal) -> float:
    """<cost> of one register whose |amp|**2 is probs, after checking that its ancilla blocks hold no mass."""
    _color_block(state, cost.values.size, "at measurement")
    return float(probs[: cost.values.size] @ cost.values)


def sample_counts(
    state: np.ndarray, shots: int, rng: np.random.Generator, color_dim: int | None = None
) -> dict[int, int]:
    """Multinomial draw of measurement outcomes, ancillas checked to be in |00> and stripped.

    Returns {basis index: count} for outcomes with nonzero count, in
    ascending index order.  Deterministic for a fixed generator state.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.abs(_color_block(state, state.size if color_dim is None else color_dim, "at measurement")) ** 2
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    nonzero = np.nonzero(counts)[0]
    return {int(z): int(counts[z]) for z in nonzero}
