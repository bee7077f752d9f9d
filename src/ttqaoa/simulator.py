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
mixer is one 16x16 matmul per two vertices; apply_rx is its gate-by-gate
reference.  _evolve runs the p layers over a (B, D) stack; _measure checks
each row's norm and takes its own expectation.  run_qaoa is a one-row
_evolve, _energies (the search's batches) evolves and measures stacks of at
most STACK_AMPLITUDES amplitudes, and energy_grid (the depth-1 landscape)
runs one phase layer per gamma and stacks its mixer and measure step.  Rows
equal one-row runs bit for bit.  make_instance checks MAX_QUBITS.
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


def _mixer_block(betas: np.ndarray, q: int) -> np.ndarray:
    """exp(-i*beta*X) on each of q qubits, per beta: cos**(q-h) * (-i*sin)**h at Hamming distance h.

    take, unlike an index gather, keeps the beta axis outermost, so every matrix of a stack takes
    the BLAS path a lone matrix takes; the non-BLAS loop moves last bits (one-column blocks, n <= 2).
    """
    cos_sin = [(math.cos(b), -1j * math.sin(b)) for b in betas.flat]
    terms = [[c ** (q - h) * s ** h for h in range(q + 1)] for c, s in cos_sin]
    return np.array(terms).reshape(*betas.shape, -1).take(_HAMMING[: 1 << q, : 1 << q], axis=-1)


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
    return _initial_state(n, backend)


def _initial_state(n: int, backend: Backend, *stack: int) -> np.ndarray:
    """prepare_initial's state, as a (*stack, D) array of copies when stack axes are given."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    qubits = _register_qubits(n, backend)
    state = np.zeros((*stack, 1 << qubits), dtype=complex)
    state[..., : 4**n] = 2.0**-n
    return state


def apply_mixer(state: np.ndarray, beta: float | np.ndarray, n: int) -> np.ndarray:
    """exp(-i*beta*X) on each of the 2n color qubits; ancillas are untouched.

    Takes one statevector and a scalar beta, or a (B, D) stack and (B,) betas.
    Each two-vertex block (the last vertex alone for odd n) is one matmul
    between two buffers that lifts its bits to the top of the index, so after
    the last block every bit is back in place; GATE ancilla blocks are extra
    rows.  Rows equal one-row calls bit for bit, and apply_rx to 1e-13.
    """
    betas = np.asarray(beta, dtype=float)
    if betas.shape != state.shape[:-1]:
        raise ValueError(f"beta shape {betas.shape} does not match the state stack {state.shape[:-1]}")
    _check_qubits(state, 2 * n - 1)
    rows = state.reshape(*betas.shape, -1, 4**n)
    widths = [min(4, 2 * n - low) for low in range(0, 2 * n, 4)]
    matrices = {q: _mixer_block(betas, q)[..., None, :, :] for q in set(widths)}
    src, dst = rows, np.empty_like(rows)
    for q in widths:
        blocks = src.reshape(*rows.shape[:-1], -1, 1 << q).swapaxes(-1, -2)
        np.matmul(matrices[q], blocks, out=dst.reshape(*rows.shape[:-1], 1 << q, -1))
        src, dst = dst, src
    if src is not rows:
        rows[...] = src
    return state


def apply_phase_diagonal(state: np.ndarray, cost: CostDiagonal, gamma: float | np.ndarray) -> np.ndarray:
    """amplitude[z] *= exp(-i*gamma*cost[z]/2), one exp per cost level gathered per entry, bit for bit.

    Takes one statevector and a scalar gamma, or a (B, D) stack and a (B, 1)
    column of gammas; rows equal one-row calls bit for bit.
    """
    if state.shape[-1] != cost.values.size:
        raise ValueError(f"state length {state.shape[-1]} does not match cost diagonal {cost.values.size}")
    stack = (*state.shape[:-1], 1) if state.ndim > 1 else ()
    if np.shape(gamma) != stack:
        raise ValueError(f"gamma shape {np.shape(gamma)} does not match the state stack {state.shape[:-1]}")
    levels, inverse = cost.levels
    state *= np.exp(-0.5j * gamma * levels).take(inverse, axis=-1)
    return state


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


def run_qaoa(inst: QaoaInstance, theta: ParameterVector) -> np.ndarray:
    """Apply depth layers of phase separator then mixer to the initial state."""
    if theta.p != inst.depth:
        raise ValueError(f"parameter depth {theta.p} does not match instance depth {inst.depth}")
    state = _initial_state(inst.graph.n, inst.backend)
    _measure(_evolve(inst, state[None], theta.to_flat()[None]))
    return state


def _evolve(inst: QaoaInstance, rows: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """The p layers on a (B, D) stack in place; row b takes the flat angles thetas[b], gammas then betas."""
    gammas, betas = thetas[:, : inst.depth, None], thetas[:, inst.depth :]
    for layer in range(inst.depth):
        apply_mixer(_phase_layer(inst, rows, gammas[:, layer]), betas[:, layer], inst.graph.n)
    return rows


def _phase_layer(inst: QaoaInstance, rows: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """One phase separator per row of a (B, D) stack, gammas a (B, 1) column, in place; GATE goes row by row."""
    if inst.backend is Backend.DIAGONAL:
        return apply_phase_diagonal(rows, inst.cost, gammas)
    for row, (gamma,) in zip(rows, gammas.tolist()):
        apply_phase_gate_level(row, inst.graph, gamma)
    return rows


def _measure(rows: np.ndarray, cost: CostDiagonal | None = None) -> list[float]:
    """Raise unless every row of a (B, D) stack kept unit norm (NaN fails too); given a cost, each row's own <cost>."""
    for row in rows:
        norm = np.linalg.norm(row)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise RuntimeError(f"statevector norm drifted to {norm}")
    return [] if cost is None else [expectation(row, cost) for row in rows]


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
        state = _initial_state(inst.graph.n, inst.backend, 1)
        state = _color_block(_phase_layer(inst, state, gamma)[0], size, "after the phase layer")
        for start in range(0, betas.size, per_call):
            chunk = betas[start : start + per_call]
            rows = stack[: chunk.size]
            rows[...] = state
            energies[i, start : start + chunk.size] = _measure(apply_mixer(rows, chunk, inst.graph.n), inst.cost)
    return energies


def _energies(inst: QaoaInstance, thetas: np.ndarray) -> np.ndarray:
    """Energies of the rows of a (B, 2p) array of flat angle vectors, gammas then betas.

    Runs stacks of at most max(1, STACK_AMPLITUDES // D) registers; entry b is
    expectation(run_qaoa(inst, ParameterVector.from_flat(thetas[b])), inst.cost), bit for bit.
    """
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != 2 * inst.depth:
        raise ValueError(f"angle array shape {thetas.shape} does not match (B, {2 * inst.depth})")
    per_call = max(1, STACK_AMPLITUDES // (1 << _register_qubits(inst.graph.n, inst.backend)))
    energies = np.empty(len(thetas))
    for start in range(0, len(thetas), per_call):
        chunk = thetas[start : start + per_call]
        # Bound before the layers run, so the previous chunk's stack is freed by then.
        rows = _initial_state(inst.graph.n, inst.backend, len(chunk))
        energies[start : start + len(rows)] = _measure(_evolve(inst, rows, chunk), inst.cost)
    return energies


def expectation(state: np.ndarray, cost: CostDiagonal) -> float:
    """<cost> in the current state; ancillas, if present, are checked to be in |00>, not traced out."""
    probs = np.abs(_color_block(state, cost.values.size, "at measurement")) ** 2
    return float(probs @ cost.values)


def sample_counts(
    state: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    color_dim: int | None = None,
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
