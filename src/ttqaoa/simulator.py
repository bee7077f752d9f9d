"""Dense statevector simulation of the color-encoded QAOA circuit.

Two interchangeable phase-separator backends are provided: DIAGONAL multiplies
amplitudes by the precomputed cost diagonal, GATE builds the same evolution
from X/CX/CCX and controlled-phase gates with two ancilla qubits.  The two
agree up to a single global phase.

Angle convention: one phase layer with angle gamma multiplies basis state z
by exp(-i * gamma * values[z] / 2), which on the GATE backend is one
controlled phase of -gamma * w per edge.  Since every integer-weight graph
gives all diagonal entries the same parity, a 2*pi shift of gamma is a pure
global phase.  The mixer is the full exp(-i*beta*X) per qubit, so beta is
pi-periodic.

Qubit layout follows qaoa_model: vertex i's pair sits in bits (2i, 2i+1) of
the basis index.  On the GATE backend the two ancillas are the most
significant qubits; they start in |0> and are restored to |0> after every
edge block, so they never entangle with the color register.

X, CX, CCX and the controlled phase address qubits through one strided view:
the state reshaped to one length-2 axis per qubit, with the listed qubits'
bits fixed; no index array is built.  Registers (2n color qubits, plus the
two ancillas on GATE) are checked against qaoa_model.MAX_QUBITS in
make_instance, before the cost diagonal is built.
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
        object.__setattr__(self, "gammas", tuple(float(x) for x in self.gammas))
        object.__setattr__(self, "betas", tuple(float(x) for x in self.betas))

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
    q = int(state.size).bit_length() - 1
    if state.size != 1 << q:
        raise ValueError(f"statevector length {state.size} is not a power of two")
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    for t in qubits:
        if not 0 <= t < q:
            raise ValueError(f"qubit index {t} out of range for {q} qubits")
    return q


def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    psi = state.reshape(-1, 2, 1 << qubit)
    s0, s1 = psi[:, 0, :], psi[:, 1, :]
    n0 = matrix[0, 0] * s0 + matrix[0, 1] * s1
    n1 = matrix[1, 0] * s0 + matrix[1, 1] * s1
    psi[:, 0, :] = n0
    psi[:, 1, :] = n1
    return state


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


def apply_h(state: np.ndarray, qubit: int) -> np.ndarray:
    _check_qubits(state, qubit)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    return _apply_single(state, h, qubit)


def apply_rx(state: np.ndarray, qubit: int, theta: float) -> np.ndarray:
    """Rotation exp(-i*theta*X/2) on one qubit."""
    _check_qubits(state, qubit)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.array([[c, -1j * s], [-1j * s, c]])
    return _apply_single(state, m, qubit)


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
    qubits = _register_qubits(n, backend)
    state = np.zeros(1 << qubits, dtype=complex)
    state[: 4**n] = 2.0**-n
    return state


def apply_mixer(state: np.ndarray, beta: float, n: int) -> np.ndarray:
    """exp(-i*beta*X) on each of the 2n color qubits; ancillas are untouched."""
    _check_qubits(state, 2 * n - 1)
    for qubit in range(2 * n):
        apply_rx(state, qubit, 2.0 * beta)
    return state


def apply_phase_diagonal(state: np.ndarray, cost: CostDiagonal, gamma: float) -> np.ndarray:
    """Diagonal phase separator: amplitude[z] *= exp(-i*gamma*cost[z]/2)."""
    if state.size != cost.values.size:
        raise ValueError(f"state length {state.size} does not match cost diagonal {cost.values.size}")
    state *= np.exp(-0.5j * gamma * cost.values)
    return state


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
    residual = np.sum(np.abs(state.reshape(4, -1)[1:]) ** 2)
    if residual > 1e-12:
        raise ValueError(f"ancillas not in |00> at entry (residual mass {residual:.3e})")
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
    state = prepare_initial(inst.graph.n, inst.backend)
    for gamma, beta in zip(theta.gammas, theta.betas):
        if inst.backend is Backend.DIAGONAL:
            apply_phase_diagonal(state, inst.cost, gamma)
        else:
            apply_phase_gate_level(state, inst.graph, gamma)
        apply_mixer(state, beta, inst.graph.n)
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORM_TOL:
        raise RuntimeError(f"statevector norm drifted to {norm}")
    return state


def _color_probabilities(state: np.ndarray, color_dim: int) -> np.ndarray:
    probs = np.abs(state) ** 2
    if probs.size == color_dim:
        return probs
    if probs.size % color_dim == 0:
        return probs.reshape(-1, color_dim).sum(axis=0)
    raise ValueError(f"state length {probs.size} incompatible with color dimension {color_dim}")


def expectation(state: np.ndarray, cost: CostDiagonal) -> float:
    """<cost> in the current state; ancillas, if present, are traced out."""
    probs = _color_probabilities(state, cost.values.size)
    return float(probs @ cost.values)


def sample_counts(
    state: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    color_dim: int | None = None,
) -> dict[int, int]:
    """Multinomial draw of measurement outcomes, ancilla bits stripped.

    Returns {basis index: count} for outcomes with nonzero count, in
    ascending index order.  Deterministic for a fixed generator state.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = _color_probabilities(state, color_dim if color_dim is not None else state.size)
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    nonzero = np.nonzero(counts)[0]
    return {int(z): int(counts[z]) for z in nonzero}
