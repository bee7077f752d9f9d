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

The gates address qubits through strided views of the state.  The mixer
kernel, on either register, is the mixer module's.

Plan circuits run in a frame.  With G = diag((-i)**popcount(z)) over the
register's qubits, the mixer is G R G with R real (see the mixer module), so
a plan holds phi = G**-1 psi and mixes by R alone.  Between two phase layers
P, G P G = P G**2 with G**2 = (-1)**popcount, and the first layer's G meets
the uniform start, so the frame adds no pass: a DIAGONAL layer gathers its
phases times (-i)**k (first) or (-1)**k (later), k = popcount mod 4, from a
4L table at level + L * k, and a GATE row takes the same factor per entry as
it is copied off the gate layer's register.  |phi| = |psi|, so norms and
energies need no last G; _full_states applies it, and apply_mixer wraps the
kernel in both Gs, so it stays RX on one statevector.

DIAGONAL circuits run on half the register.  Flipping the low bit of every
vertex (F) swaps colors 0 and 1 and keeps color 2, so it keeps the cost, and
the uniform start and the mixer commute with it: every state has
psi(z) = psi(z XOR F).  The half register keeps the 2**(2n-1) amplitudes with
vertex 0's low bit 0, y (the low bits of vertices n-1..1) on top, the high
bits below.  Its norm and <cost> are twice the half's sums, exactly;
_full_states expands its rows, and pads GATE's with empty ancilla blocks,
for run_qaoa and solve's sampling.

Circuits run as (B, D) stacks on buffers that their caller owns; rows equal
one-row runs bit for bit.  A _Plan (one per solve, landscape and run_qaoa
call) owns the cost over the register it runs, a state and a scratch buffer
of at most (rows, D), rows = max(1, STACK_AMPLITUDES // D), and per row count
its mixer views, dropped when the buffers grow.  The DIAGONAL phases of the L
cost levels are exped for as many layers at a time as one stack buffer
holds, rows * D // 4BL for a B-row stack, and gathered per entry; the first
layer gathers 2**-n times them straight into the state, bit for bit the
uniform state phased, as a power-of-two scaling is exact.  GATE rows hold
the color register: each gate layer runs on the plan's ancilla register,
checked after it, and rows that share a first-layer gamma, as a landscape's
cells do, share its layer.
take's mode="clip" gathers phases (mode="raise" gathers into a fresh
copy of out first), _mix passes between the buffers, _measure takes
|amp|**2 in the free one; apply_mixer and apply_phase_diagonal are the mixer
and phase layer on one full statevector.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Graph
from .mixer import _FRAME_UNITS, _frame, _half_view, _mix, _mix_passes, _mixer_blocks, _mixer_layout, _popcounts
from .qaoa_model import MAX_QUBITS, CostDiagonal, build_cost_diagonal

NORM_TOL = 1e-10
# Amplitudes per stacked call in _energies: a 20-row n=4 search batch ran faster as one call than 16+4.
STACK_AMPLITUDES = 1 << 13


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


def _view(state: np.ndarray, q: int, bits: dict[int, int | slice]) -> np.ndarray:
    """Strided view of the amplitudes whose qubit t holds bits[t] per listed t; a slice keeps (or reverses) t's axis."""
    index = [bits.get(t, slice(None)) for t in range(q - 1, -1, -1)]
    # The trailing Ellipsis keeps the all-qubits-fixed case a 0-d view, not a scalar.
    return state.reshape((2,) * q)[(*index, ...)]


def apply_controlled_x(state: np.ndarray, controls: Sequence[int], target: int) -> np.ndarray:
    """X, CX or CCX by control count: where every control is 1, reverse the target axis (numpy copies the overlap)."""
    q = _check_qubits(state, *controls, target)
    on = dict.fromkeys(controls, 1)
    _view(state, q, on)[...] = _view(state, q, {**on, target: slice(None, None, -1)})
    return state


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


def apply_mixer(state: np.ndarray, beta: float, n: int) -> np.ndarray:
    """exp(-i*beta*X) on each of the 2n color qubits of one statevector; ancillas are untouched.

    G R G: _mix runs R as a one-row stack between the state and a fresh buffer, between the frame's two factors G.
    The state equals the tests' RX reference to 1e-13.  A (B, D) stack or a non-scalar beta raises.
    """
    if state.ndim != 1 or np.ndim(beta) != 0:
        raise ValueError(f"one state and scalar beta expected, got {state.shape}, {np.shape(beta)}")
    _check_qubits(state, 2 * n - 1)
    layout, pair = _mixer_layout(n, half=False), (state[None], np.empty_like(state)[None])
    _frame(pair[0], 2 * n)
    state[...] = _mix(*pair, _mixer_blocks(np.full((1, 1), beta, dtype=float), layout), _mix_passes(*pair, layout))[0]
    _frame(state[None], 2 * n)
    return state


def apply_phase_diagonal(state: np.ndarray, cost: CostDiagonal, gamma: float) -> np.ndarray:
    """amplitude[z] *= exp(-i*gamma*cost[z]/2) on one statevector: one exp per cost level, gathered per entry.

    A (B, D) stack, a state of another length or a non-scalar gamma raises: stacks go through _phase_layer.
    """
    if state.shape != cost.values.shape or np.ndim(gamma) != 0:
        raise ValueError(f"a {cost.values.shape} state and scalar gamma expected, got {state.shape}, {np.shape(gamma)}")
    state *= np.exp(-0.5j * gamma * cost.levels[0]).take(cost.levels[1], mode="clip")
    return state


def _color_block(state: np.ndarray, color_dim: int, when: str) -> np.ndarray:
    """Color amplitudes of a 1-D state of color_dim or 4 * color_dim (ancillas, checked in |00>) entries, else raise."""
    if state.ndim != 1 or state.size not in (color_dim, 4 * color_dim):
        raise ValueError(f"state of shape {state.shape} is not ({color_dim},) or ({4 * color_dim},) {when}")
    if state.size == color_dim:
        return state
    blocks = state.reshape(-1, color_dim)
    residual = np.sum(np.abs(blocks[1:]) ** 2)
    if residual > 1e-12:
        raise ValueError(f"ancillas not in |00> {when} (residual mass {residual:.3e})")
    return blocks[0]


def apply_phase_gate_level(state: np.ndarray, g: Graph, gamma: float) -> np.ndarray:
    """Gate-level phase separator over the two-ancilla register, edge by edge.

    Each edge runs three compute-phase-uncompute blocks: a list of X/CX/CCX
    gates, one controlled phase of -gamma*w on vertex j's low bit, then the
    same list reversed, each of its gates being its own inverse.  The
    equal-pair block computes the XOR of the two bit pairs onto vertex j and
    flips it; each block of an aliased cross pair (2,3)/(3,2) computes the two
    pair predicates onto the ancillas.  Together they reproduce the diagonal
    evolution up to one global phase per edge.  Ancillas must enter in |0>
    and are restored after every block.
    """
    if state.size != 4**g.n * 4:
        raise ValueError(f"state length {state.size} does not match {2 * g.n} color qubits + 2 ancillas")
    anc0, anc1 = 2 * g.n, 2 * g.n + 1
    _color_block(state, 4**g.n, "at entry")
    for i, j, w in g.edges:
        qi0, qi1, qj0, qj1 = 2 * i + 1, 2 * i, 2 * j + 1, 2 * j
        # Per block, its compute gates as (controls, target) and its phase controls.  Equal bit pairs: after CX + X,
        # vertex j's pair is 11 iff the pairs matched.  Pairs (2, 3) then (3, 2): X on vertex i's, then vertex j's,
        # low bit makes that vertex's 10 readable as 11.
        blocks = [([((qi0,), qj0), ((qi1,), qj1), ((), qj0), ((), qj1)], (qj0,))]
        blocks += [([((), low), ((qi0, qi1), anc0), ((qj0, qj1), anc1)], (anc0, anc1)) for low in (qi1, qj1)]
        for gates, phase_controls in blocks:
            for controls, target in gates:
                apply_controlled_x(state, controls, target)
            apply_controlled_phase(state, phase_controls, qj1, -gamma * w)
            for controls, target in reversed(gates):
                apply_controlled_x(state, controls, target)
    return state


class _Plan:
    """The set-up and buffers (GATE's ancilla register too) that every run of inst repeats; see the module docstring."""

    def __init__(self, inst: QaoaInstance):
        self.inst, n = inst, inst.graph.n
        self.half = inst.backend is Backend.DIAGONAL
        # The cost over the register the plan runs, and the factor from its norm and <cost> sums to the full register's:
        # each half-register amplitude stands for two.
        self.cost, self.weight = inst.cost, 1.0
        if self.half:
            self.cost, self.weight = CostDiagonal(_half_view(inst.cost.values[None], n).reshape(-1), n), 2.0
            # Built now, so the level sort's temporaries are freed before any buffer exists.  The phases gather at
            # level + L * (popcount mod 4), the frame's factor's place: the plan takes the levels off its own half
            # cost, which keeps no index that is not a level index, and turns the level index into that one in place.
            self.levels, self.index = self.cost.levels
            del vars(self.cost)["levels"]
            counts = _popcounts(2 * n - 1)
            for k in (1, 2, 3):  # masked adds: no intp temporary beside the index
                np.add(self.index, k * self.levels.size, out=self.index, where=counts == k)
            # Per layer, the frame's factors of its phases: 2**-n * G on the first, G**2 on a later one.
            self.units = np.repeat(_FRAME_UNITS[1:, None, :, None], inst.depth, axis=0)
            self.units[0] = 2.0**-n * _FRAME_UNITS[0, None, :, None]
        else:
            self.counts = _popcounts(2 * n)  # GATE rows take the frame's factor per entry after each gate layer
        self.layout = _mixer_layout(n, self.half)
        self.state = self.scratch = np.empty((0, self.cost.values.size), dtype=complex)
        self.rows = max(1, STACK_AMPLITUDES // self.cost.values.size)
        self.views: dict[int, tuple] = {}  # per row count: the buffers' leading rows and each layer's _mix_passes
        # GATE's ancilla register, its ancillas in |00>, and the gamma of the first layer it holds, else None.
        self.register = None if self.half else np.zeros(4 * self.cost.values.size, dtype=complex)
        self.first_gamma = None

    @functools.cached_property
    def levels(self) -> np.ndarray:
        """The distinct cost levels, ascending: on DIAGONAL taken with the phase index, on GATE, whose circuits keep no
        per-entry level index, sorted from the values on first use."""
        return np.unique(self.cost.values)

    def run(self, thetas: np.ndarray) -> tuple[np.ndarray, list[float]]:
        """The p layers and _measure on one register per row of (B, 2p) flat angles, B <= rows.

        Returns the rows, a view of a plan buffer until the next run, and each row's <inst.cost>.
        """
        p = self.inst.depth
        if thetas.ndim != 2 or thetas.shape[1] != 2 * p:
            raise ValueError(f"angle array shape {thetas.shape} does not match (B, {2 * p})")
        count = len(thetas)
        if len(self.state) < count:
            self.state, self.scratch = (np.empty((count, self.state.shape[1]), dtype=complex) for _ in range(2))
            self.views = {}  # views into the old buffers would keep them alive
        if count not in self.views:
            pair = self.state[:count], self.scratch[:count]
            cycle = _mix_passes(*pair, self.layout), _mix_passes(*pair[::-1], self.layout)
            swaps = sum(q > 0 for q, _, _ in self.layout)  # layer l starts where l mixers' block passes end
            self.views[count] = pair, [cycle[layer * swaps % 2] for layer in range(p)]
        (state, scratch), passes = self.views[count]
        tables = _layer_phases(self, thetas[:, :p].T[..., None])
        blocks = _mixer_blocks(thetas[:, p:].T[..., None], self.layout)
        for layer, (phases, layer_passes, *matrices) in enumerate(zip(tables, passes, *blocks)):
            _phase_layer(self, state, phases, scratch, uniform=not layer)
            state, scratch = _mix(state, scratch, matrices, layer_passes)
        return state, _measure(self, state, scratch)


def _full_states(inst: QaoaInstance, rows: np.ndarray) -> np.ndarray:
    """Plan rows as full registers: psi = G phi, in the plan's buffer, then GATE's padded with empty ancillas and
    DIAGONAL's expanded by psi(z XOR F) = psi(z)."""
    n = inst.graph.n
    _frame(rows, int(rows.shape[1]).bit_length() - 1)  # psi = G phi, in the plan's buffer
    full = np.zeros((len(rows), 1 << _register_qubits(n, inst.backend)), dtype=complex)
    if inst.backend is Backend.GATE:
        full[:, : 4**n] = rows
        return full
    y_first, shape = rows.reshape(len(rows), 1 << n - 1, -1), (len(rows),) + (2,) * (2 * n - 1)
    _half_view(full, n, 0)[...] = y_first.reshape(shape)
    _half_view(full, n, 1)[...] = y_first[:, ::-1].reshape(shape)
    return full


def run_qaoa(inst: QaoaInstance, theta: ParameterVector) -> np.ndarray:
    """Apply depth layers of phase separator then mixer to the initial state, through a plan of its own."""
    if theta.p != inst.depth:
        raise ValueError(f"parameter depth {theta.p} does not match instance depth {inst.depth}")
    rows, _ = _Plan(inst).run(theta.to_flat()[None])  # the plan's other buffer and half cost go with it here
    (state,) = _full_states(inst, rows)
    return state


def _layer_phases(plan: _Plan, gammas: np.ndarray):
    """Per layer of (p, B, 1) gammas, what _phase_layer takes: GATE's (B, 1) column, or DIAGONAL's (B, 4L) table of
    the phases P = exp(-0.5j * gamma * level) of the L cost levels times the frame's factors, at level + L * k:
    2**-n * P * (-i)**k on the first layer, P * (-1)**k on a later one.  The phases of as many layers as one stack
    buffer holds, rows * D // 4BL, take one exp, so that tables stay within it while 4BL <= rows * D (integer weights
    give few levels: 47 at n=8)."""
    if not plan.half:
        yield from gammas
        return
    levels = plan.levels
    per_exp = max(1, plan.rows * plan.cost.values.size // (gammas.shape[1] * 4 * levels.size))
    for start in range(0, len(gammas), per_exp):
        table = -0.5j * gammas[start : start + per_exp] * levels
        np.exp(table, out=table)
        factored = table[:, :, None] * plan.units[start : start + per_exp]
        yield from factored.reshape(*table.shape[:2], -1)


def _phase_layer(plan: _Plan, rows: np.ndarray, phases: np.ndarray, out, uniform: bool = False) -> None:
    """One phase layer on a (B, D) stack in place, in the frame, given its _layer_phases entry: DIAGONAL gathers into
    out, GATE runs each row on plan.register, or reuses it for the first-layer gamma it holds, and copies it off times
    G or G**2 per entry, gathered into out's first row.  uniform=True starts from the uniform state, into which
    DIAGONAL gathers its first-layer table directly."""
    n = plan.inst.graph.n
    if plan.half:
        if uniform:
            phases.take(plan.index, axis=-1, out=rows, mode="clip")
        else:
            rows *= phases.take(plan.index, axis=-1, out=out, mode="clip")
        return
    color, units = plan.register[: 4**n], out[0]
    np.take(_FRAME_UNITS[0 if uniform else 1], plan.counts, out=units, mode="clip")  # G or G**2 per entry
    for row, (gamma,) in zip(rows, phases.tolist()):
        if not (uniform and gamma == plan.first_gamma):
            plan.first_gamma, color[...] = None, 2.0**-n if uniform else row  # None until the layer passes its check
            _color_block(apply_phase_gate_level(plan.register, plan.inst.graph, gamma), 4**n, "after the phase layer")
            plan.first_gamma = gamma if uniform else None
        np.multiply(color, units, out=row)


def _measure(plan: _Plan, rows: np.ndarray, scratch: np.ndarray) -> list[float]:
    """Raise unless every row of a (B, D) stack of plan's register kept unit norm (NaN fails too); then each row's own
    <cost>.  plan.weight scales both sums to the full register's.  No row holds ancillas: _phase_layer checks them."""
    cost, weight = plan.cost, plan.weight
    probs = np.abs(rows, out=scratch.view(float)[:, : rows.shape[1]])
    for norm in np.sqrt(weight * np.add.reduce(np.square(probs, out=probs), axis=1)).tolist():
        if not abs(norm - 1.0) <= NORM_TOL:
            raise RuntimeError(f"statevector norm drifted to {norm}")
    return [weight * float(row @ cost.values) for row in probs]


def energy_grid(inst: QaoaInstance, gammas: Sequence[float], betas: Sequence[float]) -> np.ndarray:
    """Depth-1 energies over a grid: entry (i, j) is <cost> after gamma_i then beta_j, a one-row plan run's bit for bit.

    One _energies call over the gamma-major cells, so a GATE plan runs one gate layer per gamma.
    """
    if inst.depth != 1:
        raise ValueError(f"energy_grid evaluates depth-1 circuits, got depth {inst.depth}")
    gammas, betas = (np.asarray(x, dtype=float) for x in (gammas, betas))
    if gammas.ndim != 1 or betas.ndim != 1:
        raise ValueError("gammas and betas must be 1-D")
    cells = np.stack(np.meshgrid(gammas, betas, indexing="ij"), axis=-1).reshape(-1, 2)
    return _energies(_Plan(inst), cells).reshape(gammas.size, betas.size)


def _energies(plan: _Plan, thetas: np.ndarray) -> np.ndarray:
    """Energies of the rows of a (B, 2p) array of flat angle vectors, gammas then betas, through plan.

    Runs stacks of at most plan.rows registers; entry b is a one-row run's, bit for bit, and
    expectation(run_qaoa(plan.inst, ParameterVector.from_flat(thetas[b])), plan.inst.cost) up to rounding.
    """
    thetas = np.asarray(thetas, dtype=float)
    energies = np.empty(len(thetas))
    for start in range(0, len(thetas), plan.rows):
        energies[start : start + plan.rows] = plan.run(thetas[start : start + plan.rows])[1]
    return energies


def expectation(state: np.ndarray, cost: CostDiagonal) -> float:
    """<cost> in the current state; ancillas, if present, are checked to be in |00>, not traced out."""
    return float(np.abs(_color_block(state, cost.values.size, "at measurement")) ** 2 @ cost.values)


def check_shots(shots: int) -> None:
    """Raise unless shots is an integer >= 1."""
    if not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")


def sample_counts(
    state: np.ndarray, shots: int, rng: np.random.Generator, color_dim: int | None = None
) -> dict[int, int]:
    """Multinomial draw of measurement outcomes, ancillas checked to be in |00> and stripped.

    Returns {basis index: count} for outcomes with nonzero count, in
    ascending index order.  Deterministic for a fixed generator state.
    """
    check_shots(shots)
    probs = np.abs(_color_block(state, state.size if color_dim is None else color_dim, "at measurement")) ** 2
    probs = probs / probs.sum()
    counts = rng.multinomial(shots, probs)
    nonzero = np.nonzero(counts)[0]
    return {int(z): int(counts[z]) for z in nonzero}
