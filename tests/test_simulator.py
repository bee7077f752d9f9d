import itertools
import math
import re
import resource
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from ttqaoa import cli, simulator
from ttqaoa.graph import Graph, cut_value, load_graph, parse_edge_list, random_complete_graph, total_weight
from ttqaoa.protes import trace_to_csv
from ttqaoa.qaoa_model import (
    TWO_PI,
    CostDiagonal,
    build_cost_diagonal,
    check_gamma_period,
    cut_from_energy,
    decode_bitstring,
    interaction_table,
)
from ttqaoa.simulator import (
    Backend,
    ParameterVector,
    _energies,
    _Plan,
    apply_controlled_phase,
    apply_controlled_x,
    apply_mixer,
    apply_phase_diagonal,
    apply_phase_gate_level,
    energy_grid,
    expectation,
    make_instance,
    prepare_initial,
    run_qaoa,
    sample_counts,
)

G4 = parse_edge_list("4 5\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1")
EDGE = parse_edge_list("2 1\n0 1 1")
K3 = parse_edge_list("3 3\n0 1 1\n0 2 1\n1 2 1")
GRAPHS = Path(__file__).resolve().parents[1] / "graphs"
UNITS = (1, -1j, -1, 1j)  # (-i)**k


def popcounts(size):
    return np.array([bin(z).count("1") for z in range(size)])


def frame(state, qubits):
    """psi = G phi: entry z of the last axis times (-i)**popcount(z mod 2**qubits), from the frame's definition, as
    the plans apply it: first the factor of z's high qubits, then that of its low qubits (half of them, rounded
    down), so that the signs of zeros match too."""
    low = qubits // 2
    z = np.arange(state.shape[-1]) % (1 << qubits)
    high_units, low_units = (np.array(UNITS)[popcounts(1 << bits)[part] % 4] for bits, part in
                             ((qubits - low, z >> low), (low, z % (1 << low))))
    return state * high_units * low_units


def basis(q, z):
    state = np.zeros(1 << q, dtype=complex)
    state[z] = 1.0
    return state


# Reference gates: the earlier reshape X and index-array/boolean-mask
# CX, CCX and controlled phase, kept to check the strided-view gates against.
def ref_x(state, qubit):
    psi = state.reshape(-1, 2, 1 << qubit)
    tmp = psi[:, 0, :].copy()
    psi[:, 0, :] = psi[:, 1, :]
    psi[:, 1, :] = tmp
    return state


def ref_cx(state, control, target):
    idx = np.arange(state.size)
    sel = idx[((idx >> control) & 1 == 1) & ((idx >> target) & 1 == 0)]
    flipped = sel | (1 << target)
    tmp = state[sel].copy()
    state[sel] = state[flipped]
    state[flipped] = tmp
    return state


def ref_ccx(state, control_a, control_b, target):
    idx = np.arange(state.size)
    sel = idx[
        ((idx >> control_a) & 1 == 1)
        & ((idx >> control_b) & 1 == 1)
        & ((idx >> target) & 1 == 0)
    ]
    flipped = sel | (1 << target)
    tmp = state[sel].copy()
    state[sel] = state[flipped]
    state[flipped] = tmp
    return state


def ref_controlled_phase(state, controls, target, phi):
    idx = np.arange(state.size)
    mask = (idx >> target) & 1 == 1
    for c in controls:
        mask &= (idx >> c) & 1 == 1
    state[mask] *= np.exp(1j * phi)
    return state


def ref_controlled_x(state, controls, target):
    return (ref_x, ref_cx, ref_ccx)[len(controls)](state, *controls, target)


def ref_rx(state, qubit, theta):
    """Rotation exp(-i*theta*X/2) on one qubit: the gate-by-gate reference for the mixer."""
    c, s = math.cos(theta / 2), -1j * math.sin(theta / 2)
    psi = state.reshape(-1, 2, 1 << qubit)
    psi[...] = np.array([[c, s], [s, c]]) @ psi
    return state


def written_out_gate_layer(state, g, gamma):
    """The gate-level phase separator as its 23 gates per edge, one by one on the reference gates."""
    anc0, anc1 = 2 * g.n, 2 * g.n + 1
    for i, j, w in g.edges:
        qi0, qi1, qj0, qj1 = 2 * i + 1, 2 * i, 2 * j + 1, 2 * j
        phi = -gamma * w
        ref_cx(state, qi0, qj0)
        ref_cx(state, qi1, qj1)
        ref_x(state, qj0)
        ref_x(state, qj1)
        ref_controlled_phase(state, [qj0], qj1, phi)
        ref_x(state, qj1)
        ref_x(state, qj0)
        ref_cx(state, qi1, qj1)
        ref_cx(state, qi0, qj0)
        ref_x(state, qi1)
        ref_ccx(state, qi0, qi1, anc0)
        ref_ccx(state, qj0, qj1, anc1)
        ref_controlled_phase(state, [anc0, anc1], qj1, phi)
        ref_ccx(state, qj0, qj1, anc1)
        ref_ccx(state, qi0, qi1, anc0)
        ref_x(state, qi1)
        ref_x(state, qj1)
        ref_ccx(state, qi0, qi1, anc0)
        ref_ccx(state, qj0, qj1, anc1)
        ref_controlled_phase(state, [anc0, anc1], qj1, phi)
        ref_ccx(state, qj0, qj1, anc1)
        ref_ccx(state, qi0, qi1, anc0)
        ref_x(state, qj1)
    return state


def test_parameter_vector():
    theta = ParameterVector((0.1, 0.2), (0.3, 0.4))
    assert theta.p == 2
    assert np.array_equal(theta.to_flat(), [0.1, 0.2, 0.3, 0.4])
    assert ParameterVector.from_flat([0.1, 0.2, 0.3, 0.4]) == theta
    with pytest.raises(ValueError):
        ParameterVector((0.1,), (0.2, 0.3))
    with pytest.raises(ValueError):
        ParameterVector((), ())
    with pytest.raises(ValueError):
        ParameterVector.from_flat([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        ParameterVector.from_flat([])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ParameterVector((0.1, bad), (0.3, 0.4))
        with pytest.raises(ValueError, match="finite"):
            ParameterVector.from_flat([0.1, 0.2, bad, 0.4])


def test_make_instance_depth_guard():
    with pytest.raises(ValueError):
        make_instance(G4, 0)


def test_prepare_initial_amplitudes():
    state = prepare_initial(1)
    assert np.allclose(state, np.full(4, 0.5))
    state = prepare_initial(2)
    assert np.allclose(state, np.full(16, 0.25))
    gate = prepare_initial(1, Backend.GATE)
    assert gate.size == 16
    assert np.allclose(gate[:4], 0.5)
    assert np.allclose(gate[4:], 0.0)
    with pytest.raises(ValueError):
        prepare_initial(0)


def test_qubit_limit_guard():
    # 2*12 color qubits plus 2 ancillas exceed the dense limit.
    with pytest.raises(ValueError):
        prepare_initial(12, Backend.GATE)


def test_make_instance_checks_qubit_limit_before_cost_diagonal():
    # The 4**12-entry cost diagonal fits the limit, the 26-qubit gate register
    # does not: make_instance must refuse before building the diagonal.
    with pytest.raises(ValueError):
        make_instance(Graph(12, ((0, 1, 1.0),)), 1, Backend.GATE)


def test_gate_primitives_truth_tables():
    assert np.allclose(apply_controlled_x(basis(2, 0), (), 0), basis(2, 1))
    assert np.allclose(apply_controlled_x(basis(2, 0b10), (), 1), basis(2, 0))
    assert np.allclose(apply_controlled_x(basis(2, 0b01), (0,), 1), basis(2, 0b11))
    assert np.allclose(apply_controlled_x(basis(2, 0b10), (0,), 1), basis(2, 0b10))
    assert np.allclose(apply_controlled_x(basis(3, 0b011), (0, 1), 2), basis(3, 0b111))
    assert np.allclose(apply_controlled_x(basis(3, 0b001), (0, 1), 2), basis(3, 0b001))


def test_gate_primitives_match_reference():
    rng = np.random.default_rng(41)
    for q in range(1, 11):
        # Up to 4 qubits every order runs, so the least and the most
        # significant qubit take every role, and gates that use all q qubits
        # fix every qubit (X at q=1, CX at q=2, CCX at q=3, a 3-control phase
        # at q=4).  Larger registers take the two sorted orders and random ones.
        if q <= 4:
            orders = [list(order) for order in itertools.permutations(range(q))]
        else:
            orders = [list(range(q)), list(range(q - 1, -1, -1))]
            orders += [rng.permutation(q).tolist() for _ in range(6)]
        for order in orders:
            state = rng.standard_normal(1 << q) + 1j * rng.standard_normal(1 << q)
            cases = []
            for c in range(min(2, q - 1) + 1):
                cases.append((apply_controlled_x, ref_controlled_x, (order[:c], order[c])))
            for c in range(min(3, q - 1) + 1):
                phi = float(rng.uniform(-math.pi, math.pi))
                cases.append((apply_controlled_phase, ref_controlled_phase, (order[:c], order[c], phi)))
            for gate, ref, args in cases:
                out = state.copy()
                assert gate(out, *args) is out
                assert np.array_equal(out, ref(state.copy(), *args)), (gate.__name__, q, args)


def test_rx_rotation():
    state = ref_rx(basis(1, 0), 0, math.pi)
    assert np.allclose(state, [0.0, -1j])
    state = ref_rx(basis(1, 0), 0, math.pi / 2)
    assert np.allclose(state, [1 / math.sqrt(2), -1j / math.sqrt(2)])


def test_controlled_phase_flips_only_all_ones():
    state = np.ones(8, dtype=complex) / math.sqrt(8)
    apply_controlled_phase(state, [0, 1], 2, math.pi)
    expected = np.ones(8) / math.sqrt(8)
    expected[0b111] *= -1
    assert np.allclose(state, expected)


def test_gate_index_errors():
    with pytest.raises(ValueError):
        apply_controlled_x(basis(2, 0), (), 2)
    with pytest.raises(ValueError):
        apply_controlled_x(basis(2, 0), (0,), 0)
    with pytest.raises(ValueError):
        apply_controlled_phase(basis(2, 0), [0], 5, 1.0)
    # A repeated qubit must not merge silently into one fixed bit.
    with pytest.raises(ValueError):
        apply_controlled_x(basis(3, 0), (0, 0), 1)
    with pytest.raises(ValueError):
        apply_controlled_phase(basis(2, 0), [1], 1, 1.0)
    with pytest.raises(ValueError, match="not a power of two"):
        apply_controlled_x(np.ones(3, dtype=complex), (), 0)


def test_mixer_identity_cases():
    uniform = prepare_initial(2)
    assert np.allclose(apply_mixer(uniform.copy(), 0.0, 2), uniform)
    # exp(-i*pi*X) = -I per qubit, so an even qubit count gives the identity.
    assert np.allclose(apply_mixer(uniform.copy(), math.pi, 2), uniform)


def test_mixer_matches_kron_oracle():
    rng = np.random.default_rng(3)
    beta = 0.37
    c, s = math.cos(beta), math.sin(beta)
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    # kron puts its right factor on the least significant qubit.
    full = reduce(np.kron, [rx] * 4)
    state = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state /= np.linalg.norm(state)
    assert np.allclose(apply_mixer(state.copy(), beta, 2), full @ state, atol=1e-12)


def mix(rows, betas, n, half=False):
    """The plans' mixer kernel on a (B, D) stack with (B, 1) betas, between the stack and a fresh buffer: the full
    register's layout, or with half=True the color-swap half register's."""
    layout, scratch = simulator._mixer_layout(n, half), np.empty_like(rows)
    passes = simulator._mix_passes(rows, scratch, layout)
    mixed, _ = simulator._mix(rows, scratch, simulator._mixer_blocks(betas, layout), passes)
    return mixed


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("rows", [1, 3])
def test_mixer_stack_rows_match_one_row_calls(rows, backend):
    rng = np.random.default_rng(rows)
    # n <= 2 mixes narrow blocks, where only the BLAS path gives a lone row's bits; n=8's half register is the
    # benchmark's, and its six passes the narrowest layout.
    for n in range(1, 9):
        size = len(prepare_initial(n, backend))
        stack = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
        betas = rng.uniform(-4.0, 4.0, (rows, 1))
        expected = np.concatenate([mix(row[None].copy(), beta[None], n) for row, beta in zip(stack, betas)])
        assert np.array_equal(mix(stack.copy(), betas, n), expected)
        # apply_mixer is the one-row kernel between the frame's factors on a single statevector: RX = G R G.
        for row, beta in zip(stack, betas):
            want = frame(mix(frame(row, 2 * n)[None], beta[None], n)[0], 2 * n)
            assert np.array_equal(apply_mixer(row.copy(), beta[0], n), want)
    if backend is Backend.DIAGONAL:
        # The half register folds the color swap into its first block for even n <= 4, and runs it as a pass of its
        # own for odd n (kappa = +-i) and from n=6.
        for n in range(1, 9):
            stack = rng.standard_normal((rows, 2 ** (2 * n - 1))) + 1j * rng.standard_normal((rows, 2 ** (2 * n - 1)))
            betas = rng.uniform(-4.0, 4.0, (rows, 1))
            expected = [mix(row[None].copy(), beta[None], n, half=True)[0] for row, beta in zip(stack, betas)]
            assert np.array_equal(mix(stack.copy(), betas, n, half=True), expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_mixer_matches_rx_reference(n):
    # Odd n ends on a one-vertex (two-qubit) block.
    rng = np.random.default_rng(100 + n)
    state = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    state /= np.linalg.norm(state)
    for beta in rng.uniform(-4.0, 4.0, 3):
        expected = state.copy()
        for qubit in range(2 * n):
            ref_rx(expected, qubit, 2.0 * beta)
        assert np.max(np.abs(apply_mixer(state.copy(), beta, n) - expected)) < 1e-13


def test_mixer_keeps_zero_ancilla_blocks_exactly_zero():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        state = prepare_initial(n, Backend.GATE)
        state[: 4**n] = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
        apply_mixer(state, 0.83, n)
        assert not np.any(state[4**n :])


def reference_mixer_block(betas, kind):
    """One mixer kind from the per-beta Python terms, entry by entry from its definition: the bit-for-bit reference
    for _mixer_blocks.  (q, -1, 0) is R on q qubits: entry (j, k) is c ** (q - h) * s ** h * (-1) ** popcount(j & k),
    h = Hamming(j, k).  (q, m, tail) with m >= 0 folds in the color swap, at width w = q + 1: with k' = k with its top
    m qubits (y) complemented, entry (j, k) adds c ** (w - h') * s ** h' times kappa = (-i) ** (1 - m), y's parity in
    k' and (-1) ** popcount(j & k'), h' = 1 + Hamming(j, k').  tail = 1 puts the re/im bit below, times the 2x2
    identity.  (0, m, 0) is the swap's cos, then kappa * (-1) ** popcount(y) * sin per y, as complex numbers."""
    q, m, tail = kind
    kappa = UNITS[(1 - m) % 4]
    if q == 0:
        terms = []
        for b in betas.flat:
            c, s = math.cos(b), math.sin(b)
            swap = [(-1) ** bin(y).count("1") * (kappa.real + kappa.imag) * s for y in range(1 << m)]
            terms.append([complex(c, 0.0)] + [complex(0.0, x) if kappa.imag else complex(x, 0.0) for x in swap])
        return np.array(terms).reshape(*betas.shape[:-1], 1 + (1 << m), 1)
    width, popcount = q + (m >= 0), lambda x: bin(x).count("1")

    def paths(j, k):  # (h, sign) of each term of entry (j, k) of the q-qubit block
        terms = [(popcount(j ^ k), (-1) ** popcount(j & k))]
        if m >= 0:
            swapped = k ^ ((1 << m) - 1) << (q - m)
            sign = kappa.real * (-1) ** popcount(swapped >> (q - m)) * (-1) ** popcount(j & swapped)
            terms.append((1 + popcount(j ^ swapped), sign))
        return terms

    size = 1 << q + tail
    entries = [[None if (j ^ k) & tail else paths(j >> tail, k >> tail) for k in range(size)] for j in range(size)]
    blocks = []
    for b in betas.flat:
        c, s = math.cos(b), math.sin(b)
        t = [c ** (width - h) * s ** h for h in range(width + 1)]
        block = [[0.0] * size for _ in range(size)]
        for j, row in enumerate(entries):
            for k, e in enumerate(row):
                if e is not None:
                    block[j][k] = t[e[0][0]] * e[0][1] if len(e) == 1 else t[e[0][0]] * e[0][1] + t[e[1][0]] * e[1][1]
        blocks.append(block)
    return np.array(blocks).reshape(*betas.shape, size, size)


def reference_mixer_blocks(betas, layout):
    """The per-kind list that _mixer_blocks returns, from the Python terms, in the layout's first-use order."""
    return [reference_mixer_block(betas, kind) for kind in dict.fromkeys(layout)]


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_vectorized_mixer_blocks_equal_python_terms_bit_for_bit(q):
    # np.power's SIMD float64 loop can differ from Python's ** in the last bit, where np.float_power
    # calls the same libm pow: a numpy or CPU change that moves these bits moves every report.
    rng = np.random.default_rng(50 + q)
    grid = TWO_PI * np.arange(100) / 100
    betas = np.concatenate([rng.uniform(-10.0, 10.0, 100_000), grid, [0.0, math.pi, -math.pi]])
    for start in range(0, betas.size, 4096):
        chunk = betas[start : start + 4096]
        (blocks,) = simulator._mixer_blocks(chunk, [(q, -1, 0)])
        assert np.array_equal(blocks.view(np.uint64), reference_mixer_block(chunk, (q, -1, 0)).view(np.uint64))
    # The plan builds all layers at once from a transposed (p, B, 1) view of the angle array.
    stack = betas[:96].reshape(24, 4).T[..., None]
    (blocks,) = simulator._mixer_blocks(stack, [(q, -1, 0)])
    assert np.array_equal(blocks.view(np.uint64), reference_mixer_block(stack, (q, -1, 0)).view(np.uint64))


def layout_blocks_equal_python_terms(n, half):
    rng = np.random.default_rng(60 + n + 20 * half)
    betas = np.concatenate([rng.uniform(-10.0, 10.0, 397), [0.0, math.pi, -math.pi]])
    stack = betas.reshape(100, 4).T[..., None]
    layout = simulator._mixer_layout(n, half)
    for got, want in zip(simulator._mixer_blocks(stack, layout), reference_mixer_blocks(stack, layout), strict=True):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 13))
def test_half_register_mixer_blocks_equal_python_terms_bit_for_bit(n):
    # The folded first blocks of n = 2 and 4, the swap terms of the others (kappa = +-i for odd n), and the last
    # block's re/im bit, on the plan's (p, B, 1) angle view.
    layout_blocks_equal_python_terms(n, half=True)


@pytest.mark.parametrize("n", range(1, 13))
def test_full_register_mixer_blocks_equal_python_terms_bit_for_bit(n):
    # Every block width of the full register's layouts, and the last block's re/im bit.
    layout_blocks_equal_python_terms(n, half=False)


def test_mixer_refuses_stacks_and_non_scalar_betas():
    # Without the guard, a (B, D) stack would be mixed silently, every row by the one beta.
    for shape, beta in (((3, 16), [0.1, 0.2, 0.3]), ((3, 16), 0.1), ((1, 16), 0.1), ((16,), [0.1]), ((16,), [[0.1]])):
        with pytest.raises(ValueError, match=re.escape(f"scalar beta expected, got {shape}, {np.shape(beta)}")):
            apply_mixer(np.zeros(shape, dtype=complex), beta, 2)
    state = prepare_initial(2)
    assert np.array_equal(apply_mixer(state.copy(), np.float64(0.4), 2), apply_mixer(state.copy(), np.array(0.4), 2))


def test_energy_grid_shape_and_guards():
    inst = make_instance(G4, 1)
    gammas, betas = [0.3, 1.1], [0.0, 0.4, 2.5]
    grid = energy_grid(inst, gammas, betas)
    assert grid.shape == (2, 3)
    for (i, gamma), (j, beta) in itertools.product(enumerate(gammas), enumerate(betas)):
        # Each cell is a one-row plan run's bits, and the full register's energy to 1e-13.
        assert grid[i, j] == _energies(_Plan(inst), [[gamma, beta]])[0]
        assert abs(grid[i, j] - expectation(run_qaoa(inst, ParameterVector((gamma,), (beta,))), inst.cost)) < 1e-13
    assert energy_grid(inst, gammas, []).shape == (2, 0)
    with pytest.raises(ValueError):
        energy_grid(make_instance(G4, 2), gammas, betas)
    with pytest.raises(ValueError):
        energy_grid(inst, [[0.3]], betas)


@pytest.mark.parametrize(
    "graph, backend, betas, shapes",
    [
        # DIAGONAL rows are the 2**(2n-1)-amplitude half register: 64 rows of G4's 128, 4 of n=6's 2,048.
        (G4, Backend.DIAGONAL, 80, [(64, 128), (16, 128)]),
        (random_complete_graph(5, 2), Backend.GATE, 40, [(8, 1024)] * 5),
        (random_complete_graph(6, 3), Backend.DIAGONAL, 42, [(4, 2048)] * 10 + [(2, 2048)]),
    ],
    ids=["g4-diagonal", "n5-gate", "n6-diagonal"],
)
def test_energy_grid_caps_rows_per_mixer_call(monkeypatch, graph, backend, betas, shapes):
    # The grid mixes through the plan's _mix kernel: record the (rows, D) stack it mixes.
    real_mix = simulator._mix
    seen = []

    def recording_mix(state, scratch, matrices, passes):
        seen.append(state.shape)
        return real_mix(state, scratch, matrices, passes)

    monkeypatch.setattr(simulator, "_mix", recording_mix)
    energy_grid(make_instance(graph, 1, backend), [0.4], np.linspace(0.0, 3.0, betas))
    assert seen == shapes


def analytic_depth1_energy(graph, gamma, beta):
    """<cost> after one phase layer and one mixer, edge by edge with no statevector: a third construction, shared
    with neither backend.  Conjugating an edge's 16-entry interaction by RX on its two vertices' four qubits gives a
    16x16 matrix O; every other vertex k contributes, per pair (a, b) of the edge's codes, the mean over k's 4 codes
    of its phase factor, and the edge's energy is w/16 Re sum_ab O[a, b] times the edge's own phase and those means."""
    rx = np.array([[math.cos(beta), -1j * math.sin(beta)], [-1j * math.sin(beta), math.cos(beta)]])
    rx4 = reduce(np.kron, [rx] * 4)  # index 4 * code_i + code_j, each code 2 * high + low
    table = interaction_table()
    code_i, code_j = np.divmod(np.arange(16), 4)
    weights = np.zeros((graph.n, graph.n))
    for i, j, w in graph.edges:
        weights[i, j] = weights[j, i] = w
    energy = 0.0
    for i, j, w in graph.edges:
        diag = table[code_i, code_j]
        terms = (rx4.conj().T @ (diag[:, None] * rx4)) * np.exp(0.5j * gamma * w * (diag[:, None] - diag[None, :]))
        for k in set(range(graph.n)) - {i, j}:
            # Bra code a, ket code b, k's code r: the phase difference of k's terms with i and j.
            rows_i, rows_j = table[code_i], table[code_j]
            diff = weights[i, k] * (rows_i[:, None, :] - rows_i[None, :, :])
            diff += weights[j, k] * (rows_j[:, None, :] - rows_j[None, :, :])
            terms *= np.exp(0.5j * gamma * diff).mean(axis=-1)
        energy += w * float(np.sum(terms).real) / 16
    return energy


def fractional_graph(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5] or [(0, 1)]
    return Graph(n, tuple((i, j, float(rng.uniform(0.2, 2.5))) for i, j in pairs))


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize(
    "graph",
    [G4, load_graph(str(GRAPHS / "k5_weighted.edgelist")), fractional_graph(6, 1), fractional_graph(8, 2)],
    ids=["g4", "k5-weighted", "fractional-n6", "fractional-n8"],
)
def test_energy_grid_matches_the_analytic_depth1_energy(graph, backend):
    # Two gammas at n=8, whose GATE phase layer is the slow part.
    gammas, betas = [0.37, 2.9, 5.1][: 3 if graph.n < 8 else 2], [0.0, 0.81, 2.2]
    grid = energy_grid(make_instance(graph, 1, backend), gammas, betas)
    for (i, gamma), (j, beta) in itertools.product(enumerate(gammas), enumerate(betas)):
        assert abs(grid[i, j] - analytic_depth1_energy(graph, gamma, beta)) < 1e-12


def test_energy_grid_checks_every_row_norm(monkeypatch):
    real_mix = simulator._mix

    def leaky_mix(state, scratch, matrices, passes):
        mixed, free = real_mix(state, scratch, matrices, passes)
        mixed[-1] *= 1.001
        return mixed, free

    monkeypatch.setattr(simulator, "_mix", leaky_mix)
    with pytest.raises(RuntimeError, match="norm"):
        energy_grid(make_instance(G4, 1), [0.3], [0.1, 0.2, 0.3])


def test_energy_grid_rejects_ancilla_mass_before_dropping_it(monkeypatch):
    real_phase = simulator.apply_phase_gate_level

    def leaky_phase(state, g, gamma):
        real_phase(state, g, gamma)
        state[4**g.n + 5] = 1e-5
        return state

    monkeypatch.setattr(simulator, "apply_phase_gate_level", leaky_phase)
    with pytest.raises(ValueError, match="after the phase layer"):
        energy_grid(make_instance(G4, 1, Backend.GATE), [0.3], [0.1])


def test_gate_energy_grid_runs_one_gate_layer_per_gamma(monkeypatch):
    # n=5 stacks 8 gate rows: 20 betas per gamma straddle stacks, and each gamma's rows still share one gate layer,
    # copied from the plan's register into every later row with that first-layer gamma.
    inst = make_instance(random_complete_graph(5, 2), 1, Backend.GATE)
    gammas, betas = [0.4, 2.9, 5.1], np.linspace(0.0, 3.0, 20)
    real_phase, calls = simulator.apply_phase_gate_level, []

    def counting_phase(state, g, gamma):
        calls.append(gamma)
        return real_phase(state, g, gamma)

    monkeypatch.setattr(simulator, "apply_phase_gate_level", counting_phase)
    grid = energy_grid(inst, gammas, betas)
    assert calls == gammas
    monkeypatch.undo()
    for (i, gamma), (j, beta) in itertools.product(enumerate(gammas), enumerate(betas[::7])):
        assert grid[i, 7 * j] == _energies(_Plan(inst), [[gamma, beta]])[0]


def test_energy_grid_peaks_below_three_states():
    # The grid's plan at n=8: two one-row buffers of the half register, allocated after its half cost's levels are
    # built.  A fresh register per gamma beside a persistent scratch stack once read four states.
    inst = make_instance(random_complete_graph(8, 5), 1)
    state_bytes = 4**8 * 16
    tracemalloc.start()
    try:
        energy_grid(inst, [0.3, 1.2, 2.0], [0.4, 1.1, 2.9])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * state_bytes + inst.cost.levels[1].nbytes
    # The plan builds its own half cost's levels, so the instance's, built above, change nothing.
    tracemalloc.start()
    try:
        energy_grid(inst, [0.3, 1.2, 2.0], [0.4, 1.1, 2.9])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * state_bytes


def test_half_register_plans_keep_half_size_buffers():
    # At n=8 a DIAGONAL plan runs the 2**15-amplitude color-swap half register: its two buffers hold one such row
    # each, half a full state.  energy_grid runs a plan, whose buffers sit beside the half register's cost and level
    # index (1.52 states measured; 2.02 with a register and two row stacks of its own, 3.51 on the full register),
    # and the first run_qaoa frees its plan before it expands the state (1.52 states measured, 2.52 on the full
    # register).  A GATE plan's buffers hold the 4**n color amplitudes, its gate layers run on one ancilla register.
    plan = _Plan(make_instance(random_complete_graph(8, 5), 2))
    _energies(plan, np.full((3, 4), 0.7))
    assert plan.state.shape == plan.scratch.shape == (1, 2**15) and not np.shares_memory(plan.state, plan.scratch)
    gate = _Plan(make_instance(K3, 2, Backend.GATE))
    _energies(gate, np.full((3, 4), 0.7))
    assert gate.state.shape == gate.scratch.shape == (3, 4**3) and gate.register.shape == (4**4,)
    grid_inst, run_inst = make_instance(random_complete_graph(8, 5), 1), make_instance(random_complete_graph(8, 4), 2)
    for run, states in (
        (lambda: energy_grid(grid_inst, [0.3, 1.2, 2.0], [0.4, 1.1, 2.9]), 1.6),
        (lambda: run_qaoa(run_inst, ParameterVector((0.4, 1.3), (0.9, 0.2))), 1.6),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < states * 4**8 * 16


def test_phase_diagonal_values():
    cost = build_cost_diagonal(EDGE)
    uniform = prepare_initial(2)
    assert np.allclose(apply_phase_diagonal(uniform.copy(), cost, 0.0), uniform)
    gamma = 0.9
    state = apply_phase_diagonal(uniform.copy(), cost, gamma)
    # z = 0 is a same-color state with cost +1.
    assert np.allclose(state[0], 0.25 * np.exp(-0.5j * gamma))
    assert np.allclose(np.abs(state), 0.25)
    with pytest.raises(ValueError):
        apply_phase_diagonal(prepare_initial(1), cost, 1.0)


@pytest.mark.parametrize(
    "graph",
    [
        *(random_complete_graph(n, seed) for n, seed in ((2, 0), (3, 1), (5, 2), (7, 3))),
        parse_edge_list("3 3\n0 1 0.5\n1 2 1.3\n0 2 1.0"),
        parse_edge_list("3 0"),
    ],
    ids=["k2", "k3", "k5", "k7", "fractional-triangle", "edgeless"],
)
def test_phase_gather_equals_full_exp(graph):
    cost = build_cost_diagonal(graph)
    levels, inverse = cost.levels
    assert np.array_equal(levels[inverse], cost.values)
    assert np.all(np.diff(levels) > 0)
    rng = np.random.default_rng(graph.n)
    state = rng.standard_normal(4**graph.n) + 1j * rng.standard_normal(4**graph.n)
    for gamma in (0.0, 0.7, -2.9, 0.7 + 2 * math.pi):
        # Named, not inline: numpy may write `state * np.exp(...)` into the
        # exp temporary with its operands swapped, which can move a last bit.
        phases = np.exp(-0.5j * gamma * cost.values)
        assert np.array_equal(apply_phase_diagonal(state.copy(), cost, gamma), state * phases)


def test_phase_diagonal_stack_rows_match_one_row_calls():
    rng = np.random.default_rng(31)
    for graph in (G4, random_complete_graph(5, 1)):
        cost = build_cost_diagonal(graph)
        plan = _Plan(make_instance(graph, 2))
        size = plan.cost.values.size
        stack = rng.standard_normal((3, size)) + 1j * rng.standard_normal((3, size))
        gammas = rng.uniform(-4.0, 4.0, (3, 1))
        # One-row later phase layers (a p=2 plan's second) on the half register, gathering into an out buffer, as the
        # plan and energy_grid run them.
        expected = stack.copy()
        for row, g in zip(expected, gammas):
            _, phases = simulator._layer_phases(plan, np.stack([-g, g])[:, None])
            simulator._phase_layer(plan, row[None], phases, np.empty_like(row[None]))
        # The half gathers the full diagonal's phases times G**2 = (-1)**popcount over the half register's qubits: on
        # the expanded row, apply_phase_diagonal's values times those signs.
        signs = expand_half((-1.0) ** popcounts(size), graph.n)
        for row, g, want in zip(stack, gammas[:, 0], expected):
            full = expand_half(row, graph.n)
            assert np.array_equal(apply_phase_diagonal(full, cost, g) * signs, expand_half(want, graph.n))
        _, phases = simulator._layer_phases(plan, np.stack([-gammas, gammas]))
        simulator._phase_layer(plan, stack, phases, np.empty_like(stack))
        assert np.array_equal(stack, expected)


def test_phase_diagonal_refuses_stacks_and_non_scalar_gammas():
    cost = build_cost_diagonal(EDGE)
    # Without the guard, a (B, D) stack would be phased silently, by one gamma or a broadcast gamma column.
    cases = (((3, 16), np.zeros((3, 1))), ((3, 16), 0.1), ((1, 16), 0.1), ((16,), np.zeros(1)), ((4,), 0.1))
    for shape, gamma in cases:
        with pytest.raises(ValueError, match=re.escape(f"scalar gamma expected, got {shape}, {np.shape(gamma)}")):
            apply_phase_diagonal(np.zeros(shape, dtype=complex), cost, gamma)


def reference_run(inst, theta):
    """One 1-D circuit, layer by layer with scalar angles and ref_rx's gate-by-gate mixer: the independent reference
    for the stacked core."""
    state = prepare_initial(inst.graph.n, inst.backend)
    for gamma, beta in zip(theta.gammas, theta.betas):
        if inst.backend is Backend.DIAGONAL:
            apply_phase_diagonal(state, inst.cost, gamma)
        else:
            apply_phase_gate_level(state, inst.graph, gamma)
        for qubit in range(2 * inst.graph.n):
            ref_rx(state, qubit, 2.0 * beta)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-10
    return state


def half_index(n):
    """Per full-register basis index z, the half-register entry that holds psi(z), written out from the layout: z,
    or z XOR F when vertex 0's low bit is set, at y * 2**n + h, y the low bits of vertices n-1..1 and h the high
    bits of vertices n-1..0."""
    z = np.arange(4**n)
    z = np.where(z & 1, z ^ int("01" * n, 2), z)
    y = sum(((z >> 2 * k) & 1) << (k - 1) for k in range(1, n))
    h = sum(((z >> 2 * i + 1) & 1) << i for i in range(n))
    return y * 2**n + h


def expand_half(row, n):
    return row[half_index(n)]


def frame_units(layer, n):
    """A layer's factors (-i)**k of the frame, k = popcount mod 4: G times the uniform amplitude 2**-n on the first
    layer, G**2 = (-1)**k on a later one."""
    return np.array(UNITS) * 2.0**-n if not layer else np.array([1, -1, 1, -1], dtype=complex)


def half_reference_run(inst, theta):
    """One DIAGONAL circuit on the color-swap half register in the frame, layer by layer with scalar angles through
    the plans' kernels: the per-row reference for DIAGONAL plan rows.  Each layer gathers its phases P times
    frame_units at level + L * k.  Returns the frame's half row and its energy."""
    n = inst.graph.n
    half = CostDiagonal(inst.cost.values[np.argsort(half_index(n))[::2]], n)
    assert np.array_equal(half.values, simulator._half_view(inst.cost.values[None], n).reshape(-1))
    levels, index = half.levels
    index = index + levels.size * (popcounts(half.values.size) % 4)
    state = None
    for layer, (gamma, beta) in enumerate(zip(theta.gammas, theta.betas)):
        phases = np.exp(-0.5j * gamma * levels)
        gathered = (phases[None, :] * frame_units(layer, n)[:, None]).reshape(-1).take(index)
        state = mix((gathered if state is None else state * gathered)[None], np.full((1, 1), beta), n, half=True)[0]
    probs = np.abs(state) ** 2
    assert abs(math.sqrt(2.0 * probs.sum()) - 1.0) <= 1e-10
    return state, 2.0 * float(probs @ half.values)


def gate_reference_run(inst, theta):
    """One GATE circuit in the frame, layer by layer with scalar angles: each gate layer on a register of its own,
    its color block times frame_units per entry, then the plans' mixer kernel.  The per-row reference for GATE plan
    rows.  Returns the frame's color row and its energy."""
    n = inst.graph.n
    register, counts, row = prepare_initial(n, Backend.GATE), popcounts(4**n) % 4, None
    for layer, (gamma, beta) in enumerate(zip(theta.gammas, theta.betas)):
        if row is not None:
            register[: 4**n] = row
        apply_phase_gate_level(register, inst.graph, gamma)
        assert not np.any(register[4**n :])
        units = frame_units(layer, n) if layer else np.array(UNITS)
        row = mix((register[: 4**n] * units[counts])[None], np.full((1, 1), beta), n)[0]
    return row, float(np.abs(row) ** 2 @ inst.cost.values)


def reference_row(inst, theta):
    """What a plan row and its energy must equal bit for bit: gate_reference_run's or half_reference_run's, each
    checked, after the frame's G, against reference_run to 1e-13."""
    n, full = inst.graph.n, reference_run(inst, theta)
    if inst.backend is Backend.GATE:
        row, energy = gate_reference_run(inst, theta)
        assert np.max(np.abs(frame(row, 2 * n) - full[: 4**n])) < 1e-13
    else:
        row, energy = half_reference_run(inst, theta)
        assert np.max(np.abs(expand_half(frame(row, 2 * n - 1), n) - full)) < 1e-13
    assert abs(energy - expectation(full, inst.cost)) < 1e-13
    return row, energy


def assert_energies_match_reference(inst, thetas):
    n, expected = inst.graph.n, []
    for t in thetas:
        row, energy = reference_row(inst, ParameterVector.from_flat(t))
        # run_qaoa's state is the row times G, bit for bit.
        want = np.zeros(len(prepare_initial(n, inst.backend)), dtype=complex)
        if inst.backend is Backend.GATE:
            want[: 4**n] = frame(row, 2 * n)
        else:
            want = expand_half(frame(row, 2 * n - 1), n)
        assert np.array_equal(run_qaoa(inst, ParameterVector.from_flat(t)).view(np.uint64), want.view(np.uint64))
        expected.append(energy)
    assert _energies(_Plan(inst), thetas).tolist() == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_energies_equal_one_circuit_per_row(n):
    inst_graph = random_complete_graph(n, n)
    rng = np.random.default_rng(40 + n)
    for p in (1, 2, 3):
        inst = make_instance(inst_graph, p)
        # 64 and 65 straddle the n=4 row cap; n=6 runs four rows per stack.
        for count in (1, 5, 64, 65, 80):
            assert_energies_match_reference(inst, rng.uniform(0.0, 2 * math.pi, (count, 2 * p)))


@pytest.mark.parametrize("n", range(1, 9))
def test_half_register_runs_equal_the_full_register_reference(n):
    # n=1 has an empty y, n=4 the widest folded first block (16 wide), odd n a swap pass with kappa = +-i, and n=6
    # the first even n whose swap is a pass of its own.
    graphs = [random_complete_graph(n, 70 + n)]
    if n > 1:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)][: 2 * n]
        graphs.append(Graph(n, tuple((i, j, 0.5 + 0.37 * k) for k, (i, j) in enumerate(pairs))))
    rng = np.random.default_rng(80 + n)
    for graph in graphs:
        for p in (1, 2):
            inst = make_instance(graph, p)
            for t in rng.uniform(0.0, 2 * math.pi, (2, 2 * p)):
                theta = ParameterVector.from_flat(t)
                full = reference_run(inst, theta)
                assert np.max(np.abs(run_qaoa(inst, theta) - full)) < 1e-13
                assert abs(_energies(_Plan(inst), [t])[0] - expectation(full, inst.cost)) < 1e-13


@pytest.mark.parametrize(
    "backend, n", [(Backend.DIAGONAL, n) for n in range(1, 9)] + [(Backend.GATE, n) for n in range(1, 6)],
    ids=[f"diagonal-n{n}" for n in range(1, 9)] + [f"gate-n{n}" for n in range(1, 6)],
)
def test_plans_match_the_rx_reference_on_every_mixer_layout_kind(backend, n):
    # Every layout kind against ref_rx's gate-by-gate mixer: the full register (GATE), the half register with the
    # color swap folded into its first block (even n <= 4), as a pass with kappa = +-i (odd n), and as a pass of its
    # own because y is wider than a block (n >= 6).
    layout = simulator._mixer_layout(n, backend is Backend.DIAGONAL)
    if backend is Backend.GATE:
        assert all(m == -1 for _, m, _ in layout)
    elif n % 2 == 0 and n <= 4:
        assert layout[0][0] > 0 and layout[0][1] == n - 1
    else:
        assert layout[0] == (0, n - 1, 0)
    graph = random_complete_graph(n, 90 + n)
    rng = np.random.default_rng(110 + n)
    for p in (1, 2, 3):
        inst = make_instance(graph, p, backend)
        thetas = rng.uniform(0.0, 2 * math.pi, (3, 2 * p))
        for t, energy in zip(thetas, _energies(_Plan(inst), thetas)):
            theta = ParameterVector.from_flat(t)
            full = reference_run(inst, theta)
            assert np.max(np.abs(run_qaoa(inst, theta) - full)) < 1e-13
            assert abs(energy - expectation(full, inst.cost)) < 1e-13


@pytest.mark.parametrize(
    "graph", [G4, load_graph(str(GRAPHS / "k5_weighted.edgelist")), parse_edge_list("3 3\n0 1 0.5\n1 2 1.3\n0 2 1.0")],
    ids=["g4", "k5-weighted", "fractional-triangle"],
)
def test_gate_states_keep_the_color_swap_symmetry(graph):
    # Flipping every vertex's low bit (F) swaps colors 0 and 1 and keeps color 2, so it keeps the cost, and the
    # uniform start and the mixer commute with it: the GATE backend's full register shows psi(z) = psi(z XOR F).
    flip = np.arange(4**graph.n) ^ int("01" * graph.n, 2)
    rng = np.random.default_rng(90)
    for p in range(1, 5):
        inst = make_instance(graph, p, Backend.GATE)
        for t in rng.uniform(0.0, 2 * math.pi, (2, 2 * p)):
            color = run_qaoa(inst, ParameterVector.from_flat(t))[: 4**graph.n]
            assert np.max(np.abs(color - color[flip])) < 1e-13


@pytest.mark.parametrize("graph", [G4, random_complete_graph(4, 4)], ids=["g4", "k4-weighted"])
def test_refinement_circuit_equals_reference_bit_for_bit(graph):
    # A default solve runs p=4 at n=4: one row per refinement call and 20-row search stacks, on grid
    # angles (node 0 is angle 0) and off them; 64 and 65 rows straddle the row cap.
    inst = make_instance(graph, 4)
    rng = np.random.default_rng(49)
    plan = _Plan(inst)
    for count in (1, 20, 64, 65):
        for thetas in (rng.uniform(0.0, 2 * math.pi, (count, 8)), TWO_PI * rng.integers(0, 100, (count, 8)) / 100):
            assert_energies_match_reference(inst, thetas)
            rows, _ = plan.run(thetas[:64])
            for row, t in zip(rows, thetas):
                want, _ = half_reference_run(inst, ParameterVector.from_flat(t))
                assert np.array_equal(row.view(np.uint64), want.view(np.uint64))


def test_stacked_energies_gate_backend_equal_reference():
    rng = np.random.default_rng(47)
    # GATE rows hold the color register: K3's 64 amplitudes stack 128 rows, G4's 256 stack 32.
    for graph, counts in ((K3, (1, 5, 129)), (G4, (1, 5, 33))):
        for p in (1, 2, 3):
            inst = make_instance(graph, p, Backend.GATE)
            for count in counts:
                assert_energies_match_reference(inst, rng.uniform(0.0, 2 * math.pi, (count, 2 * p)))


def test_stacked_energies_reject_ancilla_mass_in_any_row(monkeypatch):
    # GATE rows run their gate layers on the plan's ancilla register, checked after every layer: a leak in the last
    # of three rows must still raise.  Their gammas differ, as rows that share a first-layer gamma share one layer.
    real_phase, calls = simulator.apply_phase_gate_level, []

    def leaky_phase(state, g, gamma):
        real_phase(state, g, gamma)
        calls.append(gamma)
        if len(calls) == 3:
            state[4**g.n + 5] = 1e-5
        return state

    monkeypatch.setattr(simulator, "apply_phase_gate_level", leaky_phase)
    with pytest.raises(ValueError, match="after the phase layer"):
        _energies(_Plan(make_instance(K3, 1, Backend.GATE)), [[0.3, 0.3], [0.5, 0.3], [0.7, 0.3]])
    assert len(calls) == 3


def test_nan_angles_fail_the_norm_check():
    with pytest.raises(RuntimeError, match="norm"):
        _energies(_Plan(make_instance(G4, 1)), [[0.1, math.nan]])
    with pytest.raises(RuntimeError, match="norm"):
        _energies(_Plan(make_instance(K3, 1, Backend.GATE)), [[0.2, 0.3], [math.nan, 0.3]])
    with pytest.raises(RuntimeError, match="norm"):
        energy_grid(make_instance(G4, 1), [0.3, math.nan], [0.1])


def test_stacked_energies_cap_rows_and_check_shape(monkeypatch):
    # The plan mixes through the private _mix kernel over its prebuilt passes, not apply_mixer: record the
    # (rows, D) stack it mixes.  DIAGONAL rows hold the half register: 128 amplitudes on G4, so 64 rows per stack.
    real_mix = simulator._mix
    seen = []

    def recording_mix(state, scratch, matrices, passes):
        seen.append(state.shape)
        return real_mix(state, scratch, matrices, passes)

    monkeypatch.setattr(simulator, "_mix", recording_mix)
    _energies(_Plan(make_instance(G4, 2)), np.zeros((65, 4)))
    assert seen == [(64, 128)] * 2 + [(1, 128)] * 2
    seen.clear()
    # n=7's half register is STACK_AMPLITUDES wide: one row per stack.
    _energies(_Plan(make_instance(random_complete_graph(7, 0), 1)), np.zeros((2, 2)))
    assert seen == [(1, 2**13)] * 2
    seen.clear()
    # GATE rows hold the color register, their ancillas only in the plan's register: 256 amplitudes on G4, so 32
    # rows per stack.
    _energies(_Plan(make_instance(G4, 2, Backend.GATE)), np.zeros((33, 4)))
    assert seen == [(32, 256)] * 2 + [(1, 256)] * 2
    for bad in (np.zeros((3, 3)), np.zeros(4), np.zeros((1, 2, 4))):
        with pytest.raises(ValueError):
            _energies(_Plan(make_instance(G4, 2)), bad)
    # The refinement objective runs the plan directly, which checks the angle count as well.
    for bad in (np.zeros(3), np.zeros(5)):
        with pytest.raises(ValueError, match=re.escape(f"angle array shape (1, {bad.size}) does not match (B, 4)")):
            cli._energy_objective(_Plan(make_instance(G4, 2)))(bad)


@pytest.mark.parametrize("p", [8, 9, 17])
def test_phase_table_chunks_equal_reference(p):
    # 2 cost levels and 32 half-register amplitudes, 256 rows a stack: a full stack exps the phases of
    # 256 * 32 // (256 * 4 * 2) = 4 layers at a time, so p = 8, 9 and 17 end on the second chunk boundary, one past
    # it, and one past the fourth; a lone row exps every layer at once.
    inst = make_instance(parse_edge_list("3 1\n0 1 0.7"), p)
    plan = _Plan(inst)
    assert (inst.cost.levels[0].size, inst.cost.values.size) == (2, 64)
    assert (plan.levels.size, plan.cost.values.size, plan.rows) == (2, 32, 256)
    rng = np.random.default_rng(70 + p)
    for count in (1, 256):
        assert_energies_match_reference(inst, rng.uniform(0.0, 2 * math.pi, (count, 2 * p)))


@pytest.mark.parametrize(
    "graph, backend",
    [(G4, Backend.DIAGONAL), (EDGE, Backend.DIAGONAL), (EDGE, Backend.GATE)],
    ids=["g4-diagonal", "edge-diagonal", "edge-gate"],
)
def test_plan_views_follow_buffer_growth(graph, backend):
    # A plan builds each row count's buffer views and mixer passes on its first run at that count, and drops
    # them when the buffers grow: every later run must mix in, and return rows of, the grown buffers.  G4
    # mixes in two passes per layer, the one-edge graph in one, so its layers alternate the buffers.
    inst = make_instance(graph, 3, backend)
    plan = _Plan(inst)
    rng = np.random.default_rng(68)
    for count in (1, 16, 1, 5):
        thetas = rng.uniform(0.0, 2 * math.pi, (count, 6))
        rows, energies = plan.run(thetas)
        assert any(np.shares_memory(rows, buf) for buf in (plan.state, plan.scratch))
        for row, energy, t in zip(rows, energies, thetas):
            want, want_energy = reference_row(inst, ParameterVector.from_flat(t))
            assert np.array_equal(row.view(np.uint64), want[: row.size].view(np.uint64))  # GATE's: the color block
            assert energy == want_energy


def test_gate_plan_reuses_a_first_layer_only_while_its_register_holds_it():
    # Rows that share gamma_1 share one first gate layer, within a stack and across runs; a second layer overwrites
    # the register, so the next run's gamma_1 rows must run their first layer again.
    inst = make_instance(K3, 2, Backend.GATE)
    plan = _Plan(inst)
    rng = np.random.default_rng(69)
    for first_gammas in ((0.9, 0.9, 0.9), (0.9, 0.9), (1.7, 0.9, 1.7)):
        thetas = rng.uniform(0.0, 2 * math.pi, (len(first_gammas), 4))
        thetas[:, 0] = first_gammas
        rows, energies = plan.run(thetas)
        for row, energy, t in zip(rows, energies, thetas):
            want, want_energy = reference_row(inst, ParameterVector.from_flat(t))
            assert np.array_equal(row.view(np.uint64), want[: row.size].view(np.uint64))
            assert energy == want_energy


def test_plan_results_survive_later_evaluations_without_faults():
    # Nothing a plan hands out may alias its buffers, and stale buffer contents must not leak into a result.
    inst = make_instance(G4, 2)
    plan = _Plan(inst)
    objective = cli._energy_objective(plan)
    rng = np.random.default_rng(61)
    thetas = rng.uniform(0.0, 2 * math.pi, (20, 4))
    energies = _energies(plan, thetas)
    kept = energies.copy()
    value = objective(thetas[3])
    state = run_qaoa(inst, ParameterVector.from_flat(thetas[5]))
    assert state.base.shape == (1, 256)  # a one-row run allocates, and keeps alive, no spare rows
    kept_state = state.copy()
    for _ in range(3):
        other = rng.uniform(0.0, 2 * math.pi, (20, 4))
        _energies(plan, other)
        objective(other[0])
        plan.run(other[1:2])
        run_qaoa(inst, ParameterVector.from_flat(other[2]))
    assert np.array_equal(energies, kept)
    assert np.array_equal(state.view(np.uint64), kept_state.view(np.uint64))
    assert objective(thetas[3]) == value == energies[3] == _energies(_Plan(inst), thetas[3:4])[0]
    # In steady state a scalar n=8 evaluation allocates no state-sized array: no page faults
    # (a fresh state and a fresh mixer buffer used to cost about 480 per evaluation).
    n8 = cli._energy_objective(_Plan(make_instance(random_complete_graph(8, 5), 2)))
    theta = rng.uniform(0.0, 2 * math.pi, 4)
    n8(theta)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        n8(theta)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 20
    # Nor a state-sized temporary that the allocator recycles unfaulted (a fresh phase gather, or
    # take's default mode="raise", which gathers into a fresh copy of its out buffer).
    tracemalloc.start()
    try:
        n8(theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4**8 * 16 // 8


@pytest.mark.parametrize(
    "graph_name, depth",
    [
        # p=2 keeps the bare graph id; p=1 runs the first-layer gather alone, p=3 and 4 whole phase tables.
        pytest.param(name, p, id=name if p == 2 else f"{name}-p{p}")
        for name in ("g4.edgelist", "k5_weighted.edgelist")
        for p in (2, 1, 3, 4)
    ],
)
def test_solve_reports_match_per_row_reference(monkeypatch, graph_name, depth):
    # The same solve with every evaluation run by half_reference_run, one scalar circuit per row with the
    # per-beta Python mixer terms (and each checked against reference_run to 1e-13), must give the same report,
    # trace and theta bytes.
    graph = load_graph(str(GRAPHS / graph_name))

    def solve():
        search, refine_cfg, shots_seed = cli.build_configs({"m": 60, "max_evals": 80}, 3)
        report, trace, result = cli.run_solve(graph, depth, Backend.DIAGONAL, search, refine_cfg, 3, 512, shots_seed)
        return cli.report_to_json(report), trace_to_csv(trace), result.theta.tobytes()

    def reference_energies(plan, thetas):
        return [reference_row(plan.inst, ParameterVector.from_flat(t))[1] for t in thetas]

    planned = solve()
    monkeypatch.setattr(simulator, "_mixer_blocks", reference_mixer_blocks)
    monkeypatch.setattr(cli, "_energies", reference_energies)
    monkeypatch.setattr(cli, "_energy_objective", lambda plan: lambda theta: reference_energies(plan, [theta])[0])
    assert solve() == planned


def test_first_run_qaoa_peaks_below_three_states():
    inst = make_instance(random_complete_graph(7, 4), 2)
    assert "levels" not in vars(inst.cost)  # built on first use, not with the diagonal
    theta = ParameterVector((0.4, 1.3), (0.9, 0.2))
    tracemalloc.start()
    try:
        state = run_qaoa(inst, theta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * state.nbytes


def test_phase_full_period_is_global_phase():
    # Integer weights give every diagonal entry the same parity, so a 2*pi
    # shift multiplies all amplitudes by the same sign.
    cost = build_cost_diagonal(K3)
    rng = np.random.default_rng(11)
    state = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    state /= np.linalg.norm(state)
    shifted = apply_phase_diagonal(state.copy(), cost, 2.0 * math.pi)
    ratio = shifted[0] / state[0]
    assert abs(abs(ratio) - 1.0) < 1e-12
    assert np.allclose(shifted, ratio * state, atol=1e-12)


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("graph_name", ["g4.edgelist", "k5_weighted.edgelist"])
def test_energy_keeps_the_angle_symmetries(graph_name, backend):
    # Each beta_l has period pi, as RX(b + pi) on 2n qubits is (-1)**(2n) RX(b); E(-theta) = E(theta), as the start,
    # the cost and X are real; and integer weights give each gamma_l period 2*pi.  The search grid and refine's
    # wrap_angles rest on the last.
    graph = load_graph(str(GRAPHS / graph_name))
    rng = np.random.default_rng(81)
    for p in range(1, 5):
        plan = _Plan(make_instance(graph, p, backend))
        eye = np.eye(2 * p)
        for theta in rng.uniform(0.0, TWO_PI, (3, 2 * p)):
            variants = np.vstack([theta, -theta, theta + math.pi * eye[p:], theta + TWO_PI * eye[:p]])
            energies = _energies(plan, variants)
            assert np.max(np.abs(energies - energies[0])) < 1e-13


@pytest.mark.parametrize("backend", list(Backend))
def test_gamma_period_check_keeps_no_gate_level_index(backend):
    # A GATE circuit gathers no phases by level, so its period check must leave no per-entry level index cached on
    # the instance (32 MiB at n=11); a DIAGONAL plan's check reads the levels it takes with its phase index, and its
    # half cost keeps no level index, as that index is the frame's combined one.
    triangle = parse_edge_list("3 3\n0 1 0.5\n1 2 1.3\n0 2 1.0")
    for graph, refused in ((load_graph(str(GRAPHS / "k5_weighted.edgelist")), False), (triangle, True)):
        plan = _Plan(make_instance(graph, 1, backend))
        if refused:
            with pytest.raises(ValueError, match=re.escape("2*pi gamma period")):
                check_gamma_period(plan.levels)
        else:
            check_gamma_period(plan.levels)
        assert np.array_equal(plan.levels, np.unique(plan.cost.values))
        assert "levels" not in vars(plan.cost) and "levels" not in vars(plan.inst.cost)


@pytest.mark.parametrize("backend", list(Backend))
def test_fractional_weights_break_the_gamma_period(backend):
    # Weights 0.5, 1.3 and 1.0 give cost levels an odd or fractional distance apart, so gamma + 2*pi is another
    # circuit (solve refuses such graphs); the beta period and time reversal do not rest on the weights.
    inst = make_instance(parse_edge_list("3 3\n0 1 0.5\n1 2 1.3\n0 2 1.0"), 1, backend)
    energies = _energies(_Plan(inst), [[0.7, 0.4], [0.7 + TWO_PI, 0.4], [0.7, 0.4 + math.pi], [-0.7, -0.4]])
    assert energies[0] == pytest.approx(1.1218, abs=1e-4) and energies[1] == pytest.approx(-1.1861, abs=1e-4)
    assert np.max(np.abs(energies[2:] - energies[0])) < 1e-13


def test_gate_phase_matches_diagonal_up_to_global_phase():
    rng = np.random.default_rng(7)
    for g in (EDGE, K3):
        gamma = float(rng.uniform(0.2, 2.5))
        color = rng.standard_normal(4**g.n) + 1j * rng.standard_normal(4**g.n)
        color /= np.linalg.norm(color)
        gate_state = np.zeros(4**g.n * 4, dtype=complex)
        gate_state[: 4**g.n] = color
        apply_phase_gate_level(gate_state, g, gamma)
        diag_state = apply_phase_diagonal(color.copy(), build_cost_diagonal(g), gamma)
        block = gate_state[: 4**g.n]
        phase = block[np.argmax(np.abs(block))] / diag_state[np.argmax(np.abs(block))]
        assert abs(abs(phase) - 1.0) < 1e-10
        assert np.allclose(block, phase * diag_state, atol=1e-10)


def test_gate_phase_equals_written_out_gates_bit_for_bit():
    # The gate layer runs each edge's three blocks as compute gates, phase, and the compute gates reversed:
    # that is the written-out sequence of 23 gates per edge, to the last bit, on any color state.
    rng = np.random.default_rng(73)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.7] or [(0, 1)]
            g = Graph(n, tuple((i, j, float(rng.uniform(0.1, 3.0))) for i, j in pairs))
            gamma = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            state = np.zeros(4**n * 4, dtype=complex)
            state[: 4**n] = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
            state /= np.linalg.norm(state)
            got = apply_phase_gate_level(state.copy(), g, gamma)
            want = written_out_gate_layer(state.copy(), g, gamma)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, g.edges, gamma)


def test_gate_phase_restores_ancillas():
    for g in (EDGE, K3):
        state = prepare_initial(g.n, Backend.GATE)
        apply_phase_gate_level(state, g, 1.3)
        residual = np.sum(np.abs(state.reshape(4, -1)[1:]) ** 2)
        assert residual < 1e-12


def test_gate_phase_rejects_dirty_ancillas():
    state = np.zeros(64, dtype=complex)
    state[1 << 4] = 1.0
    with pytest.raises(ValueError):
        apply_phase_gate_level(state, EDGE, 1.0)


def test_run_qaoa_zero_angles_is_uniform():
    for backend in (Backend.DIAGONAL, Backend.GATE):
        inst = make_instance(EDGE, 2, backend)
        state = run_qaoa(inst, ParameterVector((0.0, 0.0), (0.0, 0.0)))
        dim = 16
        assert np.allclose(state[:dim], 0.25)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12


def test_run_qaoa_depth_mismatch():
    inst = make_instance(EDGE, 2)
    with pytest.raises(ValueError):
        run_qaoa(inst, ParameterVector((0.1,), (0.2,)))


def test_backend_equivalence_random_angles():
    rng = np.random.default_rng(23)
    for g, p in ((EDGE, 1), (EDGE, 3), (K3, 2)):
        theta = ParameterVector.from_flat(rng.uniform(0, 2 * math.pi, 2 * p))
        diag = run_qaoa(make_instance(g, p, Backend.DIAGONAL), theta)
        gate = run_qaoa(make_instance(g, p, Backend.GATE), theta)
        fidelity = abs(np.vdot(gate[: diag.size], diag))
        assert fidelity >= 1.0 - 1e-10
        residual = np.sum(np.abs(gate[diag.size :]) ** 2)
        assert residual < 1e-12


def test_backend_equivalence_n8():
    g = random_complete_graph(8, 3)
    theta = ParameterVector.from_flat(np.random.default_rng(29).uniform(0, 2 * math.pi, 2))
    diag = run_qaoa(make_instance(g, 1, Backend.DIAGONAL), theta)
    gate = run_qaoa(make_instance(g, 1, Backend.GATE), theta)
    assert abs(np.vdot(gate[: diag.size], diag)) >= 1.0 - 1e-10
    assert np.sum(np.abs(gate[diag.size :]) ** 2) < 1e-12


def test_expectation_reference_states():
    cost = build_cost_diagonal(G4)
    assert abs(expectation(prepare_initial(4), cost) - (-total_weight(G4) / 4)) < 1e-12
    best = basis(8, int(np.argmin(cost.values)))
    assert expectation(best, cost) == -5.0
    empty = build_cost_diagonal(parse_edge_list("2 0"))
    assert expectation(prepare_initial(2), empty) == 0.0


def test_expectation_traces_out_ancillas():
    inst = make_instance(EDGE, 1, Backend.GATE)
    theta = ParameterVector((0.7,), (0.3,))
    gate_val = expectation(run_qaoa(inst, theta), inst.cost)
    diag_val = expectation(run_qaoa(make_instance(EDGE, 1), theta), inst.cost)
    assert abs(gate_val - diag_val) < 1e-12


@pytest.mark.parametrize(
    "measure",
    [
        lambda state, inst: expectation(state, inst.cost),
        lambda state, inst: sample_counts(state, 100, np.random.default_rng(0), color_dim=inst.cost.values.size),
    ],
    ids=["expectation", "sample_counts"],
)
def test_measurement_rejects_ancilla_mass(measure):
    inst = make_instance(EDGE, 1, Backend.GATE)
    state = run_qaoa(inst, ParameterVector((0.7,), (0.3,)))
    measure(state, inst)
    state[3 * inst.cost.values.size + 5] = 1e-5
    with pytest.raises(ValueError, match="at measurement"):
        measure(state, inst)
    with pytest.raises(ValueError):
        measure(np.zeros(inst.cost.values.size + 3, dtype=complex), inst)


def test_measurement_names_a_malformed_state_shape():
    # Only the color register, alone or with two ancillas, passes: any other shape is named, not read as ancilla mass.
    cost = build_cost_diagonal(G4)
    state = run_qaoa(make_instance(G4, 1), ParameterVector((0.6,), (0.5,)))
    with pytest.raises(ValueError, match=re.escape("state of shape (2, 256) is not (256,) or (1024,) at measurement")):
        expectation(np.stack([state, state]), cost)
    with pytest.raises(ValueError, match=re.escape("state of shape (256,) is not (128,) or (512,) at measurement")):
        sample_counts(state, 10, np.random.default_rng(0), color_dim=128)
    with pytest.raises(ValueError, match=re.escape("state of shape (128,) is not (256,) or (1024,) at measurement")):
        expectation(state[:128], cost)


def test_energy_periodic_in_gamma():
    inst = make_instance(G4, 1)
    for gamma, beta in ((0.4, 1.1), (2.0, 0.3)):
        e0 = expectation(run_qaoa(inst, ParameterVector((gamma,), (beta,))), inst.cost)
        e1 = expectation(
            run_qaoa(inst, ParameterVector((gamma + 2 * math.pi,), (beta,))), inst.cost
        )
        assert abs(e0 - e1) < 1e-12


def test_energy_within_spectrum():
    rng = np.random.default_rng(31)
    inst = make_instance(G4, 2)
    lo, hi = inst.cost.values.min(), inst.cost.values.max()
    for _ in range(10):
        theta = ParameterVector.from_flat(rng.uniform(0, 2 * math.pi, 4))
        e = expectation(run_qaoa(inst, theta), inst.cost)
        assert lo - 1e-10 <= e <= hi + 1e-10


def test_sample_counts_point_mass():
    state = basis(4, 9)
    counts = sample_counts(state, 100, np.random.default_rng(0))
    assert counts == {9: 100}


def test_sample_counts_uniform_binomial():
    shots = 40000
    counts = sample_counts(prepare_initial(1), shots, np.random.default_rng(5))
    assert sum(counts.values()) == shots
    sigma = math.sqrt(shots * 0.25 * 0.75)
    for z in range(4):
        assert abs(counts.get(z, 0) - shots * 0.25) <= 5 * sigma
    with pytest.raises(ValueError):
        sample_counts(prepare_initial(1), 0, np.random.default_rng(0))


def test_sample_counts_refuses_a_non_integer_shot_count():
    state = prepare_initial(1)
    with pytest.raises(ValueError, match=re.escape("shots must be an integer, got 10.5")):
        sample_counts(state, 10.5, np.random.default_rng(0))
    assert sum(sample_counts(state, np.int64(10), np.random.default_rng(0)).values()) == 10


def test_sample_counts_deterministic_and_sorted():
    state = run_qaoa(make_instance(K3, 1), ParameterVector((0.8,), (0.4,)))
    a = sample_counts(state, 512, np.random.default_rng(42))
    b = sample_counts(state, 512, np.random.default_rng(42))
    assert a == b
    assert list(a.keys()) == sorted(a.keys())


def test_sample_counts_strips_ancillas():
    state = run_qaoa(make_instance(EDGE, 1, Backend.GATE), ParameterVector((0.9,), (0.5,)))
    counts = sample_counts(state, 1000, np.random.default_rng(1), color_dim=16)
    assert sum(counts.values()) == 1000
    assert max(counts) < 16


def test_shot_mean_cut_matches_expectation():
    inst = make_instance(G4, 1)
    state = run_qaoa(inst, ParameterVector((0.6,), (0.5,)))
    probs = np.abs(state) ** 2
    cuts = np.array([cut_value(G4, decode_bitstring(z, 4)) for z in range(state.size)])
    mu = float(probs @ cuts)
    assert abs(mu - cut_from_energy(expectation(state, inst.cost), G4)) < 1e-12
    shots = 20000
    counts = sample_counts(state, shots, np.random.default_rng(9))
    sample_mu = sum(c * cuts[z] for z, c in counts.items()) / shots
    sigma = math.sqrt(float(probs @ (cuts - mu) ** 2) / shots)
    assert abs(sample_mu - mu) <= 5 * sigma + 1e-9
