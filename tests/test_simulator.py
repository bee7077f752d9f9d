import itertools
import math
import resource
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from ttqaoa import cli, simulator
from ttqaoa.graph import Graph, cut_value, load_graph, parse_edge_list, random_complete_graph, total_weight
from ttqaoa.protes import trace_to_csv
from ttqaoa.qaoa_model import TWO_PI, build_cost_diagonal, cut_from_energy, decode_bitstring
from ttqaoa.simulator import (
    Backend,
    ParameterVector,
    _energies,
    _Plan,
    apply_ccx,
    apply_controlled_phase,
    apply_cx,
    apply_mixer,
    apply_phase_diagonal,
    apply_phase_gate_level,
    apply_rx,
    apply_x,
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
    assert np.allclose(apply_x(basis(2, 0), 0), basis(2, 1))
    assert np.allclose(apply_x(basis(2, 0b10), 1), basis(2, 0))
    assert np.allclose(apply_cx(basis(2, 0b01), 0, 1), basis(2, 0b11))
    assert np.allclose(apply_cx(basis(2, 0b10), 0, 1), basis(2, 0b10))
    assert np.allclose(apply_ccx(basis(3, 0b011), 0, 1, 2), basis(3, 0b111))
    assert np.allclose(apply_ccx(basis(3, 0b001), 0, 1, 2), basis(3, 0b001))


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
            cases = [(apply_x, ref_x, (order[0],))]
            if q >= 2:
                cases.append((apply_cx, ref_cx, tuple(order[:2])))
            if q >= 3:
                cases.append((apply_ccx, ref_ccx, tuple(order[:3])))
            for c in range(min(3, q - 1) + 1):
                phi = float(rng.uniform(-math.pi, math.pi))
                cases.append((apply_controlled_phase, ref_controlled_phase, (order[:c], order[c], phi)))
            for gate, ref, args in cases:
                out = state.copy()
                assert gate(out, *args) is out
                assert np.array_equal(out, ref(state.copy(), *args)), (gate.__name__, q, args)


def test_rx_rotation():
    state = apply_rx(basis(1, 0), 0, math.pi)
    assert np.allclose(state, [0.0, -1j])
    state = apply_rx(basis(1, 0), 0, math.pi / 2)
    assert np.allclose(state, [1 / math.sqrt(2), -1j / math.sqrt(2)])


def test_controlled_phase_flips_only_all_ones():
    state = np.ones(8, dtype=complex) / math.sqrt(8)
    apply_controlled_phase(state, [0, 1], 2, math.pi)
    expected = np.ones(8) / math.sqrt(8)
    expected[0b111] *= -1
    assert np.allclose(state, expected)


def test_gate_index_errors():
    with pytest.raises(ValueError):
        apply_x(basis(2, 0), 2)
    with pytest.raises(ValueError):
        apply_cx(basis(2, 0), 0, 0)
    with pytest.raises(ValueError):
        apply_controlled_phase(basis(2, 0), [0], 5, 1.0)
    # A repeated qubit must not merge silently into one fixed bit.
    with pytest.raises(ValueError):
        apply_ccx(basis(3, 0), 0, 0, 1)
    with pytest.raises(ValueError):
        apply_controlled_phase(basis(2, 0), [1], 1, 1.0)
    with pytest.raises(ValueError):
        apply_rx(np.ones(3, dtype=complex), 0, 1.0)


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


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("rows", [1, 3])
def test_mixer_stack_rows_match_one_row_calls(rows, backend):
    rng = np.random.default_rng(rows)
    # n <= 2 mixes one-column blocks, where only the BLAS path gives a lone row's bits.
    for n in (1, 2, 3, 4):
        size = len(prepare_initial(n, backend))
        stack = rng.standard_normal((rows, size)) + 1j * rng.standard_normal((rows, size))
        betas = rng.uniform(-4.0, 4.0, rows)
        expected = np.array([apply_mixer(row.copy(), beta, n) for row, beta in zip(stack, betas)])
        assert apply_mixer(stack, betas, n) is stack
        assert np.array_equal(stack, expected)


@pytest.mark.parametrize("n", range(1, 9))
def test_mixer_matches_rx_reference(n):
    # Odd n ends on a one-vertex (two-qubit) block.
    rng = np.random.default_rng(100 + n)
    state = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    state /= np.linalg.norm(state)
    for beta in rng.uniform(-4.0, 4.0, 3):
        expected = state.copy()
        for qubit in range(2 * n):
            apply_rx(expected, qubit, 2.0 * beta)
        assert np.max(np.abs(apply_mixer(state.copy(), beta, n) - expected)) < 1e-13


def test_mixer_keeps_zero_ancilla_blocks_exactly_zero():
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        state = prepare_initial(n, Backend.GATE)
        state[: 4**n] = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
        apply_mixer(state, 0.83, n)
        assert not np.any(state[4**n :])


def reference_mixer_block(betas, q):
    """The earlier per-beta Python terms, gathered by Hamming distance: the bit-for-bit reference for _mixer_blocks."""
    cos_sin = [(math.cos(b), -1j * math.sin(b)) for b in betas.flat]
    terms = [[c ** (q - h) * s ** h for h in range(q + 1)] for c, s in cos_sin]
    return np.array(terms).reshape(*betas.shape, -1).take(simulator._HAMMING[: 1 << q, : 1 << q], axis=-1)


def reference_mixer_blocks(betas, n):
    """The per-block list that _mixer_blocks returns, from the Python terms."""
    return [reference_mixer_block(betas, min(4, 2 * n - low)) for low in range(0, 2 * n, 4)]


@pytest.mark.parametrize("q", [2, 4])
def test_vectorized_mixer_blocks_equal_python_terms_bit_for_bit(q):
    # np.power's SIMD float64 loop can differ from Python's ** in the last bit, where np.float_power
    # calls the same libm pow: a numpy or CPU change that moves these bits moves every report.
    rng = np.random.default_rng(50 + q)
    grid = TWO_PI * np.arange(100) / 100
    betas = np.concatenate([rng.uniform(-10.0, 10.0, 100_000), grid, [0.0, math.pi, -math.pi]])
    # One vertex is one 2-qubit block, two vertices one 4-qubit block.
    for start in range(0, betas.size, 4096):
        chunk = betas[start : start + 4096]
        (blocks,) = simulator._mixer_blocks(chunk, q // 2)
        assert np.array_equal(blocks.view(np.uint64), reference_mixer_block(chunk, q).view(np.uint64))
    # The plan builds all layers at once from a transposed (p, B, 1) view of the angle array.
    stack = betas[:96].reshape(24, 4).T[..., None]
    (blocks,) = simulator._mixer_blocks(stack, q // 2)
    assert np.array_equal(blocks.view(np.uint64), reference_mixer_block(stack, q).view(np.uint64))


def test_mixer_beta_shape_must_match_stack():
    stack = np.zeros((3, 16), dtype=complex)
    for beta in ([0.1, 0.2], 0.1, [[0.1, 0.2, 0.3]]):
        with pytest.raises(ValueError):
            apply_mixer(stack, beta, 2)
    with pytest.raises(ValueError):
        apply_mixer(np.zeros(16, dtype=complex), [0.1], 2)


def test_energy_grid_shape_and_guards():
    inst = make_instance(G4, 1)
    gammas, betas = [0.3, 1.1], [0.0, 0.4, 2.5]
    grid = energy_grid(inst, gammas, betas)
    assert grid.shape == (2, 3)
    for (i, gamma), (j, beta) in itertools.product(enumerate(gammas), enumerate(betas)):
        assert grid[i, j] == expectation(run_qaoa(inst, ParameterVector((gamma,), (beta,))), inst.cost)
    assert energy_grid(inst, gammas, []).shape == (2, 0)
    with pytest.raises(ValueError):
        energy_grid(make_instance(G4, 2), gammas, betas)
    with pytest.raises(ValueError):
        energy_grid(inst, [[0.3]], betas)


@pytest.mark.parametrize(
    "graph, backend, shapes",
    [
        (G4, Backend.DIAGONAL, [(16, 256), (4, 256)]),
        (random_complete_graph(5, 2), Backend.GATE, [(4, 1024)] * 5),
        (random_complete_graph(6, 3), Backend.DIAGONAL, [(1, 4096)] * 20),
    ],
    ids=["g4-diagonal", "n5-gate", "n6-diagonal"],
)
def test_energy_grid_caps_rows_per_mixer_call(monkeypatch, graph, backend, shapes):
    real_mixer = simulator.apply_mixer
    seen = []

    def recording_mixer(state, beta, n):
        seen.append(state.shape)
        return real_mixer(state, beta, n)

    monkeypatch.setattr(simulator, "apply_mixer", recording_mixer)
    energy_grid(make_instance(graph, 1, backend), [0.4], np.linspace(0.0, 3.0, 20))
    assert seen == shapes


def test_energy_grid_checks_every_row_norm(monkeypatch):
    real_mixer = simulator.apply_mixer

    def leaky_mixer(state, beta, n):
        real_mixer(state, beta, n)
        state[-1] *= 1.001
        return state

    monkeypatch.setattr(simulator, "apply_mixer", leaky_mixer)
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
        stack = rng.standard_normal((3, cost.values.size)) + 1j * rng.standard_normal((3, cost.values.size))
        gammas = rng.uniform(-4.0, 4.0, (3, 1))
        expected = np.array([apply_phase_diagonal(row.copy(), cost, float(g)) for row, g in zip(stack, gammas[:, 0])])
        assert apply_phase_diagonal(stack, cost, gammas) is stack
        assert np.array_equal(stack, expected)


def test_phase_diagonal_gamma_shape_must_match_stack():
    cost = build_cost_diagonal(EDGE)
    stack = np.zeros((3, 16), dtype=complex)
    for gamma in (np.zeros(3), 0.1, np.zeros((2, 1)), np.zeros((1, 3, 1))):
        with pytest.raises(ValueError, match="gamma shape"):
            apply_phase_diagonal(stack, cost, gamma)
    with pytest.raises(ValueError, match="gamma shape"):
        apply_phase_diagonal(np.zeros(16, dtype=complex), cost, np.zeros(1))
    with pytest.raises(ValueError, match="state length"):
        apply_phase_diagonal(np.zeros((3, 4), dtype=complex), cost, np.zeros((3, 1)))


def reference_run(inst, theta):
    """One 1-D circuit, layer by layer with scalar angles: the independent reference for the stacked core."""
    state = prepare_initial(inst.graph.n, inst.backend)
    for gamma, beta in zip(theta.gammas, theta.betas):
        if inst.backend is Backend.DIAGONAL:
            apply_phase_diagonal(state, inst.cost, gamma)
        else:
            apply_phase_gate_level(state, inst.graph, gamma)
        apply_mixer(state, beta, inst.graph.n)
    assert abs(np.linalg.norm(state) - 1.0) <= 1e-10
    return state


def assert_energies_match_reference(inst, thetas):
    expected = []
    for t in thetas:
        state = reference_run(inst, ParameterVector.from_flat(t))
        assert np.array_equal(run_qaoa(inst, ParameterVector.from_flat(t)).view(np.uint64), state.view(np.uint64))
        expected.append(expectation(state, inst.cost))
    assert _energies(_Plan(inst), thetas).tolist() == expected


@pytest.mark.parametrize("n", range(1, 7))
def test_stacked_energies_equal_one_circuit_per_row(n):
    inst_graph = random_complete_graph(n, n)
    rng = np.random.default_rng(40 + n)
    for p in (1, 2, 3):
        inst = make_instance(inst_graph, p)
        # 16 and 17 straddle the G4 row cap; n=6 runs one row per stack.
        for count in (1, 5, 16, 17, 40):
            assert_energies_match_reference(inst, rng.uniform(0.0, 2 * math.pi, (count, 2 * p)))


def test_stacked_energies_gate_backend_equal_reference():
    rng = np.random.default_rng(47)
    # K3's 256-amplitude gate register stacks 16 rows, G4's 1,024 stack 4.
    for graph in (K3, G4):
        for p in (1, 2, 3):
            inst = make_instance(graph, p, Backend.GATE)
            for count in (1, 5, 17):
                assert_energies_match_reference(inst, rng.uniform(0.0, 2 * math.pi, (count, 2 * p)))


def test_nan_angles_fail_the_norm_check():
    with pytest.raises(RuntimeError, match="norm"):
        _energies(_Plan(make_instance(G4, 1)), [[0.1, math.nan]])
    with pytest.raises(RuntimeError, match="norm"):
        _energies(_Plan(make_instance(K3, 1, Backend.GATE)), [[0.2, 0.3], [math.nan, 0.3]])
    with pytest.raises(RuntimeError, match="norm"):
        energy_grid(make_instance(G4, 1), [0.3, math.nan], [0.1])


def test_stacked_energies_cap_rows_and_check_shape(monkeypatch):
    # The plan mixes through the private _mix kernel, not apply_mixer: record the (rows, D) stack it mixes.
    real_mix = simulator._mix
    seen = []

    def recording_mix(state, scratch, matrices, n):
        seen.append(state.shape)
        return real_mix(state, scratch, matrices, n)

    monkeypatch.setattr(simulator, "_mix", recording_mix)
    _energies(_Plan(make_instance(G4, 2)), np.zeros((17, 4)))
    assert seen == [(16, 256)] * 2 + [(1, 256)] * 2
    seen.clear()
    _energies(_Plan(make_instance(random_complete_graph(7, 0), 1)), np.zeros((2, 2)))
    assert seen == [(1, 4**7)] * 2
    seen.clear()
    # The gate register carries two ancillas: 1,024 amplitudes on G4, so 4 rows per stack.
    _energies(_Plan(make_instance(G4, 2, Backend.GATE)), np.zeros((17, 4)))
    assert seen == [(4, 1024)] * 8 + [(1, 1024)] * 2
    for bad in (np.zeros((3, 3)), np.zeros(4), np.zeros((1, 2, 4))):
        with pytest.raises(ValueError):
            _energies(_Plan(make_instance(G4, 2)), bad)


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


@pytest.mark.parametrize("graph_name", ["g4.edgelist", "k5_weighted.edgelist"])
def test_solve_reports_match_per_row_reference(monkeypatch, graph_name):
    # The same solve with every evaluation run by reference_run, one scalar circuit per row with the
    # per-beta Python mixer terms, must give the same report, trace and theta bytes.
    graph = load_graph(str(GRAPHS / graph_name))

    def solve():
        search, refine_cfg, shots_seed = cli.build_configs({"m": 60, "max_evals": 80}, 3)
        report, trace, result = cli.run_solve(graph, 2, Backend.DIAGONAL, search, refine_cfg, 3, 512, shots_seed)
        return cli.report_to_json(report), trace_to_csv(trace), result.theta.tobytes()

    def reference_energies(plan, thetas):
        return [expectation(reference_run(plan.inst, ParameterVector.from_flat(t)), plan.inst.cost) for t in thetas]

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
