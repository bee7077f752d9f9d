import itertools
import math
from functools import reduce

import numpy as np
import pytest

from ttqaoa.graph import Graph, cut_value, parse_edge_list, random_complete_graph, total_weight
from ttqaoa.qaoa_model import build_cost_diagonal, cut_from_energy, decode_bitstring
from ttqaoa.simulator import (
    Backend,
    ParameterVector,
    apply_ccx,
    apply_controlled_phase,
    apply_cx,
    apply_h,
    apply_mixer,
    apply_phase_diagonal,
    apply_phase_gate_level,
    apply_rx,
    apply_x,
    expectation,
    make_instance,
    prepare_initial,
    run_qaoa,
    sample_counts,
)

G4 = parse_edge_list("4 5\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1")
EDGE = parse_edge_list("2 1\n0 1 1")
K3 = parse_edge_list("3 3\n0 1 1\n0 2 1\n1 2 1")


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
    assert np.allclose(apply_h(basis(1, 0), 0), np.full(2, 1 / math.sqrt(2)))
    assert np.allclose(apply_h(basis(1, 1), 0), [1 / math.sqrt(2), -1 / math.sqrt(2)])
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
