import dataclasses
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from ttqaoa import cli, simulator
from ttqaoa.cli import (
    DEFAULT_SHOTS,
    build_configs,
    derive_seeds,
    hist_csv,
    landscape_csv,
    main,
    parse_config_text,
    report_to_json,
)
from ttqaoa.graph import cut_value, load_graph, parse_edge_list, random_complete_graph, total_weight
from ttqaoa.protes import ProtesConfig
from ttqaoa.qaoa_model import build_cost_diagonal, cut_from_energy, index_to_angles
from ttqaoa.simulator import Backend, ParameterVector, expectation, make_instance, run_qaoa
from ttqaoa.tt import load_tt_text

EDGE_TEXT = "2 1\n0 1 1\n"
G4_TEXT = "4 5\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n"
K5_TEXT = "5 10\n" + "\n".join(
    f"{i} {j} 1" for i in range(5) for j in range(i + 1, 5)
) + "\n"
TINY_CONFIG = "R = 3\nK = 10\nk = 3\nk_gd = 5\nlambda = 0.1\nN = 20\nm = 40\nmax_evals = 300\n"

EDGE = parse_edge_list(EDGE_TEXT)
G4 = parse_edge_list(G4_TEXT)
K5_WEIGHTED = load_graph(str(Path(__file__).resolve().parents[1] / "graphs" / "k5_weighted.edgelist"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def oracle_max_cut(g, k):
    best = 0.0
    for colors in itertools.product(range(k), repeat=g.n):
        best = max(best, cut_value(g, colors))
    return best


def test_parse_config_text():
    raw = parse_config_text("# header\nR = 7\n\nlambda = 0.25  # inline\nm=500\n")
    assert raw == {"R": 7, "lambda": 0.25, "m": 500}
    assert isinstance(raw["R"], int) and isinstance(raw["lambda"], float)
    with pytest.raises(ValueError):
        parse_config_text("mystery = 3\n")
    with pytest.raises(ValueError):
        parse_config_text("R 7\n")
    with pytest.raises(ValueError):
        parse_config_text("R = seven\n")
    with pytest.raises(ValueError, match="line 3: repeated key 'K'"):
        parse_config_text("K = 10\nR = 3\nK = 30\n")
    with pytest.raises(ValueError, match="line 2: R takes int values, got '1.5'"):
        parse_config_text("K = 10\nR = 1.5\n")
    with pytest.raises(ValueError, match="line 1: m takes int values, got '1e3'"):
        parse_config_text("m = 1e3\n")
    with pytest.raises(ValueError, match="line 1: tol takes float values, got 'small'"):
        parse_config_text("tol = small\n")


def test_derive_seeds():
    seeds = derive_seeds(0)
    assert seeds == derive_seeds(0)
    assert len(set(seeds)) == 3
    assert seeds != derive_seeds(1)
    oracle = np.random.SeedSequence(0).generate_state(3)
    assert seeds == tuple(int(x) for x in oracle)
    with pytest.raises(ValueError, match=r"^master seed must be >= 0, got -1$"):
        derive_seeds(-1)


def test_main_solve_seed_precedence(tmp_path):
    # --seed beats a config seed, a config seed beats the default, and the default is 0.
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    seeded = write(tmp_path, "seeded.txt", TINY_CONFIG + "seed = 4\n")
    plain = write(tmp_path, "plain.txt", TINY_CONFIG)
    out = tmp_path / "report.json"
    routes = ((["--config", seeded, "--seed", "9"], 9), (["--config", seeded], 4), (["--config", plain], 0))
    for route, master in routes:
        assert main(["solve", "--graph", graph, "--p", "1", "--shots", "16", "--out", str(out), *route]) == 0
        report = json.loads(out.read_text())
        assert (report["seed"], report["protes_config"]["seed"]) == (master, derive_seeds(master)[0])


def test_build_configs_mapping():
    raw = parse_config_text(TINY_CONFIG)
    protes_cfg, refine_cfg, shots_seed = build_configs(raw, 7)
    assert (protes_cfg.rank, protes_cfg.batch_size, protes_cfg.elite_count) == (3, 10, 3)
    assert (protes_cfg.ascent_steps, protes_cfg.learning_rate) == (5, 0.1)
    assert (protes_cfg.nodes_per_dim, protes_cfg.budget) == (20, 40)
    assert refine_cfg.max_evals == 300
    expected = derive_seeds(7)
    assert (protes_cfg.seed, refine_cfg.seed, shots_seed) == expected

    protes_cfg, refine_cfg, _ = build_configs({}, 0)
    assert (protes_cfg.rank, protes_cfg.batch_size, protes_cfg.budget) == (5, 20, 1000)
    assert (refine_cfg.max_evals, refine_cfg.initial_step, refine_cfg.tol) == (10000, 0.1, 1e-9)


def test_report_to_json_canonical():
    text = report_to_json({"b": 1, "a": [1, 2]})
    assert text == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    assert json.loads(text) == {"a": [1, 2], "b": 1}


def test_landscape_csv_structure():
    res = 6
    text = landscape_csv(EDGE, res, Backend.DIAGONAL)
    lines = text.splitlines()
    assert lines[0] == "gamma,beta,energy"
    assert len(lines) == res * res + 1
    rows = [line.split(",") for line in lines[1:]]
    gammas = sorted({float(r[0]) for r in rows})
    assert np.allclose(gammas, [2 * math.pi * j / res for j in range(res)])
    assert max(gammas) < 2 * math.pi
    # gamma = 0 leaves the uniform state an eigenstate of the mixer, so the
    # whole first row sits at the uniform energy regardless of beta.
    uniform_energy = -total_weight(EDGE) / 4
    for r in rows[:res]:
        assert float(r[0]) == 0.0
        assert abs(float(r[2]) - uniform_energy) < 1e-12
    cost = build_cost_diagonal(EDGE)
    for r in rows:
        assert cost.values.min() - 1e-10 <= float(r[2]) <= cost.values.max() + 1e-10
    with pytest.raises(ValueError):
        landscape_csv(EDGE, 1, Backend.DIAGONAL)


def landscape_reference(g, resolution, backend):
    """The earlier landscape: one circuit per grid cell, kept as the byte-for-byte reference.  Each cell is a one-row
    plan run, the full register's run_qaoa on GATE and the color-swap half register on DIAGONAL, whose energy must
    also equal the expanded run_qaoa state's to 1e-13."""
    inst = make_instance(g, 1, backend)
    angles = index_to_angles(np.arange(resolution), resolution)
    lines = ["gamma,beta,energy"]
    for gamma in angles:
        gamma = float(gamma)
        for beta in angles:
            beta = float(beta)
            energy = simulator._Plan(inst).run(np.array([[gamma, beta]]))[1][0]
            full = expectation(run_qaoa(inst, ParameterVector((gamma,), (beta,))), inst.cost)
            assert energy == full if backend is Backend.GATE else abs(energy - full) < 1e-13
            lines.append(f"{gamma!r},{beta!r},{energy!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "graph, resolution, backend",
    [
        # 128 half-register amplitudes: the 7 betas fit in one call under the 64-row cap.
        (G4, 7, Backend.DIAGONAL),
        # 1,024-amplitude color block: 8-row calls, and a 1-row tail.
        (K5_WEIGHTED, 9, Backend.GATE),
        # 2,048 half-register amplitudes: four rows per call, and at resolution 5 a 1-row tail.
        (random_complete_graph(6, 11), 5, Backend.DIAGONAL),
        # 4,096 amplitudes: two rows per call, and at resolution 3 a 1-row tail.
        (random_complete_graph(6, 12), 3, Backend.GATE),
    ],
    ids=["g4-diagonal", "k5-gate", "n6-diagonal", "n6-gate"],
)
def test_landscape_csv_matches_per_cell_reference(graph, resolution, backend):
    assert landscape_csv(graph, resolution, backend) == landscape_reference(graph, resolution, backend)


def test_landscape_gate_matches_diagonal():
    res = 6
    rows = {}
    for backend in Backend:
        text = landscape_csv(K5_WEIGHTED, res, backend)
        rows[backend] = [line.split(",") for line in text.splitlines()[1:]]
    assert len(rows[Backend.GATE]) == res * res
    for gate, diag in zip(rows[Backend.GATE], rows[Backend.DIAGONAL]):
        assert gate[:2] == diag[:2]
        assert abs(float(gate[2]) - float(diag[2])) < 1e-10


def test_hist_csv_rows_and_cuts():
    shots = 16000
    text = hist_csv(EDGE, [0.0, 0.0], shots, 3, Backend.DIAGONAL)
    lines = text.splitlines()
    assert lines[0] == "bitstring,count,coloring,cut"
    counts = []
    for line in lines[1:]:
        bits, count, coloring, cut = line.split(",")
        assert len(bits) == 4 and set(bits) <= {"0", "1"}
        counts.append(int(count))
        decoded = tuple(int(ch) for ch in coloring)
        assert float(cut) == cut_value(EDGE, decoded)
    assert sum(counts) == shots
    assert counts == sorted(counts, reverse=True)
    # Zero angles leave the state uniform over 16 basis states.
    sigma = math.sqrt(shots * (1 / 16) * (15 / 16))
    assert len(counts) == 16
    for c in counts:
        assert abs(c - shots / 16) <= 5 * sigma


def test_hist_mean_cut_matches_expectation():
    theta = [0.6, 0.5]
    shots = 20000
    inst = make_instance(G4, 1)
    state = run_qaoa(inst, ParameterVector.from_flat(theta))
    mu = cut_from_energy(expectation(state, inst.cost), G4)
    text = hist_csv(G4, theta, shots, 11, Backend.DIAGONAL)
    total = 0.0
    second_moment = 0.0
    for line in text.splitlines()[1:]:
        _, count, _, cut = line.split(",")
        total += int(count) * float(cut)
        second_moment += int(count) * float(cut) ** 2
    sample_mu = total / shots
    sample_var = second_moment / shots - sample_mu**2
    sigma = math.sqrt(max(sample_var, 1e-12) / shots)
    assert abs(sample_mu - mu) <= 5 * sigma + 1e-9


def test_hist_deterministic():
    a = hist_csv(G4, [0.4, 0.9], 512, 5, Backend.DIAGONAL)
    b = hist_csv(G4, [0.4, 0.9], 512, 5, Backend.DIAGONAL)
    assert a == b


def test_main_solve_writes_artifacts(tmp_path):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    config = write(tmp_path, "conf.txt", TINY_CONFIG)
    report_path = tmp_path / "report.json"
    trace_path = tmp_path / "trace.csv"
    tt_path = tmp_path / "model.tt"
    argv = [
        "solve", "--graph", graph, "--p", "1", "--config", config, "--seed", "7",
        "--shots", "256", "--out", str(report_path),
        "--trace-out", str(trace_path), "--tt-out", str(tt_path),
    ]
    assert main(argv) == 0
    report = json.loads(report_path.read_text())
    assert report["command"] == "solve"
    assert report["graph"] == {"n": 2, "edges": 1, "total_weight": 1.0}
    assert report["optimal_cut"] == 1.0
    assert report["seed"] == 7 and report["depth"] == 1
    assert report["protes_config"]["budget"] == 40
    assert report["protes"]["evals"] <= 40
    assert report["refine"]["evals"] <= 300
    # Every key, since perfbench/workloads.py reads protes.ratio, protes.evals, refine.ratio, refine.energy and
    # refine.evals.
    assert set(report) == {
        "command", "graph", "depth", "backend", "seed", "shots", "protes_config", "refine_config",
        "optimal_cut", "optimal_coloring", "protes", "refine", "theta", "top_counts",
    }
    stage = {"energy", "expected_cut", "ratio", "evals"}
    assert set(report["protes"]) == stage | {"iterations", "diagnostics"}
    assert set(report["refine"]) == stage
    diagnostics = report["protes"]["diagnostics"]
    assert set(diagnostics) == {"cache_hits", "clamped_values", "uniform_fallbacks"}
    assert all(type(v) is int and v >= 0 for v in diagnostics.values())
    # Refinement starts from the search optimum, so it can only improve.
    assert report["refine"]["ratio"] >= report["protes"]["ratio"] - 1e-12
    assert abs(report["refine"]["ratio"] - 0.9564) < 0.01
    assert len(report["theta"]) == 2
    assert len(report["top_counts"]) <= 16
    assert report["top_counts"][0]["cut"] == 1.0

    trace_lines = trace_path.read_text().splitlines()
    assert trace_lines[0] == "iteration,evals,best_value"
    assert int(trace_lines[-1].split(",")[1]) == report["protes"]["evals"]

    model = load_tt_text(str(tt_path))
    assert model.shape == (20, 20)

    # Byte-identical rerun.
    before = report_path.read_bytes(), trace_path.read_bytes(), tt_path.read_bytes()
    assert main(argv) == 0
    after = report_path.read_bytes(), trace_path.read_bytes(), tt_path.read_bytes()
    assert before == after


def test_main_solve_backends_agree(tmp_path):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    config = write(tmp_path, "conf.txt", TINY_CONFIG)
    energies = {}
    for backend in ("diagonal", "gate"):
        out = tmp_path / f"{backend}.json"
        argv = [
            "solve", "--graph", graph, "--p", "1", "--config", config,
            "--seed", "7", "--shots", "64", "--backend", backend, "--out", str(out),
        ]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        assert report["backend"] == backend
        energies[backend] = report["refine"]["energy"]
    assert abs(energies["diagonal"] - energies["gate"]) <= 1e-9


def test_main_rejects_zero_cut_graph(tmp_path, capsys):
    graph = write(tmp_path, "empty.txt", "2 0\n")
    assert main(["solve", "--graph", graph, "--p", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_brute(tmp_path):
    for text, k, expected in ((G4_TEXT, 3, 5.0), (K5_TEXT, 3, 8.0), (G4_TEXT, 2, 4.0)):
        graph = write(tmp_path, "g.txt", text)
        out = tmp_path / "brute.json"
        assert main(["brute", "--graph", graph, "--k", str(k), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["optimal_cut"] == expected
        assert report["optimal_cut"] == oracle_max_cut(parse_edge_list(text), k)
        assert cut_value(parse_edge_list(text), report["coloring"]) == expected


def test_main_brute_refuses_weights_whose_total_overflows(tmp_path, capsys):
    # Each weight is finite, but an optimal cut of inf would print as Infinity, which is not JSON.
    graph = write(tmp_path, "huge.txt", "3 3\n0 1 1e308\n0 2 1e308\n1 2 1e308\n")
    assert main(["brute", "--graph", graph, "--k", "3"]) == 1
    assert capsys.readouterr() == ("", "error: edge weights sum to inf, which is not finite\n")


def test_main_refuses_weights_whose_phases_overflow(tmp_path, capsys):
    # One finite weight whose 2*pi multiple overflows: gamma * cost would reach inf, and its exp nan, with numpy
    # RuntimeWarnings on the way to a norm error (landscape, hist) or a misleading gamma-period error (solve).
    graph = write(tmp_path, "huge.txt", "2 1\n0 1 1e308\n")
    commands = (["brute", "--k", "3"], ["solve", "--p", "1"], ["landscape", "--resolution", "4"])
    for command, *options in (*commands, ["hist", "--theta", "0.7,2.8"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([command, "--graph", graph, *options]) == 1
        assert caught == []
        assert capsys.readouterr() == ("", "error: edge weights sum to 1e+308, whose 2*pi multiple is not finite\n")


@pytest.mark.parametrize(
    "text, theta, gammas",
    [("2 1\n0 1 1e307\n", "100,0.3", (100.0,)), ("2 1\n0 1 2\n", "0.5,1e308,0.3,0.4", (0.5, 1e308))],
    ids=["huge-weight", "huge-gamma"],
)
def test_main_hist_refuses_gammas_whose_phases_overflow(tmp_path, capsys, text, theta, gammas):
    # hist takes any finite gamma, so a gamma times the weights' sum can overflow where solve's and landscape's
    # gammas, at most 2*pi, cannot: it is refused before any circuit runs, with one line and no numpy warning.
    graph = write(tmp_path, "g.txt", text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["hist", "--graph", graph, "--theta", theta]) == 1
    assert caught == []
    message = f"error: gammas {gammas} times the edge weights' sum {float(text.split()[-1])} are not all finite\n"
    assert capsys.readouterr() == ("", message)


def test_main_landscape_deterministic(tmp_path):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    out = tmp_path / "scan.csv"
    argv = ["landscape", "--graph", graph, "--resolution", "5", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert first.decode().splitlines()[0] == "gamma,beta,energy"


def test_main_hist_flows(tmp_path):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    out = tmp_path / "hist.csv"
    argv = ["hist", "--graph", graph, "--theta", "0.3,0.7", "--shots", "128", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first

    theta_file = write(tmp_path, "theta.txt", "0.3 0.7\n")
    out2 = tmp_path / "hist2.csv"
    assert main(["hist", "--graph", graph, "--theta-file", theta_file, "--shots", "128",
                 "--seed", "2", "--out", str(out2)]) == 0
    assert out2.read_bytes() == first


def test_main_hist_refuses_a_negative_seed_before_any_circuit(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a circuit ran before the seed check")

    monkeypatch.setattr(cli, "run_qaoa", unreachable)
    graph = write(tmp_path, "g4.txt", G4_TEXT)
    assert main(["hist", "--graph", graph, "--theta", "0.72,2.85", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_main_hist_refuses_zero_shots_before_any_circuit(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a circuit ran before the shots check")

    monkeypatch.setattr(cli, "run_qaoa", unreachable)
    graph = write(tmp_path, "g4.txt", G4_TEXT)
    assert main(["hist", "--graph", graph, "--theta", "0.72,2.85", "--shots", "0"]) == 1
    assert capsys.readouterr().err == "error: shots must be >= 1, got 0\n"


def test_main_hist_theta_errors(tmp_path, capsys):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    theta_file = write(tmp_path, "theta.txt", "0.3 0.7\n")
    assert main(["hist", "--graph", graph]) == 1
    assert main(["hist", "--graph", graph, "--theta", "0.1,0.2", "--theta-file", theta_file]) == 1
    assert main(["hist", "--graph", graph, "--theta", "0.1,0.2,0.3"]) == 1
    assert main(["hist", "--graph", graph, "--theta", ""]) == 1
    capsys.readouterr()
    for bad in ("nan", "inf"):
        assert main(["hist", "--graph", graph, "--theta", f"{bad},0.3"]) == 1
        assert capsys.readouterr().err == f"error: gammas must be finite, got ({float(bad)},)\n"


def test_main_solve_rejects_weights_without_a_2pi_period(tmp_path, capsys, monkeypatch):
    # E(0.7 + 2*pi, 0.3) != E(0.7, 0.3) on this triangle, so a gamma grid over [0, 2*pi) would miss angles.
    # The refusal comes before the brute force.
    monkeypatch.setattr(cli, "brute_force_max_cut", lambda *args: pytest.fail("the brute force ran"))
    graph = write(tmp_path, "triangle.txt", "3 3\n0 1 0.5\n1 2 1.3\n0 2 1.0\n")
    assert main(["solve", "--graph", graph, "--p", "1", "--config", write(tmp_path, "conf.txt", TINY_CONFIG)]) == 1
    assert "2*pi gamma period" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, route, message",
    [
        (G4_TEXT, ["--p", "0"], "circuit depth must be >= 1, got 0"),
        ("12 1\n0 11 1\n", ["--backend", "gate"], "26 qubits exceed the 24-qubit dense limit"),
    ],
    ids=["depth-0", "gate-register-over-24-qubits"],
)
def test_main_solve_refuses_a_bad_instance_before_the_brute_force(tmp_path, capsys, monkeypatch, text, route, message):
    monkeypatch.setattr(cli, "brute_force_max_cut", lambda *args: pytest.fail("the brute force ran"))
    assert main(["solve", "--graph", write(tmp_path, "g.txt", text), *route]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("shots", ["0", "-3"])
def test_main_solve_refuses_bad_shots_before_any_stage(tmp_path, capsys, monkeypatch, shots):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve stage ran before the shots check")

    for stage in ("brute_force_max_cut", "_optimize_batched", "refine"):
        monkeypatch.setattr(cli, stage, unreachable)
    graph = write(tmp_path, "g4.txt", G4_TEXT)
    assert main(["solve", "--graph", graph, "--p", "2", "--shots", shots]) == 1
    assert capsys.readouterr().err == f"error: shots must be >= 1, got {shots}\n"


def test_run_solve_refuses_a_non_integer_shot_count_before_any_stage(monkeypatch):
    # argparse parses --shots as an int, so only an API caller can pass a float.
    monkeypatch.setattr(cli, "brute_force_max_cut", lambda *args: pytest.fail("the brute force ran"))
    protes_cfg, refine_cfg, shots_seed = build_configs({}, 0)
    for shots in (10.5, 2.0):
        with pytest.raises(ValueError, match=f"^shots must be an integer, got {shots}$"):
            cli.run_solve(G4, 2, Backend.DIAGONAL, protes_cfg, refine_cfg, 0, shots, shots_seed)


def test_run_solve_reports_a_numpy_integer_shot_count():
    protes_cfg, refine_cfg, shots_seed = build_configs(parse_config_text(TINY_CONFIG), 0)
    report, _, _ = cli.run_solve(G4, 1, Backend.DIAGONAL, protes_cfg, refine_cfg, 0, np.int64(64), shots_seed)
    assert json.loads(report_to_json(report))["shots"] == 64


def test_default_search_batches_reach_the_plan_as_one_stack(monkeypatch):
    # A default batch at p=4 on G4 is up to 20 fresh rows of 256 amplitudes, within STACK_AMPLITUDES: each must
    # reach _Plan.run as one call, not as a 16-row and a 4-row stack.
    real_run, rows = simulator._Plan.run, []

    def recording_run(plan, thetas):
        rows.append(len(thetas))
        return real_run(plan, thetas)

    monkeypatch.setattr(simulator._Plan, "run", recording_run)
    protes_cfg, refine_cfg, shots_seed = build_configs({"max_evals": 10}, 0)
    assert protes_cfg == dataclasses.replace(ProtesConfig(), seed=protes_cfg.seed)
    _, trace, result = cli.run_solve(G4, 4, Backend.DIAGONAL, protes_cfg, refine_cfg, 0, 64, shots_seed)
    # Refinement runs one row per evaluation, and the final state one more.
    search, rest = rows[: -result.evals - 1], rows[-result.evals - 1 :]
    assert rest == [1] * (result.evals + 1)
    evals = [0] + [record.evals for record in trace.records]
    assert search == [now - before for before, now in zip(evals, evals[1:]) if now > before]
    assert search[0] == 20 and trace.total_evals == protes_cfg.budget


def test_main_solve_refuses_a_small_refinement_budget_before_any_stage(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve stage ran before the refinement budget check")

    for stage in ("brute_force_max_cut", "_optimize_batched"):
        monkeypatch.setattr(cli, stage, unreachable)
    graph = write(tmp_path, "k8.txt", "8 28\n" + "\n".join(f"{i} {j} 1" for i in range(8) for j in range(i + 1, 8)))
    config = write(tmp_path, "conf.txt", "max_evals = 5\nm = 200\n")
    # A p=2 simplex and one step take 2 * 2 + 2 = 6 evaluations; refine words the refusal the same way.
    assert main(["solve", "--graph", graph, "--p", "2", "--config", config]) == 1
    message = "budget 5 below the 6 evals a simplex needs"
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli.refine(lambda theta: 0.0, np.zeros(4), cli.RefineConfig(max_evals=5))


def test_main_solve_refuses_a_negative_seed_from_either_route(tmp_path, capsys):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    config = write(tmp_path, "conf.txt", TINY_CONFIG + "seed = -1\n")
    for route in (["--seed", "-1"], ["--config", config]):
        assert main(["solve", "--graph", graph, "--p", "1", *route]) == 1
        assert capsys.readouterr().err == "error: master seed must be >= 0, got -1\n"


def test_main_reports_memory_errors(tmp_path, capsys, monkeypatch):
    # A solve whose search cannot allocate its arrays ends in an error line, not a traceback.
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    message = "Unable to allocate 74.5 GiB for an array with shape (1, 100, 100000000) and data type float64"
    for exc, err in ((MemoryError(message), message), (MemoryError(), "MemoryError")):

        def out_of_memory(*args, exc=exc, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "_optimize_batched", out_of_memory)
        assert main(["solve", "--graph", graph, "--p", "1"]) == 1
        assert capsys.readouterr().err == f"error: {err}\n"


def test_main_missing_file_and_bad_usage(tmp_path, capsys):
    assert main(["solve", "--graph", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


def test_main_solve_rejects_non_finite_config_float(tmp_path, capsys):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    config = write(tmp_path, "conf.txt", TINY_CONFIG + "tol = nan\n")
    assert main(["solve", "--graph", graph, "--p", "1", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be finite")


def test_main_default_shots_constant():
    assert DEFAULT_SHOTS == 4096
