import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ttqaoa.cli import (
    DEFAULT_SHOTS,
    build_configs,
    derive_seeds,
    hist_csv,
    landscape_csv,
    main,
    parse_config_text,
    report_to_json,
    resolve_seed,
)
from ttqaoa.graph import cut_value, load_graph, parse_edge_list, random_complete_graph, total_weight
from ttqaoa.protes import index_to_angles
from ttqaoa.qaoa_model import build_cost_diagonal, cut_from_energy
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


def test_derive_seeds():
    seeds = derive_seeds(0)
    assert seeds == derive_seeds(0)
    assert len(set(seeds)) == 3
    assert seeds != derive_seeds(1)
    oracle = np.random.SeedSequence(0).generate_state(3)
    assert seeds == tuple(int(x) for x in oracle)


def test_resolve_seed_precedence():
    assert resolve_seed(9, {"seed": 4}) == 9
    assert resolve_seed(None, {"seed": 4}) == 4
    assert resolve_seed(None, {}) == 0


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
    """The earlier landscape: one full run_qaoa per grid cell, kept as the byte-for-byte reference."""
    inst = make_instance(g, 1, backend)
    angles = index_to_angles(np.arange(resolution), resolution)
    lines = ["gamma,beta,energy"]
    for gamma in angles:
        gamma = float(gamma)
        for beta in angles:
            beta = float(beta)
            energy = expectation(run_qaoa(inst, ParameterVector((gamma,), (beta,))), inst.cost)
            lines.append(f"{gamma!r},{beta!r},{energy!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "graph, resolution, backend",
    [
        # 256 amplitudes: the 7 betas fit in one call under the 16-row cap.
        (G4, 7, Backend.DIAGONAL),
        # 1,024-amplitude color block: 4-row calls, and a 1-row tail.
        (K5_WEIGHTED, 5, Backend.GATE),
        # 4,096 amplitudes and more: one row per call.
        (random_complete_graph(6, 11), 4, Backend.DIAGONAL),
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


def test_main_hist_theta_errors(tmp_path, capsys):
    graph = write(tmp_path, "edge.txt", EDGE_TEXT)
    theta_file = write(tmp_path, "theta.txt", "0.3 0.7\n")
    assert main(["hist", "--graph", graph]) == 1
    assert main(["hist", "--graph", graph, "--theta", "0.1,0.2", "--theta-file", theta_file]) == 1
    assert main(["hist", "--graph", graph, "--theta", "0.1,0.2,0.3"]) == 1
    assert main(["hist", "--graph", graph, "--theta", ""]) == 1
    capsys.readouterr()


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
