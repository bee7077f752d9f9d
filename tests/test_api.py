"""Pins the public surface: the names ttqaoa exports, their signatures, and the CLI options.

A failure here means the API or the command line changed; update the tables
only when that change is intended.
"""
import argparse
import inspect

import ttqaoa
from ttqaoa import cli

SIGNATURES = {
    "ApproximationReport": "(optimal_cut: 'float', expected_cut: 'float', ratio: 'float') -> None",
    "CostDiagonal": "(values: 'np.ndarray', n: 'int') -> None",
    "Graph": "(n: 'int', edges: 'tuple[tuple[int, int, float], ...]') -> None",
    "OptimizationTrace": (
        "(records: 'list[IterationRecord]', best_index: 'tuple[int, ...]', best_value: 'float', "
        "total_evals: 'int', tt: 'TTDistribution', diagnostics: 'dict[str, int]' = <factory>, "
        "batch_means: 'list[float]' = <factory>) -> None"
    ),
    "ParameterVector": "(gammas: 'tuple[float, ...]', betas: 'tuple[float, ...]') -> None",
    "ProtesConfig": (
        "(rank: 'int' = 5, batch_size: 'int' = 20, elite_count: 'int' = 10, ascent_steps: 'int' = 5, "
        "learning_rate: 'float' = 0.05, nodes_per_dim: 'int' = 100, budget: 'int' = 1000, "
        "seed: 'int' = 0) -> None"
    ),
    "QaoaInstance": "(graph: 'Graph', depth: 'int', cost: 'CostDiagonal', backend: 'Backend') -> None",
    "RefineConfig": (
        "(max_evals: 'int' = 10000, initial_step: 'float' = 0.1, tol: 'float' = 1e-09, seed: 'int' = 0) -> None"
    ),
    "RefineResult": "(theta: 'np.ndarray', value: 'float', evals: 'int') -> None",
    "TTDistribution": "(cores: 'list[np.ndarray]') -> None",
    "approximation_ratio": "(expected_cut: 'float', optimal_cut: 'float') -> 'ApproximationReport'",
    "ascent_step": (
        "(t: 'TTDistribution', batch: 'Sequence[Sequence[int]]', learning_rate: 'float', "
        "step_count: 'int') -> 'dict[str, int]'"
    ),
    "brute_force_max_cut": "(g: 'Graph', k: 'int') -> 'tuple[tuple[int, ...], float]'",
    "build_cost_diagonal": "(g: 'Graph') -> 'CostDiagonal'",
    "cut_from_energy": "(energy: 'float', g: 'Graph') -> 'float'",
    "cut_value": "(g: 'Graph', colors: 'Sequence[int]') -> 'float'",
    "decode_bitstring": "(z: 'int', n: 'int') -> 'tuple[int, ...]'",
    "decode_vertex": "(bits: 'int') -> 'int'",
    "energy_grid": "(inst: 'QaoaInstance', gammas: 'Sequence[float]', betas: 'Sequence[float]') -> 'np.ndarray'",
    "expectation": "(state: 'np.ndarray', cost: 'CostDiagonal') -> 'float'",
    "format_bitstring": "(z: 'int', n: 'int') -> 'str'",
    "index_to_angles": "(idx: 'Sequence[int]', nodes_per_dim: 'int') -> 'np.ndarray'",
    "interaction_table": "() -> 'np.ndarray'",
    "load_graph": "(path) -> 'Graph'",
    "log_value_grad": "(t: 'TTDistribution', idx: 'Sequence[int]') -> 'list[np.ndarray]'",
    "make_instance": (
        "(graph: 'Graph', depth: 'int', backend: 'Backend' = <Backend.DIAGONAL: 'diagonal'>) -> 'QaoaInstance'"
    ),
    "optimize": (
        "(objective: 'Callable[[tuple[int, ...]], float]', dims: 'int', config: 'ProtesConfig') "
        "-> 'OptimizationTrace'"
    ),
    "parse_edge_list": "(text: 'str') -> 'Graph'",
    "prepare_initial": "(n: 'int', backend: 'Backend' = <Backend.DIAGONAL: 'diagonal'>) -> 'np.ndarray'",
    "random_complete_graph": "(n: 'int', seed: 'int', max_weight: 'int' = 4) -> 'Graph'",
    "random_tt": "(d: 'int', n_nodes: 'int', rank: 'int', rng: 'np.random.Generator') -> 'TTDistribution'",
    "refine": (
        "(objective: 'Callable[[np.ndarray], float]', start: 'Sequence[float]', config: 'RefineConfig') "
        "-> 'RefineResult'"
    ),
    "run_qaoa": "(inst: 'QaoaInstance', theta: 'ParameterVector') -> 'np.ndarray'",
    "sample": (
        "(t: 'TTDistribution', rng: 'np.random.Generator', marginals: 'list[np.ndarray] | None' = None, "
        "diagnostics: 'dict[str, int] | None' = None) -> 'tuple[int, ...]'"
    ),
    "sample_counts": (
        "(state: 'np.ndarray', shots: 'int', rng: 'np.random.Generator', color_dim: 'int | None' = None) "
        "-> 'dict[int, int]'"
    ),
    "sample_squared": (
        "(t: 'TTDistribution', rng: 'np.random.Generator', grams: 'list[np.ndarray] | None' = None, "
        "diagnostics: 'dict[str, int] | None' = None) -> 'tuple[int, ...]'"
    ),
    "total_weight": "(g: 'Graph') -> 'float'",
    "trace_to_csv": "(trace: 'OptimizationTrace') -> 'str'",
    "tt_value": "(t: 'TTDistribution', idx: 'Sequence[int]') -> 'float'",
}

CLI_OPTIONS = {
    "solve": [
        "--backend", "--config", "--graph", "--help", "--out", "--p", "--seed", "--shots",
        "--trace-out", "--tt-out", "-h",
    ],
    "landscape": ["--backend", "--graph", "--help", "--out", "--resolution", "-h"],
    "hist": [
        "--backend", "--graph", "--help", "--out", "--seed", "--shots", "--theta", "--theta-file", "-h",
    ],
    "brute": ["--graph", "--help", "--k", "--out", "-h"],
}


def test_exported_names():
    exported = {
        name
        for name in dir(ttqaoa)
        if not name.startswith("_") and not inspect.ismodule(getattr(ttqaoa, name))
    }
    assert exported == set(SIGNATURES) | {"Backend", "GraphFormatError"}
    assert ttqaoa.__version__ == "0.1.0"


def test_exported_signatures():
    for name, expected in SIGNATURES.items():
        assert str(inspect.signature(getattr(ttqaoa, name))) == expected, name
    assert [b.value for b in ttqaoa.Backend] == ["diagonal", "gate"]
    assert issubclass(ttqaoa.GraphFormatError, ValueError)


def test_cli_subcommand_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(opt for action in subparser._actions for opt in action.option_strings)
        for name, subparser in sub.choices.items()
    }
    assert options == CLI_OPTIONS
