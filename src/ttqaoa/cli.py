"""Command-line pipelines over the solver stack.

solve      brute-force baseline, global grid search, simplex refinement,
           final shot sampling; emits a JSON report.
landscape  depth-1 energy scan over the (gamma, beta) square; emits CSV.
hist       measurement histogram for a given angle vector; emits CSV.
brute      exact max-k-cut by enumeration; emits JSON.

Reports are canonical: keys sorted, floats in repr form, no timestamps, so a
rerun with the same inputs and seed is byte-identical.  Wall-clock timings
go to stderr only.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable, Sequence

import numpy as np

from .graph import Graph, approximation_ratio, brute_force_max_cut, cut_value, load_graph, total_weight
# optimize and expectation are not called here but stay cli attributes: perfbench/tracing.py wraps them by name.
from .protes import OptimizationTrace, ProtesConfig, _optimize_batched, optimize, trace_to_csv
from .qaoa_model import check_gamma_period, cut_from_energy, decode_bitstring, format_bitstring, index_to_angles
from .refine import RefineConfig, RefineResult, refine
from .simulator import (
    Backend,
    ParameterVector,
    _energies,
    _Plan,
    energy_grid,
    expectation,
    make_instance,
    run_qaoa,
    sample_counts,
)
from .tt import save_tt_text

DEFAULT_SHOTS = 4096
DEFAULT_RESOLUTION = 100
TOP_COUNT_ROWS = 16

# Stage keys of a solve config and the field each sets, cast to its default's type; "seed" goes to resolve_seed.
_CONFIG_FIELDS = {
    "R": (ProtesConfig, "rank"),
    "K": (ProtesConfig, "batch_size"),
    "k": (ProtesConfig, "elite_count"),
    "k_gd": (ProtesConfig, "ascent_steps"),
    "lambda": (ProtesConfig, "learning_rate"),
    "N": (ProtesConfig, "nodes_per_dim"),
    "m": (ProtesConfig, "budget"),
    "max_evals": (RefineConfig, "max_evals"),
    "initial_step": (RefineConfig, "initial_step"),
    "tol": (RefineConfig, "tol"),
}


def parse_config_text(text: str) -> dict[str, float]:
    """Flat key = value lines; '#' starts a comment; unknown and repeated keys rejected."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key != "seed" and key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        cast = int if key == "seed" else type(getattr(*_CONFIG_FIELDS[key]))
        try:
            out[key] = cast(value)
        except ValueError:
            raise ValueError(f"config line {lineno}: {key} takes {cast.__name__} values, got {value!r}") from None
    return out


def load_config(path: str | None) -> dict[str, float]:
    if path is None:
        return {}
    with open(path) as fh:
        return parse_config_text(fh.read())


def derive_seeds(master: int) -> tuple[int, int, int]:
    """Independent child seeds for the search, refinement, and shot stages."""
    state = np.random.SeedSequence(master).generate_state(3)
    return int(state[0]), int(state[1]), int(state[2])


def resolve_seed(cli_seed: int | None, raw: dict[str, float]) -> int:
    if cli_seed is not None:
        return cli_seed
    return int(raw.get("seed", 0))


def build_configs(raw: dict[str, float], master: int) -> tuple[ProtesConfig, RefineConfig, int]:
    protes_seed, refine_seed, shots_seed = derive_seeds(master)
    fields = {ProtesConfig: {"seed": protes_seed}, RefineConfig: {"seed": refine_seed}}
    for key, value in raw.items():
        if key in _CONFIG_FIELDS:
            cls, name = _CONFIG_FIELDS[key]
            fields[cls][name] = value
    return ProtesConfig(**fields[ProtesConfig]), RefineConfig(**fields[RefineConfig]), shots_seed


def _graph_summary(g: Graph) -> dict[str, float]:
    return {"n": g.n, "edges": len(g.edges), "total_weight": total_weight(g)}


def _energy_objective(plan: _Plan) -> Callable[[np.ndarray], float]:
    return lambda theta: float(_energies(plan, theta[None])[0])


def _count_rows(g: Graph, counts: dict[int, int], limit: int) -> list[dict[str, object]]:
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = []
    for z, c in ranked[:limit]:
        coloring = decode_bitstring(z, g.n)
        rows.append(
            {
                "bitstring": format_bitstring(z, g.n),
                "count": c,
                "coloring": list(coloring),
                "cut": cut_value(g, coloring),
            }
        )
    return rows


def run_solve(
    g: Graph,
    depth: int,
    backend: Backend,
    protes_cfg: ProtesConfig,
    refine_cfg: RefineConfig,
    master_seed: int,
    shots: int,
    shots_seed: int,
) -> tuple[dict[str, object], OptimizationTrace, RefineResult]:
    """Full pipeline on one graph; returns the report plus stage results."""
    t0 = time.perf_counter()
    colors, optimal = brute_force_max_cut(g, 3)
    if optimal <= 0.0:
        raise ValueError("optimal cut is zero; approximation ratio undefined")
    t1 = time.perf_counter()
    inst = make_instance(g, depth, backend)
    check_gamma_period(inst.cost)
    plan = _Plan(inst)

    def evaluate(idxs: list[tuple[int, ...]]) -> np.ndarray:
        return _energies(plan, index_to_angles(np.array(idxs), protes_cfg.nodes_per_dim))

    trace = _optimize_batched(evaluate, 2 * depth, protes_cfg)
    t2 = time.perf_counter()
    search_theta = index_to_angles(trace.best_index, protes_cfg.nodes_per_dim)
    result = refine(_energy_objective(plan), search_theta, refine_cfg)
    t3 = time.perf_counter()
    (state,), _ = plan.run(result.theta[None])
    del plan  # frees the scratch buffer; state keeps the other
    counts = sample_counts(state, shots, np.random.default_rng(shots_seed), color_dim=4**g.n)
    t4 = time.perf_counter()

    search_cut = cut_from_energy(trace.best_value, g)
    final_cut = cut_from_energy(result.value, g)
    report: dict[str, object] = {
        "command": "solve",
        "graph": _graph_summary(g),
        "depth": depth,
        "backend": backend.value,
        "seed": master_seed,
        "shots": shots,
        "protes_config": dataclasses.asdict(protes_cfg),
        "refine_config": dataclasses.asdict(refine_cfg),
        "optimal_cut": optimal,
        "optimal_coloring": list(colors),
        "protes": {
            "energy": trace.best_value,
            "expected_cut": search_cut,
            "ratio": approximation_ratio(search_cut, optimal).ratio,
            "evals": trace.total_evals,
            "iterations": len(trace.records),
            "diagnostics": dict(trace.diagnostics),
        },
        "refine": {
            "energy": result.value,
            "expected_cut": final_cut,
            "ratio": approximation_ratio(final_cut, optimal).ratio,
            "evals": result.evals,
        },
        "theta": [float(x) for x in result.theta],
        "top_counts": _count_rows(g, counts, TOP_COUNT_ROWS),
    }
    print(
        f"timings: brute={t1 - t0:.2f}s search={t2 - t1:.2f}s "
        f"refine={t3 - t2:.2f}s sample={t4 - t3:.2f}s",
        file=sys.stderr,
    )
    return report, trace, result


def report_to_json(report: dict[str, object]) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def landscape_csv(g: Graph, resolution: int, backend: Backend) -> str:
    """Depth-1 energy over the half-open angle grid, gamma outer, beta inner."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    inst = make_instance(g, 1, backend)
    angles = index_to_angles(np.arange(resolution), resolution)
    energies = energy_grid(inst, angles, angles).tolist()
    angles = angles.tolist()
    lines = ["gamma,beta,energy"]
    for gamma, row in zip(angles, energies):
        lines.extend(f"{gamma!r},{beta!r},{energy!r}" for beta, energy in zip(angles, row))
    return "\n".join(lines) + "\n"


def hist_csv(g: Graph, theta: Sequence[float], shots: int, seed: int, backend: Backend) -> str:
    """Counts for every observed bitstring, heaviest first, with decoded cuts."""
    params = ParameterVector.from_flat(theta)
    state = run_qaoa(make_instance(g, params.p, backend), params)
    counts = sample_counts(state, shots, np.random.default_rng(seed), color_dim=4**g.n)
    lines = ["bitstring,count,coloring,cut"]
    for row in _count_rows(g, counts, len(counts)):
        coloring = "".join(str(c) for c in row["coloring"])
        lines.append(f"{row['bitstring']},{row['count']},{coloring},{row['cut']!r}")
    return "\n".join(lines) + "\n"


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_solve(g: Graph, args: argparse.Namespace) -> None:
    raw = load_config(args.config)
    master = resolve_seed(args.seed, raw)
    protes_cfg, refine_cfg, shots_seed = build_configs(raw, master)
    report, trace, _ = run_solve(
        g, args.p, Backend(args.backend), protes_cfg, refine_cfg, master, args.shots, shots_seed
    )
    _write_text(report_to_json(report), args.out)
    if args.trace_out is not None:
        _write_text(trace_to_csv(trace), args.trace_out)
    if args.tt_out is not None:
        save_tt_text(trace.tt, args.tt_out)


def cmd_landscape(g: Graph, args: argparse.Namespace) -> None:
    _write_text(landscape_csv(g, args.resolution, Backend(args.backend)), args.out)


def cmd_hist(g: Graph, args: argparse.Namespace) -> None:
    if (args.theta is None) == (args.theta_file is None):
        raise ValueError("provide exactly one of --theta or --theta-file")
    if args.theta is not None:
        tokens = args.theta.replace(",", " ").split()
    else:
        with open(args.theta_file) as fh:
            tokens = fh.read().split()
    theta = [float(tok) for tok in tokens]
    _write_text(hist_csv(g, theta, args.shots, args.seed, Backend(args.backend)), args.out)


def cmd_brute(g: Graph, args: argparse.Namespace) -> None:
    colors, optimal = brute_force_max_cut(g, args.k)
    report = {
        "command": "brute",
        "graph": _graph_summary(g),
        "k": args.k,
        "optimal_cut": optimal,
        "coloring": list(colors),
    }
    _write_text(report_to_json(report), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttqaoa",
        description="Hybrid grid-search plus simplex optimization of max-3-cut circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, about: str, backend: bool = True) -> argparse.ArgumentParser:
        """A subcommand with --graph and --out, and --backend unless told otherwise."""
        cmd = sub.add_parser(name, help=about)
        cmd.add_argument("--graph", required=True, help="edge-list file")
        if backend:
            cmd.add_argument("--backend", choices=[b.value for b in Backend], default=Backend.DIAGONAL.value)
        cmd.add_argument("--out", default=None, help="output path (default stdout)")
        cmd.set_defaults(func=func)
        return cmd

    solve = command("solve", cmd_solve, "full pipeline: brute force, grid search, refinement, sampling")
    solve.add_argument("--p", type=int, default=4, help="circuit depth (default 4)")
    solve.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    solve.add_argument("--seed", type=int, default=None, help="master seed (default: config value or 0)")
    solve.add_argument("--config", default=None, help="key = value hyperparameter file")
    solve.add_argument("--trace-out", default=None, help="write search trace CSV here")
    solve.add_argument("--tt-out", default=None, help="write final tensor-train checkpoint here")

    landscape = command("landscape", cmd_landscape, "depth-1 energy scan over the angle square")
    landscape.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)

    hist = command("hist", cmd_hist, "measurement histogram at a fixed angle vector")
    hist.add_argument("--theta", default=None, help="comma- or space-separated angles, gammas then betas")
    hist.add_argument("--theta-file", default=None, help="file of whitespace-separated angles")
    hist.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    hist.add_argument("--seed", type=int, default=0)

    brute = command("brute", cmd_brute, "exact max-k-cut by enumeration", backend=False)
    brute.add_argument("--k", type=int, default=3, help="color count (default 3)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(load_graph(args.graph), args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
