"""The four benchmark workloads: inputs from a seed, one operation, its checks.

Each workload turns the workload seed into an endless, reproducible stream
of operation inputs.  ``setup`` repeats the work one operation does before
its first objective evaluation, so the runner can time it on its own;
``call`` is the timed operation, a single call into the public ttqaoa API;
``outcome`` reduces its result to the numbers the metrics need, and
``check`` recomputes what it can of the output independently and returns
one message per failed check.  Only ``call`` is timed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from ttqaoa import __file__ as ttqaoa_file, cli, protes
from ttqaoa.cli import build_configs
from ttqaoa.graph import Graph, brute_force_max_cut, load_graph
from ttqaoa.protes import ProtesConfig
from ttqaoa.refine import RefineConfig
from ttqaoa.qaoa_model import cut_from_energy
from ttqaoa.simulator import Backend, ParameterVector, expectation, make_instance, run_qaoa

ROOT = Path(__file__).resolve().parent.parent
G4_PATH = ROOT / "graphs" / "g4.edgelist"
ENERGY_TOL = 1e-9
LANDSCAPE_TOL = 1e-10
_SEARCH_STAGE = re.compile(r"timings: .*\bsearch=([\d.]+)s")


@dataclass
class Outcome:
    """What one operation returned, reduced to the numbers the metrics need."""

    value: Any
    evals: int
    ratio: float
    iterations: int = 0
    search_s: float = 0.0
    hit: bool | None = None
    counts: dict[str, float] = field(default_factory=dict)


def random_graph(n: int, edge_count: int, seed: int) -> Graph:
    """edge_count distinct vertex pairs with integer weights 1-4.

    The edge count is fixed so that the gate backend's cost, which grows
    with the number of edges, does not vary from one seed to the next.
    """
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(n), 2))
    chosen = sorted(rng.choice(len(pairs), size=edge_count, replace=False))
    return Graph(n, tuple((*pairs[k], float(rng.integers(1, 5))) for k in chosen))


def _search_counts(trace, batch_size: int) -> dict[str, float]:
    drawn = len(trace.records) * batch_size
    return {
        "protes.iterations": len(trace.records),
        "protes.cache_hits": trace.diagnostics.get("cache_hits", 0),
        "protes.uniform_fallbacks": trace.diagnostics.get("uniform_fallbacks", 0),
        "protes.clamped_values": trace.diagnostics.get("clamped_values", 0),
        "protes.fresh_ratio": trace.total_evals / drawn,
    }


def _monotone(trace) -> bool:
    best = math.inf
    for rec in trace.records:
        if rec.best_value > best:
            return False
        best = rec.best_value
    return True


@dataclass(frozen=True)
class SolveInput:
    graph_seed: int | None
    graph: Graph
    depth: int
    protes_cfg: ProtesConfig
    refine_cfg: RefineConfig
    master: int
    shots_seed: int


class Solve:
    """``run_solve`` on the diagonal backend with the default shot count."""

    def __init__(self, name: str, depth: int, raw_config: dict[str, int], n: int | None, edge_count: int = 0):
        self.name = name
        self.depth = depth
        self.raw = raw_config
        self.n = n
        self.edge_count = edge_count

    def _graph(self, graph_seed: int | None) -> Graph:
        if self.n is None:
            return load_graph(G4_PATH)
        return random_graph(self.n, self.edge_count, graph_seed)

    def _input(self, rng: np.random.Generator, raw: dict[str, int]) -> SolveInput:
        graph_seed = None if self.n is None else int(rng.integers(2**31))
        master = int(rng.integers(2**31))
        protes_cfg, refine_cfg, shots_seed = build_configs(raw, master)
        return SolveInput(graph_seed, self._graph(graph_seed), self.depth, protes_cfg, refine_cfg, master, shots_seed)

    def inputs(self, seed: int) -> Iterator[SolveInput]:
        rng = np.random.default_rng(seed)
        while True:
            yield self._input(rng, self.raw)

    def warmup_input(self, seed: int) -> SolveInput:
        """Same code path with one search batch and a minimal simplex budget."""
        return self._input(np.random.default_rng([seed, 1]), {"m": 20, "max_evals": 2 * self.depth + 2})

    def seed_of(self, inp: SolveInput):
        return inp.master if inp.graph_seed is None else [inp.graph_seed, inp.master]

    def setup(self, inp: SolveInput) -> None:
        g = self._graph(inp.graph_seed)
        brute_force_max_cut(g, 3)
        make_instance(g, inp.depth, Backend.DIAGONAL)

    def call(self, inp: SolveInput, tracer=None):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            report, trace, result = cli.run_solve(
                inp.graph, inp.depth, Backend.DIAGONAL, inp.protes_cfg, inp.refine_cfg,
                inp.master, cli.DEFAULT_SHOTS, inp.shots_seed,
            )
        return report, trace, result, stderr.getvalue()

    def outcome(self, inp: SolveInput, raw) -> Outcome:
        report, trace, result, stderr = raw
        # run_solve reports its stage times only on stderr; the search stage sets search_iters_per_s.
        stage = _SEARCH_STAGE.search(stderr)
        if stage is None:
            raise RuntimeError(f"run_solve printed no search-stage timing: {stderr!r}")
        counts = _search_counts(trace, inp.protes_cfg.batch_size)
        counts["refine.evals"] = result.evals
        return Outcome(
            value=(report, trace, result),
            evals=trace.total_evals + result.evals,
            ratio=report["refine"]["ratio"],
            iterations=len(trace.records),
            search_s=float(stage.group(1)),
            counts=counts,
        )

    def check(self, inp: SolveInput, out: Outcome) -> list[str]:
        report, trace, result = out.value
        failures = []
        inst = make_instance(inp.graph, inp.depth, Backend.DIAGONAL)
        energy = expectation(run_qaoa(inst, ParameterVector.from_flat(report["theta"])), inst.cost)
        if abs(energy - report["refine"]["energy"]) > ENERGY_TOL * max(1.0, abs(energy)):
            failures.append(f"refined energy {report['refine']['energy']!r} != recomputed {energy!r}")
        if not report["protes"]["ratio"] - 1e-12 <= report["refine"]["ratio"] <= 1.0 + 1e-12:
            failures.append(f"ratios out of order: search {report['protes']['ratio']}, refined {report['refine']['ratio']}")
        if not report["protes"]["evals"] == trace.total_evals <= inp.protes_cfg.budget:
            failures.append(f"search evals {trace.total_evals} over budget {inp.protes_cfg.budget}")
        if not report["refine"]["evals"] == result.evals <= inp.refine_cfg.max_evals:
            failures.append(f"refine evals {result.evals} over budget {inp.refine_cfg.max_evals}")
        return failures


QUADRATIC_TARGET = (3, 7, 1, 8, 5, 2)
QUADRATIC_NODES = 10
# Largest value of the quadratic on the grid, for the share of its range a search closes.
QUADRATIC_MAX = float(sum(max(c, QUADRATIC_NODES - 1 - c) ** 2 for c in QUADRATIC_TARGET))


class _Abort(Exception):
    pass


def quadratic(idx) -> float:
    return float(sum((i - c) ** 2 for i, c in zip(idx, QUADRATIC_TARGET)))


class SearchQuadratic:
    """``optimize`` on the separable quadratic of the README's criterion 6."""

    name = "search_quadratic"
    budget = 300

    def _config(self, seed: int, budget: int) -> ProtesConfig:
        return ProtesConfig(
            rank=5, batch_size=30, elite_count=3, ascent_steps=20, learning_rate=0.3,
            nodes_per_dim=QUADRATIC_NODES, budget=budget, seed=seed,
        )

    def inputs(self, seed: int) -> Iterator[ProtesConfig]:
        rng = np.random.default_rng(seed)
        while True:
            yield self._config(int(rng.integers(2**31)), self.budget)

    def warmup_input(self, seed: int) -> ProtesConfig:
        return self._config(int(np.random.default_rng([seed, 1]).integers(2**31)), 30)

    def seed_of(self, inp: ProtesConfig) -> int:
        return inp.seed

    def setup(self, inp: ProtesConfig) -> None:
        """Everything optimize does before its first objective call."""

        def abort(idx):
            raise _Abort

        try:
            protes.optimize(abort, len(QUADRATIC_TARGET), inp)
        except _Abort:
            return
        raise RuntimeError("optimize returned without evaluating the objective")

    def call(self, inp: ProtesConfig, tracer=None):
        calls = [0]

        def objective(idx):
            calls[0] += 1
            return quadratic(idx)

        if tracer is not None:
            objective = tracer.wrap(objective, "bench.objective")
        return protes.optimize(objective, len(QUADRATIC_TARGET), inp), calls[0]

    def outcome(self, inp: ProtesConfig, raw) -> Outcome:
        trace, _ = raw
        return Outcome(
            value=raw,
            evals=trace.total_evals,
            ratio=1.0 - trace.best_value / QUADRATIC_MAX,
            iterations=len(trace.records),
            hit=trace.best_index == QUADRATIC_TARGET,
            counts=_search_counts(trace, inp.batch_size),
        )

    def check(self, inp: ProtesConfig, out: Outcome) -> list[str]:
        trace, calls = out.value
        failures = []
        if not _monotone(trace):
            failures.append("search trace is not monotone")
        if not calls == trace.total_evals <= inp.budget:
            failures.append(f"{calls} objective calls, {trace.total_evals} reported, budget {inp.budget}")
        if quadratic(trace.best_index) != trace.best_value:
            failures.append(f"best value {trace.best_value} is not the objective at {trace.best_index}")
        return failures


@dataclass(frozen=True)
class LandscapeInput:
    graph_seed: int
    graph: Graph


class LandscapeGate:
    """``landscape_csv`` on the gate backend over small random graphs."""

    name = "landscape_gate"
    n = 5
    edge_count = 6
    resolution = 12
    checked_cells = 4

    def _input(self, graph_seed: int) -> LandscapeInput:
        return LandscapeInput(graph_seed, random_graph(self.n, self.edge_count, graph_seed))

    def inputs(self, seed: int) -> Iterator[LandscapeInput]:
        rng = np.random.default_rng(seed)
        while True:
            yield self._input(int(rng.integers(2**31)))

    def warmup_input(self, seed: int) -> LandscapeInput:
        return self._input(int(np.random.default_rng([seed, 1]).integers(2**31)))

    def seed_of(self, inp: LandscapeInput) -> int:
        return inp.graph_seed

    def setup(self, inp: LandscapeInput) -> None:
        make_instance(random_graph(self.n, self.edge_count, inp.graph_seed), 1, Backend.GATE)

    def call(self, inp: LandscapeInput, tracer=None) -> str:
        return cli.landscape_csv(inp.graph, self.resolution, Backend.GATE)

    def outcome(self, inp: LandscapeInput, text: str) -> Outcome:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        energies = [float(row[2]) for row in rows]
        _, optimal = brute_force_max_cut(inp.graph, 3)
        return Outcome(
            value=(text, rows),
            evals=self.resolution**2,
            ratio=cut_from_energy(min(energies), inp.graph) / optimal,
        )

    def check(self, inp: LandscapeInput, out: Outcome) -> list[str]:
        text, rows = out.value
        if not text.startswith("gamma,beta,energy\n") or len(rows) != self.resolution**2:
            return [f"landscape has {len(rows)} rows, expected {self.resolution**2}"]
        failures = []
        inst = make_instance(inp.graph, 1, Backend.DIAGONAL)
        cells = np.random.default_rng(inp.graph_seed).choice(len(rows), size=self.checked_cells, replace=False)
        for cell in cells:
            gamma, beta, energy = (float(x) for x in rows[cell])
            expected = expectation(run_qaoa(inst, ParameterVector((gamma,), (beta,))), inst.cost)
            if abs(energy - expected) > LANDSCAPE_TOL:
                failures.append(f"cell {cell}: gate energy {energy!r} vs diagonal {expected!r}")
        return failures


# Each operation does a fixed amount of work, so its time does not hang on the seed:
# refinement on G4 always spends its 600 evaluations (unbounded it takes 783 or more),
# and the n=8 budgets keep one solve near 2.5 s so a run holds about a dozen of them.
WORKLOADS = {
    w.name: w
    for w in (
        Solve("solve_g4", depth=4, raw_config={"max_evals": 600}, n=None),
        Solve("solve_n8", depth=2, raw_config={"m": 60, "max_evals": 40}, n=8, edge_count=17),
        SearchQuadratic(),
        LandscapeGate(),
    )
}
