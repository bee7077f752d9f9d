"""In-memory span tracing of the ttqaoa layers, installed only for traced runs.

Each public function is wrapped at the module attribute its caller looks it
up through (``cli.run_qaoa`` for the pipelines, ``simulator.apply_mixer``
inside ``run_qaoa``, ``protes.ascent_step`` inside ``optimize``), so the
program itself is not edited.  A span records its name, parent span,
operation id, start and end; per-layer numbers (calls, seconds, self
seconds) are derived from the spans after the run.  Spans are kept in memory
and written out once, at the end.
"""
from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

from ttqaoa import cli, protes, simulator

COMPLEX_BYTES = 16


def _mixer_bytes(state, beta, n) -> int:
    """Computed, not measured: each of the 2n rotations reads and writes the state once."""
    return 2 * n * 2 * state.size * COMPLEX_BYTES


# (module, attribute, span name, optional count of computed bytes from the call's arguments)
WRAPPED = [
    (cli, "run_solve", "cli.run_solve", None),
    (cli, "landscape_csv", "cli.landscape_csv", None),
    (cli, "brute_force_max_cut", "graph.brute_force_max_cut", None),
    (cli, "make_instance", "simulator.make_instance", None),
    (cli, "optimize", "protes.optimize", None),
    (cli, "refine", "refine.refine", None),
    (cli, "index_to_angles", "cli.index_to_angles", None),
    (cli, "run_qaoa", "simulator.run_qaoa", None),
    (cli, "expectation", "simulator.expectation", None),
    (cli, "sample_counts", "simulator.sample_counts", None),
    (protes, "optimize", "protes.optimize", None),
    (protes, "sample_squared_batch", "tt.sample_squared_batch", None),
    (protes, "ascent_step", "tt.ascent_step", None),
    (simulator, "build_cost_diagonal", "qaoa_model.build_cost_diagonal", None),
    (simulator, "apply_mixer", "simulator.apply_mixer", _mixer_bytes),
    (simulator, "apply_phase_diagonal", "simulator.apply_phase_diagonal", None),
    (simulator, "apply_phase_gate_level", "simulator.apply_phase_gate_level", None),
]


class Tracer:
    """Span store for one process; spans are (id, parent, op, name, start, end, bytes)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float, int]] = []
        self._stack: list[int] = [-1]
        self._next_id = 0
        self.op_id = -1

    def wrap(self, fn: Callable, name: str, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                nbytes = count(*args, **kwargs) if count is not None else 0
                self.spans.append((span_id, parent, self.op_id, name, start, end, nbytes))

        return traced

    @contextmanager
    def installed(self, op_id: int) -> Iterator[None]:
        """Wrap every layer for the duration of one operation, then restore the originals."""
        self.op_id = op_id
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in WRAPPED]
        energy_objective = cli._energy_objective

        def traced_energy_objective(inst):
            return self.wrap(energy_objective(inst), "cli.objective")

        try:
            for module, attr, name, count in WRAPPED:
                setattr(module, attr, self.wrap(getattr(module, attr), name, count))
            cli._energy_objective = traced_energy_objective
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            cli._energy_objective = energy_objective

    def drop(self, op_id: int) -> None:
        self.spans = [span for span in self.spans if span[2] != op_id]

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, s, self_s and bytes per span name, summed over every traced operation."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
        for span_id, _, _, name, start, end, nbytes in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
            entry["bytes"] += nbytes
        return totals

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "op", "name", "start_s", "end_s", "bytes_computed"])
            writer.writerows(self.spans)
