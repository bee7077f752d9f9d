"""Benchmark runner for ttqaoa: one workload, one process, metrics as JSON.

    python3 perfbench/run.py --workload solve_g4 --seed 1 --seconds 30 --trace 0

Inputs come from --seed only.  The run runs one warm-up operation, then
runs operations back to back (a closed loop, one caller) for --seconds,
checking every output; set-up is timed on its own between operations.  While
an untraced operation runs, a fixed reference loop is timed every few
milliseconds to gauge the host's speed.  Human-readable metric lines go
first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are the
end-to-end ones and no wrappers are installed.  With --trace 1 each input
runs twice, once plain and once with every layer wrapped (alternating which
goes first), and the metrics are the per-layer ones plus the tracing
overhead; the spans are written to .perfbench/spans-<workload>.csv.
"""
from __future__ import annotations

import os

# Pinned before numpy loads so that no BLAS or OpenMP pool competes for the CPUs.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SETUP_REPS = 15
SETUP_SHARE = 0.1
GAUGE_INTERVAL_S = 0.005
GAUGE_LOOP = 300
MIN_OPS = 2
TAIL_SAMPLES = 10
# glibc sysconf names for the data cache sizes, which the os module does not expose.
_SC_CACHE = {"l1d": 188, "l2": 191, "l3": 194}


def environment(seeds: list[int]) -> dict[str, object]:
    import numpy

    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": {name: libc.sysconf(code) for name, code in _SC_CACHE.items()},
        "threads_env": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "op_seeds": seeds,
    }


def tail(times: list[float]) -> tuple[str, float | None]:
    """Highest percentile above p50 with at least TAIL_SAMPLES samples beyond it, if any."""
    q = math.floor(100 * (1 - TAIL_SAMPLES / len(times)))
    if q <= 50:
        return "op_s.tail", None
    return f"op_s.p{q}", statistics.quantiles(times, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostGauge:
    """Times a fixed pure-Python loop every GAUGE_INTERVAL_S while an operation runs.

    A SIGALRM handler runs the loop between two bytecodes of the operation,
    so the samples see the host's speed at the moments the operation ran.
    On the shared 2-CPU machine the benchmark was built on, that speed
    swung by up to 1.5 times over seconds to minutes, with load on the
    host that the container cannot see; the time of an operation followed
    the loop's time during it with a correlation of 0.8 to 0.99.  Each
    sample takes about 17 us, a third of a percent of the operation; its
    time is taken out of the operation's.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(GAUGE_LOOP):
            total += i * i
        self.samples.append((start, time.perf_counter() - start))

    @contextmanager
    def armed(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def timed(self, call) -> tuple[object, float, float]:
        """(result, seconds net of the samples, median loop time) of one call."""
        with self.armed():
            start = time.perf_counter()
            raw = call()
            end = time.perf_counter()
        spent = sum(t for at, t in self.samples if at < end)
        if not self.samples:
            self._sample()
        return raw, end - start - spent, statistics.median(t for _, t in self.samples)


class Run:
    """Timed operations of one workload, with their outcomes and check results."""

    def __init__(self, workload, tracer=None, gauge=None):
        self.workload = workload
        self.tracer = tracer
        self.gauge = gauge
        self.attempted = 0
        self.failed = 0

    def op(self, inp, op_id: int, traced: bool):
        """One checked operation; returns (seconds, outcome, loop seconds).

        The outcome is None if the operation failed; the loop seconds are the
        gauge's median during the operation, None without a gauge.
        """
        self.attempted += 1
        loop_s = None
        try:
            if traced:
                with self.tracer.installed(op_id):
                    start = time.perf_counter()
                    raw = self.workload.call(inp, self.tracer)
                    elapsed = time.perf_counter() - start
            elif self.gauge is not None:
                raw, elapsed, loop_s = self.gauge.timed(lambda: self.workload.call(inp))
            else:
                start = time.perf_counter()
                raw = self.workload.call(inp)
                elapsed = time.perf_counter() - start
            outcome = self.workload.outcome(inp, raw)
            failures = self.workload.check(inp, outcome)
            # Only the numbers are kept, so that the run's memory does not grow with its operation count.
            outcome.value = None
        except Exception:
            failures = [f"raised:\n{traceback.format_exc()}"]
            elapsed = None
        if failures:
            self.failed += 1
            for msg in failures:
                print(f"operation {op_id} check failed: {msg}", file=sys.stderr)
            if traced:
                # Per-layer figures are per successful traced operation.
                self.tracer.drop(op_id)
            return elapsed, None, loop_s
        return elapsed, outcome, loop_s


class SetupTimer:
    """Set-up timed between operations, across the whole run.

    A round sets up each of SETUP_REPS inputs once, timing each set-up, and
    takes from about 1.5 ms (G4) to about 0.2 s (n=8).  Before each
    operation, rounds run until they have taken SETUP_SHARE of the operation
    time so far.  The reported value is the median over the inputs of each
    input's fastest set-up.  On the shared machine the benchmark was built
    on, the host ran in a fast state only in bursts of a few milliseconds and
    was otherwise up to 1.6 times slower, in a mix that changed from second
    to second; a burst of set-ups timed at one moment read whichever mix it
    hit, while the fastest of many short set-ups spread over the run is
    close to the fast state.
    """

    def __init__(self, workload, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.fastest = [math.inf] * len(inputs)
        self.spent = 0.0

    def round(self) -> None:
        for k, inp in enumerate(self.inputs):
            start = time.perf_counter()
            self.workload.setup(inp)
            elapsed = time.perf_counter() - start
            self.spent += elapsed
            self.fastest[k] = min(self.fastest[k], elapsed)

    def catch_up(self, op_seconds: float) -> None:
        while not self.spent or self.spent < SETUP_SHARE * op_seconds:
            self.round()

    def value(self) -> float | None:
        return statistics.median(self.fastest) if self.spent else None


def measure(workload, seed: int, seconds: float, tracer=None):
    """Warm-up, then the timed loop; untraced, set-up is timed between operations and the host gauged during them.

    Returns the run, the set-up time, the plain and traced (seconds, outcome)
    pairs, the input seeds, and the gauge's median loop time during each
    plain operation.
    """
    trace = tracer is not None
    run = Run(workload, tracer, None if trace else HostGauge())
    stream = workload.inputs(seed)
    run.op(workload.warmup_input(seed), -1, traced=False)
    if trace:
        run.op(workload.warmup_input(seed), -1, traced=True)
        tracer.spans.clear()
    setup_inputs = [next(stream) for _ in range(SETUP_REPS)]
    setup = SetupTimer(workload, setup_inputs)

    plain: list[tuple[float, object]] = []
    traced: list[tuple[float, object]] = []
    seeds: list = []
    loop_s: list[float] = []
    rounds: list[float] = []
    op_seconds = 0.0
    pending = iter(setup_inputs)
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        if len(rounds) >= MIN_OPS and time.perf_counter() + statistics.median(rounds) > deadline:
            break
        inp = next(pending, None) or next(stream)
        seeds.append(workload.seed_of(inp))
        round_start = time.perf_counter()
        if not trace:
            setup.catch_up(op_seconds)
        order = (False, True) if op_id % 2 == 0 else (True, False)
        for is_traced in order if trace else (False,):
            elapsed, outcome, loop = run.op(inp, op_id, is_traced)
            if elapsed is not None:
                op_seconds += elapsed
            if outcome is not None:
                (traced if is_traced else plain).append((elapsed, outcome))
                if loop is not None:
                    loop_s.append(loop)
        rounds.append(time.perf_counter() - round_start)
        op_id += 1
    return run, setup.value(), plain, traced, seeds, loop_s


def end_to_end(setup_s: float, done: list[tuple[float, object]], loop_s: list[float]) -> dict[str, tuple[float, str]]:
    """The metrics in the JSON line: every workload has a value for each, and none is 0."""
    return {
        "setup_s": (setup_s, "s"),
        # Each operation's time in units of the reference loop's time while it ran, which
        # cancels most of the host's speed swings that the seconds themselves carry.
        "op_ref.p50": (statistics.median(t / loop for (t, _), loop in zip(done, loop_s)), "ref"),
        "ratio.p50": (statistics.median(o.ratio for _, o in done), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def printed_only(done: list[tuple[float, object]], loop_s: list[float]) -> list[tuple[str, float | None, str]]:
    """Metrics printed but left out of the JSON line, as (name, value or None, unit or note)."""
    times = [t for t, _ in done]
    label, tail_s = tail(times)
    iterations = sum(o.iterations for _, o in done)
    # TT iterations per second of search-stage time (the whole operation for a bare search).
    search_s = sum(o.search_s or t for t, o in done)
    hits = [o.hit for _, o in done if o.hit is not None]
    return [
        ("op_s.p50", statistics.median(times), f"s (n={len(times)})"),
        (label, tail_s, "s" if tail_s is not None else f"no percentile above p50 has {TAIL_SAMPLES} samples beyond it"),
        ("op_s.min", min(times), "s"),
        ("ref_loop_s.p50", statistics.median(loop_s), "s"),
        # A ratio of sums, so that every second of operation time weighs the same.
        ("evals_per_s", sum(o.evals for _, o in done) / sum(times), "1/s"),
        ("search_iters_per_s", iterations / search_s if iterations else None, "1/s" if iterations else "no search stage"),
        ("hit_rate", sum(hits) / len(hits) if hits else None, "ratio" if hits else "no exact minimizer known"),
    ]


def per_layer(tracer, plain, traced) -> dict[str, tuple[float, str]]:
    totals = tracer.layer_totals()
    ops = len(traced)

    def get(name: str, key: str) -> float:
        return totals[name][key] / ops if name in totals else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in (
        "simulator.apply_mixer", "simulator.apply_phase_diagonal", "simulator.apply_phase_gate_level",
        "simulator.run_qaoa", "simulator.expectation", "simulator.sample_counts",
        "tt.sample_squared_batch", "tt.ascent_step",
    ):
        metrics[f"{name}.calls"] = (get(name, "calls"), "count/op")
        metrics[f"{name}.s"] = (get(name, "s"), "s/op")
    run_calls = get("simulator.run_qaoa", "calls")
    metrics["simulator.run_qaoa.us_per_call"] = (
        1e6 * get("simulator.run_qaoa", "s") / run_calls if run_calls else 0.0, "us",
    )
    mixer_bytes, mixer_s = get("simulator.apply_mixer", "bytes"), get("simulator.apply_mixer", "s")
    metrics["simulator.apply_mixer.bytes_computed"] = (mixer_bytes, "B/op")
    metrics["simulator.apply_mixer.GBps_computed"] = (mixer_bytes / mixer_s / 1e9 if mixer_s else 0.0, "GB/s")
    metrics["qaoa_model.build_cost_diagonal.s"] = (get("qaoa_model.build_cost_diagonal", "s"), "s/op")
    metrics["graph.brute_force_max_cut.s"] = (get("graph.brute_force_max_cut", "s"), "s/op")
    for name in ("protes.optimize", "refine.refine"):
        metrics[f"{name}.s"] = (get(name, "s"), "s/op")
        metrics[f"{name}.self_s"] = (get(name, "self_s"), "s/op")
    outcomes = [o for _, o in traced]
    for key in ("protes.iterations", "protes.cache_hits", "protes.uniform_fallbacks", "protes.clamped_values",
                "protes.fresh_ratio", "refine.evals"):
        unit = "ratio" if key == "protes.fresh_ratio" else "count/op"
        metrics[key] = (sum(o.counts.get(key, 0) for o in outcomes) / ops, unit)
    metrics["cli.run_solve.s"] = (get("cli.run_solve", "s"), "s/op")
    metrics["cli.landscape_csv.s"] = (get("cli.landscape_csv", "s"), "s/op")
    # The objective closure's own work: ParameterVector construction plus the grid-to-angle map.
    metrics["cli.objective.self_s"] = (get("cli.objective", "self_s") + get("cli.index_to_angles", "s"), "s/op")
    metrics["trace.overhead_s"] = (statistics.median(t for t, _ in traced) - statistics.median(t for t, _ in plain), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the ttqaoa program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(workloads.ttqaoa_file).is_relative_to(ROOT / "src"):
        print(f"error: imported ttqaoa from {workloads.ttqaoa_file}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    run, setup_s, plain, traced, seeds, loop_s = measure(workload, args.seed, args.seconds, tracer)
    if not plain or (args.trace and not traced):
        print("error: no operation completed its checks", file=sys.stderr)
        return 1

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment(seeds), sort_keys=True))
    if args.trace:
        metrics = per_layer(run.tracer, plain, traced)
        spans_dir = ROOT / ".perfbench"
        spans_dir.mkdir(exist_ok=True)
        run.tracer.write_csv(spans_dir / f"spans-{workload.name}.csv")
    else:
        metrics = end_to_end(setup_s, plain, loop_s)
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    if args.trace:
        print(f"{'op_s.p50 traced':44s} {statistics.median(t for t, _ in traced):14.6g} s (n={len(traced)})")
        print(f"{'op_s.p50 untraced':44s} {statistics.median(t for t, _ in plain):14.6g} s (n={len(plain)})")
    else:
        for name, value, unit in printed_only(plain, loop_s):
            print(f"{name:44s} {value:14.6g} {unit}" if value is not None else f"{name:44s} {'-':>14s} {unit}")
    print(f"{'fail_rate':44s} {run.failed / run.attempted:14.6g} ratio ({run.failed}/{run.attempted})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
