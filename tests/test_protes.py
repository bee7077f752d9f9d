import math

import numpy as np
import pytest

from ttqaoa import protes
from ttqaoa.graph import parse_edge_list
from ttqaoa.protes import (
    ProtesConfig,
    _optimize_batched,
    evaluation_plan,
    optimize,
    trace_to_csv,
)
from ttqaoa.qaoa_model import cut_from_energy, index_to_angles
from ttqaoa.simulator import ParameterVector, _energies, _Plan, expectation, make_instance, run_qaoa

G4 = parse_edge_list("4 5\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1")

# Settings tuned for quick concentration on small grids: small batches with
# few elites and aggressive ascent let a single good discovery take over.
BENCH = dict(rank=5, batch_size=30, elite_count=3, ascent_steps=20, learning_rate=0.3, nodes_per_dim=10)

QUAD_TARGET = (3, 7, 1, 8, 5, 2)


def quadratic(idx):
    return float(sum((i - c) ** 2 for i, c in zip(idx, QUAD_TARGET)))


def counted(fn):
    calls = {"n": 0}

    def wrapped(idx):
        calls["n"] += 1
        return fn(idx)

    return wrapped, calls


@pytest.fixture(scope="module")
def bench_run():
    """One seed-0 benchmark run shared by the invariant tests."""
    fn, calls = counted(quadratic)
    trace = optimize(fn, 6, ProtesConfig(budget=1000, seed=0, **BENCH))
    return trace, calls["n"]


def test_config_validation():
    cfg = ProtesConfig()
    assert (cfg.rank, cfg.batch_size, cfg.elite_count) == (5, 20, 10)
    assert (cfg.ascent_steps, cfg.learning_rate) == (5, 0.05)
    assert (cfg.nodes_per_dim, cfg.budget, cfg.seed) == (100, 1000, 0)
    for kwargs in (
        {"rank": 0},
        {"elite_count": 0},
        {"elite_count": 21},
        {"budget": 19},
        {"nodes_per_dim": 1},
        {"learning_rate": 0.0},
        {"ascent_steps": 0},
    ):
        with pytest.raises(ValueError):
            ProtesConfig(**kwargs)
    for key, bad in (
        ("rank", 2.5),
        ("batch_size", 20.0),
        ("elite_count", 3.0),
        ("ascent_steps", 5.0),
        ("nodes_per_dim", 10.5),
        ("budget", 40.5),
        ("seed", 1.5),
    ):
        with pytest.raises(ValueError, match=key):
            ProtesConfig(**{key: bad})
    assert ProtesConfig(rank=np.int64(3), budget=np.int32(40), seed=np.uint64(7)).rank == 3
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            ProtesConfig(learning_rate=bad)


def test_index_to_angles():
    assert np.array_equal(index_to_angles((0, 0), 100), [0.0, 0.0])
    assert np.allclose(index_to_angles((25,), 100), [math.pi / 2])
    assert np.allclose(index_to_angles((2,), 4), [math.pi])
    with pytest.raises(ValueError):
        index_to_angles((100,), 100)
    with pytest.raises(ValueError):
        index_to_angles((-1,), 100)
    for nodes in (75, 150, 300):
        with pytest.raises(ValueError):
            index_to_angles([nodes], nodes)
    for bad in (2.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            index_to_angles([bad], 10)


def test_evaluation_plan():
    same = [(1, 2)] * 4
    assert evaluation_plan(same) == [(1, 2)]
    mixed = [(0, 0), (1, 1), (0, 0), (2, 2)]
    assert evaluation_plan(mixed) == [(0, 0), (1, 1), (2, 2)]


def test_optimize_dims_guard():
    with pytest.raises(ValueError):
        optimize(quadratic, 0, ProtesConfig())


def test_optimize_constant_objective():
    trace = optimize(lambda idx: 7.5, 3, ProtesConfig(nodes_per_dim=8, budget=40))
    assert trace.best_value == 7.5
    assert trace.total_evals <= 40
    assert len(trace.best_index) == 3


def test_optimize_finds_quadratic_minimum(bench_run):
    traces = [bench_run[0]] + [
        optimize(quadratic, 6, ProtesConfig(budget=1000, seed=seed, **BENCH)) for seed in (1, 2)
    ]
    for trace in traces:
        assert trace.best_index == QUAD_TARGET
        assert trace.best_value == 0.0
        assert trace.total_evals <= 1000


def test_optimize_budget_and_trace_invariants(bench_run):
    trace, call_count = bench_run
    assert call_count == trace.total_evals <= 1000
    best = math.inf
    last_evals = 0
    for rec in trace.records:
        assert rec.best_value <= best + 1e-15
        best = min(best, rec.best_value)
        assert rec.evals >= last_evals
        last_evals = rec.evals
    assert trace.records[-1].evals == trace.total_evals
    assert trace.records[-1].best_value == trace.best_value
    assert len(trace.batch_means) == len(trace.records)


def test_optimize_memoization_extends_run(bench_run):
    # Small grid: once sampling concentrates, repeat draws are free and the
    # loop keeps going past budget // batch_size iterations.
    trace = bench_run[0]
    assert trace.diagnostics["cache_hits"] > 0
    assert len(trace.records) > 1000 // 30


def test_optimize_budget_edge_partial_batch():
    fn, calls = counted(quadratic)
    cfg = ProtesConfig(batch_size=20, budget=25, nodes_per_dim=50, seed=3)
    trace = optimize(fn, 3, cfg)
    assert calls["n"] <= 25
    assert trace.total_evals == calls["n"]


def test_optimize_deterministic():
    cfg = ProtesConfig(budget=200, seed=5, **BENCH)
    a = optimize(quadratic, 6, cfg)
    b = optimize(quadratic, 6, cfg)
    assert a.records == b.records
    assert a.best_index == b.best_index
    assert a.batch_means == b.batch_means


def test_optimize_rejects_non_finite():
    def bad(idx):
        return math.nan

    with pytest.raises(RuntimeError):
        optimize(bad, 2, ProtesConfig(nodes_per_dim=5, budget=20))


def test_batch_means_trend_down(bench_run):
    for trace in (
        bench_run[0],
        optimize(quadratic, 6, ProtesConfig(budget=1000, seed=1, **BENCH)),
    ):
        means = trace.batch_means
        quarter = max(1, len(means) // 4)
        assert np.mean(means[-quarter:]) <= np.mean(means[:quarter])


def test_optimize_qaoa_energy_ratio():
    inst = make_instance(G4, 4)

    def objective(idx):
        theta = ParameterVector.from_flat(index_to_angles(idx, 100))
        return expectation(run_qaoa(inst, theta), inst.cost)

    ratios = []
    for seed in range(10):
        trace = optimize(objective, 8, ProtesConfig(seed=seed))
        ratios.append(cut_from_energy(trace.best_value, G4) / 5.0)
    assert float(np.median(ratios)) >= 0.78
    assert min(ratios) > 0.5


def test_trace_to_csv():
    trace = optimize(quadratic, 3, ProtesConfig(nodes_per_dim=8, budget=40, seed=1))
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "iteration,evals,best_value"
    assert len(lines) == len(trace.records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[2]) == trace.records[0].best_value
    assert text.endswith("\n")


def batched(fn):
    return lambda fresh: [fn(idx) for idx in fresh]


def assert_traces_equal(a, b):
    assert a.records == b.records
    assert a.best_index == b.best_index and a.best_value == b.best_value
    assert a.total_evals == b.total_evals
    assert a.diagnostics == b.diagnostics
    assert np.array_equal(a.batch_means, b.batch_means)
    assert all(np.array_equal(x, y) for x, y in zip(a.tt.cores, b.tt.cores, strict=True))


def test_batched_core_equals_scalar_optimize(bench_run):
    # The criterion-6 run, with cache hits, and a run that ends mid-batch.
    assert bench_run[0].diagnostics["cache_hits"] > 0
    criterion_6 = ProtesConfig(budget=1000, seed=0, **BENCH)
    assert_traces_equal(_optimize_batched(batched(quadratic), 6, criterion_6), bench_run[0])
    edge = ProtesConfig(batch_size=20, budget=25, nodes_per_dim=50, seed=3)
    assert_traces_equal(_optimize_batched(batched(quadratic), 3, edge), optimize(quadratic, 3, edge))


def test_batched_core_equals_scalar_optimize_on_qaoa_energies():
    inst = make_instance(G4, 2)

    def objective(idx):
        return expectation(run_qaoa(inst, ParameterVector.from_flat(index_to_angles(idx, 100))), inst.cost)

    plan = _Plan(inst)

    def evaluate(fresh):
        return _energies(plan, index_to_angles(np.array(fresh), 100))

    cfg = ProtesConfig(budget=120, seed=4)
    assert_traces_equal(_optimize_batched(evaluate, 4, cfg), optimize(objective, 4, cfg))


def test_batched_core_evaluates_fresh_indices_in_plan_order(monkeypatch):
    draws = []

    def recording_sampler(t, count, rng):
        samples, diagnostics = real_sampler(t, count, rng)
        draws.append(samples)
        return samples, diagnostics

    real_sampler = protes.sample_squared_batch
    monkeypatch.setattr(protes, "sample_squared_batch", recording_sampler)
    cfg = ProtesConfig(rank=2, batch_size=20, elite_count=5, nodes_per_dim=5, budget=45, seed=1)
    calls = []

    def evaluate(fresh):
        calls.append((len(draws), list(fresh)))
        return [quadratic(idx) for idx in fresh]

    trace = _optimize_batched(evaluate, 3, cfg)
    seen: list[tuple[int, ...]] = []
    expected, cut = [], 0
    for i, samples in enumerate(draws, start=1):
        fresh = [idx for idx in evaluation_plan(samples) if idx not in seen]
        cut += len(fresh) > cfg.budget - len(seen)
        fresh = fresh[: cfg.budget - len(seen)]
        if fresh:
            expected.append((i, fresh))
        seen += fresh
    assert calls == expected
    assert trace.total_evals == len(seen) == cfg.budget
    assert trace.diagnostics["cache_hits"] > 0 and cut == 1


def test_batched_core_names_the_non_finite_index():
    cfg = ProtesConfig(nodes_per_dim=5, budget=20)
    seen = []

    def evaluate(fresh):
        seen.extend(fresh)
        return [math.nan if k == 2 else 0.0 for k in range(len(fresh))]

    with pytest.raises(RuntimeError) as err:
        _optimize_batched(evaluate, 2, cfg)
    assert str(err.value) == f"objective returned non-finite value nan at index {seen[2]}"
