import math
import re
from collections import Counter

import numpy as np
import pytest

from ttqaoa.qaoa_model import TWO_PI, wrap_angles
from ttqaoa.refine import DEGENERATE_EXTENT, RefineConfig, _nelder_mead, refine

CENTER = np.linspace(1.0, 2.4, 8)


def quadratic(theta):
    return float(np.sum((theta - CENTER) ** 2))


def test_config_validation():
    cfg = RefineConfig()
    assert (cfg.max_evals, cfg.initial_step, cfg.tol, cfg.seed) == (10000, 0.1, 1e-9, 0)
    with pytest.raises(ValueError):
        RefineConfig(max_evals=1)
    with pytest.raises(ValueError):
        RefineConfig(initial_step=0.0)
    with pytest.raises(ValueError):
        RefineConfig(tol=0.0)
    for key, bad in (("max_evals", 10.5), ("max_evals", 600.0), ("seed", 1.5)):
        with pytest.raises(ValueError, match=key):
            RefineConfig(**{key: bad})
    assert RefineConfig(max_evals=np.int64(600), seed=np.uint64(3)).max_evals == 600
    for key in ("initial_step", "tol"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=key):
                RefineConfig(**{key: bad})


def test_config_refuses_a_negative_seed_by_name():
    # Unrefused, refine(f, [0.1, 0.2], RefineConfig(seed=-1)) fails inside numpy's seeding, naming no field.
    for bad in (-1, np.int64(-3)):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer >= 0, got {bad!r}")):
            RefineConfig(seed=bad)


def test_wrap_angles():
    wrapped = wrap_angles(np.array([TWO_PI + 0.5, -0.5, 0.0, TWO_PI, -1e-17, -4e-16]))
    assert np.allclose(wrapped, [0.5, TWO_PI - 0.5, 0.0, 0.0, 0.0, 0.0])
    assert np.all(wrapped >= 0.0) and np.all(wrapped < TWO_PI)


def test_start_dimension_and_budget_guards():
    with pytest.raises(ValueError):
        refine(quadratic, [], RefineConfig())
    with pytest.raises(ValueError):
        refine(quadratic, np.zeros(8), RefineConfig(max_evals=9))

    def never(theta):
        raise AssertionError("objective called")

    # A non-finite start is refused before the first evaluation.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="start"):
            refine(never, [bad, 1.0], RefineConfig())


def test_converged_simplex_stops_without_an_extra_evaluation():
    # A constant objective converges on the first sort, after the d + 1 points of the initial simplex.
    for dim in (1, 2, 8):
        calls = []
        start = np.linspace(-1.0, 7.0, dim)
        result = refine(lambda theta: calls.append(theta) or 3.5, start, RefineConfig())
        assert len(calls) == result.evals == dim + 1
        assert result.value == 3.5
        assert np.array_equal(result.theta, wrap_angles(start))


def test_converges_near_start():
    result = refine(quadratic, CENTER + 0.05, RefineConfig())
    assert result.value <= 1e-8
    assert result.evals < 500
    assert np.max(np.abs(result.theta - CENTER)) <= 1e-4


def test_no_regression_from_minimizer_start():
    result = refine(quadratic, CENTER, RefineConfig())
    assert result.value == 0.0
    assert np.allclose(result.theta, CENTER)


def test_offset_quadratic_relative_convergence():
    def shifted(theta):
        return 2.0 + quadratic(theta)

    result = refine(shifted, CENTER + 0.3, RefineConfig())
    assert (result.value - 2.0) / 2.0 <= 1e-8


def test_budget_hard_cap():
    calls = {"n": 0}

    def counted(theta):
        calls["n"] += 1
        return quadratic(theta)

    result = refine(counted, CENTER + 0.5, RefineConfig(max_evals=10))
    assert calls["n"] <= 10
    assert result.evals == calls["n"]
    # The start itself is evaluated first, so even a tiny budget cannot
    # return anything worse than the starting point.
    assert result.value <= quadratic(CENTER + 0.5)


def test_deterministic():
    a = refine(quadratic, CENTER + 0.2, RefineConfig())
    b = refine(quadratic, CENTER + 0.2, RefineConfig())
    assert np.array_equal(a.theta, b.theta)
    assert a.value == b.value and a.evals == b.evals


def test_rejects_non_finite():
    with pytest.raises(RuntimeError):
        refine(lambda theta: math.nan, np.zeros(2), RefineConfig())


def test_evaluations_always_wrapped():
    seen = []

    def periodic(theta):
        assert np.all(theta >= 0.0) and np.all(theta < TWO_PI)
        seen.append(theta.copy())
        return -math.cos(theta[0] - 0.1)

    result = refine(periodic, [6.0], RefineConfig())
    assert seen
    # Minimum sits just past the wrap point; the torus distance must close.
    delta = abs(result.theta[0] - 0.1)
    assert min(delta, TWO_PI - delta) < 1e-3
    assert result.value <= -1.0 + 1e-9


def test_degenerate_simplex_restart_runs_out_budget():
    # An unreachable tol forces geometric collapse and seeded rebuilds; the
    # run must still terminate at the cap with a fully converged value.
    center = np.array([1.5, 2.5])

    def f(theta):
        return float(np.sum((theta - center) ** 2))

    result = refine(f, center + 0.4, RefineConfig(max_evals=5000, tol=1e-30))
    assert result.evals == 5000
    assert result.value <= 1e-20


def reference_refine(objective, start, config, hits):
    """The simplex as a list of separate points, step by step: the reference for refine's array form.

    Counts each branch it takes in hits, and where the budget runs out.
    """
    start = np.asarray(start, dtype=float)
    dim = start.size
    rng = np.random.default_rng(config.seed)
    evals = 0
    best_theta = wrap_angles(start)
    best_value = math.inf
    phase = "step"

    class BudgetExhausted(Exception):
        pass

    def call(x):
        nonlocal evals, best_theta, best_value
        if evals >= config.max_evals:
            raise BudgetExhausted
        wrapped = wrap_angles(x)
        value = float(objective(wrapped))
        evals += 1
        if value < best_value:
            best_value = value
            best_theta = wrapped
        return value

    def build_simplex(center, directions):
        pts = [center.copy()]
        vals = [call(center)]
        for j in range(dim):
            pts.append(center + directions[j])
            vals.append(call(pts[-1]))
        return pts, vals

    try:
        points, values = build_simplex(start, config.initial_step * np.eye(dim))
        while True:
            order = np.argsort(values, kind="stable")
            points = [points[i] for i in order]
            values = [values[i] for i in order]
            if values[-1] - values[0] < config.tol:
                break
            extent = max(float(np.max(np.abs(p - points[0]))) for p in points[1:])
            if extent < DEGENERATE_EXTENT:
                hits["rebuild"] += 1
                phase = "build"
                directions = config.initial_step * rng.standard_normal((dim, dim))
                points, values = build_simplex(points[0], directions)
                phase = "step"
                continue
            centroid = np.mean(points[:-1], axis=0)
            reflected = centroid + (centroid - points[-1])
            f_reflected = call(reflected)
            if f_reflected < values[0]:
                expanded = centroid + 2.0 * (centroid - points[-1])
                f_expanded = call(expanded)
                if f_expanded < f_reflected:
                    hits["expansion"] += 1
                    points[-1], values[-1] = expanded, f_expanded
                else:
                    hits["reflection"] += 1
                    points[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                hits["reflection"] += 1
                points[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    hits["outside_contraction"] += 1
                    contracted = centroid + 0.5 * (centroid - points[-1])
                    f_contracted = call(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    hits["inside_contraction"] += 1
                    contracted = centroid - 0.5 * (centroid - points[-1])
                    f_contracted = call(contracted)
                    accept = f_contracted < values[-1]
                if accept:
                    points[-1], values[-1] = contracted, f_contracted
                else:
                    hits["shrink"] += 1
                    phase = "shrink"
                    for j in range(1, dim + 1):
                        points[j] = points[0] + 0.5 * (points[j] - points[0])
                        values[j] = call(points[j])
                    phase = "step"
    except BudgetExhausted:
        hits[f"budget_in_{phase}"] += 1
    return best_theta, best_value, evals


def bumpy(theta):
    return float(np.sum(np.cos(3.0 * theta) + 0.3 * np.sin(7.0 * theta + 1.0)))


def terraced(theta):
    # Quantized levels make candidates tie with vertices, so every strict and non-strict comparison counts.
    return math.floor(4.0 * float(np.sum((theta - 1.7) ** 2))) / 4.0


def noise(theta):
    # Uncorrelated values: contractions fail often, so the simplex shrinks and then collapses into rebuilds.
    return float(np.sin(theta @ np.array([12.9898, 78.233, 37.719])[: theta.size]) * 43758.5453 % 1.0)


def test_array_simplex_matches_list_reference():
    branches = ("reflection", "expansion", "outside_contraction", "inside_contraction", "shrink", "rebuild")
    hits = dict.fromkeys((*branches, "budget_in_build", "budget_in_shrink", "budget_in_step"), 0)
    # Budgets 6 and 15 run out inside a shrink, 226 inside a rebuild; 1000 spans several rebuilds.
    cases = [
        (quadratic, CENTER + 0.3, RefineConfig()),
        (bumpy, np.linspace(0.2, 5.9, 3), RefineConfig(seed=4)),
        (bumpy, [6.0], RefineConfig()),
        *((terraced, np.linspace(0.3, 3.1, d), RefineConfig(tol=1e-30)) for d in (2, 3, 4)),
        *((noise, [0.4, 1.1], RefineConfig(max_evals=n, tol=1e-30)) for n in (6, 226, 1000)),
        (noise, [0.4, 1.1, 2.0], RefineConfig(max_evals=15, tol=1e-30)),
    ]
    for objective, start, config in cases:
        seen, expected = [], []

        def recording(log):
            def wrapped(theta):
                log.append(theta.view(np.uint64).copy())
                return objective(theta)

            return wrapped

        result = refine(recording(seen), start, config)
        theta, value, evals = reference_refine(recording(expected), start, config, hits)
        assert len(seen) == len(expected) == result.evals == evals
        assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
        assert np.array_equal(result.theta.view(np.uint64), theta.view(np.uint64))
        assert result.value == value
    assert min(hits.values()) >= 1, hits


def test_stepper_driven_by_hand_matches_list_reference():
    # No refine: the test wraps, counts and sends values itself, on a case that shrinks and rebuilds.
    start, config = np.array([0.4, 1.1]), RefineConfig(max_evals=1000, tol=1e-30)
    expected, hits = [], Counter()

    def recording(theta):
        expected.append(theta.view(np.uint64).copy())
        return noise(theta)

    reference_refine(recording, start, config, hits)
    assert hits["shrink"] >= 1 and hits["rebuild"] >= 1
    steps, value, seen = _nelder_mead(start, config), None, []
    for _ in range(config.max_evals):
        theta = wrap_angles(steps.send(value))
        seen.append(theta.view(np.uint64).copy())
        value = noise(theta)
    assert len(seen) == len(expected) == config.max_evals
    assert all(np.array_equal(a, b) for a, b in zip(seen, expected))
