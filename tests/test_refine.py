import math

import numpy as np
import pytest

from ttqaoa.refine import TWO_PI, RefineConfig, refine, wrap_angles

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
    for key in ("initial_step", "tol"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=key):
                RefineConfig(**{key: bad})


def test_wrap_angles():
    wrapped = wrap_angles(np.array([TWO_PI + 0.5, -0.5, 0.0, TWO_PI]))
    assert np.allclose(wrapped, [0.5, TWO_PI - 0.5, 0.0, 0.0])
    assert np.all(wrapped >= 0.0) and np.all(wrapped < TWO_PI)


def test_start_dimension_and_budget_guards():
    with pytest.raises(ValueError):
        refine(quadratic, [], RefineConfig())
    with pytest.raises(ValueError):
        refine(quadratic, np.zeros(8), RefineConfig(max_evals=9))


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
