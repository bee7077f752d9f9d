"""Derivative-free local refinement of periodic circuit angles.

A Nelder-Mead simplex search with the standard coefficients (reflection 1,
expansion 2, contraction 0.5, shrink 0.5) over one (d+1, d) array of points
and one (d+1,) array of values.  Every candidate is wrapped into [0, 2*pi)
per axis before evaluation: the search runs on the torus, the simplex in
unwrapped coordinates.  The evaluation budget is a hard cap checked before
each objective call, and the best point ever evaluated is returned, so the
result can never be worse than the starting point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qaoa_model import wrap_angles

DEGENERATE_EXTENT = 1e-12


@dataclass(frozen=True)
class RefineConfig:
    max_evals: int = 10000
    initial_step: float = 0.1
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.max_evals, (int, np.integer)) and self.max_evals >= 2):
            raise ValueError(f"max_evals must be an integer >= 2, got {self.max_evals!r}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        for key in ("initial_step", "tol"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class RefineResult:
    theta: np.ndarray
    value: float
    evals: int


class _BudgetExhausted(Exception):
    pass


def refine(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    config: RefineConfig,
) -> RefineResult:
    """Simplex descent from start; returns the best wrapped point found.

    Stops when the simplex value spread drops below tol or the budget runs
    out.  A geometrically collapsed simplex that has not converged in value
    is rebuilt around the incumbent with seeded random directions, keeping
    the whole run deterministic for fixed (start, config).
    """
    start = np.asarray(start, dtype=float)
    dim = start.size
    if dim < 1:
        raise ValueError("start point must have at least one coordinate")
    if config.max_evals < dim + 2:
        raise ValueError(f"budget {config.max_evals} below the {dim + 2} evals a simplex needs")
    rng = np.random.default_rng(config.seed)
    evals = 0
    best_theta = wrap_angles(start)
    best_value = math.inf

    def call(x: np.ndarray) -> float:
        nonlocal evals, best_theta, best_value
        if evals >= config.max_evals:
            raise _BudgetExhausted
        wrapped = wrap_angles(x)
        value = float(objective(wrapped))
        evals += 1
        if not math.isfinite(value):
            raise RuntimeError(f"objective returned non-finite value {value} at {wrapped}")
        if value < best_value:
            best_value = value
            best_theta = wrapped
        return value

    def build_simplex(center: np.ndarray, directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        points = np.vstack((center, center + directions))
        return points, np.array([call(x) for x in points])

    try:
        points, values = build_simplex(start, config.initial_step * np.eye(dim))
        while True:
            order = np.argsort(values, kind="stable")
            points, values = points[order], values[order]
            if values[-1] - values[0] < config.tol:
                break
            if np.max(np.abs(points[1:] - points[0])) < DEGENERATE_EXTENT:
                points, values = build_simplex(points[0], config.initial_step * rng.standard_normal((dim, dim)))
                continue
            centroid = points[:-1].mean(axis=0)
            step = centroid - points[-1]
            reflected = centroid + step
            f_reflected = call(reflected)
            if f_reflected < values[-2]:
                points[-1], values[-1] = reflected, f_reflected
                if f_reflected < values[0]:
                    expanded = centroid + 2.0 * step
                    f_expanded = call(expanded)
                    if f_expanded < f_reflected:
                        points[-1], values[-1] = expanded, f_expanded
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + 0.5 * step
                    f_contracted = call(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    contracted = centroid - 0.5 * step
                    f_contracted = call(contracted)
                    accept = f_contracted < values[-1]
                if accept:
                    points[-1], values[-1] = contracted, f_contracted
                else:
                    points[1:] = points[0] + 0.5 * (points[1:] - points[0])
                    values[1:] = [call(x) for x in points[1:]]
    except _BudgetExhausted:
        pass
    return RefineResult(best_theta, best_value, evals)
