"""Derivative-free local refinement of periodic circuit angles.

A Nelder-Mead simplex search with the standard coefficients (reflection 1,
expansion 2, contraction 0.5, shrink 0.5).  Every candidate point is wrapped
into [0, 2*pi) per axis before evaluation, so the search is effectively on
the torus while the simplex geometry lives in unwrapped coordinates.  The
evaluation budget is a hard cap checked before each objective call, and the
best point ever evaluated is returned, so the result can never be worse than
the starting point.
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
        if self.max_evals < 2:
            raise ValueError(f"max_evals must be >= 2, got {self.max_evals}")
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

    def build_simplex(center: np.ndarray, directions: np.ndarray) -> tuple[list[np.ndarray], list[float]]:
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
                directions = config.initial_step * rng.standard_normal((dim, dim))
                points, values = build_simplex(points[0], directions)
                continue
            centroid = np.mean(points[:-1], axis=0)
            reflected = centroid + (centroid - points[-1])
            f_reflected = call(reflected)
            if f_reflected < values[0]:
                expanded = centroid + 2.0 * (centroid - points[-1])
                f_expanded = call(expanded)
                if f_expanded < f_reflected:
                    points[-1], values[-1] = expanded, f_expanded
                else:
                    points[-1], values[-1] = reflected, f_reflected
            elif f_reflected < values[-2]:
                points[-1], values[-1] = reflected, f_reflected
            else:
                if f_reflected < values[-1]:
                    contracted = centroid + 0.5 * (centroid - points[-1])
                    f_contracted = call(contracted)
                    accept = f_contracted <= f_reflected
                else:
                    contracted = centroid - 0.5 * (centroid - points[-1])
                    f_contracted = call(contracted)
                    accept = f_contracted < values[-1]
                if accept:
                    points[-1], values[-1] = contracted, f_contracted
                else:
                    for j in range(1, dim + 1):
                        points[j] = points[0] + 0.5 * (points[j] - points[0])
                        values[j] = call(points[j])
    except _BudgetExhausted:
        pass
    return RefineResult(best_theta, best_value, evals)
