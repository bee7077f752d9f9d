"""Derivative-free local refinement of periodic circuit angles.

A Nelder-Mead simplex (reflection 1, expansion 2, contraction 0.5, shrink
0.5) over one (d+1, d) array of points and one (d+1,) array of values,
written as an ask/tell stepper: `_nelder_mead` yields each point it wants
evaluated, unwrapped, and is sent back its value.  `refine` is the one
driver: it wraps each point into [0, 2*pi) per axis before the objective
call (the search runs on the torus, the simplex in unwrapped coordinates),
checks the evaluation budget as a hard cap before each call, and keeps the
best point ever evaluated, so the result is never worse than the start.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Generator, Sequence

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
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        for key in ("initial_step", "tol"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class RefineResult:
    theta: np.ndarray
    value: float
    evals: int


def _nelder_mead(start: np.ndarray, config: RefineConfig) -> Generator[np.ndarray, float, None]:
    """Yields each point to evaluate, unwrapped, and is sent its value; returns once the spread is below tol.

    A geometrically collapsed simplex that has not converged in value is
    rebuilt around the incumbent with directions from the seeded rng.
    """
    dim = start.size
    rng = np.random.default_rng(config.seed)

    def build_simplex(center: np.ndarray, directions: np.ndarray):
        points, values = np.vstack((center, center + config.initial_step * directions)), np.empty(dim + 1)
        for i in range(dim + 1):
            values[i] = yield points[i]
        return points, values

    points, values = yield from build_simplex(start, np.eye(dim))
    while True:
        order = values.argsort(kind="stable")
        points, values = points[order], values[order]
        if values[-1] - values[0] < config.tol:
            return
        if np.maximum.reduce(np.abs(points[1:] - points[0]), axis=None) < DEGENERATE_EXTENT:
            points, values = yield from build_simplex(points[0], rng.standard_normal((dim, dim)))
            continue
        centroid = np.add.reduce(points[:-1], axis=0) / dim  # np.mean's arithmetic; reduce skips the wrappers
        step = centroid - points[-1]
        reflected = centroid + step
        f_reflected = yield reflected
        if f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            if f_reflected < values[0]:
                expanded = centroid + 2.0 * step
                f_expanded = yield expanded
                if f_expanded < f_reflected:
                    points[-1], values[-1] = expanded, f_expanded
        else:
            if f_reflected < values[-1]:
                contracted = centroid + 0.5 * step
                f_contracted = yield contracted
                accept = f_contracted <= f_reflected
            else:
                contracted = centroid - 0.5 * step
                f_contracted = yield contracted
                accept = f_contracted < values[-1]
            if accept:
                points[-1], values[-1] = contracted, f_contracted
            else:
                points[1:] = points[0] + 0.5 * (points[1:] - points[0])
                for i in range(1, dim + 1):
                    values[i] = yield points[i]


def check_simplex_budget(max_evals: int, dim: int) -> None:
    """Raise unless max_evals covers a simplex over dim coordinates and one step: dim + 2 evaluations."""
    if max_evals < dim + 2:
        raise ValueError(f"budget {max_evals} below the {dim + 2} evals a simplex needs")


def refine(
    objective: Callable[[np.ndarray], float],
    start: Sequence[float],
    config: RefineConfig,
) -> RefineResult:
    """Simplex descent from start; returns the best wrapped point found.

    Stops when the simplex value spread drops below tol or the budget runs
    out.  The run is deterministic for fixed (start, config).
    """
    start = np.asarray(start, dtype=float)
    if start.size < 1:
        raise ValueError("start point must have at least one coordinate")
    if not np.isfinite(start).all():
        raise ValueError(f"start must be finite, got {start}")
    check_simplex_budget(config.max_evals, start.size)
    steps, value = _nelder_mead(start, config), None
    evals, best_theta, best_value = 0, wrap_angles(start), math.inf
    while evals < config.max_evals:
        try:
            theta = wrap_angles(steps.send(value))
        except StopIteration:
            break
        value = float(objective(theta))
        evals += 1
        if not math.isfinite(value):
            raise RuntimeError(f"objective returned non-finite value {value} at {theta}")
        if value < best_value:
            best_theta, best_value = theta, value
    return RefineResult(best_theta, best_value, evals)
