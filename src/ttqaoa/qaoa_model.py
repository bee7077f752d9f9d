"""Binary color encoding, the diagonal cost operator and the angle domain for max-3-cut.

Each vertex color is held in two qubits; the two-bit strings 10 and 11 both
decode to color 2.  The decoder, the simulator and all bitstring rendering put
vertex i in bits (2i, 2i+1) of the basis index, high bit (2i+1) first, so vertex
0 is the least significant pair and a (4,)*n view holds vertex i on axis n-1-i.

Angle domain: beta is pi-periodic; gamma is 2*pi-periodic only when every two
cost levels differ by an even integer (integer weights).  index_to_angles and
wrap_angles take every angle on [0, 2*pi), so solve checks the gamma period.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graph import Graph, total_weight

# Dense registers of 2**24 amplitudes (a 256 MiB complex state): 12 vertices on
# the diagonal backend, 11 with the gate backend's two ancillas.
MAX_QUBITS = 24

TWO_PI = 2.0 * np.pi

# Per-edge interaction over the two vertices' bit pairs: +1 when the pairs
# encode the same color (the 2/3 rows alias to one color), -1 otherwise.
_INTERACTION = np.array(
    [
        [1, -1, -1, -1],
        [-1, 1, -1, -1],
        [-1, -1, 1, 1],
        [-1, -1, 1, 1],
    ],
    dtype=float,
)

_COLOR_OF_BITS = (0, 1, 2, 2)


@dataclass(frozen=True, eq=False)
class CostDiagonal:
    """Diagonal of the cost operator over the 4**n color basis states (in a DIAGONAL plan, over its half register's)."""

    values: np.ndarray
    n: int

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """(distinct values ascending, each entry's index into them), built on first use."""
        # The stable argsort protes already runs, with the permutation freed early: less resident
        # code and memory than np.unique(values, return_inverse=True).
        ordered = self.values[np.argsort(self.values, kind="stable")]
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        return distinct, np.searchsorted(distinct, self.values)


def check_gamma_period(levels: np.ndarray) -> None:
    """Raise unless every two of the distinct cost levels, ascending, differ by an even integer, the condition for a
    2*pi gamma period."""
    if np.any(np.diff(levels) % 2):
        raise ValueError("solve needs a 2*pi gamma period: cost levels differing by even integers (integer weights)")


def index_to_angles(idx: Sequence[int], nodes_per_dim: int) -> np.ndarray:
    """Grid node j of any axis maps to the angle 2*pi*j / N on [0, 2*pi)."""
    nodes = np.asarray(idx, dtype=float)
    if np.any((nodes != np.floor(nodes)) | (nodes < 0) | (nodes >= nodes_per_dim)):
        raise ValueError(f"grid index must be an integer in [0, {nodes_per_dim})")
    return nodes * (TWO_PI / nodes_per_dim)


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Each angle mod 2*pi on [0, 2*pi); np.mod rounds tiny negatives up to 2*pi, which map to 0."""
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


def interaction_table() -> np.ndarray:
    """The constant 4x4 pairwise interaction matrix (copy, safe to mutate)."""
    return _INTERACTION.copy()


def decode_vertex(bits: int) -> int:
    """Map one two-bit field to a color: 00->0, 01->1, 10->2, 11->2."""
    if not 0 <= bits <= 3:
        raise ValueError(f"two-bit value out of range: {bits}")
    return _COLOR_OF_BITS[bits]


def decode_bitstring(z: int, n: int) -> tuple[int, ...]:
    """Decode a basis index into the coloring it encodes."""
    if not 0 <= z < 4**n:
        raise ValueError(f"basis index {z} out of range for {n} vertices")
    return tuple(_COLOR_OF_BITS[(z >> (2 * i)) & 3] for i in range(n))


def format_bitstring(z: int, n: int) -> str:
    """Render a basis index with vertex 0's pair leftmost, high bit of each pair first."""
    if not 0 <= z < 4**n:
        raise ValueError(f"basis index {z} out of range for {n} vertices")
    return "".join(f"{(z >> (2 * i + 1)) & 1}{(z >> (2 * i)) & 1}" for i in range(n))


def build_cost_diagonal(g: Graph) -> CostDiagonal:
    """Accumulate the weighted pairwise interaction over every edge.

    Entry z holds the sum over edges of w_ij * table[b_i(z), b_j(z)], where
    b_i(z) is vertex i's two-bit field of z.
    """
    if 2 * g.n > MAX_QUBITS:
        raise ValueError(f"dense cost diagonal limited to {MAX_QUBITS} qubits, got {2 * g.n} for {g.n} vertices")
    values = np.zeros(4**g.n)
    grid = values.reshape((4,) * g.n)  # a view with vertex i's bit pair on axis n-1-i
    for i, j, w in g.edges:  # i < j, so b_j's axis comes first and the table's rows are b_j
        grid += (w * _INTERACTION.T).reshape([4 if v in (i, j) else 1 for v in reversed(range(g.n))])
    return CostDiagonal(values, g.n)


def cut_from_energy(energy: float, g: Graph) -> float:
    """Invert the cut/energy identity: cut = (total weight - energy) / 2."""
    return (total_weight(g) - energy) / 2.0
