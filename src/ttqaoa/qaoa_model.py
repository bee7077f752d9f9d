"""Binary color encoding and the diagonal cost operator for max-3-cut.

Each vertex color is held in two qubits; the two-bit strings 10 and 11 both
decode to color 2.  Bit layout convention, used consistently by the decoder,
the simulator, and all bitstring rendering: vertex i occupies bits (2i, 2i+1)
of the basis index, with the high bit of the pair (bit 2i+1) being the first
qubit of the pair, so vertex 0 sits in the least significant bit pair.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, total_weight

# Dense registers of 2**24 amplitudes (a 256 MiB complex state): 12 vertices on
# the diagonal backend, 11 with the gate backend's two ancillas.
MAX_QUBITS = 24

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
    """Diagonal of the cost operator over the 4**n color basis states."""

    values: np.ndarray
    n: int


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
    z = np.arange(4**g.n, dtype=np.int64)
    values = np.zeros(z.size)
    for i, j, w in g.edges:
        values += w * _INTERACTION[(z >> (2 * i)) & 3, (z >> (2 * j)) & 3]
    return CostDiagonal(values, g.n)


def cut_from_energy(energy: float, g: Graph) -> float:
    """Invert the cut/energy identity: cut = (total weight - energy) / 2."""
    return (total_weight(g) - energy) / 2.0
