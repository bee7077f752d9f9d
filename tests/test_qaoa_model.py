import tracemalloc

import numpy as np
import pytest

from ttqaoa.graph import Graph, brute_force_max_cut, cut_value, parse_edge_list, total_weight
from ttqaoa.qaoa_model import (
    build_cost_diagonal,
    cut_from_energy,
    decode_bitstring,
    decode_vertex,
    format_bitstring,
    interaction_table,
)

G4 = parse_edge_list("4 5\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1")

# Color of each two-bit field value, restated here as the oracle's own map.
COLOR = {0: 0, 1: 1, 2: 2, 3: 2}


# The cost diagonal's former label arithmetic, kept as the reference for the broadcast build.
def ref_cost_values(g):
    """Shift each basis index to every edge's two bit pairs and gather the interaction table there."""
    z = np.arange(4**g.n, dtype=np.int64)
    values = np.zeros(z.size)
    for i, j, w in g.edges:
        values += w * interaction_table()[(z >> (2 * i)) & 3, (z >> (2 * j)) & 3]
    return values


def reference_graphs():
    """Graphs on 1-7 vertices: edgeless, then edge subsets in shuffled order with four kinds of weights."""
    rng = np.random.default_rng(29)
    weights = (
        lambda: float(rng.integers(1, 5)),  # integer
        lambda: float(rng.integers(0, 2)),  # zero or one
        lambda: float(rng.uniform(0.05, 3.0)),  # fractional
        lambda: 0.7,  # one repeated fractional weight
    )
    for n in range(1, 8):
        yield Graph(n, ())
        pairs = [(i, j) if rng.random() < 0.5 else (j, i) for i in range(n) for j in range(i + 1, n)]
        for draw in weights:
            for _ in range(3):
                keep = [pairs[e] for e in rng.permutation(len(pairs)) if rng.random() < 0.6]
                yield Graph(n, tuple((i, j, draw()) for i, j in keep))


def random_int_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.7] or [pairs[0]]
    return Graph(n, tuple((i, j, float(rng.integers(1, 5))) for i, j in keep))


def test_interaction_table_rows():
    d = interaction_table()
    expected = np.array(
        [[1, -1, -1, -1], [-1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]], dtype=float
    )
    assert np.array_equal(d, expected)
    assert d[0, 0] == 1 and d[2, 3] == 1 and d[0, 3] == -1
    assert np.array_equal(d, d.T)


def test_interaction_table_decomposition():
    # D = (2I - J) + 2 * (single-entry corrections at (2,3) and (3,2)).
    d = interaction_table()
    identity = np.eye(4)
    ones = np.ones((4, 4))
    gamma_23 = np.zeros((4, 4))
    gamma_23[2, 3] = 1.0
    gamma_32 = np.zeros((4, 4))
    gamma_32[3, 2] = 1.0
    assert np.array_equal(d, 2 * identity - ones + 2 * (gamma_23 + gamma_32))


def test_decode_vertex():
    assert decode_vertex(0b00) == 0
    assert decode_vertex(0b01) == 1
    assert decode_vertex(0b10) == 2
    assert decode_vertex(0b11) == 2
    with pytest.raises(ValueError):
        decode_vertex(4)


def test_decode_bitstring():
    assert decode_bitstring(0, 3) == (0, 0, 0)
    assert decode_bitstring(0b1111, 2) == (2, 2)
    # Fields (00, 01, 10) for vertices (0, 1, 2): z = 0 + 1*4 + 2*16 = 36.
    assert decode_bitstring(36, 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        decode_bitstring(64, 3)


def test_format_bitstring():
    assert format_bitstring(0, 2) == "0000"
    assert format_bitstring(36, 3) == "000110"
    # Field value 0b01 renders with the high bit of the pair first.
    assert format_bitstring(1, 1) == "01"
    assert format_bitstring(2, 1) == "10"


def test_cost_diagonal_single_edge():
    g = parse_edge_list("2 1\n0 1 1")
    values = build_cost_diagonal(g).values
    assert values.size == 16
    for z in range(16):
        same = COLOR[z & 3] == COLOR[(z >> 2) & 3]
        assert values[z] == (1.0 if same else -1.0)
    assert int((values == 1.0).sum()) == 6


def test_cost_diagonal_empty_and_g4_min():
    empty = parse_edge_list("2 0")
    assert np.array_equal(build_cost_diagonal(empty).values, np.zeros(16))
    assert build_cost_diagonal(G4).values.min() == -5.0


def test_cost_diagonal_matches_reference_bit_for_bit():
    seen = {"edgeless": 0, "zero weight": 0, "fractional": 0, "n=1": 0, "n=7": 0}
    for g in reference_graphs():
        want = ref_cost_values(g)
        assert np.array_equal(build_cost_diagonal(g).values.view(np.uint64), want.view(np.uint64))
        weights = [w for _, _, w in g.edges]
        seen["edgeless"] += not weights
        seen["zero weight"] += 0.0 in weights
        seen["fractional"] += any(w != int(w) for w in weights)
        seen["n=1"] += g.n == 1
        seen["n=7"] += g.n == 7
    assert min(seen.values()) > 0, seen


def test_cost_diagonal_build_peaks_at_its_result_and_one_iterator_buffer():
    k8 = Graph(8, tuple((i, j, 1.0) for i in range(8) for j in range(i + 1, 8)))
    build_cost_diagonal(k8)
    tracemalloc.start()
    try:
        values = build_cost_diagonal(k8).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each broadcast add runs through a ufunc iterator, which allocates one buffer of np.getbufsize()
    # elements (64 KiB of float64); the label arithmetic peaked at 2.50 MiB for this 0.5 MiB result.
    assert peak <= values.nbytes + np.getbufsize() * values.itemsize + 8 * 1024


def test_cost_diagonal_guard():
    g = Graph(14, tuple((i, i + 1, 1.0) for i in range(13)))
    with pytest.raises(ValueError):
        build_cost_diagonal(g)


def test_cut_energy_identity_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_int_graph(rng, int(rng.integers(2, 6)))
        values = build_cost_diagonal(g).values
        w = total_weight(g)
        for z in range(4**g.n):
            assert cut_value(g, decode_bitstring(z, g.n)) == (w - values[z]) / 2.0


def test_argmin_decodes_to_optimal_cut():
    rng = np.random.default_rng(17)
    for _ in range(5):
        g = random_int_graph(rng, int(rng.integers(2, 6)))
        values = build_cost_diagonal(g).values
        _, best = brute_force_max_cut(g, 3)
        decoded = decode_bitstring(int(np.argmin(values)), g.n)
        assert cut_value(g, decoded) == best


def test_cut_from_energy():
    assert cut_from_energy(-5.0, G4) == 5.0
    assert cut_from_energy(total_weight(G4), G4) == 0.0
    assert cut_from_energy(0.0, parse_edge_list("2 0")) == 0.0
