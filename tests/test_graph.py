import itertools
import tracemalloc

import numpy as np
import pytest

from ttqaoa.graph import (
    Graph,
    GraphFormatError,
    approximation_ratio,
    brute_force_max_cut,
    cut_value,
    parse_edge_list,
    random_complete_graph,
    total_weight,
)

G4_TEXT = "4 5\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1"
TRIANGLE_TEXT = "3 3\n0 1 2.5\n1 2 1.0\n0 2 0.5"


def oracle_max_cut(g, k):
    """Independent exhaustive solver: iterates colorings in a different order
    (itertools product, reversed vertex significance) and tie-breaks globally.
    """
    best = -1.0
    winners = []
    for rev in itertools.product(range(k), repeat=g.n):
        colors = tuple(reversed(rev))
        value = sum(w for i, j, w in g.edges if colors[i] != colors[j])
        if value > best + 1e-12:
            best = value
            winners = [colors]
        elif abs(value - best) <= 1e-12:
            winners.append(colors)
    return min(winners), float(best)


def ref_brute_force(g, k):
    """The former label enumeration: labels 0..k**n-1 in chunks of 2**16, each color decoded by division."""
    total = k**g.n
    place = [k ** (g.n - 1 - v) for v in range(g.n)]
    best_value, best_index = -1.0, 0
    for start in range(0, total, 1 << 16):
        z = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        cuts = np.zeros(z.size)
        for i, j, w in g.edges:
            cuts += w * ((z // place[i]) % k != (z // place[j]) % k)
        pos = int(np.argmax(cuts))
        if cuts[pos] > best_value:
            best_value, best_index = float(cuts[pos]), start + pos
    return tuple((best_index // place[v]) % k for v in range(g.n)), best_value


def random_graph(rng, n, integer_weights=True):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = [p for p in pairs if rng.random() < 0.7]
    if not keep:
        keep = [pairs[0]]
    if integer_weights:
        edges = tuple((i, j, float(rng.integers(1, 5))) for i, j in keep)
    else:
        edges = tuple((i, j, float(rng.uniform(0.1, 3.0))) for i, j in keep)
    return Graph(n, edges)


def test_parse_g4():
    g = parse_edge_list(G4_TEXT)
    assert g.n == 4
    assert len(g.edges) == 5
    assert all(w == 1.0 for _, _, w in g.edges)
    assert {(i, j) for i, j, _ in g.edges} == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}


def test_parse_trivial_and_weighted():
    g = parse_edge_list("1 0")
    assert g.n == 1 and g.edges == ()
    g = parse_edge_list(TRIANGLE_TEXT)
    assert g.edges == ((0, 1, 2.5), (1, 2, 1.0), (0, 2, 0.5))


def test_parse_comments_default_weight_and_canonicalization():
    g = parse_edge_list("# header comment\n3 2\n\n2 0\n0 1 2\n")
    assert g.edges == ((0, 2, 1.0), (0, 1, 2.0))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "4",
        "a b",
        "2 1\n0 1 1\nextra 0 0",
        "2 2\n0 1 1",
        "2 1\n0 1 -2",
        "2 1\n0 3 1",
        "2 1\n1 1 1",
        "3 2\n0 1 1\n1 0 1",
        "2 1\n0 x 1",
        "2 1\n0 1 nan",
        "2 1\n0 1 inf",
        "3 3\n0 1 1e308\n0 2 1e308\n1 2 1e308",
    ],
)
def test_parse_errors(text):
    with pytest.raises(GraphFormatError):
        parse_edge_list(text)


def test_graph_constructor_validation():
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(2, ((0, 0, 1.0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, 1.0), (1, 0, 2.0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1, -1.0),))
    # Each weight is finite, but their total overflows.
    with pytest.raises(ValueError, match="^edge weights sum to inf, which is not finite$"):
        Graph(3, ((0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308)))


def test_total_weight():
    assert total_weight(parse_edge_list(G4_TEXT)) == 5.0
    assert total_weight(parse_edge_list("1 0")) == 0.0
    assert total_weight(parse_edge_list(TRIANGLE_TEXT)) == 4.0


def test_cut_value_examples():
    k3 = parse_edge_list("3 3\n0 1 1\n1 2 1\n0 2 1")
    assert cut_value(k3, (0, 1, 2)) == 3.0
    g4 = parse_edge_list(G4_TEXT)
    assert cut_value(g4, (0, 1, 2, 2)) == 5.0
    assert cut_value(g4, (1, 1, 1, 1)) == 0.0
    with pytest.raises(ValueError):
        cut_value(g4, (0, 1, 2))


def test_cut_value_label_permutation_invariance_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(2, 6)), integer_weights=False)
        colors = tuple(int(c) for c in rng.integers(0, 3, g.n))
        base = cut_value(g, colors)
        assert 0.0 <= base <= total_weight(g) + 1e-12
        for perm in itertools.permutations(range(3)):
            relabeled = tuple(perm[c] for c in colors)
            assert cut_value(g, relabeled) == pytest.approx(base, abs=1e-12)


def test_brute_force_known_values():
    assert brute_force_max_cut(parse_edge_list(G4_TEXT), 3)[1] == 5.0
    k3 = parse_edge_list("3 3\n0 1 1\n1 2 1\n0 2 1")
    assert brute_force_max_cut(k3, 3)[1] == 3.0
    k4 = parse_edge_list("4 6\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1")
    coloring, value = brute_force_max_cut(k4, 3)
    assert value == 5.0
    assert cut_value(k4, coloring) == 5.0


def test_brute_force_vs_independent_oracle():
    rng = np.random.default_rng(11)
    for _ in range(8):
        g = random_graph(rng, int(rng.integers(2, 7)))
        coloring, value = brute_force_max_cut(g, 3)
        oracle_coloring, oracle_value = oracle_max_cut(g, 3)
        assert value == pytest.approx(oracle_value, abs=1e-12)
        assert coloring == oracle_coloring
        for _ in range(20):
            candidate = tuple(int(c) for c in rng.integers(0, 3, g.n))
            assert cut_value(g, candidate) <= value + 1e-12


def test_brute_force_matches_label_enumeration_reference():
    rng = np.random.default_rng(37)
    weights = (
        lambda: float(rng.integers(1, 5)),
        lambda: float(rng.integers(0, 2)),
        lambda: float(rng.uniform(0.05, 3.0)),
        lambda: 0.7,
    )
    graphs = [Graph(n, ()) for n in range(1, 8)]
    for n in range(2, 8):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for draw in weights:
            for _ in range(3):
                keep = [pairs[e] for e in rng.permutation(len(pairs)) if rng.random() < 0.6]
                graphs.append(Graph(n, tuple((i, j, draw()) for i, j in keep)))
    for g in graphs:
        for k in range(1, 5):
            coloring, value = brute_force_max_cut(g, k)
            assert (coloring, value) == ref_brute_force(g, k)
            assert all(type(c) is int for c in coloring) and type(value) is float


def test_brute_force_multi_chunk_ties_match_reference():
    # 3**11 colorings run over several chunks, and each optimum's color permutations tie in later chunks.
    rng = np.random.default_rng(41)
    pairs = [(i, j) for i in range(11) for j in range(i + 1, 11)]
    sparse = Graph(11, tuple((i, j, 1.0) for i, j in pairs if rng.random() < 0.2))
    weighted = Graph(11, tuple((i, j, float(rng.integers(0, 3))) for i, j in pairs if rng.random() < 0.3))
    assert 3**11 > 2 * (1 << 16)
    for g in (Graph(11, ()), sparse, weighted):
        assert brute_force_max_cut(g, 3) == ref_brute_force(g, 3)
    # 5**8 colorings: each of 25 chunks fixes the colors of vertices 0 and 1 and holds the 5**6 colorings of the rest.
    five = Graph(8, tuple((i, j, float(rng.integers(1, 4))) for i, j in pairs if j < 8 and rng.random() < 0.4))
    assert brute_force_max_cut(five, 5) == ref_brute_force(five, 5)


@pytest.mark.parametrize("n, k", [(7, 6), (6, 7), (7, 7)])
def test_brute_force_many_colors_matches_reference(n, k):
    # Several chunks of 7**5 or 6**6 colorings, each fixing the colors of the first one or two vertices; every
    # optimum ties with its color permutations in other chunks.
    rng = np.random.default_rng(43 + k * n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, tuple((i, j, float(rng.integers(1, 4))) for i, j in pairs if rng.random() < 0.6))
    assert brute_force_max_cut(g, k) == ref_brute_force(g, k)


def test_brute_force_peak_memory_on_k12():
    k12 = random_complete_graph(12, 3)
    brute_force_max_cut(random_complete_graph(4, 3), 3)
    tracemalloc.start()
    try:
        brute_force_max_cut(k12, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The label enumeration peaked at 2.50 MiB here; a chunk's cut table is 3**10 floats (0.45 MiB).
    assert peak < 2.5 * 2**20


def test_brute_force_guard():
    g = Graph(9, tuple((i, i + 1, 1.0) for i in range(8)))
    with pytest.raises(ValueError):
        brute_force_max_cut(g, 10)


def test_approximation_ratio():
    assert approximation_ratio(4.35, 5).ratio == pytest.approx(0.87)
    assert approximation_ratio(5, 5).ratio == 1.0
    assert approximation_ratio(0, 5).ratio == 0.0
    with pytest.raises(ValueError):
        approximation_ratio(1.0, 0.0)


def test_random_complete_graph():
    g = random_complete_graph(5, 3)
    assert g.n == 5 and len(g.edges) == 10
    assert {(i, j) for i, j, _ in g.edges} == {(i, j) for i in range(5) for j in range(i + 1, 5)}
    assert all(w == int(w) and 1 <= w <= 4 for _, _, w in g.edges)
    assert g == random_complete_graph(5, 3)
    assert g != random_complete_graph(5, 4)
