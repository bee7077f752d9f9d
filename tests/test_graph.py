import itertools

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
