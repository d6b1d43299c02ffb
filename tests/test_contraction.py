from itertools import combinations
from random import Random

import pytest

from zqforce.contraction import (
    all_subsets_have_degree_one_witness,
    bipartite_contraction,
    contraction_forcing_move,
    degree_one_witness,
    max_matching,
)
from zqforce.families import cycle
from zqforce.game import admissible_families
from zqforce.graphs import Graph, build_graph, ccr_closure

from helpers import mask, random_connected_graph, random_tree


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n):
    return build_graph(n + 1, [(0, i) for i in range(1, n + 1)])


def c4():
    return build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_contraction_examples():
    cb = bipartite_contraction(path(5), mask([2]))
    assert cb.coloured_nodes == (mask([2]),)
    assert cb.uncoloured_nodes == (mask([0, 1]), mask([3, 4]))
    assert cb.multiplicity == ((1, 1),)

    cb = bipartite_contraction(star(3), mask([0]))
    assert len(cb.uncoloured_nodes) == 3
    assert cb.multiplicity == ((1, 1, 1),)

    cb = bipartite_contraction(c4(), mask([0, 2]))
    assert cb.coloured_nodes == (mask([0]), mask([2]))
    assert cb.uncoloured_nodes == (mask([1]), mask([3]))
    assert cb.multiplicity == ((1, 1), (1, 1))


def test_contraction_errors_and_dropped_nodes():
    with pytest.raises(ValueError):
        bipartite_contraction(path(3), 0)
    with pytest.raises(ValueError):
        bipartite_contraction(path(3), path(3).full_mask)
    # a coloured component with no uncoloured neighbour is dropped
    g = build_graph(4, [(0, 1), (2, 3)])
    cb = bipartite_contraction(g, mask([0, 1, 2]))
    assert cb.coloured_nodes == (mask([2]),)


def test_contraction_rejects_vertex_outside_graph():
    with pytest.raises(ValueError, match="coloured vertex 50 is not in the graph"):
        bipartite_contraction(path(10), mask([0, 50]))
    with pytest.raises(ValueError, match="coloured vertex 3 "):
        bipartite_contraction(path(3), mask([0, 3, 7]))


def test_contraction_multiplicities():
    # a coloured vertex joined twice to one uncoloured component (triangle)
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    cb = bipartite_contraction(g, mask([0]))
    assert cb.coloured_nodes == (mask([0]),)
    assert cb.uncoloured_nodes == (mask([1, 2]),)
    assert cb.multiplicity == ((2,),)


def test_max_matching_examples():
    assert max_matching(bipartite_contraction(path(5), mask([2]))) == 1
    assert max_matching(bipartite_contraction(star(3), mask([0]))) == 1
    assert max_matching(bipartite_contraction(c4(), mask([0, 2]))) == 2


def test_degree_one_witness_examples():
    cb = bipartite_contraction(path(5), mask([2]))
    assert degree_one_witness(cb, [0]) == 0
    cb = bipartite_contraction(star(3), mask([0]))
    assert degree_one_witness(cb, [0, 1]) is None
    cb = bipartite_contraction(c4(), mask([0, 2]))
    assert degree_one_witness(cb, [0]) is not None
    with pytest.raises(ValueError):
        degree_one_witness(cb, [])


def test_degree_one_witness_respects_multiplicity():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    cb = bipartite_contraction(g, mask([0]))
    # the coloured node reaches the single uncoloured node by two edges
    assert degree_one_witness(cb, [0]) is None


def test_has_forcing_move_examples():
    assert bool(admissible_families(path(5), mask([2]), 0)) is True
    assert bool(admissible_families(path(5), mask([2]), 1)) is False
    assert bool(admissible_families(star(3), mask([0]), 0)) is True
    with pytest.raises(ValueError):
        admissible_families(path(5), mask([0]), 0)  # endpoint forces: not closed


@pytest.mark.parametrize("q", [-1, -2])
def test_contraction_forcing_move_rejects_negative_q(q):
    # the empty family of q = -1 has no nonempty response, so it would pass
    cb = bipartite_contraction(cycle(6), mask([0]))
    assert contraction_forcing_move(cb, 0) is False
    with pytest.raises(ValueError, match="q must be nonnegative"):
        contraction_forcing_move(cb, q)


def test_contraction_idempotent():
    rng = Random(3)
    for _ in range(50):
        g = random_connected_graph(rng, rng.randrange(3, 9))
        b = rng.randrange(1, g.full_mask)
        cb = bipartite_contraction(g, b)
        # rebuild the collapsed bipartite graph with nodes as vertices
        nc = len(cb.coloured_nodes)
        edges = [
            (i, nc + j)
            for i, row in enumerate(cb.multiplicity)
            for j, m in enumerate(row)
            if m
        ]
        g2 = build_graph(nc + len(cb.uncoloured_nodes), edges)
        cb2 = bipartite_contraction(g2, (1 << nc) - 1)
        assert len(cb2.coloured_nodes) == nc
        assert len(cb2.uncoloured_nodes) == len(cb.uncoloured_nodes)
        pattern = tuple(tuple(1 if m else 0 for m in row) for row in cb.multiplicity)
        assert cb2.multiplicity == pattern


def _closed_proper_colourings(g: Graph):
    for b in range(1, g.full_mask):
        if ccr_closure(g, b) == b:
            yield b


def test_tree_equivalence_sample():
    # on trees: matching of size q+1 <=> guaranteed move on the contraction
    rng = Random(7)
    for _ in range(30):
        g = random_tree(rng, rng.randrange(3, 10))
        for b in _closed_proper_colourings(g):
            cb = bipartite_contraction(g, b)
            matching = max_matching(cb)
            for q in range(g.n):
                assert contraction_forcing_move(cb, q) == (matching >= q + 1)


def test_tree_matching_gives_graph_move():
    # sufficiency as stated for the original graph: matching => move on G
    rng = Random(77)
    for _ in range(30):
        g = random_tree(rng, rng.randrange(3, 9))
        for b in _closed_proper_colourings(g):
            matching = max_matching(bipartite_contraction(g, b))
            for q in range(g.n):
                if matching >= q + 1:
                    assert admissible_families(g, b, q)


def test_contraction_move_implies_graph_move():
    rng = Random(101)
    for _ in range(40):
        g = random_connected_graph(rng, rng.randrange(3, 8))
        for b in _closed_proper_colourings(g):
            cb = bipartite_contraction(g, b)
            for q in range(g.n):
                if contraction_forcing_move(cb, q):
                    assert admissible_families(g, b, q)


def test_graph_move_is_strictly_weaker_than_matching():
    # Double star, both centres coloured: one coloured component that forces
    # through two branches at once. The graph-level game has a q=1 move, but
    # the contraction merges the centres into one node, so the matching
    # criterion (which governs contraction-level moves) does not reach 2.
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)])
    b = mask([0, 3])
    assert ccr_closure(g, b) == b
    assert bool(admissible_families(g, b, 1)) is True
    cb = bipartite_contraction(g, b)
    assert max_matching(cb) == 1
    assert contraction_forcing_move(cb, 1) is False


def test_degree_one_witness_guarantee_soundness():
    rng = Random(19)
    for _ in range(40):
        g = random_tree(rng, rng.randrange(3, 9))
        for b in _closed_proper_colourings(g):
            cb = bipartite_contraction(g, b)
            node_count = len(cb.uncoloured_nodes)
            for r in range(1, node_count + 1):
                for nodes in combinations(range(node_count), r):
                    if all_subsets_have_degree_one_witness(cb, nodes):
                        for q in range(len(nodes)):
                            assert admissible_families(g, b, q)
