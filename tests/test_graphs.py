import gc
import re
from collections import Counter
from hashlib import sha256
from itertools import combinations
from math import comb, factorial, prod
from random import Random

import pytest

from zqforce.families import (
    bipartite_prism,
    book,
    cartesian_product,
    complete,
    complete_multipartite,
    kneser2,
    path,
    prism,
)
from zqforce.graphs import (
    block_coset_chain,
    block_orbit_count,
    block_orbit_subsets,
    build_graph,
    canonical_key,
    ccr_closure,
    chain_maps,
    coset_halves,
    coset_split,
    interchangeable_blocks,
    parse_edge_list,
    parse_graph6,
    to_graph6,
    uncoloured_components,
    vertices_of,
)
from zqforce.threshold import build_threshold_graph, parse_creation_sequence

from helpers import (
    PETERSEN_EDGES,
    adjacency_sets,
    all_graphs_up_to_iso,
    automorphisms,
    mask,
    naive_ccr_closure,
    naive_induced_ccr,
    random_graph,
    reference_graph6_encode,
    relabel,
    vset,
)


def test_build_graph_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert p3.edges() == [(0, 1), (1, 2)]
    assert p3.neighbours == [[1], [0, 2], [1]] and p3.neighbours is p3.neighbours
    k1 = build_graph(1, [])
    assert k1.n == 1 and k1.num_edges() == 0
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert all(k4.degree(v) == 3 for v in range(4))


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(0, [])
    with pytest.raises(ValueError):
        build_graph(65, [])


def test_graph6_known_strings():
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.has_edge(0, 1)
    empty5 = parse_graph6("D??")
    assert empty5.n == 5 and empty5.num_edges() == 0
    assert to_graph6(k2) == "A_"


def test_graph6_roundtrip_and_reference_encoder():
    rng = Random(7)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(1, 21))
        enc = to_graph6(g)
        assert parse_graph6(enc) == g
        assert enc == reference_graph6_encode(g)


def test_graph6_long_form_n63():
    g = random_graph(Random(3), 63, 0.2)
    enc = to_graph6(g)
    assert enc.startswith("~")
    assert parse_graph6(enc) == g
    # either side of the header boundary: 62 vertices take the short form,
    # and 64, the most build_graph accepts, the long one
    g = random_graph(Random(4), 62, 0.2)
    assert to_graph6(g) == reference_graph6_encode(g)
    g = random_graph(Random(5), 64, 0.2)
    enc = to_graph6(g)
    assert enc.startswith("~") and parse_graph6(enc) == g


def test_graph6_errors():
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("A")  # truncated body
    with pytest.raises(ValueError):
        parse_graph6("A_?")  # overlong body
    with pytest.raises(ValueError):
        parse_graph6("A" + chr(200))  # byte out of range
    with pytest.raises(ValueError):
        parse_graph6("~?@A" + "?" * 100)  # n = 66 > 64 (body length irrelevant)
    with pytest.raises(ValueError, match="^empty graph6 string$"):
        parse_graph6(">>graph6<<")  # the header alone
    truncated = "unsupported graph6 header (n > 258047 or truncated)"
    with pytest.raises(ValueError, match=f"^{re.escape(truncated)}$"):
        parse_graph6("~??")  # a long-form header cut short
    with pytest.raises(ValueError, match="^graph6 padding bits are not zero$"):
        parse_graph6("A`")  # K_2's one bit, then a set padding bit


def test_parse_edge_list():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g.edges() == [(0, 1), (1, 2)]
    for text, message in [
        ("3 2\n0 1\n", "2 edges need 4 endpoint tokens, found 2"),
        ("3 1\n0 1 2\n", "1 edges need 2 endpoint tokens, found 3"),
        ("3 1\n0 a\n", "edge list token 'a' is not an integer"),
        ("3 -1\n", "edge count must be nonnegative, got -1"),
        ("3", "edge list needs a 'n m' header"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_edge_list(text)


# 65 vertices in graph6's long form: '~' and the order in three sextets, then
# C(65, 2) = 2080 zero bits in 347 sextets
GRAPH6_65 = "~?@@" + "?" * 347


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: parse_graph6(GRAPH6_65), 65),
        (lambda: parse_edge_list("65 0"), 65),
        (lambda: build_threshold_graph(parse_creation_sequence("0^70 1")), 71),
        (lambda: cartesian_product(path(40), complete(2)), 80),
    ],
    ids=["graph6", "edge_list", "threshold", "product"],
)
def test_every_graph_source_refuses_with_one_message(build, n):
    # build_graph alone knows the vertex limit, so every source says the same
    with pytest.raises(ValueError, match=f"^vertex count must be in 1..64, got {n}$"):
        build()


def test_uncoloured_components_examples():
    p5 = build_graph(5, [(i, i + 1) for i in range(4)])
    assert uncoloured_components(p5, mask([2])) == [mask([0, 1]), mask([3, 4])]
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert uncoloured_components(star, mask([0])) == [mask([1]), mask([2]), mask([3])]
    assert uncoloured_components(p5, p5.full_mask) == []


def test_components_partition_property():
    rng = Random(11)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 11))
        b = rng.randrange(1 << g.n)
        comps = uncoloured_components(g, b)
        union = 0
        for c in comps:
            assert not (union & c)  # disjoint
            union |= c
            for v in vertices_of(c):  # no edges leave the component
                assert not (g.adj[v] & ~b & g.full_mask & ~c)
        assert union == g.full_mask & ~b


def test_ccr_closure_examples():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    assert ccr_closure(p3, mask([0])) == mask([0, 1, 2])
    assert ccr_closure(p3, mask([1])) == mask([1])
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert ccr_closure(k4, mask([0, 1, 2])) == k4.full_mask
    # vertex 2 lies outside G[{0,1}], so it stays uncoloured
    assert ccr_closure(p3, mask([0]), mask([0, 1])) == mask([0, 1])
    # a coloured vertex outside the induced set forces nothing
    assert ccr_closure(p3, mask([0]), mask([1, 2])) == mask([0])


def test_ccr_closure_matches_reference_and_is_idempotent_monotone():
    rng = Random(5)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 11))
        b = rng.randrange(1 << g.n)
        c = ccr_closure(g, b)
        assert vset(c) == naive_ccr_closure(g, vset(b))
        assert ccr_closure(g, c) == c
        b2 = b | rng.randrange(1 << g.n)
        assert ccr_closure(g, b2) & c == c  # monotone


def test_ccr_closure_within_matches_induced_reference():
    rng = Random(17)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 11))
        b = rng.randrange(1 << g.n)
        within = rng.randrange(1 << g.n)
        got = ccr_closure(g, b, within)
        assert vset(got) == naive_induced_ccr(g, vset(b), vset(within))
        assert ccr_closure(g, b, g.full_mask) == ccr_closure(g, b)


def test_ccr_closure_from_closed_state_plus_one_token():
    # the solver's token spend: a closed state plus v, with only v and its
    # coloured neighbours as the starting worklist
    rng = Random(29)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(1, 11))
        for _ in range(3):
            b = ccr_closure(g, rng.randrange(1 << g.n))
            for v in vertices_of(g.full_mask & ~b):
                start = b | 1 << v
                got = ccr_closure(g, start, g.full_mask, (1 << v) | (g.adj[v] & b))
                assert got == ccr_closure(g, start)
                assert vset(got) == naive_ccr_closure(g, vset(start))


# ---------------------------------------------------------------------------
# Interchangeable blocks and the canonical key
# ---------------------------------------------------------------------------


def _block_swaps(classes):
    """Every transposition of two blocks of one class, as a vertex dict."""
    for blocks in classes:
        for x, y in combinations(blocks, 2):
            yield {**dict(zip(x, y)), **dict(zip(y, x))}


def _swap_mask(swap, b):
    return mask(swap.get(v, v) for v in vset(b))


def _block_corpus():
    rng = Random(83)
    graphs = [complete_multipartite(4, 4), book(8), bipartite_prism(4, 5)]
    graphs += [g for n in range(1, 6) for g in all_graphs_up_to_iso(n)]
    for _ in range(60):
        g = random_graph(rng, rng.randrange(2, 11), rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs += [g, relabel(g, perm)]
    return graphs


def test_block_swaps_are_automorphisms():
    found = 0
    for g in _block_corpus():
        adj = adjacency_sets(g)
        classes = interchangeable_blocks(g)
        seen = set()
        for blocks in classes:
            assert len(blocks) >= 2 and len({len(x) for x in blocks}) == 1
            for x in blocks:
                assert not seen & set(x)  # blocks and classes are disjoint
                seen |= set(x)
        for swap in _block_swaps(classes):
            for v in range(g.n):
                assert adj[swap.get(v, v)] == {swap.get(w, w) for w in adj[v]}
            found += 1
    assert found > 400


def test_block_classes_of_the_paper_families():
    def shape(g):
        return sorted((len(c), len(c[0])) for c in interchangeable_blocks(g))

    assert interchangeable_blocks(complete_multipartite(4, 4)) == [
        tuple((4 * p + i,) for i in range(4)) for p in range(4)
    ]
    assert shape(book(8)) == [(8, 2)]
    assert shape(bipartite_prism(4, 5)) == [(4, 2), (5, 2)]
    for g in (build_graph(10, PETERSEN_EDGES), kneser2(6), prism(8)):
        assert interchangeable_blocks(g) == []


def test_canonical_key_is_a_canonical_image():
    # the key of b is in b's orbit under block swaps, and every state in
    # that orbit has the same key
    rng = Random(89)
    for g in _block_corpus():
        classes = interchangeable_blocks(g)
        swaps = list(_block_swaps(classes))
        # book(8) has orbits of thousands of states: few samples on large graphs
        samples = 8 if g.n <= 10 else 2
        if g.n <= 6:
            states = range(1 << g.n)
        else:
            states = [rng.randrange(1 << g.n) for _ in range(samples)]
        for b in states:
            key = canonical_key(classes, b)
            assert canonical_key(classes, key) == key
            assert key.bit_count() == b.bit_count()
            orbit, frontier = {b}, [b]
            while frontier:
                c = frontier.pop()
                assert canonical_key(classes, c) == key
                for swap in swaps:
                    d = _swap_mask(swap, c)
                    if d not in orbit:
                        orbit.add(d)
                        frontier.append(d)
            assert key in orbit
    assert canonical_key([], 0b1011) == 0b1011


def _block_orbit_size(classes, b):
    """|H·b|: each class's blocks can be arranged in m! / Π mult! ways, one
    multiplicity per distinct block pattern of ``b``."""
    size = 1
    for blocks in classes:
        pats = Counter(tuple(b >> w & 1 for w in blk) for blk in blocks)
        size *= factorial(len(blocks)) // prod(map(factorial, pats.values()))
    return size


def test_block_orbit_subsets_are_the_canonical_sets():
    # each k-set that canonical_key fixes, once, and nothing else. Up to 12
    # vertices against every subset; on the larger graphs the sets must be
    # distinct and fixed, and their orbits must cover all C(n, k) k-sets
    for g in _block_corpus() + all_graphs_up_to_iso(6):
        classes = interchangeable_blocks(g)
        fixed = [[] for _ in range(g.n + 1)]
        if g.n <= 12:
            for b in range(1 << g.n):
                if canonical_key(classes, b) == b:
                    fixed[b.bit_count()].append(b)
        for k in range(g.n + 1):
            got = list(block_orbit_subsets(g, classes, k))
            if g.n <= 12:
                assert sorted(got) == fixed[k], (g.edges(), k)
            else:
                assert len(set(got)) == len(got)
                assert all(canonical_key(classes, b) == b for b in got)
                assert sum(_block_orbit_size(classes, b) for b in got) == comb(g.n, k)


def test_block_orbit_count_matches_the_listed_sets():
    # the Z_0 budget counts orbit sets by generating functions: the count
    # must equal the sets listed, on every registry graph to max_n 6 at every
    # size, and be C(n, k) with no classes
    from zqforce.families import generate, known_values

    graphs = {tuple(g.adj): g for g in (generate(kv.family) for kv in known_values(6))}
    assert len(graphs) > 60
    for g in graphs.values():
        classes = interchangeable_blocks(g)
        for k in range(g.n + 1):
            want = sum(1 for _ in block_orbit_subsets(g, classes, k))
            assert block_orbit_count(g, classes, k) == want, (g.edges(), k)
            assert block_orbit_count(g, (), k) == comb(g.n, k)


@pytest.mark.parametrize(
    "g, k, count, digest",
    [
        (bipartite_prism(4, 5), 7, 214, "0cd6cdd6119adad3a326428f8758827a479fcf3ea6edd440379637ccebd86b05"),
        (bipartite_prism(4, 5), 8, 262, "8ebce6049bb8ea34c16144aec6490e01ed9cbff04e38be531f799d4b277da0af"),
        (bipartite_prism(7, 8), 13, 1676, "716ccba6b96e012acf2da618300d6230358d0d95df1b0486f2b8dc0a94ef1d67"),
        (complete_multipartite(5, 5), 19, 205, "901f48bc6dd44d27c568453045d194dbb5c67980849f6b8b0b4893752d0ea936"),
        (book(8), 3, 16, "2deee09785068f1575ef5977ac1e803029db8f1f2f814dae39069dbbf5024f27"),
    ],
    ids=["bipartite_prism-4-5-k7", "bipartite_prism-4-5-k8", "bipartite_prism-7-8-k13",
         "complete_multipartite-5-5-k19", "book-8-k3"],
)
def test_block_orbit_subsets_keep_their_order(g, k, count, digest):
    # z0_number stops at the first set that forces, so the order of the
    # orbit sets sets its time: the sequence, order included, is pinned by
    # its length and the sha256 of its sets as 8-byte little-endian words,
    # as block_orbit_subsets listed them when it rebuilt the later classes'
    # sets for every set of an earlier class
    got = list(block_orbit_subsets(g, interchangeable_blocks(g), k))
    assert len(got) == count
    assert sha256(b"".join(m.to_bytes(8, "little") for m in got)).hexdigest() == digest


def test_block_orbit_subsets_leave_no_reference_cycle():
    # recursive nested generators would reference themselves through their
    # closure cells, leaving garbage for the cycle collector on every call
    for g in (complete_multipartite(4, 4), book(5)):
        classes = interchangeable_blocks(g)
        gc.collect()
        gc.disable()
        try:
            for k in range(g.n + 1):
                list(block_orbit_subsets(g, classes, k))
            assert gc.collect() == 0
        finally:
            gc.enable()


def _nx_automorphisms_enumerated(g):
    return len(automorphisms(g))


def _nx_automorphisms_by_orbits(g):
    """|Aut(G)| as the product, over v = 0..n-1, of the orbit of v under the
    automorphisms that fix 0..v-1; VF2 decides each orbit question. For
    groups too large to enumerate (7,962,624 automorphisms of
    K_{4,4,4,4})."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    adj = adjacency_sets(g)

    def marked(first):
        # VF2 matches nodes in insertion order, so the marked ones go first
        h = nx.Graph()
        for mark, u in enumerate(first):
            h.add_node(u, mark=mark)
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    def match(a, b):
        return a.get("mark") == b.get("mark")

    count = 1
    for v in range(g.n):
        fixed = set(range(v))
        orbit = 0
        for w in range(v, g.n):
            # a cheap necessary condition first, then VF2
            if len(adj[w]) != len(adj[v]) or adj[w] & fixed != adj[v] & fixed:
                continue
            h1, h2 = marked([*range(v), v]), marked([*range(v), w])
            orbit += GraphMatcher(h1, h2, node_match=match).is_isomorphic()
        count *= orbit
    return count


def _coset_of(classes, r):
    """The right coset H·r of the block group H, as r's images with the
    blocks of each class renamed in the order in which r first maps onto
    them: h·r renames them by h's block permutation, so it has the same."""
    where = {w: (c, i, blk) for c, blocks in enumerate(classes) for blk in blocks
             for i, w in enumerate(blk)}
    names: dict[tuple, int] = {}
    out = []
    for w in r:
        if w in where:
            c, i, blk = where[w]
            out.append((c, i, names.setdefault(blk, len(names))))
        else:
            out.append(w)
    return tuple(out)


def _check_block_cosets(g, expected, classes=None):
    adj = adjacency_sets(g)
    if classes is None:
        classes = interchangeable_blocks(g)
    maps = chain_maps(g.n, block_coset_chain(g, classes))
    assert maps[0] == tuple(range(g.n))
    for r in maps:
        assert sorted(r) == list(range(g.n))
    # every map is tested to be an automorphism, or past 8,000 maps (the
    # 40,320 of kneser2(8)) every k-th, the fewest k that test at most 8,000
    for r in maps[:: -(-len(maps) // 8000)]:
        for v in range(g.n):
            assert adj[r[v]] == {r[w] for w in adj[v]}, (g.edges(), r)
    assert len({_coset_of(classes, r) for r in maps}) == len(maps), g.edges()
    assert len(maps) * prod(factorial(len(blocks)) for blocks in classes) == expected(g)
    return len(maps)


def test_block_coset_automorphisms_small_graphs():
    # one map per coset of H in Aut(G), counted against networkx's VF2; and
    # with no class, H is the identity and the maps are all of Aut(G)
    rng = Random(97)
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                _check_block_cosets(h, _nx_automorphisms_enumerated)
                _check_block_cosets(h, _nx_automorphisms_enumerated, ())


def _kneser(n, k):
    """The Kneser graph K(n, k), built here from its k-subsets: two are
    adjacent when they are disjoint."""
    sets = [set(c) for c in combinations(range(n), k)]
    return build_graph(len(sets), [(i, j) for i, j in combinations(range(len(sets)), 2)
                                   if not sets[i] & sets[j]])


@pytest.mark.parametrize(
    "g, order",
    [
        (book(8), 2 * factorial(8)),
        (bipartite_prism(5, 20), 2 * factorial(5) * factorial(20)),
        (complete_multipartite(5, 5), factorial(5) ** 6),
        (_kneser(7, 3), factorial(7)),
    ],
    ids=["book-8", "bipartite_prism-5-20", "complete_multipartite-5-5", "kneser-7-3"],
)
def test_full_group_chain(g, order):
    # with no block class every branch composes, and a level of b branches
    # multiplies the maps below it by b + 1, so the chain's product is
    # |Aut(G)|: far too many maps to list (2·5!·20! for K_{5,20} x K_2), so
    # the order is read from the level sizes and every branch's map is
    # checked to be an automorphism
    adj = adjacency_sets(g)
    chain = block_coset_chain(g, ())
    assert prod(len(level) + 1 for level in chain) == order
    for level in chain:
        assert all(leaves is None for _, leaves in level)
        for a, _ in level:
            assert sorted(a) == list(range(g.n)) and a != tuple(range(g.n))
            assert all(adj[a[v]] == {a[w] for w in adj[v]} for v in range(g.n))


# Aut(G) of the paper's families, counted by networkx's VF2 where it can
_PAPER_FAMILIES = [
    pytest.param(kneser2(6), 720, _nx_automorphisms_enumerated, id="kneser2-6"),
    pytest.param(prism(8), 32, _nx_automorphisms_enumerated, id="prism-8"),
    pytest.param(build_graph(10, PETERSEN_EDGES), 120, _nx_automorphisms_enumerated, id="petersen"),
    pytest.param(complete_multipartite(4, 4), 24, _nx_automorphisms_by_orbits,
                 id="complete_multipartite-4-4"),
    pytest.param(bipartite_prism(4, 5), 2, _nx_automorphisms_by_orbits, id="bipartite_prism-4-5"),
    pytest.param(book(8), 2, _nx_automorphisms_by_orbits, id="book-8"),
    # too large for VF2 to count: Aut is S_6 wr S_6 and S_7
    pytest.param(complete_multipartite(6, 6), 720, lambda g: factorial(6) ** 7,
                 id="complete_multipartite-6-6"),
    pytest.param(kneser2(7), 5040, lambda g: factorial(7), id="kneser2-7"),
    pytest.param(kneser2(8), 40320, lambda g: factorial(8), id="kneser2-8"),
]

# The 5-cycle 0-3-2-1-4-0 has the blocks (0, 3) and (1, 2): their swap is
# the reflection that fixes 4. A rotation does not normalise the group of
# that one swap, so the maps that move vertex 0 cannot all be built from
# the first one; the same holds for the 6-cycle 0-4-2-3-1-5-0 and its
# blocks (0, 4) and (1, 3).
_NON_NORMAL_CYCLES = [
    (5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)], ((0, 3), (1, 2)), 5),
    (6, [(0, 4), (0, 5), (1, 3), (1, 5), (2, 3), (2, 4)], ((0, 4), (1, 3)), 6),
]


@pytest.mark.parametrize("g, cosets, expected", _PAPER_FAMILIES)
def test_block_coset_automorphisms_paper_families(g, cosets, expected):
    assert _check_block_cosets(g, expected) == cosets
    perm = list(range(g.n))
    Random(g.n).shuffle(perm)
    assert _check_block_cosets(relabel(g, perm), expected) == cosets


def test_block_coset_automorphisms_non_normal_block_group():
    for n, edges, blocks, cosets in _NON_NORMAL_CYCLES:
        g = build_graph(n, edges)
        assert interchangeable_blocks(g) == [blocks]
        assert _check_block_cosets(g, _nx_automorphisms_enumerated) == cosets


def _check_coset_splits(g):
    """At every level j below which each branch of the chain composes, the
    products τ∘p over T_j x P_j are the flat coset maps, one per coset of
    the block group; ``coset_split`` picks one such level, and
    ``coset_halves`` returns T_j and P_j at it. Returns it."""
    classes = interchangeable_blocks(g)
    chain = block_coset_chain(g, classes)
    flat = {_coset_of(classes, r) for r in chain_maps(g.n, chain)}
    for j in range(g.n + 1):
        if j == 0 or chain[j - 1]:  # past a level with no branch, the split is the one above
            transversal, below = chain_maps(g.n, chain[:j]), chain_maps(g.n, chain[j:])
            products = {_coset_of(classes, tuple([t[u] for u in p]))
                        for t in transversal for p in below}
            assert len(transversal) * len(below) == len(flat) and products == flat, (g.edges(), j)
        if j < g.n and any(leaves is not None for _, leaves in chain[j]):
            break
    split = coset_split(chain)
    assert split <= j
    assert coset_halves(g, classes) == (chain_maps(g.n, chain[:split]), chain_maps(g.n, chain[split:]))
    return split


def test_coset_splits_cover_the_coset_maps():
    rng = Random(31)
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                _check_coset_splits(h)
    for n, edges, _, _ in _NON_NORMAL_CYCLES:
        assert _check_coset_splits(build_graph(n, edges)) == 0


@pytest.mark.parametrize("g, cosets, expected", _PAPER_FAMILIES)
def test_coset_splits_of_the_paper_families(g, cosets, expected):
    perm = list(range(g.n))
    Random(g.n).shuffle(perm)
    for h in (g, relabel(g, perm)):
        _check_coset_splits(h)


def test_block_coset_automorphisms_leave_no_reference_cycle():
    # a recursive nested search function would reference itself through its
    # closure cell, leaving garbage for the cycle collector on every call
    cycle = build_graph(5, [(0, 3), (0, 4), (1, 2), (1, 4), (2, 3)])
    for g in (complete_multipartite(4, 4), kneser2(6), cycle):
        classes = interchangeable_blocks(g)
        gc.collect()
        gc.disable()
        try:
            chain_maps(g.n, block_coset_chain(g, classes))
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_orbit_count_matches_enumeration():
    # the orbit-stabiliser count agrees with plain enumeration where both run
    for g in (build_graph(10, PETERSEN_EDGES), prism(6), complete_multipartite(2, 3)):
        assert _nx_automorphisms_by_orbits(g) == _nx_automorphisms_enumerated(g)
