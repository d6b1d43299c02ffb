"""Shared test utilities: independent reference implementations and generators.

The reference closures here deliberately use plain Python sets and
adjacency lists (no bitmasks) so they share no code with the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from random import Random

from zqforce.graphs import Graph, build_graph

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


@cache
def adjacency_sets(g: Graph) -> list[set[int]]:
    """Each vertex's neighbours, as a set; read-only, kept per graph."""
    return [{w for w in range(g.n) if g.adj[v] >> w & 1} for v in range(g.n)]


def naive_ccr_closure(g: Graph, start: set[int]) -> set[int]:
    adj = adjacency_sets(g)
    coloured = set(start)
    while True:
        forced = set()
        for u in coloured:
            unc = adj[u] - coloured
            if len(unc) == 1:
                forced |= unc
        if not forced:
            return coloured
        coloured |= forced


def naive_components(g: Graph, inside: set[int]) -> list[set[int]]:
    adj = adjacency_sets(g)
    left = set(inside)
    comps = []
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            v = stack.pop()
            for w in adj[v] & left:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
        left -= comp
    return comps


def naive_psd_closure(g: Graph, start: set[int]) -> set[int]:
    adj = adjacency_sets(g)
    coloured = set(start)
    while True:
        forced = set()
        for comp in naive_components(g, set(range(g.n)) - coloured):
            sub = coloured | comp
            for u in coloured:
                unc = (adj[u] & sub) - coloured
                if len(unc) == 1:
                    forced |= unc
        if not forced:
            return coloured
        coloured |= forced


def naive_induced_ccr(g: Graph, coloured: set[int], inside: set[int]) -> set[int]:
    """Step-by-step force simulation restricted to the induced vertex set."""
    coloured = set(coloured)
    while True:
        move = None
        for u in sorted(coloured & inside):
            unc = {w for w in inside if g.adj[u] >> w & 1} - coloured
            if len(unc) == 1:
                move = unc.pop()
                break
        if move is None:
            return coloured
        coloured.add(move)


def naive_min_forcing(g: Graph, closure) -> int:
    """Least size of a start set whose set-based ``closure`` is every vertex."""
    everything = set(range(g.n))
    for k in range(g.n + 1):
        for start in combinations(range(g.n), k):
            if closure(g, set(start)) == everything:
                return k
    raise AssertionError("the whole vertex set always closes")


def random_graph(rng: Random, n: int, p: float = 0.4) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_connected_graph(rng: Random, n: int, extra: float = 0.25) -> Graph:
    # random spanning tree (random attachment) plus extra edges
    edges = {(min(v, u), max(v, u)) for v in range(1, n) for u in [rng.randrange(v)]}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < extra:
                edges.add((i, j))
    return build_graph(n, sorted(edges))


def random_tree(rng: Random, n: int) -> Graph:
    return build_graph(n, [(v, rng.randrange(v)) for v in range(1, n)])


def reference_graph6_encode(g: Graph) -> str:
    """Independent graph6 encoder built on plain bit strings."""
    if g.n > 62:
        raise ValueError("reference encoder covers the short form only")
    bits = ""
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if g.adj[i] >> j & 1 else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(g.n + 63)
    for k in range(0, len(bits), 6):
        out += chr(int(bits[k : k + 6], 2) + 63)
    return out


def all_graphs_up_to_iso(n: int) -> list[Graph]:
    """Every unlabelled graph on n vertices, via orbit-deduped edge masks."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perms = [
        [index[tuple(sorted((perm[a], perm[b])))] for a, b in pairs]
        for perm in permutations(range(n))
    ]
    seen: set[int] = set()
    reps = []
    for mask in range(1 << len(pairs)):
        if mask in seen:
            continue
        reps.append(mask)
        for pm in perms:
            image = 0
            m = mask
            while m:
                low = m & -m
                m ^= low
                image |= 1 << pm[low.bit_length() - 1]
            seen.add(image)
    out = []
    for mask in reps:
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        out.append(build_graph(n, edges))
    return out


def nonisomorphic_trees(n: int) -> list[Graph]:
    import networkx as nx

    if n == 1:
        return [build_graph(1, [])]
    if n == 2:
        return [build_graph(2, [(0, 1)])]
    out = []
    for t in nx.nonisomorphic_trees(n):
        relabel = {v: i for i, v in enumerate(sorted(t.nodes()))}
        out.append(build_graph(n, [(relabel[a], relabel[b]) for a, b in t.edges()]))
    return out


def node_connectivity(g: Graph) -> int:
    """Vertex connectivity from networkx, which shares no code with the package."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.node_connectivity(h)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of ``g`` as vertex images, by networkx's VF2,
    which shares no code with the package."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return [tuple(m[v] for v in range(g.n)) for m in GraphMatcher(h, h).isomorphisms_iter()]


def mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vset(m: int) -> set[int]:
    return {i for i in range(m.bit_length()) if m >> i & 1}


def naive_game(g: Graph, q: int):
    """Game values by plain minimax over sets of coloured vertices.

    Returns a function from a set of coloured vertices to the number of
    tokens that colours every vertex from its closure against every oracle;
    Z_q(G) is its value on the empty set. Offers families of every size above
    q and prunes nothing: a family with a response that colours nothing is
    worth infinity, since the oracle may return that response for ever.
    """
    adj = adjacency_sets(g)
    everything = frozenset(range(g.n))

    def force(coloured: set[int], inside: frozenset[int]) -> frozenset[int]:
        coloured = set(coloured)
        while True:
            forced = set()
            for u in coloured & inside:
                unc = (adj[u] & inside) - coloured
                if len(unc) == 1:
                    forced |= unc
            if not forced:
                return frozenset(coloured)
            coloured |= forced

    memo: dict[frozenset[int], float] = {}

    def value(coloured: frozenset[int]) -> float:
        if coloured == everything:
            return 0
        if coloured in memo:
            return memo[coloured]
        best = min(
            1 + value(force(coloured | {v}, everything)) for v in everything - coloured
        )
        comps = naive_components(g, everything - coloured)
        for size in range(q + 1, len(comps) + 1):
            for family in combinations(comps, size):
                worst = 0
                for k in range(1, size + 1):
                    for response in combinations(family, k):
                        after = force(coloured, coloured.union(*response))
                        if after == coloured:
                            worst = float("inf")
                        else:
                            worst = max(worst, value(force(after, everything)))
                best = min(best, worst)
        memo[coloured] = best
        return best

    return lambda coloured=(): value(force(set(coloured), everything))


def random_oracle(rng: Random):
    """An oracle for ``replay_strategy`` that returns a uniform nonempty subfamily."""

    def pick(family: tuple[int, ...]) -> tuple[int, ...]:
        r = rng.randrange(1, 1 << len(family))
        return tuple(c for i, c in enumerate(family) if r >> i & 1)

    return pick


def relabel(g: Graph, perm: list[int]) -> Graph:
    """The copy of ``g`` in which vertex v is called ``perm[v]``."""
    return build_graph(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


def exact_inertia(rows) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of an integer symmetric
    matrix, by symmetric elimination over Fractions.

    Each step takes a nonzero diagonal pivot and replaces the matrix by the
    Schur complement of that pivot; when every remaining diagonal entry is 0
    but a_ij is not, adding row and column j to row and column i makes the
    diagonal entry 2 a_ij first. Both are congruences, so by Sylvester's law
    the pivot signs count the eigenvalue signs.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    neg = pos = 0
    while a:
        m = len(a)
        i = next((i for i in range(m) if a[i][i]), None)
        if i is None:
            pair = next(((i, j) for i in range(m) for j in range(m) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            for k in range(m):
                a[i][k] += a[j][k]
            for k in range(m):
                a[k][i] += a[k][j]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        rest = [k for k in range(m) if k != i]
        a = [[a[r][c] - a[r][i] * a[i][c] / p for c in rest] for r in rest]
    return neg, n - neg - pos, pos


def threshold_pattern_counts(bits: str) -> tuple[int, int, int]:
    """(s_0, s_1, p) of a creation sequence read straight off its bits: s_0
    counts the "11" patterns, s_1 a leading "01" plus the "101" patterns, and
    p the maximal runs of two or more zeros."""
    s0 = sum(1 for i in range(len(bits) - 1) if bits[i : i + 2] == "11")
    s1 = (bits[:2] == "01") + sum(1 for i in range(len(bits) - 2) if bits[i : i + 3] == "101")
    p = sum(1 for zeros in bits.split("1") if len(zeros) >= 2)
    return s0, s1, p


def clique_cover_gram(bits: str) -> list[list[int]]:
    """The PSD matrix of a threshold creation sequence, as a sum of outer
    products of clique indicators.

    Each isolated vertex (a 0) together with every later dominating vertex
    (a 1) is a clique; these cliques cover every edge, and their indicator
    vectors are independent, so the sum is PSD, supported on the edges, and
    of rank the number of zeros.
    """
    n = len(bits)
    gram = [[0] * n for _ in range(n)]
    for u, ch in enumerate(bits):
        if ch == "0":
            clique = [u] + [d for d in range(u + 1, n) if bits[d] == "1"]
            for i in clique:
                for j in clique:
                    gram[i][j] += 1
    return gram


def reference_greedy(g: Graph, closure) -> set[int]:
    """The greedy forcing set that z_number and z0_number start from, on a
    set closure ``closure(g, start)``: add the vertex whose closure is
    largest (the lowest on ties) until every vertex is coloured, then drop,
    in ascending order, each vertex the set can spare. Each step closes
    every candidate afresh; a vertex that could not be spared stays."""
    everything = set(range(g.n))
    s: set[int] = set()
    while (c := closure(g, s)) != everything:
        free = sorted(everything - c)
        sizes = [len(closure(g, c | {v})) for v in free]
        s.add(free[sizes.index(max(sizes))])
    rest = sorted(s)
    while spare := [v for v in rest if closure(g, s - {v}) == everything]:
        s.remove(spare[0])
        rest = rest[rest.index(spare[0]) + 1 :]
    return s
