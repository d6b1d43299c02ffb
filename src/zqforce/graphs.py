"""Bitmask graph core: construction, graph6 I/O, components, and the colour change rule.

Vertex sets throughout this package are plain Python ints used as bitmasks
over vertices ``0..n-1`` (bit ``v`` set means vertex ``v`` is in the set).
Graphs are capped at 64 vertices so every vertex set fits one machine word
and doubles as a hashable cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, product
from math import comb
from operator import mul
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 64


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertices_of(mask: int) -> list[int]:
    return list(bits(mask))


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on ``n <= 64`` vertices.

    ``adj[i]`` is the neighbour bitmask of vertex ``i``; adjacency is
    symmetric and loop-free by construction.
    """

    n: int
    adj: tuple[int, ...]

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def neighbours(self) -> list[list[int]]:
        """``adj[i]``'s vertices for each i, ascending, built on first use
        and kept with the graph; read-only. Lists, not tuples: tuples this
        short go to CPython's free lists when freed, and a report that builds
        one per vertex of each graph grew its resident memory with every
        round."""
        return [list(bits(a)) for a in self.adj]

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        return min(self.adj[v].bit_count() for v in range(self.n))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i] >> j & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self.adj[i]) if i < j]

    def num_edges(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list.

    Raises ValueError for n outside 1..64, endpoints out of range, or loops.
    Every graph is built here, and n is checked before the first edge is
    drawn, so a lazy ``edges`` costs nothing when n is refused.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    adj = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# graph6 text format (short form for n <= 62, '~'-prefixed form up to 64)
# ---------------------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 string (n <= 64)."""
    s = text.strip().removeprefix(">>graph6<<")
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= d <= 63 for d in data):
        raise ValueError("graph6 byte out of range 63..126")
    if data[0] == 63:  # '~' long-form header
        if len(data) < 4 or data[1] == 63:
            raise ValueError("unsupported graph6 header (n > 258047 or truncated)")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]

    def edges():
        # build_graph checks n before it draws the first edge, so the body is
        # read only for an order it accepts
        nbits = n * (n - 1) // 2
        need = (nbits + 5) // 6
        if len(body) != need:
            raise ValueError(f"graph6 body has {len(body)} sextets, expected {need}")
        stream = "".join(f"{d:06b}" for d in body)
        if "1" in stream[nbits:]:
            raise ValueError("graph6 padding bits are not zero")
        yield from (pair for pair, bit in zip(_graph6_pairs(n), stream) if bit == "1")

    return build_graph(n, edges())


def _graph6_pairs(n: int) -> Iterator[tuple[int, int]]:
    """The vertex pairs i < j in graph6's bit order: by j, then by i."""
    return ((i, j) for j in range(1, n) for i in range(j))


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6 (short header for n <= 62)."""
    n = g.n
    stream = "".join(str(g.adj[i] >> j & 1) for i, j in _graph6_pairs(n))
    stream += "0" * (-len(stream) % 6)
    head = [n] if n <= 62 else [63, n >> 12, (n >> 6) & 63, n & 63]
    body = [int(stream[t : t + 6], 2) for t in range(0, len(stream), 6)]
    return "".join(chr(63 + d) for d in head + body)


def parse_ints(tokens: Iterable[str], what: str) -> list[int]:
    """``tokens`` as ints; the first that is not one raises ValueError
    naming it, after ``what``."""
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise ValueError(f"{what} token {token!r} is not an integer") from None
    return values


def parse_edge_list(text: str) -> Graph:
    """Parse the plain text edge-list format ``n m`` then ``m`` lines ``u v``."""
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("edge list needs a 'n m' header")
    n, m, *ends = parse_ints(tokens, "edge list")
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    if len(ends) != 2 * m:
        raise ValueError(f"{m} edges need {2 * m} endpoint tokens, found {len(ends)}")
    return build_graph(n, zip(ends[::2], ends[1::2]))


# ---------------------------------------------------------------------------
# Components
# ---------------------------------------------------------------------------


def components_within(g: Graph, mask: int) -> list[int]:
    """Connected components of ``G[mask]`` as bitmasks, ordered by minimum vertex."""
    comps = []
    rem = mask & g.full_mask
    adj = g.adj
    while rem:
        comp = rem & -rem
        frontier = comp
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & rem & ~comp
            comp |= frontier
        comps.append(comp)
        rem &= ~comp
    return comps


def uncoloured_components(g: Graph, b: int) -> list[int]:
    """Components of the uncoloured subgraph ``G[V \\ b]``, ordered by minimum vertex."""
    return components_within(g, g.full_mask & ~b)


# ---------------------------------------------------------------------------
# Colour change rule
# ---------------------------------------------------------------------------


def ccr_closure(
    g: Graph, b: int, within: int | None = None, active: int | None = None
) -> int:
    """Least fixpoint of the colour change rule starting from coloured set ``b``.

    A coloured vertex with exactly one uncoloured neighbour colours that
    neighbour. With ``within`` the rule runs in the induced subgraph
    ``G[within]``: only coloured vertices inside it force, and only
    neighbours inside it count. Idempotent and monotone in ``b``.

    Worklist closure: ``todo`` holds the coloured vertices inside ``within``
    that may still force. The lowest is popped and forces if it has exactly
    one uncoloured neighbour inside ``within``; a force can only change the
    counts of the new vertex's neighbours, so the new vertex and its coloured
    neighbours inside ``within`` are pushed. The fixpoint is unique, so the
    order of forces does not change the result.

    ``active`` narrows the starting ``todo`` (``b & within``) to its own
    vertices. That is exact only if every coloured vertex inside ``within``
    left out of it cannot force in ``b``: for ``b = c | 1 << v``
    with ``c`` already closed, ``(1 << v) | (adj[v] & c)`` suffices, because
    adding ``v`` changes only the counts of ``v``'s neighbours.
    """
    adj = g.adj
    if within is None:
        within = g.full_mask
    w = within & ~b
    todo = b & within
    if active is not None:
        todo &= active
    while todo and w:
        low = todo & -todo
        todo ^= low
        x = adj[low.bit_length() - 1] & w
        if x and not x & (x - 1):
            b |= x
            w ^= x
            # the forcer ``low`` now has no uncoloured neighbour left
            todo |= x | (adj[x.bit_length() - 1] & b & within) ^ low
    return b


# ---------------------------------------------------------------------------
# Interchangeable vertex blocks (a subgroup of Aut(G))
# ---------------------------------------------------------------------------

# A block class: pairwise-disjoint vertex tuples of one length, aligned so
# that position i of every block plays the same role. Any permutation of the
# blocks that carries position i to position i is an automorphism.
BlockClass = tuple[tuple[int, ...], ...]


def _block_swap(
    g: Graph, u: int, v: int
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The swap of a block holding ``u`` with a block holding ``v``, if one
    is found: (``u``'s block in ascending order, the aligned images).

    Propagates the bijection forced by ``u -> v``: at each mapped pair
    (x, y), the neighbours of x and of y that are not mapped yet must agree
    except for at most one vertex on each side, and those two are mapped to
    each other. Anything more ambiguous gives up, and so does a swap that
    turns out not to be an automorphism.
    """
    adj = g.adj
    image = {u: v, v: u}
    moved = (1 << u) | (1 << v)
    side = [u]
    for x in side:  # grows while it is walked
        y = image[x]
        a = adj[x] & ~adj[y] & ~moved
        c = adj[y] & ~adj[x] & ~moved
        if not a and not c:
            continue
        if not a or not c or a & (a - 1) or c & (c - 1):
            return None
        xa, yc = a.bit_length() - 1, c.bit_length() - 1
        image[xa], image[yc] = yc, xa
        moved |= a | c
        side.append(xa)

    def swapped(m: int) -> int:
        out = m & ~moved
        for w in bits(m & moved):
            out |= 1 << image[w]
        return out

    touched = moved
    for w in bits(moved):
        touched |= adj[w]
    for w in bits(touched):
        if swapped(adj[w]) != adj[image.get(w, w)]:
            return None
    base = tuple(sorted(side))
    return base, tuple(image[x] for x in base)


def interchangeable_blocks(g: Graph) -> list[BlockClass]:
    """Classes of interchangeable vertex blocks, pairwise vertex-disjoint.

    For each vertex ``u`` not yet in a class, from the lowest, every later
    vertex of equal degree proposes a block swap (:func:`_block_swap`).
    Swaps that share ``u``'s block are grouped, and the images disjoint from
    it and from each other, in order of their ``v``, join it in a class; the
    largest such class is kept. Each block's swap with the first is a
    verified automorphism and the blocks are disjoint, so every permutation
    of a class's blocks is one too. Twins are blocks of size 1; the pages
    of a book and the columns of ``K_{n,m} x K_2`` are blocks of size 2.
    """
    adj = g.adj
    used = 0
    classes: list[BlockClass] = []
    for u in range(g.n):
        if used >> u & 1:
            continue
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for v in range(u + 1, g.n):
            if used >> v & 1 or adj[u].bit_count() != adj[v].bit_count():
                continue
            swap = _block_swap(g, u, v)
            if swap is not None and not mask_of(swap[0] + swap[1]) & used:
                groups.setdefault(swap[0], []).append(swap[1])
        best: BlockClass = ()
        for base, images in groups.items():
            blocks = [base]
            taken = mask_of(base)
            for img in images:
                m = mask_of(img)
                if not m & taken:
                    blocks.append(img)
                    taken |= m
            if len(blocks) > len(best):
                best = tuple(blocks)
        if best:
            classes.append(best)
            used |= mask_of(w for blk in best for w in blk)
    return classes


def canonical_key(classes: Sequence[BlockClass], b: int) -> int:
    """Canonical form of the vertex set ``b`` under permutations of blocks.

    Within each class the blocks' bit patterns (bit i from the block's
    position i) are sorted and written back in block order. Classes are
    vertex-disjoint, so the result is the same for every image of ``b``
    under the group they generate, and it is itself such an image.
    """
    for blocks in classes:
        pats = []
        for blk in blocks:
            p = 0
            for i, w in enumerate(blk):
                p |= (b >> w & 1) << i
            pats.append(p)
        ordered = sorted(pats)
        if ordered != pats:
            for blk, p in zip(blocks, ordered):
                for i, w in enumerate(blk):
                    if p >> i & 1:
                        b |= 1 << w
                    else:
                        b &= ~(1 << w)
    return b


def block_orbit_subsets(g: Graph, classes: Sequence[BlockClass], k: int) -> Iterator[int]:
    """The k-subsets of ``g``'s vertices that ``canonical_key(classes, ·)``
    fixes, each once: one set per orbit of the block group.

    These are the sets whose block patterns ascend in block order within
    every class, together with any choice of the vertices outside every
    class: for each split of k among the classes and the outside, the
    products of one such set per class and one choice outside, in the order
    of nested loops over the classes. Each class's sets of one size are
    listed once per call, when that size is first reached, in a table that
    the call alone holds; the choices outside are built lazily, so a caller
    that stops early on a graph with few classes pays only for what it
    took. The generators recurse through module-level functions, not
    closures, so a call leaves no reference cycle behind.
    """
    inside = mask_of(w for blocks in classes for blk in blocks for w in blk)
    free = [1 << v for v in bits(g.full_mask & ~inside)]
    sizes = [len(blocks) * len(blocks[0]) for blocks in classes]
    # spare[c]: the vertices of classes c.. and outside every class
    spare = [sum(sizes[c:]) + len(free) for c in range(len(classes) + 1)]
    # table[c][x]: the sets of x vertices of class c, filled on first use
    table: list[dict[int, list[int]]] = [{} for _ in classes]
    return _orbit_sets(classes, sizes, spare, free, table, [], k)


def block_orbit_count(g: Graph, classes: Sequence[BlockClass], k: int) -> int:
    """How many sets :func:`block_orbit_subsets` yields, without listing them.

    A class of m blocks of width w gives the multisets of m block patterns,
    counted by their vertices: a pattern of j vertices is one of C(w, j), and
    the multisets of c patterns among t of them number C(t + c - 1, c).
    Empty patterns fill the blocks left over, so only the nonempty ones are
    counted. The count is the coefficient of x^k in the product of the
    classes' polynomials and (1 + x)^f, f the vertices outside every class.
    """
    inside = mask_of(w for blocks in classes for blk in blocks for w in blk)
    total = [comb((g.full_mask & ~inside).bit_count(), i) for i in range(k + 1)]
    for blocks in classes:
        m, width = len(blocks), len(blocks[0])
        # ways[a][x]: multisets of a nonempty patterns with x vertices in all
        ways = [[1] + [0] * k] + [[0] * (k + 1) for _ in range(m)]
        for j in range(1, width + 1):
            t = comb(width, j)
            ways = [
                [sum(ways[a - c][x - c * j] * comb(t + c - 1, c) for c in range(min(a, x // j) + 1))
                 for x in range(k + 1)]
                for a in range(m + 1)
            ]
        poly = [sum(col) for col in zip(*ways)]
        total = [sum(total[i] * poly[x - i] for i in range(x + 1)) for x in range(k + 1)]
    return total[k]


def _orbit_sets(
    classes: Sequence[BlockClass], sizes: list[int], spare: list[int], free: list[int],
    table: list[dict[int, list[int]]], parts: list[list[int]], w: int,
) -> Iterator[int]:
    """The sets of :func:`block_orbit_subsets` with w vertices from classes
    ``len(parts)``.. and outside every class, each joined with one set of
    each list of ``parts`` (the sets chosen for the classes before), in
    product order."""
    c = len(parts)
    if c == len(classes):
        # the outside choices stay lazy: with no class they are every k-set
        for head in map(sum, product(*parts)):
            yield from map(head.__or__, map(sum, combinations(free, w)))
        return
    for x in range(max(0, w - spare[c + 1]), min(w, sizes[c]) + 1):
        heads = table[c].get(x)
        if heads is None:
            heads = table[c][x] = list(_ascending(classes[c], x))
        if heads:
            parts.append(heads)
            yield from _orbit_sets(classes, sizes, spare, free, table, parts, w - x)
            parts.pop()


def _ascending(blocks: BlockClass, x: int) -> Iterator[int]:
    """The sets of x vertices of ``blocks`` whose block patterns ascend in
    block order."""
    # A block may span a whole component, so only the nonzero patterns of
    # at most x bits are listed, ascending. most[i] is the widest among
    # pats[:i + 1]: blocks 0..j-1 can take up to j * most[i] more.
    width = len(blocks[0])
    pats = sorted(
        mask_of(c) for j in range(1, min(x, width) + 1) for c in combinations(range(width), j)
    )
    most = list(accumulate((p.bit_count() for p in pats), max))
    return _descending(blocks, pats, most, len(blocks) - 1, len(pats), x)


def _descending(
    blocks: BlockClass, pats: list[int], most: list[int], j: int, top: int, w: int
) -> Iterator[int]:
    """w vertices of blocks j, j-1, ..., 0, each block's pattern one of
    ``pats[:top]`` and no later than the pattern of the block after it."""
    if not w:
        yield 0
        return
    for i in range(top):
        c = pats[i].bit_count()
        if c <= w <= c + j * most[i]:
            head = mask_of(blocks[j][t] for t in bits(pats[i]))
            for tail in _descending(blocks, pats, most, j - 1, i + 1, w - c):
                yield head | tail


# A level k of the coset chain: one branch per image w != v of the k-th
# vertex v that the backtrack accepts after the identity on the first k, as
# (a, None) when its first leaf a carries blocks onto blocks, its leaves
# then being a composed with each map that fixes the first k + 1, and as
# (a, every leaf that maps v to w) when it does not.
CosetLevel = list[tuple[tuple[int, ...], list[tuple[int, ...]] | None]]


def block_coset_chain(g: Graph, classes: Sequence[BlockClass]) -> list[CosetLevel]:
    """One automorphism per right coset H·r of the block group H of
    ``classes`` in Aut(G), as a Schreier–Sims chain of levels, one per
    vertex of a breadth-first order; ``chain_maps(g.n, chain)`` lists the
    maps, the identity first, a map being the tuple of vertex images.

    The maps are the leaves of a backtrack over the vertices in that order
    (:func:`_coset_images`): a partial map keeps every adjacency and
    non-adjacency among the vertices mapped so far, so a leaf is an
    automorphism, and it first maps onto the blocks of each class in rank
    order, the order in which the vertex order itself first reaches them.
    The members h·r of one coset map onto the blocks of each class in orders
    that differ by h's permutation of the blocks, so exactly one member of
    each coset is a leaf, its canonical member; in H that is the identity.
    As every automorphism of G is some h·r, ``canonical_key(classes, r(b))``
    over the leaves r takes the key of every state in the Aut(G)-orbit of b.

    P_k, the leaves that fix the first k vertices of the order, is P_{k+1}
    and, for each branch of level k, the leaves L_w that map its vertex v to
    w; P_n is the identity and P_0 every leaf. Let a be the first leaf of
    L_w. If a carries the blocks of each class onto the blocks of one class,
    position for position, it normalises H (a∘H∘a⁻¹ = H), and L_w is
    {a∘x : x in P_{k+1}}, where (a∘x)(u) = a(x(u)):
    - a∘x is a leaf: it is an automorphism that agrees with a on the first
      k + 1 vertices, and it reaches the blocks of each class in rank
      order, because x reaches them in rank order and a maps them onto
      blocks in the order in which it maps the identity's, which is rank
      order since a is a leaf;
    - every r in L_w is one: y = a⁻¹∘r fixes the first k + 1 vertices, and
      the h in H that makes h∘y a leaf moves only blocks they do not reach,
      so x = h∘y is in P_{k+1}. Then r = (a∘h⁻¹∘a⁻¹)∘(a∘x) is in the coset
      H·(a∘x), and a coset has one leaf, so r = a∘x.
    Otherwise L_w is searched in full. So a map costs about one composition
    rather than one descent of the backtrack, and where every branch of
    levels 0..j-1 composes, P_0 = T_j∘P_j, T_j the products
    u_0∘u_1∘...∘u_{j-1} with u_k the identity or the first leaf of a branch
    of level k: ``chain_maps(g.n, chain[:j])``.
    """
    n = g.n
    adj = g.adj
    order: list[int] = []
    seen = i = 0
    for root in range(n):
        if not seen >> root & 1:
            seen |= 1 << root
            order.append(root)
            while i < len(order):
                new = adj[order[i]] & ~seen
                seen |= new
                order.extend(bits(new))
                i += 1
    # the neighbours of each vertex that come before it in the order
    earlier = []
    placed = 0
    for v in order:
        earlier.append(vertices_of(adj[v] & placed))
        placed |= 1 << v
    # Rank the blocks of each class in the order in which the vertex order
    # first reaches them. The blocks a partial map reaches have ranks 1, 2,
    # ..., so it may reach a block of rank j > 1 only once the block of rank
    # j - 1 is reached: gate[w] is w's block and that one.
    block_class = {blk: c for c, blocks in enumerate(classes) for blk in blocks}
    cls = [-1] * n
    block = [0] * n
    for blk, c in block_class.items():
        for w in blk:
            cls[w], block[w] = c, mask_of(blk)
    gate = [0] * n
    last = [0] * len(classes)  # the block of each class ranked last so far
    reached = 0
    for v in order:
        c = cls[v]
        if c >= 0 and not block[v] & reached:
            if last[c]:
                for w in bits(block[v]):
                    gate[w] = block[v] | last[c]
            last[c] = block[v]
            reached |= block[v]
    search = (adj, order, earlier, gate)
    chain: list[CosetLevel] = []
    for k, v in enumerate(order):
        image = list(range(n))
        used = mask_of(order[:k])
        level: CosetLevel = []
        for w in _coset_images(search, k, image, used):
            if w == v:
                continue
            image[v] = w
            leaves = _coset_leaves(search, k + 1, image, used | 1 << w)
            a = next(leaves, None)
            if a is not None:
                level.append((a, None) if _permutes_blocks(a, block_class) else (a, [a, *leaves]))
        chain.append(level)
    return chain


def chain_maps(n: int, levels: Sequence[CosetLevel]) -> list[tuple[int, ...]]:
    """The maps that ``levels``, a slice of :func:`block_coset_chain`, build
    on n vertices, the identity first: P_j for ``chain[j:]``, and T_j for
    ``chain[:j]`` when each of its branches composes."""
    maps = [tuple(range(n))]
    for level in reversed(levels):
        new: list[tuple[int, ...]] = []
        for a, leaves in level:
            # tuple() of a list allocates at the final size; of an iterator
            # it over-allocates and shrinks, which kept the process's
            # resident memory higher after the search
            new += leaves if leaves is not None else [tuple([a[u] for u in x]) for x in maps]
        maps += new
    return maps


def coset_split(chain: Sequence[CosetLevel]) -> int:
    """The level j at which the game memo splits the coset maps of
    :func:`block_coset_chain`: an entry is written under the keys of a
    state's images by P_j (``chain[j:]``), and a lookup reads the keys of a
    state's images by the inverses of T_j (``chain[:j]``).

    An expansion writes |P_j| keys, and a lookup that misses its state's own
    key packs |T_j| = |P_0| / |P_j| images and reads them until one holds an
    entry. Over the q=1 solves of ``kneser2(6)``, ``kneser2(7)``, Petersen,
    ``prism(8)`` and ``complete_multipartite(4,4)`` and ``(6,6)``, the
    lookups read 1.0 to 2.2 keys per expansion per map of T_j, so j is the
    shallowest level that minimises |P_j| + 2·|T_j|; j = 0 writes under
    every coset map and reads one key. A graph splits only when every branch
    composes. Then every map of the chain carries blocks onto blocks and
    normalises H, and so does G_j, the automorphisms that fix the first j
    vertices, since H·P_j holds G_j (the leaf of the coset of a map that
    fixes them fixes them too, see :func:`block_coset_chain`) and P_j lies
    in G_j. So N = H·G_j is a group, the keys of a state's P_j-images are
    the keys of its N-orbit, and Aut(G) = T_j·N: an automorphism is h∘τ∘p
    with τ∘p in T_j∘P_j, and h∘τ = τ∘(τ⁻¹∘h∘τ). A lookup of x reads the key
    of τ⁻¹(x) for each τ in T_j. If x is in the Aut(G)-orbit of y, then x =
    τ(y') for some τ in T_j and y' in the N-orbit of y, so one of those keys
    is the key of y', under which y's entry was written. The solver writes
    under the key that answered the lookup, or the state's own key, and its
    P_j-images. A key is an H-image of its state, so every write of one
    Aut(G)-orbit goes under the keys of the same N-orbit, each overwriting
    the last, as when every entry went under every coset map.
    """
    if any(leaves is not None for level in chain for _, leaves in level):
        return 0
    # |P_0|, ..., |P_n|: a level of b branches, each composed, has b + 1 times the maps below it
    sizes = list(accumulate((len(level) + 1 for level in reversed(chain)), mul, initial=1))[::-1]
    return min(range(len(sizes)), key=lambda j: sizes[j] + 2 * sizes[0] // sizes[j])


def coset_halves(
    g: Graph, classes: Sequence[BlockClass]
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """T_j and P_j, the maps of :func:`block_coset_chain` above and below
    its :func:`coset_split` level j, each the identity first: the game memo
    reads under T_j's inverses and writes under P_j."""
    chain = block_coset_chain(g, classes)
    j = coset_split(chain)
    return chain_maps(g.n, chain[:j]), chain_maps(g.n, chain[j:])


def _coset_images(
    search: tuple, k: int, image: list[int], used: int
) -> list[int]:
    """The images that :func:`block_coset_chain`'s backtrack accepts
    for the k-th vertex v of the order after ``image`` on the first k
    (``used`` the mask of their images), v first and then ascending: an
    unused w whose neighbours among the images so far are the images of
    v's earlier neighbours, and that reaches a new block only at the next
    rank."""
    adj, order, earlier, gate = search
    v = order[k]
    want = 0  # the images of v's earlier neighbours
    for u in earlier[k]:
        want |= 1 << image[u]
    # only a neighbour of one of them can pass the test below
    pool = (adj[image[earlier[k][0]]] if earlier[k] else (1 << len(order)) - 1) & ~used
    tried = ([v] if pool >> v & 1 else []) + vertices_of(pool & ~(1 << v))
    return [w for w in tried if adj[w] & used == want and (not gate[w] or gate[w] & used)]


def _coset_leaves(
    search: tuple, k: int, image: list[int], used: int
) -> Iterator[tuple[int, ...]]:
    """The leaves of :func:`block_coset_chain`'s backtrack that
    extend ``image`` on the first k vertices of the order, in search order.
    ``image`` is overwritten past them. A module-level generator, not a
    closure, so no reference cycle outlives the search."""
    if k == len(search[1]):
        yield tuple(image)
        return
    v = search[1][k]
    for w in _coset_images(search, k, image, used):
        image[v] = w
        yield from _coset_leaves(search, k + 1, image, used | 1 << w)


def _permutes_blocks(a: tuple[int, ...], block_class: dict[tuple[int, ...], int]) -> bool:
    """Does the map ``a`` carry the blocks of each class onto the blocks of
    one class, position for position? ``block_class`` maps each block to
    its class."""
    to: dict[int, int] = {}
    for blk, c in block_class.items():
        d = block_class.get(tuple([a[w] for w in blk]))
        if d is None or to.setdefault(c, d) != d:
            return False
    return True
