"""Exact game solvers for Z(G), Z_0(G), and the oracle-game value Z_q(G).

The q-game: a player spends tokens to colour vertices (rule 1), applies the
colour change rule on the whole graph for free (rule 2), and may offer q+1
uncoloured components to an adversarial oracle which returns a nonempty
subset; the colour change rule then runs inside the subgraph induced by the
coloured vertices plus the returned components (rule 3). Z_q(G) is the
minimum number of tokens that guarantees colouring everything against every
oracle.

Solver states are normalised to CCR closure, so a single bitmask of coloured
vertices names a state. The solver is a bounded minimax (alpha-beta after
Knuth and Moore, with a memo of bounds; ``_Solver.search``): a state answers
whether its value is below a bound, with the exact value when it is and a
lower bound at or above the bound when it is not, and stops expanding once
no move can beat the best found. ``CacheStats.states`` counts expansions, a
state asked again above its stored lower bound counting again, and
``CacheStats.hits`` the lookups the memo answered.

Every automorphism of G keeps the game value, so one memo entry serves a
whole Aut(G)-orbit. The memo is keyed on a state's canonical form under
interchangeable vertex blocks (``graphs.interchangeable_blocks``) and
classes of twin classes (``graphs.outer_classes``), a subgroup H of
Aut(G): a class's part of the key is read from a table that the solver
fills as it meets each of its patterns, and an outer class's from its
members' coloured counts. The automorphisms r, one per coset H·r,
are the products τ∘p of two halves of the coset chain, split at the level
that ``graphs.coset_split`` picks: when a state b is expanded, its entry
is stored under the key of p(b) for each p of the lower half P_j, and a
lookup of x reads the keys of τ⁻¹(x) for each τ of the upper half T_j
until one holds an entry, so every state of b's orbit finds it. A token
is skipped when an element of H that fixes the state maps it to a lower
vertex, since its next state is then an automorphic image of the lower
vertex's; the tokens that other automorphisms pair are spent, and their
next states hit the memo.
Strategies are derived from the concrete states by bounded questions and
spend the lowest vertex that reaches the value, which is always kept.

One traversal answers every level q: tokens and their bounds are shared by
the levels, each level asks its own families, and a bound vector or a memo
entry is one int, a 9-bit field per level (value bits, an exact flag, a
guard bit) compared for every level at once (``_Solver.__init__``).
``zq_number`` solves one level;
``zq_values`` answers many by one rule, and every level from
``zq_saturation`` on is Z(G). ``zq_values`` yields each level's outcome
lazily, and ``settled`` reads them, stopping at the first refusal.

Rule-3 families are enumerated at size exactly q+1: the responses to any
(q+1)-subfamily are a subset of the responses to the whole family, so
offering exactly q+1 components is never worse
(``tests/test_game.py::test_zq_number_matches_set_reference`` compares the
values with a reference that offers every size). Families where some oracle
response forces nothing are pruned as dominated, which also guarantees the
recursion terminates: every expanded move strictly grows the coloured set.

Z(G) and Z_0(G) come from subset searches of decreasing size from a greedy
forcing set; only the first size with no forcing set is tested in full.
Each greedy step closes its candidates together: Z's as bit-sliced lanes
built in place from the current set, Z_0's less those that a swap of two
blocks with equal patterns maps to a lower vertex. The lanes share the
one/two carry of each open neighbourhood among the false twins that have
it. Z tests every k-subset at once, bit-sliced. Z_0 closes one k-subset
per orbit, one :func:`psd_closure` each in one loop, since an automorphism
carries a set's PSD closure to the closure of its image. Only the list of
sets depends on the graph: per orbit of the block group
(``graphs.block_orbit_subsets``) on a graph with block classes, and on one
without, the k-subsets in the same bit-sliced lanes as Z's, less every
lane that a generator of Aut(G) sends to a smaller set (``_least_sets``, a
smallest-image filter after Linton, ISSAC 2004, compared on all lanes at
once). Both budgets count the sets tested, the filtered lanes among them.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations, islice, repeat
from math import comb
from operator import getitem
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graphs import (
    BlockClass,
    Graph,
    bits,
    block_coset_chain,
    block_orbit_count,
    block_orbit_subsets,
    canonical_key,
    ccr_closure,
    coset_halves,
    interchangeable_blocks,
    mask_of,
    outer_classes,
    uncoloured_components,
)

# A rule-3 move family: component bitmasks, sorted ascending (by min vertex).
MoveFamily = tuple[int, ...]


class InfeasibleError(RuntimeError):
    """Raised when an exact computation is refused as too large."""


# One level's outcome: (q, Z_q) or (q, the refusal), q None for Z.
Outcome = tuple[int | None, int | InfeasibleError]


# ---------------------------------------------------------------------------
# Closures
# ---------------------------------------------------------------------------


def psd_closure(g: Graph, b: int) -> int:
    """Positive semidefinite forcing closure.

    Least fixpoint of: for each component W of the uncoloured subgraph, apply
    the colour change rule within G[b + W]. Independent of the game engine;
    used as the q = 0 oracle. Monotone in ``b``: colouring more vertices
    splits each uncoloured component W into parts, and a vertex whose only
    uncoloured neighbour in G[b + W] is w has no other in the part holding w.
    """
    full = g.full_mask
    prev = None
    while b != prev and b != full:
        prev = b
        for comp in uncoloured_components(g, b):
            b = ccr_closure(g, b, b | comp)
    return b


def rule3_closure(g: Graph, b: int, returned: Sequence[int]) -> int:
    """Colour change closure inside ``G[b + union(returned)]``.

    ``returned`` must be components of the uncoloured subgraph (the oracle's
    response). Forcing counts neighbours within the induced subgraph only;
    callers wanting the full rule-2 saturation afterwards apply
    :func:`ccr_closure` to the result, which is exactly what the game does.
    """
    if not returned:
        raise ValueError("returned component list is empty")
    comps = set(uncoloured_components(g, b))
    union = 0
    for r in returned:
        if r not in comps:
            raise ValueError(f"mask {r:#x} is not an uncoloured component")
        union |= r
    return ccr_closure(g, b, b | union)


def _swap_lowered(blocks: BlockClass, part: int) -> int:
    """The vertices of ``blocks`` that a swap of two blocks with the same
    pattern on ``part`` maps to a lower vertex: all but the lowest vertex at
    each position of the blocks of each pattern."""
    same: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for blk in blocks:
        same.setdefault(tuple([part >> w & 1 for w in blk]), []).append(blk)
    kept = mask_of(min(column) for group in same.values() for column in zip(*group))
    return mask_of(w for blk in blocks for w in blk) & ~kept


def _families(
    g: Graph, b: int
) -> Callable[[int], Iterator[tuple[MoveFamily, Iterator[tuple[int, int | None]]]]]:
    """Rule-3 moves from the closed state ``b``, as a function of q: the
    families of q+1 uncoloured components, in lexicographic order (shared by
    value, strategy and ``admissible_families``).

    Each family comes with a lazy iterator over the oracle's responses:
    (subset of family positions as a bitmask, closed next state), where the
    state is None if the response forces nothing. Responses are closed once
    per state and union, however many families and levels share them.
    """
    comps = uncoloured_components(g, b)
    rcache: dict[int, int | None] = {}

    def responses(fam: MoveFamily) -> Iterator[tuple[int, int | None]]:
        for r in range(1, 1 << len(fam)):
            union = 0
            for i in bits(r):
                union |= fam[i]
            s = rcache.get(union, -1)
            if s == -1:
                s = ccr_closure(g, b, b | union)
                s = None if s == b else ccr_closure(g, s)
                rcache[union] = s
            yield r, s

    return lambda q: ((fam, responses(fam)) for fam in combinations(comps, q + 1))


def admissible_families(g: Graph, b: int, q: int) -> list[MoveFamily]:
    """All rule-3 families of exactly q+1 uncoloured components that are
    guaranteed to force: every nonempty oracle response strictly enlarges the
    coloured set. ``b`` must be CCR-closed. Empty if fewer than q+1
    components exist.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if ccr_closure(g, b) != b:
        raise ValueError("coloured set is not CCR-closed")
    return [
        fam
        for fam, responses in _families(g, b)(q)
        if all(state is not None for _, state in responses)
    ]


# ---------------------------------------------------------------------------
# Strategy objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenSpend:
    vertex: int


@dataclass(frozen=True)
class OracleMove:
    """A rule-3 move: the offered family and one continuation per response.

    Responses are keyed by the tuple of returned component masks, in family
    order.
    An oracle move is always the last entry of its strategy list; play
    continues in the matching continuation.
    """

    family: MoveFamily
    responses: Mapping[MoveFamily, tuple]  # response -> Strategy (tuple of moves)


Strategy = tuple  # tuple of TokenSpend / OracleMove


@dataclass(frozen=True)
class CacheStats:
    states: int
    hits: int


@dataclass(frozen=True)
class ZqResult:
    value: int
    strategy: Strategy | None
    cache_stats: CacheStats


# ---------------------------------------------------------------------------
# The minimax solver
# ---------------------------------------------------------------------------


class _Solver:
    """One game traversal on ``g`` that answers every q in ``levels``.

    Its block group H permutes the blocks of each flat class and the twin
    classes of each outer class (``graphs.outer_classes``), a wreath
    product per outer class: the key sorts inside each class, then sorts
    the members of an outer class by their coloured counts, and the
    tokens skip what an element of H fixing the state maps lower. The
    coset maps of H in Aut(G) are split between writes and reads; where H
    is all of Aut(G), as for ``complete_multipartite`` and K_{n,n}, there
    is the identity alone.
    """

    def __init__(self, g: Graph, levels: Sequence[int]):
        self.g = g
        self.levels = tuple(levels)
        self.full = g.full_mask
        classes = interchangeable_blocks(g)
        outer = outer_classes(g, classes)
        # Per class in no outer class: its vertices, its blocks, and two
        # tables from the class's bits of a state, filled on first sight: to
        # their canonical form (``canonical_key`` on the class alone) and to
        # the vertices that a swap of two blocks with the same pattern maps
        # to a lower vertex. Such a class may have blocks of any width. The
        # members of an outer class are twin classes, and a member's bits
        # are known up to H by their count alone, so no table is filled:
        # per outer class, its vertices, its members' vertices, and per
        # member the vertices of its last c twins for each count c.
        inside = mask_of(w for members in outer for m in members for w in m)
        self.classes = [
            (mask_of(w for blk in blocks for w in blk), blocks, {}, {})
            for blocks in classes
            if not inside >> blocks[0][0] & 1
        ]
        self.outer = [
            (mask_of(w for m in members for w in m), [mask_of(m) for m in members],
             [[mask_of(m[len(m) - c:]) for c in range(len(m) + 1)] for m in members])
            for members in outer
        ]
        self.outside = self.full & ~inside & ~sum(m for m, *_ in self.classes)
        # The coset maps' halves (``graphs.coset_halves``) of the nested
        # block group: an entry is written under the keys of its state's
        # images by the maps of P_j, and a state is read under its images
        # by the inverses of the maps of T_j. Lane i of a half's table[v] is
        # v's image bit under the half's i-th map after the identity (which
        # comes first), in one 8-byte array item (n <= 64): OR-ing table[v]
        # over the vertices of b packs every image at once.
        transversal, below = coset_halves(g, classes, outer)
        self.writes = self._half(below)
        self.reads = self._half([tuple(sorted(range(g.n), key=t.__getitem__)) for t in transversal])
        # One int holds a bound or a memo entry of every level, level i in
        # the 9 bits from 9i (SWAR, after Lamport, CACM 1975): 7 value bits
        # (values and bounds are at most n + 1 <= 65), the exact flag (bit
        # 7), and a guard bit (bit 8) that is clear in every stored word. A
        # lower bound lo is stored as lo and an exact value v as v + 128,
        # above every bound, so an entry answers bounds ``betas`` when each
        # of its fields is >= beta's. ``(entry | guard) - betas`` keeps a
        # field's guard bit exactly there: each field stays in 191..447, so
        # none borrows from or carries into the next. ``entry & low`` reads
        # its values; ``exact`` asks every level with a bound above every
        # value.
        self.one = sum(1 << 9 * i for i in range(len(self.levels)))
        self.guard = self.one << 8
        self.flag = self.one << 7
        self.low = 127 * self.one
        self.exact = (g.n + 1) * self.one
        self.memo: dict[int, int] = {}
        self.states = 0
        self.hits = 0

    def key(self, b: int) -> int:
        """``canonical_key(outer, canonical_key(classes, b))``: one table
        lookup per class in no outer class, and per outer class its members'
        coloured counts, sorted, the i-th member taking the i-th count on
        its last vertices."""
        k = b & self.outside
        for mask, blocks, keys, _ in self.classes:
            part = b & mask
            got = keys.get(part)
            if got is None:
                got = keys[part] = canonical_key((blocks,), part)
            k |= got
        for _, members, last in self.outer:
            k |= sum(map(getitem, last, sorted([(b & m).bit_count() for m in members])))
        return k

    def _half(self, maps: list[tuple[int, ...]]) -> tuple[list[int], int]:
        """The lane table of ``maps`` after the identity, and how many
        lanes it has; no table when the identity is the only map."""
        others = maps[1:]
        return [
            int.from_bytes(array("Q", [1 << r[v] for r in others]), sys.byteorder)
            for v in range(self.g.n)
        ] if others else [], len(others)

    def images(self, half: tuple[list[int], int], b: int) -> Iterable[int]:
        """The keys of b's images by the maps of ``half`` after the
        identity, lazily."""
        table, count = half
        packed = 0
        for v in bits(b):
            packed |= table[v]
        lanes = array("Q", packed.to_bytes(8 * count, sys.byteorder))
        return map(self.key, lanes) if self.classes or self.outer else lanes

    def lookup(self, b: int) -> tuple[int, int]:
        """The key that holds the memo entry of b's orbit, or b's own key
        when none does, and the entry (0, no bound, when none does)."""
        memo = self.memo
        key = self.key(b)
        entry = memo.get(key)
        if entry is None and self.reads[1]:
            key = next(filter(memo.__contains__, self.images(self.reads, b)), key)
            entry = memo.get(key)
        return key, entry or 0

    def tokens(self, b: int) -> Iterator[tuple[int, int]]:
        """Rule-1 moves from ``b``: (vertex, closed next state), lowest
        vertex first, one per distinct next state.

        A vertex is skipped when an element of the block group that fixes
        ``b`` maps it to a lower vertex u: its next state is the image of
        u's, so both have one value. Those elements map a vertex of a flat
        class to the vertices at its position in the blocks with its
        pattern on ``b``, and an uncoloured vertex of an outer class to
        every uncoloured vertex of its members with as many coloured ones,
        so the vertices kept are each flat class's column minima and, per
        count, the lowest uncoloured vertex of the members with that count.
        Following lower images ends at a vertex that is kept, and the lowest
        vertex that reaches a value is kept, so strategies do not change.
        Tokens that other automorphisms fixing ``b`` would pair are all
        spent, and their next states share an orbit that the memo answers
        after the first. The skipped vertices do not depend on q, so every
        level shares the tokens.
        """
        g = self.g
        adj = g.adj
        full = self.full
        skip = 0
        for mask, blocks, _, lower in self.classes:
            part = b & mask
            got = lower.get(part)
            if got is None:
                got = lower[part] = _swap_lowered(blocks, part)
            skip |= got
        for mask, members, _ in self.outer:
            kept: dict[int, int] = {}  # per coloured count, the lowest uncoloured vertex
            for m in members:
                free = m & ~b
                if free:
                    count = (b & m).bit_count()
                    kept[count] = min(kept.get(count, free), free & -free)
            skip |= mask & ~sum(kept.values())
        seen = set()
        # ``b`` is closed, so only ``v`` and its coloured neighbours can force
        for v in bits(full & ~b & ~skip):
            nb = ccr_closure(g, b | (1 << v), full, (1 << v) | (adj[v] & b))
            if nb not in seen:
                seen.add(nb)
                yield v, nb

    def value(self, b: int) -> tuple[int, ...]:
        """Exact game values of the CCR-closed state ``b``, one per level:
        :meth:`search` with a bound above every value."""
        got = self.search(b, self.exact)
        return tuple([got >> 9 * i & 127 for i in range(len(self.levels))])

    def search(self, b: int, betas: int) -> int:
        """Game values of the CCR-closed state ``b`` under the bounds
        ``betas``, one packed field per level (see ``self.one``): the exact
        value where it is below beta, and otherwise a lower bound of at
        least beta.

        Only a move worth less than ``best``, the least value found so far,
        can change it, so a token's next state is asked with bound
        ``best - 1`` and an oracle response with ``best``, and a subtree is
        cut once it cannot go below them. A level stops expanding when
        ``best`` reaches the least value left to find: its known lower bound,
        and 1 for tokens. The memo entry of ``b`` is read by :meth:`lookup`,
        which returns the key that holds the entry of b's Aut(G)-orbit, or
        b's own, and is written under that key and its images by the write
        half (``self.writes``). So every write of one orbit goes under the
        same keys (``graphs.coset_split``), and a lookup reads the orbit's
        latest entry, as when each entry was written under the images by
        every coset automorphism. A state asked again above its stored lower
        bound is expanded again.

        The levels are compared field by field: ``(x | guard) - y`` keeps
        the guard bit of the fields where x >= y, and a guard bit m is
        widened to its field's mask by ``m - (m >> 8)``."""
        if b == self.full:
            return 0
        one, guard = self.one, self.guard
        key, entry = self.lookup(b)
        floor = entry & self.low  # exact values or lower bounds
        answered = ((entry | guard) - betas) & guard
        if answered == guard:
            self.hits += 1
            return floor
        self.states += 1
        # Per level: the value so far (beta where the entry does not answer
        # it), and the bound that next states are asked with, best - 1 where
        # a token can still lower best (b is not full, so it has a token
        # move, worth at least 1) and 0 elsewhere. Next states answer
        # exactly below it, so the bound drops to the least answer, and a
        # level is done when it reaches ``stop``.
        best = betas ^ (betas ^ floor) & (answered - (answered >> 8))
        zero = guard ^ ((floor | guard) - one) & guard  # floor == 0
        least = floor | zero >> 8  # floor, at least 1
        lower = ((best | guard) - least - one) & guard  # best > least: tokens can lower it
        if lower:
            lift = lower >> 8
            wide = lower - lift
            ask = (best & wide) - lift
            stop = (least & wide) - lift
            for _, nb in self.tokens(b):
                got = self.search(nb, ask)
                kept = ((got | guard) - ask) & guard  # got >= ask
                ask = got ^ (got ^ ask) & (kept - (kept >> 8))
                if ask == stop:
                    break
            best = (best & ~wide) + ask + lift
        # At each level, a family is abandoned as soon as one response forces
        # nothing (dominated) or reaches that level's ``best``.
        rest = ((best | guard) - floor - one) & guard  # best > floor
        if rest:
            families = _families(self.g, b)
            for i, q in enumerate(self.levels):
                shift = 9 * i
                if not rest >> shift + 8 & 1:
                    continue
                lo = floor >> shift & 127
                bound = was = best >> shift & 127
                for _, responses in families(q):
                    worst = 0
                    for _, state in responses:
                        if state is None:
                            break
                        worst = max(worst, self.search(state, bound << shift) >> shift & 127)
                        if worst >= bound:
                            break
                    else:
                        bound = worst
                        if worst <= lo:
                            break
                best -= was - bound << shift
        # exact where it was, or where a move went below beta
        below = ((betas | guard) - best - one) & guard
        values = self.memo[key] = best | entry & self.flag | below >> 1
        if self.writes[1]:  # some write map besides the identity
            self.memo.update(dict.fromkeys(self.images(self.writes, key), values))
        return best

    # -- strategy extraction (re-derives optimal moves by bounded searches) --

    def strategy(self, b: int, _memo=None) -> Strategy:
        """An optimal strategy from ``b`` at the solver's first level."""
        if _memo is None:
            _memo = {}
        if b == self.full:
            return ()
        got = _memo.get(b)
        if got is not None:
            return got
        val = self.value(b)[0]
        # Token spends first (lowest vertex), then the first family in
        # enumeration order whose worst response achieves the value. No move
        # is worth less than val, so a token whose next state is below val
        # reaches it, and so does a family whose responses are all below
        # val + 1 with the worst equal to val.
        for v, nb in self.tokens(b):
            if (self.search(nb, val) & 127) < val:
                out = (TokenSpend(v),) + self.strategy(nb, _memo)
                _memo[b] = out
                return out
        for fam, responses in _families(self.g, b)(self.levels[0]):
            branches = {}
            worst = 0
            for r, state in responses:
                if state is None:
                    break
                worst = max(worst, self.search(state, val + 1) & 127)
                if worst > val:
                    break
                branches[tuple(fam[i] for i in bits(r))] = state
            else:
                if worst == val:
                    conts = {
                        resp: self.strategy(nxt, _memo) for resp, nxt in branches.items()
                    }
                    out = (OracleMove(fam, conts),)
                    _memo[b] = out
                    return out
        raise AssertionError("no move achieves the memoised game value")


def zq_number(g: Graph, q: int, build_strategy: bool = True) -> ZqResult:
    """Exact Z_q(G) by bounded memoised minimax over CCR-closed colourings.

    A colouring's moves are searched only while one can still beat the best
    found so far (``_Solver.search``), so ``cache_stats.states`` counts the
    colourings expanded, a colouring asked again at a higher bound counting
    again, and ``cache_stats.hits`` the lookups answered by the memo. One
    memo entry serves an orbit of Aut(G): the memo is keyed on the canonical
    form under permutations of interchangeable vertex blocks (twins, book
    pages, the columns of ``K_{n,m} x K_2``) and of classes of twin classes
    (the parts of ``complete_multipartite``, the sides of K_{n,n}), read
    from per-class tables and from the twin classes' coloured counts. The
    two sides of ``K_{n,n} x K_2`` are classes of columns, which do not
    nest, so their swap is a coset map. The automorphisms, one per coset of
    the block group, come from a chain built by orbit closure, one
    backtrack descent per new generator (``graphs.block_coset_chain``), and
    split into two halves whose products they are: each entry is also
    stored under the colouring's images by one half, and a lookup reads a
    colouring's images by the inverses of the other (48 writes and 15
    reads for the 720 maps of ``kneser2(6)``, none for
    ``complete_multipartite``, whose block group is all of Aut(G)). A graph
    whose only symmetries are block permutations gets the identity alone.
    A token that an element of the block group fixing the colouring maps to
    a lower vertex is skipped, so ``cache_stats.hits`` does not count those
    duplicates; the tokens that other automorphisms pair are all spent, and
    their repeats count as hits.

    Rule-3 families are offered at size exactly q+1, which gives the same
    value as every size >= q+1 because a (q+1)-subfamily's responses are a
    subset of the whole family's; ``test_zq_number_matches_set_reference``
    checks it against a reference solver that offers every size. The one
    level is the low field of the solver's packed words: its bounds and
    memo entries are the 7-bit value and the exact flag of a small int.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    solver = _Solver(g, (q,))
    start = ccr_closure(g, 0)
    (value,) = solver.value(start)
    strategy = solver.strategy(start) if build_strategy else None
    return ZqResult(value, strategy, CacheStats(solver.states, solver.hits))


# ---------------------------------------------------------------------------
# Z(G) and Z_0(G) by decreasing-size subset search
# ---------------------------------------------------------------------------


# sets the Z and Z_0 searches may test, summed over the sizes they test
Z_SUBSET_BUDGET = 3_000_000
Z0_SUBSET_BUDGET = 200_000


def _greedy_forcing_set(g: Graph, psd: bool, classes: Sequence[BlockClass] = ()) -> int:
    """A set with a full closure, PSD when ``psd`` and CCR otherwise: add
    the vertex of largest closure (the lowest on ties) until it is full,
    then drop each vertex it can spare. The closure is monotone and
    idempotent, so s + v closes as its closure c + v does, and c + v's
    closure is the next c; the candidates of one step are closed together
    (:func:`_largest_closure`). The empty set's closure is empty.

    With ``classes`` (``z0_number``'s block classes), a candidate that a
    swap of two blocks with equal patterns on the current set maps to a
    lower vertex is skipped (:func:`_swap_lowered`, as in
    ``_Solver.tokens``): the swap fixes the set and carries the lower
    vertex's closure onto the candidate's, and ties go to the lower vertex,
    so the set is the same as without the skip."""
    full = g.full_mask
    masks = [(mask_of(w for blk in blocks for w in blk), blocks) for blocks in classes]

    def kept(base: int, vs: int) -> list[int]:
        for m, blocks in masks:
            vs &= ~_swap_lowered(blocks, base & m)
        return list(bits(vs))

    s = c = 0
    while c != full:
        free = kept(c, full & ~c)
        i, c = _largest_closure(g, psd, c, free)
        s |= 1 << free[i]
    # one batch per dropped vertex: a vertex the set could not spare before a
    # drop cannot be spared after it, by monotonicity, and a skipped vertex
    # can be spared only if a lower one of the set can
    rest = s
    while drop := kept(s, rest):
        i, c = _largest_closure(g, psd, s, drop)
        if c != full:
            break
        s ^= 1 << drop[i]
        rest &= -2 << drop[i]  # the vertices above the dropped one
    return s


def _largest_closure(g: Graph, psd: bool, base: int, flips: list[int]) -> tuple[int, int]:
    """The position i in ``flips`` whose set base ^ {flips[i]} has the
    largest closure, the first on ties, and that closure. A PSD closure is
    one :func:`psd_closure` each. CCR closes them all in place: lane i is
    base ^ {flips[i]}, its uncoloured columns built straight from ``base``
    and closed by :func:`_ccr_lanes`; the lanes' uncoloured counts are added
    up bit-sliced over the columns, the least is read from the highest bit
    plane down, and only that lane's closure is read out."""
    if psd:
        closures = [psd_closure(g, base ^ 1 << v) for v in flips]
        largest = max(closures, key=int.bit_count)
        return closures.index(largest), largest
    every = (1 << len(flips)) - 1
    unc = [0 if base >> v & 1 else every for v in range(g.n)]
    for i, v in enumerate(flips):
        unc[v] ^= 1 << i
    planes: list[int] = []  # planes[p]: the lanes whose count has bit p
    for carry in _ccr_lanes(g, unc):
        p = 0
        while carry:
            if p == len(planes):
                planes.append(0)
            planes[p], carry = planes[p] ^ carry, planes[p] & carry
            p += 1
    fewest = every
    for plane in reversed(planes):
        if fewest & ~plane:
            fewest &= ~plane
    i = (fewest & -fewest).bit_length() - 1
    return i, g.full_mask ^ sum((col >> i & 1) << v for v, col in enumerate(unc))


def _search_min_forcing(
    g: Graph, psd: bool, forces: Callable[[int], bool], budget: int,
    classes: Sequence[BlockClass] = (),
) -> int:
    """Least k with ``forces(k)`` (some k-set has a full closure, PSD when
    ``psd``). A superset of a forcing set forces, so sizes are tested
    downwards from the greedy set's to the minimum degree, a lower bound for
    Z and Z_0 (see :func:`z_number` and :func:`z0_number`); the first with
    no forcing set is the only one tested in full. ``budget`` counts the
    sets tested, the ``block_orbit_subsets`` (all C(n, k) with no
    ``classes``), counted by ``block_orbit_count`` without listing them: a
    size that would exceed it is refused before any of its sets is tested."""
    k = _greedy_forcing_set(g, psd, classes).bit_count()
    tested = 0
    while k > max(1, g.min_degree()):
        tested += block_orbit_count(g, classes, k - 1)
        if tested > budget:
            raise InfeasibleError(
                f"subset search would exceed {budget} sets at size {k - 1} (n={g.n})"
            )
        if not forces(k - 1):
            break
        k -= 1
    return k


def _ccr_lanes(g: Graph, unc: list[int]) -> list[int]:
    """The colour change rule on many sets at once, bit-sliced: lane i of
    ``unc[v]`` is set when v is uncoloured in the i-th set. Closes every
    lane in place and returns ``unc``.

    The one/two carry of an open neighbourhood (a row) is computed once
    for all the vertices that share it (false twins, such as a part of
    ``complete_multipartite``), and a lane fires where the row holds one
    uncoloured vertex and at least one of those vertices is coloured. None
    of them is in the row, so its fire leaves their columns as they were,
    and they all fire from it at once."""
    rows: dict[int, list[int]] = {}
    for u, a in enumerate(g.adj):
        rows.setdefault(a, []).append(u)
    shared = [(g.neighbours[us[0]], us) for us in rows.values()]
    changed = True
    while changed:
        changed = False
        for around, us in shared:
            ones = twos = 0
            for w in around:
                twos |= ones & unc[w]
                ones |= unc[w]
            fire = ones & ~twos
            if fire:
                stay = fire  # lanes where every vertex of the row is uncoloured
                for u in us:
                    stay &= unc[u]
                fire ^= stay
                if fire:
                    changed = True
                    for w in around:
                        unc[w] &= ~fire
    return unc


def _subset_columns(n: int, k: int) -> list[int]:
    """The k-subsets of {0..n-1}, bit-sliced: lane i of column v is set
    when the i-th k-subset in lexicographic order holds v (the j-subsets of
    {s..n-1}: those holding s, then the rest)."""
    level: dict[int, list[int]] = {}  # j -> columns of s..n-1 over the j-subsets
    for s in range(n - 1, -1, -1):
        zeros = [0] * (n - s - 1)
        nxt = {}
        for j in range(max(0, k - s), min(k, n - s) + 1):
            held = comb(n - s - 1, j - 1) if j else 0
            pairs = zip(level.pop(j - 1, zeros), level.get(j, zeros))
            nxt[j] = [(1 << held) - 1] + [a | b << held for a, b in pairs]
        level = nxt
    return level.pop(k)


def _lane_sets(n: int, k: int, lanes: int) -> Iterator[int]:
    """The sets of the lanes set in ``lanes``, as masks, in lane order:
    lane i of :func:`_subset_columns` is the i-th k-subset of {0..n-1} in
    lexicographic order, the order of ``combinations``. The lanes are found
    in a string of the mask's bits (``bits`` takes time quadratic in a mask
    this long), and the subsets between them are skipped unbuilt."""
    subsets = combinations([1 << v for v in range(n)], k)
    flags = f"{lanes:b}"[::-1]
    last = -1
    i = flags.find("1")
    while i >= 0:
        yield sum(next(islice(subsets, i - last - 1, None)))
        last = i
        i = flags.find("1", i + 1)


def _least_images(columns: list[int], lanes: int, maps: Iterable[Sequence[int]]) -> int:
    """The lanes among ``lanes`` whose set S, bit-sliced by ``columns`` (as
    from :func:`_subset_columns`), is no larger as an int than its image
    under any of ``maps``, a map being the tuple of vertex images.

    Each map's image is compared with S on every lane at once, bit plane by
    bit plane from the highest vertex down: ``eq`` holds the lanes equal so
    far, and a lane where S holds the first differing vertex has the smaller
    image and is dropped. The least set of each orbit of the group that the
    maps generate is never dropped, so at least one set per orbit is kept,
    and exactly one when ``maps`` is the whole group."""
    n = len(columns)
    for t in maps:
        image = [0] * n
        for v, w in enumerate(t):
            image[w] = columns[v]
        eq, smaller = lanes, 0
        for a, b in zip(reversed(columns), reversed(image)):
            d = (a ^ b) & eq
            if d:
                smaller |= d & a
                eq ^= d
                if not eq:
                    break
        lanes &= ~smaller
    return lanes


def _ccr_level_forces(g: Graph, k: int) -> bool:
    """Does some k-subset have full CCR closure? Bit-sliced by
    :func:`_ccr_lanes` over the lanes of :func:`_subset_columns`."""
    full = (1 << comb(g.n, k)) - 1
    return reduce(int.__or__, _ccr_lanes(g, [full ^ col for col in _subset_columns(g.n, k)])) != full


def _least_sets(n: int, maps: list[tuple[int, ...]], k: int) -> Iterator[int]:
    """The k-subsets of {0..n-1} that :func:`_least_images` keeps under
    ``maps``, as masks, in lexicographic order: the lanes of
    :func:`_subset_columns` read out by :func:`_lane_sets`."""
    return _lane_sets(n, k, _least_images(_subset_columns(n, k), (1 << comb(n, k)) - 1, maps))


def z_number(g: Graph) -> int:
    """Classical zero forcing number: min |S| with full CCR closure.

    Decreasing-size subset search from a greedy forcing set down to the
    minimum degree (a forcing set must contain the first forcer and all but
    one of its neighbours); each size is tested on all its subsets at once
    by :func:`_ccr_level_forces`. Raises InfeasibleError past
    ``Z_SUBSET_BUDGET`` subsets tested.
    """
    return _search_min_forcing(g, False, lambda k: _ccr_level_forces(g, k), Z_SUBSET_BUDGET)


def z0_number(g: Graph) -> int:
    """Positive semidefinite zero forcing number: min |S| with full PSD closure.

    Decreasing-size subset search from a greedy PSD forcing set. An
    automorphism σ has psd_closure(σ(S)) = σ(psd_closure(S)), so a set's
    closure is full exactly when its image's is, and one k-set per orbit
    is enough. Each size closes its sets in one loop, stopping at the first
    full closure; only the sets differ. With block classes
    (``interchangeable_blocks(g)``) they are the orbit sets of the block
    group (``block_orbit_subsets``). Otherwise they are :func:`_least_sets`:
    every k-set is a lane of :func:`_subset_columns`, and
    :func:`_least_images` drops the lanes that some generator of Aut(G)
    sends to a smaller set, keeping the least set of each Aut(G)-orbit (and
    every set when the identity is the only automorphism). The generators are
    the map of each branch of ``graphs.block_coset_chain`` of no block
    class, a strong generating set (36 maps for the 5,040 of
    ``kneser2(7)``), each the product of the chain's orbit closure that
    reached its image or, for a new generator, the backtrack's first leaf:
    ``kneser2(7)`` closes 179 of its C(21,14) = 116,280 sets of size 14.
    Other generators of the same group keep other sets, one per orbit still
    among them, so these counts move with the chain's choice. The search is refused before a size that would take
    the sets counted past ``Z0_SUBSET_BUDGET`` (the orbit sets with block
    classes, C(n, k) without), and stops at the minimum degree δ(G)
    (δ <= tw <= Z_0; Barioli et al., J. Graph Theory 72, 2013). Direct proof:
    let S have full PSD closure. If S = V, |S| = n > δ. Otherwise let W be
    a component of G - S. Forces into different components never interact, so
    S forces G[S + W]. Claim: if W is connected, every neighbour of W lies
    in S and S forces G[S + W], then |S| >= the least degree of a vertex of
    W. Induct on |W|. If W = {v}, every neighbour of v lies in S. Otherwise
    the first force is u -> v with u in S and v the only neighbour of u in
    W. Let S' = S - u + v and W' a component of W - v. Every neighbour of W'
    lies in S', and S' forces G[S' + W']: S + v forces it, and u, coloured
    and with no neighbour in W', takes part in no force there. W' is smaller
    than W and its vertices keep their degrees, so |S| = |S'| >= their
    least degree.
    """
    full = g.full_mask
    classes = interchangeable_blocks(g)
    # the generators, built when a size is first tested
    maps = cache(lambda: [a for level in block_coset_chain(g, ()) for a, _ in level])

    def forces(k: int) -> bool:
        sets = block_orbit_subsets(g, classes, k) if classes else _least_sets(g.n, maps(), k)
        return any(psd_closure(g, s) == full for s in sets)

    return _search_min_forcing(g, True, forces, Z0_SUBSET_BUDGET, classes)


def zq_saturation(g: Graph) -> int:
    """The level n - δ(G) - 1 from which Z_q(G) = Z(G), δ the minimum degree.

    One vertex from each uncoloured component of a state is an independent
    set, and each vertex of an independent set has its δ or more neighbours
    outside it, so no state has more than n - δ components. From q = n - δ - 1
    on, a family of q+1 components holds every component of its state, and
    the oracle can return them all: that is plain CCR on a closed state,
    which forces nothing, so the family is pruned and the game is classical
    zero forcing.
    """
    return g.n - g.min_degree() - 1


def zq_values(g: Graph, levels: Iterable[int | None]) -> Iterator[Outcome]:
    """(q, Z_q(G)) for each q in ``levels`` (None = Z), or (q, the
    InfeasibleError that refused it), lazily, in the order the engines settle
    them. Z and every level from :func:`zq_saturation` on are
    :func:`z_number`; the levels 1 <= q < n - δ - 1 are one game traversal,
    which answers Z_0 too, so Z_0 is :func:`z0_number` only when no such level
    is asked. The subset searches run first, each refusal standing for its own
    levels, and no traversal starts after one: its levels carry that refusal.
    An engine runs only when its first outcome is asked for, so a reader that
    stops at a refusal (:func:`settled`) runs nothing after it; a negative
    level raises ValueError at the call, before any outcome."""
    levels = {*levels}
    if any(q is not None and q < 0 for q in levels):
        raise ValueError("q must be nonnegative")
    return _engine_outcomes(g, levels)


def _engine_outcomes(g: Graph, levels: set[int | None]) -> Iterator[Outcome]:
    """The outcomes of :func:`zq_values`, each engine run when first asked."""
    games = sorted(q for q in levels - {None} if q < zq_saturation(g))
    refused = None
    for search, qs in ((z_number, levels - {*games}), (z0_number, games if games == [0] else ())):
        try:
            value = search(g) if qs else None
        except InfeasibleError as exc:  # kept without the frames its traceback holds
            value = refused = exc.with_traceback(None)
        yield from zip(qs, repeat(value))
    if games and games != [0]:
        values = repeat(refused) if refused else _Solver(g, games).value(ccr_closure(g, 0))
        yield from zip(games, values)


def settled(outcomes: Iterable[Outcome]) -> dict[int | None, int]:
    """The values of ``outcomes`` (from :func:`zq_values` or
    ``families.solve``) by level. The first refusal is raised as soon as it
    is read, before the next outcome is asked for, so no engine runs after
    it: the one order in which every command and :func:`zq_chain` refuse."""
    values = {}
    for q, value in outcomes:
        if isinstance(value, InfeasibleError):
            raise value
        values[q] = value
    return values


def zq_chain(g: Graph, q_max: int) -> list[int]:
    """[Z_0, Z_1, ..., Z_{q_max}, Z(G)] by :func:`zq_values`, read by
    :func:`settled`: the first refusal is raised before any later engine runs."""
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    values = settled(zq_values(g, [*range(q_max + 1), None]))
    return [values[q] for q in [*range(q_max + 1), None]]


# ---------------------------------------------------------------------------
# Strategy replay (soundness checking / tracing)
# ---------------------------------------------------------------------------


def replay_strategy(
    g: Graph,
    strategy: Strategy,
    oracle: Callable[[MoveFamily], MoveFamily],
) -> tuple[int, int]:
    """Play a strategy against an oracle callback.

    The oracle receives the offered family and must return a nonempty
    subtuple. Returns (tokens spent, final coloured mask).
    """
    b = ccr_closure(g, 0)
    tokens = 0
    moves = strategy
    while moves:
        move = moves[0]
        if isinstance(move, TokenSpend):
            tokens += 1
            b = ccr_closure(g, b | (1 << move.vertex))
            moves = moves[1:]
        else:
            chosen = set(oracle(move.family))
            resp = tuple(c for c in move.family if c in chosen)
            if not resp or len(resp) != len(chosen):
                raise ValueError("oracle returned an invalid response")
            b = ccr_closure(g, rule3_closure(g, b, resp))
            moves = move.responses[resp]
    return tokens, b
