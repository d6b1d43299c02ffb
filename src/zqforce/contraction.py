"""Bipartite contraction of a partially coloured graph, and matching criteria.

Contracting every edge between two coloured vertices and every edge between
two uncoloured vertices turns a coloured graph into a bipartite multigraph
between coloured components and uncoloured components. A matching of size
q+1 in the contraction certifies a guaranteed rule-3 forcing move on trees
(and is necessary on any connected graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .graphs import Graph, bits, components_within


@dataclass(frozen=True)
class ContractedBigraph:
    """Coloured-side / uncoloured-side nodes (original vertex masks) with
    cross-edge multiplicities. Coloured components with no uncoloured
    neighbour are dropped."""

    coloured_nodes: tuple[int, ...]
    uncoloured_nodes: tuple[int, ...]
    multiplicity: tuple[tuple[int, ...], ...]  # [coloured][uncoloured] edge counts


def bipartite_contraction(g: Graph, b: int) -> ContractedBigraph:
    """Contract coloured-coloured and uncoloured-uncoloured edges of ``g``."""
    full = g.full_mask
    outside = b & ~full
    if outside:
        v = (outside & -outside).bit_length() - 1
        raise ValueError(f"coloured vertex {v} is not in the graph (n={g.n})")
    if not b or b == full:
        raise ValueError("coloured set must be nonempty and proper")
    col = components_within(g, b)
    unc = components_within(g, full & ~b)
    mult = []
    kept = []
    for c in col:
        row = []
        for u in unc:
            count = 0
            for v in bits(c):
                count += (g.adj[v] & u).bit_count()
            row.append(count)
        if any(row):
            kept.append(c)
            mult.append(tuple(row))
    return ContractedBigraph(tuple(kept), tuple(unc), tuple(mult))


def max_matching(cb: ContractedBigraph) -> int:
    """Maximum matching size of the contraction's collapsed simple bipartite
    graph (augmenting paths)."""
    adj = [[j for j, m in enumerate(row) if m > 0] for row in cb.multiplicity]
    n_unc = len(cb.uncoloured_nodes)
    match_unc = [-1] * n_unc

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_unc[j] == -1 or augment(match_unc[j], seen):
                    match_unc[j] = i
                    return True
        return False

    size = 0
    for i in range(len(cb.coloured_nodes)):
        if augment(i, [False] * n_unc):
            size += 1
    return size


def degree_one_witness(
    cb: ContractedBigraph, s: Sequence[int]
) -> int | None:
    """A coloured node of C(G){S} with total multiplicity exactly 1 into the
    uncoloured nodes ``s`` (given as indices), or None.

    Such a node guarantees a forced vertex when the oracle returns ``s``: the
    single cross edge identifies a coloured vertex with a unique uncoloured
    neighbour in the induced subgraph.
    """
    s = list(s)
    if not s:
        raise ValueError("empty uncoloured node set")
    for i, row in enumerate(cb.multiplicity):
        deg = sum(row[j] for j in s)
        if deg == 1:
            return i
    return None


def all_subsets_have_degree_one_witness(
    cb: ContractedBigraph, nodes: Sequence[int]
) -> bool:
    """True if every nonempty subset of ``nodes`` has a degree-one witness."""
    nodes = list(nodes)
    return all(
        degree_one_witness(cb, sub) is not None
        for r in range(1, len(nodes) + 1)
        for sub in combinations(nodes, r)
    )


def contraction_forcing_move(cb: ContractedBigraph, q: int) -> bool:
    """Ground truth on the contraction: a family of exactly q+1 uncoloured
    nodes such that every nonempty oracle response has a degree-one witness.

    This is the move the matching criterion governs. It implies a forcing
    move on the original graph (the witness's single cross edge forces), but
    not conversely: a coloured component with several vertices can force
    through two different branches at once, which the contraction, having
    merged them into one node of degree >= 2, cannot see.
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    nodes = range(len(cb.uncoloured_nodes))
    return any(
        all_subsets_have_degree_one_witness(cb, fam)
        for fam in combinations(nodes, q + 1)
    )
