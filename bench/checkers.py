"""Independent reference computations for checking zqforce's outputs.

Nothing here imports zqforce. Graphs are adjacency lists of Python sets,
vertex sets are Python sets, and matrices are checked with exact integer
arithmetic or against closed-form spectra from the paper. Vertex labelling
follows the conventions documented in ``zqforce.families`` (layer-major
products, lexicographic Kneser pairs, consecutive multipartite blocks), so
that edge lists built here can be compared entry by entry with the program's
graphs and certificates.
"""

from __future__ import annotations

import math
from itertools import combinations

# ---------------------------------------------------------------------------
# Edge lists of the named families
# ---------------------------------------------------------------------------


def adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _prism_of(n: int, edges) -> tuple[int, list[tuple[int, int]]]:
    """G x K_2, layer-major: vertex (u, layer x) is x*n + u."""
    out = [(x * n + i, x * n + j) for x in (0, 1) for i, j in edges]
    out += [(u, n + u) for u in range(n)]
    return 2 * n, out


def book_edges(n: int):
    return _prism_of(n + 1, [(0, i) for i in range(1, n + 1)])


def bipartite_prism_edges(n: int, m: int):
    return _prism_of(n + m, [(i, n + j) for i in range(n) for j in range(m)])


def kneser2_edges(n: int):
    pairs = list(combinations(range(n), 2))
    edges = [
        (i, j)
        for i in range(len(pairs))
        for j in range(i + 1, len(pairs))
        if not set(pairs[i]) & set(pairs[j])
    ]
    return len(pairs), edges


def petersen_edges():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, edges


def threshold_edges(bits: str):
    """A 1 at position j joins vertex j to every earlier vertex."""
    return len(bits), [(i, j) for j, b in enumerate(bits) if b == "1" for i in range(j)]


def edge_set(edges) -> set[tuple[int, int]]:
    return {(min(i, j), max(i, j)) for i, j in edges}


def edges_of_mask_graph(adj_masks) -> set[tuple[int, int]]:
    """Edge set of a graph given as neighbour bitmasks (the program's format)."""
    out = set()
    for i, a in enumerate(adj_masks):
        j = 0
        while a:
            if a & 1 and i < j:
                out.add((i, j))
            a >>= 1
            j += 1
    return out


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 62): upper triangle column by column, 6 bits a byte."""
    es = edge_set(edges)
    bits = [1 if (i, j) in es else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + d) for d in [n] + body)


def mask_to_set(mask: int) -> set[int]:
    out = set()
    v = 0
    while mask:
        if mask & 1:
            out.add(v)
        mask >>= 1
        v += 1
    return out


# ---------------------------------------------------------------------------
# Colour change rule, components, rule-3 moves, strategy replay
# ---------------------------------------------------------------------------


def ccr_closure(adj: list[set[int]], coloured: set[int], within: set[int] | None = None) -> set[int]:
    """Colour change rule to a fixpoint, optionally inside the induced
    subgraph on ``within`` (which must contain ``coloured``)."""
    b = set(coloured)
    scope = set(range(len(adj))) if within is None else within
    changed = True
    while changed:
        changed = False
        for u in list(b):
            white = (adj[u] & scope) - b
            if len(white) == 1:
                b |= white
                changed = True
    return b


def components(adj: list[set[int]], vertices: set[int]) -> list[frozenset[int]]:
    left = set(vertices)
    out = []
    while left:
        start = min(left)
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()] & left:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        left -= comp
        out.append(frozenset(comp))
    return out


def replay_errors(adj: list[set[int]], strategy, q: int, value: int, limit: int = 5) -> list[str]:
    """Play ``strategy`` against every oracle response.

    A move is either a token spend (an object with ``vertex``) or an oracle
    move (``family``: component bitmasks, ``responses``: tuple of returned
    bitmasks, in any order -> continuation). Every branch must spend at most
    ``value`` tokens and end with every vertex coloured; every offered family
    must be q+1 or more distinct uncoloured components; every nonempty
    response must have a continuation.
    """
    n = len(adj)
    everything = set(range(n))
    errors: list[str] = []

    def play(moves, b: set[int], tokens: int, path: str) -> None:
        if len(errors) >= limit:
            return
        for pos, move in enumerate(moves):
            if hasattr(move, "vertex"):
                if move.vertex in b:
                    errors.append(f"{path}: token on coloured vertex {move.vertex}")
                    return
                tokens += 1
                b = ccr_closure(adj, b | {move.vertex})
                continue
            if pos != len(moves) - 1:
                errors.append(f"{path}: oracle move is not the last move")
                return
            fam = [frozenset(mask_to_set(c)) for c in move.family]
            comps = set(components(adj, everything - b))
            if len(set(fam)) != len(fam) or len(fam) < q + 1 or not set(fam) <= comps:
                errors.append(f"{path}: offered family is not {q + 1}+ uncoloured components")
                return
            # A response is a set of components; its key's order is the program's business.
            responses = {frozenset(k): v for k, v in move.responses.items()}
            for r in range(1, 1 << len(fam)):
                chosen = [i for i in range(len(fam)) if r >> i & 1]
                key = frozenset(move.family[i] for i in chosen)
                if key not in responses:
                    errors.append(f"{path}: no continuation for response {sorted(key)}")
                    return
                union = set().union(*(fam[i] for i in chosen))
                nb = ccr_closure(adj, ccr_closure(adj, b, within=b | union))
                play(responses[key], nb, tokens, f"{path}/{r}")
            return
        if tokens > value:
            errors.append(f"{path}: spent {tokens} tokens > value {value}")
        if b != everything:
            errors.append(f"{path}: {len(everything - b)} vertices left uncoloured")

    play(tuple(strategy), ccr_closure(adj, set()), 0, "root")
    return errors


def contraction(adj: list[set[int]], coloured: set[int]):
    """Bipartite contraction: coloured components with an uncoloured
    neighbour, uncoloured components, cross-edge counts, and the maximum
    matching of the collapsed simple bipartite graph."""
    everything = set(range(len(adj)))
    col = components(adj, coloured)
    unc = components(adj, everything - coloured)
    kept, mult = [], []
    for c in col:
        row = [sum(len(adj[v] & u) for v in c) for u in unc]
        if any(row):
            kept.append(c)
            mult.append(row)
    match = {}

    def augment(i: int, seen: set[int]) -> bool:
        for j, m in enumerate(mult[i]):
            if m and j not in seen:
                seen.add(j)
                if j not in match or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    size = sum(1 for i in range(len(kept)) if augment(i, set()))
    return kept, unc, mult, size


# ---------------------------------------------------------------------------
# Exact inertia of integer symmetric matrices
# ---------------------------------------------------------------------------


def integer_rows(matrix) -> list[list[int]]:
    """Rows of a real matrix as Python ints; ValueError if an entry is not integral."""
    rows = []
    for row in matrix:
        out = []
        for x in row:
            x = float(x)
            if not x.is_integer():
                raise ValueError(f"entry {x!r} is not an integer")
            out.append(int(x))
        rows.append(out)
    return rows


def exact_inertia(rows: list[list[int]]) -> tuple[int, int, int]:
    """(negative, zero, positive) eigenvalue counts of an integer symmetric
    matrix, exactly.

    Fraction-free symmetric elimination (Bareiss): after k pivots every
    remaining entry is the k-th leading principal minor times the Schur
    complement entry, so each true pivot has the sign of the ratio of two
    successive minors. When every remaining diagonal entry is zero but an
    off-diagonal entry a_ij is not, adding row and column j to row and column
    i (a congruence) makes the diagonal entry 2*a_ij. Congruence preserves
    inertia (Sylvester), so the pivot signs count the eigenvalue signs.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    a = [list(r) for r in rows]
    prev = 1
    neg = pos = 0
    while a:
        m = len(a)
        p = next((i for i in range(m) if a[i][i]), None)
        if p is None:
            pair = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if pair is None:
                break
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for r in a:
                r[i] += r[j]
            p = i
        piv = a[p][p]
        if (piv > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        rowp = a[p]
        nxt = []
        for r, row in enumerate(a):
            if r == p:
                continue
            f = row[p]
            if f:
                new = [(piv * x - f * y) // prev for x, y in zip(row, rowp)]
            else:
                new = [piv * x // prev for x in row]
            del new[p]
            nxt.append(new)
        a = nxt
        prev = piv
    return neg, n - neg - pos, pos


# ---------------------------------------------------------------------------
# Matrix support and closed-form spectra
# ---------------------------------------------------------------------------


def support_errors(matrix, n: int, edges) -> list[str]:
    """Off-diagonal entries must be nonzero exactly on the edges."""
    es = edge_set(edges)
    if len(matrix) != n:
        return [f"matrix order {len(matrix)} != {n}"]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                out.append(f"asymmetric at ({i},{j})")
            elif (matrix[i][j] != 0) != ((i, j) in es):
                out.append(f"support mismatch at ({i},{j})")
            if len(out) >= 5:
                return out
    return out


def book_spectrum(n: int) -> list[float]:
    r = math.sqrt(n)
    return sorted([2 * r] + [0.0] * n + [r] * n + [-r])


def bipartite_prism_spectrum(n: int, m: int) -> list[float]:
    r = math.sqrt(n * m)
    k = n + m - 1
    return sorted([2 * r] + [r] * k + [0.0] * k + [-r])


def spectrum_errors(eigs, expected: list[float], rel_tol: float = 1e-9) -> list[str]:
    eigs = sorted(float(x) for x in eigs)
    if len(eigs) != len(expected):
        return [f"{len(eigs)} eigenvalues, expected {len(expected)}"]
    scale = max(1.0, max(abs(x) for x in expected))
    worst = max(abs(x - y) for x, y in zip(eigs, expected))
    return [] if worst <= rel_tol * scale else [f"spectrum off by {worst:.3g}"]


def sign_counts(values, zero_count: int) -> tuple[int, int, int]:
    """(neg, zero, pos) of a closed-form spectrum whose zeros are exact."""
    neg = sum(1 for x in values if x < 0)
    return neg, zero_count, len(values) - neg - zero_count


# ---------------------------------------------------------------------------
# Closed forms and proven bounds from the paper
# ---------------------------------------------------------------------------


def closed_form(family: str, params: tuple[int, ...], q: int | None) -> set[int] | None:
    """Proven value set of Z_q (q=None: classical Z) for a named family, or
    None where the paper proves no closed form (conjectures included)."""
    if family == "complete_prism":
        return {params[0]}
    if family == "ladder" and params[0] >= 3:
        return {2}
    if family == "prism" and params[0] >= 4:
        return {4}
    if family == "book" and params[0] >= 3:
        return {2} if q == 0 else {params[0]}
    if family == "complete_bipartite" and min(params) >= 2:
        return {min(params)} if q == 0 else {sum(params) - 2}
    if family == "petersen" or (family == "kneser2" and params[0] == 5):
        return {4} if q == 0 else {5}
    if family == "kneser2" and params[0] in (6, 7):
        n = params[0]
        v = math.comb(n, 2)
        if q == 0:
            return {v - 6}
        z = 10 if n == 6 else v - 6
        if q is None or q >= n - 1:
            return {z}
        if q == 1:
            return {v - 5} if n == 6 else {15}
        return None
    if family == "complete_multipartite" and params[0] >= 2 and params[1] >= 3:
        n, parts = params
        if q == 0:
            return {n * (parts - 1)}
        if q is None:
            return {n * parts - 2}
        return None
    if family == "bipartite_prism" and min(params) >= 2 and q is not None and q >= 1:
        n, m = params
        return {n + m - 1, n + m}
    return None


def chain_errors(values: dict) -> list[str]:
    """Proven chain Z_0 <= Z_1 <= ... <= Z over the levels present.

    ``values`` maps q (None for the classical Z) to a computed value.
    """
    qs = sorted(q for q in values if q is not None)
    order = [(q, values[q]) for q in qs]
    if None in values:
        order.append((None, values[None]))
    return [
        f"Z_{a} = {va} > Z_{'Z' if b is None else b} = {vb}"
        for (a, va), (b, vb) in zip(order, order[1:])
        if va > vb
    ]


def closed_chain_errors(family: str, params: tuple[int, ...], values: dict) -> list[str]:
    """The proven chain between computed values and the closed forms of the
    levels 0, 1 and Z that were not computed: Z_a <= max(closed form of Z_b)
    and Z_b >= min(closed form of Z_a) for every level a below level b."""
    def rank(q):
        return math.inf if q is None else q

    def name(q):
        return "Z" if q is None else f"Z_{q}"

    errors = []
    for q, v in values.items():
        for other in (0, 1, None):
            known = None if other in values else closed_form(family, params, other)
            if not known:
                continue
            if rank(q) < rank(other) and v > max(known):
                errors.append(f"{name(q)} = {v} > {name(other)}, which is at most {max(known)}")
            if rank(other) < rank(q) and v < min(known):
                errors.append(f"{name(q)} = {v} < {name(other)}, which is at least {min(known)}")
    return errors


# ---------------------------------------------------------------------------
# Threshold graphs
# ---------------------------------------------------------------------------


def runs_of(bits: str) -> list[tuple[int, int]]:
    """(zero-run length, one-run length) pairs of a 0...1 creation sequence."""
    out = []
    i = 0
    while i < len(bits):
        j = i
        while j < len(bits) and bits[j] == "0":
            j += 1
        k = j
        while k < len(bits) and bits[k] == "1":
            k += 1
        out.append((j - i, k - j))
        i = k
    return out


def threshold_zq(bits: str, q: int) -> int:
    """Z_q = T + (sum of the q largest max(k_j - 2, 0)); q past s clamps to s."""
    runs = runs_of(bits)
    a = sorted((max(k - 2, 0) for k, _ in runs), reverse=True)
    return sum(t for _, t in runs) + sum(a[:q])


def threshold_z(bits: str) -> int:
    """Classical Z = n - s - p, p the number of zero-runs of length >= 2."""
    runs = runs_of(bits)
    return len(bits) - len(runs) - sum(1 for k, _ in runs if k >= 2)
