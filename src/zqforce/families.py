"""Named graph families, the registry of known/conjectured Z_q values, and
reproduction / conjecture-probe reports.

Vertex labelling conventions: Cartesian products G x K_2 are layer-major
(all of layer a, then all of layer b, matching vertices n apart); Kneser
two-set graphs list the 2-subsets of {0..n-1} in lexicographic order;
complete bipartite / multipartite parts are consecutive index blocks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import chain, combinations, starmap
from math import comb
from random import Random
from typing import Iterable, Iterator, Sequence

from .graphs import MAX_VERTICES, Graph, bits, build_graph, components_within
from .game import Z_SUBSET_BUDGET, InfeasibleError, Outcome, settled, zq_saturation, zq_values

# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

# Each generator hands build_graph its edges lazily: build_graph refuses more
# than MAX_VERTICES vertices before it draws an edge, so an oversized
# parameter is refused at once, whatever its edge count.


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return build_graph(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def star(n: int) -> Graph:
    """K_{1,n}: centre is vertex 0, leaves 1..n."""
    if n < 1:
        raise ValueError("star needs n >= 1 leaves")
    return build_graph(n + 1, ((0, i) for i in range(1, n + 1)))


def complete_bipartite(n: int, m: int) -> Graph:
    if n < 1 or m < 1:
        raise ValueError("complete bipartite needs n, m >= 1")
    return build_graph(n + m, ((i, n + j) for i in range(n) for j in range(m)))


def complete_multipartite(n: int, parts: int) -> Graph:
    """K_{n,...,n} with ``parts`` parts of size n, parts as consecutive blocks."""
    if n < 1 or parts < 2:
        raise ValueError("complete multipartite needs n >= 1 and >= 2 parts")
    edges = (
        (a * n + i, b * n + j)
        for a in range(parts)
        for b in range(a + 1, parts)
        for i in range(n)
        for j in range(n)
    )
    return build_graph(n * parts, edges)


def kneser_pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def kneser2(n: int) -> Graph:
    """Kneser graph K(n,2): 2-subsets of {0..n-1}, adjacent iff disjoint."""
    if n < 5:
        raise ValueError("kneser2 needs n >= 5 (smaller cases are edgeless or trivial)")

    def edges():
        pairs = kneser_pairs(n)
        for i, j in combinations(range(len(pairs)), 2):
            if not set(pairs[i]) & set(pairs[j]):
                yield i, j

    return build_graph(comb(n, 2), edges())


def petersen() -> Graph:
    """Outer 5-cycle 0..4, spokes to 5..9, inner pentagram."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product, layer-major: vertex (u, x) has index x*g.n + u."""
    layers = ((x * g.n + i, x * g.n + j) for x in range(h.n) for i, j in g.edges())
    rungs = ((x * g.n + u, y * g.n + u) for u in range(g.n) for x, y in h.edges())
    return build_graph(g.n * h.n, chain(layers, rungs))


def book(n: int) -> Graph:
    """Book graph K_{1,n} x K_2 on 2(n+1) vertices."""
    return cartesian_product(star(n), complete(2))


def ladder(n: int) -> Graph:
    return cartesian_product(path(n), complete(2))


def prism(n: int) -> Graph:
    return cartesian_product(cycle(n), complete(2))


def complete_prism(n: int) -> Graph:
    return cartesian_product(complete(n), complete(2))


def bipartite_prism(n: int, m: int) -> Graph:
    return cartesian_product(complete_bipartite(n, m), complete(2))


# name -> (parameter count, generator, vertex count)
_FAMILIES = {
    "path": (1, path, lambda n: n),
    "cycle": (1, cycle, lambda n: n),
    "complete": (1, complete, lambda n: n),
    "star": (1, star, lambda n: n + 1),
    "complete_bipartite": (2, complete_bipartite, lambda n, m: n + m),
    "complete_multipartite": (2, complete_multipartite, lambda n, parts: n * parts),
    "kneser2": (1, kneser2, lambda n: comb(n, 2)),
    "petersen": (0, petersen, lambda: 10),
    "book": (1, book, lambda n: 2 * (n + 1)),
    "ladder": (1, ladder, lambda n: 2 * n),
    "prism": (1, prism, lambda n: 2 * n),
    "complete_prism": (1, complete_prism, lambda n: 2 * n),
    "bipartite_prism": (2, bipartite_prism, lambda n, m: 2 * (n + m)),
}


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(f"unknown family {self.name!r}")
        arity = _FAMILIES[self.name][0]
        if len(self.params) != arity:
            raise ValueError(
                f"family {self.name!r} takes {arity} parameter(s), got {len(self.params)}"
            )

    def label(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({','.join(map(str, self.params))})"


def generate(spec: FamilySpec) -> Graph:
    return _FAMILIES[spec.name][1](*spec.params)


# ---------------------------------------------------------------------------
# Registry of known and conjectured values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnownValue:
    """One registry claim: Z_q(family) lies in ``values`` for q in
    [q_min, q_max] (q_min=None means the classical Z-number; q_max=None means
    every q >= q_min). Two-element value sets carry membership semantics."""

    family: FamilySpec
    q_min: int | None
    q_max: int | None
    values: frozenset[int]
    anchor: str
    conjecture: bool = False


def _kv(name, params, q_min, q_max, values, anchor, conjecture=False):
    vals = frozenset(values if isinstance(values, (set, frozenset, list, tuple)) else [values])
    return KnownValue(FamilySpec(name, tuple(params)), q_min, q_max, vals, anchor, conjecture)


def known_values(max_n: int = 8) -> list[KnownValue]:
    """The registry, instantiated for family parameters up to ``max_n``,
    leaving out every instance on more than ``MAX_VERTICES`` vertices."""
    # no family has fewer vertices than its largest parameter
    max_n = min(max_n, MAX_VERTICES)
    out: list[KnownValue] = []
    for n in range(1, max_n + 1):
        out.append(_kv("complete_prism", [n], 0, None, n, "Z_q(K_n x K_2) = n for every q"))
    for n in range(3, max_n + 1):
        out.append(_kv("ladder", [n], 0, None, 2, "Z_q(P_n x K_2) = 2 for every q (n >= 3)"))
    # C_3 x K_2 is K_3 x K_2 with value 3, so the constant-4 claim starts at n=4.
    for n in range(4, max_n + 1):
        out.append(_kv("prism", [n], 0, None, 4, "Z_q(C_n x K_2) = 4 for every q (n >= 4)"))
    for n in range(3, max_n + 1):
        out.append(_kv("book", [n], 0, 0, 2, "Z_0(K_{1,n} x K_2) = 2"))
        out.append(_kv("book", [n], 1, None, n, "Z_q(K_{1,n} x K_2) = n for q >= 1"))
    for n in range(2, max_n + 1):
        for m in range(n, max_n + 1):
            out.append(_kv("complete_bipartite", [n, m], 0, 0, n,
                           "Z_0(K_{n,m}) = min(n,m) (n,m >= 2)"))
            out.append(_kv("complete_bipartite", [n, m], 1, None, n + m - 2,
                           "Z_q(K_{n,m}) = n+m-2 for q >= 1 (n,m >= 2)"))
    out.append(_kv("petersen", [], 0, 0, 4, "Z_0(Petersen) = 4"))
    out.append(_kv("petersen", [], 1, None, 5, "Z_q(Petersen) = 5 for q >= 1"))
    out.append(_kv("petersen", [], None, None, 5, "Z(Petersen) = 5"))
    for n in range(5, max_n + 1):
        v = comb(n, 2)
        if n in (5, 6, 7):
            out.append(_kv("kneser2", [n], 0, 0, v - 6, "Z_0(K(n,2)) = C(n,2)-6 for n in 5..7"))
        if n in (5, 6):
            out.append(_kv("kneser2", [n], 1, 1, v - 5, "Z_1(K(n,2)) = C(n,2)-5 for n in 5..6"))
        if n == 7:
            out.append(_kv("kneser2", [n], 1, 1, 15, "Z_1(K(7,2)) = 15"))
        if n == 5:
            out.append(_kv("kneser2", [n], None, None, 5, "Z(K(5,2)) = 5"))
        elif n == 6:
            out.append(_kv("kneser2", [n], None, None, 10, "Z(K(6,2)) = 10"))
        else:
            out.append(_kv("kneser2", [n], None, None, v - 6, "Z(K(n,2)) = C(n,2)-6 for n >= 7"))
        if n >= 8:
            two = {comb(n - 1, 2) - 1, comb(n - 1, 2)}
            out.append(_kv("kneser2", [n], 0, 2, two,
                           "Z_q(K(n,2)) in {C(n-1,2)-1, C(n-1,2)} for q <= 2, n >= 8"))
            out.append(_kv("kneser2", [n], 0, 0, comb(n - 1, 2),
                           "conjecture: Z_0(K(n,2)) = C(n-1,2) for n >= 8", conjecture=True))
        if n >= 6:
            z = 10 if n == 6 else v - 6
            out.append(_kv("kneser2", [n], n - 1, None, z,
                           "Z_q(K(n,2)) = Z(K(n,2)) for q >= n-1, n >= 6"))
    for parts in range(3, max_n + 1):
        for n in range(2, max_n + 1):
            out.append(_kv("complete_multipartite", [n, parts], 0, 0, n * (parts - 1),
                           "Z_0(K_{n,..,n}, l parts) = n(l-1) (n >= 2, l >= 3)"))
            out.append(_kv("complete_multipartite", [n, parts], None, None, n * parts - 2,
                           "Z(K_{n,..,n}, l parts) = n*l-2 (n >= 2, l >= 3)"))
            out.append(_kv("complete_multipartite", [n, parts], 1, None, n * parts - 2,
                           "conjecture: Z_q(K_{n,..,n}, l parts) = n*l-2 for q >= 1",
                           conjecture=True))
    for n in range(2, max_n + 1):
        for m in range(n, max_n + 1):
            out.append(_kv("bipartite_prism", [n, m], 0, 0, 2 * n,
                           "conjecture: Z_0(K_{n,m} x K_2) = 2*min(n,m)", conjecture=True))
            out.append(_kv("bipartite_prism", [n, m], 1, None, {n + m - 1, n + m},
                           "Z_q(K_{n,m} x K_2) in {n+m-1, n+m} for q >= 1"))
            out.append(_kv("bipartite_prism", [n, m], 1, None, n + m,
                           "conjecture: Z_q(K_{n,m} x K_2) = n+m for q >= 1", conjecture=True))
    return [kv for kv in out if _FAMILIES[kv.family.name][2](*kv.family.params) <= MAX_VERTICES]


def _claims(spec: FamilySpec, q: int | None) -> list[KnownValue]:
    """The registry rows about the family at level q (q=None for the
    classical Z-number), in registry order. The registry lists K_{n,m} and
    K_{n,m} x K_2 as (min, max), so their parameters match in either order."""
    if spec.name in ("complete_bipartite", "bipartite_prism"):
        spec = FamilySpec(spec.name, tuple(sorted(spec.params)))
    return [
        kv
        for kv in known_values(max_n=max(spec.params, default=0))
        if kv.family == spec
        and (kv.q_min is None if q is None else
             kv.q_min is not None and kv.q_min <= q and (kv.q_max is None or q <= kv.q_max))
    ]


def lookup(spec: FamilySpec, q: int | None) -> KnownValue | None:
    """First non-conjecture registry row covering the family at level q."""
    return next((kv for kv in _claims(spec, q) if not kv.conjecture), None)


# ---------------------------------------------------------------------------
# Reproduction report
# ---------------------------------------------------------------------------

# The one game-size limit: :func:`solve`, behind reproduce, probe and the CLI,
# refuses a game traversal on more vertices (the CLI unless given --force).
GAME_MAX_N = 16
# a registry claim over a range of q is checked at its first PROBE_LEVELS levels
PROBE_LEVELS = 3


@dataclass(frozen=True)
class ReportRow:
    family: str
    q: int | None  # None = classical Z
    expected: tuple[int, ...]
    computed: int | None
    status: str  # PASS / FAIL / AGREE / DIFFER / SKIP
    anchor: str


def game_refusal(g: Graph) -> InfeasibleError | None:
    """The refusal of a game traversal on ``g``: more than GAME_MAX_N vertices."""
    return InfeasibleError(f"game solve refused for n={g.n} > {GAME_MAX_N}") if g.n > GAME_MAX_N else None


def solve(g: Graph, qs: Sequence[int | None]) -> Iterator[Outcome]:
    """``zq_values`` of ``g`` at the levels ``qs`` (None = Z), lazily, its
    game levels' :func:`game_refusal` first: a reader that stops there runs
    no subset search. A negative level raises ValueError at the call, before
    any refusal, as ``zq_values`` does."""
    refused = game_refusal(g)
    games = [q for q in qs if q is not None and 0 < q < zq_saturation(g)] if refused else []
    return chain(dict.fromkeys(games, refused).items(), zq_values(g, {*qs} - {*games}))


def _outcomes(g: Graph, qs: Sequence[int | None]) -> dict[int | None, int | InfeasibleError]:
    """Every outcome of :func:`solve`, refusals included, as a dict: a
    module-level function, so the ``--jobs`` pool can send it to a worker."""
    return dict(solve(g, qs))


def _row_checks(kv: KnownValue) -> list[tuple[FamilySpec, int | None]]:
    if kv.q_min is None:
        return [(kv.family, None)]
    last = kv.q_min + PROBE_LEVELS - 1
    hi = last if kv.q_max is None else min(kv.q_max, last)
    return [(kv.family, q) for q in range(kv.q_min, hi + 1)]


def _row(kv: KnownValue, spec: FamilySpec, q: int | None, outcome: int | InfeasibleError) -> ReportRow:
    expected = tuple(sorted(kv.values))
    if isinstance(outcome, InfeasibleError):
        return ReportRow(spec.label(), q, expected, None, f"SKIP ({outcome})", kv.anchor)
    if kv.conjecture:
        status = "AGREE" if outcome in kv.values else "DIFFER"
    else:
        status = "PASS" if outcome in kv.values else "FAIL"
    return ReportRow(spec.label(), q, expected, outcome, status, kv.anchor)


def reproduce_report(max_n: int, jobs: int = 1) -> list[ReportRow]:
    """Solve every feasible registry entry and compare with its recorded value.

    Known rows get PASS/FAIL, conjecture rows AGREE/DIFFER, entries too large
    for an exact solve SKIP. Each range claim is sampled at its first
    ``PROBE_LEVELS`` levels; each family is solved once, at every level its
    rows check, and at most ``jobs`` processes, one per family, share the
    families.
    """
    if max_n < 0:
        raise ValueError(f"max_n must be at least 0, got {max_n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    checks = [
        (kv, spec, q)
        for kv in known_values(max_n=max_n)
        for spec, q in _row_checks(kv)
    ]
    levels: dict[FamilySpec, list[int | None]] = {}
    for _, spec, q in checks:
        levels.setdefault(spec, []).append(q)
    tasks = [(generate(spec), qs) for spec, qs in levels.items()]
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            outcomes = pool.starmap(_outcomes, tasks)
    else:
        outcomes = list(starmap(_outcomes, tasks))
    solved = dict(zip(levels, outcomes))
    return [_row(kv, spec, q, solved[spec][q]) for kv, spec, q in checks]


def render_report(rows: Iterable[ReportRow], fmt: str = "text") -> str:
    rows = list(rows)
    if fmt == "json":
        import json

        return json.dumps([asdict(r) for r in rows], indent=2)
    if fmt == "csv":
        out = ["family,q,expected,computed,status,anchor"]
        for r in rows:
            exp = "|".join(map(str, r.expected))
            comp = "" if r.computed is None else str(r.computed)
            status = r.status.split(" ")[0]
            out.append(f'{r.family},{"Z" if r.q is None else r.q},{exp},{comp},{status},"{r.anchor}"')
        return "\n".join(out) + "\n"
    width = max([len(r.family) for r in rows] + [6])
    out = []
    for r in rows:
        q = " Z" if r.q is None else f"{r.q:2d}"
        exp = "|".join(map(str, r.expected))
        comp = "-" if r.computed is None else str(r.computed)
        out.append(f"{r.family:<{width}} q={q} expected={exp:<8} computed={comp:<4} {r.status}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Conjecture probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeLine:
    label: str
    conjectured: int
    computed: int
    agree: bool


@dataclass(frozen=True)
class ProbeReport:
    name: str
    params: tuple[int, ...]
    lines: tuple[ProbeLine, ...]

    def render(self) -> str:
        head = f"probe {self.name}({','.join(map(str, self.params))})"
        body = [
            f"  {ln.label}: conjectured {ln.conjectured}, computed {ln.computed}"
            f" -> {'agrees' if ln.agree else 'DIFFERS'}"
            for ln in self.lines
        ]
        return "\n".join([head] + body) + "\n"


# name -> (family, the levels it compares)
_PROBES = {
    "bipartite_prism": ("bipartite_prism", (0, 1)),
    "multipartite": ("complete_multipartite", (0, 1)),
    "kneser_z0": ("kneser2", (0,)),
}


def probe_conjecture(name: str, params: tuple[int, ...]) -> ProbeReport:
    """Exact small-instance comparison with the registry's value at each level,
    its conjecture row where it has one.

    Reports agreement only; conjectures are open and never asserted.
    Raises ValueError for an instance the registry states no single value
    for, and InfeasibleError when the instance is too large to solve exactly,
    as :func:`reproduce_report` would refuse it.
    """
    if name not in _PROBES:
        raise ValueError(f"unknown conjecture probe {name!r}")
    family, levels = _PROBES[name]
    spec = FamilySpec(family, tuple(params))
    g = generate(spec)  # the family's own parameter checks come first
    claimed = {}
    for q in levels:
        rows = [kv for kv in _claims(spec, q) if len(kv.values) == 1]
        if not rows:
            raise ValueError(f"the registry states no value for {spec.label()} at q={q}")
        (claimed[q],) = min(rows, key=lambda kv: not kv.conjecture).values
    computed = settled(solve(g, levels))  # a game level over GAME_MAX_N refuses first
    lines = tuple(ProbeLine(f"Z_{q}", c, computed[q], computed[q] == c) for q, c in claimed.items())
    return ProbeReport(name, tuple(params), lines)


# ---------------------------------------------------------------------------
# Kneser structure checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    n: int
    mode: str  # "exhaustive" or "sampled"
    subsets_checked: int
    violations: tuple[str, ...]

    def ok(self) -> bool:
        return not self.violations


def common_element(pair_indices: Iterable[int], n: int) -> int | None:
    """The element shared by all listed Kneser vertices, if one exists."""
    pairs = kneser_pairs(n)
    shared: set[int] | None = None
    for i in pair_indices:
        s = set(pairs[i])
        shared = s if shared is None else shared & s
    if not shared:
        return None
    return min(shared)


def _is_star_induced(g: Graph, comp: int) -> bool:
    vs = list(bits(comp))
    k = len(vs)
    if k <= 2:
        return True  # a connected component on <= 2 vertices is trivially a star
    degs = sorted((g.adj[v] & comp).bit_count() for v in vs)
    return degs[-1] == k - 1 and all(d == 1 for d in degs[:-1])


def kneser_structure_check(
    n: int, sample: int | None = None, seed: int = 0
) -> StructureReport:
    """Empirically verify the component-structure facts used for K(n,2):

    over subsets S of the vertex set, with H = K(n,2) - S:
    (a) if H has >= 4 components they are all single vertices;
    (b) if H is a coclique with >= 4 vertices its pairs share an element;
    (c) if H has exactly 3 components and one has >= 3 vertices, the other
        two are single vertices and the big one induces a star.

    Exhaustive whenever the subset space fits the sample budget. Without a
    sample, a space over ``Z_SUBSET_BUDGET`` raises InfeasibleError.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample size must be at least 1, got {sample}")
    g = kneser2(n)
    nv = g.n
    space = 1 << nv
    if sample is None and space > Z_SUBSET_BUDGET:
        raise InfeasibleError(
            f"structure check would visit 2^{nv} subsets, over {Z_SUBSET_BUDGET}; "
            "give a sample size"
        )
    violations: list[str] = []
    if sample is None or sample >= space:
        mode = "exhaustive"
        candidates = range(space)
        checked = space
    else:
        mode = "sampled"
        rng = Random(seed)
        candidates = (rng.randrange(space) for _ in range(sample))
        checked = sample
    for s_mask in candidates:
        h = g.full_mask & ~s_mask
        comps = components_within(g, h)
        k = len(comps)
        if k >= 4 and any(c.bit_count() > 1 for c in comps):
            violations.append(f"S={s_mask:#x}: {k} components, not all isolated")
        if k >= 4 and k == h.bit_count():  # H is a coclique of size >= 4
            if common_element(bits(h), n) is None:
                violations.append(f"S={s_mask:#x}: coclique without a common element")
        if k == 3:
            sizes = sorted(c.bit_count() for c in comps)
            if sizes[-1] >= 3:
                if sizes[0] != 1 or sizes[1] != 1:
                    violations.append(
                        f"S={s_mask:#x}: 3 components with big one but non-singleton others"
                    )
                big = max(comps, key=lambda c: c.bit_count())
                if not _is_star_induced(g, big):
                    violations.append(f"S={s_mask:#x}: big component is not a star")
        if len(violations) > 20:
            break
    return StructureReport(n, mode, checked, tuple(violations))
