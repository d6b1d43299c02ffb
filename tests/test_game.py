from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqforce import game
from zqforce.families import bipartite_prism, book, complete_multipartite, cycle, kneser2, prism
from zqforce.game import (
    CacheStats,
    InfeasibleError,
    TokenSpend,
    _Solver,
    admissible_families,
    psd_closure,
    replay_strategy,
    rule3_closure,
    z0_number,
    z_number,
    zq_chain,
    zq_number,
)
from zqforce.graphs import (
    block_coset_chain,
    build_graph,
    ccr_closure,
    coset_halves,
    interchangeable_blocks,
)
from zqforce.threshold import (
    build_threshold_graph,
    iter_creation_sequences,
    parse_creation_sequence,
    zq_formula,
)

from helpers import (
    PETERSEN_EDGES,
    all_graphs_up_to_iso,
    automorphisms,
    mask,
    naive_ccr_closure,
    naive_components,
    naive_game,
    naive_induced_ccr,
    naive_min_forcing,
    naive_psd_closure,
    node_connectivity,
    random_connected_graph,
    random_graph,
    random_oracle,
    random_tree,
    reference_greedy,
    relabel,
    vset,
)


def star(n):
    return build_graph(n + 1, [(0, i) for i in range(1, n + 1)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def petersen():
    return build_graph(10, PETERSEN_EDGES)


# ---------------------------------------------------------------------------
# psd_closure
# ---------------------------------------------------------------------------


def test_psd_closure_examples():
    assert psd_closure(star(3), mask([0])) == star(3).full_mask
    assert psd_closure(path(5), mask([2])) == path(5).full_mask
    assert psd_closure(complete(4), mask([0])) == mask([0])


def test_psd_closure_matches_reference():
    rng = Random(13)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(1, 10))
        b = rng.randrange(1 << g.n)
        c = psd_closure(g, b)
        assert vset(c) == naive_psd_closure(g, vset(b))
        assert psd_closure(g, c) == c


def test_psd_closure_is_monotone():
    # the subset searches descend in size, which is sound only if a
    # superset of a PSD forcing set forces: check b + v against b on every
    # graph of at most 6 vertices
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            for b in range(1 << n):
                c = psd_closure(g, b)
                for v in range(n):
                    assert psd_closure(g, b | 1 << v) & c == c, (g.edges(), b, v)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_psd_closure_is_monotone_sampled(data):
    n = data.draw(st.integers(7, 10))
    pairs = list(combinations(range(n), 2))
    g = build_graph(n, data.draw(st.lists(st.sampled_from(pairs), unique=True)))
    b = data.draw(st.integers(0, g.full_mask))
    c = psd_closure(g, b)
    for v in range(n):
        assert psd_closure(g, b | 1 << v) & c == c


# ---------------------------------------------------------------------------
# rule3_closure / admissible_families
# ---------------------------------------------------------------------------


def test_rule3_closure_examples():
    s3 = star(3)
    assert rule3_closure(s3, mask([0]), [mask([1])]) == mask([0, 1])
    assert rule3_closure(s3, mask([0]), [mask([1]), mask([2])]) == mask([0])
    p5 = path(5)
    assert rule3_closure(p5, mask([2]), [mask([0, 1])]) == mask([0, 1, 2])


def test_rule3_closure_matches_step_simulator():
    rng = Random(29)
    for _ in range(100):
        g = random_graph(rng, rng.randrange(2, 9))
        b = ccr_closure(g, rng.randrange(1 << g.n))
        from zqforce.graphs import uncoloured_components

        comps = uncoloured_components(g, b)
        if not comps:
            continue
        k = rng.randrange(1, len(comps) + 1)
        returned = rng.sample(comps, k)
        got = rule3_closure(g, b, returned)
        inside = vset(b)
        for c in returned:
            inside |= vset(c)
        assert vset(got) == naive_induced_ccr(g, vset(b), inside)


def test_rule3_closure_errors():
    p5 = path(5)
    with pytest.raises(ValueError):
        rule3_closure(p5, mask([2]), [])
    with pytest.raises(ValueError):
        rule3_closure(p5, mask([2]), [mask([0])])  # not a whole component


def test_admissible_families_examples():
    s3 = star(3)
    assert admissible_families(s3, mask([0]), 0) == [
        (mask([1]),),
        (mask([2]),),
        (mask([3]),),
    ]
    assert admissible_families(s3, mask([0]), 1) == []
    assert admissible_families(path(5), mask([2]), 1) == []
    with pytest.raises(ValueError):
        admissible_families(path(5), mask([0]), 0)  # not closed


@pytest.mark.parametrize("q", [-1, -2])
def test_admissible_families_rejects_negative_q(q):
    # q = -1 would offer the empty family, and q = -2 reach itertools
    with pytest.raises(ValueError, match="q must be nonnegative"):
        admissible_families(cycle(6), mask([0]), q)


def test_admissible_families_match_set_reference():
    # A family is admissible iff every nonempty oracle response colours a new
    # vertex inside G[coloured + returned components]; built on plain sets.
    rng = Random(31)
    kept = dropped = 0
    for _ in range(200):
        n = rng.randrange(2, 9)
        # trees leave many small components, so admissible families are common
        g = random_tree(rng, n) if rng.random() < 0.5 else random_graph(rng, n)
        coloured = naive_ccr_closure(g, vset(rng.randrange(1 << g.n)))
        comps = naive_components(g, set(range(g.n)) - coloured)
        for q in range(3):
            expected = []
            for fam in combinations(comps, q + 1):
                responses = (
                    set().union(*sub)
                    for k in range(1, q + 2)
                    for sub in combinations(fam, k)
                )
                if all(
                    naive_induced_ccr(g, coloured, coloured | r) != coloured
                    for r in responses
                ):
                    expected.append([set(c) for c in fam])
                else:
                    dropped += 1
            got = admissible_families(g, mask(coloured), q)
            assert [[vset(c) for c in fam] for fam in got] == expected
            kept += len(expected)
    assert kept and dropped


# ---------------------------------------------------------------------------
# Game values
# ---------------------------------------------------------------------------


def _check_every_closed_state(g, qs):
    """The values of every CCR-closed state of ``g`` at the levels ``qs``,
    through one solver over all of them as ``zq_number`` builds it (blocks
    and the split coset automorphisms), against the set-based reference at each level;
    and ``zq_number`` at each level."""
    closed = sorted({ccr_closure(g, b) for b in range(1 << g.n)})
    references = [naive_game(g, q) for q in qs]
    for q, reference in zip(qs, references):
        assert zq_number(g, q, build_strategy=False).value == reference(), (g.edges(), q)
    solver = _Solver(g, qs)
    for b in closed:
        want = tuple(reference(vset(b)) for reference in references)
        assert solver.value(b) == want, (g.edges(), b)


def test_zq_number_matches_set_reference():
    # The gate for the memo. A canonical key that merged two closed states of
    # different values, or an orbit image stored under a map that is not an
    # automorphism, would give one state another's value, so every closed
    # state is checked, not only the empty one.
    rng = Random(5)
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, relabel(g, perm)):
                _check_every_closed_state(h, range(n + 1))


@st.composite
def _relabelled_graphs(draw, max_n=8):
    n = draw(st.sampled_from(range(1, max_n + 1)))
    pairs = list(combinations(range(n), 2))
    if n > 2 and draw(st.sampled_from(["circulant", "random"])) == "circulant":
        # its rotations are automorphisms not made of blocks
        jumps = draw(st.sets(st.integers(1, n // 2), min_size=1))
        edges = [(i, j) for i, j in pairs if min(j - i, n - j + i) in jumps]
    else:
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [p for p, k in zip(pairs, keep) if k]
    g = build_graph(n, edges)
    return g, relabel(g, draw(st.permutations(range(n))))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_relabelled_graphs())
def test_orbit_memo_matches_set_reference_up_to_8_vertices(graphs):
    # graphs above 6 vertices have groups that the exhaustive sweep misses
    for g in graphs:
        _check_every_closed_state(g, range(g.n + 1))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_relabelled_graphs())
def test_search_bound_contract_up_to_8_vertices(graphs):
    # search(b, betas) answers each level with the exact value when it is
    # below betas[i], and otherwise with a number in [betas[i], value]. Every
    # closed state is asked at every bound in 0..n+1, level i at bound
    # (beta + i) mod (n + 2) so that the levels' bounds differ, through one
    # solver whose memo keeps the bounds of the earlier questions
    for g in graphs:
        levels = range(g.n + 1)
        references = [naive_game(g, q) for q in levels]
        closed = sorted({ccr_closure(g, b) for b in range(1 << g.n)})
        solver = _Solver(g, levels)
        for beta in range(g.n + 2):
            betas = tuple((beta + i) % (g.n + 2) for i in levels)
            for b in closed:
                got = solver.search(b, betas)
                for reference, bound, answer in zip(references, betas, got):
                    value = reference(vset(b))
                    ok = answer == value if value < bound else bound <= answer <= value
                    assert ok, (g.edges(), b, betas, got)


@pytest.mark.parametrize(
    "g",
    [petersen(), prism(4), prism(5), cycle(7), cycle(8)],
    ids=["petersen", "prism-4", "prism-5", "cycle-7", "cycle-8"],
)
def test_orbit_memo_matches_set_reference_on_symmetric_graphs(g):
    # automorphism groups that are not made of interchangeable blocks
    perm = list(range(g.n))
    Random(g.n).shuffle(perm)
    for h in (g, relabel(g, perm)):
        _check_every_closed_state(h, range(h.n + 1))


def test_zq_number_examples():
    from zqforce.families import book

    b3 = book(3)
    assert zq_number(b3, 0, build_strategy=False).value == 2
    assert zq_number(b3, 1, build_strategy=False).value == 3
    assert zq_number(star(3), 1, build_strategy=False).value == 2
    assert zq_number(petersen(), 1, build_strategy=False).value == 5
    with pytest.raises(ValueError):
        zq_number(star(3), -1)


def test_z_number_examples():
    assert z_number(path(5)) == 1
    assert z_number(complete(4)) == 3


def test_z0_number_examples():
    assert z0_number(petersen()) == 4
    k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert z0_number(k33) == 3
    for n in range(1, 7):
        assert z0_number(star(n)) == 1


def test_zq_chain_examples():
    assert zq_chain(petersen(), 2) == [4, 5, 5, 5]
    k23 = build_graph(5, [(i, 2 + j) for i in range(2) for j in range(3)])
    assert zq_chain(k23, 1) == [2, 3, 3]
    assert zq_chain(build_graph(1, []), 3) == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError, match="q must be nonnegative"):
        dict(game.zq_values(petersen(), [1, -1]))
    with pytest.raises(ValueError, match="^q_max must be nonnegative$"):
        zq_chain(petersen(), -1)


def test_chain_monotone_and_engine_matches_psd_at_q0():
    rng = Random(41)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        chain = zq_chain(g, g.n)
        assert all(a <= b for a, b in zip(chain, chain[1:]))
        assert chain[0] == z0_number(g)
        assert chain[0] == zq_number(g, 0, build_strategy=False).value
        assert chain[-1] == z_number(g)
        assert chain[0] >= node_connectivity(g)


def test_chain_levels_match_independent_values():
    """zq_chain answers levels q >= c - 1 as Z; every level must still equal
    a separate game solve (every graph on at most 6 vertices) and the
    threshold closed form (every creation sequence on at most 9 vertices)."""
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            chain = zq_chain(g, g.n)
            for q in range(g.n + 1):
                assert chain[q] == zq_number(g, q, build_strategy=False).value, (g.edges(), q)
    for n in range(2, 10):
        for seq in iter_creation_sequences(n):
            chain = zq_chain(build_threshold_graph(seq), n)
            assert chain[:-1] == [zq_formula(seq, q) for q in range(n + 1)], seq.to_bits()


def test_one_solver_per_graph(monkeypatch):
    # every game level of a graph is one traversal: zq_chain, the report and
    # the probes build one solver for each graph that has game levels, and
    # none for a graph whose levels are all Z
    from zqforce.families import generate, known_values, ladder, probe_conjecture, reproduce_report

    graphs = (petersen(), ladder(6), complete(4))
    separate = [[zq_number(g, q, build_strategy=False).value for q in range(g.n + 1)] for g in graphs]
    built = []

    class Recording(_Solver):
        def __init__(self, g, *args):
            super().__init__(g, *args)
            built.append(g)

    monkeypatch.setattr(game, "_Solver", Recording)
    for g, levels in zip(graphs, separate):
        built.clear()
        assert zq_chain(g, g.n)[:-1] == levels, g.edges()
        assert built == ([g] if game.zq_saturation(g) > 0 else []), g.edges()
    built.clear()
    rows = reproduce_report(4)
    specs = {kv.family.label(): kv.family for kv in known_values(4)}
    games = {
        r.family
        for r in rows
        if r.q and r.computed is not None and r.q < game.zq_saturation(generate(specs[r.family]))
    }
    assert len(built) == len({tuple(g.adj) for g in built}) == len(games) > 10
    # K_{2,2,2} has n - δ - 1 = 1, so its Z_1 is Z; kneser_z0 probes Z_0 alone
    for name, params, solvers in (("multipartite", (3, 3), 1), ("bipartite_prism", (2, 3), 1),
                                  ("multipartite", (2, 3), 0), ("kneser_z0", (5,), 0)):
        built.clear()
        probe_conjecture(name, params)
        assert len(built) == solvers, name


def test_z0_search_only_without_game_levels(monkeypatch):
    # the traversal that answers a family's levels 1 <= q < n - δ - 1 answers
    # its Z_0 too, so over the max_n 4 report (no family above 16 vertices)
    # the PSD subset search runs only for families asking Z_0 and no such
    # level; a family with n - δ - 1 = 0 (K_n) has Z_0 = Z from the Z search
    from zqforce.families import generate, known_values, reproduce_report

    searched = []
    z0 = game.z0_number
    monkeypatch.setattr(game, "z0_number", lambda g: searched.append(tuple(g.adj)) or z0(g))
    asked: dict[str, set] = {}
    for row in reproduce_report(4):
        asked.setdefault(row.family, set()).add(row.q)
    graphs = {kv.family.label(): generate(kv.family) for kv in known_values(4)}
    saturation = {f: game.zq_saturation(g) for f, g in graphs.items()}
    z0_rows = {f for f, qs in asked.items() if 0 in qs and saturation[f] > 0}
    games = {f for f, qs in asked.items() if any(q and q < saturation[f] for q in qs)}
    assert z0_rows & games and z0_rows - games  # both engines answer some Z_0
    assert sorted(searched) == sorted(tuple(graphs[f].adj) for f in z0_rows - games)


def test_chain_refused_before_any_traversal(monkeypatch):
    # Z's subset search refuses K(9,2) at once; the game levels then carry
    # its refusal, and zq_chain raises it without building a solver (a
    # solver would first build 10,080 of K(9,2)'s 362,880 coset maps to
    # write entries under)
    def no_solver(g, levels):
        raise AssertionError(f"solver built for levels {levels}")

    monkeypatch.setattr(game, "_Solver", no_solver)
    with pytest.raises(InfeasibleError) as exc:
        zq_chain(kneser2(9), 1)
    assert str(exc.value) == "subset search would exceed 3000000 sets at size 29 (n=36)"
    values = dict(game.zq_values(kneser2(9), [0, 1, None]))
    assert list(values) == [None, 0, 1] and len({*map(id, values.values())}) == 1


def test_chain_stops_at_the_first_refusal(monkeypatch):
    # Z's subset search refuses K_{10,20} x K_2 at once; its Z_0 search, which
    # would run for seconds, is never started, because zq_chain reads the
    # levels lazily and raises the first refusal before asking for the next
    def no_z0(g):
        raise AssertionError("z0_number called after the Z search refused")

    monkeypatch.setattr(game, "z0_number", no_z0)
    with pytest.raises(InfeasibleError) as exc:
        zq_chain(bipartite_prism(10, 20), 0)
    assert str(exc.value) == "subset search would exceed 3000000 sets at size 29 (n=60)"


def test_saturation_at_large_q():
    rng = Random(43)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        z = z_number(g)
        assert zq_number(g, g.n - 1, build_strategy=False).value == z
        assert zq_number(g, g.n + 3, build_strategy=False).value == z


def test_subset_search_matches_set_reference():
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            assert z_number(g) == naive_min_forcing(g, naive_ccr_closure), g.edges()
            assert z0_number(g) == naive_min_forcing(g, naive_psd_closure), g.edges()


def _inflate_twins(rng, g, n):
    """``g`` grown to ``n`` vertices by adding a twin (true or false) of a
    random vertex at a time, so twins of twins form larger classes."""
    edges = g.edges()
    for w in range(g.n, n):
        v = rng.randrange(w)
        nbrs = [b if a == v else a for a, b in edges if v in (a, b)]
        edges += [(u, w) for u in nbrs] + ([(v, w)] if rng.random() < 0.5 else [])
    return build_graph(n, edges)


def _random_threshold(rng, n):
    """A connected threshold graph on n >= 2 vertices, mostly zeros, so that
    its zero runs (false twins) and one runs (true twins) are long."""
    inner = "".join("1" if rng.random() < 0.35 else "0" for _ in range(n - 2))
    return build_threshold_graph(parse_creation_sequence("0" + inner + "1"))


def test_z0_number_on_block_rich_graphs():
    # z0_number tests one set per block orbit; check it against every subset
    # on graphs above 6 vertices whose block groups are large
    from zqforce.families import bipartite_prism

    k34 = build_graph(7, [(i, 3 + j) for i in range(3) for j in range(4)])
    graphs = [book(3), bipartite_prism(2, 3), complete_multipartite(3, 3), k34]
    rng = Random(61)
    for _ in range(30):
        n = rng.randrange(7, 11)
        graphs.append(_inflate_twins(rng, random_graph(rng, rng.randrange(3, 6), 0.5), n))
    assert sum(len(interchangeable_blocks(g)) for g in graphs) >= 60
    for g in graphs:
        assert z0_number(g) == naive_min_forcing(g, naive_psd_closure), g.edges()


def moebius_kantor():
    """The generalised Petersen graph GP(8, 3): 16 vertices, 96 automorphisms."""
    spokes = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 8) for i in range(8)]
    return build_graph(16, spokes + [(8 + i, 8 + (i + 3) % 8) for i in range(8)])


def test_descent_matches_set_reference_beyond_6_vertices(monkeypatch):
    # z_number and z0_number test sizes downwards from a greedy forcing set;
    # check them against every subset on 7-16 vertices, twin-rich graphs and
    # symmetric ones among them, and again descending from n, since the
    # greedy seldom overshoots by 2 or more. The random graphs almost all
    # have a trivial group; Petersen, the prisms and the Moebius-Kantor
    # graph have no block classes and a nontrivial one, so descending from
    # n runs z0_number's smallest-image filter at every size (the cycles
    # have a block class, the two halves that a reflection swaps)
    rng = Random(67)
    graphs = [random_graph(rng, rng.randrange(7, 12), rng.random()) for _ in range(30)]
    for _ in range(30):
        n = rng.randrange(7, 12)
        graphs.append(_inflate_twins(rng, random_graph(rng, rng.randrange(3, 7), 0.5), n))
    symmetric = [petersen(), prism(5), prism(6), moebius_kantor()]
    assert not any(map(interchangeable_blocks, symmetric))
    graphs += symmetric + [cycle(7), cycle(8), cycle(9)]
    want = [
        (naive_min_forcing(g, naive_ccr_closure), naive_min_forcing(g, naive_psd_closure))
        for g in graphs
    ]
    for g, values in zip(graphs, want):
        assert (z_number(g), z0_number(g)) == values, g.edges()
        everything = set(range(g.n))
        for psd, naive in ((False, naive_ccr_closure), (True, naive_psd_closure)):
            s = vset(game._greedy_forcing_set(g, psd, interchangeable_blocks(g) if psd else ()))
            assert naive(g, s) == everything, g.edges()
            assert all(naive(g, s - {v}) != everything for v in s), g.edges()
    monkeypatch.setattr(game, "_greedy_forcing_set", lambda g, psd, classes=(): g.full_mask)
    for g, values in zip(graphs, want):
        assert (z_number(g), z0_number(g)) == values, g.edges()


def test_subset_budget_boundary(monkeypatch):
    # Petersen has no block classes. The greedy sets have 4 vertices for Z_0
    # and 5 for Z, the least sizes, so each search tests one size in full:
    # Z_0 the C(10,3) = 120 sets of size 3, Z the C(10,4) = 210 of size 4
    pet = petersen()
    monkeypatch.setattr(game, "Z0_SUBSET_BUDGET", 120)
    assert z0_number(pet) == 4
    monkeypatch.setattr(game, "Z0_SUBSET_BUDGET", 119)
    with pytest.raises(InfeasibleError) as exc:
        z0_number(pet)
    assert str(exc.value) == "subset search would exceed 119 sets at size 3 (n=10)"
    monkeypatch.setattr(game, "Z_SUBSET_BUDGET", 210)
    assert z_number(pet) == 5
    monkeypatch.setattr(game, "Z_SUBSET_BUDGET", 209)
    with pytest.raises(InfeasibleError) as exc:
        z_number(pet)
    assert str(exc.value) == "subset search would exceed 209 sets at size 4 (n=10)"


def test_z0_at_least_min_degree_exhaustive():
    # z0_number starts its search at the minimum degree, so the bound it
    # relies on is checked with the set-based reference on every graph of at
    # most 7 vertices
    nx = pytest.importorskip("networkx")

    atlas = [h for h in nx.graph_atlas_g() if h.number_of_nodes()]
    assert len(atlas) == 1252
    for h in atlas:
        g = build_graph(h.number_of_nodes(), list(h.edges()))
        assert naive_min_forcing(g, naive_psd_closure) >= g.min_degree(), g.edges()


def _lane_closures(g, masks):
    """``game._ccr_lanes`` on the sets ``masks``, one lane each, read back
    as the coloured set of each lane."""
    unc = game._ccr_lanes(g, [sum(1 << i for i, m in enumerate(masks) if not m >> v & 1) for v in range(g.n)])
    return [g.full_mask ^ sum((unc[v] >> i & 1) << v for v in range(g.n)) for i in range(len(masks))]


def test_ccr_lanes_share_twin_rows():
    # _ccr_lanes computes one row for all the vertices with one open
    # neighbourhood; lane by lane it must give the set closure, on graphs
    # where most rows are shared, with lanes in which a twin forces: every
    # vertex u with all but one of its neighbours coloured, and random sets
    from zqforce.families import complete_bipartite

    rng = Random(34)
    graphs = [complete_multipartite(n, parts) for n in range(1, 6) for parts in range(2, 6)]
    graphs += [complete_bipartite(n, m) for n in range(1, 6) for m in range(n, 6)]
    graphs += [_random_threshold(rng, rng.randrange(4, 17)) for _ in range(30)]
    for _ in range(30):
        graphs.append(_inflate_twins(rng, random_graph(rng, rng.randrange(3, 7), 0.5), rng.randrange(7, 15)))
    twin_forces = 0
    for g in graphs:
        twins = [u for u in range(g.n) if g.adj.count(g.adj[u]) > 1]
        masks = []
        for u in range(g.n):
            for w in vset(g.adj[u]):
                masks.append((1 << u | g.adj[u]) & ~(1 << w))
        masks += [rng.getrandbits(g.n) & rng.getrandbits(g.n) for _ in range(20)]
        masks += [rng.getrandbits(g.n) | rng.getrandbits(g.n) for _ in range(20)]
        for u in twins:
            twin_forces += sum(m >> u & 1 and (g.adj[u] & ~m).bit_count() == 1 for m in masks)
        want = [naive_ccr_closure(g, vset(m)) for m in masks]
        # all at once, and one lane a call: another lane's fire must not be
        # what sweeps a lane again
        assert list(map(vset, _lane_closures(g, masks))) == want, g.edges()
        for m, closed in zip(masks, want):
            assert vset(_lane_closures(g, [m])[0]) == closed, (g.edges(), m)
    assert twin_forces > 1000


def test_greedy_sets_are_the_first_greedy_sets():
    # _greedy_forcing_set closes the Z candidates in lanes built in place
    # and, given block classes, skips the candidates that a block swap maps
    # to a lower vertex; the sets must be those of the greedy as first
    # written, which closes every candidate as a set
    # (helpers.reference_greedy), for Z and for Z_0 with and without the
    # classes
    from zqforce.families import generate, known_values

    rng = Random(35)
    graphs = [g for n in range(1, 7) for g in all_graphs_up_to_iso(n)]
    registry = {tuple(g.adj): g for g in (generate(kv.family) for kv in known_values(8))}
    graphs += registry.values()
    for _ in range(40):
        graphs.append(_inflate_twins(rng, random_graph(rng, rng.randrange(3, 7), 0.5), rng.randrange(7, 15)))
    graphs += [_random_threshold(rng, rng.randrange(4, 21)) for _ in range(40)]
    assert len(registry) == 128
    for g in graphs:
        assert vset(game._greedy_forcing_set(g, False)) == reference_greedy(g, naive_ccr_closure), g.edges()
        want = reference_greedy(g, naive_psd_closure)
        assert vset(game._greedy_forcing_set(g, True)) == want, g.edges()
        assert vset(game._greedy_forcing_set(g, True, interchangeable_blocks(g))) == want, g.edges()


def test_batch_closure_path_matches_scalar():
    from zqforce.families import kneser2
    from zqforce.game import _ccr_level_forces

    pet = petersen()
    # Z(Petersen) = 5: no 4-set forces, some 5-set does
    assert _ccr_level_forces(pet, 4) is False
    assert _ccr_level_forces(pet, 5) is True
    # large levels: C(21,15) = 54,264 lanes; Z(K(5,5,5,5,5)) = 25 - 2
    assert _ccr_level_forces(kneser2(7), 14) is False
    assert _ccr_level_forces(kneser2(7), 15) is True
    assert _ccr_level_forces(complete_multipartite(5, 5), 22) is False
    assert _ccr_level_forces(complete_multipartite(5, 5), 23) is True
    # some k-set forces exactly when k >= Z, since supersets of forcing sets force
    rng = Random(9)
    small = [g for n in range(1, 7) for g in all_graphs_up_to_iso(n)]
    randoms = [random_graph(rng, rng.randrange(7, 11), rng.random()) for _ in range(100)]
    for g in small + randoms:
        z = naive_min_forcing(g, naive_ccr_closure)
        for k in range(g.n + 1):
            assert _ccr_level_forces(g, k) is (k >= z), (g.edges(), k)
        # any sets at once, one lane each, as ccr_closure closes each
        masks = [rng.randrange(1 << g.n) for _ in range(rng.randrange(1, 9))]
        assert _lane_closures(g, masks) == [ccr_closure(g, m) for m in masks], g.edges()


def test_subset_columns_list_each_k_subset_once_in_lex_order():
    # lane i of _subset_columns(n, k) holds the i-th k-subset in the order
    # of itertools.combinations, and no lane past C(n, k) is set;
    # _lane_sets names the sets of any lanes, in lane order
    rng = Random(5)
    for n in range(1, 10):
        for k in range(n + 1):
            columns = game._subset_columns(n, k)
            subsets = list(combinations(range(n), k))
            assert len(columns) == n and all(col >> len(subsets) == 0 for col in columns)
            for i, subset in enumerate(subsets):
                assert [v for v in range(n) if columns[v] >> i & 1] == list(subset), (n, k, i)
            for lanes in [(1 << len(subsets)) - 1, rng.getrandbits(len(subsets))]:
                want = [mask(c) for i, c in enumerate(subsets) if lanes >> i & 1]
                assert list(game._lane_sets(n, k, lanes)) == want, (n, k, lanes)


def _filter_maps(g):
    """The maps z0_number filters by: the first map of each branch of the
    coset chain with no block class, a strong generating set of Aut(G)."""
    return [a for level in block_coset_chain(g, ()) for a, _ in level]


def _check_orbit_filter(g, autos, maps, k):
    """The k-sets that _least_images keeps under ``maps`` meet every orbit
    of VF2's automorphisms ``autos``, and under ``autos`` themselves they
    are one set per orbit."""
    everything = {mask(c) for c in combinations(range(g.n), k)}
    columns = game._subset_columns(g.n, k)

    def kept(maps):
        lanes = game._least_images(columns, (1 << len(everything)) - 1, maps)
        return list(game._lane_sets(g.n, k, lanes))

    def orbit(s):
        return {mask(r[v] for v in vset(s)) for r in autos}

    assert set().union(*map(orbit, kept(maps))) == everything, (g.edges(), k)
    exact = [orbit(s) for s in kept(autos)]
    assert set().union(*exact) == everything, (g.edges(), k)
    assert sum(map(len, exact)) == len(everything), (g.edges(), k)


def test_least_images_keep_a_set_of_every_orbit_on_the_atlas():
    # z0_number closes only the k-sets that no generator of Aut(G) sends to
    # a smaller set: at every k, the kept sets must meet every Aut(G)-orbit.
    # z0_number filters only graphs without block classes (169 of the
    # atlas's graphs, 8 with a nontrivial group), but with no classes the
    # chain generates all of Aut(G) on any graph, so every graph of at most
    # 7 vertices is checked (1,091 with a nontrivial group)
    nx = pytest.importorskip("networkx")

    block_free = []  # per graph without block classes: is its group nontrivial?
    for h in nx.graph_atlas_g()[1:]:
        g = build_graph(h.number_of_nodes(), list(h.edges()))
        autos = automorphisms(g)
        maps = _filter_maps(g)
        for k in range(g.n + 1):
            _check_orbit_filter(g, autos, maps, k)
        if not interchangeable_blocks(g):
            block_free.append(len(autos) > 1)
    assert (len(block_free), sum(block_free)) == (169, 8)


@pytest.mark.parametrize(
    "g, value, sizes, calls",
    [(kneser2(6), 9, [8], 146), (petersen(), 4, [3], 43), (prism(8), 4, [3], 82)],
    ids=["kneser2-6", "petersen", "prism-8"],
)
def test_z0_filter_where_it_searches(monkeypatch, g, value, sizes, calls):
    # z0_number on three block-free graphs with 720, 120 and 32
    # automorphisms. Its psd_closure calls, the greedy's among them, are
    # pinned: the filter leaves 39 of the 6,435 8-sets of kneser2(6), 6 of
    # the 120 3-sets of Petersen and 21 of the 560 3-sets of prism(8) to
    # close, where every set was closed before (6,552 / 162 / 626 calls).
    # The greedy takes each step's closure from its candidates' (156 / 48 /
    # 87 calls when it closed the set again). It filters by _filter_maps's
    # generators, and at the sizes it tests the kept sets must meet every
    # orbit
    closed, tested = [], []
    closure, level = game.psd_closure, game._least_sets
    monkeypatch.setattr(game, "psd_closure", lambda g, b: closed.append(b) or closure(g, b))
    monkeypatch.setattr(game, "_least_sets",
                        lambda n, maps, k: tested.append((k, maps)) or level(n, maps, k))
    assert z0_number(g) == value
    maps = _filter_maps(g)
    assert (tested, len(closed)) == ([(k, maps) for k in sizes], calls)
    monkeypatch.undo()
    autos = automorphisms(g)
    for k in sizes:
        _check_orbit_filter(g, autos, maps, k)


def test_kneser_connectivity_equals_degree():
    from zqforce.families import kneser2

    g = kneser2(6)
    assert node_connectivity(g) == g.min_degree() == 6


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def test_strategy_replay_soundness():
    rng = Random(57)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        q = rng.randrange(0, 4)
        res = zq_number(g, q)
        for _ in range(12):
            tokens, final = replay_strategy(g, res.strategy, random_oracle(rng))
            assert final == g.full_mask
            assert tokens <= res.value


def _walk_all_branches(g, strategy, b, tokens, value):
    """Every oracle response sequence must finish within the token budget."""
    moves = strategy
    while moves:
        move = moves[0]
        if isinstance(move, TokenSpend):
            tokens += 1
            assert tokens <= value
            b = ccr_closure(g, b | (1 << move.vertex))
            moves = moves[1:]
        else:
            for resp, cont in move.responses.items():
                nb = ccr_closure(g, rule3_closure(g, b, resp))
                assert nb != b  # admissible moves always force
                _walk_all_branches(g, cont, nb, tokens, value)
            return
    assert b == g.full_mask


def test_strategy_sound_on_every_oracle_branch():
    rng = Random(71)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randrange(2, 8))
        q = rng.randrange(0, 3)
        res = zq_number(g, q)
        _walk_all_branches(g, res.strategy, ccr_closure(g, 0), 0, res.value)


def test_replay_matches_family_order_not_mask_order():
    # q=1 offers components {2,5} and {3}: family order is by minimum vertex,
    # which differs from the order of the masks (36 > 8)
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5)])
    res = zq_number(g, 1)
    oracle = res.strategy[-1]
    assert oracle.family == (mask([2, 5]), mask([3]))
    for pick in (lambda fam: fam, lambda fam: fam[::-1], lambda fam: fam[1:]):
        tokens, final = replay_strategy(g, res.strategy, pick)
        assert final == g.full_mask and tokens <= res.value
    with pytest.raises(ValueError):
        replay_strategy(g, res.strategy, lambda fam: (mask([4]),))


def test_strategy_uses_oracle_moves_when_cheaper():
    res = zq_number(star(3), 0)
    # one token on the centre, then offered leaves do the rest
    assert res.value == 1
    assert isinstance(res.strategy[0], TokenSpend)
    tokens, final = replay_strategy(star(3), res.strategy, lambda fam: fam[:1])
    assert tokens == 1 and final == star(3).full_mask


def test_cache_stats_populated():
    # states counts the expansions of the bounded search, one memo entry
    # serving a whole Aut(G)-orbit: Petersen has no interchangeable blocks,
    # and its 120 automorphisms leave 14 orbits, of which the search expands 12
    res = zq_number(petersen(), 1, build_strategy=False)
    assert res.cache_stats == CacheStats(12, 49)
    assert res.strategy is None
    # with strategy extraction, whose bounded questions count as hits or
    # expansions too; the orbits are those of twins and pages, and of the
    # parts of K_{3,3,3} and the two copies of the star in the book
    assert zq_number(complete_multipartite(3, 3), 1).cache_stats == CacheStats(16, 40)
    assert zq_number(book(5), 1).cache_stats == CacheStats(17, 65)


@pytest.mark.parametrize(
    "g, q, stats",
    [
        # without swap pruning the first makes 3,020 hits
        (bipartite_prism(4, 5), 1, CacheStats(383, 1226)),
        (complete_multipartite(4, 4), 1, CacheStats(65, 165)),
        (kneser2(6), 1, CacheStats(111, 703)),
        (book(8), 1, CacheStats(34, 240)),
        (prism(8), 1, CacheStats(31, 124)),
        (petersen(), 1, CacheStats(12, 49)),
        (kneser2(6), 0, CacheStats(98, 618)),
    ],
    ids=["bipartite_prism-4-5", "complete_multipartite-4-4", "kneser2-6", "book-8",
         "prism-8", "petersen", "kneser2-6-q0"],
)
def test_cache_stats_of_headline_solves(g, q, stats):
    # counters that do not depend on the machine: a change to the cutoffs,
    # the tokens kept or the memo's bounds moves them. The coset
    # automorphisms themselves are pinned by the block-coset tests of
    # tests/test_graphs.py.
    assert zq_number(g, q, build_strategy=False).cache_stats == stats


@pytest.mark.parametrize(
    "g, split, sample",
    [
        (petersen(), (12, 10), None),
        (kneser2(6), (48, 15), 8),
        (prism(8), (32, 1), None),
    ],
    ids=["petersen", "kneser2-6", "prism-8"],
)
def test_orbit_lookup_reads_one_entry(g, split, sample):
    # Each entry is written under a state's images by P_j and read under a
    # state's images by the inverses of T_j (graphs.coset_halves): every
    # image of a memo state, by an automorphism from VF2, reads that state's
    # entry. kneser2(6) checks 8 of its 720 automorphisms per state, drawn
    # from a seeded generator.
    solver = _Solver(g, (1,))
    solver.value(ccr_closure(g, 0))
    assert (solver.writes[1] + 1, solver.reads[1] + 1) == split
    rng = Random(g.n)
    autos = automorphisms(g)
    for state, entry in solver.memo.items():
        for r in rng.sample(autos, sample) if sample else autos:
            image = mask(r[v] for v in vset(state))
            assert solver.lookup(image)[1] == entry, (state, r)


@pytest.mark.parametrize(
    "g, split, states",
    [
        (complete_multipartite(4, 4), (6, 4), None),
        (complete_multipartite(6, 6), (24, 30), 1000),
    ],
    ids=["complete_multipartite-4-4", "complete_multipartite-6-6"],
)
def test_orbit_lookup_reads_one_entry_under_block_swaps(g, split, states):
    # Aut(G) is S_4 wr S_4 or S_6 wr S_6, too large for VF2 to list, so the
    # automorphisms are drawn as h∘τ∘p: h permutes the blocks of each class
    # of H, τ is in T_j and p in P_j. Each is checked to be one; its image of
    # a memo state is found through τ⁻¹ and a key that undoes h, under the
    # entry written under the P_j-images of another key. Every memo state
    # gets 4 drawn automorphisms; of complete_multipartite(6,6)'s 8,341
    # memo states, 1,000 drawn ones do.
    solver = _Solver(g, (1,))
    solver.value(ccr_closure(g, 0))
    assert (solver.writes[1] + 1, solver.reads[1] + 1) == split
    classes = interchangeable_blocks(g)
    transversal, below = coset_halves(g, classes)
    rng = Random(g.n)
    memo = list(solver.memo.items())
    for state, entry in rng.sample(memo, states) if states else memo:
        for _ in range(4):
            h = list(range(g.n))
            for blocks in classes:
                for blk, to in zip(blocks, rng.sample(blocks, len(blocks))):
                    for v, w in zip(blk, to):
                        h[v] = w
            t, p = rng.choice(transversal), rng.choice(below)
            r = [h[t[p[v]]] for v in range(g.n)]
            assert all(g.adj[r[v]] == mask(r[w] for w in vset(g.adj[v])) for v in range(g.n))
            image = mask(r[v] for v in vset(state))
            assert solver.lookup(image)[1] == entry, (state, r)


def test_coset_splits_of_the_kneser_graphs():
    # 5,040 coset maps of kneser2(7): an entry goes under 240 keys and a
    # lookup reads 21; of the 40,320 of kneser2(8), 96 and 420
    for n, split in [(7, (240, 21)), (8, (96, 420))]:
        solver = _Solver(kneser2(n), (1,))
        assert (solver.writes[1] + 1, solver.reads[1] + 1) == split


def test_cutoffs_on_a_prism():
    # Z_1(C_12 x K_2) = 4: once a token reaches the least value left, its
    # siblings' subtrees are cut, so the search expands a few dozen states
    # (15,328 when every token's subtree is solved exactly)
    res = zq_number(prism(12), 1, build_strategy=False)
    assert res.value == 4 and res.cache_stats.states <= 100, res.cache_stats


# ---------------------------------------------------------------------------
# Orbit-pruned tokens
# ---------------------------------------------------------------------------


def _orbit_numbers(g, states):
    """A number per Aut(G)-orbit for each state. Two states share an orbit
    exactly when their vertex-coloured graphs are isomorphic, which networkx
    decides, after a Weisfeiler-Lehman hash has sorted them into buckets."""
    import networkx as nx

    same = lambda x, y: x["coloured"] == y["coloured"]  # noqa: E731
    buckets: dict[str, list] = {}
    numbers = {}
    orbits = 0
    for state in states:
        h = nx.Graph()
        h.add_nodes_from((v, {"coloured": v in state}) for v in range(g.n))
        h.add_edges_from(g.edges())
        bucket = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h, node_attr="coloured"), [])
        number = next((k for rep, k in bucket if nx.is_isomorphic(h, rep, node_match=same)), None)
        if number is None:
            number = orbits
            orbits += 1
            bucket.append((h, number))
        numbers[state] = number
    return numbers


def _check_pruned_tokens_reach_every_orbit(g):
    """At every closed state, the next states of the pruned tokens meet the
    same Aut(G)-orbits as those of every uncoloured vertex."""
    everything = set(range(g.n))
    closed = sorted({frozenset(naive_ccr_closure(g, vset(b))) for b in range(1 << g.n)}, key=sorted)
    orbit = _orbit_numbers(g, closed)
    solver = _Solver(g, (0,))
    for coloured in closed:
        pruned = set()
        for v, nb in solver.tokens(mask(coloured)):
            nxt = frozenset(naive_ccr_closure(g, coloured | {v}))
            assert nb == mask(nxt)
            pruned.add(orbit[nxt])
        every = {orbit[frozenset(naive_ccr_closure(g, coloured | {v}))] for v in everything - coloured}
        assert pruned == every, (g.edges(), sorted(coloured))


@pytest.mark.parametrize(
    "g",
    [petersen(), prism(4), complete_multipartite(3, 3), book(4), bipartite_prism(3, 3)],
    ids=["petersen", "prism-4", "complete_multipartite-3-3", "book-4", "bipartite_prism-3-3"],
)
def test_pruned_tokens_reach_every_orbit(g):
    perm = list(range(g.n))
    Random(g.n).shuffle(perm)
    _check_pruned_tokens_reach_every_orbit(relabel(g, perm))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_relabelled_graphs(max_n=7))
def test_pruned_tokens_reach_every_orbit_sampled(graphs):
    for g in graphs:
        _check_pruned_tokens_reach_every_orbit(g)


def _check_strategy_contract(g, moves, coloured, value):
    """Each token spend is the lowest uncoloured vertex v with
    1 + value(closure(b + v)) = value(b), and an oracle move comes only where
    no token reaches the value; every branch ends fully coloured."""
    everything = set(range(g.n))
    while moves:
        want = value(coloured)
        reach = [v for v in sorted(everything - coloured) if 1 + value(coloured | {v}) == want]
        move = moves[0]
        if isinstance(move, TokenSpend):
            assert reach and move.vertex == reach[0], (g.edges(), coloured)
            coloured = naive_ccr_closure(g, coloured | {move.vertex})
            moves = moves[1:]
        else:
            assert not reach, (g.edges(), coloured)
            for resp, cont in move.responses.items():
                inside = coloured.union(*map(vset, resp))
                nxt = naive_ccr_closure(g, naive_induced_ccr(g, coloured, inside))
                _check_strategy_contract(g, cont, nxt, value)
            return
    assert coloured == everything


def test_strategy_spends_the_lowest_token_that_reaches_the_value():
    # the contract that keeps the CLI's strategy bytes stable, with values
    # from the set-based reference
    for n in range(1, 7):
        for g in all_graphs_up_to_iso(n):
            for q in (0, 1):
                value = naive_game(g, q)
                start = naive_ccr_closure(g, set())
                _check_strategy_contract(g, zq_number(g, q).strategy, start, value)
