import inspect
import re
import time
from pathlib import Path

import numpy as np
import pytest

from zqforce import families, threshold
from zqforce.families import (
    FamilySpec,
    bipartite_prism,
    book,
    cartesian_product,
    common_element,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    generate,
    kneser2,
    kneser_pairs,
    kneser_structure_check,
    known_values,
    ladder,
    lookup,
    path,
    petersen,
    prism,
    probe_conjecture,
    render_report,
    reproduce_report,
    star,
)
from zqforce.game import InfeasibleError
from zqforce.spectral import adjacency_matrix


def test_generate_examples():
    b3 = book(3)
    assert b3.n == 8 and b3.num_edges() == 2 * 3 + 4
    lad = cartesian_product(path(3), complete(2))
    assert lad.n == 6 and lad.num_edges() == 7
    assert generate(FamilySpec("ladder", (3,))) == lad


def test_kneser5_is_petersen():
    g = kneser2(5)
    pet = petersen()
    for graph in (g, pet):
        eig = np.linalg.eigvalsh(adjacency_matrix(graph))
        assert np.allclose(eig, sorted([3] + [1] * 5 + [-2] * 4), atol=1e-9)
        # strongly regular (10, 3, 0, 1): A^2 + A - 2I = J
        a = adjacency_matrix(graph)
        assert np.allclose(a @ a + a - 2 * np.eye(10), np.ones((10, 10)))


def test_cartesian_product_examples():
    c4 = cartesian_product(complete(2), complete(2))
    assert c4.num_edges() == 4 and all(c4.degree(v) == 2 for v in range(4))
    grid = cartesian_product(path(2), path(3))
    assert grid.n == 6 and grid.num_edges() == 7
    tri_prism = cartesian_product(complete(3), complete(2))
    assert tri_prism.num_edges() == 9


def test_cartesian_product_layer_layout():
    b = book(2)
    a = adjacency_matrix(b)
    n = 3
    assert np.array_equal(a[:n, n:], np.eye(n))  # cross-layer matching
    assert np.array_equal(a[:n, :n], a[n:, n:])  # two equal layers


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("nosuch", ())
    with pytest.raises(ValueError):
        FamilySpec("book", ())
    with pytest.raises(ValueError):
        generate(FamilySpec("kneser2", (12,)))  # 66 > 64 vertices
    with pytest.raises(ValueError):
        generate(FamilySpec("cycle", (2,)))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: path(0), "path needs n >= 1"),
        (lambda: complete(0), "complete graph needs n >= 1"),
        (lambda: star(0), "star needs n >= 1 leaves"),
        (lambda: complete_bipartite(3, 0), "complete bipartite needs n, m >= 1"),
        (lambda: complete_multipartite(3, 1), "complete multipartite needs n >= 1 and >= 2 parts"),
        (lambda: kneser2(4), "kneser2 needs n >= 5 (smaller cases are edgeless or trivial)"),
    ],
    ids=["path", "complete", "star", "complete_bipartite", "complete_multipartite", "kneser2"],
)
def test_generator_parameter_guards(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_generator_shapes():
    assert star(4).degree(0) == 4
    assert complete_bipartite(2, 3).num_edges() == 6
    assert complete_multipartite(2, 3).num_edges() == 3 * 4
    assert prism(5).n == 10 and prism(5).num_edges() == 15
    assert ladder(4).num_edges() == 4 + 2 * 3
    assert bipartite_prism(2, 2).n == 8


def test_known_values_queries():
    assert lookup(FamilySpec("book", (4,)), 2).values == frozenset([4])
    assert lookup(FamilySpec("prism", (5,)), 3).values == frozenset([4])
    assert lookup(FamilySpec("kneser2", (5,)), 0).values == frozenset([4])
    assert lookup(FamilySpec("complete_bipartite", (2, 3)), 0).values == frozenset([2])
    assert lookup(FamilySpec("petersen", ()), None).values == frozenset([5])
    assert lookup(FamilySpec("path", (4,)), 0) is None


def test_registry_flags_conjectures():
    rows = known_values(max_n=8)
    conj = [kv for kv in rows if kv.conjecture]
    known = [kv for kv in rows if not kv.conjecture]
    assert conj and known
    assert all("conjecture" in kv.anchor for kv in conj)
    assert all("conjecture" not in kv.anchor for kv in known)
    # two-value rows appear for the large Kneser range
    assert any(len(kv.values) == 2 for kv in known)


def test_known_values_rows_all_generate():
    # every registry row names a graph that fits in MAX_VERTICES: K(12,2) has
    # 66 vertices and K_{2,31} x K_2 has 66, so both must be left out
    rows = known_values(max_n=33)
    for spec in {kv.family for kv in rows}:
        generate(spec)
    labels = {kv.family.label() for kv in rows}
    assert "kneser2(11)" in labels and "kneser2(12)" not in labels
    assert "bipartite_prism(2,30)" in labels and "bipartite_prism(2,31)" not in labels


def test_known_values_stop_at_max_vertices():
    # every family has at least as many vertices as its largest parameter, so
    # parameters past MAX_VERTICES add no row and must cost nothing
    t0 = time.perf_counter()
    rows = known_values(max_n=10**6)
    assert time.perf_counter() - t0 < 1.0
    assert rows == known_values(max_n=64)


@pytest.mark.parametrize(
    "name, params, n",
    [
        ("path", (65,), 65),
        ("cycle", (65,), 65),
        ("complete", (65,), 65),
        ("star", (64,), 65),
        ("complete_bipartite", (33, 32), 65),
        ("complete_multipartite", (13, 5), 65),
        ("kneser2", (12,), 66),
        ("book", (64,), 65),
        ("ladder", (65,), 65),
        ("bipartite_prism", (40, 40), 80),
    ],
)
def test_oversized_family_refused_before_any_edge(monkeypatch, name, params, n):
    # build_graph checks the vertex count before it draws an edge, so a
    # generator must hand it an unstarted edge generator (and kneser2 must not
    # list its pairs first): then a huge parameter is refused at once
    calls = []
    real = families.build_graph

    def spy(count, edges):
        fresh = inspect.isgenerator(edges) and inspect.getgeneratorstate(edges) == inspect.GEN_CREATED
        calls.append((count, fresh))
        return real(count, edges)

    def pairs_spy(k):
        calls.append(("kneser_pairs", k))
        return kneser_pairs(k)

    monkeypatch.setattr(families, "build_graph", spy)
    monkeypatch.setattr(families, "kneser_pairs", pairs_spy)
    with pytest.raises(ValueError, match=f"^vertex count must be in 1..64, got {n}$"):
        generate(FamilySpec(name, params))
    assert calls == [(n, True)]


GOLDEN = Path(__file__).parent / "golden"


def test_reproduce_report_small():
    # the text reports to max_n 4, 5 and 6 are pinned byte for byte by
    # reproduce_max_n4/5/6.txt (max_n 5 is the bench's reproduce input);
    # max_n=5 and 6 also pin the SKIP rows: the game-size guard and the Z_0
    # subset budget
    import json

    for max_n in (4, 5, 6):
        rows = reproduce_report(max_n=max_n)
        assert rows
        bad = [r for r in rows if r.status == "FAIL" or r.status == "DIFFER"]
        assert not bad, bad
        text = render_report(rows, "text")
        assert "PASS" in text
        assert text == (GOLDEN / f"reproduce_max_n{max_n}.txt").read_text(encoding="utf-8")
        csv = render_report(rows, "csv")
        assert csv.splitlines()[0] == "family,q,expected,computed,status,anchor"
        parsed = json.loads(render_report(rows, "json"))
        assert parsed[0]["status"] in ("PASS", "AGREE", "SKIP") or parsed[0]["status"].startswith("SKIP")
        if max_n == 4:
            for fmt in ("json", "csv"):
                golden = (GOLDEN / f"reproduce_max_n4.{fmt}").read_text(encoding="utf-8")
                assert render_report(rows, fmt) == golden, fmt


def test_reproduce_report_solves_each_family_level_once(monkeypatch):
    # bipartite_prism(2,2) and (2,3) at q=1..3 are each both a known-range row
    # and a conjecture row: 64 rows, 55 distinct (family, q), and each family
    # is one task holding all of its levels
    tasks = []
    solve = families.solve

    def counting(g, qs):
        tasks.append(qs)
        return solve(g, qs)

    monkeypatch.setattr(families, "solve", counting)
    rows = reproduce_report(max_n=3)
    assert len(rows) == 64
    assert len(tasks) == len({r.family for r in rows})
    assert sum(len(set(qs)) for qs in tasks) == 55


@pytest.mark.parametrize(
    "bits, chain",
    [("00010001", [2, 3, 4]), ("000100011", [3, 4, 5]), ("0001000111", [4, 5, 6])],
)
def test_solve_value_tells_zq_from_z(bits, chain):
    # the report's level rule must answer a level below n - δ - 1 by the game,
    # not by Z: on these threshold graphs Z_q grows with q up to Z at q = s
    seq = threshold.parse_creation_sequence(bits)
    g = threshold.build_threshold_graph(seq)
    computed = dict(families.solve(g, (*range(seq.s + 1), None)))
    levels = [computed[q] for q in range(seq.s + 1)]
    assert levels == [threshold.zq_formula(seq, q) for q in range(seq.s + 1)] == chain
    assert computed[None] == threshold.zq_formula(seq, seq.s) == chain[-1]


@pytest.mark.parametrize("qs", [[-1], [1, -1], [-1, 1, None]])
def test_solve_rejects_a_negative_level_before_any_refusal(qs):
    # K(7,2) has 21 vertices, so its game levels are refused; a negative
    # level is still a ValueError, raised by the call itself
    with pytest.raises(ValueError, match="q must be nonnegative"):
        families.solve(kneser2(7), qs)


def test_probe_reports():
    rep = probe_conjecture("bipartite_prism", (2, 2))
    assert all(ln.agree for ln in rep.lines)
    assert "agrees" in rep.render()
    rep = probe_conjecture("multipartite", (2, 3))
    assert [ln.computed for ln in rep.lines] == [4, 4]
    rep = probe_conjecture("kneser_z0", (5,))
    assert rep.lines[0].computed == 4
    with pytest.raises(InfeasibleError):
        probe_conjecture("bipartite_prism", (4, 5))
    with pytest.raises(ValueError):
        probe_conjecture("nosuch", (1,))
    # K_3 and book(3) are outside the registry's ranges, so no claim covers them
    with pytest.raises(ValueError, match=r"complete_multipartite\(1,3\) at q=0"):
        probe_conjecture("multipartite", (1, 3))
    with pytest.raises(ValueError, match=r"bipartite_prism\(1,3\) at q=0"):
        probe_conjecture("bipartite_prism", (1, 3))


def test_kneser_structure_exhaustive_n5():
    rep = kneser_structure_check(5)
    assert rep.mode == "exhaustive" and rep.subsets_checked == 1024
    assert rep.ok()


def test_kneser_structure_n6_full_space():
    # a 10^5 sample budget exceeds the 2^15 subset space, so it runs exhaustively
    rep = kneser_structure_check(6, sample=100_000, seed=1)
    assert rep.mode == "exhaustive" and rep.subsets_checked == 1 << 15
    assert rep.ok()


def test_kneser_structure_sampled_n7():
    rep = kneser_structure_check(7, sample=3000, seed=1)
    assert rep.mode == "sampled"
    assert rep.ok()


def test_kneser_structure_refuses_unsampled_n8():
    with pytest.raises(InfeasibleError) as exc:
        kneser_structure_check(8)
    assert str(exc.value) == (
        "structure check would visit 2^28 subsets, over 3000000; give a sample size"
    )
    rep = kneser_structure_check(8, sample=1000, seed=1)
    assert rep.mode == "sampled" and rep.subsets_checked == 1000


def test_common_element_max_star():
    pairs = kneser_pairs(5)
    containing_4 = [i for i, p in enumerate(pairs) if 4 in p]
    assert common_element(containing_4, 5) == 4
    assert common_element([0, 9], 5) is None  # {0,1} and {3,4} share nothing