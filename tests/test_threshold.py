import hashlib
import re
import tracemalloc
from itertools import combinations
from random import Random

import numpy as np
import pytest

from helpers import clique_cover_gram, exact_inertia
from zqforce.game import zq_number
from zqforce.spectral import in_Sq, inertia, nullity
from zqforce.threshold import (
    CreationSequence,
    build_threshold_graph,
    certificate_matrix,
    iter_creation_sequences,
    parse_creation_sequence,
    zq_formula,
)


def seq(text):
    return parse_creation_sequence(text)


def random_sequence(rng: Random, n: int) -> CreationSequence:
    middle = "".join(rng.choice("01") for _ in range(n - 2))
    return CreationSequence.from_bits("0" + middle + "1")


# ---------------------------------------------------------------------------
# Parsing and construction
# ---------------------------------------------------------------------------


def test_parse_examples():
    assert seq("0001").runs == ((3, 1),)
    assert seq("00100011").runs == ((2, 1), (3, 2))
    assert seq("0^3 1").runs == ((3, 1),)
    assert seq("0^2 1 0^3 1^2").runs == ((2, 1), (3, 2))
    assert seq("0 0 1 1^2 0^2 1").runs == ((2, 3), (2, 1))  # equal neighbours merge
    for bad, message in [
        ("", "empty creation sequence"),
        ("1001", "creation sequence must start with 0"),
        ("1 0^3 1", "creation sequence must start with 0"),
        ("0010", "creation sequence must end with 1 (connected)"),
        ("0^3 1 0", "creation sequence must end with 1 (connected)"),
        ("02", "illegal character in creation sequence '02'"),
        ("0^0 1", "bad run token '0^0'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            seq(bad)
    # the run-length constructor checks what the parser cannot hand it
    for runs, message in [((), "creation sequence has no runs"),
                          (((2, 1), (0, 1)), "run lengths must be positive")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CreationSequence(runs)


def test_huge_run_refused_without_expanding():
    # a run's count is added up, never spelt out, so refusing ten million
    # vertices allocates next to nothing (the expanded string is 10 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^vertex count must be in 1..64, got 10000001$"):
            build_threshold_graph(seq("0^10000000 1"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_build_threshold_graph_examples():
    assert build_threshold_graph(seq("01")).edges() == [(0, 1)]
    star = build_threshold_graph(seq("0001"))
    assert star.edges() == [(0, 3), (1, 3), (2, 3)]
    g = build_threshold_graph(seq("0011"))  # K_4 minus the 0-1 edge
    assert not g.has_edge(0, 1)
    assert g.degree(2) == 3 and g.degree(3) == 3


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def test_zq_formula_examples():
    s = seq("00100011")
    assert zq_formula(s, 0) == 3
    assert zq_formula(s, 1) == 4
    assert zq_formula(s, 2) == 4
    assert zq_formula(s, 99) == 4  # clamps to q = s
    with pytest.raises(ValueError, match="^q must be nonnegative$"):
        zq_formula(s, -1)
    assert zq_formula(seq("00001"), 1) == 3
    # every zero-run of length 1: the formula stays at the trace for every q
    for text in ("0101", "010101", "01010101"):
        s = seq(text)
        assert all(zq_formula(s, q) == s.trace for q in range(1, s.s + 1)), text


def test_z_classical_examples():
    # Z(G) = n - s - p is the formula at q = s
    for text, z in (("00100011", 4), ("0001", 2), ("01", 1)):
        s = seq(text)
        assert zq_formula(s, s.s) == z, text


def test_formula_identities_small():
    for n in range(2, 9):
        for s in iter_creation_sequences(n):
            assert zq_formula(s, 0) == s.trace
            assert zq_formula(s, s.s) == s.n - s.s - sum(k >= 2 for k, _ in s.runs)
            vals = [zq_formula(s, q) for q in range(s.s + 1)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_formula_matches_game_spot():
    for text, q, expected in (
        ("00100011", 1, 4),
        ("00100011", 2, 4),
        ("00001", 1, 3),
        ("0001", 1, 2),
    ):
        g = build_threshold_graph(seq(text))
        assert zq_number(g, q, build_strategy=False).value == expected
        assert zq_formula(seq(text), q) == expected


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_certificate_star_base():
    s = seq("0001")
    m = certificate_matrix(s, 1)
    g = build_threshold_graph(s)
    assert in_Sq(m, g, 1)
    assert nullity(m) == 2
    assert inertia(m).n_neg == 1
    assert m[g.n - 1, g.n - 1] != 0


def test_certificate_all_single_trace():
    # all one-runs of length 1 and every zero-run >= 2: nullity sum(k) - s
    s = seq("001000100001")  # runs (2,1),(3,1),(4,1)
    m = certificate_matrix(s, s.s)
    assert nullity(m) == (2 + 3 + 4) - 3
    assert inertia(m).n_neg == 3
    assert in_Sq(m, build_threshold_graph(s), 3)


def test_certificate_example_8_vertices():
    s = seq("00100011")
    m = certificate_matrix(s, 1)
    g = build_threshold_graph(s)
    assert in_Sq(m, g, 1)
    assert nullity(m) == 4
    assert inertia(m).n_neg == 1


def test_certificate_rejects_bad_q():
    s = seq("00100011")
    for q in (-1, 3):
        with pytest.raises(ValueError):
            certificate_matrix(s, q)


def test_certificate_universal_diagonal_nonzero():
    rng = Random(3)
    for _ in range(40):
        s = random_sequence(rng, rng.randrange(2, 11))
        for q in range(1, s.s + 1):
            m = certificate_matrix(s, q)
            assert m[s.n - 1, s.n - 1] != 0


def test_certificate_exact_every_sequence_to_10():
    # one fill builds every certificate, q = 0 included; checked with exact
    # rational inertia and the edge pattern read off the bits
    for n in range(2, 11):
        for s in iter_creation_sequences(n):
            bits = s.to_bits()
            for q in range(s.s + 1):
                m = certificate_matrix(s, q)
                where = (bits, q)
                assert m.shape == (n, n), where
                assert np.array_equal(m, np.round(m)), where
                assert not np.any(np.signbit(m) & (m == 0)), where
                neg, zero, _ = exact_inertia(m.tolist())
                assert (neg, zero) == (q, zq_formula(s, q)), where
                for i in range(n):
                    for j in range(i + 1, n):
                        assert m[i, j] == m[j, i], where
                        assert (m[i, j] != 0) == (bits[j] == "1"), where
            assert np.array_equal(certificate_matrix(s, 0), clique_cover_gram(bits))


def test_exact_inertia_helper():
    # the oracle above against floating eigenvalues on well-separated cases
    assert exact_inertia([[0, 1], [1, 0]]) == (1, 0, 1)
    assert exact_inertia([[0, 0], [0, 0]]) == (0, 2, 0)
    assert exact_inertia([[0, 2, 0], [2, 0, 0], [0, 0, -3]]) == (2, 0, 1)
    assert exact_inertia([[1, 1], [1, 1]]) == (0, 1, 1)
    rng = Random(5)
    for _ in range(60):
        n = rng.randrange(1, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.choice((-2, -1, 0, 0, 1, 2))
        assert exact_inertia(a) == inertia(np.array(a, dtype=float)).as_tuple(), a


def test_psd_gram_internal():
    # the q = 0 fill against the clique-cover Gram reference
    rng = Random(17)
    for _ in range(25):
        s = random_sequence(rng, rng.randrange(2, 11))
        m = certificate_matrix(s, 0)
        assert np.array_equal(m, clique_cover_gram(s.to_bits()))
        g = build_threshold_graph(s)
        assert in_Sq(m, g, 0)
        assert nullity(m) == s.trace


def test_zq_formula_matches_best_subset():
    # an independent reference: T plus the best sum over min(q, s) of the a_j
    for n in range(2, 10):
        for s in iter_creation_sequences(n):
            trace = sum(t for _, t in s.runs)
            a = [max(k - 2, 0) for k, _ in s.runs]
            for q in range(s.s + 2):
                best = max(map(sum, combinations(a, min(q, s.s))))
                assert zq_formula(s, q) == trace + best, (s.to_bits(), q)


def test_certificate_bytes_pinned():
    # every certificate keeps its bytes: one SHA-256 over shape and entries of
    # each connected sequence on 2..10 vertices at every q
    h = hashlib.sha256()
    count = 0
    for n in range(2, 11):
        for s in iter_creation_sequences(n):
            for q in range(s.s + 1):
                m = certificate_matrix(s, q)
                h.update(repr(m.shape).encode())
                h.update(m.tobytes())
                count += 1
    assert count == 1791
    assert h.hexdigest() == "b1ad17acb967be3b8c4943cf2fe6d1b7c055ad2a86a15a6fad6755f295bb9709"


def test_enumeration_counts():
    assert sum(1 for _ in iter_creation_sequences(2)) == 1
    assert sum(1 for _ in iter_creation_sequences(5)) == 8
    assert sum(1 for _ in iter_creation_sequences(9)) == 128
    assert list(iter_creation_sequences(1)) == []
