import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from zqforce import game, threshold
from zqforce.cli import run
from zqforce.graphs import build_graph, to_graph6


def run_cli(capsys, argv, expect=0):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, (argv, code, captured.err)
    return captured


def test_compute_value(capsys):
    out = run_cli(capsys, ["compute", "--graph6", "A_", "--q", "0"]).out
    assert "value: 1" in out


def test_compute_json_schema(capsys):
    out = run_cli(capsys, ["compute", "--graph6", "A_", "--q", "1", "--format", "json"]).out
    record = json.loads(out)
    assert record["input"] == {"graph6": "A_"}
    assert record["q"] == 1 and record["value"] == 1


def test_compute_trace(capsys):
    out = run_cli(capsys, ["compute", "--seq", "0001", "--q", "0", "--trace"]).out
    assert "value: 1" in out
    assert "spend token on vertex 0" in out
    assert "offer components" in out
    assert "if oracle returns" in out


# Exact bytes of traced solves. The strategy picks the lowest-vertex token
# spend, then the first family in enumeration order, so any change to move
# order or tie-breaking shows up here.
GOLDEN_TRACES = [
    (
        ["compute", "--graph6", "IheA@GUAo", "--q", "1", "--trace"],
        """\
n: 10
q: 1
value: 5
strategy:
  spend token on vertex 0
  spend token on vertex 1
  spend token on vertex 2
  spend token on vertex 3
  spend token on vertex 4
""",
    ),
    (
        ["compute", "--seq", "00100011", "--q", "1", "--trace", "--format", "json"],
        """\
{
  "input": {
    "seq": "00100011"
  },
  "q": 1,
  "value": 4,
  "strategy": [
    {
      "type": "token",
      "vertex": 0
    },
    {
      "type": "token",
      "vertex": 3
    },
    {
      "type": "token",
      "vertex": 4
    },
    {
      "type": "token",
      "vertex": 6
    }
  ]
}
""",
    ),
    (
        ["compute", "--graph6", "GsSSQC", "--q", "1", "--trace"],
        """\
n: 8
q: 1
value: 3
strategy:
  spend token on vertex 0
  spend token on vertex 1
  spend token on vertex 3
  offer components [2] | [4, 6, 7]
    if oracle returns {[2]}:
      offer components [4] | [5]
        if oracle returns {[4]}, {[4]; [5]}, {[5]}:
          (already coloured)
    if oracle returns {[2]; [4, 6, 7]}, {[4, 6, 7]}:
      (already coloured)
""",
    ),
    # block-rich graphs, whose memo keys on canonical states: book(4) (four
    # interchangeable pages) and K_{3,3} (two classes of three twins)
    (
        ["compute", "--graph6", "IsaAHGSB?", "--q", "1", "--trace"],
        """\
n: 10
q: 1
value: 4
strategy:
  spend token on vertex 0
  spend token on vertex 1
  spend token on vertex 2
  spend token on vertex 3
""",
    ),
    (
        ["compute", "--graph6", "IsaAHGSB?", "--q", "0", "--trace"],
        """\
n: 10
q: 0
value: 2
strategy:
  spend token on vertex 0
  spend token on vertex 1
  offer components [2, 7]
    if oracle returns {[2, 7]}:
      offer components [3, 8]
        if oracle returns {[3, 8]}:
          (already coloured)
""",
    ),
    (
        ["compute", "--graph6", "EFz_", "--q", "1", "--trace"],
        """\
n: 6
q: 1
value: 4
strategy:
  spend token on vertex 0
  spend token on vertex 1
  spend token on vertex 3
  spend token on vertex 4
""",
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    GOLDEN_TRACES,
    ids=["petersen", "threshold-json", "oracle", "book4-q1", "book4-q0", "k33-q1"],
)
def test_compute_trace_golden_bytes(capsys, argv, expected):
    assert run_cli(capsys, argv).out == expected


def test_compute_requires_single_input(capsys):
    run_cli(capsys, ["compute", "--graph6", "A_", "--seq", "01", "--q", "0"], expect=2)
    run_cli(capsys, ["compute", "--q", "0"], expect=2)
    cap = run_cli(capsys, ["compute", "--graph6", "A_"], expect=2)
    assert cap.err == "error: compute needs --q, --chain, or --z\n"
    assert cap.out == ""


P17 = to_graph6(build_graph(17, [(i, i + 1) for i in range(16)]))


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compute", "--graph6", P17, "--q", "1"], "value: 1"),
        (["compute", "--graph6", P17, "--chain", "1"], "chain: [1, 1, 1]"),
        (["threshold", "--seq", "0" * 16 + "1", "--q", "1", "--verify"], "verify: PASS"),
        (["family", "--name", "path", "--n", "17", "--q", "1"], "Z_1: 1"),
        (["family", "--name", "path", "--n", "17", "--chain", "1"], "chain: [1, 1, 1]"),
        (["compute", "--graph6", P17, "--q", "0", "--trace"], "spend token on vertex 0"),
    ],
    ids=["compute-q", "compute-chain", "threshold-verify", "family-q", "family-chain",
         "compute-trace-q0"],
)
def test_game_size_guard(capsys, argv, expected):
    # every game level on 17 > GAME_MAX_N vertices is refused with exit 1,
    # in probe's words, and --force runs it; --trace needs the traversal for
    # its strategy, so it is refused at any level, q = 0 included
    cap = run_cli(capsys, argv, expect=1)
    assert cap.err == "infeasible: game solve refused for n=17 > 16\n"
    assert cap.out == ""
    assert expected in run_cli(capsys, argv + ["--force"]).out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["family", "--name", "kneser2", "--n", "7", "--chain", "0"], "chain: [15, 15]"),
        (["family", "--name", "complete_multipartite", "--n", "5", "--m", "4", "--q", "0"],
         "Z_0: 15"),
        (["family", "--name", "kneser2", "--n", "7", "--q", "10"], "Z_10: 15"),
        (["compute", "--graph6", P17, "--q", "0"], "q: 0\nvalue: 1"),
    ],
    ids=["kneser2-7-chain0", "multipartite-5-4-q0", "kneser2-7-q10", "compute-q0"],
)
def test_levels_without_traversal_answered_over_guard(capsys, monkeypatch, argv, expected):
    # one level rule for every command: Z_0 and every level from n - δ - 1 on
    # are subset searches, which the game-size limit does not refuse
    def no_solver(g, levels):
        raise AssertionError(f"game traversal at levels {levels}")

    monkeypatch.setattr(game, "_Solver", no_solver)
    cap = run_cli(capsys, argv)
    assert expected in cap.out and cap.err == ""


@pytest.mark.parametrize("level", [["--chain", "1"], ["--z"]])
def test_trace_needs_q(capsys, level):
    cap = run_cli(capsys, ["compute", "--graph6", "Dhc", *level, "--trace"], expect=2)
    assert cap.err == "error: --trace needs --q: a --chain or --z answer has no strategy\n"
    assert cap.out == ""


def test_compute_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    out = run_cli(capsys, ["compute", "--graph6", "-", "--q", "0"]).out
    assert "value: 1" in out


def test_threshold_verify(capsys):
    out = run_cli(capsys, ["threshold", "--seq", "00100011", "--q", "1", "--verify"]).out
    assert "formula: 4" in out and "game: 4" in out and "verify: PASS" in out


def test_threshold_bad_sequence(capsys):
    cap = run_cli(capsys, ["threshold", "--seq", "1001", "--q", "0"], expect=2)
    assert "start with 0" in cap.err


@pytest.mark.parametrize(
    "argv, token",
    [
        (["threshold", "--seq", "0^x 1", "--q", "1"], "0^x"),
        (["compute", "--seq", "0^ 1", "--q", "0"], "0^"),
    ],
)
def test_run_token_count_not_an_integer(capsys, argv, token):
    cap = run_cli(capsys, argv, expect=2)
    assert cap.err == f"error: bad run token {token!r}\n"
    assert cap.out == ""


def test_threshold_certificate_output(capsys):
    out = run_cli(
        capsys, ["threshold", "--seq", "0001", "--q", "1", "--certificate"]
    ).out
    assert "certificate inertia (neg, zero, pos): (1, 2, 1)" in out


THRESHOLD_Q0_ARGV = ["threshold", "--seq", "00100011", "--q", "0", "--certificate"]
THRESHOLD_Q0_OUT = """\
seq: 00100011
q: 0
formula: 3
z_classical: 4
certificate inertia (neg, zero, pos): (0, 3, 5)
1 0 1 0 0 0 1 1
0 1 1 0 0 0 1 1
1 1 2 0 0 0 2 2
0 0 0 1 0 0 1 1
0 0 0 0 1 0 1 1
0 0 0 0 0 1 1 1
1 1 2 1 1 1 5 5
1 1 2 1 1 1 5 5
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["threshold", "--seq", "001001", "--q", "2", "--certificate"],
            """\
seq: 001001
q: 2
formula: 2
z_classical: 2
certificate inertia (neg, zero, pos): (2, 2, 2)
0 0 1 0 0 1
0 0 1 0 0 1
1 1 1 0 0 1
0 0 0 0 0 1
0 0 0 0 0 1
1 1 1 1 1 1
""",
        ),
        (THRESHOLD_Q0_ARGV, THRESHOLD_Q0_OUT),
    ],
    ids=["q2-no-negative-zero", "q0-gram"],
)
def test_threshold_certificate_bytes(capsys, argv, expected):
    assert run_cli(capsys, argv).out == expected


def test_certify_threshold_q0(capsys):
    out = run_cli(capsys, ["certify", "--name", "threshold", "--seq", "00100011", "--q", "0"]).out
    assert "nullity: 3" in out and "OK" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--seq", "00100011", "--q", "3", "--certificate"],
        ["certify", "--name", "threshold", "--seq", "00100011", "--q", "-1"],
    ],
)
def test_certificate_q_range_error(capsys, argv):
    cap = run_cli(capsys, argv, expect=2)
    assert cap.err == f"error: q must be in 0..2, got {argv[argv.index('--q') + 1]}\n"
    assert cap.out == ""


def test_certificate_q_range_checked_before_verify(capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the certificate's q range was checked")

    for engine in ("_Solver", "z_number", "z0_number"):
        monkeypatch.setattr(game, engine, no_solve)
    argv = ["threshold", "--seq", "00100011", "--q", "3", "--verify", "--certificate"]
    cap = run_cli(capsys, argv, expect=2)
    assert cap.err == "error: q must be in 0..2, got 3\n"
    assert cap.out == ""


def test_family_chain_with_anchors(capsys):
    out = run_cli(capsys, ["family", "--name", "book", "--n", "3", "--chain", "2"]).out
    assert "chain: [2, 3, 3, 3]" in out
    assert "known:" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["compute", "--graph6", "IheA@GUAo", "--chain", "2"], "q,value\n0..2,4|5|5|5\n"),
        (
            ["family", "--name", "book", "--n", "3", "--chain", "2"],
            'q,value,anchors\n0..2,2|3|3|3,'
            '"Z_0(K_{1,n} x K_2) = 2|Z_q(K_{1,n} x K_2) = n for q >= 1"\n',
        ),
        (
            ["threshold", "--seq", "00100011", "--q", "1", "--certificate"],
            "q,value,inertia\n1,4,1|4|3\n",
        ),
        (
            ["certify", "--name", "book", "--n", "3"],
            "q,value,inertia,edge_support_ok\n1,3,1|3|4,True\n",
        ),
    ],
)
def test_chain_csv_keeps_values(capsys, argv, expected):
    # a list or tuple of scalars is one csv cell, its items joined by "|"
    assert run_cli(capsys, argv + ["--format", "csv"]).out == expected


def test_compute_chain_zero(capsys):
    # --chain 0 asks for Z_0 and Z; 0 is not a missing option
    out = run_cli(capsys, ["compute", "--graph6", "IheA@GUAo", "--chain", "0"]).out
    assert "chain: [4, 5]" in out
    # and a negative --chain is a usage error
    cap = run_cli(capsys, ["compute", "--graph6", "A_", "--chain", "-1"], expect=2)
    assert (cap.out, cap.err) == ("", "error: q_max must be nonnegative\n")


def test_family_z(capsys):
    out = run_cli(capsys, ["family", "--name", "kneser2", "--n", "5", "--z"]).out
    assert "z: 5" in out
    # with no level, family prints the graph alone
    out = run_cli(capsys, ["family", "--name", "kneser2", "--n", "5"]).out
    assert out == "family: kneser2(5)\nvertices: 10\nedges: 15\ngraph6: I?LRCecq?\n"


def test_contract_json(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("5 4\n0 1\n1 2\n2 3\n3 4\n"))
    out = run_cli(
        capsys, ["contract", "--edges-file", "-", "--coloured", "2", "--format", "json"]
    ).out
    record = json.loads(out)
    assert record["max_matching"] == 1
    assert record["uncoloured_nodes"] == [[0, 1], [3, 4]]


def test_contract_rejects_vertex_outside_graph(capsys):
    cap = run_cli(
        capsys, ["contract", "--graph6", "IheA@GUAo", "--coloured", "0,50"], expect=2
    )
    assert cap.err == "error: coloured vertex 50 is not in the graph (n=10)\n"
    assert cap.out == ""


def test_graph6_header_alone_is_a_usage_error(capsys):
    cap = run_cli(capsys, ["compute", "--graph6", ">>graph6<<", "--q", "1"], expect=2)
    assert cap.err == "error: empty graph6 string\n"
    assert cap.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--name", "threshold", "--seq", "0^3000 1", "--q", "1"],
        ["threshold", "--seq", "0^3000 1", "--q", "1", "--certificate", "--verify"],
    ],
    ids=["certify", "threshold"],
)
def test_threshold_graph_refused_before_matrix(capsys, monkeypatch, argv):
    # the n x n certificate is filled only for a graph build_graph accepts
    def certificate_matrix(seq, q):
        raise AssertionError(f"certificate_matrix called on {seq.n} vertices")

    monkeypatch.setattr(threshold, "certificate_matrix", certificate_matrix)
    cap = run_cli(capsys, argv, expect=2)
    assert cap.err == "error: vertex count must be in 1..64, got 3001\n"


def test_contract_rejects_negative_vertex(capsys):
    cap = run_cli(
        capsys, ["contract", "--graph6", "IheA@GUAo", "--coloured", "0,-1"], expect=2
    )
    assert cap.err == "error: coloured vertex -1 is not in the graph (n=10)\n"
    assert cap.out == ""
    cap = run_cli(capsys, ["contract", "--graph6", "A_", "--coloured", "1,x"], expect=2)
    assert cap.err == "error: bad --coloured list: token 'x' is not an integer\n"
    assert cap.out == ""


def test_compute_z_subset_budget(capsys):
    # 19 edges and 2 isolated vertices: the greedy forcing set has 21
    # vertices, and the C(40, 20) sets of size 20 exceed the budget
    matching = build_graph(40, [(i, i + 1) for i in range(0, 38, 2)])
    cap = run_cli(capsys, ["compute", "--graph6", to_graph6(matching), "--z"], expect=1)
    assert cap.err == (
        "infeasible: subset search would exceed 3000000 sets at size 20 (n=40)\n"
    )


MATCHING_40 = to_graph6(build_graph(40, [(i, i + 1) for i in range(0, 40, 2)]))


@pytest.mark.parametrize(
    "argv, size",
    [
        (["compute", "--graph6", MATCHING_40], 19),
        (["family", "--name", "bipartite_prism", "--n", "10", "--m", "10"], 19),
    ],
    ids=["compute", "family"],
)
def test_chain_subset_budget(capsys, argv, size):
    # --force lifts only the game-size guard; --chain's Z search keeps its
    # budget. Both greedy forcing sets have 20 vertices, and C(40, 19) > 3M.
    cap = run_cli(capsys, argv + ["--chain", "0", "--force"], expect=1)
    assert cap.err == (
        f"infeasible: subset search would exceed 3000000 sets at size {size} (n=40)\n"
    )
    assert cap.out == ""


def test_compute_edges_file(capsys, tmp_path):
    path = tmp_path / "p5.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n", encoding="utf-8")
    out = run_cli(capsys, ["compute", "--edges-file", str(path), "--q", "0"]).out
    assert out == "n: 5\nq: 0\nvalue: 1\n"


def test_unreadable_edges_file(capsys, tmp_path):
    path = tmp_path / "missing.txt"
    cap = run_cli(capsys, ["compute", "--edges-file", str(path), "--q", "0"], expect=2)
    assert cap.err == f"error: cannot read --edges-file {path}: No such file or directory\n"
    assert cap.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--graph6", "IheA@GUAo", "--q", "1", "--chain", "1"],
        ["family", "--name", "book", "--n", "3", "--q", "1", "--z"],
    ],
)
def test_levels_are_mutually_exclusive(capsys, argv):
    cap = run_cli(capsys, argv, expect=2)
    assert "not allowed with argument" in cap.err
    assert cap.out == ""


def test_certify_book(capsys):
    out = run_cli(capsys, ["certify", "--name", "book", "--n", "3"]).out
    assert "nullity: 3" in out and "OK" in out


BOOK_MATRIX_CSV = """\
q,value,inertia,edge_support_ok
1,3,1|3|4,True
0.866025403784,1,1,1,0.866025403784,0,0,0
1,0.866025403784,0,0,0,0.866025403784,0,0
1,0,0.866025403784,0,0,0,0.866025403784,0
1,0,0,0.866025403784,0,0,0,0.866025403784
0.866025403784,0,0,0,0.866025403784,1,1,1
0,0.866025403784,0,0,1,0.866025403784,0,0
0,0,0.866025403784,0,1,0,0.866025403784,0
0,0,0,0.866025403784,1,0,0,0.866025403784
"""


@pytest.mark.parametrize(
    "fmt, expected",
    [
        (
            "text",
            """\
certificate: book
inertia (neg, zero, pos): (1, 3, 4)
nullity: 3
edge support + q negative eigenvalues: OK
0.866025 1 1 1 0.866025 0 0 0
1 0.866025 0 0 0 0.866025 0 0
1 0 0.866025 0 0 0 0.866025 0
1 0 0 0.866025 0 0 0 0.866025
0.866025 0 0 0 0.866025 1 1 1
0 0.866025 0 0 1 0.866025 0 0
0 0 0.866025 0 1 0 0.866025 0
0 0 0 0.866025 1 0 0 0.866025
""",
        ),
        ("csv", BOOK_MATRIX_CSV),
    ],
)
def test_certify_matrix_bytes(capsys, fmt, expected):
    argv = ["certify", "--name", "book", "--n", "3", "--matrix", "--format", fmt]
    assert run_cli(capsys, argv).out == expected


@pytest.mark.parametrize("name", ["book", "kneser2", "bipartite_prism"])
def test_certify_needs_n(capsys, name):
    cap = run_cli(capsys, ["certify", "--name", name, "--m", "3"], expect=2)
    assert f"{name} certificate needs --n" in cap.err
    assert cap.out == ""


def test_certify_srg(capsys):
    from zqforce.families import petersen

    enc = to_graph6(petersen())
    out = run_cli(
        capsys,
        ["certify", "--name", "srg", "--graph6", enc, "--theta", "1", "--tau", "-2", "--psd"],
    ).out
    assert "inertia (neg, zero, pos): (0, 4, 6)" in out


def test_reproduce_csv(capsys):
    out = run_cli(capsys, ["reproduce", "--max-n", "3", "--format", "csv"]).out
    lines = out.strip().splitlines()
    assert lines[0] == "family,q,expected,computed,status,anchor"
    assert all(",FAIL," not in line for line in lines)


def test_reproduce_jobs_identical_output(capsys):
    sequential = run_cli(capsys, ["reproduce", "--max-n", "3"]).out
    parallel = run_cli(capsys, ["reproduce", "--max-n", "3", "--jobs", "2"]).out
    assert sequential == parallel


def test_reproduce_jobs_below_one_is_a_usage_error(capsys, monkeypatch):
    import multiprocessing

    def no_pool(size):
        raise AssertionError(f"Pool({size}) started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for jobs in ("0", "-3"):
        err = run_cli(capsys, ["reproduce", "--max-n", "3", "--jobs", jobs], expect=2).err
        assert "jobs" in err


def test_reproduce_negative_max_n_is_a_usage_error(capsys):
    for max_n in ("-1", "-3"):
        err = run_cli(capsys, ["reproduce", "--max-n", max_n], expect=2).err
        assert "max_n" in err
    out = run_cli(capsys, ["reproduce", "--max-n", "0"]).out
    assert {line.split()[0] for line in out.splitlines()} == {"petersen"}


def test_reproduce_pool_has_at_most_one_worker_per_family(capsys, monkeypatch):
    # a stand-in Pool that records its size and runs the tasks in process
    import multiprocessing
    from itertools import starmap

    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, items):
            return list(starmap(func, items))

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    sequential = run_cli(capsys, ["reproduce", "--max-n", "3"]).out
    assert sizes == []
    pooled = run_cli(capsys, ["reproduce", "--max-n", "3", "--jobs", "64"]).out
    assert pooled == sequential
    family_count = len({line.split()[0] for line in sequential.splitlines()})
    assert family_count == 14 and sizes == [family_count]


def test_probe_cli(capsys):
    out = run_cli(capsys, ["probe", "--name", "multipartite", "--n", "2", "--m", "3"]).out
    assert "agrees" in out
    out = run_cli(capsys, ["probe", "--name", "kneser_structure", "--n", "5"]).out
    assert "0 violations" in out


def test_probe_kneser_z0(capsys, monkeypatch):
    from zqforce import game

    out = run_cli(capsys, ["probe", "--name", "kneser_z0", "--n", "7"]).out
    assert out == "probe kneser_z0(7)\n  Z_0: conjectured 15, computed 15 -> agrees\n"
    # n = 8 is refused at the first size below the greedy bound, before any
    # of its sets is closed: only the greedy's few hundred closures run
    closures = []
    psd_closure = game.psd_closure
    monkeypatch.setattr(game, "psd_closure", lambda g, b: closures.append(b) or psd_closure(g, b))
    cap = run_cli(capsys, ["probe", "--name", "kneser_z0", "--n", "8"], expect=1)
    assert cap.err == "infeasible: subset search would exceed 200000 sets at size 21 (n=28)\n"
    assert len(closures) < 28 * 28


@pytest.mark.parametrize(
    "name, n, m",
    [("multipartite", 1, 3), ("multipartite", 2, 2), ("bipartite_prism", 1, 3)],
)
def test_probe_outside_registry_exit_2(capsys, name, n, m):
    # the probes compare with the registry's rows, which state the paper's
    # conjectures only for n >= 2 and l >= 3 parts, and K_{n,m} x K_2 for n, m >= 2
    cap = run_cli(capsys, ["probe", "--name", name, "--n", str(n), "--m", str(m)], expect=2)
    family = "complete_multipartite" if name == "multipartite" else name
    assert cap.err == f"error: the registry states no value for {family}({n},{m}) at q=0\n"
    assert cap.out == ""


def test_symmetric_families_match_the_registry_in_either_order(capsys):
    # the registry lists K_{n,m} and K_{n,m} x K_2 as (min, max); the same
    # graph with its parameters swapped gets the same claims
    for argv in (["--name", "bipartite_prism", "--q", "1"], ["--name", "complete_bipartite", "--q", "0"]):
        outs = [run_cli(capsys, ["family", *argv, "--n", n, "--m", m]).out for n, m in ("23", "32")]
        known = [[ln for ln in out.splitlines() if ln.startswith("known:")] for out in outs]
        assert len(known[0]) == 1 and known[0] == known[1], outs
    out = run_cli(capsys, ["probe", "--name", "bipartite_prism", "--n", "3", "--m", "2"]).out
    assert out == (
        "probe bipartite_prism(3,2)\n"
        "  Z_0: conjectured 4, computed 4 -> agrees\n"
        "  Z_1: conjectured 5, computed 5 -> agrees\n"
    )


def test_probe_game_refusal_before_any_search(capsys, monkeypatch):
    # K_{5,5,5,5,5} has 25 vertices: its Z_1 game is refused before the Z_0
    # subset search closes a single set
    from zqforce import game

    closures = []
    psd_closure = game.psd_closure
    monkeypatch.setattr(game, "psd_closure", lambda g, b: closures.append(b) or psd_closure(g, b))
    cap = run_cli(capsys, ["probe", "--name", "multipartite", "--n", "5", "--m", "5"], expect=1)
    assert cap.err == "infeasible: game solve refused for n=25 > 16\n"
    assert cap.out == "" and closures == []


@pytest.mark.parametrize(
    "argv, n",
    [(["--name", "bipartite_prism", "--n", "10", "--m", "20", "--chain", "1"], 60),
     (["--name", "kneser2", "--n", "7", "--chain", "3"], 21)],
)
def test_chain_game_refusal_before_any_engine(capsys, monkeypatch, argv, n):
    # a chain's game levels over 16 vertices are refused before the Z or Z_0
    # subset search starts, as the probe's are: no engine runs at all
    from zqforce import game

    def engine(*args):
        raise AssertionError("an engine ran before the game-size refusal")

    for name in ("z_number", "z0_number", "_Solver"):
        monkeypatch.setattr(game, name, engine)
    cap = run_cli(capsys, ["family", *argv], expect=1)
    assert cap.err == f"infeasible: game solve refused for n={n} > 16\n"
    assert cap.out == ""


def test_probe_rejects_csv(capsys):
    argv = ["probe", "--name", "multipartite", "--n", "2", "--m", "3", "--format", "csv"]
    cap = run_cli(capsys, argv, expect=2)
    assert "invalid choice: 'csv'" in cap.err
    assert cap.out == ""


def test_probe_kneser_structure_needs_sample(capsys):
    # K(8,2) has 28 vertices: 2^28 subsets exceed the subset budget
    cap = run_cli(capsys, ["probe", "--name", "kneser_structure", "--n", "8"], expect=1)
    assert cap.err == (
        "infeasible: structure check would visit 2^28 subsets, over 3000000; "
        "give a sample size\n"
    )
    assert cap.out == ""
    out = run_cli(
        capsys, ["probe", "--name", "kneser_structure", "--n", "8", "--sample", "1000"]
    ).out
    assert out == "kneser structure n=8: sampled, 1000 subsets, 0 violations\n"


@pytest.mark.parametrize("sample", ["0", "-5"])
def test_probe_kneser_structure_rejects_empty_sample(capsys, sample):
    argv = ["probe", "--name", "kneser_structure", "--n", "5", "--sample", sample]
    cap = run_cli(capsys, argv, expect=2)
    assert cap.err == f"error: sample size must be at least 1, got {sample}\n"
    assert cap.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["probe", "--name", "multipartite", "--n", "2"], "multipartite probe needs --m"),
        (["probe", "--name", "bipartite_prism", "--m", "3"], "bipartite_prism probe needs --n"),
        (["probe", "--name", "kneser_z0", "--n", "5", "--m", "3"], "kneser_z0 probe takes no --m"),
        (["probe", "--name", "kneser_structure", "--n", "5", "--m", "9"],
         "kneser_structure probe takes no --m"),
        (["probe", "--name", "multipartite", "--n", "2", "--m", "3", "--sample", "5"],
         "multipartite probe takes no --sample"),
        (["probe", "--name", "kneser_z0", "--n", "5", "--seed", "7"],
         "kneser_z0 probe takes no --seed"),
        # family checks its --n and --m the same way, before any graph is built
        (["family", "--name", "kneser2", "--m", "6"], "kneser2 family needs --n"),
        (["family", "--name", "kneser2", "--n", "6", "--m", "6", "--q", "1"],
         "kneser2 family takes no --m"),
        (["family", "--name", "complete_multipartite", "--n", "3"],
         "complete_multipartite family needs --m"),
        (["family", "--name", "petersen", "--n", "5"], "petersen family takes no --n"),
    ],
)
def test_probe_options_checked(capsys, argv, message):
    cap = run_cli(capsys, argv, expect=2)
    assert (cap.out, cap.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--name", "book", "--n", "5", "--q", "0"], "book certificate takes no --q"),
        (["--name", "book", "--n", "3", "--psd"], "book certificate takes no --psd"),
        (["--name", "kneser2", "--n", "5", "--m", "3"], "kneser2 certificate takes no --m"),
        (["--name", "bipartite_prism", "--n", "2", "--m", "3", "--edges-file", "x"],
         "bipartite_prism certificate takes no --edges-file"),
        (["--name", "threshold", "--seq", "0001", "--q", "1", "--n", "4"],
         "threshold certificate takes no --n"),
        (["--name", "threshold", "--seq", "0001", "--q", "0", "--psd"],
         "threshold certificate takes no --psd"),
        (["--name", "srg", "--graph6", "IheA@GUAo", "--theta", "1", "--tau", "-2", "--q", "0"],
         "srg certificate takes no --q"),
        # every "needs" message comes before any "takes no"
        (["--name", "bipartite_prism", "--n", "2", "--q", "1"], "bipartite_prism certificate needs --m"),
        (["--name", "threshold", "--seq", "0001", "--n", "4"],
         "threshold certificate needs --seq and --q"),
        (["--name", "srg", "--graph6", "IheA@GUAo", "--theta", "1", "--n", "4"],
         "srg certificate needs --theta and --tau"),
        (["--name", "srg", "--theta", "1", "--tau", "-2", "--n", "4"],
         "exactly one of --graph6 / --edges-file / --seq is required"),
        # Petersen's largest eigenvalue: -A + 3I has no negative eigenvalue
        (["--name", "srg", "--graph6", "IheA@GUAo", "--theta", "3", "--tau", "-2"],
         "3.0 is the principal adjacency eigenvalue"),
    ],
)
def test_certify_options_checked(capsys, argv, message):
    cap = run_cli(capsys, ["certify"] + argv, expect=2)
    assert cap.err == f"error: {message}\n"
    assert cap.out == ""


def test_unknown_subcommand_exit_2(capsys):
    assert run(["nosuchcommand"]) == 2
    capsys.readouterr()


def test_negative_q_rejected(capsys):
    cap = run_cli(capsys, ["compute", "--graph6", "A_", "--q", "-1"], expect=2)
    assert "nonnegative" in cap.err


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--name", "kneser2", "--n", "5", "--q", "-1"],
        ["family", "--name", "kneser2", "--n", "7", "--q", "-1"],
        ["compute", "--seq", "0^5 1", "--q", "-1", "--trace"],
        ["compute", "--seq", "0^20 1", "--q", "-1", "--trace"],
    ],
    ids=["family-10", "family-21", "trace-6", "trace-21"],
)
def test_negative_q_is_a_usage_error_at_any_size(capsys, argv):
    # K(7,2) and the 21-vertex threshold graph are over the game-size limit,
    # K(5,2) and the 6-vertex one are not: a negative level is a usage error
    # at both sizes, never a game refusal
    cap = run_cli(capsys, argv, expect=2)
    assert (cap.out, cap.err) == ("", "error: q must be nonnegative\n")


def test_determinism_byte_identical(capsys):
    argv = ["family", "--name", "petersen", "--chain", "2", "--format", "json"]
    first = run_cli(capsys, argv).out
    second = run_cli(capsys, argv).out
    assert first == second


def test_strategy_json_schema(capsys):
    out = run_cli(
        capsys, ["compute", "--seq", "0001", "--q", "0", "--trace", "--format", "json"]
    ).out
    record = json.loads(out)
    moves = record["strategy"]
    assert moves[0] == {"type": "token", "vertex": 0}
    oracle = moves[-1]
    assert oracle["type"] == "oracle"
    assert all(isinstance(v, list) for v in oracle["family"])
    assert all(isinstance(cont, list) for cont in oracle["responses"].values())


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


FRESH_RUN = """
import contextlib, importlib, io, json, pkgutil, sys
sys.modules["networkx"] = sys.modules["hypothesis"] = None
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None
import zqforce
for mod in pkgutil.iter_modules(zqforce.__path__):
    importlib.import_module("zqforce." + mod.name)
from zqforce import cli
loaded = sys.modules.get("numpy") is not None
runs = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    runs.append([code, out.getvalue()])
print(json.dumps([loaded, runs]))
"""


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_fresh(argvs, block_numpy=False):
    """Import every zqforce module in a fresh interpreter with networkx and
    hypothesis unimportable (and numpy too if ``block_numpy``), then run each
    argv through ``cli.run``. Returns whether the imports loaded numpy and
    the (exit code, stdout) of each run."""
    mode = "block-numpy" if block_numpy else "numpy"
    proc = subprocess.run([sys.executable, "-c", FRESH_RUN, mode, json.dumps(argvs)],
                          env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, runs = json.loads(proc.stdout)
    return loaded, [tuple(r) for r in runs]


def test_package_runs_without_test_libraries():
    # networkx and hypothesis are test oracles only, and numpy is loaded only
    # where a matrix is built: every module imports and the solver commands
    # run with all three made unimportable
    golden = Path(__file__).parent / "golden" / "reproduce_max_n3.txt"
    expected = {
        ("compute", "--graph6", "IheA@GUAo", "--q", "1"): "n: 10\nq: 1\nvalue: 5\n",
        ("compute", "--graph6", "IheA@GUAo", "--z"): "n: 10\nz: 5\n",
        ("family", "--name", "book", "--n", "3", "--chain", "2"): (
            "family: book(3)\nvertices: 8\nedges: 10\nchain: [2, 3, 3, 3]\n"
            "known: Z_0(K_{1,n} x K_2) = 2\nknown: Z_q(K_{1,n} x K_2) = n for q >= 1\n"
        ),
        ("contract", "--graph6", "IheA@GUAo", "--coloured", "0,1,2"): (
            "coloured nodes: [[0, 1, 2]]\nuncoloured nodes: [[3, 4, 5, 6, 7, 8, 9]]\n"
            "multiplicities:\n  5\nmax matching: 1\n"
        ),
        ("threshold", "--seq", "00100011", "--q", "1", "--verify"): (
            "seq: 00100011\nq: 1\nformula: 4\nz_classical: 4\ngame: 4\nverify: PASS\n"
        ),
        ("reproduce", "--max-n", "3"): golden.read_text(encoding="utf-8"),
    }
    _, runs = run_fresh([list(argv) for argv in expected], block_numpy=True)
    assert runs == [(0, out) for out in expected.values()]
    # with numpy importable, importing the package still leaves it unloaded
    assert run_fresh([]) == (False, [])


def test_matrix_commands_load_numpy_on_first_call():
    # in-process tests never reach the first-call import: the test modules
    # load numpy at the top
    argvs = [
        ["certify", "--name", "book", "--n", "3", "--matrix", "--format", "csv"],
        THRESHOLD_Q0_ARGV,
    ]
    assert run_fresh(argvs) == (False, [(0, BOOK_MATRIX_CSV), (0, THRESHOLD_Q0_OUT)])


def test_closed_stdout_stops_quietly():
    # `zqforce ... | head` closes the pipe early. The reader here closes it
    # before the command writes, and the output (68,005 bytes) is larger than
    # a 64 KiB pipe buffer, so a write meets the closed pipe whenever the
    # close comes: main() stops with no traceback and status 141, which
    # neither "infeasible" (1) nor a usage error (2) uses
    argv = ["reproduce", "--max-n", "6", "--format", "json"]
    proc = subprocess.Popen([sys.executable, "-c", "from zqforce.cli import main; main()", *argv],
                            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert (proc.wait(), err) == (141, "")
