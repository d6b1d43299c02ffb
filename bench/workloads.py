"""The five workloads: inputs built from a seed, the timed operations of one
round, and the checks of their outputs against ``checkers``.

Every operation calls zqforce through a module attribute looked up at call
time (``game.zq_number``, not a name bound at import), so the traced run sees
the same calls as the untraced one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Any, Callable

import checkers as C
from zqforce import families, game, spectral, threshold

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass
class Op:
    """One timed operation. ``kind`` groups operations for the summary."""

    key: str
    kind: str
    fn: Callable[[], Any]


def _fingerprint(value):
    """A comparable form of an operation's output (arrays by bytes)."""
    if hasattr(value, "tobytes"):  # a numpy array; numpy is not imported here
        return (value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_fingerprint(v) for v in value)
    return value


class Workload:
    name = ""
    in_process = True  # False: operations run in child processes
    # True: peak RSS is taken from one round in a fresh process, in the order
    # seed 0 gives, because the seeded order of the operations moves it.
    rss_fixed_order = False

    def build(self, seed: int):
        raise NotImplementedError

    def ops(self, inputs) -> list[Op]:
        raise NotImplementedError

    def check(self, inputs, outputs: dict[str, Any]) -> list[str]:
        raise NotImplementedError

    def answered(self, outputs: dict[str, Any]) -> int:
        """Operations in one round that returned a value."""
        return len(outputs)

    def weight(self, output) -> int:
        """Operations one timed call counts for in ``attempted``."""
        return 1

    def fingerprint(self, output):
        return _fingerprint(output)

    def traced_ops(self, inputs) -> list[Op]:
        return self.ops(inputs)

    @staticmethod
    def child_env() -> dict[str, str]:
        """Environment for child interpreters: zqforce importable from src/."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        return env


def _spec_label(family: str, params: tuple[int, ...]) -> str:
    return family if not params else f"{family}({','.join(map(str, params))})"


# ---------------------------------------------------------------------------
# headline and search: exact solves of the paper's hardest small families
# ---------------------------------------------------------------------------

# headline: Z_q by the game (family, params, q, build the strategy)
HEADLINE_GAMES = [
    ("bipartite_prism", (4, 5), 1, False),
    ("complete_multipartite", (4, 4), 1, False),
    ("kneser2", (6,), 1, False),
    ("book", (8,), 1, False),
    ("prism", (8,), 1, False),
    ("petersen", (), 1, True),
    ("kneser2", (6,), 0, False),
]
# search: (family, params, q), q=None is Z by subset search, q=0 is Z_0 by subset search
SEARCHES = [
    ("kneser2", (7,), None),
    ("complete_multipartite", (4, 4), None),
    ("kneser2", (6,), 0),
    ("bipartite_prism", (4, 5), 0),
]


def instance_name(family: str, params: tuple[int, ...], q: int) -> str:
    return "-".join([family, *map(str, params)]) + f".q{q}"


def _graphs_and_order(specs, seed: int):
    """The named graphs of ``specs`` and a seeded order of the solves."""
    graphs = {(f, p): families.generate(families.FamilySpec(f, p)) for f, p, *_ in specs}
    order = list(range(len(specs)))
    Random(seed).shuffle(order)
    return graphs, order


def _chain_errors(chains: dict[tuple, dict]) -> list[str]:
    """Engines agree on each level, and the levels computed obey the proven
    chain among themselves and against the closed forms of the others."""
    errors = []
    for (family, params), levels in chains.items():
        label = _spec_label(family, params)
        for q, vals in levels.items():
            if len(vals) > 1:
                errors.append(f"{label}: two engines disagree at q={q}: {vals}")
        flat = {q: min(v) for q, v in levels.items()}
        errors += [f"{label}: {e}" for e in C.chain_errors(flat) + C.closed_chain_errors(family, params, flat)]
    return errors


class Headline(Workload):
    name = "headline"
    # Which solves' freed memory the largest memo can reuse depends on their
    # order: one round's peak RSS ranged 40.6-43.2 MB over three seeds.
    rss_fixed_order = True

    def build(self, seed: int):
        return _graphs_and_order(HEADLINE_GAMES, seed)

    def ops(self, inputs) -> list[Op]:
        graphs, order = inputs
        ops = []
        for family, params, q, strat in HEADLINE_GAMES:
            g = graphs[family, params]
            key = f"zq:{instance_name(family, params, q)}"
            ops.append(Op(key, "zq", lambda g=g, q=q, s=strat: game.zq_number(g, q, build_strategy=s)))
        return [ops[i] for i in order]

    def check(self, inputs, outputs) -> list[str]:
        graphs, _ = inputs
        errors = []
        chains: dict[tuple, dict] = {}
        for family, params, q, strat in HEADLINE_GAMES:
            res = outputs[f"zq:{instance_name(family, params, q)}"]
            chains.setdefault((family, params), {}).setdefault(q, set()).add(res.value)
            errors += _closed_form_errors(family, params, q, res.value)
            if strat:
                g = graphs[family, params]
                edges = C.edges_of_mask_graph(g.adj)
                n, ref = C.petersen_edges()
                if edges != C.edge_set(ref):
                    errors.append("petersen: graph differs from the reference edge list")
                adj = C.adjacency(n, edges)
                errors += [f"petersen strategy: {e}" for e in C.replay_errors(adj, res.strategy, q, res.value)]
        return errors + _chain_errors(chains)

    def fingerprint(self, output):
        return (output.value, output.cache_stats.states, output.cache_stats.hits, output.strategy)


class Search(Workload):
    name = "search"

    def build(self, seed: int):
        return _graphs_and_order(SEARCHES, seed)

    def ops(self, inputs) -> list[Op]:
        graphs, order = inputs
        ops = []
        for family, params, q in SEARCHES:
            g = graphs[family, params]
            if q is None:
                ops.append(Op(f"z:{_spec_label(family, params)}", "zf", lambda g=g: game.z_number(g)))
            else:
                ops.append(Op(f"z0:{_spec_label(family, params)}", "zf", lambda g=g: game.z0_number(g)))
        return [ops[i] for i in order]

    def check(self, inputs, outputs) -> list[str]:
        errors = []
        chains: dict[tuple, dict] = {}
        for family, params, q in SEARCHES:
            value = outputs[f"{'z' if q is None else 'z0'}:{_spec_label(family, params)}"]
            chains.setdefault((family, params), {}).setdefault(q, set()).add(value)
            errors += _closed_form_errors(family, params, q, value)
        return errors + _chain_errors(chains)


def _closed_form_errors(family, params, q, value) -> list[str]:
    expected = C.closed_form(family, params, q)
    if expected is None or value in expected:
        return []
    level = "Z" if q is None else f"Z_{q}"
    return [f"{_spec_label(family, params)}: {level} = {value}, closed form gives {sorted(expected)}"]


# ---------------------------------------------------------------------------
# reproduce: the registry report, answered rows and refusals
# ---------------------------------------------------------------------------

REPRODUCE_MAX_N = 5
_LABEL = re.compile(r"^([a-z_0-9]+?)(?:\(([0-9,]+)\))?$")


class Reproduce(Workload):
    name = "reproduce"

    def build(self, seed: int):
        # The registry is fixed; the seed does not change the inputs.
        return REPRODUCE_MAX_N

    def ops(self, max_n) -> list[Op]:
        return [Op("report", "report", lambda: families.reproduce_report(max_n, jobs=1))]

    def weight(self, output) -> int:
        return len(output)

    def answered(self, outputs) -> int:
        return sum(1 for row in outputs["report"] if row.computed is not None)

    def fingerprint(self, output):
        return tuple(output)

    def check(self, max_n, outputs) -> list[str]:
        rows = outputs["report"]
        errors = []
        chains: dict[tuple, dict] = {}
        for row in rows:
            m = _LABEL.match(row.family)
            if not m:
                errors.append(f"unparsable family label {row.family!r}")
                continue
            family = m.group(1)
            params = tuple(int(x) for x in m.group(2).split(",")) if m.group(2) else ()
            status = row.status.split(" ")[0]
            if row.computed is None:
                if status != "SKIP":
                    errors.append(f"{row.family} q={row.q}: no value but status {row.status!r}")
                continue
            if status not in ("PASS", "AGREE"):
                errors.append(f"{row.family} q={row.q}: status {row.status!r} for value {row.computed}")
            if (row.computed in row.expected) != (status in ("PASS", "AGREE")):
                errors.append(f"{row.family} q={row.q}: status {status} inconsistent with its expected set")
            expected = C.closed_form(family, params, row.q)
            if expected is None and status == "PASS":
                errors.append(f"{row.family} q={row.q}: no closed form to check a PASS row against")
            errors += _closed_form_errors(family, params, row.q, row.computed)
            chains.setdefault((family, params), {}).setdefault(row.q, set()).add(row.computed)
        for (family, params), levels in chains.items():
            for q, vals in levels.items():
                if len(vals) > 1:
                    errors.append(f"{_spec_label(family, params)}: rows disagree at q={q}: {vals}")
            flat = {q: min(v) for q, v in levels.items()}
            errors += [f"{_spec_label(family, params)}: {e}" for e in C.chain_errors(flat)]
        return errors


# ---------------------------------------------------------------------------
# certify: threshold and named-family nullity certificates
# ---------------------------------------------------------------------------

CERT_SIZES = range(20, 65, 4)  # vertices of the random threshold graphs
CERT_RUNS = (2, 3, 5)  # runs s per sequence; certified at q = 1..s
BOOK_NS = range(3, 32)  # book(n) has 2(n+1) <= 64 vertices
KNESER_NS = range(5, 12)  # K(n,2) has C(n,2) <= 64 vertices
PRISM_TOTALS = range(4, 33, 4)  # n + m of the bipartite prisms
SMALL_SIZES = (4, 5, 6, 7, 8, 8)  # sequences solved by the game as well
# Two zero-runs of length 3 make Z_1 < Z, so the q=1 strategy has an oracle move.
SMALL_FIXED = ("00010001",)
PETERSEN_SPECTRUM = (3, 1, -2)  # eigenvalues, multiplicities 1, 5, 4


def random_sequence(rng: Random, n: int, s: int) -> str:
    """A connected creation sequence on n vertices with exactly s runs."""
    cuts = sorted(rng.sample(range(1, n), 2 * s - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return "".join(("0" if i % 2 == 0 else "1") * k for i, k in enumerate(parts))


class Certify(Workload):
    name = "certify"

    def build(self, seed: int):
        rng = Random(seed)
        seqs = [random_sequence(rng, n, s) for n in CERT_SIZES for s in CERT_RUNS]
        small = ["0" + "".join(rng.choice("01") for _ in range(n - 2)) + "1" for n in SMALL_SIZES]
        small += [b for b in SMALL_FIXED if b not in small]
        splits = [rng.randint(2, t // 2) for t in PRISM_TOTALS]
        prisms = [(n, t - n) for n, t in zip(splits, PRISM_TOTALS)]

        def thr(bits):
            seq = threshold.parse_creation_sequence(bits)
            return seq, threshold.build_threshold_graph(seq)

        return {
            "seqs": {bits: thr(bits) for bits in seqs + small},
            "large": seqs,
            "small": small,
            "books": {n: families.book(n) for n in BOOK_NS},
            "kneser": {n: families.kneser2(n) for n in KNESER_NS},
            "prisms": {p: families.bipartite_prism(*p) for p in prisms},
            "petersen": families.petersen(),
        }

    def ops(self, inp) -> list[Op]:
        ops = []

        def certify(m, g, q):
            return m, spectral.inertia(m).as_tuple(), spectral.in_Sq(m, g, q)

        for bits in inp["large"]:
            seq, g = inp["seqs"][bits]
            for q in range(1, seq.s + 1):
                ops.append(Op(f"thr:{bits}:{q}", "threshold", lambda seq=seq, g=g, q=q: (
                    *certify(threshold.certificate_matrix(seq, q), g, q), threshold.zq_formula(seq, q))))
        for n, g in inp["books"].items():
            ops.append(Op(f"book:{n}", "family", lambda n=n, g=g: certify(spectral.book_certificate(n), g, 1)))
        for n, g in inp["kneser"].items():
            ops.append(Op(f"kneser2:{n}", "family", lambda n=n, g=g: certify(spectral.kneser_certificate(n), g, 1)))
        for (n, m), g in inp["prisms"].items():
            ops.append(Op(f"bprism:{n},{m}", "family",
                          lambda n=n, m=m, g=g: certify(spectral.bipartite_prism_certificate(n, m), g, 1)))
        g = inp["petersen"]

        def srg(g=g):
            psd, neg = spectral.srg_certificate(g, 1.0, -2.0)
            return certify(psd, g, 0), certify(neg, g, 1)

        ops.append(Op("srg:petersen", "family", srg))
        for bits in inp["small"]:
            seq, g = inp["seqs"][bits]

            def small(seq=seq, g=g):
                qs = range(seq.s + 2)
                return (
                    tuple(game.zq_number(g, q, build_strategy=q >= 1) for q in qs),
                    game.z_number(g),
                    game.z0_number(g),
                    tuple(threshold.certificate_matrix(seq, q) for q in range(1, seq.s + 1)),
                )

            ops.append(Op(f"small:{bits}", "game", small))
        return ops

    def check(self, inp, outputs) -> list[str]:
        import numpy as np

        errors = []
        for key, out in outputs.items():
            kind, _, arg = key.partition(":")
            if kind == "thr":
                bits, q = arg.split(":")
                q = int(q)
                n, edges = C.threshold_edges(bits)
                m, inertia, ok, formula = out
                want = C.threshold_zq(bits, q)
                if formula != want:
                    errors.append(f"{key}: formula {formula}, reference {want}")
                errors += self._exact(key, m, n, edges, inertia, ok, (q, want))
                if C.edges_of_mask_graph(inp["seqs"][bits][1].adj) != C.edge_set(edges):
                    errors.append(f"{key}: threshold graph differs from the reference edge list")
            elif kind == "kneser2":
                n = int(arg)
                nv, edges = C.kneser2_edges(n)
                m, inertia, ok = out
                errors += self._exact(key, m, nv, edges, inertia, ok, (1, math.comb(n, 2) - n))
                z1 = C.closed_form("kneser2", (n,), 1)
                if z1 and inertia[1] > min(z1):
                    errors.append(f"{key}: nullity {inertia[1]} exceeds Z_1 = {min(z1)}")
            elif kind == "srg":
                nv, edges = C.petersen_edges()
                (psd, in0, ok0), (neg, in1, ok1) = out
                # A - tau I and -A + theta I from the Petersen spectrum {3, 1^5, -2^4}
                errors += self._exact(key + ":psd", psd, nv, edges, in0, ok0, (0, 4))
                errors += self._exact(key + ":neg", neg, nv, edges, in1, ok1, (1, 5))
                for q, nul in ((0, in0[1]), (1, in1[1])):
                    if nul > min(C.closed_form("petersen", (), q)):
                        errors.append(f"{key}: nullity {nul} exceeds Z_{q}")
            elif kind in ("book", "bprism"):
                params = tuple(int(x) for x in arg.split(","))
                if kind == "book":
                    nv, edges = C.book_edges(*params)
                    spec, nul, family = C.book_spectrum(*params), params[0], "book"
                else:
                    nv, edges = C.bipartite_prism_edges(*params)
                    spec, nul, family = C.bipartite_prism_spectrum(*params), sum(params) - 1, "bipartite_prism"
                m, inertia, ok = out
                errors += [f"{key}: {e}" for e in C.support_errors(m.tolist(), nv, edges)]
                errors += [f"{key}: {e}" for e in C.spectrum_errors(np.linalg.eigvalsh(m), spec)]
                if tuple(inertia) != C.sign_counts(spec, nul):
                    errors.append(f"{key}: inertia {inertia}, closed form {C.sign_counts(spec, nul)}")
                if not ok:
                    errors.append(f"{key}: in_Sq rejected the certificate")
                if nul > min(C.closed_form(family, params, 1)):
                    errors.append(f"{key}: nullity {nul} exceeds Z_1")
            elif kind == "small":
                bits = arg
                n, edges = C.threshold_edges(bits)
                results, z, z0, mats = out
                zqs = [r.value for r in results]
                s = len(C.runs_of(bits))
                adj = C.adjacency(n, edges)
                for q, r in enumerate(results[1:], start=1):
                    errors += [f"{key}: q={q} strategy: {e}" for e in C.replay_errors(adj, r.strategy, q, r.value)]
                for q, v in enumerate(zqs):
                    if v != C.threshold_zq(bits, q):
                        errors.append(f"{key}: game Z_{q} = {v}, formula {C.threshold_zq(bits, q)}")
                if z != C.threshold_z(bits):
                    errors.append(f"{key}: Z = {z}, formula {C.threshold_z(bits)}")
                if z0 != zqs[0]:
                    errors.append(f"{key}: Z_0 by subset search {z0} != Z_0 by the game {zqs[0]}")
                errors += [f"{key}: {e}" for e in C.chain_errors({**dict(enumerate(zqs)), None: z})]
                for q, m in enumerate(mats, start=1):
                    neg, nul, _ = C.exact_inertia(C.integer_rows(m))
                    if neg != q or nul > zqs[q] or nul != C.threshold_zq(bits, q):
                        errors.append(f"{key}: q={q} certificate has {neg} negatives, nullity {nul}")
                    errors += [f"{key}: {e}" for e in C.support_errors(C.integer_rows(m), n, edges)]
                if len(mats) != s:
                    errors.append(f"{key}: {len(mats)} certificates for s = {s}")
            else:
                errors.append(f"{key}: no check for this operation")
        return errors

    @staticmethod
    def _exact(key, m, n, edges, inertia, ok, want) -> list[str]:
        """Exact checks of an integer certificate: support, negatives, nullity."""
        try:
            rows = C.integer_rows(m)
        except ValueError as exc:
            return [f"{key}: {exc}"]
        errors = [f"{key}: {e}" for e in C.support_errors(rows, n, edges)]
        exact = C.exact_inertia(rows)
        q, nul = want
        if exact[0] != q or exact[1] != nul:
            errors.append(f"{key}: exact inertia {exact}, expected {q} negatives and nullity {nul}")
        if tuple(inertia) != exact:
            errors.append(f"{key}: reported inertia {tuple(inertia)} != exact {exact}")
        if not ok:
            errors.append(f"{key}: in_Sq rejected the certificate")
        return errors


# ---------------------------------------------------------------------------
# cli: sequential command-line invocations
# ---------------------------------------------------------------------------


CLI_TIMEOUT_S = 60


class Cli(Workload):
    name = "cli"
    in_process = False
    max_rss_kb = 0  # largest peak RSS of a CLI child so far

    def build(self, seed: int):
        rng = Random(seed)
        n, edges = C.petersen_edges()
        perm = list(range(n))
        rng.shuffle(perm)
        petersen = [(perm[i], perm[j]) for i, j in edges]
        bits = "0" + "".join(rng.choice("01") for _ in range(7)) + "1"
        q = rng.randint(1, len(C.runs_of(bits)))
        book_n = rng.randint(3, 8)
        cn = 10
        cedges = [(i, j) for i in range(cn) for j in range(i + 1, cn) if rng.random() < 0.35]
        coloured = sorted(rng.sample(range(cn), 4))
        commands = {
            "compute": ["compute", "--graph6", C.graph6(n, petersen), "--q", "1"],
            "threshold": ["threshold", "--seq", bits, "--q", str(q), "--verify"],
            "certify": ["certify", "--name", "book", "--n", str(book_n)],
            "family": ["family", "--name", "book", "--n", "3", "--chain", "2"],
            "contract": ["contract", "--graph6", C.graph6(cn, cedges),
                         "--coloured", ",".join(map(str, coloured))],
        }
        facts = {"bits": bits, "q": q, "book_n": book_n, "contract": (cn, cedges, coloured)}
        return {k: v + ["--format", "json"] for k, v in commands.items()}, facts

    def ops(self, inputs) -> list[Op]:
        commands, _ = inputs
        env = self.child_env()

        def invoke(argv):
            # Reaped with wait4 for the child's own peak RSS; stderr is drained
            # on a thread so that neither pipe can fill while the other is read,
            # and a child still running after CLI_TIMEOUT_S is killed.
            with subprocess.Popen([sys.executable, "-m", "zqforce.cli", *argv], cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
                err: list[str] = []
                drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
                drain.start()
                killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
                killer.start()
                out = proc.stdout.read()
                drain.join()
                _, status, usage = os.wait4(proc.pid, 0)
                killer.cancel()
                proc.returncode = os.waitstatus_to_exitcode(status)
            self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {''.join(err).strip()}")
            return out

        return [Op(name, "invocation", lambda a=argv: invoke(a)) for name, argv in commands.items()]

    def traced_ops(self, inputs) -> list[Op]:
        """In-process ``zqforce.cli.run``; its output must match the child process's."""
        import zqforce.cli

        commands, _ = inputs

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = zqforce.cli.run(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}")
            return buf.getvalue()

        return [Op(name, "invocation", lambda a=argv: run(a)) for name, argv in commands.items()]

    def check(self, inputs, outputs) -> list[str]:
        _, facts = inputs
        errors = []
        rec = {k: json.loads(v) for k, v in outputs.items()}
        if rec["compute"]["value"] not in C.closed_form("petersen", (), 1):
            errors.append(f"compute: Petersen Z_1 = {rec['compute']['value']}")
        want = C.threshold_zq(facts["bits"], facts["q"])
        r = rec["threshold"]
        if (r["value"], r["game"], r["verify"]) != (want, want, "PASS"):
            errors.append(f"threshold: {r['value']}/{r['game']}/{r['verify']}, formula {want}")
        n = facts["book_n"]
        r = rec["certify"]
        spec = C.book_spectrum(n)
        if (r["value"], tuple(r["inertia"]), r["edge_support_ok"]) != (n, C.sign_counts(spec, n), True):
            errors.append(f"certify: book({n}) certificate reported {r}")
        chain = [min(C.closed_form("book", (3,), q)) for q in (0, 1, 2, None)]
        if rec["family"]["value"] != chain:
            errors.append(f"family: chain {rec['family']['value']}, closed forms {chain}")
        cn, cedges, coloured = facts["contract"]
        kept, unc, mult, size = C.contraction(C.adjacency(cn, cedges), set(coloured))
        r = rec["contract"]
        got = (r["coloured_nodes"], r["uncoloured_nodes"], r["multiplicity"], r["max_matching"])
        ref = ([sorted(c) for c in kept], [sorted(u) for u in unc], mult, size)
        if got != ref:
            errors.append(f"contract: {got} != reference {ref}")
        return errors


WORKLOADS = {w.name: w for w in (Headline(), Search(), Reproduce(), Certify(), Cli())}
