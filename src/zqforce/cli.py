"""Command-line front end: solvers, formulas, certificates, and reports.

Exit codes: 0 success, 1 computation refused as infeasible (a game level
over ``families.GAME_MAX_N`` vertices without --force, the subset budgets),
2 usage error, 141 stdout closed by its reader. Output is deterministic for
a fixed argv.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import families, spectral, threshold
from .contraction import bipartite_contraction, max_matching
from .game import InfeasibleError, TokenSpend, settled, zq_number, zq_values
from .graphs import Graph, mask_of, parse_edge_list, parse_graph6, parse_ints, to_graph6, vertices_of


def _read_graph(args) -> tuple[Graph, dict]:
    sources = [s for s in ("graph6", "edges_file", "seq") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValueError("exactly one of --graph6 / --edges-file / --seq is required")
    kind = sources[0]
    if kind == "graph6":
        text = args.graph6
        if text == "-":
            text = sys.stdin.readline()
        return parse_graph6(text), {"graph6": text.strip()}
    if kind == "edges_file":
        if args.edges_file == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.edges_file, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ValueError(
                    f"cannot read --edges-file {args.edges_file}: {exc.strerror}"
                ) from exc
        return parse_edge_list(text), {"edges_file": args.edges_file}
    seq = threshold.parse_creation_sequence(args.seq)
    return threshold.build_threshold_graph(seq), {"seq": seq.to_bits()}


def _check_options(args, what: str, needs, reads, options) -> None:
    """Refuse a ``what`` (a probe, a certificate, a family) missing one of
    ``needs``, then one given any of ``options`` that it does not read: an
    option is given when it is not None."""
    if missing := [opt for opt in needs if getattr(args, opt) is None]:
        raise ValueError(f"{what} needs --{missing[0]}")
    if unread := [opt for opt in options if opt not in reads and getattr(args, opt) is not None]:
        raise ValueError(f"{what} takes no --{unread[0].replace('_', '-')}")


def _render_strategy(strategy, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    for move in strategy:
        if isinstance(move, TokenSpend):
            lines.append(f"{pad}spend token on vertex {move.vertex}")
        else:
            fam = " | ".join(str(vertices_of(c)) for c in move.family)
            lines.append(f"{pad}offer components {fam}")
            # responses with identical continuations are printed once
            groups: dict[tuple[str, ...], list] = {}
            for resp, cont in move.responses.items():
                key = tuple(_render_strategy(cont, indent + 2))
                groups.setdefault(key, []).append(resp)
            for key, resps in sorted(groups.items(), key=lambda kv: sorted(kv[1])[0]):
                labels = ", ".join(
                    "{" + "; ".join(str(vertices_of(c)) for c in resp) + "}"
                    for resp in sorted(resps)
                )
                lines.append(f"{pad}  if oracle returns {labels}:")
                lines.extend(key)
    return lines or [f"{pad}(already coloured)"]


def _strategy_json(strategy):
    out = []
    for move in strategy:
        if isinstance(move, TokenSpend):
            out.append({"type": "token", "vertex": move.vertex})
        else:
            out.append(
                {
                    "type": "oracle",
                    "family": [vertices_of(c) for c in move.family],
                    "responses": {
                        ",".join(str(move.family.index(c)) for c in resp): _strategy_json(cont)
                        for resp, cont in sorted(move.responses.items())
                    },
                }
            )
    return out


def _csv_cell(value) -> str:
    s = str(value)
    if "," in s or '"' in s or "\n" in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _emit(args, record: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(record, indent=2))
    elif args.format == "csv":
        # a list or tuple of scalars is one cell, its items joined by "|" as
        # in reproduce's csv; dicts and nested lists are left out
        cells = {}
        for k, v in record.items():
            if isinstance(v, (list, tuple)) and not any(isinstance(x, (dict, list)) for x in v):
                cells[k] = "|".join(map(str, v))
            elif not isinstance(v, (dict, list, tuple)):
                cells[k] = v
        print(",".join(cells))
        print(",".join(_csv_cell(v) for v in cells.values()))
    else:
        print("\n".join(text_lines))


def _values(args, g: Graph, levels: list[int | None]) -> dict[int | None, int]:
    """Z_q(g) at ``levels`` (None = Z) by ``families.solve``, or by
    ``zq_values`` past its game-size refusal under --force, read by
    ``settled``: the first refusal is raised before another engine runs."""
    return settled((zq_values if args.force else families.solve)(g, levels))


def _answer(args, g: Graph, record: dict, lines: list[str], q_lines) -> list[int | None]:
    """Answer the command's --q, --chain or --z into ``record`` and ``lines``,
    ``q_lines(value)`` showing a --q answer. Returns the levels shown."""
    if args.chain is None:
        q = None if args.z else args.q
        value = _values(args, g, [q])[q]
        record.update({"q": q, "value": value})
        lines += [f"z: {value}"] if args.z else q_lines(value)
        return [q]
    if args.chain < 0:
        raise ValueError("q_max must be nonnegative")
    levels = [*range(args.chain + 1), None]
    values = _values(args, g, levels)
    chain = [values[q] for q in levels]
    record.update({"q": f"0..{args.chain}", "value": chain})
    lines.append(f"chain: {chain}")
    return levels[:-1]


def _cmd_compute(args) -> int:
    g, source = _read_graph(args)
    if args.q is None and args.chain is None and not args.z:
        raise ValueError("compute needs --q, --chain, or --z")
    if args.trace and args.q is None:
        raise ValueError("--trace needs --q: a --chain or --z answer has no strategy")
    record: dict = {"input": source}
    lines = [f"n: {g.n}"]
    if args.trace:
        if args.q < 0:  # a usage error, before the game-size refusal
            raise ValueError("q must be nonnegative")
        if not args.force and (refused := families.game_refusal(g)):
            raise refused
        res = zq_number(g, args.q)
        record.update({"q": args.q, "value": res.value, "strategy": _strategy_json(res.strategy)})
        lines += [f"q: {args.q}", f"value: {res.value}", "strategy:"]
        lines += _render_strategy(res.strategy, 1)
    else:
        _answer(args, g, record, lines, lambda value: [f"q: {args.q}", f"value: {value}"])
    _emit(args, record, lines)
    return 0


def _cmd_threshold(args) -> int:
    seq = threshold.parse_creation_sequence(args.seq)
    value = threshold.zq_formula(seq, args.q)
    # built before the game so that a q outside 0..s fails before any solve,
    # and the graph before the matrix so that n > 64 fails before the fill
    g = threshold.build_threshold_graph(seq) if args.verify else None
    m = threshold.certificate_matrix(seq, args.q) if args.certificate else None
    record = {"input": {"seq": seq.to_bits()}, "q": args.q, "value": value}
    lines = [f"seq: {seq.to_bits()}", f"q: {args.q}", f"formula: {value}"]
    lines.append(f"z_classical: {threshold.zq_formula(seq, seq.s)}")
    if args.verify:
        game = _values(args, g, [args.q])[args.q]
        verdict = "PASS" if game == value else "FAIL"
        record.update({"game": game, "verify": verdict})
        lines += [f"game: {game}", f"verify: {verdict}"]
    if m is not None:
        record["certificate"] = [list(map(float, row)) for row in m]
        inert = spectral.inertia(m)
        record["inertia"] = inert.as_tuple()
        lines.append(f"certificate inertia (neg, zero, pos): {inert.as_tuple()}")
        lines += _matrix_lines(m)
    _emit(args, record, lines)
    return 0


def _matrix_lines(m) -> list[str]:
    return [" ".join(f"{x:.6g}" for x in row) for row in m]


def _cmd_contract(args) -> int:
    g, source = _read_graph(args)
    vertices = parse_ints([t for t in args.coloured.split(",") if t != ""], "bad --coloured list:")
    if vertices and min(vertices) < 0:
        raise ValueError(f"coloured vertex {min(vertices)} is not in the graph (n={g.n})")
    coloured = mask_of(vertices)
    cb = bipartite_contraction(g, coloured)
    matching = max_matching(cb)
    record = {
        "input": source,
        "coloured": vertices_of(coloured),
        "coloured_nodes": [vertices_of(c) for c in cb.coloured_nodes],
        "uncoloured_nodes": [vertices_of(c) for c in cb.uncoloured_nodes],
        "multiplicity": [list(row) for row in cb.multiplicity],
        "max_matching": matching,
    }
    lines = [
        f"coloured nodes: {[vertices_of(c) for c in cb.coloured_nodes]}",
        f"uncoloured nodes: {[vertices_of(c) for c in cb.uncoloured_nodes]}",
        "multiplicities:",
    ]
    lines += ["  " + " ".join(map(str, row)) for row in cb.multiplicity]
    lines.append(f"max matching: {matching}")
    _emit(args, record, lines)
    return 0


def _cmd_certify(args) -> int:
    name = args.name
    # name -> the options its certificate reads; --matrix and --format apply to all
    reads = {"book": ("n",), "kneser2": ("n",), "bipartite_prism": ("n", "m"),
             "threshold": ("seq", "q"), "srg": ("graph6", "edges_file", "seq", "theta", "tau", "psd")}
    # name -> (certificate, generator), both taking the options the name reads
    named = {
        "book": (spectral.book_certificate, families.book),
        "kneser2": (spectral.kneser_certificate, families.kneser2),
        "bipartite_prism": (spectral.bipartite_prism_certificate, families.bipartite_prism),
    }
    if name == "threshold" and (not args.seq or args.q is None):
        raise ValueError("threshold certificate needs --seq and --q")
    if name == "srg":
        g, _ = _read_graph(args)
        if args.theta is None or args.tau is None:
            raise ValueError("srg certificate needs --theta and --tau")
    _check_options(args, f"{name} certificate", reads[name] if name in named else (), reads[name],
                   ("n", "m", "seq", "q", "theta", "tau", "psd", "graph6", "edges_file"))
    if name in named:
        certificate, generator = named[name]
        params = [getattr(args, opt) for opt in reads[name]]
        m, g, q = certificate(*params), generator(*params), 1
    elif name == "threshold":
        seq = threshold.parse_creation_sequence(args.seq)
        g = threshold.build_threshold_graph(seq)  # refuses n > 64 before the n x n fill
        m, q = threshold.certificate_matrix(seq, args.q), args.q
    else:  # srg, the last of the parser's choices
        psd, m = spectral.srg_certificate(g, args.theta, args.tau)
        m, q = (psd, 0) if args.psd else (m, 1)
    inert = spectral.inertia(m)
    ok = spectral.in_Sq(m, g, q)
    record = {
        "input": {"certificate": name},
        "q": q,
        "value": inert.n_zero,
        "inertia": inert.as_tuple(),
        "edge_support_ok": ok,
    }
    lines = [
        f"certificate: {name}",
        f"inertia (neg, zero, pos): {inert.as_tuple()}",
        f"nullity: {inert.n_zero}",
        f"edge support + q negative eigenvalues: {'OK' if ok else 'MISMATCH'}",
    ]
    if args.matrix:
        record["matrix"] = [list(map(float, row)) for row in m]
        lines += _matrix_lines(m)
    _emit(args, record, lines)
    if args.matrix and args.format == "csv":
        for row in m:
            print(",".join(f"{x:.12g}" for x in row))
    return 0


def _cmd_family(args) -> int:
    reads = ("n", "m")[: families._FAMILIES[args.name][0]]
    _check_options(args, f"{args.name} family", reads, reads, ("n", "m"))
    spec = families.FamilySpec(args.name, tuple(getattr(args, opt) for opt in reads))
    g = families.generate(spec)
    record: dict = {"input": {"family": spec.label(), "n_vertices": g.n}}
    lines = [f"family: {spec.label()}", f"vertices: {g.n}", f"edges: {g.num_edges()}"]
    if args.q is None and args.chain is None and not args.z:
        record["graph6"] = to_graph6(g)
        lines.append(f"graph6: {record['graph6']}")
        levels = []
    else:
        levels = _answer(args, g, record, lines, lambda value: [f"Z_{args.q}: {value}"])
    anchors = [kv.anchor for q in levels for kv in [families.lookup(spec, q)] if kv]
    if anchors:
        uniq = sorted(set(anchors))
        record["anchors"] = uniq
        lines += [f"known: {a}" for a in uniq]
    _emit(args, record, lines)
    return 0


def _cmd_reproduce(args) -> int:
    rows = families.reproduce_report(args.max_n, jobs=args.jobs)
    print(families.render_report(rows, args.format), end="")
    return 0


def _cmd_probe(args) -> int:
    takes = {"kneser_structure": ("n", "sample", "seed"), "kneser_z0": ("n",)}
    wanted = takes.get(args.name, ("n", "m"))
    needs = [opt for opt in wanted if opt in ("n", "m")]
    _check_options(args, f"{args.name} probe", needs, wanted, ("n", "m", "sample", "seed"))
    if args.name == "kneser_structure":
        rep = families.kneser_structure_check(args.n, sample=args.sample, seed=args.seed or 0)
        record = {
            "input": {"probe": "kneser_structure", "n": rep.n},
            "mode": rep.mode,
            "subsets_checked": rep.subsets_checked,
            "violations": list(rep.violations),
        }
        lines = [f"kneser structure n={rep.n}: {rep.mode}, {rep.subsets_checked} subsets, "
                 f"{len(rep.violations)} violations"] + ["  " + v for v in rep.violations]
    else:
        rep = families.probe_conjecture(args.name, tuple(getattr(args, opt) for opt in wanted))
        record = {"input": {"probe": rep.name, "params": list(rep.params)},
                  "lines": [asdict(ln) for ln in rep.lines]}
        lines = rep.render().splitlines()
    _emit(args, record, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zqforce",
        description="Exact zero forcing, PSD zero forcing, and oracle-game Z_q solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_inputs(p):
        p.add_argument("--graph6", help="graph6 string, or '-' to read one line from stdin")
        p.add_argument("--edges-file", help="edge list file ('n m' header), or '-' for stdin")
        p.add_argument("--seq", help="threshold creation sequence (raw 0/1 or run-length)")

    def add_levels(p):
        levels = p.add_mutually_exclusive_group()
        levels.add_argument("--q", type=int)
        levels.add_argument("--chain", type=int, metavar="Q_MAX")
        levels.add_argument("--z", action="store_true", help="classical zero forcing number only")

    def add_format(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    def add_force(p):
        p.add_argument("--force", action="store_true",
                       help=f"run a game traversal on more than {families.GAME_MAX_N} vertices")

    p = sub.add_parser("compute", help="exact Z_q / chain for a graph")
    add_graph_inputs(p)
    add_levels(p)
    p.add_argument("--trace", action="store_true", help="print the move strategy")
    add_force(p)
    add_format(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("threshold", help="closed-form Z_q of a creation sequence")
    p.add_argument("--seq", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check with the game solver")
    p.add_argument("--certificate", action="store_true", help="print the nullity certificate")
    add_force(p)
    add_format(p)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("contract", help="bipartite contraction and max matching")
    add_graph_inputs(p)
    p.add_argument("--coloured", required=True, help="comma-separated coloured vertices")
    add_format(p)
    p.set_defaults(func=_cmd_contract)

    p = sub.add_parser("certify", help="matrix certificates for named families")
    p.add_argument("--name", required=True,
                   choices=("book", "kneser2", "bipartite_prism", "threshold", "srg"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--seq")
    p.add_argument("--q", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--tau", type=float)
    # None when absent, as every option that _cmd_certify checks for
    p.add_argument("--psd", action="store_true", default=None,
                   help="emit the PSD half of the srg pair")
    p.add_argument("--matrix", action="store_true", help="print matrix entries")
    p.add_argument("--graph6")
    p.add_argument("--edges-file")
    add_format(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("family", help="generate a named family and solve it")
    p.add_argument("--name", required=True, choices=sorted(families._FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    add_levels(p)
    add_force(p)
    add_format(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("reproduce", help="solve the registry and report PASS/FAIL")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    add_format(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("probe", help="conjecture probes and structure checks")
    p.add_argument("--name", required=True,
                   choices=("bipartite_prism", "multipartite", "kneser_z0", "kneser_structure"))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sample", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_probe)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # output that fit the pipe's buffer meets a closed reader here
    except BrokenPipeError:
        # The reader closed stdout (``| head``): stop quietly, with the status
        # a shell gives a process that SIGPIPE ends, and point stdout at
        # /dev/null so the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
