#!/usr/bin/env python3
"""Self-test of the benchmark's checkers: each must accept a right answer and
reject a deliberately wrong one.

    python3 bench/selftest.py

Wrong answers tried: a value off by one (closed forms, chain bounds, the
threshold formula, report rows, CLI output), a certificate with one edge
entry zeroed (exact integer check and closed-form-spectrum check), and a
strategy with one move removed (exhaustive replay). Exits 1 if any checker
lets a wrong answer through or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checkers as C  # noqa: E402
import workloads as W  # noqa: E402
from zqforce import families, game, graphs  # noqa: E402

failures: list[str] = []


def expect(label: str, errors: list[str], wrong: bool) -> None:
    ok = bool(errors) == wrong
    verdict = "rejects" if errors else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: checker {verdict}"
          + (f" ({errors[0][:90]})" if errors else ""))
    if not ok:
        failures.append(label)


def exact_inertia_matches_numpy() -> None:
    import numpy as np

    rng = random.Random(7)
    bad = 0
    for _ in range(200):
        n, rank = rng.randint(1, 8), rng.randint(0, 8)
        x = np.array([[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)], dtype=float)
        d = np.diag([rng.choice([-3, -1, 1, 2]) for _ in range(rank)]).astype(float)
        m = x @ d @ x.T if rank else np.zeros((n, n))
        if rng.random() < 0.3:
            m -= np.diag(np.diag(m))  # zero diagonal forces the 2x2 congruence step
        e = np.linalg.eigvalsh(m)
        thr = 1e-9 * max(1.0, float(abs(e).max()))
        ref = (int((e < -thr).sum()), int((abs(e) <= thr).sum()), int((e > thr).sum()))
        bad += C.exact_inertia(C.integer_rows(m)) != ref
    expect("exact inertia agrees with LAPACK on 200 random integer matrices",
           [f"{bad} mismatches"] if bad else [], wrong=False)


def headline() -> None:
    wl = W.Headline()
    inputs = wl.build(0)
    pet = game.zq_number(inputs[0]["petersen", ()], 1, build_strategy=True)
    right = {
        "zq:bipartite_prism-4-5.q1": 9, "zq:complete_multipartite-4-4.q1": 14,
        "zq:kneser2-6.q1": 10, "zq:book-8.q1": 8, "zq:prism-8.q1": 4, "zq:kneser2-6.q0": 9,
    }
    outputs = {k: game.ZqResult(v, None, game.CacheStats(0, 0)) for k, v in right.items()}
    outputs["zq:petersen.q1"] = pet
    expect("headline: right values", wl.check(inputs, outputs), wrong=False)
    for key, delta in (("zq:kneser2-6.q1", 1), ("zq:complete_multipartite-4-4.q1", 1),
                       ("zq:kneser2-6.q0", -1), ("zq:bipartite_prism-4-5.q1", 1)):
        bad = dict(outputs)
        bad[key] = dataclasses.replace(bad[key], value=bad[key].value + delta)
        expect(f"headline: {key} off by {delta}", wl.check(inputs, bad), wrong=True)

    wl = W.Search()
    inputs = wl.build(0)
    outputs = {"z:kneser2(7)": 15, "z:complete_multipartite(4,4)": 14,
               "z0:kneser2(6)": 9, "z0:bipartite_prism(4,5)": 8}
    expect("search: right values", wl.check(inputs, outputs), wrong=False)
    for key, delta in (("z:kneser2(7)", -1), ("z:complete_multipartite(4,4)", 1), ("z0:kneser2(6)", 1),
                       ("z0:bipartite_prism(4,5)", 2)):
        bad = {**outputs, key: outputs[key] + delta}
        expect(f"search: {key} off by {delta}", wl.check(inputs, bad), wrong=True)

    adj = C.adjacency(*C.petersen_edges())
    expect("petersen strategy: as solved", C.replay_errors(adj, pet.strategy, 1, pet.value), wrong=False)
    moves = pet.strategy
    for i in range(len(moves)):
        cut = moves[:i] + moves[i + 1:]
        expect(f"petersen strategy: move {i} removed", C.replay_errors(adj, cut, 1, pet.value), wrong=True)
    expect("petersen strategy: value off by one", C.replay_errors(adj, pet.strategy, 1, pet.value - 1),
           wrong=True)

    # Relabelled so that the oracle offers {5,7,9} and {6}: the program keys a
    # response by component order (minimum vertex first, 672 before 64), not by
    # mask value, and the replay must accept either order.
    perm = [2, 6, 0, 1, 5, 4, 3, 9, 8, 7]
    n, edges = C.petersen_edges()
    edges = [(perm[i], perm[j]) for i, j in edges]
    relabelled = game.zq_number(graphs.build_graph(n, edges), 1, build_strategy=True)
    keys = [k for m in relabelled.strategy if hasattr(m, "responses") for k in m.responses]
    expect("relabelled petersen strategy: a response key out of mask order",
           [] if any(list(k) != sorted(k) for k in keys) else ["all keys sorted"], wrong=False)
    expect("relabelled petersen strategy: as solved",
           C.replay_errors(C.adjacency(n, edges), relabelled.strategy, 1, relabelled.value), wrong=False)


def reproduce() -> None:
    wl = W.Reproduce()
    rows = families.reproduce_report(3)
    expect("reproduce(max_n=3): report as computed", wl.check(3, {"report": rows}), wrong=False)
    i = next(i for i, r in enumerate(rows) if r.status == "PASS")
    # the wrong value is made consistent with its row, so only the closed form can catch it
    bad = list(rows)
    v = rows[i].computed + 1
    bad[i] = dataclasses.replace(rows[i], computed=v, expected=(v,))
    expect(f"reproduce: {rows[i].family} q={rows[i].q} off by one", wl.check(3, {"report": bad}), wrong=True)
    j = next(i for i, r in enumerate(rows) if r.status == "AGREE")
    bad = list(rows)
    v = rows[j].computed + 5
    bad[j] = dataclasses.replace(rows[j], computed=v, expected=(v,))
    expect(f"reproduce: conjecture row {rows[j].family} q={rows[j].q} above the chain",
           wl.check(3, {"report": bad}), wrong=True)


def certify() -> None:
    wl = W.Certify()
    inputs = wl.build(3)
    outputs = {op.key: op.fn() for op in wl.ops(inputs)}
    expect("certify: one round as computed", wl.check(inputs, outputs), wrong=False)

    def zero_edge(m):
        m = m.copy()
        n = m.shape[0]
        i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if m[i, j] != 0)
        m[i, j] = m[j, i] = 0.0
        return m

    thr = next(k for k in outputs if k.startswith("thr:"))
    m, inertia, ok, formula = outputs[thr]
    expect(f"certify: {thr} formula off by one",
           wl.check(inputs, {thr: (m, inertia, ok, formula + 1)}), wrong=True)
    expect(f"certify: {thr} with one edge entry zeroed",
           wl.check(inputs, {thr: (zero_edge(m), inertia, ok, formula)}), wrong=True)
    for key in ("book:5", "kneser2:6", "bprism:2,2"):
        key = key if key in outputs else next(k for k in outputs if k.startswith(key.split(":")[0]))
        m, inertia, ok = outputs[key]
        expect(f"certify: {key} with one edge entry zeroed",
               wl.check(inputs, {key: (zero_edge(m), inertia, ok)}), wrong=True)
        expect(f"certify: {key} nullity off by one",
               wl.check(inputs, {key: (m, (inertia[0], inertia[1] + 1, inertia[2] - 1), ok)}), wrong=True)
    small = "small:00010001"
    results, z, z0, mats = outputs[small]
    one = results[1]
    bad = (results[0], dataclasses.replace(one, value=one.value + 1), *results[2:])
    expect(f"certify: {small} game Z_1 off by one", wl.check(inputs, {small: (bad, z, z0, mats)}), wrong=True)
    expect(f"certify: {small} Z off by one", wl.check(inputs, {small: (results, z - 1, z0, mats)}), wrong=True)

    # The q=1 strategy ends with an oracle move; drop a move on each branch in turn.
    adj = C.adjacency(*C.threshold_edges("00010001"))
    moves = one.strategy
    expect("threshold 00010001 q=1 strategy: as solved", C.replay_errors(adj, moves, 1, one.value), wrong=False)
    for i in range(len(moves)):
        cut = moves[:i] + moves[i + 1:]
        expect(f"threshold 00010001 q=1 strategy: move {i} removed",
               C.replay_errors(adj, cut, 1, one.value), wrong=True)
    last = moves[-1]
    for key, cont in last.responses.items():
        if cont:
            resp = {**last.responses, key: cont[1:]}
            cut = moves[:-1] + (dataclasses.replace(last, responses=resp),)
            expect(f"threshold 00010001 q=1 strategy: move removed after oracle response {key}",
                   C.replay_errors(adj, cut, 1, one.value), wrong=True)
    resp = {k: v for k, v in last.responses.items() if k != next(iter(last.responses))}
    cut = moves[:-1] + (dataclasses.replace(last, responses=resp),)
    expect("threshold 00010001 q=1 strategy: one oracle response left unanswered",
           C.replay_errors(adj, cut, 1, one.value), wrong=True)


def cli() -> None:
    wl = W.Cli()
    inputs = wl.build(5)
    outputs = {op.key: op.fn() for op in wl.traced_ops(inputs)}
    expect("cli: in-process outputs as computed", wl.check(inputs, outputs), wrong=False)
    for key, field in (("compute", "value"), ("certify", "value"), ("contract", "max_matching")):
        rec = json.loads(outputs[key])
        rec[field] += 1
        bad = dict(outputs)
        bad[key] = json.dumps(rec)
        expect(f"cli: {key} {field} off by one", wl.check(inputs, bad), wrong=True)


def closed_forms() -> None:
    cases = [("complete_prism", (4,), 2, 4), ("ladder", (5,), 1, 2), ("prism", (6,), 3, 4),
             ("book", (4,), 0, 2), ("book", (4,), 1, 4), ("complete_bipartite", (2, 3), 0, 2),
             ("complete_bipartite", (3, 4), 1, 5), ("petersen", (), 0, 4), ("petersen", (), None, 5),
             ("kneser2", (6,), 1, 10), ("kneser2", (7,), None, 15), ("bipartite_prism", (2, 3), 1, 5)]
    for family, params, q, v in cases:
        ok = C.closed_form(family, params, q)
        label = f"closed form {family}{params} q={q}"
        expect(f"{label} = {v}", [] if v in ok else ["rejected"], wrong=False)
        wrong = max(ok) + 1
        expect(f"{label} = {wrong}", [] if wrong in ok else ["rejected"], wrong=True)
    expect("chain Z_0 <= Z_1 <= Z", C.chain_errors({0: 4, 1: 5, None: 5}), wrong=False)
    expect("chain with Z_1 > Z", C.chain_errors({0: 4, 1: 6, None: 5}), wrong=True)
    for family, params, values, wrong in (
            ("complete_multipartite", (4, 4), {1: 12}, False), ("complete_multipartite", (4, 4), {1: 11}, True),
            ("complete_multipartite", (4, 4), {1: 15}, True), ("bipartite_prism", (4, 5), {0: 9}, False),
            ("bipartite_prism", (4, 5), {0: 10}, True)):
        expect(f"closed-form chain {family}{params} {values}", C.closed_chain_errors(family, params, values),
               wrong=wrong)


def main() -> int:
    exact_inertia_matches_numpy()
    closed_forms()
    headline()
    reproduce()
    certify()
    cli()
    print(f"{len(failures)} checker self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
