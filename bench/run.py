#!/usr/bin/env python3
"""zqforce benchmark: one workload, timed for a fixed length, outputs checked.

Run from the repository root, with no install step:

    python3 bench/run.py --workload headline --seed 1 --seconds 10 --trace 0

Workloads: headline, search, reproduce, certify, cli (see bench/README.md). Each run
repeats whole rounds of the workload's operations, one after another in this
process (or, for cli, one child process at a time), until ``--seconds`` have
passed. The outputs of the first round are checked against ``checkers``;
every later round must reproduce them exactly.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
rounds untraced and then traced, checks that both give the same outputs, and
reports the per-layer metrics with the tracing overhead. Human-readable lines
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7  # fresh interpreters per set-up measurement
CAL_EVERY = 0.25  # seconds between in-process calibration samples
CAL_EVERY_CHILD = 0.5  # seconds between child-process calibration samples
PROBE_REPEATS = 5  # fresh interpreters per cli.interpreter_ms / cli.import_ms


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up (import zqforce, build inputs) and exit")
    p.add_argument("--rss-probe", action="store_true",
                   help="internal: run one round in the order seed 0 gives, print peak RSS and exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class Rounds:
    """Timings of whole rounds of operations, and the first round's outputs.

    ``times`` holds wall seconds; ``norm`` the same timings scaled to the
    calibration loop's reference speed (see calibrate.py), which the metrics
    use; ``cpu`` each round's CPU seconds, for comparison. Later rounds' outputs are not kept: each is compared with
    ``reference`` (fingerprints of the first round, or of an earlier run) as
    it arrives.
    """

    def __init__(self, reference=None):
        self.times: list[dict[str, float]] = []  # per round: op key -> seconds
        self.norm: list[dict[str, float]] = []  # per round: op key -> reference seconds
        self.cpu: list[float] = []  # per round: CPU seconds of this process or its children
        self.first: dict = {}  # op key -> output of the first round
        self.reference = reference
        self.mismatches: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def round_seconds(self, raw: bool = False) -> list[float]:
        return [sum(t.values()) for t in (self.times if raw else self.norm)]

    def op_seconds(self, raw: bool = False) -> list[float]:
        return [s for t in (self.times if raw else self.norm) for s in t.values()]

    def compare(self, workload, outputs: dict) -> None:
        if self.reference is None:
            self.reference = {k: workload.fingerprint(v) for k, v in outputs.items()}
        for key, value in outputs.items():
            if key in self.reference and workload.fingerprint(value) != self.reference[key]:
                self.mismatches.append(f"round {len(self.times)}: {key} differs from the checked output")


class _InOpSampler:
    """SIGALRM handler that takes calibration samples while an operation runs.

    An operation can last many seconds, longer than the host keeps one
    speed, so samples between operations alone would miss the drift inside
    it. The handler runs between bytecodes of the operation; the time it
    spends is subtracted from the operation's time.
    """

    def __init__(self, samples: calibrate.Samples):
        self.samples = samples
        self.spent = 0.0

    def __call__(self, signum, frame):
        self.spent += self.samples.take()

    def start(self):
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY, CAL_EVERY)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.spent


def run_rounds(workload, ops, seconds: float, in_process: bool, tracer=None, reference=None) -> Rounds:
    """Run whole rounds until ``seconds`` have passed.

    A calibration sample is taken before an operation whenever ``every``
    seconds have passed since the last one, and once at each end.
    Untraced in-process operations are also sampled while they run
    (_InOpSampler); child processes are not, so that sampling does not
    compete with them.
    """
    out = Rounds(reference)
    clock = time.perf_counter
    cpu_clock = time.process_time if in_process else children_cpu
    if in_process:
        samples = calibrate.Samples(calibrate.loop_sample, calibrate.LOOP_REFERENCE_S)
        every = CAL_EVERY
    else:
        env = workload.child_env()
        samples = calibrate.Samples(lambda: calibrate.child_sample(env, ROOT), calibrate.CHILD_REFERENCE_S)
        every = CAL_EVERY_CHILD
    # Not while tracing: a sample inside a wrapped call would count as that layer's time.
    sampler = _InOpSampler(samples) if in_process and tracer is None else None
    previous = signal.signal(signal.SIGALRM, sampler) if sampler else None
    start = clock()
    samples.take()
    placed = []  # (round, op key, start, end)
    try:
        while True:
            times, outputs, cpu = {}, {}, 0.0
            rspan = tracer.open_span("round", index=len(out.times)) if tracer else None
            for op in ops:
                if clock() - samples.at[-1] >= every:
                    samples.take()
                if tracer:
                    span = tracer.open_span(op.key, kind=op.kind)
                    ccr_before = tracer.stats["graphs.ccr_closure"][0]
                if sampler:
                    sampler.start()
                c = cpu_clock()
                t = clock()
                try:
                    result = op.fn()
                except Exception as exc:  # an operation that fails is counted, not fatal
                    result, error = None, exc
                else:
                    error = None
                spent = sampler.stop() if sampler else 0.0  # disarm before reading the clock
                end = clock()
                dt = end - t - spent
                dc = cpu_clock() - c - spent
                if tracer:
                    tracer.close_span(span)
                    span["ccr_calls"] = tracer.stats["graphs.ccr_closure"][0] - ccr_before
                if error is not None:
                    out.attempted += 1
                    out.failed += 1
                    out.failures.append(f"{op.key}: {type(error).__name__}: {error}")
                    continue
                out.attempted += workload.weight(result)
                times[op.key] = dt
                cpu += dc
                outputs[op.key] = result
                placed.append((len(out.times), op.key, t, end))
            if rspan is not None:
                tracer.close_span(rspan)
            if not out.times:
                out.first = outputs
            out.compare(workload, outputs)
            out.times.append(times)
            out.cpu.append(cpu)
            if clock() - start >= seconds:
                break
    finally:
        if sampler:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples.take()
    out.norm = [{} for _ in out.times]
    for r, key, t0, t1 in placed:
        out.norm[r][key] = out.times[r][key] * samples.factor(t0, t1)
    return out


# ---------------------------------------------------------------------------
# Fresh-interpreter probes
# ---------------------------------------------------------------------------


def _python(args: list[str], env=None) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=False, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[:2]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """(normalised, wall, CPU) seconds of SETUP_REPEATS set-ups, each in a
    fresh interpreter, with child-process calibration samples between them."""
    import workloads as W

    env = W.Workload.child_env()
    samples = calibrate.Samples(lambda: calibrate.child_sample(env, ROOT), calibrate.CHILD_REFERENCE_S)
    argv = [str(BENCH / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    spans = []
    for _ in range(SETUP_REPEATS):
        samples.take()
        t = time.perf_counter()
        wall, cpu = map(float, _python(argv).split()[-2:])
        spans.append((t, time.perf_counter(), wall, cpu))
    samples.take()
    return ([w * samples.factor(t0, t1) for t0, t1, w, _ in spans], [w for *_, w, _ in spans],
            [c for *_, c in spans])


def setup_probe(args) -> int:
    """Time importing zqforce and building the workload's inputs, as a
    fresh process would."""
    t, c = time.perf_counter(), time.process_time()
    import workloads

    if args.workload == "cli":
        import zqforce.cli  # noqa: F401  what every invocation imports

    workloads.WORKLOADS[args.workload].build(args.seed)
    print(time.perf_counter() - t, time.process_time() - c)
    return 0


def interpreter_ms() -> list[float]:
    out = []
    for _ in range(PROBE_REPEATS):
        t = time.perf_counter()
        _python(["-c", "pass"])
        out.append((time.perf_counter() - t) * 1e3)
    return out


def import_ms(env) -> list[float]:
    code = "import time; t = time.perf_counter(); import zqforce.cli; print(time.perf_counter() - t)"
    return [float(_python(["-c", code], env=env)) * 1e3 for _ in range(PROBE_REPEATS)]


def rss_probe(args) -> int:
    """Peak RSS of one round of the workload in a fresh process."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    for op in workload.ops(workload.build(0)):
        op.fn()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)  # KiB on Linux
    return 0


def peak_rss_mb(workload) -> float:
    """Peak RSS of the process doing the work: this one, a fresh one running
    one round in a fixed order (see Workload.rss_fixed_order), or the
    largest CLI child."""
    if workload.rss_fixed_order:
        return float(_python([str(BENCH / "run.py"), "--rss-probe", "--workload", workload.name]).split()[-1])
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return workload.max_rss_kb / 1024.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, rounds: Rounds, rss: float, setup: list[float]) -> dict:
    """Times are in seconds at the calibration loop's reference speed."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(rounds.round_seconds()), "s"),
        "peak_rss_mb": (rss, "MB"),
        "answered": (workload.answered(rounds.first), "count"),
    }


def extras(workload, ops, rounds: Rounds, setup_wall: list[float], setup_cpu: list[float]) -> dict:
    """Workload-specific figures printed alongside the metrics, and the
    metrics' wall-clock and CPU-time counterparts."""
    out = {
        "rounds": (len(rounds.times), "count"),
        "setup_s.wall": (statistics.median(setup_wall), "s"),
        "setup_s.cpu": (statistics.median(setup_cpu), "s"),
        "wall_s.wall": (statistics.median(rounds.round_seconds(raw=True)), "s"),
        "wall_s.cpu": (statistics.median(rounds.cpu), "s"),
        "latency_ms_p50": (statistics.median(rounds.op_seconds()) * 1e3, "ms"),
        "latency_ms_p50.wall": (statistics.median(rounds.op_seconds(raw=True)) * 1e3, "ms"),
    }
    kinds: dict[str, list[float]] = {}
    for times in rounds.norm:
        per: dict[str, float] = {}
        for op in ops:
            if op.key in times:
                per[op.kind] = per.get(op.kind, 0.0) + times[op.key]
        for kind, s in per.items():
            kinds.setdefault(kind, []).append(s)
    if workload.name == "headline":
        out["game.states"] = (sum(r.cache_stats.states for r in rounds.first.values()), "count")
    if workload.name == "reproduce":
        statuses: dict[str, int] = {}
        for row in rounds.first.get("report", []):
            s = row.status.split(" ")[0]
            statuses[s] = statuses.get(s, 0) + 1
        out.update({f"rows.{s}": (c, "count") for s, c in sorted(statuses.items())})
    if workload.name == "certify":
        for kind, vals in sorted(kinds.items()):
            out[f"{kind}_s"] = (statistics.median(vals), "s")
    ops = rounds.op_seconds()
    if workload.name == "cli" and len(ops) >= 100:
        out["latency_ms_p90"] = (statistics.quantiles(ops, n=10)[-1] * 1e3, "ms")
    out["operations_timed"] = (len(ops), "count")
    return out


def trace_errors(workload, tracer) -> list[str]:
    """The traced Z search on kneser2(7) must still take the numpy batch
    branch, which calls no ccr_closure: ``_search_min_forcing`` picks it by
    ``closure is ccr_closure``, so a wrapper that broke the identity would
    show as millions of closure calls here."""
    if workload.name != "search":
        return []
    spans = [s for s in tracer.spans if s["name"] == "z:kneser2(7)"]
    if not spans or any(s["ccr_calls"] for s in spans):
        return ["traced Z of kneser2(7) did not take the numpy batch path"]
    return []


def per_layer(tracer, traced: Rounds, untraced: Rounds, probes: dict) -> dict:
    import workloads as W

    n = len(traced.times)
    st = tracer.stats

    def calls(name):
        return st[name][0] / n

    def per_call(name, scale):
        return st[name][1] / st[name][0] / scale if st[name][0] else 0.0

    def total_s(name):
        return st[name][1] / 1e9 / n

    fam_spans = [s for s in tracer.spans
                 if s.get("caller") == "families" and s["name"].startswith("game.")]
    refused = [s for s in fam_spans if s.get("error") == "InfeasibleError"]
    answered = [s for s in fam_spans if "error" not in s]
    rows = len(traced.first.get("report", ()))
    hits, states = tracer.memo_hits / n, tracer.states / n
    base = statistics.median(untraced.round_seconds())
    over = statistics.median(traced.round_seconds())
    m = {
        "graphs.ccr_closure.calls": (calls("graphs.ccr_closure"), "count"),
        "graphs.ccr_closure.ns_per_call": (per_call("graphs.ccr_closure", 1), "ns"),
        "graphs.ccr_closure.self_s": (total_s("graphs.ccr_closure"), "s"),
        "graphs.uncoloured_components.calls": (calls("graphs.uncoloured_components"), "count"),
        "graphs.uncoloured_components.ns_per_call": (per_call("graphs.uncoloured_components", 1), "ns"),
        "game.states": (states, "count"),
        "game.memo_hits": (hits, "count"),
        "game.memo_hit_ratio": (hits / (hits + states) if hits + states else 0.0, "ratio"),
    }
    first = traced.first
    for family, params, q, _ in W.HEADLINE_GAMES:
        inst = W.instance_name(family, params, q)
        res = first.get(f"zq:{inst}")
        secs = [t[f"zq:{inst}"] for t in traced.times if f"zq:{inst}" in t]
        m[f"game.states.{inst}"] = (res.cache_stats.states if res else 0, "count")
        m[f"game.solve_s.{inst}"] = (statistics.median(secs) if secs else 0.0, "s")
    zq = st["game.zq_number"]
    m.update({
        "game.zq_number.self_s": ((zq[1] - zq[2]) / 1e9 / n, "s"),
        "game.psd_closure.calls": (calls("game.psd_closure"), "count"),
        "game.psd_closure.ns_per_call": (per_call("game.psd_closure", 1), "ns"),
        "game.z_number.s": (total_s("game.z_number"), "s"),
        "game.z0_number.s": (total_s("game.z0_number"), "s"),
        "families.rows": (rows, "count"),
        "families.answered_s": (sum(s["end_ns"] - s["start_ns"] for s in answered) / 1e9 / n, "s"),
        "families.refused_s": (sum(s["end_ns"] - s["start_ns"] for s in refused) / 1e9 / n, "s"),
        "threshold.certificate_matrix.calls": (calls("threshold.certificate_matrix"), "count"),
        "threshold.certificate_matrix.us_per_call": (per_call("threshold.certificate_matrix", 1e3), "us"),
        "spectral.inertia.us_per_call": (per_call("spectral.inertia", 1e3), "us"),
        "spectral.in_Sq.us_per_call": (per_call("spectral.in_Sq", 1e3), "us"),
        "contraction.bipartite_contraction.us_per_call":
            (per_call("contraction.bipartite_contraction", 1e3), "us"),
        "cli.interpreter_ms": (statistics.median(probes["interpreter_ms"]), "ms"),
        "cli.import_ms": (statistics.median(probes["import_ms"]), "ms"),
        "cli.run_ms": (probes.get("run_ms", 0.0), "ms"),
        "trace.overhead_pct": ((over - base) / base * 100.0, "%"),
    })
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def emit(correct: bool, attempted: int, failed: int, metrics: dict, info: dict, errors) -> None:
    for e in errors[:40]:
        print(f"CHECK FAILED: {e}")
    if len(errors) > 40:
        print(f"CHECK FAILED: ... {len(errors) - 40} more")
    for name, (value, unit) in info.items():
        print(f"  info  {name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {unit}")
    print(f"  attempted {attempted}  failed {failed}  correct {str(correct).lower()}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "zqforce" / "__init__.py").is_file():
        print(f"error: zqforce sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    if args.rss_probe:
        return rss_probe(args)
    import workloads as W

    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    inputs = workload.build(args.seed)
    ops = workload.ops(inputs)
    rounds = run_rounds(workload, ops, args.seconds, workload.in_process)
    rss = peak_rss_mb(workload)
    errors = [f"failure: {f}" for f in rounds.failures[:5]] + rounds.mismatches
    try:
        errors += workload.check(inputs, rounds.first)
    except Exception:  # a checker crash on unexpected output is a failed check
        errors.append("checker raised:\n" + traceback.format_exc())
    setup, setup_wall, setup_cpu = setup_seconds(args.workload, args.seed)
    attempted, failed = rounds.attempted, rounds.failed
    info = extras(workload, ops, rounds, setup_wall, setup_cpu)
    if not args.trace:
        metrics = end_to_end(workload, rounds, rss, setup)
        emit(not errors, attempted, failed, metrics, info, errors)
        return 0

    from tracing import Tracer

    env = W.Workload.child_env()
    probes = {"interpreter_ms": interpreter_ms(), "import_ms": import_ms(env)}
    traced_ops = workload.traced_ops(inputs)
    baseline = rounds
    if not workload.in_process:
        # in-process baseline for the overhead, and the cli.run_ms figure
        baseline = run_rounds(workload, traced_ops, args.seconds, True, reference=rounds.reference)
        probes["run_ms"] = statistics.median(baseline.op_seconds(raw=True)) * 1e3
        attempted += baseline.attempted
        failed += baseline.failed
    tracer = Tracer()
    with tracer.installed():
        traced = run_rounds(workload, traced_ops, args.seconds, True, tracer=tracer,
                            reference=rounds.reference)
    attempted += traced.attempted
    failed += traced.failed
    for label, other in (("in-process", baseline), ("traced", traced)):
        if other is not rounds:
            errors += [f"{label}: {e}" for e in other.mismatches]
            errors += [f"{label} failure: {f}" for f in other.failures[:5]]
    errors += trace_errors(workload, tracer)
    metrics = per_layer(tracer, traced, baseline, probes)
    tracer.write_spans(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    emit(not errors, attempted, failed, metrics, info, errors)
    return 0


if __name__ == "__main__":
    sys.exit(main())
