"""Threshold graphs: creation sequences, closed-form Z_q, and nullity certificates.

A connected threshold graph is encoded by a 0/1 creation sequence
``(0^(k_1), 1^(t_1), ..., 0^(k_s), 1^(t_s))``: each 0 adds an isolated
vertex, each 1 a dominating vertex. With trace ``T = sum(t_j)`` and
``a_j = max(k_j - 2, 0)``, the game value and the maximum nullity over
matrices with exactly q negative eigenvalues coincide:

    Z_q(G) = M_q(G) = T + (sum of the q largest a_j),   0 <= q <= s,

and at q = s this equals the classical Z(G) = n - 2T + s_1 + 2 s_0 = n - s - p.
:func:`certificate_matrix` builds an explicit symmetric integer matrix
witnessing the lower bound at every 0 <= q <= s: supported exactly on the
edges, exactly q negative eigenvalues, nullity equal to the formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, MAX_VERTICES, build_graph


@dataclass(frozen=True)
class CreationSequence:
    """Run-length encoded creation sequence; starts with 0, ends with 1."""

    runs: tuple[tuple[int, int], ...]  # (zero-run length k_j, one-run length t_j)

    def __post_init__(self):
        if not self.runs:
            raise ValueError("creation sequence has no runs")
        if any(k < 1 or t < 1 for k, t in self.runs):
            raise ValueError("run lengths must be positive")

    @property
    def s(self) -> int:
        return len(self.runs)

    @property
    def n(self) -> int:
        return sum(k + t for k, t in self.runs)

    @property
    def trace(self) -> int:
        return sum(t for _, t in self.runs)

    def to_bits(self) -> str:
        return "".join("0" * k + "1" * t for k, t in self.runs)

    @staticmethod
    def from_bits(bits: str) -> "CreationSequence":
        if not bits:
            raise ValueError("empty creation sequence")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"illegal character in creation sequence {bits!r}")
        if bits[0] != "0":
            raise ValueError("creation sequence must start with 0")
        if bits[-1] != "1":
            raise ValueError("creation sequence must end with 1 (connected)")
        runs = re.findall("(0+)(1+)", bits)
        return CreationSequence(tuple((len(zeros), len(ones)) for zeros, ones in runs))


def parse_creation_sequence(text: str) -> CreationSequence:
    """Parse either a raw 0/1 string or run-length form like ``0^3 1^2 0 1``."""
    text = text.strip()
    if not text:
        raise ValueError("empty creation sequence")
    if " " in text or "^" in text:
        bits = []
        for token in text.split():
            ch, caret, count = token.partition("^")
            try:
                reps = int(count) if caret else 1
            except ValueError:
                reps = 0  # not a count: refused below with the token
            if ch not in ("0", "1") or reps < 1:
                raise ValueError(f"bad run token {token!r}")
            bits.append(ch * reps)
        return CreationSequence.from_bits("".join(bits))
    return CreationSequence.from_bits(text)


def build_threshold_graph(seq: CreationSequence) -> Graph:
    """Vertex i is the i-th sequence entry; a 1 connects to all earlier vertices."""
    bits = seq.to_bits()
    n = len(bits)
    if n > MAX_VERTICES:
        raise ValueError(f"threshold graph on {n} > {MAX_VERTICES} vertices")
    edges = [(i, j) for j, bj in enumerate(bits) if bj == "1" for i in range(j)]
    return build_graph(n, edges)


@dataclass(frozen=True)
class ThresholdStats:
    trace: int  # number of ones
    a: tuple[int, ...]  # max(k_j - 2, 0) per run
    p: int  # runs with k_j >= 2
    s0: int  # "11" patterns
    s1: int  # leading "01" plus "101" patterns


def stats(seq: CreationSequence) -> ThresholdStats:
    bits = seq.to_bits()
    s0 = sum(1 for i in range(len(bits) - 1) if bits[i] == bits[i + 1] == "1")
    s1 = (1 if bits[:2] == "01" else 0) + sum(
        1 for i in range(len(bits) - 2) if bits[i : i + 3] == "101"
    )
    return ThresholdStats(
        trace=seq.trace,
        a=tuple(max(k - 2, 0) for k, _ in seq.runs),
        p=sum(1 for k, _ in seq.runs if k >= 2),
        s0=s0,
        s1=s1,
    )


def zq_formula(seq: CreationSequence, q: int) -> int:
    """T plus the sum of the q largest a_j; q past s clamps to the q = s value."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    st = stats(seq)
    take = min(q, seq.s)
    return st.trace + sum(sorted(st.a, reverse=True)[:take])


def z_classical(seq: CreationSequence) -> int:
    """Z(G) by the pattern-count formula and by n - s - p; checks they agree."""
    st = stats(seq)
    n = seq.n
    by_patterns = n - 2 * st.trace + st.s1 + 2 * st.s0
    by_runs = n - seq.s - st.p
    if by_patterns != by_runs:
        raise AssertionError(
            f"formula mismatch on {seq.to_bits()}: {by_patterns} != {by_runs}"
        )
    return by_patterns


def iter_creation_sequences(n: int):
    """All connected threshold creation sequences on exactly n vertices."""
    if n < 2:
        return
    for middle in range(1 << max(0, n - 2)):
        inner = format(middle, f"0{n - 2}b") if n > 2 else ""
        yield CreationSequence.from_bits("0" + inner + "1")


# ---------------------------------------------------------------------------
# Certificate matrices
# ---------------------------------------------------------------------------


def certificate_matrix(seq: CreationSequence, q: int) -> np.ndarray:
    """Symmetric integer matrix on the threshold graph with exactly q
    negative eigenvalues and nullity ``zq_formula(seq, q)``, for 0 <= q <= s.

    q = 0 gives the clique-cover Gram matrix :func:`_psd_certificate`. Above
    that, one recursion peels the sequence's tail, one peeling step at a
    time, down to the star base ``(0^k, 1)`` or to q = 0. Rows/columns follow
    the creation order, so the last vertex is always universal and always
    carries a nonzero diagonal entry.
    """
    if not 0 <= q <= seq.s:
        raise ValueError(f"q must be in 0..{seq.s}, got {q}")
    return _certificate(seq.runs, q)


def _certificate(runs: tuple[tuple[int, int], ...], q: int) -> np.ndarray:
    s = len(runs)
    if q == 0:
        return _psd_certificate(runs)
    k1, t1 = runs[0]
    if s == 1 and t1 == 1:
        return _star_base(k1)
    ks, ts = runs[-1]
    if ts >= 2:
        child = runs[:-1] + ((ks, ts - 1),)
        return _duplicate_universal(_certificate(child, q))
    # last one-run is a single 1; decide whether a_s must be in the sum
    a = [max(k - 2, 0) for k, _ in runs]
    with_last = _sum_largest(a[:-1], q - 1) + a[-1]
    if q <= s - 1 and _sum_largest(a[:-1], q) >= with_last:
        return _border_zero_run(_certificate(runs[:-1], q), ks)
    child = _certificate(runs[:-1], q - 1)
    if ks >= 2:
        return _append_null_block(child, ks)
    return _bridge_single_zero(child)


def _sum_largest(values, m: int) -> int:
    return sum(sorted(values, reverse=True)[:m])


def _psd_certificate(runs) -> np.ndarray:
    """Clique-cover Gram matrix: PSD, edge support, nullity = trace.

    Each isolated vertex together with all later dominating vertices is a
    clique; these cliques cover every edge, one per isolated vertex, and the
    indicator vectors are independent, so the rank is the number of zeros.
    """
    bits = "".join("0" * k + "1" * t for k, t in runs)
    n = len(bits)
    a = np.zeros((n, n))
    for u, ch in enumerate(bits):
        if ch == "0":
            x = np.zeros(n)
            x[u] = 1.0
            for d in range(u + 1, n):
                if bits[d] == "1":
                    x[d] = 1.0
            a += np.outer(x, x)
    return a


def _star_base(k1: int) -> np.ndarray:
    # (0^(k1), 1): a star whose centre is the last vertex
    n = k1 + 1
    if k1 == 1:
        return np.array([[-1.0, 1.0], [1.0, -1.0]])
    a = np.zeros((n, n))
    a[n - 1, n - 1] = n - 2
    a[: n - 1, n - 1] = 1.0
    a[n - 1, : n - 1] = 1.0
    return a


def _duplicate_universal(b: np.ndarray) -> np.ndarray:
    """Append a dominating vertex by duplicating the universal row/column.

    The rank is unchanged, so the nullity grows by one while the negative
    count is preserved (the new matrix is congruent to the old one padded
    with a zero row).
    """
    nh = b.shape[0]
    out = np.zeros((nh + 1, nh + 1))
    out[:nh, :nh] = b
    out[nh, :nh] = b[nh - 1, :nh]
    out[:nh, nh] = b[nh - 1, :nh]
    out[nh, nh] = b[nh - 1, nh - 1]
    return out


def _border_zero_run(b: np.ndarray, ks: int) -> np.ndarray:
    """Append ks isolated vertices plus a dominating vertex, carrying the
    negative count unchanged.

    The isolated block gets a positive diagonal ``a``; the dominating row
    repeats the old universal row and closes with ``c = b_k + ks*a`` so the
    new row is the sum of the old universal row and the isolated rows,
    adding exactly ks to the rank.
    """
    nh = b.shape[0]
    bk = b[nh - 1, nh - 1]
    shift = 1.0 if bk + ks != 0 else 2.0
    c = bk + ks * shift
    n = nh + ks + 1
    out = np.zeros((n, n))
    out[:nh, :nh] = b
    for j in range(nh, nh + ks):
        out[j, j] = shift
        out[j, n - 1] = shift
        out[n - 1, j] = shift
    out[n - 1, :nh] = b[nh - 1, :nh]
    out[:nh, n - 1] = b[nh - 1, :nh]
    out[n - 1, n - 1] = c
    return out


def _append_null_block(b1: np.ndarray, ks: int) -> np.ndarray:
    """Append ks isolated vertices (zero diagonal) plus a dominating vertex,
    raising the negative count by one.

    The two new independent rows add exactly 2 to the rank, so the nullity
    grows by ks - 1; interlacing against the block-diagonal minor pins the
    extra nonzero eigenvalue to be negative.
    """
    nh = b1.shape[0]
    n = nh + ks + 1
    out = np.zeros((n, n))
    out[:nh, :nh] = b1
    out[nh:, n - 1] = 1.0
    out[n - 1, nh:] = 1.0
    out[:nh, n - 1] = 1.0
    out[n - 1, :nh] = 1.0
    out[n - 1, n - 1] = 1.0
    return out


def _bridge_single_zero(b1: np.ndarray) -> np.ndarray:
    """Append one isolated vertex plus a dominating vertex, raising the
    negative count by one and the nullity by one.

    Unlike :func:`_append_null_block` (which gains nothing at ks = 1), the
    dominating row is a multiple of the old universal column, which makes
    the matrix congruent to diag(B1, [[-1, 1], [1, -1]]): one new negative,
    one new null vector.
    """
    nh = b1.shape[0]
    bk = b1[nh - 1, nh - 1]
    for t in (1.0, 2.0, 3.0):
        c = t * t * bk - 1.0
        if c != 0.0:
            break
    n = nh + 2
    out = np.zeros((n, n))
    out[:nh, :nh] = b1
    out[nh, nh] = -1.0
    out[nh, n - 1] = 1.0
    out[n - 1, nh] = 1.0
    out[n - 1, :nh] = t * b1[:, nh - 1]
    out[:nh, n - 1] = t * b1[:, nh - 1]
    out[n - 1, n - 1] = c
    return out
