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
edges, exactly q negative eigenvalues, nullity equal to the formula. One
recursion builds every q, one bordering step per peeled run; at q = 0 every
step is the diagonal-1 bordering, which is the clique-cover Gram matrix.
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
    return st.trace + _sum_largest(st.a, q)


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

    One recursion builds every q: it peels the sequence's tail down to the
    star base ``(0^k, 1)``, and each step re-adds the peeled vertices with
    one :func:`_border`. At q = 0 every step is the diagonal-1 bordering, which
    builds the clique-cover Gram matrix. Rows/columns follow the creation
    order, so the last vertex is always universal and always carries a
    nonzero diagonal entry.
    """
    if not 0 <= q <= seq.s:
        raise ValueError(f"q must be in 0..{seq.s}, got {q}")
    return _certificate(seq.runs, q)


def _certificate(runs: tuple[tuple[int, int], ...], q: int) -> np.ndarray:
    s = len(runs)
    k1, t1 = runs[0]
    if s == 1 and t1 == 1:
        # the star with its centre last: at q = 0 the Gram matrix of its k1
        # edges (PSD, rank k1); at k1 = 1, [[-1, 1], [1, -1]] (eigenvalues -2,
        # 0); else rank 2, and the minor [[0, 1], [1, c]] has one negative
        if q == 0:
            return _border(_EMPTY, k1, 1.0, 1.0, (), k1)
        if k1 == 1:
            return _border(_EMPTY, 1, -1.0, 1.0, (), -1.0)
        return _border(_EMPTY, k1, 0.0, 1.0, (), k1 - 1)
    ks, ts = runs[-1]
    if ts >= 2:
        # a copy of the universal row and column leaves the rank unchanged:
        # negatives kept, nullity + 1
        b = _certificate(runs[:-1] + ((ks, ts - 1),), q)
        return _border(b, 0, 0.0, 0.0, b[-1], b[-1, -1])
    # the last one-run is a single 1; decide whether a_s must be in the sum
    a = [max(k - 2, 0) for k, _ in runs]
    if q == 0 or (
        q < s and _sum_largest(a[:-1], q) >= _sum_largest(a[:-1], q - 1) + a[-1]
    ):
        # the new row minus the isolated rows is the old universal row, so
        # this is congruent to b with that row copied, plus d*I_ks: negatives
        # kept, nullity + 1; d = 2 only keeps the corner nonzero
        b = _certificate(runs[:-1], q)
        d = 1.0 if b[-1, -1] + ks != 0 else 2.0
        return _border(b, ks, d, d, b[-1], b[-1, -1] + ks * d)
    b = _certificate(runs[:-1], q - 1)
    if ks >= 2:
        # congruent to b + [[0, 1], [1, 1]] + 0_(ks-1): one more negative,
        # nullity + ks - 1
        return _border(b, ks, 0.0, 1.0, 1.0, 1.0)
    # on the old vertices the new row is t times the old universal row, so
    # this is congruent to b + [[-1, 1], [1, -1]]: one more negative,
    # nullity + 1; t only keeps the corner nonzero
    bk = b[-1, -1]
    t = next(t for t in (1.0, 2.0, 3.0) if t * t * bk - 1.0 != 0.0)
    return _border(b, 1, -1.0, 1.0, t * b[-1], t * t * bk - 1.0)


_EMPTY = np.zeros((0, 0))


def _border(b: np.ndarray, ks: int, diagonal, border, row, corner) -> np.ndarray:
    """Append ks isolated vertices and then one dominating vertex to ``b``.

    Each isolated vertex gets ``diagonal`` and the entry ``border`` to the
    dominating vertex, which gets ``row`` to the old vertices and ``corner``
    on its diagonal.
    """
    nh = b.shape[0]
    n = nh + ks + 1
    out = np.zeros((n, n))
    out[:nh, :nh] = b
    out.ravel()[nh * (n + 1) : (n - 1) * (n + 1) : n + 1] = diagonal  # (j, j), nh <= j < n - 1
    last = out[n - 1]  # written as a row, then mirrored into the last column
    last[:nh] = row
    last[nh:] = border
    last[n - 1] = corner
    out[:, n - 1] = last
    return out


def _sum_largest(values, m: int) -> int:
    return sum(sorted(values, reverse=True)[:m])
