"""Threshold graphs: creation sequences, closed-form Z_q, and nullity certificates.

A connected threshold graph is encoded by a 0/1 creation sequence
``(0^(k_1), 1^(t_1), ..., 0^(k_s), 1^(t_s))``: each 0 adds an isolated
vertex, each 1 a dominating vertex. With trace ``T = sum(t_j)`` and
``a_j = max(k_j - 2, 0)``, the game value and the maximum nullity over
matrices with exactly q negative eigenvalues coincide:

    Z_q(G) = M_q(G) = T + (sum of the q largest a_j),   0 <= q <= s,

and at q = s this is the classical Z(G) = n - s - p, p the number of runs
with k_j >= 2: n - s - p = T + sum_j (k_j - 1 - [k_j >= 2]) and
k_j - 1 - [k_j >= 2] = max(k_j - 2, 0) = a_j. So Z needs no formula of its
own: it is :func:`zq_formula` at q = s.
:func:`certificate_matrix` builds an explicit symmetric integer matrix
witnessing the lower bound at every 0 <= q <= s: supported exactly on the
edges, exactly q negative eigenvalues, nullity equal to the formula. One
loop fills it run by run in creation order, choosing up front the q runs
that add a negative eigenvalue; at q = 0 every run is the d = 1/2 bordering,
which is the clique-cover Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import itemgetter
from typing import TYPE_CHECKING, Sequence

from .graphs import Graph, build_graph

if TYPE_CHECKING:
    import numpy as np


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
        if set(bits) - {"0", "1"}:
            raise ValueError(f"illegal character in creation sequence {bits!r}")
        return _from_blocks([(ch, 1) for ch in bits])


def _from_blocks(blocks: Sequence[tuple[str, int]]) -> CreationSequence:
    """The sequence of ``(symbol, count)`` blocks, in order, each standing for
    ``symbol * count``. Counts are added, never spelt out, so a huge one
    costs nothing."""
    counts = [sum(count for _, count in group) for _, group in groupby(blocks, itemgetter(0))]
    if not counts:
        raise ValueError("empty creation sequence")
    if blocks[0][0] != "0":
        raise ValueError("creation sequence must start with 0")
    if blocks[-1][0] != "1":
        raise ValueError("creation sequence must end with 1 (connected)")
    return CreationSequence(tuple(zip(counts[::2], counts[1::2])))


def parse_creation_sequence(text: str) -> CreationSequence:
    """Parse either a raw 0/1 string or run-length form like ``0^3 1^2 0 1``."""
    text = text.strip()
    if " " in text or "^" in text:
        blocks = []
        for token in text.split():
            ch, caret, count = token.partition("^")
            try:
                reps = int(count) if caret else 1
            except ValueError:
                reps = 0  # not a count: refused below with the token
            if ch not in ("0", "1") or reps < 1:
                raise ValueError(f"bad run token {token!r}")
            blocks.append((ch, reps))
        return _from_blocks(blocks)
    return CreationSequence.from_bits(text)


def build_threshold_graph(seq: CreationSequence) -> Graph:
    """Vertex i is the i-th sequence entry; a 1 connects to all earlier vertices."""
    ends = accumulate(k + t for k, t in seq.runs)  # one past each run's last vertex
    ones = (range(end - t, end) for (_, t), end in zip(seq.runs, ends))
    return build_graph(seq.n, ((i, j) for run in ones for j in run for i in range(j)))


def zq_formula(seq: CreationSequence, q: int) -> int:
    """T plus the sum of the q largest a_j; q past s clamps to the q = s value, Z(G)."""
    if q < 0:
        raise ValueError("q must be nonnegative")
    a = sorted((max(k - 2, 0) for k, _ in seq.runs), reverse=True)
    return seq.trace + sum(a[:q])


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

    One loop fills a single n x n matrix run by run, in creation order. Each
    run adds its t_j ones to the nullity, and the q runs with the largest
    a_j, ties going to the earlier run, each add one negative eigenvalue and
    a_j more. Read from the tail, this is the induction on the last run s: it
    is among those q iff fewer than q earlier runs have a_j >= a_s, i.e. iff
    a_s exceeds the q-th largest earlier a_j, and then the earlier runs hold
    the other q - 1 (else all q). At q = 0 every run is the d = 1/2
    bordering, which builds the clique-cover Gram matrix. Rows/columns follow
    the creation order, so the last vertex is always universal and always
    carries a nonzero diagonal entry.
    """
    if not 0 <= q <= seq.s:
        raise ValueError(f"q must be in 0..{seq.s}, got {q}")
    import numpy as np  # here, not at the top: importing the package loads no numpy

    runs = seq.runs
    negative = sorted(range(len(runs)), key=lambda j: (-max(runs[j][0] - 2, 0), j))[:q]
    m = np.zeros((seq.n, seq.n))
    corner = 0.0  # the previous run's corner: the last dominating vertex's diagonal
    start = 0  # the run's first zero; start - 1 is the last dominating vertex, if any
    for j, (k, t) in enumerate(runs):
        v = start + k  # the run's first one
        ones = m[v : v + t]  # the ones' rows, mirrored into their columns below
        if j not in negative:
            # the new row minus the isolated rows is the old universal row, so
            # this is congruent to the old matrix with that row copied, plus
            # d*I_k: negatives kept, nullity + 1; d = 2 only keeps the corner
            # nonzero. In the first run, with no old vertices, it is the Gram
            # matrix of the star's k edges: PSD, nullity 1
            d = 1.0 if corner + k != 0 else 2.0
            ones[:, :start] = m[start - 1, :start]
            border, corner = d, corner + k * d
        elif j == 0 and k >= 2:
            # the star base: rank 2, and the minor [[0, 1], [1, k - 1]] has
            # one negative
            d, border, corner = 0.0, 1.0, k - 1.0
        elif k >= 2:
            # congruent to the old matrix + [[0, 1], [1, 1]] + 0_(k-1): one
            # more negative, nullity + k - 1
            d, border, corner = 0.0, 1.0, 1.0
            ones[:, :start] = 1.0
        else:
            # on the old vertices the new row is f times the old universal
            # row, so this is congruent to the old matrix + [[-1, 1], [1, -1]]:
            # one more negative, nullity + 1; f only keeps the corner nonzero
            f = next(f for f in (1.0, 2.0, 3.0) if f * f * corner - 1.0 != 0.0)
            ones[:, :start] = f * m[start - 1, :start]
            d, border, corner = -1.0, 1.0, f * f * corner - 1.0
        np.fill_diagonal(m[start:v, start:v], d)
        ones[:, start:v] = border
        # every further one copies the run's first dominating row and column:
        # the rank is unchanged, so negatives kept, nullity + 1
        ones[:, v : v + t] = corner
        m[:v, v : v + t] = ones[:, :v].T
        start = v + t
    return m
