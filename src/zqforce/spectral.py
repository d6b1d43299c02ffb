"""Symmetric eigenstructure, inertia, S_q membership, and family certificates.

``S_q(G)`` is the set of real symmetric matrices whose off-diagonal support
is exactly the edge set of G and which have exactly q negative eigenvalues.
Any member's nullity lower-bounds the maximum nullity M_q(G), which in turn
lower-bounds the game value Z_q(G); the constructors here produce the
explicit certificates for book graphs, strongly regular graphs, Kneser
two-set graphs, and complete-bipartite prisms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph

DEFAULT_TOL = 1e-7


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in range(g.n):
            if g.adj[i] >> j & 1:
                a[i, j] = 1.0
    return a


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    return m


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending (LAPACK ``eigvalsh``)."""
    return np.linalg.eigvalsh(_check_symmetric(m))


@dataclass(frozen=True)
class Inertia:
    n_neg: int
    n_zero: int
    n_pos: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_neg, self.n_zero, self.n_pos)


def _spectrum(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Ascending eigenvalues of a checked symmetric ``m`` and the zero threshold:
    a value of magnitude at most ``DEFAULT_TOL`` times the spectral norm."""
    eig = np.linalg.eigvalsh(m)
    return eig, DEFAULT_TOL * max(abs(eig[0]), abs(eig[-1]))


def inertia(m: np.ndarray) -> Inertia:
    """Eigenvalue sign counts; |eig| <= DEFAULT_TOL * spectral norm counts as zero."""
    eig, thr = _spectrum(_check_symmetric(m))
    n_neg = int(np.sum(eig < -thr))
    n_pos = int(np.sum(eig > thr))
    return Inertia(n_neg, len(eig) - n_neg - n_pos, n_pos)


def nullity(m: np.ndarray) -> int:
    return inertia(m).n_zero


def in_Sq(m: np.ndarray, g: Graph, q: int) -> bool:
    """Is ``m`` supported exactly on the edges of ``g`` with q negative eigenvalues?"""
    m = _check_symmetric(m)
    if m.shape[0] != g.n:
        raise ValueError(f"matrix order {m.shape[0]} != graph order {g.n}")
    eig, thr = _spectrum(m)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adj[i] >> j & 1:
                if abs(m[i, j]) <= thr:
                    return False
            elif abs(m[i, j]) > thr:
                return False
    return int(np.sum(eig < -thr)) == q


# ---------------------------------------------------------------------------
# Named-family certificates
# ---------------------------------------------------------------------------


def book_certificate(n: int) -> np.ndarray:
    """One-negative-eigenvalue certificate for the book graph K_{1,n} x K_2.

    With B the book adjacency [[A, I], [I, A]] and D the two-layer shift
    [[-r/2, 1-r/2], [1-r/2, -r/2]] (x) I for r = sqrt(n), the difference
    B - D has spectrum {2r, 0^(n), r^(n), -r} and keeps the edge support,
    so its nullity n is a lower bound for Z_1 of the book.
    """
    if n < 3:
        raise ValueError("book certificate needs n >= 3")
    from .families import book

    b = adjacency_matrix(book(n))
    r = math.sqrt(n)
    d = np.kron(np.array([[-r / 2, 1 - r / 2], [1 - r / 2, -r / 2]]), np.eye(n + 1))
    return b - d


def srg_certificate(g: Graph, theta: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(PSD, one-negative) certificate pair for a strongly regular graph.

    ``theta`` and ``tau`` must be the non-principal adjacency eigenvalues
    with tau < 0 < theta. ``A - tau*I`` is PSD with nullity mult(tau);
    ``-A + theta*I`` has one negative eigenvalue and nullity mult(theta).
    """
    a = adjacency_matrix(g)
    eig = np.linalg.eigvalsh(a)
    scale = max(1.0, abs(eig[0]), abs(eig[-1]))
    if not (tau < 0 < theta):
        raise ValueError(f"need tau < 0 < theta, got theta={theta}, tau={tau}")
    for value in (theta, tau):
        if not np.any(np.abs(eig - value) <= 1e-8 * scale):
            raise ValueError(f"{value} is not an adjacency eigenvalue")
    return a - tau * np.eye(g.n), -a + theta * np.eye(g.n)


def kneser_certificate(n: int) -> np.ndarray:
    """One-negative-eigenvalue certificate for the Kneser two-set graph K(n,2).

    The adjacency spectrum is {C(n-2,2), -(n-3)^(n-1), 1^(C(n,2)-n)}; the
    shift -A + I zeroes out the large middle eigenspace, giving nullity
    C(n,2) - n with a single negative eigenvalue 1 - C(n-2,2). (Shifting by
    the top eigenvalue instead would leave nullity 1.)
    """
    if n < 5:
        raise ValueError("Kneser certificate needs n >= 5")
    from .families import kneser2

    a = adjacency_matrix(kneser2(n))
    return -a + np.eye(a.shape[0])


def bipartite_prism_certificate(n: int, m: int) -> np.ndarray:
    """One-negative-eigenvalue certificate for K_{n,m} x K_2.

    Mirrors the book construction: add the commuting two-layer shift
    [[r/2, r/2 - 1], [r/2 - 1, r/2]] (x) I with r = sqrt(n*m) to the prism
    adjacency. The cross-layer entries become r/2 and the spectrum works out
    to {2r, r^(n+m-1), 0^(n+m-1), -r}, so the nullity is n + m - 1.
    """
    if n < 2 or m < 2:
        raise ValueError("bipartite prism certificate needs n, m >= 2")
    from .families import bipartite_prism

    b = adjacency_matrix(bipartite_prism(n, m))
    r = math.sqrt(n * m)
    c = np.kron(np.array([[r / 2, r / 2 - 1], [r / 2 - 1, r / 2]]), np.eye(n + m))
    return b + c
