"""Symmetric eigenstructure, inertia, S_q membership, and family certificates.

``S_q(G)`` is the set of real symmetric matrices whose off-diagonal support
is exactly the edge set of G and which have exactly q negative eigenvalues.
Any member's nullity lower-bounds the maximum nullity M_q(G), which in turn
lower-bounds the game value Z_q(G); the constructors here produce the
explicit certificates for book graphs, strongly regular graphs, Kneser
two-set graphs, and complete-bipartite prisms.

numpy is imported inside the functions that build or read a matrix, so
importing this module (and the package) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-7


def adjacency_matrix(g: Graph) -> np.ndarray:
    import numpy as np

    return np.array([[a >> j & 1 for j in range(g.n)] for a in g.adj], dtype=float)


def _check_symmetric(m: np.ndarray) -> np.ndarray:
    import numpy as np

    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    return m


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
    import numpy as np

    eig = np.linalg.eigvalsh(m)
    return eig, DEFAULT_TOL * max(abs(eig[0]), abs(eig[-1]))


def inertia(m: np.ndarray) -> Inertia:
    """Eigenvalue sign counts; |eig| <= DEFAULT_TOL * spectral norm counts as zero."""
    eig, thr = _spectrum(_check_symmetric(m))
    n_neg = int((eig < -thr).sum())
    n_pos = int((eig > thr).sum())
    return Inertia(n_neg, len(eig) - n_neg - n_pos, n_pos)


def nullity(m: np.ndarray) -> int:
    return inertia(m).n_zero


def in_Sq(m: np.ndarray, g: Graph, q: int) -> bool:
    """Is ``m`` supported exactly on the edges of ``g`` with q negative eigenvalues?"""
    import numpy as np

    m = _check_symmetric(m)
    if m.shape[0] != g.n:
        raise ValueError(f"matrix order {m.shape[0]} != graph order {g.n}")
    eig, thr = _spectrum(m)
    support = np.abs(m) > thr
    np.fill_diagonal(support, False)
    if not np.array_equal(support, adjacency_matrix(g) != 0):
        return False
    return int((eig < -thr).sum()) == q


# ---------------------------------------------------------------------------
# Named-family certificates
# ---------------------------------------------------------------------------


def book_certificate(n: int) -> np.ndarray:
    """One-negative-eigenvalue certificate for the book graph K_{1,n} x K_2.

    The book is the bipartite prism K_{1,n} x K_2, so this is the prism
    certificate at (1, n): spectrum {2r, r^(n), 0^(n), -r} with r = sqrt(n),
    and its nullity n is a lower bound for Z_1 of the book.
    """
    if n < 3:
        raise ValueError("book certificate needs n >= 3")
    return _prism_certificate(1, n)


def srg_certificate(g: Graph, theta: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(PSD, one-negative) certificate pair for a strongly regular graph.

    ``theta`` and ``tau`` must be the non-principal adjacency eigenvalues
    with tau < 0 < theta, each within the zero threshold of :func:`inertia`
    (``DEFAULT_TOL`` times the spectral norm) of an adjacency eigenvalue and
    not within it of the largest, which is refused: ``-A + theta*I`` would
    then have no negative eigenvalue.
    ``A - tau*I`` is PSD with nullity mult(tau); ``-A + theta*I`` has one
    negative eigenvalue and nullity mult(theta).
    """
    if not (tau < 0 < theta):
        raise ValueError(f"need tau < 0 < theta, got theta={theta}, tau={tau}")
    import numpy as np

    a = adjacency_matrix(g)
    eig, thr = _spectrum(a)
    for value in (theta, tau):
        if not np.any(np.abs(eig - value) <= thr):
            raise ValueError(f"{value} is not an adjacency eigenvalue")
        if abs(eig[-1] - value) <= thr:
            raise ValueError(f"{value} is the principal adjacency eigenvalue")
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
    import numpy as np

    from .families import kneser2

    a = adjacency_matrix(kneser2(n))
    return -a + np.eye(a.shape[0])


def bipartite_prism_certificate(n: int, m: int) -> np.ndarray:
    """One-negative-eigenvalue certificate for K_{n,m} x K_2 (see
    :func:`_prism_certificate`); its nullity is n + m - 1."""
    if n < 2 or m < 2:
        raise ValueError("bipartite prism certificate needs n, m >= 2")
    return _prism_certificate(n, m)


def _prism_certificate(n: int, m: int) -> np.ndarray:
    """Add the commuting two-layer shift [[r/2, r/2 - 1], [r/2 - 1, r/2]] (x) I
    with r = sqrt(n*m) to the adjacency of K_{n,m} x K_2. The cross-layer
    entries become r/2 and the spectrum works out to
    {2r, r^(n+m-1), 0^(n+m-1), -r}, keeping the edge support.
    """
    import numpy as np

    from .families import bipartite_prism

    b = adjacency_matrix(bipartite_prism(n, m))
    r = math.sqrt(n * m)
    c = np.kron(np.array([[r / 2, r / 2 - 1], [r / 2 - 1, r / 2]]), np.eye(n + m))
    return b + c
