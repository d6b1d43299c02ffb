import math
from random import Random

import numpy as np
import pytest

from zqforce.families import (
    bipartite_prism,
    book,
    complete_bipartite,
    kneser2,
    petersen,
)
from zqforce import spectral
from zqforce.spectral import (
    adjacency_matrix,
    bipartite_prism_certificate,
    book_certificate,
    in_Sq,
    inertia,
    kneser_certificate,
    nullity,
    srg_certificate,
)


def test_eigenvalues_examples():
    assert np.allclose(np.linalg.eigvalsh(np.eye(3)), [1, 1, 1])
    assert np.allclose(np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1, 1])
    eig = np.linalg.eigvalsh(adjacency_matrix(petersen()))
    assert np.allclose(eig, sorted([3] + [1] * 5 + [-2] * 4), atol=1e-9)


def test_eigenvalues_trace_and_frobenius():
    rng = Random(5)
    for _ in range(30):
        n = rng.randrange(1, 12)
        raw = np.array([[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)])
        m = raw + raw.T
        eig = np.linalg.eigvalsh(m)
        assert all(a <= b for a, b in zip(eig, eig[1:]))
        scale = max(1.0, float(np.abs(eig).max()))
        assert abs(eig.sum() - np.trace(m)) <= 1e-9 * scale * n
        assert abs((eig**2).sum() - (m**2).sum()) <= 1e-9 * scale**2 * n


def test_eigenvalues_rejects_bad_input():
    with pytest.raises(ValueError):
        inertia(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        inertia(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        inertia(np.zeros((0, 0)))


def test_inertia_examples():
    a = adjacency_matrix(petersen())
    assert inertia(a + 2 * np.eye(10)).as_tuple() == (0, 4, 6)
    assert inertia(-a + np.eye(10)).as_tuple() == (1, 5, 4)
    assert inertia(np.zeros((4, 4))).as_tuple() == (0, 4, 0)


def test_in_sq_examples():
    k2 = complete_bipartite(1, 1)
    assert in_Sq(np.array([[0.0, 1.0], [1.0, 0.0]]), k2, 1)
    pet = petersen()
    a = adjacency_matrix(pet)
    assert in_Sq(a + 2 * np.eye(10), pet, 0)
    assert not in_Sq(a + 2 * np.eye(10), pet, 1)
    with pytest.raises(ValueError):
        in_Sq(np.zeros((3, 3)), pet, 0)


def test_in_sq_rejects_wrong_support():
    pet = petersen()
    a = adjacency_matrix(pet)
    broken = a.copy()
    broken[0, 2] = broken[2, 0] = 1.0  # non-edge entry
    assert not in_Sq(broken + 2 * np.eye(10), pet, 0)
    zeroed = a.copy()
    zeroed[0, 1] = zeroed[1, 0] = 0.0  # missing edge entry
    assert not in_Sq(zeroed + 2 * np.eye(10), pet, 0)


def test_book_certificate_spectra():
    for n in (3, 4, 5):
        c = book_certificate(n)
        r = math.sqrt(n)
        expected = sorted([2 * r] + [0.0] * n + [r] * n + [-r])
        assert np.allclose(np.linalg.eigvalsh(c), expected, atol=1e-8)
        assert in_Sq(c, book(n), 1)
        assert nullity(c) == n
    assert np.allclose(
        sorted(np.linalg.eigvalsh(book_certificate(4))),
        sorted([4.0] + [0.0] * 4 + [2.0] * 4 + [-2.0]),
        atol=1e-8,
    )
    with pytest.raises(ValueError):
        book_certificate(2)


def test_srg_certificate_petersen():
    psd, q1 = srg_certificate(petersen(), 1.0, -2.0)
    assert inertia(psd).as_tuple() == (0, 4, 6)
    assert inertia(q1).as_tuple() == (1, 5, 4)
    assert in_Sq(psd, petersen(), 0)
    assert in_Sq(q1, petersen(), 1)


def test_srg_certificate_errors(monkeypatch):
    with pytest.raises(ValueError):
        srg_certificate(complete_bipartite(3, 3), 0.0, -3.0)  # theta not positive
    with pytest.raises(ValueError):
        srg_certificate(petersen(), 1.5, -2.0)  # not an eigenvalue
    # theta is tested with inertia's zero threshold, 1e-7 times the spectral
    # norm (3 for Petersen): 1e-9 and 1e-7 off are eigenvalues, 1e-6 is not
    for off in (1e-9, 1e-7):
        srg_certificate(petersen(), 1 + off, -2.0)
    with pytest.raises(ValueError, match="is not an adjacency eigenvalue"):
        srg_certificate(petersen(), 1 + 1e-6, -2.0)
    # the principal eigenvalue 3, within the same threshold, is refused
    for off in (0, 1e-7):
        with pytest.raises(ValueError, match="is the principal adjacency eigenvalue"):
            srg_certificate(petersen(), 3 + off, -2.0)

    def no_matrix(g):
        raise AssertionError("matrix built before the arguments were checked")

    monkeypatch.setattr(spectral, "adjacency_matrix", no_matrix)
    with pytest.raises(ValueError, match="need tau < 0 < theta"):
        srg_certificate(petersen(), 1.0, 2.0)


def test_srg_certificate_kneser6():
    g = kneser2(6)
    psd, q1 = srg_certificate(g, 1.0, -3.0)
    assert inertia(psd).n_zero == 5  # multiplicity of tau = -3 is n-1
    assert inertia(psd).n_neg == 0
    assert nullity(q1) == 15 - 1 - 5


def test_kneser_certificate():
    for n in (5, 6, 7):
        b = kneser_certificate(n)
        assert in_Sq(b, kneser2(n), 1)
        assert nullity(b) == math.comb(n, 2) - n
    assert np.allclose(kneser_certificate(5), -adjacency_matrix(petersen_iso()) + np.eye(10))
    with pytest.raises(ValueError):
        kneser_certificate(4)


def petersen_iso():
    return kneser2(5)


def test_bipartite_prism_certificate():
    for n, m in ((2, 2), (2, 3), (3, 3)):
        c = bipartite_prism_certificate(n, m)
        g = bipartite_prism(n, m)
        assert in_Sq(c, g, 1)
        assert nullity(c) >= n + m - 1
    assert nullity(bipartite_prism_certificate(2, 2)) >= 3
    assert nullity(bipartite_prism_certificate(2, 3)) >= 4
    with pytest.raises(ValueError):
        bipartite_prism_certificate(1, 3)


def test_certificate_chain_small():
    # any matrix passing the S_q membership bounds the solved game value
    from zqforce.game import zq_number

    c = book_certificate(3)
    assert nullity(c) <= zq_number(book(3), 1, build_strategy=False).value