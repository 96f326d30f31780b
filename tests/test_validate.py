"""Tree-comparison metrics."""
from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.cluster.distance import pdist
from repro.cluster.hac import cophenetic, linkage
from repro.core.authenticity import authenticity_clustering
from repro.core.fihc import fihc
from repro.core.validate import (
    closer_than,
    cophenetic_correlation,
    relationship_probes,
    triplet_agreement,
)
from repro.recipedb.vocab import REGIONS


@pytest.fixture
def tree_pair():
    rng = np.random.default_rng(0)
    X = rng.random((10, 4))
    Z1 = linkage(pdist(X, "euclidean"))
    Y = X + rng.normal(0, 2.0, X.shape)  # heavily perturbed copy
    Z2 = linkage(pdist(Y, "euclidean"))
    return Z1, Z2


def test_identical_trees_perfect_scores(tree_pair):
    Z1, _ = tree_pair
    assert cophenetic_correlation(Z1, Z1) == pytest.approx(1.0)
    assert triplet_agreement(Z1, Z1) == pytest.approx(1.0)


def test_scaled_heights_still_perfect(tree_pair):
    """Cophenetic correlation and triplet agreement are invariant to
    monotone height scaling."""
    Z1, _ = tree_pair
    Z2 = Z1.copy()
    Z2[:, 2] *= 7.5
    assert cophenetic_correlation(Z1, Z2) == pytest.approx(1.0)
    assert triplet_agreement(Z1, Z2) == pytest.approx(1.0)


def test_different_trees_imperfect(tree_pair):
    Z1, Z2 = tree_pair
    assert cophenetic_correlation(Z1, Z2) < 0.999
    assert triplet_agreement(Z1, Z2) < 1.0


def test_scores_bounded(tree_pair):
    Z1, Z2 = tree_pair
    assert -1.0 <= cophenetic_correlation(Z1, Z2) <= 1.0
    assert 0.0 <= triplet_agreement(Z1, Z2) <= 1.0


def test_leafcount_mismatch_rejected(tree_pair):
    Z1, _ = tree_pair
    small = linkage(pdist(np.random.default_rng(1).random((5, 2))))
    with pytest.raises(ValueError):
        cophenetic_correlation(Z1, small)
    with pytest.raises(ValueError):
        triplet_agreement(Z1, small)


def test_triplet_agreement_needs_three_leaves():
    Z = linkage(1.0 - np.eye(2))
    with pytest.raises(ValueError, match="got 2"):
        triplet_agreement(Z, Z)


def _closest_pair(C: np.ndarray, i: int, j: int, k: int) -> frozenset[int]:
    """Which pair of {i,j,k} has the smallest cophenetic distance (merges
    first). Ties return the union of tied pairs so agreement is graded
    correctly."""
    pairs = [(i, j), (i, k), (j, k)]
    d = [C[a, b] for a, b in pairs]
    lo = min(d)
    tied = [frozenset(p) for p, dv in zip(pairs, d) if dv <= lo + 1e-12]
    return tied[0] if len(tied) == 1 else frozenset().union(*tied)


def _triplet_agreement_oracle(Z1: np.ndarray, Z2: np.ndarray) -> float:
    """Per-triple reference: the trees agree when some first-merging pair
    is shared (exact match, or a tie on either side)."""
    n = Z1.shape[0] + 1
    C1, C2 = cophenetic(Z1), cophenetic(Z2)
    triples = list(itertools.combinations(range(n), 3))
    agree = sum(
        len(_closest_pair(C1, *t) & _closest_pair(C2, *t)) >= 2 for t in triples
    )
    return agree / len(triples)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ties", [False, True])
def test_triplet_agreement_matches_per_triple_oracle(seed, ties):
    """Random trees, and tie-heavy trees built from integer distances."""
    rng = np.random.default_rng(seed)

    def tree():
        A = rng.integers(1, 4, (12, 12)).astype(float) if ties else rng.random((12, 12))
        return linkage(A + A.T)

    Z1, Z2 = tree(), tree()
    for A, B in ((Z1, Z2), (Z2, Z1), (Z1, Z1)):
        assert triplet_agreement(A, B) == _triplet_agreement_oracle(A, B)


def test_closer_than_simple():
    # points on a line: a=0, b=1, c=10
    X = np.array([[0.0], [1.0], [10.0]])
    Z = linkage(pdist(X))
    assert closer_than(Z, ["a", "b", "c"], "a", "b", "c")
    assert not closer_than(Z, ["a", "b", "c"], "a", "c", "b")


def test_relationship_probes_keys():
    rng = np.random.default_rng(2)
    X = rng.random((26, 5))
    Z = linkage(pdist(X))
    probes = relationship_probes(Z, REGIONS)
    assert set(probes) == {
        "canadian_closer_to_french_than_us",
        "indian_closer_to_nafrica_than_thai",
        "indian_closer_to_nafrica_than_seasia",
    }
    assert all(isinstance(v, bool) for v in probes.values())


def test_triplet_agreement_random_baseline():
    """Two independent random trees should agree on roughly 1/3 of
    triples, far from 1.0."""
    rng = np.random.default_rng(3)
    Z1 = linkage(pdist(rng.random((15, 8))))
    Z2 = linkage(pdist(rng.random((15, 8))))
    score = triplet_agreement(Z1, Z2)
    assert 0.1 < score < 0.7


def test_tree_fingerprint_pinned(spark, recipes_small, mined_small):
    """The test-scale trees and scores are pinned byte for byte: the three
    FIHC linkage matrices, the authenticity linkage and both ``geo_scores``
    CSVs (sha256, first 16 hex digits)."""
    fr = fihc(recipes_small, mined=mined_small)
    ar = authenticity_clustering(recipes_small)
    h = hashlib.sha256()
    for metric in sorted(fr.trees):
        h.update(np.ascontiguousarray(fr.trees[metric]).tobytes())
    h.update(np.ascontiguousarray(ar.tree).tobytes())
    h.update(fr.geo_scores.to_csv(index=False).encode())
    h.update(ar.geo_scores.to_csv(index=False).encode())
    assert h.hexdigest()[:16] == "e1ccbe9053f61aa9"
